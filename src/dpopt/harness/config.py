"""Experiment configuration: JSON files with CLI flag overrides."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from ..core.loss import (LossSpec, glm_loss, huber_mean_loss, square_link,
                         synthetic_nonconvex_loss, tanh_link)
from ..recursive_reg import MODES, SUBROUTINES
from ..util import PreconditionError
from .synthetic import KINDS

REQUIRED = ("algorithm", "delta", "seeds", "out")

# every other key of a config, at its top level and in each block, with the value
# it takes when absent; a loss block also holds its kind's keys in LOSS_KINDS
DEFAULTS = {
    "config": {"grid": {}, "master_seed": 0, "loss": {}, "data": {}, "rr": {},
               "overrides": {}, "accountant_c": 1.0, "workers": 1, "timing": False,
               "write_reports": True},
    "grid": {"n": [], "d": [], "eps": []},
    "loss": {"kind": "synthetic_nonconvex"},
    "data": {"kind": "glm_fullrank", "rank": None, "B": 1.0, "label_scale": 0.0,
             "spectrum_decay": 1.0, "support_size": 256},
    "rr": {"mode": "linear_time", "subroutine": "phased_sgd", "R_bar": 1.0},
}


@dataclass
class ExperimentConfig:
    algorithm: str
    grid_n: list[int]
    grid_d: list[int]
    grid_eps: list[float]
    delta: float
    seeds: list[int]
    out: str
    master_seed: int
    loss: dict
    data: dict
    rr: dict
    overrides: dict
    accountant_c: float
    workers: int
    timing: bool
    write_reports: bool

    def validate(self) -> None:
        """Check every value, then derive every grid point through its
        ALGORITHMS entry: a failed sample-size hypothesis is left to that
        point's rows, and any other failure rejects the config."""
        from .experiment import ALGORITHMS, grid_point  # experiment imports this module
        if not isinstance(self.algorithm, str) or self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if not (self.grid_n and self.grid_d and self.grid_eps):
            raise ValueError("grid must be non-empty in n, d, and eps")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        for key, values in (("n", self.grid_n), ("d", self.grid_d)):
            if min(values) < 1:
                raise ValueError(f"grid {key} must be >= 1, got {min(values)}")
        numbers = [("grid eps", eps) for eps in self.grid_eps]
        numbers += [("accountant_c", self.accountant_c)]
        numbers += [(f"loss {key}", value) for key, value in self.loss.items()
                    if key != "kind" and value is not None]
        numbers += [("rr R_bar", self.rr["R_bar"]), ("data B", self.data["B"])]
        for key, value in numbers:
            value = _number(key, float, value)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{key} must be finite and positive, got {value!r}")
        for key in ("label_scale", "spectrum_decay"):
            if not math.isfinite(self.data[key]):
                raise ValueError(f"data {key} must be finite, got {self.data[key]!r}")
        rank = self.data["rank"]
        if rank is None:
            if self.data["kind"] == "glm_lowrank":
                raise ValueError("data rank must be an integer for glm_lowrank, got None")
        elif not (type(rank) is int and rank >= 1):
            raise ValueError(f"data rank must be null or an integer >= 1, got {rank!r}")
        elif rank > min(self.grid_d):
            raise ValueError(f"data rank must be <= every grid d, got {rank} > "
                             f"{min(self.grid_d)}")
        for key, value in self.overrides.items():
            if isinstance(value, bool) or not (isinstance(value, (int, float))
                                               and math.isfinite(value)):
                raise ValueError(f"overrides {key} must be a finite number, got {value!r}")
        for key, value in (("data support_size", self.data["support_size"]),
                           ("workers", self.workers)):
            if value < 1:
                raise ValueError(f"{key} must be >= 1, got {value}")
        for key in ("timing", "write_reports"):
            if not isinstance(getattr(self, key), bool):  # bool("false") is True
                raise ValueError(f"{key} must be true or false, got {getattr(self, key)!r}")
        for block, key, allowed in (("data", "kind", KINDS), ("rr", "mode", MODES),
                                    ("rr", "subroutine", SUBROUTINES)):
            _check_kind(block, key, getattr(self, block)[key], allowed)
        derive, seeds = ALGORITHMS[self.algorithm][0], list(enumerate(self.seeds))
        for point in self.grid_points():
            try:
                derive(grid_point(self, *point, seeds))
            except PreconditionError:
                pass
            except Exception as exc:
                _, n, d, eps = point
                raise ValueError(f"{self.algorithm} at n={n}, d={d}, eps={eps}: {exc}") from exc

    def grid_points(self) -> list[tuple[int, int, int, float]]:
        """(grid_index, n, d, eps) in canonical (config-order) enumeration."""
        pts = []
        i = 0
        for n in self.grid_n:
            for d in self.grid_d:
                for eps in self.grid_eps:
                    pts.append((i, int(n), int(d), float(eps)))
                    i += 1
        return pts

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        """The validated config of `raw`, each absent key at its default."""
        for key in REQUIRED:
            if key not in raw:
                raise ValueError(f"missing config field {key!r}")
        top = _filled("config", raw, {**dict.fromkeys(REQUIRED), **DEFAULTS["config"]})
        grid = _filled("grid", top.pop("grid"), DEFAULTS["grid"])
        top.update(delta=_number("delta", float, top["delta"]),
                   seeds=_numbers("seeds", int, top["seeds"]),
                   out=str(_typed("out", top["out"], (str, Path), "a path")),
                   overrides=dict(_typed("overrides", top["overrides"], dict, "an object")),
                   loss=_loss_block(top["loss"]),
                   data=_filled("data", top["data"], DEFAULTS["data"]),
                   rr=_filled("rr", top["rr"], DEFAULTS["rr"]))
        cfg = ExperimentConfig(grid_n=_numbers("grid n", int, grid["n"]),
                               grid_d=_numbers("grid d", int, grid["d"]),
                               grid_eps=_numbers("grid eps", float, grid["eps"]), **top)
        cfg.validate()
        return cfg

    @staticmethod
    def from_file(path: str | Path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return ExperimentConfig.from_dict(json.load(fh))


def _filled(block: str, given: dict, defaults: dict) -> dict:
    """`given` with each absent key of `defaults`; any other key is rejected."""
    unknown = sorted(set(_typed(block, given, dict, "an object")) - set(defaults))
    if unknown:
        raise ValueError(f"unknown {block} keys: {unknown}")
    filled = {**defaults, **given}
    for key, default in defaults.items():
        if type(default) in (int, float):  # a bool is left for validate to check
            name = key if block == "config" else f"{block} {key}"
            filled[key] = _number(name, type(default), filled[key])
    return filled


def _typed(name: str, value, types, what: str):
    """value, or a ValueError naming the key if it is not one of types."""
    if not isinstance(value, types):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value


def _number(name: str, cast, value):
    """cast(value), or a ValueError naming the key of a value it cannot take;
    a boolean is no number, though int(True) is 1."""
    if not isinstance(value, bool):
        try:
            return cast(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{name} must be a number, got {value!r}")


def _numbers(name: str, cast, values) -> list:
    return [_number(name, cast, value) for value in _typed(name, values, list, "a list")]


def _check_kind(block: str, key: str, value, allowed) -> None:
    if not isinstance(value, str) or value not in allowed:
        raise ValueError(f"unknown {block} {key} {value!r}; expected one of {list(allowed)}")


def _glm_tanh(cfg: dict, d: int) -> LossSpec:
    loss = glm_loss(tanh_link(), 1.0, 1.0, cfg["normX"], d, F0_hint=cfg["F0"])
    loss.name = "glm_tanh"
    return loss


def _glm_square(cfg: dict, d: int) -> LossSpec:
    # zmax: the |z - y| range that the L0 declaration covers
    loss = glm_loss(square_link(), cfg["zmax"], 1.0, cfg["normX"], d, F0_hint=cfg["F0"])
    loss.name = "glm_square"
    return loss


def _huber_mean(cfg: dict, d: int) -> LossSpec:
    loss = huber_mean_loss(cfg["L0"], cfg["L1"], dim=d)
    if cfg["F0"] is not None:
        loss.F0_hint = float(cfg["F0"])
    return loss


# each loss kind's keys, with the value each takes when absent, and its
# factory, called with the filled loss block and d
LOSS_KINDS = {
    "synthetic_nonconvex": ({"normX": 1.0},
                            lambda cfg, d: synthetic_nonconvex_loss(d, normX=cfg["normX"])),
    "glm_tanh": ({"normX": 1.0, "F0": 1.0}, _glm_tanh),
    "glm_square": ({"normX": 1.0, "F0": 1.0, "zmax": 4.0}, _glm_square),
    "huber_mean": ({"L0": 1.0, "L1": 1.0, "F0": None}, _huber_mean),
}


def _loss_block(block: dict) -> dict:
    """The loss block filled from its kind's entry in LOSS_KINDS."""
    kind = _typed("loss", block, dict, "an object").get("kind", DEFAULTS["loss"]["kind"])
    _check_kind("loss", "kind", kind, LOSS_KINDS)
    return _filled("loss", block, {**DEFAULTS["loss"], **LOSS_KINDS[kind][0]})


def build_loss(loss_cfg: dict, d: int) -> LossSpec:
    """Instantiate the configured loss at dimension d, its block filled as at load."""
    cfg = _loss_block(loss_cfg)
    return LOSS_KINDS[cfg["kind"]][1](cfg, d)
