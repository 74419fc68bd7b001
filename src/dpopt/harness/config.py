"""Experiment configuration: JSON files with CLI flag overrides."""
from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass
from pathlib import Path

from ..core.loss import (LossSpec, glm_loss, huber_mean_loss, square_link,
                         synthetic_nonconvex_loss, tanh_link)
from ..recursive_reg import MODES, SUBROUTINES
from ..util import PreconditionError, read_number
from .synthetic import KINDS


@dataclass(frozen=True)
class Number:
    """A numeric key's default and rule: its value, or each entry of it when
    the default is a list, is read by `read_number` as `kind` with least value
    `least`; a `null` key may also be None."""
    default: object
    kind: type = float
    least: float | None = None
    null: bool = False

    def read(self, name: str, value):
        if self.null and value is None:
            return None
        if isinstance(self.default, list):
            return [read_number(name, v, self.kind, self.least)
                    for v in _typed(name, value, list, "a list")]
        return read_number(name, value, self.kind, self.least)


# a number > 0, 1.0 when absent
POSITIVE = Number(1.0, least=0)

# the keys a config must hold, with the rule of each number (a list default
# marks a list; a required key's default is never taken)
REQUIRED = {"algorithm": None, "delta": Number(None), "seeds": Number([], int), "out": None}

# every other key of a config, at its top level and in each block, with the value
# it takes when absent, or for a number its Number; a loss block also holds its
# kind's keys in LOSS_KINDS
DEFAULTS = {
    "config": {"grid": {}, "master_seed": Number(0, int), "loss": {}, "data": {}, "rr": {},
               "overrides": {}, "accountant_c": POSITIVE,
               "workers": Number(1, int, 1), "timing": False, "write_reports": True},
    "grid": {"n": Number([], int, 1), "d": Number([], int, 1), "eps": Number([], least=0)},
    "loss": {"kind": "synthetic_nonconvex"},
    "data": {"kind": "glm_fullrank", "rank": Number(None, int, 1, null=True),
             "B": POSITIVE, "label_scale": Number(0.0),
             "spectrum_decay": Number(1.0), "support_size": Number(256, int, 1)},
    "rr": {"mode": "linear_time", "subroutine": "phased_sgd", "R_bar": POSITIVE},
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
        """Check the rules that involve more than one key, then derive every
        grid point through its ALGORITHMS entry: a failed sample-size
        hypothesis is left to that point's rows, and any other failure
        rejects the config. Each key's own rule is read by `from_dict`."""
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
        rank = self.data["rank"]
        if rank is None:
            if self.data["kind"] == "glm_lowrank":
                raise ValueError("data rank must be an integer for glm_lowrank, got None")
        elif rank > min(self.grid_d):
            raise ValueError(f"data rank must be <= every grid d, got {rank} > "
                             f"{min(self.grid_d)}")
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
        return [(i, *point) for i, point in
                enumerate(itertools.product(self.grid_n, self.grid_d, self.grid_eps))]

    def to_dict(self) -> dict:
        """The config as a dict that `from_dict` reads back."""
        raw = dataclasses.asdict(self)
        raw["grid"] = {key: raw.pop(f"grid_{key}") for key in ("n", "d", "eps")}
        return raw

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        """The validated config of `raw`, each absent key at its default and
        each number read by its rule."""
        for key in REQUIRED:
            if key not in raw:
                raise ValueError(f"missing config field {key!r}")
        top = _filled("config", raw, {**REQUIRED, **DEFAULTS["config"]})
        grid = _filled("grid", top.pop("grid"), DEFAULTS["grid"])
        top.update(out=str(_typed("out", top["out"], (str, Path), "a path")),
                   overrides=dict(_typed("overrides", top["overrides"], dict, "an object")),
                   loss=_loss_block(top["loss"]),
                   data=_filled("data", top["data"], DEFAULTS["data"]),
                   rr=_filled("rr", top["rr"], DEFAULTS["rr"]))
        cfg = ExperimentConfig(grid_n=grid["n"], grid_d=grid["d"], grid_eps=grid["eps"], **top)
        cfg.validate()
        return cfg

    @staticmethod
    def from_file(path: str | Path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return ExperimentConfig.from_dict(json.load(fh))


def _filled(block: str, given: dict, declared: dict) -> dict:
    """`given` with each absent key at its declared default and each number
    read by its declared rule; any other key is rejected."""
    unknown = sorted(set(_typed(block, given, dict, "an object")) - set(declared))
    if unknown:
        raise ValueError(f"unknown {block} keys: {unknown}")
    filled = {}
    for key, default in declared.items():
        if isinstance(default, Number):
            name = key if block == "config" else f"{block} {key}"
            filled[key] = default.read(name, given.get(key, default.default))
        else:
            filled[key] = given.get(key, default)
    return filled


def _typed(name: str, value, types, what: str):
    """value, or a ValueError naming the key if it is not one of types."""
    if not isinstance(value, types):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value


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
    loss.F0_hint = cfg["F0"]
    return loss


# each loss kind's keys, with the default and rule of each, and its factory,
# called with the filled loss block and d
LOSS_KINDS = {
    "synthetic_nonconvex": ({"normX": POSITIVE},
                            lambda cfg, d: synthetic_nonconvex_loss(d, normX=cfg["normX"])),
    "glm_tanh": ({"normX": POSITIVE, "F0": POSITIVE}, _glm_tanh),
    "glm_square": ({"normX": POSITIVE, "F0": POSITIVE, "zmax": Number(4.0, least=0)},
                   _glm_square),
    "huber_mean": ({"L0": POSITIVE, "L1": POSITIVE, "F0": Number(None, least=0, null=True)},
                   _huber_mean),
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
