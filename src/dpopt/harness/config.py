"""Experiment configuration: JSON files with CLI flag overrides."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from ..core.loss import (LossSpec, glm_loss, huber_mean_loss, square_link,
                         synthetic_nonconvex_loss, tanh_link)
from ..recursive_reg import MODES, SUBROUTINES
from .synthetic import KINDS

# the keys a config may hold: at its top level, and in each block that the
# harness reads
CONFIG_KEYS = {
    "config": ("algorithm", "grid", "delta", "seeds", "out", "master_seed", "loss",
               "data", "rr", "overrides", "accountant_c", "workers", "timing",
               "write_reports"),
    "grid": ("n", "d", "eps"),
    "rr": ("mode", "subroutine", "R_bar"),
    "loss": ("kind", "normX", "F0", "zmax", "L0", "L1"),
    "data": ("kind", "rank", "B", "label_scale", "spectrum_decay", "support_size"),
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
    master_seed: int = 0
    loss: dict = field(default_factory=lambda: {"kind": "synthetic_nonconvex"})
    data: dict = field(default_factory=lambda: {"kind": "glm_fullrank"})
    rr: dict = field(default_factory=dict)
    overrides: dict = field(default_factory=dict)
    accountant_c: float = 1.0
    workers: int = 1
    timing: bool = False
    write_reports: bool = True

    def validate(self) -> None:
        from .experiment import ALGORITHMS  # experiment imports this module
        if self.algorithm not in ALGORITHMS:
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
        numbers += [(f"loss {key}", value) for key, value in self.loss.items() if key != "kind"]
        numbers += [("rr R_bar", self.rr["R_bar"])] if "R_bar" in self.rr else []
        for key, value in numbers:
            value = float(value)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{key} must be finite and positive, got {value!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        for key in ("timing", "write_reports"):
            if not isinstance(getattr(self, key), bool):  # bool("false") is True
                raise ValueError(f"{key} must be true or false, got {getattr(self, key)!r}")
        for block, key, default, allowed in (
                ("loss", "kind", "synthetic_nonconvex", LOSS_KINDS),
                ("data", "kind", "glm_fullrank", KINDS),
                ("rr", "mode", "linear_time", MODES),
                ("rr", "subroutine", "phased_sgd", SUBROUTINES)):
            value = getattr(self, block).get(key, default)
            if value not in allowed:
                raise ValueError(f"unknown {block} {key} {value!r}; "
                                 f"expected one of {list(allowed)}")

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
        for block, known in CONFIG_KEYS.items():
            keys = raw if block == "config" else raw.get(block) or {}
            unknown = sorted(set(keys) - set(known))
            if unknown:
                raise ValueError(f"unknown {block} keys: {unknown}")
        for key in ("algorithm", "delta", "seeds", "out"):
            if key not in raw:
                raise ValueError(f"missing config field {key!r}")
        grid = raw.get("grid", {})
        cfg = ExperimentConfig(
            algorithm=raw["algorithm"],
            grid_n=[int(v) for v in grid.get("n", [])],
            grid_d=[int(v) for v in grid.get("d", [])],
            grid_eps=[float(v) for v in grid.get("eps", [])],
            delta=float(raw["delta"]),
            seeds=[int(s) for s in raw["seeds"]],
            out=str(raw["out"]),
            master_seed=int(raw.get("master_seed", 0)),
            loss=dict(raw.get("loss", {"kind": "synthetic_nonconvex"})),
            data=dict(raw.get("data", {"kind": "glm_fullrank"})),
            rr=dict(raw.get("rr", {})),
            overrides=dict(raw.get("overrides", {})),
            accountant_c=float(raw.get("accountant_c", 1.0)),
            workers=int(raw.get("workers", 1)),
            timing=raw.get("timing", False),
            write_reports=raw.get("write_reports", True),
        )
        cfg.validate()
        return cfg

    @staticmethod
    def from_file(path: str | Path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return ExperimentConfig.from_dict(json.load(fh))


def _glm_tanh(cfg: dict, d: int, normX: float) -> LossSpec:
    loss = glm_loss(tanh_link(), 1.0, 1.0, normX, d, F0_hint=float(cfg.get("F0", 1.0)))
    loss.name = "glm_tanh"
    return loss


def _glm_square(cfg: dict, d: int, normX: float) -> LossSpec:
    zmax = float(cfg.get("zmax", 4.0))  # |z - y| range the L0 declaration covers
    loss = glm_loss(square_link(), zmax, 1.0, normX, d, F0_hint=float(cfg.get("F0", 1.0)))
    loss.name = "glm_square"
    return loss


def _huber_mean(cfg: dict, d: int, normX: float) -> LossSpec:
    loss = huber_mean_loss(float(cfg.get("L0", 1.0)), float(cfg.get("L1", 1.0)), dim=d)
    if "F0" in cfg:
        loss.F0_hint = float(cfg["F0"])
    return loss


# each loss kind's factory, called with the loss block, d and normX
LOSS_KINDS = {
    "synthetic_nonconvex": lambda cfg, d, normX: synthetic_nonconvex_loss(d, normX=normX),
    "glm_tanh": _glm_tanh, "glm_square": _glm_square, "huber_mean": _huber_mean,
}


def build_loss(loss_cfg: dict, d: int) -> LossSpec:
    """Instantiate the configured loss at dimension d."""
    kind = loss_cfg.get("kind", "synthetic_nonconvex")
    normX = float(loss_cfg.get("normX", 1.0))
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}; expected one of {list(LOSS_KINDS)}")
    return LOSS_KINDS[kind](loss_cfg, d, normX)
