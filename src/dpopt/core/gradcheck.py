"""Finite-difference gradient verification and regularity audits."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .loss import LossSpec


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_err: float
    probe_count: int


def _central_difference(loss: LossSpec, w: np.ndarray, x, y, h: float) -> np.ndarray:
    g = np.empty_like(w)
    for i in range(w.shape[0]):
        wp = w.copy()
        wm = w.copy()
        wp[i] += h
        wm[i] -= h
        g[i] = (loss.eval(wp, x, y) - loss.eval(wm, x, y)) / (2.0 * h)
    return g


def fd_check(loss: LossSpec, probes: int = 100, h: float = 1e-5,
             seed: int = 0) -> GradCheckReport:
    """Check closed-form gradients against central differences of eval.

    Probes are random (w, x) pairs; the report carries the worst relative
    error ||fd - grad|| / max(||grad||, 1e-8).
    """
    if h <= 0:
        raise ValueError("h must be positive")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(probes):
        w = rng.standard_normal(loss.dim)
        x, y = loss.probe_sample(rng)
        g = loss.grad(w, x, y)
        fd = _central_difference(loss, w, x, y, h)
        rel = float(np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-8))
        worst = max(worst, rel)
    return GradCheckReport(max_rel_err=worst, probe_count=probes)


def _probe_ratios(loss: LossSpec, pairs: int, seed: int, gap) -> float:
    """Largest observed gap(x, y, w1, w2) / ||w1 - w2|| over random probes:
    a probe sample, then w1 ~ N(0, I) and w2 = w1 + N(0, I) U(1e-3, 2)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(pairs):
        x, y = loss.probe_sample(rng)
        w1 = rng.standard_normal(loss.dim)
        w2 = w1 + rng.standard_normal(loss.dim) * rng.uniform(1e-3, 2.0)
        dw = float(np.linalg.norm(w1 - w2))
        worst = max(worst, gap(x, y, w1, w2) / dw)
    return worst


def lipschitz_audit(loss: LossSpec, pairs: int = 1000, seed: int = 0) -> float:
    """Largest observed |eval(w1) - eval(w2)| / ||w1 - w2|| over random probes."""
    return _probe_ratios(loss, pairs, seed, lambda x, y, w1, w2:
                         abs(loss.eval(w1, x, y) - loss.eval(w2, x, y)))


def smoothness_audit(loss: LossSpec, pairs: int = 1000, seed: int = 0) -> float:
    """Largest observed ||grad(w1) - grad(w2)|| / ||w1 - w2|| over random probes."""
    return _probe_ratios(loss, pairs, seed, lambda x, y, w1, w2: float(
        np.linalg.norm(loss.grad(w1, x, y) - loss.grad(w2, x, y))))


def convexity_spot_check(loss: LossSpec, probes: int = 32, seed: int = 0,
                         tol: float = 1e-8) -> None:
    """Midpoint probe f((a+b)/2) <= (f(a)+f(b))/2 + tol; catches gross
    non-convexity, not a proof."""
    rng = np.random.default_rng(seed)
    for _ in range(probes):
        x, y = loss.probe_sample(rng)
        a = rng.standard_normal(loss.dim)
        b = rng.standard_normal(loss.dim)
        mid = loss.eval(0.5 * (a + b), x, y)
        avg = 0.5 * (loss.eval(a, x, y) + loss.eval(b, x, y))
        if mid > avg + tol:
            raise ValueError(f"loss '{loss.name}' failed convexity spot-check: "
                             f"midpoint {mid} > average {avg}")
