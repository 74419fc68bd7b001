"""Noise-scale calibration formulas, sensitivity bounds, and the Gaussian
noise sampler with its draw ledger.

All calibration operations are pure: identical inputs give bit-identical
outputs. Optimizers route every noise draw through :func:`draw_gaussian`,
or scale normals drawn ahead in a block through :func:`scale_gaussian_rows`,
so each draw lands in the run's ledger with the calibrated sigma.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PrivacyBudget:
    """(eps, delta) pair plus the accountant's universal constant c.

    The constant c is never fixed numerically by the analysis; it is exposed
    as a configuration knob with default 1.
    """

    eps: float
    delta: float
    c: float = 1.0

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.c <= 0:
            raise ValueError("c must be positive")

    def halve_delta(self) -> "PrivacyBudget":
        return PrivacyBudget(self.eps, self.delta / 2.0, self.c)


@dataclass(slots=True)
class NoiseLedgerEntry:
    site: str
    sigma: float
    dim: int
    count: int = 1


class NoiseLedger:
    """Append-only record of Gaussian draws, coalescing repeats in place."""

    def __init__(self):
        self.entries: list[NoiseLedgerEntry] = []

    def record(self, site: str, sigma: float, dim: int) -> None:
        if self.entries:
            last = self.entries[-1]
            if last.site == site and last.sigma == sigma and last.dim == dim:
                last.count += 1
                return
        self.entries.append(NoiseLedgerEntry(site, sigma, dim))

    def total_draws(self) -> int:
        return sum(e.count for e in self.entries)

    def rows(self) -> list[tuple[str, float, int, int]]:
        return [(e.site, e.sigma, e.dim, e.count) for e in self.entries]


def gaussian_sigma(sensitivity: float, eps: float, delta: float) -> float:
    """Classical Gaussian-mechanism scale for an l2-sensitivity-bounded query:
    sigma = sensitivity * sqrt(2 log(1.25/delta)) / eps."""
    if sensitivity < 0:
        raise ValueError("sensitivity must be non-negative")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return sensitivity * math.sqrt(2.0 * math.log(1.25 / delta)) / eps


def accountant_sigma(per_query_sensitivity: float, b: int, T: float, n: int,
                     budget: PrivacyBudget) -> float:
    """Per-query noise scale of the subsampled-Gaussian accountant.

    With lam = per_query_sensitivity * n (the per-element contribution bound
    of the underlying queries), returns

        c * lam * sqrt(log(1/delta)) / eps * max(1/b, sqrt(T)/n)

    for T adaptive queries over batches of size b drawn from n elements.
    T may be fractional (queries issued every q-th step count as T/q).
    """
    if per_query_sensitivity < 0:
        raise ValueError("sensitivity must be non-negative")
    if not 1 <= b <= n:
        raise ValueError(f"need 1 <= b <= n, got b={b}, n={n}")
    if T < 1:
        raise ValueError("T must be >= 1")
    lam = per_query_sensitivity * n
    return (budget.c * lam * math.sqrt(math.log(1.0 / budget.delta)) / budget.eps
            * max(1.0 / b, math.sqrt(T) / n))


def spider_gv_sensitivity(L1: float, step: float, b2: int) -> float:
    """l2-sensitivity 2*L1*step/b2 of a mini-batch gradient-variation mean
    between iterates a distance `step` apart."""
    if step < 0:
        raise ValueError("step must be non-negative")
    if b2 < 1:
        raise ValueError("b2 must be >= 1")
    return 2.0 * L1 * step / b2

def tree_gv_sensitivity(beta_par: float, D: int, b: int) -> float:
    """l2-sensitivity 2*beta*2^(D/2)/b of a tree node's gradient-variation
    estimate under normalized steps of length beta/(2^(D/2) L1)."""
    if D < 0:
        raise ValueError("D must be non-negative")
    if b < 1:
        raise ValueError("b must be >= 1")
    return 2.0 * beta_par * 2.0 ** (D / 2.0) / b


def draw_gaussian(dim: int, sigma: float, rng: np.random.Generator,
                  ledger: NoiseLedger | None = None,
                  site: str = "gauss") -> np.ndarray:
    """Isotropic N(0, I_d sigma^2) draw; records a ledger entry when given one."""
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    g = rng.standard_normal(dim) * sigma
    if ledger is not None:
        ledger.record(site, sigma, dim)
    return g


def scale_gaussian_rows(z: np.ndarray, sigmas: np.ndarray,
                        ledgers: list[NoiseLedger] | None = None,
                        site: str = "gauss") -> np.ndarray:
    """One N(0, I_d sigmas[r]^2) draw per run r, from standard normals z of
    shape (R, d) that run r's generator drew ahead of time (a block of them
    per phase); records each run's draw in ledgers[r] when given ledgers."""
    if (sigmas < 0).any():
        raise ValueError("sigma must be non-negative")
    if z.shape[1] < 1:
        raise ValueError("dim must be >= 1")
    if ledgers is not None:
        dim = z.shape[1]
        for ledger, sigma in zip(ledgers, sigmas.tolist()):
            ledger.record(site, sigma, dim)
    return z * sigmas[:, None]
