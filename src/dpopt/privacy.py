"""Noise-scale calibration formulas, sensitivity bounds, and the Gaussian
noise sampler with its draw ledger.

All calibration operations are pure: identical inputs give bit-identical
outputs. Optimizers route every noise draw through :func:`draw_gaussian`,
or scale normals drawn ahead in a block and record the block's draws through
:func:`record_draws` (or, for tree Spider, one `NoiseLedger.record` per
node), so each draw lands in the run's ledger with the calibrated sigma.
"""
from __future__ import annotations

import math
from array import array
from collections.abc import Iterator, Sequence
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
        # written so that a NaN fails each check
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not self.c > 0:
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
    """Append-only record of Gaussian draws, coalescing repeats in place.

    A draw at the last entry's site and dim, with a sigma that compares equal
    (`==`, so a NaN never coalesces), adds one to that entry's count.
    SpiderBoost gives each gradient-variation step its own sigma, so a
    ledger can hold 10^4 entries per run: they are kept as columns, a site
    list and typed arrays of sigma, dim and count (about 32 B an entry).
    `entries` is a read-only view of them as `NoiseLedgerEntry` values.
    Two ledgers are equal when their columns are, sigma bit for bit.
    """

    __slots__ = ("_site", "_sigma", "_dim", "_count")

    def __init__(self):
        self._site: list[str] = []
        self._sigma = array("d")
        self._dim = array("q")
        self._count = array("q")

    def record(self, site: str, sigma: float, dim: int) -> None:
        if (self._site and self._site[-1] == site and self._sigma[-1] == sigma
                and self._dim[-1] == dim):
            self._count[-1] += 1
            return
        self._site.append(site)
        self._sigma.append(sigma)
        self._dim.append(dim)
        self._count.append(1)

    @property
    def entries(self) -> "LedgerEntries":
        return LedgerEntries(self)

    def iter_rows(self) -> Iterator[tuple[str, float, int, int]]:
        """The entries as (site, sigma, dim, count), without a list of them."""
        return zip(self._site, self._sigma, self._dim, self._count)

    def total_draws(self) -> int:
        return sum(self._count)

    def rows(self) -> list[tuple[str, float, int, int]]:
        return list(self.iter_rows())

    def __eq__(self, other):
        if not isinstance(other, NoiseLedger):
            return NotImplemented
        return (self._site == other._site and self._dim == other._dim
                and self._count == other._count
                and self._sigma.tobytes() == other._sigma.tobytes())


class LedgerEntries(Sequence):
    """Read-only view of a ledger's entries; each access builds a fresh
    `NoiseLedgerEntry`, so changing one does not change the ledger."""

    __slots__ = ("_ledger",)

    def __init__(self, ledger: NoiseLedger):
        self._ledger = ledger

    def __len__(self) -> int:
        return len(self._ledger._site)

    def __getitem__(self, i: int) -> NoiseLedgerEntry:
        led = self._ledger
        return NoiseLedgerEntry(led._site[i], led._sigma[i], led._dim[i], led._count[i])

    def __iter__(self) -> Iterator[NoiseLedgerEntry]:
        led = self._ledger
        return map(NoiseLedgerEntry, led._site, led._sigma, led._dim, led._count)


def gaussian_sigma(sensitivity: float, eps: float, delta: float) -> float:
    """Classical Gaussian-mechanism scale for an l2-sensitivity-bounded query:
    sigma = sensitivity * sqrt(2 log(1.25/delta)) / eps."""
    # written so that a NaN fails each check
    if not sensitivity >= 0:
        raise ValueError("sensitivity must be non-negative")
    if not eps > 0:
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
    if not per_query_sensitivity >= 0:  # so that a NaN fails too
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
                  site: str = "gauss", out: np.ndarray | None = None) -> np.ndarray:
    """Isotropic N(0, I_d sigma^2) draw; records a ledger entry when given one.
    Given `out`, a contiguous float64 array of shape (dim,), the draw is
    written there, with the bits of a fresh draw, and `out` is returned."""
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if out is None:
        g = rng.standard_normal(dim)
    elif out.shape == (dim,):
        g = rng.standard_normal(out=out)  # its size from out: faster than passing dim
    else:
        raise ValueError(f"out has shape {out.shape}, expected ({dim},)")
    g *= sigma
    if ledger is not None:
        ledger.record(site, sigma, dim)
    return g


def record_draws(ledgers: Sequence[NoiseLedger] | None, sigmas: np.ndarray,
                 dim: int, site: str = "gauss") -> None:
    """Check and record a block of isotropic N(0, I_dim sigma^2) draws that
    were scaled outside draw_gaussian: sigmas has one row per draw and one
    column per run. draw_gaussian's checks are made once for the block; then,
    when ledgers are given, run r's draws go into ledgers[r] in row order,
    one `NoiseLedger.record` each."""
    if (sigmas < 0).any():
        raise ValueError("sigma must be non-negative")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if ledgers is None:
        return
    for ledger, column in zip(ledgers, sigmas.T.tolist()):
        record = ledger.record
        for sigma in column:
            record(site, sigma, dim)
