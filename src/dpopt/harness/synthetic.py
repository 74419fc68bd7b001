"""Synthetic dataset generators and finite-support populations."""
from __future__ import annotations

import functools

import numpy as np

from ..core.data import Dataset, row_norms
from ..core.loss import LossSpec
from .rng import stream

KINDS = ("glm_lowrank", "glm_fullrank", "huber_cluster")


def gen_synthetic(kind: str, n: int, d: int, rank: int | None = None,
                  seed: int = 0, *, B: float = 1.0, label_scale: float = 0.0,
                  spectrum_decay: float = 1.0) -> Dataset:
    """Deterministic synthetic data.

    glm_lowrank/glm_fullrank: unit-norm features in a planted rank-r subspace
    (r = d for fullrank), with optional labels y = label_scale * <q1, x> along
    the subspace's first basis direction; spectrum_decay < 1 concentrates
    feature mass on that direction. huber_cluster: points uniform in the ball
    of radius B/4.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    rng = stream(seed, "gen", kind, n, d, rank if rank is not None else d)
    if kind == "huber_cluster":
        z = rng.standard_normal((n, d))
        z /= row_norms(z)[:, None]
        radii = (B / 4.0) * rng.random(n) ** (1.0 / d)
        z *= radii[:, None]
        return Dataset(z)

    r = d if kind == "glm_fullrank" else rank
    if r is None:
        raise ValueError("glm_lowrank requires a rank")
    if not 1 <= r <= d:
        raise ValueError(f"need 1 <= rank <= d, got rank={r}, d={d}")
    Q, _ = np.linalg.qr(rng.standard_normal((d, r)))
    spectrum = spectrum_decay ** np.arange(r)
    coeff = rng.standard_normal((n, r)) * spectrum
    X = coeff @ Q.T
    X /= np.maximum(row_norms(X)[:, None], 1e-300)
    y = None
    if label_scale != 0.0:
        y = label_scale * (X @ Q[:, 0])
    return Dataset(X, y)


# draws per block of `uniform_indices`: its int64 temporary stays at 512 KB
INDEX_DRAW_BLOCK = 2 ** 16


def uniform_indices(m: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """`rng.integers(0, m, k)`, value for value and leaving `rng` in the same
    state, in the smallest unsigned dtype that holds m - 1 (uint8 for
    m <= 256). Integer draws in blocks give the one-shot draw's values at any
    block size: the bit generator, not the call, keeps the unused half of a
    64-bit word. So k draws made in any number of calls give the values and
    state of one call, which lets a sample draw its indices as they are read
    (see `FiniteSupportDistribution.sample_on_read`)."""
    out = np.empty(k, dtype=np.min_scalar_type(max(m - 1, 0)))
    for i in range(0, k, INDEX_DRAW_BLOCK):
        out[i:i + INDEX_DRAW_BLOCK] = rng.integers(0, m, min(INDEX_DRAW_BLOCK, k - i))
    return out


class FiniteSupportDistribution:
    """A uniform distribution on finitely many points; exact population
    gradients by enumeration.

    A sample holds indices into the support (see `Dataset.indexed`), and
    rows are gathered only when a consumer asks. `sample_on_read` draws the
    indices as they are read, so a run that stops early never draws the
    rest; `sample` draws them all at once and leaves `rng` free for other
    draws. Both give the same indices from the same generator."""

    def __init__(self, support: Dataset):
        self.support = support

    def sample(self, k: int, rng: np.random.Generator) -> Dataset:
        """k i.i.d. uniform draws, all drawn now: `rng` stands where
        `uniform_indices(m, k, rng)` leaves it, and the sample holds no
        reference to it."""
        S = self.sample_on_read(k, rng)
        S.indices()  # read in full: the sample lets go of rng
        return S

    def sample_on_read(self, k: int, rng: np.random.Generator) -> Dataset:
        """k i.i.d. uniform draws, drawn from `rng` as the sample's index
        vector is read (see `Dataset.drawn`). The sample owns `rng`: a draw
        from it elsewhere would change the indices that are still to come."""
        return Dataset.drawn(self.support, k,
                             functools.partial(uniform_indices, self.support.n, rng=rng))

    def population_grad(self, loss: LossSpec, w: np.ndarray) -> np.ndarray:
        return loss.grad_mean(w, self.support.X, self.support.y)


def gen_support(kind: str, m: int, d: int, rank: int | None = None,
                seed: int = 0, **kw) -> FiniteSupportDistribution:
    """A finite-support population built from the synthetic generators."""
    return FiniteSupportDistribution(gen_synthetic(kind, m, d, rank, seed, **kw))
