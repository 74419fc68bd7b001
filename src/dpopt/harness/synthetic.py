"""Synthetic dataset generators and finite-support populations."""
from __future__ import annotations

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
        return Dataset(z * radii[:, None])

    r = d if kind == "glm_fullrank" else rank
    if r is None:
        raise ValueError("glm_lowrank requires a rank")
    if not 1 <= r <= d:
        raise ValueError(f"need 1 <= rank <= d, got rank={r}, d={d}")
    Q, _ = np.linalg.qr(rng.standard_normal((d, r)))
    spectrum = spectrum_decay ** np.arange(r)
    coeff = rng.standard_normal((n, r)) * spectrum
    V = coeff @ Q.T
    X = V / np.maximum(row_norms(V)[:, None], 1e-300)
    y = None
    if label_scale != 0.0:
        y = label_scale * (X @ Q[:, 0])
    return Dataset(X, y)


class FiniteSupportDistribution:
    """A uniform distribution on finitely many points; exact population
    gradients by enumeration."""

    def __init__(self, support: Dataset):
        self.support = support

    @property
    def size(self) -> int:
        return self.support.n

    @property
    def dim(self) -> int:
        return self.support.dim

    def sample(self, k: int, rng: np.random.Generator) -> Dataset:
        """k i.i.d. uniform draws, held as indices into the support (see
        `Dataset.indexed`): rows are gathered only when a consumer asks."""
        idx = rng.integers(0, self.support.n, size=k)
        return Dataset.indexed(self.support, idx)

    def population_grad(self, loss: LossSpec, w: np.ndarray) -> np.ndarray:
        return loss.grad_mean(w, self.support.X, self.support.y)


def gen_support(kind: str, m: int, d: int, rank: int | None = None,
                seed: int = 0, **kw) -> FiniteSupportDistribution:
    """A finite-support population built from the synthetic generators."""
    return FiniteSupportDistribution(gen_synthetic(kind, m, d, rank, seed, **kw))
