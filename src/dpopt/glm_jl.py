"""Random-projection reduction for GLMs: run a base optimizer on projected
features, lift the output back with the transpose.

The projection is a scaled Gaussian matrix Phi = G/sqrt(k); on any fixed
r-dimensional subspace it acts as an oblivious subspace embedding, which is
what transfers the low-dimensional stationarity guarantee back to the span
of the data.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .core.data import Dataset
from .core.loss import GLMLoss
from .privacy import PrivacyBudget


@dataclass(frozen=True)
class JLParams:
    k: int
    rank: int
    normX: float

    def validate(self, d: int) -> None:
        if not 1 <= self.k <= d:
            raise ValueError(f"need 1 <= k <= d, got k={self.k}, d={d}")
        if self.rank < 1:
            raise ValueError("rank must be >= 1")


@dataclass
class JLMatrix:
    entries: np.ndarray   # k x d
    seed: int

    @property
    def k(self) -> int:
        return self.entries.shape[0]

    @property
    def d(self) -> int:
        return self.entries.shape[1]


def jl_matrix(k: int, d: int, seed: int) -> JLMatrix:
    """Phi = G/sqrt(k) with standard normal G, reproducible from its integer
    seed, which is recorded; any other seed raises TypeError."""
    if k < 1 or d < 1:
        raise ValueError("k and d must be >= 1")
    seed = operator.index(seed)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    entries = rng.standard_normal((k, d)) / math.sqrt(k)
    entries.setflags(write=False)
    return JLMatrix(entries=entries, seed=seed)


def numeric_rank(X: np.ndarray, rel_threshold: float = 1e-10) -> int:
    """Number of singular values above rel_threshold * sigma_max."""
    s = np.linalg.svd(np.asarray(X, dtype=np.float64), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rel_threshold * s[0]))


def _rate_spiderboost(j: float, n: int, L0h: float, L1h: float,
                      eps: float, delta_half: float) -> float:
    a = math.sqrt(j * math.log(1.0 / delta_half)) / (n * eps)
    return L0h * a ** (2.0 / 3.0) + L0h * a


def _rate_recursive_reg(j: float, n: int, L0h: float, L1h: float,
                        eps: float, delta_half: float) -> float:
    return L0h * math.sqrt(j * math.log(1.0 / delta_half)) / (n * eps)


def rebound_constants(L0_phi: float, L1_phi: float, normX: float) -> tuple[float, float]:
    """The (L0, L1) the base run is derived at: (2 L0_phi ||X||, 2 L1_phi ||X||^2)."""
    return 2.0 * L0_phi * normX, 2.0 * L1_phi * normX ** 2


def choose_k(base_kind: str, n: int, rank: int, d: int, L0: float, L1: float,
             normX: float, budget: PrivacyBudget) -> int:
    """Embedding dimension balancing the base rate against the projection
    penalty L0 ||X|| log(n)/sqrt(j), capped by rank log(2n/delta) and by d.

    The argmin over j is an exhaustive integer scan of [1, d]; the base rate
    g uses the rebound constants (2 L0 ||X||, 2 L1 ||X||^2) at budget
    (eps, delta/2).
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    rate = {"spiderboost": _rate_spiderboost,
            "recursive_reg": _rate_recursive_reg}.get(base_kind)
    if rate is None:
        raise ValueError(f"unknown base_kind {base_kind!r}")
    L0h, L1h = rebound_constants(L0, L1, normX)
    delta_half = budget.delta / 2.0
    penalty = L0 * normX * math.log(n)
    best_j, best_val = 1, math.inf
    for j in range(1, d + 1):
        val = rate(float(j), n, L0h, L1h, budget.eps, delta_half) + penalty / math.sqrt(j)
        if val < best_val:
            best_j, best_val = j, val
    k = math.ceil(min(float(best_j), rank * math.log(2.0 * n / budget.delta)))
    return max(1, min(k, d))


@dataclass
class JLRunReport:
    w_out: np.ndarray
    k: int
    rank: int
    matrix_seed: int
    base_report: object
    clamped: bool
    max_feature_norm_ratio: float
    base_eps: float
    base_delta: float


def run_jl(base, loss: GLMLoss, S: Dataset, params: JLParams,
           budget: PrivacyBudget, rng: np.random.Generator) -> JLRunReport:
    """Project features by Phi, run the base optimizer on them, return
    Phi^T w_tilde.

    `base` is a closure base(S_proj, loss_proj, rng) returning a report with
    a `w_out` attribute; its parameters are derived by the caller, at budget
    (eps, delta/2) with the rebound constants of `rebound_constants`. The
    base output is clamped to the poly trajectory bound
    (n d max(1, L0) max(1, L1))^2 before lifting (clamps are reported).
    """
    params.validate(S.dim)
    loss.validate_dataset(S)
    d, k = S.dim, params.k
    phi = jl_matrix(k, d, int(rng.integers(2 ** 63)))

    Xp = S.X @ phi.entries.T
    S_proj = Dataset(Xp, S.y)
    # row norms without an n x d temporary, which at d = 256 was the run's
    # largest allocation after the data
    orig_norms = np.sqrt(np.einsum("ij,ij->i", S.X, S.X))
    proj_norms = np.sqrt(np.einsum("ij,ij->i", Xp, Xp))
    ratio = float(np.max(proj_norms / np.maximum(orig_norms, 1e-300)))

    proj_norm_bound = float(max(np.max(proj_norms), 1e-300))
    loss_proj = GLMLoss(loss.link, loss.L0_phi, loss.L1_phi,
                        normX=proj_norm_bound * (1.0 + 1e-12), dim=k,
                        F0_hint=loss.F0_hint)
    base_report = base(S_proj, loss_proj, rng)
    w_tilde = np.asarray(base_report.w_out, dtype=np.float64)

    bound = (S.n * d * max(1.0, loss.L0) * max(1.0, loss.L1)) ** 2
    clamped = False
    norm_wt = float(np.linalg.norm(w_tilde))
    if norm_wt > bound:
        w_tilde = w_tilde * (bound / norm_wt)
        clamped = True

    w_out = phi.entries.T @ w_tilde
    base_budget = budget.halve_delta()
    return JLRunReport(w_out=w_out, k=k, rank=params.rank, matrix_seed=phi.seed,
                       base_report=base_report, clamped=clamped,
                       max_feature_norm_ratio=ratio,
                       base_eps=base_budget.eps, base_delta=base_budget.delta)


def check_subspace_embedding(phi: JLMatrix, basis: np.ndarray, tau: float,
                             probes: int = 1000,
                             rng: np.random.Generator | None = None
                             ) -> tuple[bool, float]:
    """Sample unit vectors in span(basis) and report the worst |‖Phi v‖^2 - 1|.

    Returns (worst <= tau, worst). Degenerate (rank-deficient or zero) bases
    are rejected.
    """
    basis = np.atleast_2d(np.asarray(basis, dtype=np.float64))
    r = basis.shape[0]
    if r < 1 or not np.any(basis):
        raise ValueError("degenerate basis")
    if numeric_rank(basis) < r:
        raise ValueError("degenerate basis: vectors do not span r dimensions")
    Q, _ = np.linalg.qr(basis.T)  # d x r orthonormal
    if rng is None:
        rng = np.random.default_rng(0)
    # one draw of all probes is the stream of one draw per probe
    Z = rng.standard_normal((probes, r))
    Z /= np.maximum(np.sqrt(np.einsum("pr,pr->p", Z, Z)), 1e-300)[:, None]
    PV = Z @ (phi.entries @ Q).T  # Phi Q z per probe, through the k x r product
    worst = float(np.max(np.abs(np.einsum("pk,pk->p", PV, PV) - 1.0), initial=0.0))
    return worst <= tau, worst
