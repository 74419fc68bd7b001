"""Recursive regularization for convex population stationarity.

The outer loop repeatedly adds quadratic proximal terms (lambda_t/2)
||w - center_t||^2 with doubling lambda_t, solving each regularized problem
on a fresh disjoint data slice with a private strongly-convex solver
(projected noisy full-batch GD, or single-pass phased SGD with output
perturbation) over a ball whose radius grows by sqrt(2) per round.

The solvers are written once over a leading run axis: the iterates of R
runs have shape (R, d), each run keeps its own dataset, generator and noise
ledger, and every operation on the iterates is row-wise, so a run's output
is bit-identical alone or in a group. One run is the R = 1 case.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core.data import Dataset, lockstep
from .core.gradcheck import convexity_spot_check
from .core.loss import LossSpec
from .privacy import NoiseLedger, PrivacyBudget, draw_gaussian
from .util import PreconditionError, floori

KT_CAP = 10 ** 7  # desk-scale cap on inner step counts; capped rounds are flagged

# the two schedules of derive_rr_params, and the two private inner solvers
MODES = ("optimal", "linear_time")
SUBROUTINES = ("noisy_gd", "phased_sgd")

# noisy_gd hands its iterates to the selector in blocks of at most this many
# steps, so its memory does not grow with K_t
ITERATE_BLOCK = 2 ** 16


class RegularizedLoss(LossSpec):
    """base(w; x) + sum_i (lambda_i/2) ||w - center_i||^2, per sample.

    Effective smoothness is base.L1 + sum(lambda_i); effective strong
    convexity is at least sum(lambda_i) when the base is convex. The
    regularizer is data-independent, so per-sample sensitivity (and hence
    noise calibration) keeps the base Lipschitz constant.

    Centers of shape (R, d) give each of R runs its own objective; the
    solvers take such a loss's step through `_affine_terms`, as the base
    loss's gradient plus one affine update, and its single-run `eval`,
    `grad` and `grad_mean` raise `ValueError`.
    """

    name = "regularized"

    def __init__(self, base: LossSpec, centers: list[np.ndarray], lambdas: list[float]):
        if len(centers) != len(lambdas):
            raise ValueError("centers and lambdas must have the same length")
        if any(l < 0 for l in lambdas):
            raise ValueError("lambdas must be non-negative")
        lam_total = float(sum(lambdas))
        super().__init__(base.dim, base.L0, base.L1 + lam_total,
                         F0_hint=base.F0_hint, convex=base.convex)
        self.base = base
        self.centers = [np.asarray(c, dtype=np.float64) for c in centers]
        self.lambdas = [float(l) for l in lambdas]
        self.strong_convexity = lam_total if base.convex else 0.0
        self._lam_total = lam_total
        self._offset = sum((l * c for l, c in zip(self.lambdas, self.centers)),
                           np.zeros(base.dim))

    def _one_objective(self) -> None:
        if self._offset.ndim > 1:
            raise ValueError(
                f"centers of shape {self._offset.shape} give each run its own "
                "objective; the solvers take this loss through _affine_terms, "
                "not through its single-run methods")

    def _reg_value(self, w: np.ndarray) -> float:
        const = 0.5 * sum(l * float(c @ c) for l, c in zip(self.lambdas, self.centers))
        return float(0.5 * self._lam_total * (w @ w) - w @ self._offset + const)

    def _reg_grad(self, w: np.ndarray) -> np.ndarray:
        return self._lam_total * w - self._offset

    def eval(self, w, x, y=None):
        self._one_objective()
        return self.base.eval(w, x, y) + self._reg_value(np.asarray(w, dtype=np.float64))

    def grad(self, w, x, y=None):
        self._one_objective()
        return self.base.grad(w, x, y) + self._reg_grad(np.asarray(w, dtype=np.float64))

    def grad_mean(self, w, X, Y=None):
        self._one_objective()
        return self.base.grad_mean(w, X, Y) + self._reg_grad(w)

    def probe_sample(self, rng):
        return self.base.probe_sample(rng)

    def validate_dataset(self, dataset):
        self.base.validate_dataset(dataset)


def regularize(base: LossSpec, centers: list[np.ndarray],
               lambdas: list[float]) -> LossSpec:
    """The recursively regularized loss; empty lists return the base as-is."""
    if len(centers) != len(lambdas):
        raise ValueError("centers and lambdas must have the same length")
    if not centers:
        return base
    return RegularizedLoss(base, centers, lambdas)


def selector_weighted_avg(iterates, eta: float, lam: float,
                          prior: tuple[np.ndarray, int] | None = None) -> np.ndarray:
    """Geometric weighted average with weights (1 - eta lam)^(-k), k = 1..K.

    Weights are normalized by the largest weight before summing for
    numerical stability. Late iterates receive the most weight. `iterates`
    is a list of points or an array whose leading axis runs over them; a
    block of shape (K, R, d) averages each of R runs. Each run's (K, d) slab
    is copied into one contiguous scratch buffer and averaged there with one
    weights-times-slab product, so a run's bits depend neither on the runs
    beside it nor on the block's layout. `prior = (avg, k0)` continues a
    sequence whose first k0 iterates average to `avg`, so a long run can be
    averaged block by block.
    """
    K = len(iterates)
    if K < 1:
        raise ValueError("need at least one iterate")
    r = eta * lam
    if not 0 <= r < 1:  # so that a NaN fails too
        raise ValueError(f"need 0 <= eta*lam < 1, got {r}")
    base = 1.0 - r
    g = base ** np.arange(K - 1, -1, -1.0)  # (1-r)^(-k) / (1-r)^(-K)
    block = np.asarray(iterates, dtype=np.float64)
    runs = block.reshape(K, -1, block.shape[-1])  # (K, R, d), a view
    slab = np.empty((K, runs.shape[2]))
    acc = np.empty(runs.shape[1:])
    for j in range(runs.shape[1]):
        np.copyto(slab, runs[:, j])
        np.matmul(g, slab, out=acc[j])
    acc = acc.reshape(block.shape[1:])
    total = float(g.sum())
    if prior is not None:
        avg, k0 = prior
        # the prior's weights, relative to this block's last iterate
        c = base ** K * (k0 if r == 0 else -math.expm1(k0 * math.log1p(-r)) / r)
        acc, total = acc + c * avg, total + c
    return acc / total


def make_selector(lam: float):
    """Bind the strong-convexity weight; sub-routines supply their step size."""
    def selector(iterates, eta: float, prior=None) -> np.ndarray:
        return selector_weighted_avg(iterates, eta, lam, prior)
    return selector


def project_ball(w: np.ndarray, R: float) -> np.ndarray:
    """Euclidean projection onto the centered ball of radius R; row-wise
    for iterates of shape (runs, d).

    Each row's decision (||w||^2 > R^2) and its scale R / ||w|| come from
    that row's own squared norm, so a row gets the same bits alone or in a
    block. A row holding a NaN comes back as it is and does not touch the
    other rows.
    """
    if not R >= 0:  # so that a NaN fails too
        raise ValueError("R must be non-negative")
    sq = np.vecdot(w, w)
    R2 = R * R
    # the common case: every row inside
    if (sq if w.ndim == 1 else max(sq.tolist())) <= R2:
        return w
    # R / ||w|| on the rows outside, exactly 1.0 on the rest
    scale = np.divide(R, np.sqrt(sq), out=np.ones(np.shape(sq)), where=sq > R2)
    return w * scale[..., None]


def _affine_terms(loss: LossSpec, eta: float):
    """(base, a, c) such that w - eta grad loss(w) = a w + c - eta grad base(w).

    A regularized loss adds sum_i lambda_i (w - c_i) to its base's gradient,
    so a = 1 - eta sum_i lambda_i and c = eta sum_i lambda_i c_i (of shape
    (R, d) for per-run centers). A plain loss gives a = 1 and c = None.
    """
    if isinstance(loss, RegularizedLoss):
        return loss.base, 1.0 - eta * loss._lam_total, eta * loss._offset
    return loss, 1.0, None


def _affine_step(W: np.ndarray, G: np.ndarray, a: np.ndarray, c: np.ndarray | None,
                 eta: np.ndarray, R: float, out: np.ndarray) -> None:
    """out <- Proj_R(a W + c - eta G), in place; G is overwritten.

    a and eta are 0-d float64 arrays, bound once per call of a solver, so no
    step converts a Python float. Only when `project_ball` projects a row is
    its result copied back into `out`.
    """
    np.multiply(W, a, out)
    if c is not None:
        out += c
    G *= eta
    out -= G
    projected = project_ball(out, R)
    if projected is not out:
        np.copyto(out, projected)


def noisy_gd(S: Dataset | Sequence[Dataset], loss: LossSpec, R: float, T: int,
             eta: float, selector, sigma: float,
             rng: np.random.Generator | Sequence[np.random.Generator],
             ledger: NoiseLedger | Sequence[NoiseLedger] | None = None,
             site: str = "gd-step") -> np.ndarray:
    """Projected noisy full-batch GD from 0; returns selector of all iterates.

    w_{t+1} = Proj_R(w_t - eta (grad F(w_t; S) + xi_t)), xi_t ~ N(0, sigma^2 I),
    for t = 1..T-1, taken as the base loss's batch gradient plus noise and
    one affine update (`_affine_step`). Given a generator (and a dataset and
    ledger) per run, the runs go in lockstep and the (R, d) outputs come
    back; each run draws its own noise vector per step. The iterates reach
    `selector(block, eta)` as blocks of shape (K, R, d) of at most
    ITERATE_BLOCK; every block after the first comes with
    `prior=(average so far, iterates so far)`.
    """
    if getattr(loss, "strong_convexity", 0.0) <= 0.0:
        raise ValueError("noisy_gd requires a strongly convex (regularized) loss")
    data, rngs, ledgers, single = lockstep(S, rng, ledger)
    X, Y = data.stack(axis=0)
    runs, d = X.shape[0], X.shape[2]
    base, a, c = _affine_terms(loss, eta)
    a, step = np.array(a), np.array(eta)
    # iterate-major: step t writes iterate t + 1 into store[k] from store[k - 1]
    # (store[-1] right after a fold)
    store = np.empty((min(max(T, 1), ITERATE_BLOCK), runs, d))
    store[0] = 0.0
    G = np.empty((runs, d))
    k, avg, done = 1, None, 0

    def fold():
        block = store[:k]
        return selector(block, eta) if avg is None else selector(block, eta, (avg, done))

    for _ in range(1, T):
        if k == len(store):
            avg, done, k = fold(), done + k, 0
        for r, g in enumerate(rngs):
            draw_gaussian(d, sigma, g, None if ledgers is None else ledgers[r], site,
                          out=G[r])
        G += base.grad_mean_rows(store[k - 1], X, Y)
        _affine_step(store[k - 1], G, a, c, step, R, store[k])
        k += 1
    out = fold()
    return out[0] if single else out


def output_perturbed_sgd(w1: np.ndarray, S: Dataset | Sequence[Dataset],
                         loss: LossSpec, R: float, eta: float, sigma: float,
                         selector,
                         rng: np.random.Generator | Sequence[np.random.Generator],
                         ledger: NoiseLedger | Sequence[NoiseLedger] | None = None,
                         site: str = "opsgd-output") -> np.ndarray:
    """One in-order projected SGD pass, then a perturbed weighted average.

    w_{t+1} = Proj_R(w_t - eta grad f(w_t; x_t)) for t = 1..|S|-1; the output
    is selector({w_t}) + N(0, sigma^2 I). Given a generator (and a dataset,
    ledger and start row of w1) per run, the runs go in lockstep: each step
    is one base-loss `grad_rows` over the runs' t-th samples and one affine
    update (`_affine_step`) written in place into the next slot of an
    iterate-major (|S|, R, d) store, which the selector gets as it is.
    """
    data, rngs, ledgers, single = lockstep(S, rng, ledger)
    if data.n < 1:
        raise ValueError("need at least one sample")
    X, Y = data.stack(axis=1)
    n, runs, d = X.shape
    base, a, c = _affine_terms(loss, eta)
    a, step = np.array(a), np.array(eta)
    grad_rows = base.grad_rows
    store = np.empty((n, runs, d))
    store[0] = w1
    for W, nxt, x, y in zip(store, store[1:], X, [None] * n if Y is None else Y):
        _affine_step(W, grad_rows(W, x, y), a, c, step, R, nxt)
    tilde = selector(store, eta)
    xi = np.array([draw_gaussian(d, sigma, g, None if ledgers is None else ledgers[r], site)
                   for r, g in enumerate(rngs)])
    out = tilde + xi
    return out[0] if single else out


def phased_sgd(S: Dataset | Sequence[Dataset], loss: LossSpec, R: float,
               eta: float, sigma: float, selector,
               rng: np.random.Generator | Sequence[np.random.Generator],
               ledger: NoiseLedger | Sequence[NoiseLedger] | None = None,
               site: str = "phased") -> np.ndarray:
    """ceil(log2 |S|) phases of OutputPerturbedSGD over disjoint slices.

    Phase k runs on the next floor(|S|/2^k) samples with step eta_k = eta/4^k
    and output noise sigma_k = eta_k * sigma, warm-starting at the previous
    phase's output. Exhausted slices end the schedule at the last complete
    phase. Runs go in lockstep as in `output_perturbed_sgd`.
    """
    data, rngs, ledgers, single = lockstep(S, rng, ledger)
    n = data.n
    if n < 2:
        raise ValueError("need at least two samples")
    K = math.ceil(math.log2(n))
    W = np.zeros((len(rngs), data[0].dim))
    pos = 0
    for k in range(1, K + 1):
        size = n >> k
        if size < 1 or pos + size > n:
            break
        part = data.slice(pos, pos + size)
        pos += size
        eta_k = eta * 4.0 ** (-k)
        sigma_k = eta_k * sigma
        W = output_perturbed_sgd(W, part, loss, R, eta_k, sigma_k, selector,
                                 rngs, ledgers, site=f"{site}-k{k}")
    return W[0] if single else W


@dataclass(frozen=True)
class RRParams:
    mode: str                 # "optimal" | "linear_time"
    n: int
    T: int
    lam: float
    R_bar: float
    slice_size: int
    lambdas: tuple[float, ...]   # lambda_t = 2^t lam, t = 0..T-1
    radii: tuple[float, ...]     # R_t = sqrt(2)^t R_bar
    K: tuple[int, ...]           # inner step counts, index 0 unused
    eta: tuple[float, ...]
    sigma: tuple[float, ...]
    kt_capped: tuple[bool, ...]

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.T < 1:
            raise ValueError("T must be >= 1")
        for t in range(1, self.T):
            if not math.isclose(self.lambdas[t], 2.0 * self.lambdas[t - 1]):
                raise ValueError("lambda_t must double")
            if not math.isclose(self.radii[t], math.sqrt(2.0) * self.radii[t - 1]):
                raise ValueError("R_t must grow by sqrt(2)")
        # written so that a NaN fails it
        if not all(eta >= 0 and sigma >= 0 for eta, sigma in zip(self.eta, self.sigma)):
            raise ValueError("step sizes and noise scales must be non-negative")


def derive_rr_params(mode: str, n: int, d: int, L0: float, L1: float,
                     R_bar: float, budget: PrivacyBudget,
                     overrides: dict | None = None) -> RRParams:
    """Schedules of the two regimes.

    optimal:     lam = L0^2/(L1 R_bar) min(1/n, d/(n eps)^2), inner counts
                 K_t = max(((L1+lam_t)/lam_t) log((L1+lam_t)/lam_t),
                           n^2 eps^2 (L0^2 lam + L1^(3/2)) /
                           (T^2 lam d L0^2 log(1/delta)))
    linear_time: lam = max(L0^2/(L1 R_bar^2) min(1/n, d/(n eps)^2),
                           L1 log(n)/n), K_t = floor(n/T)

    Common: T = floor(log2(L1/lam)), lambda_t = 2^t lam, R_t = sqrt(2)^t R_bar,
    eta_t = log(K_t)/(lambda_t K_t), sigma_t = 8 L0 K_t sqrt(log(1/delta))/(m eps)
    with m the round's slice size. K_t is capped at 10^7 (flagged per round).
    """
    if not (L0 > 0 and L1 > 0 and R_bar > 0):  # so that a NaN fails too
        raise ValueError("L0, L1, R_bar must be positive")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    eps, delta = budget.eps, budget.delta
    log1d = math.log(1.0 / delta)
    ov = dict(overrides or {})

    trade = min(1.0 / n, d / (n * eps) ** 2)
    if mode == "optimal":
        lam = L0 ** 2 / (L1 * R_bar) * trade
    else:
        lam = max(L0 ** 2 / (L1 * R_bar ** 2) * trade, L1 * math.log(n) / n)
    lam = float(ov.pop("lam", lam))
    if lam >= L1:
        raise PreconditionError(f"lam = {lam:.6g} >= L1 = {L1:.6g}: T would be 0; "
                                "increase n or R_bar")
    T = int(ov.pop("T", floori(math.log2(L1 / lam))))
    T = max(T, 1)
    m = n // T

    k_override = ov.pop("K_t", None)
    eta_override = ov.pop("eta_t", None)
    sigma_override = ov.pop("sigma_t", None)
    if ov:
        raise ValueError(f"unknown recursive-regularization overrides: {sorted(ov)}")

    lambdas, radii, Ks, etas, sigmas, capped = [], [], [], [], [], []
    for t in range(T):
        lam_t = 2.0 ** t * lam
        lambdas.append(lam_t)
        radii.append(math.sqrt(2.0) ** t * R_bar)
        if t == 0:
            Ks.append(0)
            etas.append(0.0)
            sigmas.append(0.0)
            capped.append(False)
            continue
        if k_override is not None:
            K_t = int(k_override)
            was_capped = False
        elif mode == "optimal":
            ratio = (L1 + lam_t) / lam_t
            K_raw = max(ratio * math.log(ratio),
                        (n * eps) ** 2 * (L0 ** 2 * lam + L1 ** 1.5)
                        / (T ** 2 * lam * d * L0 ** 2 * log1d))
            K_t = int(math.ceil(K_raw))
            was_capped = K_t > KT_CAP
            K_t = min(K_t, KT_CAP)
        else:
            K_t = m
            was_capped = False
        K_t = max(K_t, 2)
        eta_t = math.log(K_t) / (lam_t * K_t) if eta_override is None else float(eta_override)
        sigma_t = (8.0 * L0 * K_t * math.sqrt(log1d) / (m * eps)
                   if sigma_override is None else float(sigma_override))
        Ks.append(K_t)
        etas.append(eta_t)
        sigmas.append(sigma_t)
        capped.append(was_capped)

    params = RRParams(mode=mode, n=n, T=T, lam=lam, R_bar=R_bar, slice_size=m,
                      lambdas=tuple(lambdas), radii=tuple(radii), K=tuple(Ks),
                      eta=tuple(etas), sigma=tuple(sigmas), kt_capped=tuple(capped))
    params.validate()
    return params


@dataclass
class RRRunReport:
    w_out: np.ndarray
    rounds: list[dict]
    noise_ledger: NoiseLedger
    t1_edge: bool = False
    kt_capped: bool = False


def run_recursive_regularization(S: Dataset | Sequence[Dataset], loss: LossSpec,
                                 params: RRParams, subroutine: str,
                                 rng: np.random.Generator | Sequence[np.random.Generator]
                                 ) -> RRRunReport | list[RRRunReport]:
    """T-1 outer rounds over disjoint front-to-back slices of size floor(n/T).

    Round t solves the round's regularized objective (centers 0, w1..w_{t-1})
    over the radius-R_t ball and appends its output as the next center; the
    last computed center is returned. T = 1 returns the origin, flagged.

    Given a sequence of generators (and one dataset per generator, or one
    shared dataset), the runs go in lockstep, each with its own centers and
    ledger, and a list of reports comes back; each equals what that run
    gives alone.
    """
    if subroutine not in SUBROUTINES:
        raise ValueError(f"unknown subroutine {subroutine!r}")
    if not loss.convex:
        raise ValueError("recursive regularization requires a convex base loss")
    convexity_spot_check(loss, probes=16, seed=0)
    data, rngs, _, single = lockstep(S, rng)
    for D in dict.fromkeys(data):
        loss.validate_dataset(D)
    runs, d = len(rngs), data[0].dim
    ledgers = [NoiseLedger() for _ in rngs]
    rounds: list[list[dict]] = [[] for _ in rngs]
    W = np.zeros((runs, d))
    centers = [W]
    pos = 0
    for t in range(1, params.T):
        reg = regularize(loss, centers, list(params.lambdas[:t]))
        part = data.slice(pos, pos + params.slice_size)
        pos += params.slice_size
        sel = make_selector(params.lambdas[t])
        if subroutine == "noisy_gd":
            W = noisy_gd(part, reg, params.radii[t], params.K[t], params.eta[t],
                         sel, params.sigma[t], rngs, ledgers, site=f"gd-t{t}")
        else:
            W = phased_sgd(part, reg, params.radii[t], params.eta[t],
                           params.sigma[t], sel, rngs, ledgers, site=f"phased-t{t}")
        centers.append(W)
        for r, w in enumerate(W):
            rounds[r].append({"t": t, "lambda_t": params.lambdas[t], "R_t": params.radii[t],
                              "K_t": params.K[t], "sigma_t": params.sigma[t],
                              "center_norm": float(np.linalg.norm(w))})
    reports = [RRRunReport(w_out=W[r].copy(), rounds=rounds[r], noise_ledger=ledgers[r],
                           t1_edge=params.T == 1, kt_capped=any(params.kt_capped))
               for r in range(runs)]
    return reports[0] if single else reports
