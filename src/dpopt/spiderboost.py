"""Private SpiderBoost for empirical stationary points.

Phases of length q start with a noisy mini-batch gradient; within a phase
the estimate is extended by noisy gradient-variation estimates whose noise
scales with L1 * ||w_t - w_{t-1}|| (clamped at a Lipschitz-based cap), which
is where the method saves over Lipschitz-scaled noise.

The recursion is written once, in `_spider_path`, over a leading run axis:
iterates and estimates have shape (R, d), each run keeps its own generator,
dataset and ledger, and every operation is row-wise, so a run's output is
bit-identical alone or in a group. The optimizer uses it with R = 1 or with
R seeds in lockstep, and the Monte Carlo validator with R = trials.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .core.data import Dataset, lockstep
from .core.loss import GLMLoss, LossSpec, erm_grad
from .privacy import (NoiseLedger, PrivacyBudget, accountant_sigma,
                      draw_gaussian, scale_gaussian_rows)
from .util import PreconditionError, floori

SITE_GRAD = "spider-grad"
SITE_GV = "spider-gv"

# a phase's gradient-variation steps draw their batch indices and normals in
# blocks of at most this many entries per run (8 MB), so a long phase cannot
# ask for unbounded memory
BLOCK_ENTRIES = 2 ** 20


@dataclass(frozen=True)
class SpiderParams:
    eta: float
    q: int
    b1: int
    b2: int
    T: int
    sigma1: float
    sigma2: float
    sigma2_hat: float

    def validate(self, n: int) -> None:
        if not (1 <= self.b1 <= n and 1 <= self.b2 <= n):
            raise ValueError(f"batch sizes must lie in [1, {n}]: b1={self.b1}, b2={self.b2}")
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if min(self.sigma1, self.sigma2, self.sigma2_hat) < 0:
            raise ValueError("noise scales must be non-negative")


@dataclass
class GvRecords:
    """One run's gradient-variation steps as arrays: step index t, the sigma
    used and the step norm ||w_t - w_{t-1}||. Iterates as (t, sigma, step)."""
    t: np.ndarray
    sigma: np.ndarray
    step: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def __iter__(self):
        return zip(self.t.tolist(), self.sigma.tolist(), self.step.tolist())


@dataclass
class OptimizerReport:
    w_out: np.ndarray
    grad_norm_trace: list[float]
    trace_steps: list[int]
    oracle_calls: int
    noise_ledger: NoiseLedger
    selected_index: int
    gv_records: GvRecords
    iterates: list[np.ndarray] | None = None    # w_1..w_T when recorded


def spider_oracle_count(params: SpiderParams) -> int:
    """Exact per-sample gradient evaluations: b1 per fresh-gradient step,
    2*b2 per gradient-variation step."""
    fresh = -(-params.T // params.q)
    return params.b1 * fresh + 2 * params.b2 * (params.T - fresh)


def derive_spider_params(n: int, d: int, L0: float, L1: float, F0: float,
                         budget: PrivacyBudget,
                         overrides: dict | None = None) -> SpiderParams:
    """Parameter settings achieving the (sqrt(d)/(n eps))^(2/3) empirical rate.

    eta = 1/(2 L1), b1 = n, with b2 and T from the closed forms and
    q = floor(1/(T abar^2)) for abar = sqrt(d log(1/delta))/(n eps); noise
    scales come from the accountant (sigma1 with T/q queries at lam = L0,
    sigma2 with T queries at lam = L1, sigma2_hat at lam = 2 L0).
    """
    if F0 is None:
        raise ValueError("F0 is required (set the loss's F0_hint or pass a gap bound)")
    if min(L0, L1, F0) <= 0:
        raise ValueError("L0, L1, F0 must be positive")
    eps, delta = budget.eps, budget.delta
    log1d = math.log(1.0 / delta)

    failures = []
    bound1 = (L0 * eps) ** 2 / (F0 * L1 * d * log1d)
    if n < bound1:
        failures.append(f"n >= (L0 eps)^2/(F0 L1 d log(1/delta)) = {bound1:.6g}")
    bound2 = math.sqrt(d) * max(1.0, math.sqrt(L1 * F0) / L0) / eps
    if n < bound2:
        failures.append(f"n >= sqrt(d) max(1, sqrt(L1 F0)/L0)/eps = {bound2:.6g}")
    if failures:
        raise PreconditionError("sample-size hypothesis violated: "
                                + "; ".join(failures))

    ov = dict(overrides or {})
    eta = float(ov.pop("eta", 1.0 / (2.0 * L1)))
    b1 = int(ov.pop("b1", n))

    b2_raw = max((L0 * n * eps / math.sqrt(F0 * L1 * d * log1d)) ** (2.0 / 3.0),
                 (L0 * n * d * log1d) ** (1.0 / 3.0) / ((L1 * F0) ** (1.0 / 6.0) * eps ** (2.0 / 3.0)))
    b2 = int(ov.pop("b2", min(max(floori(b2_raw), 1), n)))

    T_raw = max(((F0 * L1) ** 0.25 * n * eps / math.sqrt(L0 * d * log1d)) ** (4.0 / 3.0),
                n * eps / math.sqrt(d * log1d))
    T = int(ov.pop("T", max(floori(T_raw), 1)))

    abar_sq = d * log1d / (n * eps) ** 2
    q = int(ov.pop("q", max(floori(1.0 / (T * abar_sq)), 1)))
    q = min(q, T)

    sigma1 = float(ov.pop("sigma1", accountant_sigma(L0 / n, b1, T / q, n, budget)))
    sigma2 = float(ov.pop("sigma2", accountant_sigma(L1 / n, b2, T, n, budget)))
    sigma2_hat = float(ov.pop("sigma2_hat", accountant_sigma(2.0 * L0 / n, b2, T, n, budget)))
    if ov:
        raise ValueError(f"unknown spiderboost overrides: {sorted(ov)}")

    params = SpiderParams(eta=eta, q=q, b1=b1, b2=b2, T=T,
                          sigma1=sigma1, sigma2=sigma2, sigma2_hat=sigma2_hat)
    params.validate(n)
    return params


def _batch(S: Dataset, b: int, rng: np.random.Generator, replace: bool):
    """Mini-batch features/labels; b == n means the full dataset, exactly."""
    if b == S.n:
        return S.X, S.y
    idx = rng.integers(0, S.n, size=b) if replace else rng.choice(S.n, size=b, replace=False)
    return S.X.take(idx, axis=0), None if S.y is None else S.y.take(idx)


def _spider_path(loss: LossSpec, params: SpiderParams, steps: int,
                 data: Sequence[Dataset], rngs: Sequence[np.random.Generator],
                 ledgers: Sequence[NoiseLedger] | None, replace: bool,
                 advance: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The SpiderBoost estimator for R = len(rngs) runs in lockstep, from
    W_0 = 0, for `steps` steps.

    Run r samples data[r] with rngs[r] and records its noise in ledgers[r].
    At t = 0 mod q each run draws a fresh batch, then its N(0, sigma1^2 I)
    noise, and nabla_t is the batch-mean gradient plus that noise. Each of the
    phase's gradient-variation steps adds grad_var(w_t, w_{t-1}) on a batch
    of b2 plus noise at sigma_t = min(sigma2 ||w_t - w_{t-1}||, sigma2_hat);
    their batch indices, then their standard normals, are drawn in one call
    per generator (in blocks of at most BLOCK_ENTRIES entries; without
    replacement, a `choice` per step; b2 = n takes the full dataset and draws
    no indices). `advance(t, W_t, nabla_t)` returns W_{t+1}. Returns the
    (R, G) sigma_t and step norms of the G variation steps.
    """
    R, n, d = len(rngs), data[0].n, data[0].dim
    labelled = data[0].y is not None
    if all(S is data[0] for S in data):
        X, Y, offset = data[0].X, data[0].y, 0
        X_full = np.broadcast_to(X, (R, n, d))
        Y_full = np.broadcast_to(Y, (R, n)) if labelled else None
    else:
        X = np.concatenate([S.X for S in data])
        Y = np.concatenate([S.y for S in data]) if labelled else None
        offset = n * np.arange(R)[:, None]
        X_full, Y_full = X.reshape(R, n, d), Y.reshape(R, n) if labelled else None
    b2, q = params.b2, params.q
    draw = replace and b2 < n
    block = max(1, BLOCK_ENTRIES // (b2 + d))
    G = steps - -(-steps // q)
    sigmas, norms = np.empty((R, G)), np.empty((R, G))
    g = 0
    W = np.zeros((R, d))
    for t0 in range(0, steps, q):
        nabla = np.empty((R, d))
        for r, (S, rng) in enumerate(zip(data, rngs)):
            Xb, Yb = _batch(S, params.b1, rng, replace)
            noise = draw_gaussian(d, params.sigma1, rng,
                                  None if ledgers is None else ledgers[r], SITE_GRAD)
            nabla[r] = loss.grad_mean(W[r], Xb, Yb) + noise
        W_prev, W = W, advance(t0, W, nabla)
        phase_end = min(t0 + q, steps)
        for t1 in range(t0 + 1, phase_end, block):
            m = min(block, phase_end - t1)
            if draw:
                idx = np.stack([rng.integers(0, n, (m, b2)) for rng in rngs], axis=1)
                idx += offset
            z = np.stack([rng.standard_normal((m, d)) for rng in rngs], axis=1)
            for j in range(m):
                if b2 == n:  # the full dataset, exactly, as in _batch
                    Xb, Yb = X_full, Y_full
                else:
                    rows = idx[j] if draw else offset + np.stack(
                        [rng.choice(n, b2, replace=False) for rng in rngs])
                    Xb, Yb = X.take(rows, axis=0), Y.take(rows) if labelled else None
                dW = W - W_prev
                step = np.sqrt((dW * dW).sum(axis=1))
                sigma = np.minimum(params.sigma2 * step, params.sigma2_hat)
                noise = scale_gaussian_rows(z[j], sigma, ledgers, SITE_GV)
                nabla = nabla + loss.grad_var(W, W_prev, Xb, Yb) + noise
                sigmas[:, g], norms[:, g] = sigma, step
                g += 1
                W_prev, W = W, advance(t1 + j, W, nabla)
    return sigmas, norms


def run_spiderboost(loss: LossSpec, S: Dataset | Sequence[Dataset],
                    params: SpiderParams,
                    rng: np.random.Generator | Sequence[np.random.Generator], *,
                    replace_within_batch: bool = True,
                    trace_points: int = 200,
                    record_iterates: bool = False
                    ) -> OptimizerReport | list[OptimizerReport]:
    """Run T iterations from w_0 = 0 and return a uniformly random iterate.

    At t = 0 mod q the estimate is a fresh batch-mean gradient plus
    N(0, I sigma1^2); otherwise the previous estimate is extended by the
    batch-mean gradient variation plus N(0, I min(sigma2^2 ||w_t - w_{t-1}||^2,
    sigma2_hat^2)). Batches are uniform with replacement at batch granularity
    (b = n uses the full dataset). Deterministic given the rng state: the
    output index is drawn first, then the draws of `_spider_path`.

    Given a sequence of generators (and one dataset per generator, or one
    shared dataset), the runs go in lockstep and a list of reports comes
    back; each equals what that run gives alone. The exact ERM gradient norm
    is traced at up to `trace_points` iterates, evaluated after the run.
    """
    data, rngs, _, single = lockstep(S, rng)
    params.validate(data[0].n)
    for D in dict.fromkeys(data):
        loss.validate_dataset(D)
    R, T, d = len(rngs), params.T, data[0].dim
    selected = [int(g.integers(1, T + 1)) for g in rngs]
    picks: dict[int, list[int]] = {}
    for r, s in enumerate(selected):
        picks.setdefault(s - 1, []).append(r)
    w_out = np.empty((R, d))
    stride = max(1, -(-T // trace_points))
    traced: list[np.ndarray] = []
    iterates: list[np.ndarray] | None = [] if record_iterates else None

    def advance(t, W, nabla):
        if t % stride == 0:
            traced.append(W)
        W_next = W - params.eta * nabla
        for r in picks.get(t, ()):
            w_out[r] = W_next[r]
        if iterates is not None:
            iterates.append(W_next)
        return W_next

    ledgers = [NoiseLedger() for _ in rngs]
    sigmas, norms = _spider_path(loss, params, T, data, rngs, ledgers,
                                 replace_within_batch, advance)
    trace_steps = list(range(0, T, stride))
    gv_t = np.array([t for t in range(T) if t % params.q], dtype=np.int64)
    traced_W = np.stack(traced, axis=1)  # (R, P, d)
    reports = [OptimizerReport(
        w_out=w_out[r].copy(),
        grad_norm_trace=np.linalg.norm(_erm_grads(loss, traced_W[r], data[r]),
                                       axis=1).tolist(),
        trace_steps=list(trace_steps), oracle_calls=spider_oracle_count(params),
        noise_ledger=ledgers[r], selected_index=selected[r],
        gv_records=GvRecords(gv_t, sigmas[r], norms[r]),
        iterates=None if iterates is None else [w[r] for w in iterates])
        for r in range(R)]
    return reports[0] if single else reports


def _erm_grads(loss: LossSpec, W: np.ndarray, S: Dataset) -> np.ndarray:
    """Exact ERM gradients at the rows of W (P, d): in blocks for a GLM, and
    through erm_grad point by point otherwise."""
    if isinstance(loss, GLMLoss):
        return loss.erm_grads(W, S)
    return np.array([erm_grad(loss, w, S) for w in W]).reshape(W.shape)


@dataclass
class SpiderBoundCheck:
    """Monte Carlo check of the phase-wise estimator-error bound."""
    steps: list[int]
    lhs: list[float]
    rhs: list[float]
    stderr: list[float]
    ratio: list[float]
    tau1_sq: float
    tau2_sq: float
    trials: int
    unbiased_ratio: list[float]  # per step, max_i |mean_i - grad_i| / stderr_i


def validate_spider_error_bound(loss: LossSpec, S: Dataset, params: SpiderParams,
                                trials: int, rng: np.random.Generator,
                                path_len: int | None = None) -> SpiderBoundCheck:
    """Freeze one iterate path, then re-draw the estimator `trials` times.

    The path is one run of `_spider_path`; the trials are `trials` runs of it
    in lockstep, on generators spawned from `rng`, whose iterates are pinned
    to the frozen path. Reports the Monte Carlo mean squared estimation error
    at each path step against the analytic bound
    tau2^2 sum_k ||w_k - w_{k-1}||^2 + tau1^2 with
    tau1^2 = L0^2/b1 + d sigma1^2 and tau2^2 = L1^2/b2 + d sigma2^2.
    """
    if trials < 100:
        raise ValueError("trials must be >= 100")
    params.validate(S.n)
    d = S.dim
    t_max = path_len if path_len is not None else min(params.T, 8)

    path = [np.zeros((1, d))]

    def follow(t, W, nabla):
        path.append(W - params.eta * nabla)
        return path[-1]

    _spider_path(loss, params, t_max, [S], [rng], None, True, follow)
    ws = np.concatenate(path)
    true_grads = _erm_grads(loss, ws, S)
    dists = [0.0] + [float(np.linalg.norm(ws[k] - ws[k - 1])) for k in range(1, t_max + 1)]

    sq_err = np.zeros((trials, t_max))
    est_sum = np.zeros((t_max, d))
    est_sq_sum = np.zeros((t_max, d))

    def pinned(t, W, nabla):
        err = nabla - true_grads[t]
        sq_err[:, t] = np.einsum("rd,rd->r", err, err)
        est_sum[t] = nabla.sum(axis=0)
        est_sq_sum[t] = (nabla * nabla).sum(axis=0)
        return np.broadcast_to(ws[t + 1], (trials, d))

    _spider_path(loss, params, t_max, [S] * trials, rng.spawn(trials), None,
                 True, pinned)

    tau1_sq = loss.L0 ** 2 / params.b1 + d * params.sigma1 ** 2
    tau2_sq = loss.L1 ** 2 / params.b2 + d * params.sigma2 ** 2
    steps, lhs, rhs, stderr, ratio, unbiased = [], [], [], [], [], []
    for t in range(t_max):
        s_t = (t // params.q) * params.q
        bound = tau1_sq + tau2_sq * sum(dists[k] ** 2 for k in range(s_t + 1, t + 1))
        m = float(np.mean(sq_err[:, t]))
        se = float(np.std(sq_err[:, t], ddof=1) / math.sqrt(trials))
        steps.append(t)
        lhs.append(m)
        rhs.append(bound)
        stderr.append(se)
        ratio.append(m / bound if bound > 0 else 0.0)
        mean_est = est_sum[t] / trials
        comp_var = est_sq_sum[t] / trials - mean_est ** 2
        comp_se = np.sqrt(np.maximum(comp_var, 0.0) / trials) + 1e-15
        unbiased.append(float(np.max(np.abs(mean_est - true_grads[t]) / comp_se)))
    return SpiderBoundCheck(steps=steps, lhs=lhs, rhs=rhs, stderr=stderr,
                            ratio=ratio, tau1_sq=tau1_sq, tau2_sq=tau2_sq,
                            trials=trials, unbiased_ratio=unbiased)
