"""Private SpiderBoost for empirical stationary points.

Phases of length q start with a noisy mini-batch gradient; within a phase
the estimate is extended by noisy gradient-variation estimates whose noise
scales with L1 * ||w_t - w_{t-1}|| (clamped at a Lipschitz-based cap), which
is where the method saves over Lipschitz-scaled noise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core.data import Dataset
from .core.loss import LossSpec, erm_grad
from .privacy import (NoiseLedger, PrivacyBudget, accountant_sigma,
                      draw_gaussian)
from .util import floori

SITE_GRAD = "spider-grad"
SITE_GV = "spider-gv"


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
class OptimizerReport:
    w_out: np.ndarray
    grad_norm_trace: list[float]
    trace_steps: list[int]
    oracle_calls: int
    noise_ledger: NoiseLedger
    selected_index: int
    gv_records: list[tuple[int, float, float]]  # (t, sigma used, step norm)
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
        raise ValueError("sample-size hypothesis violated: " + "; ".join(failures))

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


def run_spiderboost(loss: LossSpec, S: Dataset, params: SpiderParams,
                    rng: np.random.Generator, *,
                    replace_within_batch: bool = True,
                    trace_points: int = 200,
                    record_iterates: bool = False) -> OptimizerReport:
    """Run T iterations from w_0 = 0 and return a uniformly random iterate.

    At t = 0 mod q the estimate is a fresh batch-mean gradient plus
    N(0, I sigma1^2); otherwise the previous estimate is extended by the
    batch-mean gradient variation plus N(0, I min(sigma2^2 ||w_t - w_{t-1}||^2,
    sigma2_hat^2)). Batches are uniform with replacement at batch granularity
    (b = n uses the full dataset). Deterministic given the rng state.
    """
    params.validate(S.n)
    loss.validate_dataset(S)
    d = S.dim
    ledger = NoiseLedger()
    w = np.zeros(d)
    w_prev = None
    nabla = np.zeros(d)
    iterates = []
    gv_records = []
    oracle_calls = 0
    stride = max(1, -(-params.T // trace_points))
    trace_steps: list[int] = []
    trace: list[float] = []

    for t in range(params.T):
        if t % stride == 0:
            trace_steps.append(t)
            g_erm = erm_grad(loss, w, S)
            trace.append(math.sqrt(g_erm @ g_erm))
        if t % params.q == 0:
            X, Y = _batch(S, params.b1, rng, replace_within_batch)
            oracle_calls += params.b1
            g = draw_gaussian(d, params.sigma1, rng, ledger, SITE_GRAD)
            nabla = loss.grad_mean(w, X, Y) + g
        else:
            X, Y = _batch(S, params.b2, rng, replace_within_batch)
            oracle_calls += 2 * params.b2
            dw = w - w_prev
            step = math.sqrt(dw @ dw)
            sigma_t = min(params.sigma2 * step, params.sigma2_hat)
            g = draw_gaussian(d, sigma_t, rng, ledger, SITE_GV)
            delta = loss.grad_mean(w, X, Y) - loss.grad_mean(w_prev, X, Y) + g
            nabla = nabla + delta
            gv_records.append((t, sigma_t, step))
        w_prev = w
        w = w - params.eta * nabla
        iterates.append(w)

    selected = int(rng.integers(1, params.T + 1))
    return OptimizerReport(w_out=iterates[selected - 1],
                           grad_norm_trace=trace, trace_steps=trace_steps,
                           oracle_calls=oracle_calls, noise_ledger=ledger,
                           selected_index=selected, gv_records=gv_records,
                           iterates=iterates if record_iterates else None)


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

    def worst_ratio_slack(self) -> float:
        """max over steps of (lhs - rhs)/ (5 * stderr); <= 1 passes."""
        out = 0.0
        for l, r, s in zip(self.lhs, self.rhs, self.stderr):
            if s > 0:
                out = max(out, (l - r) / (5.0 * s))
        return out


def validate_spider_error_bound(loss: LossSpec, S: Dataset, params: SpiderParams,
                                trials: int, rng: np.random.Generator,
                                path_len: int | None = None) -> SpiderBoundCheck:
    """Freeze one iterate path, then re-draw the estimator `trials` times.

    Reports the Monte Carlo mean squared estimation error at each path step
    against the analytic bound tau2^2 sum_k ||w_k - w_{k-1}||^2 + tau1^2 with
    tau1^2 = L0^2/b1 + d sigma1^2 and tau2^2 = L1^2/b2 + d sigma2^2.
    """
    if trials < 100:
        raise ValueError("trials must be >= 100")
    params.validate(S.n)
    d = S.dim
    t_max = path_len if path_len is not None else min(params.T, 8)

    # frozen path: one forward run of the update rule
    ws = [np.zeros(d)]
    nabla = np.zeros(d)
    w_prev = None
    for t in range(t_max):
        w = ws[-1]
        if t % params.q == 0:
            X, Y = _batch(S, params.b1, rng, True)
            nabla = loss.grad_mean(w, X, Y) + draw_gaussian(d, params.sigma1, rng)
        else:
            X, Y = _batch(S, params.b2, rng, True)
            step = float(np.linalg.norm(w - w_prev))
            sigma_t = min(params.sigma2 * step, params.sigma2_hat)
            nabla = nabla + (loss.grad_mean(w, X, Y) - loss.grad_mean(w_prev, X, Y)
                             + draw_gaussian(d, sigma_t, rng))
        w_prev = w
        ws.append(w - params.eta * nabla)

    true_grads = [erm_grad(loss, w, S) for w in ws]
    dists = [0.0] + [float(np.linalg.norm(ws[k] - ws[k - 1])) for k in range(1, t_max + 1)]

    sq_err = np.zeros((trials, t_max))
    est_sum = np.zeros((t_max, d))
    est_sq_sum = np.zeros((t_max, d))
    for trial in range(trials):
        nabla = np.zeros(d)
        for t in range(t_max):
            w = ws[t]
            if t % params.q == 0:
                X, Y = _batch(S, params.b1, rng, True)
                nabla = loss.grad_mean(w, X, Y) + draw_gaussian(d, params.sigma1, rng)
            else:
                X, Y = _batch(S, params.b2, rng, True)
                sigma_t = min(params.sigma2 * dists[t], params.sigma2_hat)
                nabla = nabla + (loss.grad_mean(w, X, Y)
                                 - loss.grad_mean(ws[t - 1], X, Y)
                                 + draw_gaussian(d, sigma_t, rng))
            err = nabla - true_grads[t]
            sq_err[trial, t] = float(err @ err)
            est_sum[t] += nabla
            est_sq_sum[t] += nabla * nabla

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
