"""Tree-based private Spider for population stationary points.

Each round builds a fixed-depth binary tree over fresh disjoint batches of a
single-pass sample stream. A DFS traversal propagates gradient estimates:
left children copy the parent, right children add a noisy gradient-variation
update, and each leaf takes a normalized step of exact length
beta / (2^(D/2) L1), stopping early once the estimate's norm falls below the
threshold 2 * alpha_tilde.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core.data import DatasetCursor
from .core.loss import LossSpec
from .privacy import (NoiseLedger, PrivacyBudget, draw_gaussian,
                      gaussian_sigma, tree_gv_sensitivity)
from .util import PreconditionError, floori

SITE_ROOT = "tree-root"
SITE_DELTA = "tree-delta"


@dataclass(frozen=True)
class NodeAddress:
    """Address of a tree node: round t >= 1 and bit string s ('' = root)."""
    t: int
    s: str

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("round index must be >= 1")
        if any(c not in "01" for c in self.s):
            raise ValueError("s must be a bit string")


def leaf_label(k: int, D: int) -> str:
    """l(k): the D-bit binary representation of k in [0, 2^D - 1]."""
    if not 0 <= k < 2 ** D:
        raise ValueError(f"k={k} outside [0, {2 ** D - 1}]")
    return format(k, f"0{D}b") if D > 0 else ""


def dfs_order(D: int) -> list[str]:
    """Pre-order DFS of all 2^(D+1) - 2 non-root nodes, left subtree first."""
    out: list[str] = []

    def visit(s: str) -> None:
        out.append(s)
        if len(s) < D:
            visit(s + "0")
            visit(s + "1")

    if D >= 1:
        visit("0")
        visit("1")
    return out


@dataclass(frozen=True)
class TreeParams:
    b: int
    D: int
    T: int
    alpha: float
    alpha_tilde: float
    beta_par: float
    C_tilde: float
    sigma_root: float
    sigma_delta: float
    p: float

    def validate(self) -> None:
        if self.D < 0:
            raise ValueError("D must be >= 0")
        if self.D * 2 ** (self.D + 1) > self.b:
            raise ValueError(f"need D 2^(D+1) <= b: {self.D * 2 ** (self.D + 1)} > {self.b}")
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must lie in (0, 1)")
        if abs(self.alpha_tilde - self.C_tilde * self.alpha) > 1e-9 * max(1.0, self.alpha_tilde):
            raise ValueError("alpha_tilde must equal C_tilde * alpha")
        if self.beta_par > 2 ** (self.D / 2.0) * self.alpha_tilde * (1 + 1e-12):
            raise ValueError("need beta <= 2^(D/2) alpha_tilde")
        if min(self.sigma_root, self.sigma_delta) < 0:
            raise ValueError("noise scales must be non-negative")

    def batch_size(self, depth: int) -> int:
        """Fresh-batch size at a right child of the given depth (floored, >= 1)."""
        return max(1, self.b // 2 ** depth)

    def samples_per_round(self) -> int:
        per = self.b
        for k in range(1, self.D + 1):
            per += 2 ** (k - 1) * self.batch_size(k)
        return per


def largest_depth(b: int) -> int:
    """Largest integer D with D * 2^(D+1) <= b."""
    D = 0
    while (D + 1) * 2 ** (D + 2) <= b:
        D += 1
    return D


def derive_tree_params(n: int, d: int, L0: float, L1: float, F0: float,
                       budget: PrivacyBudget, p: float,
                       overrides: dict | None = None) -> TreeParams:
    """Single-pass parameter settings with total sample use at most n.

    b = max(n^(2/3), sqrt(n) d^(1/4)/sqrt(eps)); D the largest depth with
    D 2^(D+1) <= b; T = floor(n / (b (D/2 + 1))); thresholds from
    alpha = sqrt(2) L0 max(n^(-1/3), (sqrt(d)/(n eps))^(1/2)); Gaussian noise
    calibrated to the root sensitivity 2 L0 / b and the gradient-variation
    sensitivity 2 beta 2^(D/2) / b.
    """
    if F0 is None:
        raise ValueError("F0 is required (set the loss's F0_hint or pass a gap bound)")
    if min(L0, L1, F0) <= 0:
        raise ValueError("L0, L1, F0 must be positive")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    eps, delta = budget.eps, budget.delta

    ov = dict(overrides or {})
    b = int(ov.pop("b", max(floori(max(n ** (2.0 / 3.0),
                                           math.sqrt(n) * d ** 0.25 / math.sqrt(eps))), 1)))
    D = int(ov.pop("D", largest_depth(b)))

    failures = []
    half = D / 2.0 + 1.0
    bound1 = math.sqrt(d) * half ** 2 / eps
    if n < bound1:
        failures.append(f"n >= sqrt(d)(D/2+1)^2/eps = {bound1:.6g}")
    bound2 = half ** 3
    if n < bound2:
        failures.append(f"n >= (D/2+1)^3 = {bound2:.6g}")
    if failures:
        raise PreconditionError("sample-size hypothesis violated: " + "; ".join(failures))

    T = int(ov.pop("T", floori(n / (b * half))))
    if T < 1:
        raise PreconditionError(f"derived T = {T} < 1: n too small for b(D/2+1) = {b * half:.6g}")

    alpha = float(ov.pop("alpha",
                         math.sqrt(2.0) * L0 * max(n ** (-1.0 / 3.0),
                                                   math.sqrt(math.sqrt(d) / (n * eps)))))
    beta = float(ov.pop("beta_par", alpha * min(1.0, math.sqrt(b) * eps / math.sqrt(d))))
    C_tilde = float(ov.pop("C_tilde",
                           256.0 * math.log(1.25 / delta) * math.log(2.0 * T * 2 ** (D + 1) / p)
                           + 8.0 * L1 * F0 * math.sqrt(2.0 * D) * half / (2.0 * L0 ** 2)))
    alpha_tilde = float(ov.pop("alpha_tilde", C_tilde * alpha))
    sigma_root = float(ov.pop("sigma_root", gaussian_sigma(2.0 * L0 / b, eps, delta)))
    sigma_delta = float(ov.pop("sigma_delta",
                               gaussian_sigma(tree_gv_sensitivity(beta, D, b), eps, delta)))
    if ov:
        raise ValueError(f"unknown tree overrides: {sorted(ov)}")

    params = TreeParams(b=b, D=D, T=T, alpha=alpha, alpha_tilde=alpha_tilde,
                        beta_par=beta, C_tilde=C_tilde, sigma_root=sigma_root,
                        sigma_delta=sigma_delta, p=p)
    params.validate()
    return params


@dataclass
class NodeRecord:
    address: NodeAddress
    w: np.ndarray
    grad_est: np.ndarray
    delta: np.ndarray | None          # right children only
    batch_range: tuple[int, int] | None  # stream positions consumed here


@dataclass
class TreeRunReport:
    w_out: np.ndarray
    stopped_early: bool
    stop_address: NodeAddress | None
    samples_consumed: int
    leaf_count_visited: int
    noise_ledger: NoiseLedger
    rounds_completed: int
    leaves_per_round: int
    round_consumption: list[int]
    selected_leaf: int | None = None
    nodes: list[NodeRecord] = field(default_factory=list)

    @property
    def oracle_calls(self) -> int:
        # sample-complexity accounting: one oracle unit per consumed sample
        return self.samples_consumed


def _tree_path(loss: LossSpec, params: TreeParams, take, rng: np.random.Generator,
               ledger: NoiseLedger | None, leaf, node=None) -> None:
    """The DFS of T rounds of depth-D trees, from the root iterate 0.

    `take(k)` returns k fresh samples. The root of a round draws its batch,
    then its noise, for the estimate grad(w_root) + N(0, sigma_root^2); a left
    child copies its parent; a right child at depth k draws its batch of
    b/2^k, then its noise, for Delta = (2^k/b) sum (grad(w_s) - grad(w_parent))
    + N(0, sigma_delta^2) and the estimate nabla_parent + Delta. Roots and
    right children sit at the pending iterate; `leaf(t, s, w_s, nabla_s)`
    returns the next pending iterate, or None to stop. `node(t, s, w_s,
    nabla_s, delta)`, when given, sees every node before its leaf hook.
    """
    d = loss.dim
    visit = [""] + dfs_order(params.D)
    pending_w = np.zeros(d)
    for t in range(1, params.T + 1):
        nodes: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for s in visit:
            delta = None
            if not s:
                w_s = pending_w
                batch = take(params.b)
                g = draw_gaussian(d, params.sigma_root, rng, ledger, SITE_ROOT)
                nabla_s = loss.grad_mean(w_s, batch.X, batch.y) + g
            elif s[-1] == "0":
                w_s, nabla_s = nodes[s[:-1]]
            else:
                w_par, nabla_par = nodes[s[:-1]]
                w_s = pending_w
                k = len(s)
                batch = take(params.batch_size(k))
                # (2^|s|/b) * sum over the batch of per-sample variations
                var_sum = batch.n * (loss.grad_mean(w_s, batch.X, batch.y)
                                     - loss.grad_mean(w_par, batch.X, batch.y))
                g = draw_gaussian(d, params.sigma_delta, rng, ledger, SITE_DELTA)
                delta = (2 ** k / params.b) * var_sum + g
                nabla_s = nabla_par + delta
            nodes[s] = (w_s, nabla_s)
            if node is not None:
                node(t, s, w_s, nabla_s, delta)
            if len(s) == params.D:
                pending_w = leaf(t, s, w_s, nabla_s)
                if pending_w is None:
                    return


def run_tree_spider(loss: LossSpec, stream: DatasetCursor, params: TreeParams,
                    rng: np.random.Generator, *,
                    record_nodes: bool = False) -> TreeRunReport:
    """Run T rounds of depth-D trees over the stream (see `_tree_path`).

    Leaves either return early (estimate norm <= 2 alpha_tilde) or step with
    exact length beta/(2^(D/2) L1); the stepped iterate seeds the next root
    or right child. Without an early stop, a uniformly random leaf iterate is
    returned.
    """
    params.validate()
    per_round = params.samples_per_round()
    if stream.remaining < params.T * per_round:
        raise ValueError(f"stream holds {stream.remaining} samples, "
                         f"need {params.T * per_round}")

    ledger = NoiseLedger()
    step_len = params.beta_par / (2 ** (params.D / 2.0) * loss.L1)
    last_leaf = "1" * params.D
    consumed0 = round_start = batch_start = stream.consumed
    leaf_ws: list[np.ndarray] = []
    records: list[NodeRecord] = []
    round_consumption: list[int] = []
    stop: NodeAddress | None = None

    def leaf(t, s, w_s, nabla_s):
        nonlocal round_start, stop
        leaf_ws.append(w_s)
        norm = float(np.linalg.norm(nabla_s))
        if norm <= 2.0 * params.alpha_tilde:
            stop = NodeAddress(t, s)
        if stop is not None or s == last_leaf:
            round_consumption.append(stream.consumed - round_start)
            round_start = stream.consumed
        return None if stop is not None else w_s - (step_len / norm) * nabla_s

    def record(t, s, w_s, nabla_s, delta):
        nonlocal batch_start
        span = None
        if not s.endswith("0"):  # the root and right children take a batch
            span, batch_start = (batch_start, stream.consumed), stream.consumed
        records.append(NodeRecord(NodeAddress(t, s), w_s, nabla_s, delta, span))

    _tree_path(loss, params, stream.take, rng, ledger, leaf,
               record if record_nodes else None)
    selected = None if stop is not None else int(rng.integers(len(leaf_ws)))
    return TreeRunReport(
        w_out=leaf_ws[-1 if selected is None else selected],
        stopped_early=stop is not None, stop_address=stop,
        samples_consumed=stream.consumed - consumed0,
        leaf_count_visited=len(leaf_ws), noise_ledger=ledger,
        rounds_completed=params.T if stop is None else stop.t - 1,
        leaves_per_round=2 ** params.D, round_consumption=round_consumption,
        selected_leaf=selected, nodes=records)


def _pinned_leaf(ref: TreeRunReport, visit):
    """A leaf hook that holds a trial to the path of `ref`, a run with
    recorded nodes: each leaf calls visit(t, s, w_s, nabla_s) and hands on
    the iterate `ref` handed on there (the w of its next root or right
    child), and the hook stops where `ref` stopped."""
    handed = iter([r.w for r in ref.nodes if not r.address.s.endswith("0")][1:])

    def leaf(t, s, w_s, nabla_s):
        visit(t, s, w_s, nabla_s)
        return next(handed, None)
    return leaf


@dataclass
class TreeBoundCheck:
    violation_rate: float
    target_p: float
    leaf_checks: int
    trials: int
    worst_sq_err: float
    bound: float


def validate_tree_estimation_error(loss: LossSpec, dist, params: TreeParams,
                                   trials: int, rng: np.random.Generator) -> TreeBoundCheck:
    """Monte Carlo check of the per-leaf estimation-error event.

    Pins the node iterates of one reference run, then redraws batches and
    noise along its path `trials` times, counting the fraction of (leaf,
    trial) pairs with ||estimate - population gradient||^2 > alpha *
    alpha_tilde. `dist` must expose sample(k, rng) -> Dataset and
    population_grad(loss, w).
    """
    if trials < 100:
        raise ValueError("trials must be >= 100")
    params.validate()

    need = params.T * params.samples_per_round()
    ref = run_tree_spider(loss, DatasetCursor(dist.sample(need, rng)), params, rng,
                          record_nodes=True)
    pop_grads = {(r.address.t, r.address.s): dist.population_grad(loss, r.w)
                 for r in ref.nodes if len(r.address.s) == params.D}
    sq_errs: list[float] = []

    def check(t, s, w_s, nabla_s):
        err = nabla_s - pop_grads[(t, s)]
        sq_errs.append(float(err @ err))

    for _ in range(trials):
        _tree_path(loss, params, lambda k: dist.sample(k, rng), rng, None,
                   _pinned_leaf(ref, check))
    bound = params.alpha * params.alpha_tilde
    violations = sum(sq > bound for sq in sq_errs)
    return TreeBoundCheck(violation_rate=violations / max(len(sq_errs), 1),
                          target_p=params.p, leaf_checks=len(sq_errs), trials=trials,
                          worst_sq_err=max(sq_errs, default=0.0), bound=bound)
