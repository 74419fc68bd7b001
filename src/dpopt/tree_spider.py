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

from .core.data import Dataset, DatasetCursor
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

    @property
    def depth(self) -> int:
        return len(self.s)

    @property
    def parent(self) -> "NodeAddress":
        if not self.s:
            raise ValueError("root has no parent")
        return NodeAddress(self.t, self.s[:-1])


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


def run_tree_spider(loss: LossSpec, stream: DatasetCursor, params: TreeParams,
                    rng: np.random.Generator, *,
                    record_nodes: bool = False) -> TreeRunReport:
    """Run T rounds of depth-D trees over the stream.

    Per round the root draws b fresh samples for a noisy batch-mean gradient;
    right children at depth |s| draw b/2^|s| fresh samples for the variation
    update Delta = (2^|s|/b) sum (grad(w_s) - grad(w_parent)) + noise. Leaves
    either return early (estimate norm <= 2 alpha_tilde) or step with exact
    length beta/(2^(D/2) L1); the stepped iterate seeds the next DFS node, and
    after the last leaf, the next round's root. Without an early stop, a
    uniformly random leaf iterate is returned.
    """
    params.validate()
    d = loss.dim
    per_round = params.samples_per_round()
    if stream.remaining < params.T * per_round:
        raise ValueError(f"stream holds {stream.remaining} samples, "
                         f"need {params.T * per_round}")

    ledger = NoiseLedger()
    order = dfs_order(params.D)
    step_len = params.beta_par / (2 ** (params.D / 2.0) * loss.L1)
    pending_w = np.zeros(d)
    leaf_ws: list[np.ndarray] = []
    records: list[NodeRecord] = []
    consumed0 = stream.consumed
    round_consumption: list[int] = []
    leaf_count = 0

    def make_report(stopped, address, w_out, rounds_done, selected=None):
        return TreeRunReport(
            w_out=w_out, stopped_early=stopped, stop_address=address,
            samples_consumed=stream.consumed - consumed0,
            leaf_count_visited=leaf_count, noise_ledger=ledger,
            rounds_completed=rounds_done, leaves_per_round=2 ** params.D,
            round_consumption=round_consumption, selected_leaf=selected,
            nodes=records)

    for t in range(1, params.T + 1):
        round_start = stream.consumed
        start = stream.consumed
        batch = stream.take(params.b)
        w_root = pending_w
        g = draw_gaussian(d, params.sigma_root, rng, ledger, SITE_ROOT)
        nabla_root = loss.grad_mean(w_root, batch.X, batch.y) + g
        nodes: dict[str, tuple[np.ndarray, np.ndarray]] = {"": (w_root, nabla_root)}
        if record_nodes:
            records.append(NodeRecord(NodeAddress(t, ""), w_root, nabla_root,
                                      None, (start, stream.consumed)))

        visit = [""] if params.D == 0 else order
        for s in visit:
            if s == "":
                w_s, nabla_s = nodes[""]
            elif s[-1] == "0":
                w_s, nabla_s = nodes[s[:-1]]
                nodes[s] = (w_s, nabla_s)
                if record_nodes:
                    records.append(NodeRecord(NodeAddress(t, s), w_s, nabla_s, None, None))
            else:
                w_par, nabla_par = nodes[s[:-1]]
                w_s = pending_w
                k = len(s)
                start = stream.consumed
                batch = stream.take(params.batch_size(k))
                # (2^|s|/b) * sum over the batch of per-sample variations
                var_sum = batch.n * (loss.grad_mean(w_s, batch.X, batch.y)
                                     - loss.grad_mean(w_par, batch.X, batch.y))
                g = draw_gaussian(d, params.sigma_delta, rng, ledger, SITE_DELTA)
                delta = (2 ** k / params.b) * var_sum + g
                nabla_s = nabla_par + delta
                nodes[s] = (w_s, nabla_s)
                if record_nodes:
                    records.append(NodeRecord(NodeAddress(t, s), w_s, nabla_s,
                                              delta, (start, stream.consumed)))
            if len(s) == params.D:
                leaf_count += 1
                leaf_ws.append(w_s)
                norm = float(np.linalg.norm(nabla_s))
                if norm <= 2.0 * params.alpha_tilde:
                    round_consumption.append(stream.consumed - round_start)
                    return make_report(True, NodeAddress(t, s), w_s, t - 1)
                pending_w = w_s - (step_len / norm) * nabla_s

        round_consumption.append(stream.consumed - round_start)

    selected = int(rng.integers(len(leaf_ws)))
    return make_report(False, None, leaf_ws[selected], params.T, selected)


@dataclass
class TreeBoundCheck:
    violation_rate: float
    target_p: float
    leaf_checks: int
    trials: int
    worst_sq_err: float
    bound: float


def validate_tree_estimation_error(loss: LossSpec, dist, params: TreeParams,
                                   trials: int, rng: np.random.Generator,
                                   batch_sampler=None) -> TreeBoundCheck:
    """Monte Carlo check of the per-leaf estimation-error event.

    Freezes the node iterates of one reference run, then redraws batches and
    noise `trials` times, counting the fraction of (leaf, trial) pairs with
    ||estimate - population gradient||^2 > alpha * alpha_tilde. `dist` must
    expose sample(k, rng) -> Dataset and population_grad(loss, w).
    """
    if trials < 100:
        raise ValueError("trials must be >= 100")
    params.validate()
    d = loss.dim
    sampler = batch_sampler if batch_sampler is not None else dist.sample

    need = params.T * params.samples_per_round()
    ref_stream = DatasetCursor(dist.sample(need, rng))
    ref = run_tree_spider(loss, ref_stream, params, rng, record_nodes=True)
    frozen = {(r.address.t, r.address.s): r.w for r in ref.nodes}
    pop_grads = {key: dist.population_grad(loss, w) for key, w in frozen.items()}

    bound = params.alpha * params.alpha_tilde
    order = dfs_order(params.D)
    violations = 0
    checks = 0
    worst = 0.0
    rounds = max(r.address.t for r in ref.nodes)
    for _ in range(trials):
        for t in range(1, rounds + 1):
            if (t, "") not in frozen:
                break
            batch = sampler(params.b, rng)
            est = {"": loss.grad_mean(frozen[(t, "")], batch.X, batch.y)
                   + draw_gaussian(d, params.sigma_root, rng)}
            visit = [""] if params.D == 0 else order
            for s in visit:
                if (t, s) not in frozen:
                    break
                if s == "":
                    nabla_s = est[""]
                elif s[-1] == "0":
                    est[s] = est[s[:-1]]
                    nabla_s = est[s]
                else:
                    k = len(s)
                    batch = sampler(params.batch_size(k), rng)
                    var_sum = batch.n * (
                        loss.grad_mean(frozen[(t, s)], batch.X, batch.y)
                        - loss.grad_mean(frozen[(t, s[:-1])], batch.X, batch.y))
                    est[s] = (est[s[:-1]] + (2 ** k / params.b) * var_sum
                              + draw_gaussian(d, params.sigma_delta, rng))
                    nabla_s = est[s]
                if len(s) == params.D:
                    err = nabla_s - pop_grads[(t, s)]
                    sq = float(err @ err)
                    worst = max(worst, sq)
                    checks += 1
                    if sq > bound:
                        violations += 1
    return TreeBoundCheck(violation_rate=violations / max(checks, 1),
                          target_p=params.p, leaf_checks=checks, trials=trials,
                          worst_sq_err=worst, bound=bound)
