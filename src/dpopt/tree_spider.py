"""Tree-based private Spider for population stationary points.

Each round builds a fixed-depth binary tree over fresh disjoint batches of a
single-pass sample stream. A DFS traversal propagates gradient estimates:
left children copy the parent, right children add a noisy gradient-variation
update, and each leaf takes a normalized step of exact length
beta / (2^(D/2) L1), stopping early once the estimate's norm falls below the
threshold 2 * alpha_tilde.

The traversal is written once, in `_tree_path`, over a leading run axis:
each run keeps its own stream, generator, ledger and early stop, so a run's
output is bit-identical alone or in a group. The optimizer uses it with
R = 1 or with R seeds in lockstep, and the Monte Carlo validator with R = 1.
A root's gradient and a right child's variation come from one row-wise
kernel per gathered sub-group of runs: `LossSpec.grad_mean_rows`, and for a
right child `LossSpec.grad_var`, SpiderBoost's kernel (for a GLM one batched
X @ [w, w_parent], one slope call and one (s - s_parent)^T X, in views of one
flat workspace per traversal). When the runs index one population support
and a node's batch has at least as many rows as the support, the node takes
each run's counts of the support rows instead of gathered rows, and
`LossSpec.grad_counts` weighs the m support rows by them: O(m d + size) work
instead of O(size d).
"""
from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core.data import Dataset, DatasetCursor, Runs, lockstep
from .core.loss import LossSpec, VarWork
from .privacy import (NoiseLedger, PrivacyBudget, draw_gaussian,
                      gaussian_sigma, tree_gv_sensitivity)
from .util import PreconditionError, floori, read_overrides

SITE_ROOT = "tree-root"
SITE_DELTA = "tree-delta"

# the runs of a lockstep group gather a node's batch rows for at most this
# many entries (256 KB) at a time. A population sample gathers only batches
# smaller than its support, five runs at once below a 256-row support at
# d = 16; the cap binds on plain streams and large supports, where a root
# batch of five runs at n = 2^20 would be 6.6 MB
GATHER_ENTRIES = 2 ** 15

# each run draws the standard normals of at most this many noisy nodes (roots
# and right children) in one call; a power of two, so that a block of
# min(NOISE_NODES, 2^D) nodes never crosses a round's 2^D
NOISE_NODES = 64

# a sub-group's batch rows: X of shape (A, size, d), Y of shape (A, size) or None
Rows = tuple[np.ndarray, np.ndarray | None]


class Counts(NamedTuple):
    """Every active run's batch of `size` samples as counts of the rows of
    one support: C[i, j] copies of row j of X (m, d) and Y (m,) or None in
    run i's batch (see `LossSpec.grad_counts`)."""
    X: np.ndarray
    Y: np.ndarray | None
    C: np.ndarray
    size: int


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
        # each check is written so that a NaN fails it
        if not (abs(self.alpha_tilde - self.C_tilde * self.alpha)
                <= 1e-9 * max(1.0, self.alpha_tilde)):
            raise ValueError("alpha_tilde must equal C_tilde * alpha")
        if not self.beta_par <= 2 ** (self.D / 2.0) * self.alpha_tilde * (1 + 1e-12):
            raise ValueError("need beta <= 2^(D/2) alpha_tilde")
        if not (self.sigma_root >= 0 and self.sigma_delta >= 0):
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


OVERRIDES = {**dict.fromkeys(("p", "alpha", "beta_par", "C_tilde", "alpha_tilde", "sigma_root",
                              "sigma_delta"), (float, None)),
             "b": (int, 1), "T": (int, 1), "D": (int, 0)}


def derive_tree_params(n: int, d: int, L0: float, L1: float, F0: float,
                       budget: PrivacyBudget, p: float,
                       overrides: dict | None = None) -> TreeParams:
    """Single-pass parameter settings with total sample use at most n.

    b = max(n^(2/3), sqrt(n) d^(1/4)/sqrt(eps)); D the largest depth with
    D 2^(D+1) <= b; T = floor(n / (b (D/2 + 1))); thresholds from
    alpha = sqrt(2) L0 max(n^(-1/3), (sqrt(d)/(n eps))^(1/2)); Gaussian noise
    calibrated to the root sensitivity 2 L0 / b and the gradient-variation
    sensitivity 2 beta 2^(D/2) / b. An override `p` replaces the argument p.
    """
    ov = read_overrides(overrides, OVERRIDES, "tree")
    p = ov.get("p", p)
    if F0 is None:
        raise ValueError("F0 is required (set the loss's F0_hint or pass a gap bound)")
    if not (L0 > 0 and L1 > 0 and F0 > 0):  # so that a NaN fails too
        raise ValueError("L0, L1, F0 must be positive")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    eps, delta = budget.eps, budget.delta

    b = ov.get("b", max(floori(max(n ** (2.0 / 3.0),
                                   math.sqrt(n) * d ** 0.25 / math.sqrt(eps))), 1))
    D = ov.get("D", largest_depth(b))

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

    T = ov.get("T", floori(n / (b * half)))
    if T < 1:
        raise PreconditionError(f"derived T = {T} < 1: n too small for b(D/2+1) = "
                                f"{b * half:.6g}")

    alpha = ov.get("alpha", math.sqrt(2.0) * L0 * max(n ** (-1.0 / 3.0),
                                                      math.sqrt(math.sqrt(d) / (n * eps))))
    beta = ov.get("beta_par", alpha * min(1.0, math.sqrt(b) * eps / math.sqrt(d)))
    C_tilde = ov.get("C_tilde",
                     256.0 * math.log(1.25 / delta) * math.log(2.0 * T * 2 ** (D + 1) / p)
                     + 8.0 * L1 * F0 * math.sqrt(2.0 * D) * half / (2.0 * L0 ** 2))
    alpha_tilde = ov.get("alpha_tilde", C_tilde * alpha)
    sigma_root = ov.get("sigma_root", gaussian_sigma(2.0 * L0 / b, eps, delta))
    sigma_delta = ov.get("sigma_delta",
                         gaussian_sigma(tree_gv_sensitivity(beta, D, b), eps, delta))

    params = TreeParams(b=b, D=D, T=T, alpha=alpha, alpha_tilde=alpha_tilde,
                        beta_par=beta, C_tilde=C_tilde, sigma_root=sigma_root,
                        sigma_delta=sigma_delta, p=p)
    params.validate()
    need = T * params.samples_per_round()
    if need > n:  # only overrides can ask for more than n
        given = ", ".join(f"{name} = {ov[name]}" for name in ("b", "D", "T") if name in ov)
        raise ValueError(f"overrides {given} use T * samples_per_round() = {need} samples, "
                         f"more than n = {n}")
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


class TreeRuns(list):
    """The reports of runs in lockstep, in run order, with the group's
    totals of leaves visited and samples consumed."""

    @property
    def leaf_count_visited(self) -> int:
        return sum(rep.leaf_count_visited for rep in self)

    @property
    def samples_consumed(self) -> int:
        return sum(rep.samples_consumed for rep in self)


def _grad_means(loss: LossSpec, blocks: Iterable[Rows] | Counts, W: np.ndarray,
                W_par: np.ndarray | None = None,
                work: Callable[[int, int], VarWork] | None = None) -> np.ndarray:
    """Row i the batch-mean gradient at W[i] on run i's batch or, given
    W_par, its variation from W_par[i]. `blocks` is either every run's
    `Counts`, for one `loss.grad_counts` call, or an iterable of the rows
    of one sub-group of runs at a time, in run order: a sub-group of A runs'
    batches of `size` rows takes `loss.grad_mean_rows` or `loss.grad_var`
    in the buffers `work(A, size)` gives, and each sub-group's result is
    copied out before the next call overwrites it."""
    if isinstance(blocks, Counts):
        return loss.grad_counts(W, *blocks, W_prev=W_par)
    out = np.empty_like(W)
    i = 0
    for X, Y in blocks:
        rows = slice(i, i + len(X))
        out[rows] = (loss.grad_mean_rows(W[rows], X, Y) if W_par is None else
                     loss.grad_var(W[rows], W_par[rows], X, Y, work(*X.shape[:2])))
        i += len(X)
        del X, Y  # one sub-group's rows at a time
    return out


class _StreamBatches:
    """The optimizer's `batch` hook: the samples that R cursors hand out
    next, read in place while the cursors stay where they are. Every active
    run has taken the same `used` samples since its cursor's start, so one
    counter places them all.

    When the runs index one source (population samples), the hook slices a
    block of the active runs' source rows up to the end of the round, at a
    round's first node and again after a run stops. A node whose batch has
    at least as many samples as the source has rows gets `Counts`, from one
    `bincount` of its columns of that block; a smaller node gathers each
    sub-group's rows with one `take` of a slice of it. Any other group
    stacks each node's slices (see `Runs.stack`). Sub-groups of gathered
    rows hold at most GATHER_ENTRIES entries."""

    def __init__(self, streams: Sequence[DatasetCursor], per_round: int, d: int):
        self.data = Runs(c.dataset for c in streams)
        self.starts = [c.consumed for c in streams]
        self.per_round, self.d = per_round, d
        self.used = 0
        self.runs: list[int] | None = None
        self.lo = self.end = 0  # the block's span of `used`
        self.block: tuple[Dataset, np.ndarray] | None = None

    def __call__(self, runs: list[int], size: int) -> Iterator[Rows] | Counts:
        lo = self.used
        self.used += size
        if runs != self.runs or lo >= self.end:
            self.runs, self.lo = runs, lo
            self.end = lo - lo % self.per_round + self.per_round
            self.block = Runs(self.data[r] for r in runs).indices(
                [self.starts[r] + lo for r in runs], self.end - lo)
        step = max(1, GATHER_ENTRIES // (size * self.d))  # runs gathered at a time
        if self.block is None:
            return (Runs(self.data[r].slice(self.starts[r] + lo, self.starts[r] + lo + size)
                         for r in runs[i:i + step]).stack(axis=0)
                    for i in range(0, len(runs), step))
        src, idx = self.block
        cols = idx[:, lo - self.lo:lo - self.lo + size]
        m = src.n
        if size >= m:  # run i counts its source rows at i m to i m + m - 1
            C = np.bincount((cols + np.arange(0, len(runs) * m, m)[:, None]).reshape(-1),
                            minlength=len(runs) * m)
            return Counts(src.X, src.y, C.reshape(-1, m), size)
        return ((src.X.take(c, axis=0), None if src.y is None else src.y.take(c))
                for c in (cols[i:i + step] for i in range(0, len(runs), step)))


def _row_norms(V: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row v of V, bit for bit `math.sqrt(v @ v)`
    (`np.linalg.norm`'s result on a contiguous row), in one call."""
    return np.sqrt(np.vecdot(V, V))


def _active(runs: list[int], R: int) -> list[int] | slice:
    """An index of the active runs' rows in an array over all R runs: a
    slice when every run is active, which numpy indexes faster than a list."""
    return slice(None) if len(runs) == R else runs


class _BlockNoise:
    """The optimizer's `noise` hook: run r's noise from rngs[r], recorded in
    ledgers[r], one `NoiseLedger.record` per run per node. Each active run
    draws the standard normals of its next C = min(NOISE_NODES, 2^D) noisy
    nodes with one `draw_gaussian` call into its row of one (R, C, d)
    block; a node scales its (A, d) column by sigma, so each entry is the
    product sigma * z that a per-node draw gives. C divides 2^D, so a block
    starts and ends with a round, and every active run has used the same
    rows of it: one counter places them all.

    A block draw first saves the run's generator state. `rewind(r)`, for a
    run that stops, restores it and draws again exactly the rows the run
    used, which leaves the generator where per-node draws would have left
    it; a run that never stops uses every row of its last block."""

    def __init__(self, rngs: Sequence[np.random.Generator], ledgers: Sequence[NoiseLedger],
                 d: int, D: int):
        self.rngs, self.ledgers, self.d = rngs, ledgers, d
        self.C = min(NOISE_NODES, 2 ** D)
        self.Z = np.empty((len(rngs), self.C, d))
        self.states: list[dict | None] = [None] * len(rngs)
        self.row = self.C  # rows of the current block used

    def __call__(self, runs: list[int], sigma: float, site: str) -> np.ndarray:
        if self.row == self.C:
            for r in runs:
                self.states[r] = self.rngs[r].bit_generator.state
                draw_gaussian(self.C * self.d, 1.0, self.rngs[r], out=self.Z[r].reshape(-1))
            self.row = 0
        z = self.Z[_active(runs, len(self.rngs)), self.row] * sigma
        self.row += 1
        for r in runs:
            self.ledgers[r].record(site, sigma, self.d)
        return z

    def rewind(self, r: int) -> None:
        rng = self.rngs[r]
        rng.bit_generator.state = self.states[r]
        rng.standard_normal(self.row * self.d)


def _tree_path(loss: LossSpec, params: TreeParams, R: int, batch, noise, leaf,
               node=None) -> None:
    """The DFS of T rounds of depth-D trees for R runs in lockstep, each
    from the root iterate 0.

    At a root or right child, `batch(runs, size)` gives each active run's
    `size` fresh samples, as the rows of sub-groups of the runs in run order
    or as every run's `Counts` of support rows (see `_grad_means`, and
    `_StreamBatches` for the optimizer's hook). Then `noise(runs, sigma,
    site)` gives the node's draws from N(0, sigma^2 I_d), one row per active
    run, and records them at `site` when the caller keeps ledgers; called in
    this order, a batch hook that samples from the runs' generators (the
    validator's) draws before the noise, as one run's per-node
    `draw_gaussian` calls would (the optimizer's noise hook is
    `_BlockNoise`). At the root of a round each run takes its batch, then
    its noise, for the estimate grad(w_root) + N(0, sigma_root^2); a left
    child copies its parent; at a right child of depth k each run takes its
    batch of b/2^k, then its noise, for Delta = (2^k/b) sum (grad(w_s) -
    grad(w_parent)) + N(0, sigma_delta^2) and the estimate nabla_parent +
    Delta. Roots and right children sit at the pending iterates.

    The sum is b/2^k times the batch mean that `_grad_means` gives. On
    gathered rows, that is `loss.grad_var(W, W_par, X, Y, work)` on each
    sub-group of runs, whose buffers are `VarWork` views of the front of one
    flat array, made once per (runs, size) shape, smaller groups left after
    runs stop included. The array grows to the largest shape asked for,
    so it covers only the batch sizes that are gathered.

    Iterates and estimates are (A, d) arrays over the A active runs, whose
    indices `runs` lists in run order, and every operation is row-wise, so a
    run gets the same bits alone as in a group. The hooks see a node once,
    with every active run's row. At each leaf, `leaf(runs, t, s, W, Nabla)`
    returns (keep, W_next): the positions of the rows that go on and their
    next pending iterates, of shape (len(keep), d). A run left out stops and
    leaves the group, and the others go on as before. `node(runs, t, s, W,
    Nabla, Delta)`, when given, sees every node before the leaf hook.

    The schedule (s, depth, is-right, batch size, 2^depth/b) is built once
    per call; `path[k]` holds the (W, Nabla) of the depth-k nodes on the
    current root-to-node path.
    """
    d, D = loss.dim, params.D
    schedule = [("", 0, False, params.b, None)] + [
        (s, len(s), s[-1] == "1", params.batch_size(len(s)), 2 ** len(s) / params.b)
        for s in dfs_order(D)]
    path: list[tuple[np.ndarray, np.ndarray] | None] = [None] * (D + 1)
    runs = list(range(R))
    pending = np.zeros((R, d))
    buf = np.empty(0)
    works: dict[tuple[int, int], VarWork] = {}

    def work(A: int, size: int) -> VarWork:
        nonlocal buf
        if (A, size) not in works:
            if VarWork.entries(A, size, d) > len(buf):  # drop the views of the old one
                buf = np.empty(VarWork.entries(A, size, d))
                works.clear()
            works[A, size] = VarWork(A, size, d, buf)
        return works[A, size]

    for t in range(1, params.T + 1):
        for s, k, right, size, scale in schedule:
            delta = None
            if k and not right:
                W, nabla = path[k - 1]
            else:
                sigma, site = ((params.sigma_delta, SITE_DELTA) if k
                               else (params.sigma_root, SITE_ROOT))
                blocks = batch(runs, size)
                draws = noise(runs, sigma, site)
                W = pending
                if not k:
                    nabla = _grad_means(loss, blocks, W) + draws
                else:
                    W_par, nabla_par = path[k - 1]
                    # (2^|s|/b) * sum over the batch of per-sample variations
                    delta = scale * (size * _grad_means(loss, blocks, W, W_par, work)) + draws
                    nabla = nabla_par + delta
            path[k] = (W, nabla)
            if node is not None:
                node(runs, t, s, W, nabla, delta)
            if k == D:
                keep, pending = leaf(runs, t, s, W, nabla)
                if len(keep) < len(runs):
                    if not len(keep):
                        return
                    runs = [runs[i] for i in keep]
                    path = [p if p is None else (p[0][keep], p[1][keep]) for p in path]


def run_tree_spider(loss: LossSpec, stream: DatasetCursor | Sequence[DatasetCursor],
                    params: TreeParams,
                    rng: np.random.Generator | Sequence[np.random.Generator], *,
                    record_nodes: bool = False) -> TreeRunReport | TreeRuns:
    """Run T rounds of depth-D trees over the stream (see `_tree_path`).

    Leaves either return early (estimate norm <= 2 alpha_tilde) or step with
    exact length beta/(2^(D/2) L1); the stepped iterate seeds the next root
    or right child. Without an early stop, a uniformly random leaf iterate is
    returned, drawn after the run's last noise draw.

    Given a sequence of generators and one stream per generator, the runs
    go in lockstep and a `TreeRuns` of reports comes back; each equals what
    that run gives alone. The streams' datasets must share n, d and
    labelling. The runs read their batches in place (see `_StreamBatches`),
    and each cursor moves once, at the end, past what its run consumed.
    """
    streams = [stream] if isinstance(stream, DatasetCursor) else list(stream)
    data, rngs, _, single = lockstep(Runs(c.dataset for c in streams), rng)
    if len(set(map(id, streams))) < len(streams):
        raise ValueError("each run needs its own cursor")
    params.validate()
    per_round = params.samples_per_round()
    need = params.T * per_round
    for c in streams:
        if c.remaining < need:
            raise ValueError(f"stream holds {c.remaining} samples, need {need}")
    for D in dict.fromkeys(data):
        loss.validate_dataset(D)

    R, d, leaves = len(rngs), loss.dim, 2 ** params.D
    ledgers = [NoiseLedger() for _ in rngs]
    noise = _BlockNoise(rngs, ledgers, d, params.D)
    step_len = params.beta_par / (2 ** (params.D / 2.0) * loss.L1)
    threshold = 2.0 * params.alpha_tilde
    batch = _StreamBatches(streams, per_round, d)
    consumed = [need] * R  # a run that stops has consumed less
    # round t's leaf iterates, rounds[t - 1][k, r] run r's at leaf k, copied
    # so that no view keeps a group array alive
    rounds: list[np.ndarray] = []
    records: list[list[NodeRecord]] = [[] for _ in rngs]
    stops: list[NodeAddress | None] = [None] * R

    def leaf(runs, t, s, W, nabla):
        k = int(s or "0", 2)
        if not k:
            rounds.append(np.empty((leaves, R, d)))
        rounds[-1][k, _active(runs, R)] = W
        norms = _row_norms(nabla)
        near = norms <= threshold
        if near.any():
            for i in np.flatnonzero(near).tolist():
                r = runs[i]
                stops[r], consumed[r] = NodeAddress(t, s), batch.used
                noise.rewind(r)
            keep = np.flatnonzero(~near)  # a NaN norm steps on, as it does alone
            W, nabla, norms = W[keep], nabla[keep], norms[keep]
        else:
            keep = range(len(runs))
        return keep, W - (step_len / norms)[:, None] * nabla

    def record(runs, t, s, W, nabla, delta):
        taken = not s.endswith("0")  # the root and right children take a batch
        lo = batch.used - params.batch_size(len(s))
        for i, r in enumerate(runs):
            span = (batch.starts[r] + lo, batch.starts[r] + batch.used) if taken else None
            records[r].append(NodeRecord(NodeAddress(t, s), W[i], nabla[i],
                                         None if delta is None else delta[i], span))

    _tree_path(loss, params, R, batch, noise, leaf, record if record_nodes else None)
    for c, k in zip(streams, consumed):
        c.take(k)
    reports = TreeRuns()
    for r, (rng_r, stop) in enumerate(zip(rngs, stops)):
        if stop is None:
            count = params.T * leaves
            selected = int(rng_r.integers(count))
            t, k = divmod(selected, leaves)
            spent = [per_round] * params.T
        else:
            selected, t, k = None, stop.t - 1, int(stop.s or "0", 2)
            count = t * leaves + k + 1
            spent = [per_round] * t + [consumed[r] - t * per_round]
        reports.append(TreeRunReport(
            w_out=rounds[t][k, r].copy(),
            stopped_early=stop is not None, stop_address=stop,
            samples_consumed=consumed[r],
            leaf_count_visited=count, noise_ledger=ledgers[r],
            rounds_completed=params.T if stop is None else t,
            leaves_per_round=leaves, round_consumption=spent,
            selected_leaf=selected, nodes=records[r]))
    return reports[0] if single else reports


def _pinned_leaf(ref: TreeRunReport, visit):
    """A leaf hook for one run (R = 1) that holds it to the path of `ref`, a
    run with recorded nodes: each leaf calls visit(t, s, w_s, nabla_s) and
    hands on the iterate `ref` handed on there (the w of its next root or
    right child), and the hook stops where `ref` stopped."""
    handed = iter([r.w for r in ref.nodes if not r.address.s.endswith("0")][1:])

    def leaf(runs, t, s, W, nabla):
        visit(t, s, W[0], nabla[0])
        w = next(handed, None)
        return ((), None) if w is None else ((0,), w[None])
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

    def batch(runs, size):
        return [Runs([dist.sample(size, rng)]).stack(axis=0)]

    def noise(runs, sigma, site):
        return draw_gaussian(loss.dim, sigma, rng, None, site)[None]

    for _ in range(trials):
        _tree_path(loss, params, 1, batch, noise, _pinned_leaf(ref, check))
    bound = params.alpha * params.alpha_tilde
    violations = sum(sq > bound for sq in sq_errs)
    return TreeBoundCheck(violation_rate=violations / max(len(sq_errs), 1),
                          target_p=params.p, leaf_checks=len(sq_errs), trials=trials,
                          worst_sq_err=max(sq_errs, default=0.0), bound=bound)
