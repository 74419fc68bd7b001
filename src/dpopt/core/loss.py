"""Per-sample losses with declared Lipschitz and smoothness constants.

Every loss exposes scalar evaluation/gradient plus vectorized batch-mean
gradients.
Declared ``L0`` (Lipschitz) and ``L1`` (smoothness) bounds hold uniformly
over the loss's data domain; ``F0_hint`` upper-bounds the initial gap
F(0) - min F and feeds the optimizers' parameter derivations.
"""
from __future__ import annotations

import math

import numpy as np

from .data import Dataset


class LossSpec:
    """Base class for per-sample differentiable losses.

    Subclasses implement ``eval``/``grad`` for a single sample and the
    vectorized ``grad_mean`` over a batch. Gradients are closed-form
    throughout; there is no autodiff.
    """

    name = "loss"

    def __init__(self, dim: int, L0: float, L1: float,
                 F0_hint: float | None = None, convex: bool = False):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if L0 < 0 or L1 < 0:
            raise ValueError("L0 and L1 must be non-negative")
        self.dim = int(dim)
        self.L0 = float(L0)
        self.L1 = float(L1)
        self.F0_hint = None if F0_hint is None else float(F0_hint)
        self.convex = bool(convex)

    # single sample ------------------------------------------------------
    def eval(self, w: np.ndarray, x: np.ndarray, y: float | None = None) -> float:
        raise NotImplementedError

    def grad(self, w: np.ndarray, x: np.ndarray, y: float | None = None) -> np.ndarray:
        raise NotImplementedError

    # batch means --------------------------------------------------------
    def grad_mean(self, w: np.ndarray, X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
        grads = np.stack([self.grad(w, X[i], None if Y is None else Y[i])
                          for i in range(X.shape[0])])
        return grads.mean(axis=0)

    def grad_rows(self, W: np.ndarray, X: np.ndarray,
                  Y: np.ndarray | None = None) -> np.ndarray:
        """Single-sample gradients on a run axis: row r is grad(W[r], X[r],
        Y[r]) for iterates W and samples X of shape (R, d)."""
        return np.stack([self.grad(w, x, None if Y is None else Y[r])
                         for r, (w, x) in enumerate(zip(W, X))])

    def grad_mean_rows(self, W: np.ndarray, X: np.ndarray,
                       Y: np.ndarray | None = None) -> np.ndarray:
        """Batch-mean gradients on a run axis: row r is grad_mean(W[r], X[r],
        Y[r]) for iterates W of shape (R, d) and batches X of shape (R, b, d)."""
        return np.stack([self.grad_mean(w, x, None if Y is None else Y[r])
                         for r, (w, x) in enumerate(zip(W, X))])

    def grad_var(self, W: np.ndarray, W_prev: np.ndarray, X: np.ndarray,
                 Y: np.ndarray | None = None,
                 work: "VarWork | None" = None) -> np.ndarray:
        """Batch-mean gradient variations on a run axis: row r is
        grad_mean(W[r], X[r], Y[r]) - grad_mean(W_prev[r], X[r], Y[r]) for
        iterates W, W_prev of shape (R, d) and batches X of shape (R, b, d).
        SpiderBoost's variation steps and tree Spider's right children both
        call it. A loss with a batched kernel computes it in `work`'s buffers
        when given them and returns `work.out`, which the next call on those
        buffers (or on another `VarWork` carved from the same flat buffer)
        overwrites, so a caller that keeps the result copies it first; this
        row-by-row default ignores `work` and returns a fresh array."""
        return np.stack([self.grad_mean(w, x, None if Y is None else Y[r])
                         - self.grad_mean(v, x, None if Y is None else Y[r])
                         for r, (w, v, x) in enumerate(zip(W, W_prev, X))])

    def grad_counts(self, W: np.ndarray, X: np.ndarray, Y: np.ndarray | None,
                    C: np.ndarray, size: int, W_prev: np.ndarray | None = None) -> np.ndarray:
        """Batch means over counted rows on a run axis: row r is the mean,
        over a batch of `size` samples that holds row j of the support X
        (m, d) and labels Y (m,) C[r, j] times, of the gradient at W[r] or,
        given W_prev, of its variation from W_prev[r]. C is an (R, m) integer
        array whose rows sum to size. Tree Spider's roots and right children
        call it on a batch at least as large as its support. This default,
        for a loss without a counted kernel, expands each run's counts back
        to rows, in support order, and calls `grad_mean_rows` or `grad_var`
        on them one run at a time."""
        out = np.empty_like(W)
        support = np.arange(len(X))
        for r, c in enumerate(C):
            rows = np.repeat(support, c)[None]
            Xr, Yr = X.take(rows, axis=0), None if Y is None else Y.take(rows)
            out[r] = (self.grad_mean_rows(W[r:r + 1], Xr, Yr) if W_prev is None else
                      self.grad_var(W[r:r + 1], W_prev[r:r + 1], Xr, Yr))[0]
        return out

    # plumbing -----------------------------------------------------------
    def probe_sample(self, rng: np.random.Generator) -> tuple[np.ndarray, float | None]:
        """A random data point from the loss's domain, for gradient checks."""
        return rng.standard_normal(self.dim), None

    def validate_dataset(self, dataset: Dataset) -> None:
        if dataset.dim != self.dim:
            raise ValueError(f"dataset dim {dataset.dim} != loss dim {self.dim}")


class ZeroLoss(LossSpec):
    """Identically-zero loss; regularizers composed on top of it give pure
    proximal objectives, handy as a base case."""

    name = "zero"

    def __init__(self, dim: int):
        super().__init__(dim, 0.0, 0.0, F0_hint=0.0, convex=True)

    def eval(self, w, x, y=None):
        return 0.0

    def grad(self, w, x, y=None):
        return np.zeros(self.dim)

    def grad_mean(self, w, X, Y=None):
        return np.zeros(self.dim)

    def probe_sample(self, rng):
        return np.zeros(self.dim), None


def erm_grad(loss: LossSpec, w: np.ndarray, S: Dataset) -> np.ndarray:
    """Exact empirical-risk gradient (1/n) sum_i grad(w, x_i); no noise."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (S.dim,):
        raise ValueError(f"w has shape {w.shape}, expected ({S.dim},)")
    if S.n == 0:
        raise ValueError("the empirical risk of a dataset with no rows is undefined")
    loss.validate_dataset(S)
    return loss.grad_mean(w, S.X, S.y)


# ---------------------------------------------------------------------------
# Huber mean-estimation loss: quadratic inside radius B = L0/L1, linear outside.
# ---------------------------------------------------------------------------

class HuberMeanLoss(LossSpec):
    """f(w; x) = (L1/2)||w-x||^2 when ||w-x|| <= B, else L0||w-x|| - L0^2/(2 L1).

    B = L0/L1; the two branches agree in value and gradient at the seam.
    Ties at ||w-x|| = B take the quadratic branch (value-irrelevant, fixed
    for determinism). The ERM minimizer of a dataset contained in a ball of
    radius B/4 is the dataset mean.
    """

    name = "huber_mean"

    def __init__(self, L0: float, L1: float, dim: int = 2):
        if L0 <= 0 or L1 <= 0:
            raise ValueError("L0 and L1 must be positive")
        super().__init__(dim, L0, L1, F0_hint=None, convex=True)
        self.B = L0 / L1

    def eval(self, w, x, y=None):
        r = np.asarray(w, dtype=np.float64) - np.asarray(x, dtype=np.float64)
        nr = float(np.linalg.norm(r))
        if nr <= self.B:
            return 0.5 * self.L1 * nr * nr
        return self.L0 * nr - self.L0 ** 2 / (2.0 * self.L1)

    def grad(self, w, x, y=None):
        r = np.asarray(w, dtype=np.float64) - np.asarray(x, dtype=np.float64)
        nr = float(np.linalg.norm(r))
        if nr <= self.B:
            return self.L1 * r
        return (self.L0 / nr) * r

    def grad_mean(self, w, X, Y=None):
        R = w[None, :] - X
        nr = np.linalg.norm(R, axis=1)
        scale = np.where(nr <= self.B, self.L1, self.L0 / np.maximum(nr, 1e-300))
        G = R * scale[:, None]
        return G.mean(axis=0)

    def probe_sample(self, rng):
        return rng.standard_normal(self.dim) * (self.B / 4.0), None


def huber_mean_loss(L0: float, L1: float, dim: int = 2) -> HuberMeanLoss:
    return HuberMeanLoss(L0, L1, dim)


# ---------------------------------------------------------------------------
# One-dimensional Huber-regularized loss with a two-point data distribution.
# ---------------------------------------------------------------------------

class Huber1DLoss(LossSpec):
    """f(w; x) = (L0/2) w x + (L1/2) D(w) on x in {-1, +1}.

    D(w) = w^2 for |w| <= L0/(2 L1), else (L0/L1)|w| - L0^2/(4 L1^2).
    Data are drawn x = +1 with probability (1 + v p)/2 and -1 otherwise,
    so the population gradient inside the quadratic branch is
    (L0/2) v p + L1 w.
    """

    name = "huber_1d"

    def __init__(self, L0: float, L1: float, p: float, v: int):
        if L0 <= 0 or L1 <= 0:
            raise ValueError("L0 and L1 must be positive")
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if v not in (-1, 1):
            raise ValueError("v must be -1 or +1")
        super().__init__(1, L0, L1, F0_hint=L0, convex=True)
        self.p = float(p)
        self.v = int(v)
        self.radius = L0 / (2.0 * L1)

    def _D(self, w: float) -> float:
        if abs(w) <= self.radius:
            return w * w
        return (self.L0 / self.L1) * abs(w) - self.L0 ** 2 / (4.0 * self.L1 ** 2)

    def _Dprime(self, w: float) -> float:
        if abs(w) <= self.radius:
            return 2.0 * w
        return (self.L0 / self.L1) * math.copysign(1.0, w)

    def eval(self, w, x, y=None):
        ws = float(np.asarray(w).reshape(()))
        xs = float(np.asarray(x).reshape(()))
        return 0.5 * self.L0 * ws * xs + 0.5 * self.L1 * self._D(ws)

    def grad(self, w, x, y=None):
        ws = float(np.asarray(w).reshape(()))
        xs = float(np.asarray(x).reshape(()))
        return np.array([0.5 * self.L0 * xs + 0.5 * self.L1 * self._Dprime(ws)])

    def grad_mean(self, w, X, Y=None):
        ws = float(np.asarray(w).reshape(()))
        xbar = float(np.mean(X))
        return np.array([0.5 * self.L0 * xbar + 0.5 * self.L1 * self._Dprime(ws)])

    def sample(self, n: int, rng: np.random.Generator) -> Dataset:
        """Draw n points: +1 w.p. (1 + v p)/2, -1 otherwise."""
        u = rng.random(n)
        x = np.where(u < (1.0 + self.v * self.p) / 2.0, 1.0, -1.0)
        return Dataset(x[:, None])

    def population_grad(self, w) -> np.ndarray:
        """Exact gradient of the population risk at w."""
        ws = float(np.asarray(w).reshape(()))
        return np.array([0.5 * self.L0 * self.v * self.p
                         + 0.5 * self.L1 * self._Dprime(ws)])

    def probe_sample(self, rng):
        return np.array([1.0 if rng.random() < 0.5 else -1.0]), None


def huber_1d_loss(L0: float, L1: float, p: float, v: int) -> Huber1DLoss:
    return Huber1DLoss(L0, L1, p, v)


# ---------------------------------------------------------------------------
# Generalized linear models: f(w; (x, y)) = phi_y(<w, x>).
# ---------------------------------------------------------------------------

class LinkFamily:
    """A scalar link z -> phi_y(z), acting on the residual z - y (y defaults
    to 0 when the dataset carries no labels).

    `slope_into(z, y, den=None)` is phi'_y(z) computed in z's own buffer:
    the residual is taken in place and then overwritten by the slope, with
    the operations of the allocating formula in the same order (a numpy
    scalar z is simply rebound). The caller must own z and give it up. A
    link whose slope needs a second array of z's shape (the rational link's
    denominator) writes it to `den` when given one, and allocates it
    otherwise; the other links ignore `den`. Each link's is bound once, when
    the link is built, so a call is one Python frame.
    """

    def __init__(self, name: str, value, slope_into, convex: bool):
        self.name = name
        self._value = value
        self.slope_into = slope_into
        self.convex = convex

    def value(self, z: np.ndarray, y: np.ndarray | None) -> np.ndarray:
        r = z if y is None else z - y
        return self._value(r)

    def slope(self, z: np.ndarray, y: np.ndarray | None) -> np.ndarray:
        """phi'_y(z) in a residual buffer of its own; z is left as it is."""
        return self.slope_into(z.copy() if y is None else z - y, None)


def _square_slope_into(z, y, den=None):
    if y is not None:
        z -= y
    return z


def square_link() -> LinkFamily:
    """phi_y(z) = (z - y)^2 / 2; convex, 1-smooth, Lipschitz only on bounded z."""
    return LinkFamily("square", lambda r: 0.5 * r * r, _square_slope_into, convex=True)


def _logcosh(r):
    a = np.abs(r)
    return a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)


def _tanh_slope_into(z, y, den=None):
    if y is not None:
        z -= y
    return np.tanh(z, z) if z.ndim else np.tanh(z)


def tanh_link() -> LinkFamily:
    """phi_y(z) = log cosh(z - y), so phi' = tanh; convex, 1-Lipschitz, 1-smooth."""
    return LinkFamily("tanh", _logcosh, _tanh_slope_into, convex=True)


# sup |phi'| = 3*sqrt(3)/8 at r = 1/sqrt(3); sup |phi''| = 2 at r = 0.
# Both are re-verified by numeric maximization in the test suite before use.
RATIONAL_L0 = 3.0 * math.sqrt(3.0) / 8.0
RATIONAL_L1 = 2.0


def rational_link() -> LinkFamily:
    """phi_y(z) = r^2 / (1 + r^2) with r = z - y; bounded, smooth, nonconvex."""
    def value(r):
        r2 = r * r
        return r2 / (1.0 + r2)

    def slope_into(z, y, den=None):
        # 2 r / (1 + r^2)^2, operation for operation, the denominator in den
        if y is not None:
            z -= y
        d = np.multiply(z, z, out=den)
        d += 1.0
        d *= d
        z *= 2.0
        z /= d
        return z

    return LinkFamily("rational", value, slope_into, convex=False)


class VarWork:
    """`GLMLoss.grad_var`'s buffers for R runs, batches of b rows and
    dimension d: the iterate pair [w, w_prev] (R, d, 2); the product, the
    label pair and the slope's denominator (R, b, 2); the slope difference
    (R, 1, b); its product with the batch (R, 1, d) and the result (R, d).
    They are carved, in that order, from the front of `buf`, a flat float64
    array of at least `entries(R, b, d)` that the caller may share between
    the shapes it uses one at a time, or from a fresh one. Every call that
    is given them overwrites them, through the column views in `cols`, made
    once here."""

    __slots__ = ("pair", "z", "y", "den", "diff", "prod", "out", "cols")

    @staticmethod
    def entries(R: int, b: int, d: int) -> int:
        return R * (7 * b + 4 * d)

    def __init__(self, R: int, b: int, d: int, buf: np.ndarray | None = None):
        need = self.entries(R, b, d)
        if buf is None:
            buf = np.empty(need)
        elif buf.dtype != np.float64 or buf.ndim != 1 or len(buf) < need:
            raise ValueError(f"VarWork({R}, {b}, {d}) needs a flat float64 buffer "
                             f"of {need} entries")
        parts, at = [], 0
        for shape in ((R, d, 2), (R, b, 2), (R, b, 2), (R, b, 2), (R, 1, b), (R, 1, d),
                      (R, d)):
            size = math.prod(shape)
            parts.append(buf[at:at + size].reshape(shape))
            at += size
        self.pair, self.z, self.y, self.den, self.diff, self.prod, self.out = parts
        self.cols = (self.pair[:, :, 0], self.pair[:, :, 1], self.y[:, :, 0],
                     self.y[:, :, 1], self.z[:, :, 0], self.z[:, :, 1],
                     self.diff[:, 0, :], self.prod[:, 0, :])


class GLMLoss(LossSpec):
    """GLM loss with gradient phi'_y(<w, x>) x.

    Declared constants are L0 = L0_phi * normX and L1 = L1_phi * normX^2,
    valid on the domain ||x|| <= normX (enforced at dataset-bind time).
    """

    name = "glm"

    def __init__(self, link: LinkFamily, L0_phi: float, L1_phi: float,
                 normX: float, dim: int, F0_hint: float | None = None):
        if normX <= 0:
            raise ValueError("normX must be positive")
        super().__init__(dim, L0_phi * normX, L1_phi * normX ** 2,
                         F0_hint=F0_hint, convex=link.convex)
        self.link = link
        self.L0_phi = float(L0_phi)
        self.L1_phi = float(L1_phi)
        self.normX = float(normX)

    def eval(self, w, x, y=None):
        z = float(np.dot(w, x))
        return float(self.link.value(np.float64(z), None if y is None else np.float64(y)))

    def grad(self, w, x, y=None):
        """phi'_y(<w, x>) x for one sample; for w and x of shape (R, d), and
        y of shape (R,) or None, row-wise with one sample per run."""
        if isinstance(w, np.ndarray) and w.ndim == 2:
            s = self.link.slope_into(np.vecdot(w, x), y)
            return s[:, None] * x
        z = float(np.dot(w, x))
        s = float(self.link.slope_into(np.float64(z), None if y is None else np.float64(y)))
        return s * np.asarray(x, dtype=np.float64)

    def grad_rows(self, W, X, Y=None):
        return self.grad(W, X, Y)

    def grad_mean(self, w, X, Y=None):
        s = self.link.slope_into(X @ w, Y)
        return (X.T @ s) / X.shape[0]

    def grad_mean_rows(self, W, X, Y=None):
        # one batched X @ w and one slope^T @ X over the runs
        s = self.link.slope_into((X @ W[:, :, None])[:, :, 0], Y)
        return (s[:, None, :] @ X)[:, 0, :] / X.shape[1]

    def grad_var(self, W, W_prev, X, Y=None, work=None):
        # one batched X @ [w, w_prev], one slope call, one X^T @ slope
        # difference, each written into a buffer of `work`
        if work is None:
            work = VarWork(*X.shape)
        w, w_prev, y0, y1, s, s_prev, diff, prod = work.cols
        w[...], w_prev[...] = W, W_prev
        np.matmul(X, work.pair, out=work.z)
        if Y is not None:
            y0[...], y1[...] = Y, Y
        # the slope overwrites work.z, which s and s_prev view
        self.link.slope_into(work.z, None if Y is None else work.y, work.den)
        np.subtract(s, s_prev, out=diff)
        np.matmul(work.diff, X, out=work.prod)
        return np.divide(prod, X.shape[1], out=work.out)

    def grad_counts(self, W, X, Y, C, size, W_prev=None):
        # sum_j C[r, j] (s_j - s'_j) x_j / size: one X @ [w, w_prev] and one
        # slope difference times X per run, on a run axis with X broadcast,
        # so each BLAS call has a lone run's shape (a 2-D product over the
        # runs could round differently with their number)
        P = W[:, :, None] if W_prev is None else np.stack((W, W_prev), axis=2)
        s = self.link.slope_into(np.matmul(X, P), None if Y is None else Y[:, None])
        s = s[:, :, 0] if W_prev is None else np.subtract(s[:, :, 0], s[:, :, 1])
        s *= C
        return (s[:, None, :] @ X)[:, 0, :] / size

    def probe_sample(self, rng):
        z = rng.standard_normal(self.dim)
        x = 0.9 * self.normX * z / max(np.linalg.norm(z), 1e-12)
        return x, float(rng.standard_normal() * 0.5)

    def validate_dataset(self, dataset: Dataset) -> None:
        """Reject a dataset with a row norm above normX. The dataset's
        `feature_norm_bound()` is read first (for a sample indexed into a
        support, the support's maximum); the exact `max_feature_norm()` is
        computed only when that bound is above normX, and decides and names
        the failure."""
        super().validate_dataset(dataset)
        limit = self.normX * (1.0 + 1e-12)
        if dataset.feature_norm_bound() > limit:
            worst = dataset.max_feature_norm()
            if worst > limit:
                raise ValueError(f"feature norm {worst} exceeds declared bound {self.normX}")


def glm_loss(link: LinkFamily, L0_phi: float, L1_phi: float, normX: float,
             dim: int, F0_hint: float | None = None) -> GLMLoss:
    return GLMLoss(link, L0_phi, L1_phi, normX, dim, F0_hint)


def synthetic_nonconvex_loss(d: int, normX: float = 1.0) -> GLMLoss:
    """Benchmark fixture: the bounded rational link composed with <w, x>.

    phi takes values in [0, 1), so F(0) - min F < 1 and F0_hint = 1 is a
    valid gap bound for any dataset. With unlabeled data the origin is a
    stationary point (phi'(0) = 0); labels shift the link argument and move
    the minimizer away from the origin.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    loss = GLMLoss(rational_link(), RATIONAL_L0, RATIONAL_L1, normX, d, F0_hint=1.0)
    loss.name = "synthetic_nonconvex"
    return loss
