"""Immutable datasets, deterministic slicing, and single-pass cursors."""
from __future__ import annotations

from collections.abc import Callable, Iterable

import numpy as np


class StreamExhausted(RuntimeError):
    """Raised when a cursor is asked for more samples than remain."""


def _freeze(a: np.ndarray) -> np.ndarray:
    # setflags on a view leaves its base writeable: copy a view whose base is
    a = np.ascontiguousarray(a, dtype=np.float64)
    if _writeable_base(a):
        a = a.copy()
    a.setflags(write=False)
    return a


def _writeable_base(a: np.ndarray) -> bool:
    base = a.base
    while isinstance(base, np.ndarray):
        if base.flags.writeable:
            return True
        base = base.base
    if base is None:
        return False
    try:  # a buffer such as a bytearray or an mmap
        return not memoryview(base).readonly
    except TypeError:
        return True


# entries per row block when taking row norms: the squares temporary of a
# block stays near 512 KB instead of growing with n x d
_NORM_BLOCK_ENTRIES = 2 ** 16

# indices per block when an index vector is read in blocks: numpy turns a
# compact index vector into an intp temporary of its whole length
_INDEX_BLOCK = 2 ** 16


def _check_rows(idx: np.ndarray, n: int) -> None:
    if idx.size and not (0 <= idx.min() and idx.max() < n):
        raise ValueError(f"row index out of range for n={n}")


def row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of X, taken in row blocks.

    Each row's norm is what `np.linalg.norm(X, axis=1)` gives, bit for bit
    (it reduces every row on its own), without that call's n x d temporary.
    """
    out = np.empty(X.shape[0])
    step = max(1, _NORM_BLOCK_ENTRIES // max(X.shape[1], 1))
    for i in range(0, X.shape[0], step):
        out[i:i + step] = np.linalg.norm(X[i:i + step], axis=1)
    return out


class Dataset:
    """An ordered collection of samples, immutable after construction.

    Holds a feature matrix ``X`` of shape (n, d) and an optional label
    vector ``y`` of shape (n,). Slicing by index range is deterministic;
    streaming consumption is modelled by :class:`DatasetCursor`, never by
    mutation.

    A dataset made by :meth:`indexed` holds rows of another dataset as an
    index vector instead, checked against the source once: its slices are
    views of that vector, its subsets are checked again, ``X`` and ``y``
    are gathered on first use, and ``max_feature_norm`` reads the source's
    row norms. ``feature_norm_bound`` is the source's own maximum, which
    reads no index vector, so a loss's dataset check reads that bound first.
    One made by :meth:`drawn` draws its index vector as it is read: every
    read (:meth:`indices`, and through it slices, subsets, ``X``, ``y`` and
    ``max_feature_norm``) first draws up to the furthest sample it asks for.

    ``X`` and ``y`` are read-only. An array that owns its memory is frozen
    in place and not copied; a view is copied when its base can still be
    written, so a later write to the caller's buffer cannot reach the data
    (or void the cached norm bound). A caller that sets an owner writeable
    again with ``setflags`` is not guarded against.
    """

    __slots__ = ("_X", "_y", "_n", "_source", "_idx", "_draw", "_max_feature_norm",
                 "_row_norms")

    def __init__(self, X: np.ndarray, y: np.ndarray | None = None):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if y is not None:
            y = np.asarray(y, dtype=np.float64)
            if y.ndim != 1:  # reshape makes a view even of a 1-D owner
                y = y.reshape(-1)
            if y.shape[0] != X.shape[0]:
                raise ValueError(f"label count {y.shape[0]} != sample count {X.shape[0]}")
            y = _freeze(y)
        self._X, self._y = _freeze(X), y
        self._n = X.shape[0]
        self._source: Dataset | None = None
        self._idx: np.ndarray | None = None
        self._draw: Callable[[int], np.ndarray] | None = None
        self._max_feature_norm: float | None = None
        self._row_norms: np.ndarray | None = None

    @classmethod
    def indexed(cls, source: "Dataset", idx: np.ndarray) -> "Dataset":
        """Rows idx of source (with repeats), held as the index vector. An
        integer idx keeps its dtype (a compact sample stays uint8), anything
        else becomes int64. A writeable idx is copied, so the vector checked
        here cannot change. Of an indexed source, only the samples up to
        the largest of a non-negative integer idx are read."""
        if source._source is not None:
            at = np.asarray(idx)
            stop = source.n
            if not at.size:
                stop = 0
            elif at.dtype.kind in "iu" and at.min() >= 0:
                stop = min(int(at.max()) + 1, stop)
            source, idx = source._source, source.indices(0, stop)[idx]
        idx = np.asarray(idx)
        if idx.dtype.kind not in "iu":
            idx = idx.astype(np.int64)
        idx = idx.reshape(-1)
        if idx.flags.writeable:
            idx = idx.copy()
        _check_rows(idx, source.n)
        idx.setflags(write=False)
        return cls._view(source, idx)

    @classmethod
    def drawn(cls, source: "Dataset", n: int, draw: Callable[[int], np.ndarray]) -> "Dataset":
        """n rows of a plain source, held as an index vector drawn as it is
        read: `draw(k)` gives the vector's next k entries, each piece
        checked against the source, and the empty piece `draw(0)` sets the
        vector's dtype. The dataset owns `draw` and whatever generator it
        draws from, and lets go of it once all n are drawn. Only the drawn
        prefix is held, so a reader that skips :meth:`indices` gets a short
        vector, not unset memory."""
        idx = draw(0)
        idx.setflags(write=False)
        ds = cls._view(source, idx)
        ds._n, ds._draw = n, (draw if n else None)
        return ds

    @classmethod
    def _view(cls, source: "Dataset", idx: np.ndarray) -> "Dataset":
        # rows idx of a plain source, for an index vector already checked
        # against source.n and frozen (a slice of one stays both)
        ds = cls.__new__(cls)
        ds._X = ds._y = ds._draw = None
        ds._n, ds._source, ds._idx = idx.shape[0], source, idx
        ds._max_feature_norm = ds._row_norms = None
        return ds

    def indices(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """The source rows of samples start to stop (all by default) of an
        indexed dataset: a read-only view of its index vector. A dataset
        made by `drawn` first draws the entries up to stop that it has not
        drawn yet."""
        stop = self.n if stop is None else stop
        if self._source is None:
            raise ValueError("a plain dataset holds no index vector")
        if not 0 <= start <= stop <= self.n:
            raise ValueError(f"bad index range [{start}:{stop}] for n={self.n}")
        held = self._idx.shape[0]
        if stop > held:
            new = self._draw(stop - held)
            _check_rows(new, self._source.n)
            self._idx = new if not held else np.concatenate((self._idx, new))
            self._idx.setflags(write=False)
            if stop == self.n:
                self._draw = None
        return self._idx[start:stop]

    @property
    def X(self) -> np.ndarray:
        # take gives a fresh contiguous copy, frozen in place
        if self._X is None:
            self._X = self._source.X.take(self.indices(), axis=0)
            self._X.setflags(write=False)
        return self._X

    @property
    def y(self) -> np.ndarray | None:
        if self._y is None and self._source is not None and self._source.y is not None:
            self._y = self._source.y.take(self.indices())
            self._y.setflags(write=False)
        return self._y

    @property
    def labelled(self) -> bool:
        """Whether samples carry labels, without gathering an indexed y."""
        return (self if self._source is None else self._source)._y is not None

    @property
    def n(self) -> int:
        return self._n

    @property
    def dim(self) -> int:
        return self._X.shape[1] if self._source is None else self._source.dim

    def __len__(self) -> int:
        return self.n

    def slice(self, start: int, stop: int) -> "Dataset":
        if not (0 <= start <= stop <= self.n):
            raise ValueError(f"bad slice [{start}:{stop}] for n={self.n}")
        if self._source is not None:
            return Dataset._view(self._source, self.indices(start, stop))
        y = self.y[start:stop] if self.y is not None else None
        return Dataset(self.X[start:stop], y)

    def subset(self, idx: np.ndarray) -> "Dataset":
        if self._source is not None:
            return Dataset.indexed(self, idx)
        y = self.y[idx] if self.y is not None else None
        return Dataset(self.X[idx], y)

    def replace_sample(self, i: int, x: np.ndarray, y: float | None = None) -> "Dataset":
        """A copy with sample i swapped out (neighboring-dataset construction)."""
        X = self.X.copy()
        X[i] = np.asarray(x, dtype=np.float64)
        ys = None
        if self.y is not None:
            ys = self.y.copy()
            if y is not None:
                ys[i] = y
        return Dataset(X, ys)

    def _norms(self) -> np.ndarray:
        # the row norms, kept for this dataset and the indexed ones into it
        if self._row_norms is None:
            self._row_norms = row_norms(self.X)
        return self._row_norms

    def max_feature_norm(self) -> float:
        """Largest row norm of X. Computed on first call and cached: X is
        frozen, and every derived dataset is a new instance with its own
        cache. An indexed dataset reads its source's row norms at the
        source rows it holds, marked in blocks of its index vector, so no
        n-length temporary is made."""
        if self._max_feature_norm is None:
            if self._source is None:
                norms = self._norms()
            else:
                idx = self.indices()
                held = np.zeros(self._source.n, dtype=bool)
                for i in range(0, self.n, _INDEX_BLOCK):
                    held[idx[i:i + _INDEX_BLOCK]] = True
                norms = self._source._norms()[held]
            self._max_feature_norm = float(np.max(norms)) if self.n else 0.0
        return self._max_feature_norm

    def feature_norm_bound(self) -> float:
        """An upper bound on ``max_feature_norm()`` that reads no index
        vector: an indexed dataset's source's largest row norm (cached on
        the source, so every sample of one support shares it), and a plain
        dataset's own."""
        return (self if self._source is None else self._source).max_feature_norm()


class DatasetCursor:
    """Consumes a dataset front to back, yielding each sample exactly once."""

    __slots__ = ("_dataset", "_pos")

    def __init__(self, dataset: Dataset, start: int = 0):
        self._dataset = dataset
        self._pos = start

    @property
    def dataset(self) -> Dataset:
        return self._dataset

    @property
    def consumed(self) -> int:
        return self._pos

    @property
    def remaining(self) -> int:
        return self._dataset.n - self._pos

    def take(self, k: int) -> Dataset:
        if k < 0:
            raise ValueError("k must be non-negative")
        pos = self._pos
        left = self._dataset.n - pos
        if k > left:
            raise StreamExhausted(f"requested {k} samples, {left} remain")
        out = self._dataset.slice(pos, pos + k)
        self._pos = pos + k
        return out


class Runs(tuple):
    """The datasets of R runs in lockstep, one per run, of equal size.

    A packed group (see :meth:`pack`) holds its runs' rows in one read-only
    block, and each run's dataset is a view of its slot in it.
    """

    _block: tuple[np.ndarray, np.ndarray | None] | None = None

    @classmethod
    def pack(cls, R: int, datasets: Iterable[Dataset]) -> "Runs":
        """R datasets of equal n, d and labelling, copied one at a time
        (`datasets` may generate them lazily) into slots of one (R, n, d)
        block and (R, n) labels, which are frozen before the views are
        taken."""
        if R < 1:
            raise ValueError("pack needs R >= 1")
        X = Y = None
        count = 0
        for S in datasets:
            if X is None:
                n, d = S.n, S.dim
                X = np.empty((R, n, d))
                Y = np.empty((R, n)) if S.labelled else None
            if count == R or (S.n, S.dim, S.labelled) != (n, d, Y is not None):
                raise ValueError(f"pack needs {R} datasets that share n, d and labelling")
            X[count] = S.X
            if Y is not None:
                Y[count] = S.y
            count += 1
        if count != R:
            raise ValueError(f"pack needs {R} datasets, got {count}")
        X.setflags(write=False)
        if Y is not None:
            Y.setflags(write=False)
        runs = cls(Dataset(X[r], None if Y is None else Y[r]) for r in range(R))
        runs._block = (X, Y)
        return runs

    @property
    def n(self) -> int:
        return self[0].n

    def slice(self, start: int, stop: int) -> "Runs":
        return Runs(S.slice(start, stop) for S in self)

    def indices(self, starts: Iterable[int], length: int) -> tuple[Dataset, np.ndarray] | None:
        """(source, idx) when every run indexes one plain source: row i of
        the (R, length) block idx holds the source rows of run i's samples
        starts[i] to starts[i] + length. None for any other group."""
        src = self[0]._source
        if src is None or any(S._source is not src for S in self):
            return None
        return src, np.stack([S.indices(p, p + length) for S, p in zip(self, starts)])

    def stack(self, axis: int) -> tuple[np.ndarray, np.ndarray | None]:
        """Every run's features and labels, stacked on `axis` (0 or 1). A
        packed group gives its block itself on axis 0; runs indexed into one
        source are gathered from it in one `take`; any other group is
        stacked into fresh arrays."""
        if axis == 0 and self._block is not None:
            return self._block
        held = self.indices([0] * len(self), self.n)
        if held is None:
            labelled = self[0].y is not None
            return (np.stack([S.X for S in self], axis=axis),
                    np.stack([S.y for S in self], axis=axis) if labelled else None)
        src, idx = held
        if axis:
            idx = idx.T
        return (src.X.take(idx, axis=0),
                None if src.y is None else src.y.take(idx))


def lockstep(S, rng, ledger=None):
    """(datasets, generators, ledgers, single) for one run, or for R runs
    given a generator per run, a dataset per run (or one shared) and,
    unless ledger is None, a ledger per run. The datasets must share n, d
    and labelling."""
    single = isinstance(rng, np.random.Generator)
    rngs = [rng] if single else list(rng)
    data = (S if isinstance(S, Runs) else
            Runs([S] * len(rngs) if isinstance(S, Dataset) else S))
    if len(data) != len(rngs) or not rngs:
        raise ValueError(f"need one dataset per generator: {len(data)} for {len(rngs)}")
    if any((D.n, D.dim, D.labelled) != (data[0].n, data[0].dim, data[0].labelled)
           for D in data):
        raise ValueError("lockstep datasets must share n, d and labelling")
    ledgers = None if ledger is None else [ledger] if single else list(ledger)
    return data, rngs, ledgers, single
