"""Immutable datasets, deterministic slicing, and single-pass cursors."""
from __future__ import annotations

from pathlib import Path

import numpy as np


class StreamExhausted(RuntimeError):
    """Raised when a cursor is asked for more samples than remain."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


# entries per row block when taking row norms: the squares temporary of a
# block stays near 512 KB instead of growing with n x d
_NORM_BLOCK_ENTRIES = 2 ** 16


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
    index vector instead: its slices and subsets stay index vectors, ``X``
    and ``y`` are gathered on first use, and ``max_feature_norm`` reads the
    source's row norms.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray | None = None):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if y is not None:
            y = np.asarray(y, dtype=np.float64).reshape(-1)
            if y.shape[0] != X.shape[0]:
                raise ValueError(f"label count {y.shape[0]} != sample count {X.shape[0]}")
            y = _freeze(y)
        self._X, self._y = _freeze(X), y
        self._source: Dataset | None = None
        self._idx: np.ndarray | None = None
        self._max_feature_norm: float | None = None
        self._row_norms: np.ndarray | None = None

    @classmethod
    def indexed(cls, source: "Dataset", idx: np.ndarray) -> "Dataset":
        """Rows idx of source (with repeats), held as the index vector."""
        if source._idx is not None:
            source, idx = source._source, source._idx[idx]
        idx = np.asarray(idx, dtype=np.int64).reshape(-1)
        if idx.size and not (0 <= idx.min() and idx.max() < source.n):
            raise ValueError(f"row index out of range for n={source.n}")
        idx.setflags(write=False)
        ds = cls.__new__(cls)
        ds._X = ds._y = None
        ds._source, ds._idx = source, idx
        ds._max_feature_norm = ds._row_norms = None
        return ds

    @property
    def X(self) -> np.ndarray:
        if self._X is None:
            self._X = _freeze(self._source.X.take(self._idx, axis=0))
        return self._X

    @property
    def y(self) -> np.ndarray | None:
        if self._y is None and self._idx is not None and self._source.y is not None:
            self._y = _freeze(self._source.y.take(self._idx))
        return self._y

    @property
    def labelled(self) -> bool:
        """Whether samples carry labels, without gathering an indexed y."""
        return (self if self._source is None else self._source)._y is not None

    @property
    def n(self) -> int:
        return self._X.shape[0] if self._idx is None else self._idx.shape[0]

    @property
    def dim(self) -> int:
        return self._X.shape[1] if self._idx is None else self._source.dim

    def __len__(self) -> int:
        return self.n

    def slice(self, start: int, stop: int) -> "Dataset":
        if not (0 <= start <= stop <= self.n):
            raise ValueError(f"bad slice [{start}:{stop}] for n={self.n}")
        if self._idx is not None:
            return Dataset.indexed(self._source, self._idx[start:stop])
        y = self.y[start:stop] if self.y is not None else None
        return Dataset(self.X[start:stop], y)

    def subset(self, idx: np.ndarray) -> "Dataset":
        if self._idx is not None:
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
        cache. An indexed dataset reads its source's row norms at its rows."""
        if self._max_feature_norm is None:
            norms = (self._norms() if self._idx is None
                     else self._source._norms().take(self._idx))
            self._max_feature_norm = float(np.max(norms)) if self.n else 0.0
        return self._max_feature_norm


class DatasetCursor:
    """Consumes a dataset front to back, yielding each sample exactly once."""

    def __init__(self, dataset: Dataset, start: int = 0):
        self._dataset = dataset
        self._pos = start

    @property
    def consumed(self) -> int:
        return self._pos

    @property
    def remaining(self) -> int:
        return self._dataset.n - self._pos

    def take(self, k: int) -> Dataset:
        if k < 0:
            raise ValueError("k must be non-negative")
        if k > self.remaining:
            raise StreamExhausted(f"requested {k} samples, {self.remaining} remain")
        out = self._dataset.slice(self._pos, self._pos + k)
        self._pos += k
        return out


class Runs(tuple):
    """The datasets of R runs in lockstep, one per run, of equal size."""

    @property
    def n(self) -> int:
        return self[0].n

    def slice(self, start: int, stop: int) -> "Runs":
        return Runs(S.slice(start, stop) for S in self)

    def stack(self, axis: int) -> tuple[np.ndarray, np.ndarray | None]:
        """Every run's features and labels, stacked on `axis`."""
        labelled = self[0].y is not None
        return (np.stack([S.X for S in self], axis=axis),
                np.stack([S.y for S in self], axis=axis) if labelled else None)


def lockstep(S, rng, ledger=None):
    """(datasets, generators, ledgers, single) for one run, or for R runs
    given a generator per run, a dataset per run (or one shared) and,
    unless ledger is None, a ledger per run. The datasets must share n, d
    and labelling."""
    single = isinstance(rng, np.random.Generator)
    rngs = [rng] if single else list(rng)
    data = Runs([S] * len(rngs) if isinstance(S, Dataset) else S)
    if len(data) != len(rngs) or not rngs:
        raise ValueError(f"need one dataset per generator: {len(data)} for {len(rngs)}")
    if any((D.n, D.dim, D.labelled) != (data[0].n, data[0].dim, data[0].labelled)
           for D in data):
        raise ValueError("lockstep datasets must share n, d and labelling")
    ledgers = None if ledger is None else [ledger] if single else list(ledger)
    return data, rngs, ledgers, single


def load_csv(path: str | Path, labels: bool = False) -> Dataset:
    """Load a dataset from CSV: one sample per row, features then an optional
    trailing label column; an optional header line is skipped."""
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                rows.append([float(p) for p in parts])
            except ValueError:
                if lineno == 0:
                    continue  # header line
                raise
    if not rows:
        raise ValueError(f"no data rows in {path}")
    arr = np.asarray(rows, dtype=np.float64)
    if labels:
        if arr.shape[1] < 2:
            raise ValueError("labels requested but only one column present")
        return Dataset(arr[:, :-1], arr[:, -1])
    return Dataset(arr)


def save_csv(dataset: Dataset, path: str | Path, header: bool = False) -> None:
    """Write a dataset as CSV with round-trip decimal formatting."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            cols = [f"x{i}" for i in range(dataset.dim)]
            if dataset.y is not None:
                cols.append("y")
            fh.write(",".join(cols) + "\n")
        for i in range(dataset.n):
            vals = [repr(float(v)) for v in dataset.X[i]]
            if dataset.y is not None:
                vals.append(repr(float(dataset.y[i])))
            fh.write(",".join(vals) + "\n")
