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


class Dataset:
    """An ordered collection of samples, immutable after construction.

    Holds a feature matrix ``X`` of shape (n, d) and an optional label
    vector ``y`` of shape (n,). Slicing by index range is deterministic;
    streaming consumption is modelled by :class:`DatasetCursor`, never by
    mutation.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray | None = None):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        self.X = _freeze(X)
        if y is not None:
            y = np.asarray(y, dtype=np.float64).reshape(-1)
            if y.shape[0] != X.shape[0]:
                raise ValueError(f"label count {y.shape[0]} != sample count {X.shape[0]}")
            y = _freeze(y)
        self.y = y
        self._max_feature_norm: float | None = None

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def __len__(self) -> int:
        return self.n

    def slice(self, start: int, stop: int) -> "Dataset":
        if not (0 <= start <= stop <= self.n):
            raise ValueError(f"bad slice [{start}:{stop}] for n={self.n}")
        y = self.y[start:stop] if self.y is not None else None
        return Dataset(self.X[start:stop], y)

    def subset(self, idx: np.ndarray) -> "Dataset":
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

    def max_feature_norm(self) -> float:
        """Largest row norm of X. Computed on first call and cached: X is
        frozen, and every derived dataset is a new instance with its own cache."""
        if self._max_feature_norm is None:
            self._max_feature_norm = (float(np.max(np.linalg.norm(self.X, axis=1)))
                                      if self.n else 0.0)
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
