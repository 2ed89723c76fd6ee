"""Shared domain types and simplex utilities.

Numerical code in this package passes plain float64 ``numpy`` arrays
around; the dataclasses below are validating containers used at module
boundaries (file ingestion, pipeline plumbing, tests). All containers are
frozen and their arrays are marked read-only, so instances can be shared
freely across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import EmptyInput, LengthMismatch, NonFinite, OutOfRange, ShapeMismatch, ZeroRowSum

#: Sentinel for "no label known" entries in a label vector. Never a valid
#: class index (class indices are always >= 0).
UNLABELED = -1


def _frozen_array(values, dtype=np.float64, ndim=None):
    arr = np.array(values, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"expected {ndim}-d array, got {arr.ndim}-d")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FeatureSet:
    """An ``n x d`` matrix of per-sample embeddings plus opaque string ids."""

    data: np.ndarray
    ids: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen_array(self.data, ndim=2))
        object.__setattr__(self, "ids", tuple(str(i) for i in self.ids))
        n, d = self.data.shape
        if n < 1 or d < 1:
            raise EmptyInput("feature matrix must be at least 1 x 1")
        if len(self.ids) != n:
            raise LengthMismatch(f"{len(self.ids)} ids for {n} feature rows")
        if len(set(self.ids)) != n:
            raise ValueError("sample ids must be unique")
        if not np.all(np.isfinite(self.data)):
            raise NonFinite("feature matrix contains non-finite entries")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class LabelSet:
    """Per-sample class indices in ``[0, num_classes)`` or UNLABELED."""

    num_classes: int
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", _frozen_array(self.labels, dtype=np.int64, ndim=1))
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        bad = (self.labels != UNLABELED) & ((self.labels < 0) | (self.labels >= self.num_classes))
        if np.any(bad):
            raise OutOfRange(f"label out of range at index {int(np.flatnonzero(bad)[0])}")

    def labeled_mask(self) -> np.ndarray:
        return self.labels != UNLABELED

    def labeled_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels != UNLABELED)


@dataclass(frozen=True)
class AnchorSet:
    """Samples whose assignment rows stay pinned to their known one-hot label."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        entries = tuple((int(i), int(c)) for i, c in self.entries)
        object.__setattr__(self, "entries", entries)
        indices = [i for i, _ in entries]
        if len(set(indices)) != len(indices):
            raise ValueError("anchor indices must be unique")
        if any(i < 0 for i in indices) or any(c < 0 for _, c in entries):
            raise OutOfRange("anchor indices and classes must be non-negative")

    def __len__(self) -> int:
        return len(self.entries)

    def indices(self) -> np.ndarray:
        return np.array([i for i, _ in self.entries], dtype=np.int64)

    def classes(self) -> np.ndarray:
        return np.array([c for _, c in self.entries], dtype=np.int64)

    def validate_against(self, n: int, m: int) -> None:
        for i, c in self.entries:
            if i >= n:
                raise OutOfRange(f"anchor index {i} out of range for n={n}")
            if c >= m:
                raise OutOfRange(f"anchor class {c} out of range for m={m}")


@dataclass(frozen=True)
class AssignmentMatrix:
    """A row-stochastic ``n x m`` matrix of per-sample label probabilities."""

    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _frozen_array(self.x, ndim=2))
        if not np.all(np.isfinite(self.x)):
            raise NonFinite("assignment matrix contains non-finite entries")
        if np.any(self.x < -1e-12) or np.any(self.x > 1 + 1e-12):
            raise ValueError("assignment entries must lie in [0, 1]")
        sums = self.x.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-9):
            raise ValueError("assignment rows must sum to 1 within 1e-9")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def num_classes(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class SimilarityMatrix:
    """Square pairwise-weight matrix with a zero diagonal.

    Entries may be negative straight out of a correlation measure; the
    propagation engines require the non-negative form produced by the
    negative-handling step (check with ``nonnegative()``).
    """

    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", _frozen_array(self.w, ndim=2))
        n = self.w.shape[0]
        if self.w.shape != (n, n):
            raise ValueError("similarity matrix must be square")
        if not np.all(np.isfinite(self.w)):
            raise NonFinite("similarity matrix contains non-finite entries")
        if np.any(np.diag(self.w) != 0):
            raise ValueError("similarity diagonal must be zero")

    @property
    def n(self) -> int:
        return self.w.shape[0]

    def nonnegative(self) -> bool:
        return bool(self.w.min() >= 0)


@dataclass(frozen=True)
class EvaluationReport:
    """Metric values plus run metadata; every metric must be finite."""

    metrics: dict
    config_echo: dict
    iterations_used: int
    converged: bool
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, value in self.metrics.items():
            if not math.isfinite(value):
                raise NonFinite(f"metric {name!r} is not finite: {value!r}")

    def to_dict(self) -> dict:
        payload = {
            "metrics": dict(self.metrics),
            "config": dict(self.config_echo),
            "iterations_used": self.iterations_used,
            "converged": self.converged,
        }
        payload.update(self.extra)
        return payload


def row_normalize(raw) -> np.ndarray:
    """Divide each row of a non-negative matrix by its sum.

    Raises ZeroRowSum for the first row whose sum is not strictly
    positive; such a row signals degenerate support upstream.
    """
    raw = np.asarray(raw, dtype=np.float64)
    sums = raw.sum(axis=1)
    bad = np.flatnonzero(sums <= 0)
    if bad.size:
        raise ZeroRowSum(int(bad[0]))
    return raw / sums[:, None]


def one_hot(cls: int, m: int) -> np.ndarray:
    """Simplex vertex: 1 at position ``cls``, 0 elsewhere."""
    if not 0 <= cls < m:
        raise OutOfRange(f"class {cls} out of range for m={m}")
    row = np.zeros(m, dtype=np.float64)
    row[cls] = 1.0
    return row


def argmax_decode(x) -> np.ndarray:
    """Per-row index of the maximum entry; ties go to the lowest index."""
    x = np.asarray(x, dtype=np.float64)
    return np.argmax(x, axis=1).astype(np.int64)


def check_graph(w, rows: int, what: str):
    """A similarity graph as every propagator takes it.

    Dense input becomes a float64 array; scipy sparse input (the k-NN
    graph) becomes a float64 CSR array. Raises ShapeMismatch unless the
    graph is square with one vertex per row of ``what``, whose length is
    ``rows``.
    """
    w = sparse.csr_array(w, dtype=np.float64) if sparse.issparse(w) else np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ShapeMismatch("similarity matrix must be square")
    if rows != w.shape[0]:
        raise ShapeMismatch(f"{what} has {rows} rows but the similarity graph has {w.shape[0]} vertices")
    return w
