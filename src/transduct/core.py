"""Shared domain types and simplex utilities.

Numerical code in this package passes plain float64 ``numpy`` arrays
around; the dataclasses below are validating containers used at module
boundaries (file loading, pipeline plumbing). All containers are
frozen and their arrays are marked read-only, so instances can be shared
freely across threads.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DuplicateId, EmptyInput, LengthMismatch, NonFinite, OutOfRange, ShapeMismatch

#: Sentinel for "no label known" entries in a label vector. Never a valid
#: class index (class indices are always >= 0).
UNLABELED = -1


def _frozen_array(values, dtype=np.float64, ndim=None):
    arr = np.array(values, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ShapeMismatch(f"expected {ndim}-d array, got {arr.ndim}-d")
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
            raise DuplicateId("sample ids must be unique")
        if not np.all(np.isfinite(self.data)):
            raise NonFinite("feature matrix contains non-finite entries")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


def feature_data(features) -> np.ndarray:
    """The ``n x d`` matrix of a FeatureSet, or a bare array as float64."""
    if isinstance(features, FeatureSet):
        return features.data
    return np.asarray(features, dtype=np.float64)


def squared_norms(data) -> np.ndarray:
    """Each row's squared Euclidean norm, for the Euclidean metrics.

    Raises NonFinite unless 8 n times the largest one is finite: a squared
    distance between two rows, or to a mean of rows, is at most 4 times
    the larger squared norm, k-means sums n of them, and the factor 2
    leaves room for rounding. So no distance or sum of them overflows.
    """
    with np.errstate(over="ignore"):
        sq = np.sum(data**2, axis=1)
        fits = 8.0 * data.shape[0] * sq < np.finfo(np.float64).max
    if not fits.all():
        raise NonFinite("feature values too large: squared distances overflow float64")
    return sq


@dataclass(frozen=True)
class LabelSet:
    """Per-sample class indices in ``[0, num_classes)`` or UNLABELED."""

    num_classes: int
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", _frozen_array(self.labels, dtype=np.int64, ndim=1))
        if self.num_classes < 1:
            raise OutOfRange("num_classes must be >= 1")
        bad = (self.labels != UNLABELED) & ((self.labels < 0) | (self.labels >= self.num_classes))
        if np.any(bad):
            raise OutOfRange(f"label out of range at index {int(np.flatnonzero(bad)[0])}")

    def labeled_mask(self) -> np.ndarray:
        return self.labels != UNLABELED

    def labeled_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels != UNLABELED)


def normalize_rows(raw) -> tuple[np.ndarray, np.ndarray]:
    """Divide each row of a non-negative matrix by its sum.

    Returns the normalized matrix and the indices of the rows whose sum is
    not positive. Those rows cannot be normalized and are returned
    unchanged; each caller chooses its own fallback.
    """
    raw = np.asarray(raw, dtype=np.float64)
    sums = raw.sum(axis=1)
    positive = sums > 0
    return raw / np.where(positive, sums, 1.0)[:, None], np.flatnonzero(~positive)


def argmax_decode(x) -> np.ndarray:
    """Per-row index of the maximum entry; ties go to the lowest index."""
    x = np.asarray(x, dtype=np.float64)
    return np.argmax(x, axis=1).astype(np.int64)


def is_sparse(w) -> bool:
    """Whether ``w`` is a scipy sparse matrix or array.

    No such object can exist unless ``scipy.sparse`` has been imported, so
    the check reads the module table instead of importing scipy: a dense
    run never pays for loading it.
    """
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(w)


def check_graph(w, rows: int, what: str):
    """A similarity graph as every propagator takes it.

    Dense input becomes a float64 array; scipy sparse input (the k-NN
    graph) becomes a float64 CSR array. Raises ShapeMismatch unless the
    graph is square with one vertex per row of ``what``, whose length is
    ``rows``, NonFinite for a NaN or infinite weight, and DataError for a
    negative weight: the replicator step's ascent (Baum-Eagon) and both
    random-walk baselines need W >= 0.
    """
    if is_sparse(w):
        from scipy import sparse

        w = sparse.csr_array(w, dtype=np.float64)
    else:
        w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ShapeMismatch("similarity matrix must be square")
    if rows != w.shape[0]:
        raise ShapeMismatch(f"{what} has {rows} rows but the similarity graph has {w.shape[0]} vertices")
    # a CSR minimum counts its implicit zeros; an empty graph has no minimum;
    # min and max propagate NaN, so no n x n finiteness mask is needed
    if w.shape[0]:
        low, high = w.min(), w.max()
        if not (math.isfinite(low) and math.isfinite(high)):
            raise NonFinite("similarity weights must be finite")
        if low < 0:
            raise DataError("similarity weights must be non-negative")
    return w


def unreached(w, labels: LabelSet) -> np.ndarray:
    """Indices of the vertices with no path to a labeled vertex along edges
    in either direction. Breadth-first: with ``v`` the 0/1 frontier, a
    vertex is found where ``w @ v`` or ``v @ w`` is positive, which is
    exact for a finite W >= 0 (``check_graph``): a sum of non-negative
    terms is 0 only when every term is."""
    reached = labels.labeled_mask()
    frontier = reached
    while frontier.any() and not reached.all():
        v = frontier.astype(np.float64)
        frontier = ((w @ v > 0) | (v @ w > 0)) & ~reached
        reached |= frontier
    return np.flatnonzero(~reached)


def check_settings(max_iterations=None, tolerance=None, alpha=None, temperature=None):
    """The range check of each run setting; None skips it. The library
    entry points and ``RunConfig`` share it, so both reject a bad value
    with the same ConfigError."""
    if max_iterations is not None and max_iterations < 1:
        raise ConfigError("max_iterations must be >= 1")
    if tolerance is not None and not 0 <= tolerance < math.inf:
        raise ConfigError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    if alpha is not None and not 0 < alpha < 1:
        raise ConfigError("alpha must lie in (0, 1)")
    if temperature is not None and not 0 < temperature < math.inf:
        raise ConfigError(f"temperature must be finite and positive, got {temperature!r}")


def iterate(step, f, max_steps: int, tolerance: float):
    """Apply ``step`` from ``f`` until one step moves the iterate by less
    than ``tolerance`` in L1, or ``max_steps`` steps have run.

    Returns (last iterate, steps taken, converged). ``step`` must return a
    new array; ``f`` is never written. No L1 change is below a tolerance
    of 0, so with it exactly ``max_steps`` steps run and converged is
    False: that is a fixed-step run.
    """
    for steps in range(1, max_steps + 1):
        f_next = step(f)
        delta = float(np.abs(f_next - f).sum())
        f = f_next
        if delta < tolerance:
            return f, steps, True
    return f, max_steps, False
