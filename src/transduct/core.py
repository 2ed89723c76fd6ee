"""Shared domain types, argument coercions and simplex utilities.

Numerical code in this package passes plain float64 ``numpy`` arrays
around. Every public function passes each argument through a coercion
below, so malformed input raises a TransductError subclass, never a numpy
exception. The dataclasses are validating containers used at module
boundaries (file loading, pipeline plumbing), frozen with read-only
arrays, so instances can be shared freely across threads.
"""
from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DuplicateId, EmptyInput, LengthMismatch, NonFinite, OutOfRange, ShapeMismatch

#: Sentinel for "no label known" entries in a label vector. Never a valid
#: class index (class indices are always >= 0).
UNLABELED = -1


def integer(name: str, value, low=-math.inf, high=math.inf) -> int:
    """``value`` as an int: ConfigError unless ``operator.index`` takes it, OutOfRange outside [low, high]."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if not low <= value <= high:
        raise OutOfRange(f"{name} must lie in [{low}, {high}], got {value}")
    return value


def numeric_array(values, ndim: int, what: str, dtype=np.float64) -> np.ndarray:
    """``values`` as an ``ndim``-d (ShapeMismatch) bool, int or float (DataError) array cast to
    ``dtype`` unless None. One already of that dtype is not copied: a caller may work in place."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "biuf":
        raise DataError(f"{what} must be numeric, got dtype {arr.dtype}")
    if arr.ndim != ndim:
        raise ShapeMismatch(f"{what} must be {ndim}-d")
    return arr if dtype is None else arr.astype(dtype, copy=False)


def finite_matrix(values, what: str = "assignment matrix") -> np.ndarray:
    """A finite (NonFinite) n x m float64 ``numeric_array`` with m >= 1 (EmptyInput)."""
    x = numeric_array(values, 2, what)
    if x.shape[1] < 1:
        raise EmptyInput(f"{what} has no columns")
    if not np.isfinite(x).all():
        raise NonFinite(f"{what} contains non-finite entries")
    return x


def check_simplex(x, what: str) -> None:
    """Raises DataError unless every row of ``x`` is >= 0 and sums to 1 within 1e-9."""
    if (x < 0).any() or (np.abs(x.sum(axis=1) - 1.0) > 1e-9).any():
        raise DataError(f"{what} rows must lie on the simplex: entries >= 0 summing to 1 within 1e-9")


def label_vector(values, what: str = "label vector", rows: int | None = None) -> np.ndarray:
    """A 1-d int64 ``numeric_array`` of ``rows`` entries if given (LengthMismatch). A float
    entry must be a whole number in int64 range (DataError), so NaN is never cast."""
    arr = numeric_array(values, 1, what, dtype=None)
    if arr.dtype.kind == "f" and not ((np.abs(arr) < 2.0**63) & (arr == np.trunc(arr))).all():
        raise DataError(f"{what} entries must be whole numbers")
    if rows is not None and arr.size != rows:
        raise LengthMismatch(f"{what} has {arr.size} entries, expected {rows}")
    return arr.astype(np.int64, copy=False)


@dataclass(frozen=True)
class FeatureSet:
    """An ``n x d`` matrix of per-sample embeddings plus opaque string ids."""

    data: np.ndarray
    ids: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "data", np.array(feature_data(self.data)))  # a copy of its own
        self.data.setflags(write=False)
        object.__setattr__(self, "ids", tuple(str(i) for i in self.ids))
        if len(self.ids) != self.n:
            raise LengthMismatch(f"{len(self.ids)} ids for {self.n} feature rows")
        if len(set(self.ids)) != self.n:
            raise DuplicateId("sample ids must be unique")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


def feature_data(features) -> np.ndarray:
    """The ``n x d`` matrix of a FeatureSet, or a bare array checked as a FeatureSet
    checks it: a ``finite_matrix`` with at least one row (EmptyInput)."""
    if isinstance(features, FeatureSet):
        return features.data
    data = finite_matrix(features, "feature matrix")
    if data.shape[0] < 1:
        raise EmptyInput("feature matrix must be at least 1 x 1")
    return data


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
        object.__setattr__(self, "labels", np.array(label_vector(self.labels)))  # a copy of its own
        self.labels.setflags(write=False)
        object.__setattr__(self, "num_classes", integer("num_classes", self.num_classes, low=1))
        bad = (self.labels != UNLABELED) & ((self.labels < 0) | (self.labels >= self.num_classes))
        if np.any(bad):
            raise OutOfRange(f"label out of range at index {int(np.flatnonzero(bad)[0])}")

    def labeled_mask(self) -> np.ndarray:
        return self.labels != UNLABELED

    def labeled_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels != UNLABELED)


def label_set(labels, rows: int | None = None, what: str = "label set") -> LabelSet:
    """``labels`` if it is a LabelSet (DataError) of ``rows`` entries if given (ShapeMismatch)."""
    if not isinstance(labels, LabelSet):
        raise DataError(f"{what} must be a LabelSet, got {type(labels).__name__}")
    if rows is not None and labels.labels.size != rows:
        raise ShapeMismatch(f"{what} has {labels.labels.size} entries for {rows} rows")
    return labels


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
    return np.argmax(finite_matrix(x), axis=1).astype(np.int64)


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
        w = numeric_array(w, 2, "similarity matrix")
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


#: The range of each real-valued run setting: (test, what the value must be).
SETTING_RANGES = {
    "tolerance": (lambda v: 0 <= v < math.inf, "finite and >= 0"),
    "alpha": (lambda v: 0 < v < 1, "in (0, 1)"),
    "temperature": (lambda v: 0 < v < math.inf, "finite and positive"),
}


def check_settings(**settings) -> None:
    """The check of each run setting passed by keyword: ``max_iterations``
    an ``integer`` >= 1, the others a real number in their
    ``SETTING_RANGES`` range. Anything else, None or a string included,
    is a ConfigError. The library entry points and ``RunConfig`` share
    it, so both reject a bad value with the same message; ``RunConfig``
    passes only the settings its method reads."""
    for name, value in settings.items():
        if name == "max_iterations":
            integer(name, value, low=1)
            continue
        in_range, must = SETTING_RANGES[name]
        if not isinstance(value, numbers.Real):
            raise ConfigError(f"{name} must be a number, got {value!r}")
        if not in_range(value):
            raise ConfigError(f"{name} must be {must}, got {value!r}")


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
