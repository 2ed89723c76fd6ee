"""Shared domain types, argument coercions and simplex utilities.

Numerical code in this package passes plain float64 ``numpy`` arrays
around. Every public function passes each argument through a coercion
below, so malformed input raises a TransductError subclass, never a numpy
exception. The dataclasses are validating containers used at module
boundaries (file loading, pipeline plumbing), frozen with read-only
arrays, so instances can be shared freely across threads. ``CsrGraph``
is the sparse graph type: a k-NN graph is built with numpy alone and
multiplied by scipy's compiled CSR kernel, loaded from its own extension
file without the ``scipy.sparse`` package.
"""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import cache

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


def numeric_array(values, ndim: int | None, what: str, dtype=np.float64) -> np.ndarray:
    """``values`` as an ``ndim``-d (ShapeMismatch; any ndim if None) bool, int or float (DataError)
    array cast to ``dtype`` unless None. One already of that dtype is not copied: a caller may
    work in place. A ragged sequence, whose rows differ in length, is a DataError."""
    try:
        arr = np.asarray(values)
    except ValueError:
        raise DataError(f"{what} is ragged: its rows differ in length") from None
    if arr.dtype.kind not in "biuf":
        raise DataError(f"{what} must be numeric, got dtype {arr.dtype}")
    if ndim is not None and arr.ndim != ndim:
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


def on_simplex(x, floor: float = 0.0) -> bool:
    """Whether every entry of ``x`` is >= ``floor`` and every row sums to 1
    within 1e-9; a NaN fails both."""
    return bool((x >= floor).all() and (np.abs(x.sum(axis=1) - 1.0) <= 1e-9).all())


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
    """An ``n x d`` matrix of per-sample embeddings plus opaque string ids.

    ``data`` is kept read-only. An array that is already read-only and owns
    its memory, such as the one ``io.read_features_csv`` parses, is kept as
    it is; any other is copied, so no caller can write through to it.
    """

    data: np.ndarray
    ids: tuple[str, ...]

    def __post_init__(self):
        data = feature_data(self.data)
        if data.flags.writeable or not data.flags.owndata:
            data = np.array(data)  # a copy of its own
            data.setflags(write=False)
        object.__setattr__(self, "data", data)
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


#: Rows whose squares ``squared_norms`` holds at once.
NORM_ROWS = 1024


def squared_norms(data) -> np.ndarray:
    """Each row's squared Euclidean norm, for the Euclidean metrics: the
    bits of ``np.sum(data**2, axis=1)``, with the squares held
    ``NORM_ROWS`` rows at a time in one block laid out as ``data**2``
    would be, so no n x d temporary is made.

    Raises NonFinite unless 8 n times the largest one is finite: a squared
    distance between two rows, or to a mean of rows, is at most 4 times
    the larger squared norm, k-means sums n of them, and the factor 2
    leaves room for rounding. So no distance or sum of them overflows.
    """
    n = data.shape[0]
    sq = np.empty(n)
    block = np.empty_like(data[:NORM_ROWS])
    with np.errstate(over="ignore"):
        for start in range(0, n, NORM_ROWS):
            rows = data[start:start + NORM_ROWS]
            np.sum(np.square(rows, out=block[:rows.shape[0]]), axis=1, out=sq[start:start + NORM_ROWS])
        fits = 8.0 * n * sq < np.finfo(np.float64).max
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


def _frozen(values, dtype, what: str) -> np.ndarray:
    """``values`` as a read-only 1-d ``numeric_array`` of ``dtype``, an
    integer one only from integers (DataError). One already read-only, of
    that dtype and owning its memory is kept; any other is copied."""
    arr = numeric_array(values, 1, what, dtype=None)
    if np.dtype(dtype).kind == "i" and arr.dtype.kind not in "iu":
        raise DataError(f"{what} must have an integer dtype, got {arr.dtype}")
    if arr.dtype != dtype or arr.flags.writeable or not arr.flags.owndata:
        arr = np.array(arr, dtype=dtype)  # a copy of its own
        arr.setflags(write=False)
    return arr


@cache
def _csr_matvecs():
    """scipy's compiled CSR product, loaded from the one extension file
    ``scipy/sparse/_sparsetools*.so``: 0.3 ms and 0.1 MiB, not the 0.13 s
    and 22 MiB of ``scipy.sparse``'s package init. Its name leaves
    ``sys.modules``, so a later ``import scipy.sparse`` binds its own
    copy, with the same functions."""
    import importlib.util
    import os
    import sys
    from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

    name = "scipy.sparse._sparsetools"
    module = sys.modules.get(name)  # once scipy.sparse has loaded it
    if module is None:
        scipy = importlib.util.find_spec("scipy").submodule_search_locations[0]
        spec = FileFinder(os.path.join(scipy, "sparse"), (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
        if spec is None:
            from scipy.sparse import _sparsetools as module
        else:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules.pop(name, None)
    return module.csr_matvecs


@dataclass(frozen=True, eq=False)
class CsrGraph:
    """An n x n graph in compressed sparse row form, built with numpy
    alone and multiplied by scipy's compiled kernel, so a ``--knn`` run
    loads no scipy package.

    Row i stores the columns ``indices[indptr[i]:indptr[i + 1]]`` with the
    weights ``data[indptr[i]:indptr[i + 1]]``, in the order given: a
    product sums each row in that order, so ``graph @ x`` has the bits of
    ``graph.to_scipy() @ x``. The arrays are read-only, int64 indices and
    float64 weights; a column may repeat within a row (the repeats add
    up). ``check_graph`` checks the weights.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    # ``ndarray @ graph`` stays Python's TypeError: numpy does not try to
    # convert the graph into an array
    __array_ufunc__ = None

    def __post_init__(self):
        indptr = _frozen(self.indptr, np.int64, "CSR indptr")
        indices = _frozen(self.indices, np.int64, "CSR indices")
        data = _frozen(self.data, np.float64, "CSR data")
        n = indptr.size - 1
        if n < 0 or indptr[0] != 0 or (np.diff(indptr) < 0).any() or indptr[-1] != indices.size:
            raise DataError("CSR indptr must rise from 0 to the number of stored entries")
        if data.size != indices.size:
            raise ShapeMismatch(f"CSR data has {data.size} entries for {indices.size} indices")
        if indices.size and not 0 <= indices.min() <= indices.max() < n:
            raise DataError(f"CSR indices must lie in [0, {n})")
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "data", data)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.indptr.size - 1,) * 2

    @property
    def nnz(self) -> int:
        """Stored entries, explicit zeros included, as scipy counts them."""
        return self.data.size

    def __matmul__(self, x) -> np.ndarray:
        """W x for a vector of n entries, run as one column, or W X,
        C-ordered, for an n x m matrix: the call to ``csr_matvecs`` that
        scipy's ``csr_array @ x`` makes, which sums each row's stored
        entries in stored order, from 0."""
        x = numeric_array(x, None, "graph operand")
        n = self.shape[0]
        if x.shape[:1] != (n,) or x.ndim > 2:
            raise ShapeMismatch(f"cannot multiply an {n} x {n} graph by shape {x.shape}")
        m = 1 if x.ndim == 1 else x.shape[1]
        out = np.zeros((n, m))
        _csr_matvecs()(n, n, m, self.indptr, self.indices, self.data, np.ascontiguousarray(x).ravel(), out.ravel())
        return out.reshape(x.shape)

    def row_sums(self) -> np.ndarray:
        """Each row's sum, with the bits of scipy's ``sum(axis=1)``: one
        ``np.add.reduceat`` over the non-empty rows, as scipy runs it."""
        sums = np.zeros(self.shape[0])
        nonempty = np.flatnonzero(np.diff(self.indptr))
        if nonempty.size:
            sums[nonempty] = np.add.reduceat(self.data, self.indptr[nonempty])
        return sums

    def to_scipy(self):
        """A ``scipy.sparse.csr_array`` over the same (read-only) arrays,
        made without a copy. Loads ``scipy.sparse``."""
        from scipy import sparse

        return sparse.csr_array((self.data, self.indices, self.indptr), shape=self.shape, copy=False)


def check_graph(w, rows: int, what: str):
    """A similarity graph as every propagator takes it.

    Dense input becomes a float64 array and a CsrGraph is kept. A scipy
    sparse graph, any object with a ``tocsr()`` method, becomes the
    CsrGraph of ``w.tocsr()``: a CSR graph's rows keep their stored
    order, and a COO graph's repeated entries are summed. Raises
    ShapeMismatch unless the graph is square with one vertex per row of
    ``what``, whose length is ``rows``, NonFinite for a NaN or infinite
    weight or one so large that n^2 times it overflows, and DataError for
    a negative weight: the replicator step's ascent (Baum-Eagon) and both
    random-walk baselines need W >= 0.
    """
    sparse = hasattr(w, "tocsr")
    if not sparse and not isinstance(w, CsrGraph):
        w = numeric_array(w, 2, "similarity matrix")
    n = w.shape[0]
    if w.shape != (n, n):
        raise ShapeMismatch("similarity matrix must be square")
    if rows != n:
        raise ShapeMismatch(f"{what} has {rows} rows but the similarity graph has {n} vertices")
    if sparse:
        w = w.tocsr()
        w = CsrGraph(w.indptr, w.indices, w.data)
    # a CSR graph's unstored entries are 0; min and max propagate NaN, so
    # no n x n finiteness mask is needed
    weights = w.data if isinstance(w, CsrGraph) else w
    if weights.size:
        low, high = weights.min(), weights.max()
        if not (math.isfinite(low) and math.isfinite(high)):
            raise NonFinite("similarity weights must be finite")
        if low < 0:
            raise DataError("similarity weights must be non-negative")
        # a row sum, W x for x on the simplex, and x^T W x summed over n
        # rows are at most n^2 times the largest weight
        if not math.isfinite(float(high) * n * n):
            raise NonFinite("similarity weights too large: row sums and products overflow float64")
    return w


def row_sums(w) -> np.ndarray:
    """Each vertex's degree, for a graph from ``check_graph``."""
    return w.row_sums() if isinstance(w, CsrGraph) else w.sum(axis=1)


#: Multiply-adds (n·n·m) above which ``graph_product`` runs a dense graph
#: as BLAS's long operand. Up to here OpenBLAS uses its small-matrix kernel.
DENSE_PRODUCT_FLIP = 1_000_000


def graph_product(w, x) -> np.ndarray:
    """W X, C-ordered, for an n x n graph W from ``check_graph`` and an
    n x m float64 matrix X. Every propagator's graph
    product runs here.

    A dense product of more than ``DENSE_PRODUCT_FLIP`` multiply-adds is
    computed as ``(x.T @ w.T).T``, which is W X for any W, symmetric or
    not. Written as ``w @ x``, OpenBLAS's threaded gemm takes W as its
    short operand and packs a panel of it into a buffer that grows with
    n (10.6 MB at n=4000, m=4 on 2 threads). Turned round, W is the long
    operand and no buffer grows with n (0.2 MB there).

    Measured with OpenBLAS 0.3.31 at m=3-4 on 1 and 2 threads: the
    turned-round product took 1.4-2.6x the time of ``w @ x`` at
    n <= 500, which is up to the rule, and there the two forms differ in
    the last bits. From n=600 (above the rule) they give the same bits,
    and it took 0.58-0.78x the time at m=3 and 0.70-1.07x at m=4 (n=4000,
    m=4, 2 threads: 12.9 ms against 9.7 ms). So a product up to the rule
    and a CSR graph keep ``w @ x``.
    """
    if isinstance(w, np.ndarray) and w.size * x.shape[1] > DENSE_PRODUCT_FLIP:
        return np.ascontiguousarray((x.T @ w.T).T)
    return w @ x


def unreached(w, labels: LabelSet) -> np.ndarray:
    """Indices of the vertices with no path to a labeled vertex along
    out-edges, the direction labels flow: every propagator builds row i
    from the rows j with w_ij > 0 (W X, S F, D^-1 W F, the harmonic row
    equation), so only such a path can carry a label into i.
    Breadth-first: with ``v`` the 0/1 frontier, a vertex is found where
    ``w @ v`` is positive, which is exact for a finite W >= 0
    (``check_graph``): a sum of non-negative terms is 0 only when every
    term is."""
    reached = labels.labeled_mask()
    frontier = reached
    while frontier.any() and not reached.all():
        v = frontier.astype(np.float64)
        frontier = (w @ v > 0) & ~reached
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
