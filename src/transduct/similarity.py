"""Similarity-matrix construction from per-sample embeddings.

The default pipeline is Pearson correlation followed by clamping of
negative entries, as a dense ``n x n`` array. With k-NN sparsification
``knn_graph`` builds the same graph block by block straight into CSR, in
O(n·k) memory; ``sparsify_knn`` is its dense reference. All functions
accept either a FeatureSet or a bare ``n x d`` array.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .core import FeatureSet
from .errors import ConfigError, NonFinite, OutOfRange, ShapeMismatch

if TYPE_CHECKING:
    from scipy import sparse

#: Rows of an ``n x n`` similarity or distance matrix held at once by the
#: blocked builders (``knn_graph`` here, ``recall_at_k`` in metrics).
BLOCK_ROWS = 256


def _as_data(features) -> np.ndarray:
    if isinstance(features, FeatureSet):
        return features.data
    return np.asarray(features, dtype=np.float64)


def _standardize(features) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample z-scores over the d coordinates, plus the indices of
    zero-variance samples (whose z rows are exactly 0)."""
    data = _as_data(features)
    if data.ndim != 2:
        raise ShapeMismatch("feature matrix must be 2-d")
    n, d = data.shape
    if n < 2 or d < 2:
        raise ShapeMismatch(f"need n >= 2 and d >= 2, got {n} x {d}")
    if not np.all(np.isfinite(data)):
        raise NonFinite("feature matrix contains non-finite entries")

    centered = data - data.mean(axis=1, keepdims=True)
    # population normalization (divide by d); the ratio is normalization
    # invariant but fixing it keeps tests bit-stable
    var = np.mean(centered**2, axis=1)
    zero_variance = np.flatnonzero(var == 0)
    scale = np.sqrt(np.where(var > 0, var, 1.0))
    return centered / scale[:, None], zero_variance


def top_k(values, k: int) -> np.ndarray:
    """Column indices of each row's k largest values, best first.

    Rank order is descending value, then ascending column, so a tie at
    the k-th value goes to the lower column. ``argpartition`` alone picks
    among tied entries arbitrarily, so rows holding more entries equal to
    their k-th value than there are slots left are re-picked in column
    order.
    """
    values = np.asarray(values)
    n = values.shape[1]
    if not 1 <= k < n:
        raise OutOfRange(f"k must satisfy 1 <= k < {n}, got k={k}")
    picked = np.argpartition(values, n - k, axis=1)[:, n - k:]
    kth = np.take_along_axis(values, picked[:, :1], axis=1)
    above = values > kth
    tied = values == kth
    slots = k - above.sum(axis=1)
    crowded = np.flatnonzero(tied.sum(axis=1) > slots)
    if crowded.size:
        ties = tied[crowded]
        keep = above[crowded] | (ties & (np.cumsum(ties, axis=1) <= slots[crowded, None]))
        picked[crowded] = np.nonzero(keep)[1].reshape(crowded.size, k)
    order = np.lexsort((picked, -np.take_along_axis(values, picked, axis=1)), axis=1)
    return np.take_along_axis(picked, order, axis=1)


def pearson_matrix(features) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise Pearson correlation between sample embeddings.

    Each sample's feature vector is standardized (mean removed, scaled by
    its population standard deviation over the d coordinates), which makes
    the result invariant to per-sample positive affine transforms. The
    diagonal is fixed at zero.

    Samples with zero feature variance carry no correlation information;
    their rows and columns are set to 0 and their indices are returned as
    a flag array rather than raising, so a run survives uninformative
    samples.

    Returns
    -------
    (w, zero_variance) : n x n symmetric matrix with entries in [-1, 1]
        and zero diagonal, plus the indices of flagged zero-variance
        samples.
    """
    z, zero_variance = _standardize(features)
    w = z @ z.T
    w /= z.shape[1]
    _symmetrize(w)
    if zero_variance.size:
        w[zero_variance, :] = 0.0
        w[:, zero_variance] = 0.0
    np.fill_diagonal(w, 0.0)
    return w, zero_variance


def _symmetrize(w: np.ndarray) -> None:
    """Replace ``w`` by ``(w + w.T) / 2`` in place, bit for bit.

    The matrix product can leave last-ulp asymmetry. Each ``BLOCK_ROWS``
    tile on or above the diagonal is averaged with its mirror tile, so
    the only temporaries are tile-sized.
    """
    n = w.shape[0]
    for top in range(0, n, BLOCK_ROWS):
        rows = slice(top, top + BLOCK_ROWS)
        for left in range(top, n, BLOCK_ROWS):
            cols = slice(left, left + BLOCK_ROWS)
            mean = (w[rows, cols] + w[cols, rows].T) / 2.0
            w[rows, cols] = mean
            w[cols, rows] = mean.T


def handle_negatives(w, mode: str = "clamp") -> np.ndarray:
    """Map a possibly-negative similarity matrix into the non-negative regime.

    ``clamp`` zeroes every negative entry (a ReLU), which simply ignores
    anti-correlated pairs. ``shift`` subtracts the most negative entry
    from the whole matrix, then re-zeroes the diagonal; small spurious
    positives created this way can add up over large groups, which is why
    clamping is the default. Both are no-ops on already non-negative input.

    A float64 array is modified in place and returned, so the graph never
    needs a second ``n x n`` buffer; pass a copy to keep the raw
    correlations. Other input is converted to a new float64 array first.
    """
    w = np.asarray(w, dtype=np.float64)
    if mode == "clamp":
        return np.maximum(w, 0.0, out=w)
    if mode == "shift":
        lowest = w.min() if w.size else 0.0
        if lowest < 0:
            w -= lowest
            np.fill_diagonal(w, 0.0)
        return w
    raise ConfigError(f"unknown negative-handling mode {mode!r} (use clamp or shift)")


def sparsify_knn(w, k: int) -> np.ndarray:
    """Keep each row's k largest off-diagonal entries, then max-symmetrize.

    Ties prefer the lower column index so results are deterministic. The
    element-wise max symmetrization means a row can end up with at most 2k
    nonzeros: its own picks plus other rows that picked it.
    """
    w = np.asarray(w, dtype=np.float64)
    n = w.shape[0]
    if w.shape != (n, n):
        raise ShapeMismatch("similarity matrix must be square")
    if not 1 <= k < n:
        raise OutOfRange(f"k must satisfy 1 <= k < n, got k={k}, n={n}")
    kept = np.zeros_like(w)
    for i in range(n):
        row = w[i].copy()
        row[i] = -np.inf  # never keep the diagonal
        # stable sort on the negated row: equal values keep ascending
        # column order, so ties break toward the lower index
        order = np.argsort(-row, kind="stable")[:k]
        kept[i, order] = w[i, order]
    return np.maximum(kept, kept.T)


def knn_graph(features, k: int, mode: str = "clamp") -> tuple[sparse.csr_array, np.ndarray]:
    """Pearson k-NN graph in CSR form, never holding the dense matrix.

    Builds ``sparsify_knn(handle_negatives(pearson_matrix(features)[0],
    mode), k)`` one block of ``BLOCK_ROWS`` rows at a time: correlate the
    block against every sample, apply the negative handling, take each
    row's top k (ties to the lower column), then max-symmetrize. ``shift``
    needs the global minimum, zero diagonal included; top-k does not move
    under a constant shift, so the minimum is collected in the same pass
    and subtracted from the kept values at the end. Picks whose final
    weight is 0 are not stored, as in the dense result.

    Returns (graph, zero_variance) like ``pearson_matrix``.
    """
    if mode not in ("clamp", "shift"):
        raise ConfigError(f"unknown negative-handling mode {mode!r} (use clamp or shift)")
    from scipy import sparse

    z, zero_variance = _standardize(features)
    n, d = z.shape
    if not 1 <= k < n:
        raise OutOfRange(f"k must satisfy 1 <= k < n, got k={k}, n={n}")
    cols, vals = [], []
    # the dense matrix's zero diagonal; a block's own diagonal (1, or 0 for
    # a zero-variance sample) cannot lower it
    lowest = 0.0
    for start in range(0, n, BLOCK_ROWS):
        block = (z[start:start + BLOCK_ROWS] @ z.T) / d
        # zero-variance rows of z are exactly 0, so their correlations
        # already read 0 as pearson_matrix sets them
        if mode == "clamp":
            np.maximum(block, 0.0, out=block)
        else:
            lowest = min(lowest, float(block.min()))
        block[np.arange(block.shape[0]), np.arange(start, start + block.shape[0])] = -np.inf
        picked = top_k(block, k)
        cols.append(picked.ravel())
        vals.append(np.take_along_axis(block, picked, axis=1).ravel())
    rows = np.repeat(np.arange(n), k)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals) - lowest

    # Max-symmetrize over unordered pairs. A pair picked from both ends
    # holds two products that the dense matrix has as one exactly
    # symmetric value; small BLAS kernels can round them a last ulp apart,
    # so the pair takes the smaller, which keeps a pair at the shifted
    # minimum at 0 on both sides as in the dense result.
    lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
    key = lo * n + hi
    order = np.argsort(key, kind="stable")
    key, vals = key[order], vals[order]
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    key, vals = key[first], np.minimum.reduceat(vals, first)
    stored = vals > 0
    lo, hi, vals = key[stored] // n, key[stored] % n, vals[stored]
    graph = sparse.csr_array(
        (np.concatenate([vals, vals]), (np.concatenate([lo, hi]), np.concatenate([hi, lo]))),
        shape=(n, n),
    )
    return graph, zero_variance
