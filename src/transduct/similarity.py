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

from .core import feature_data, integer, numeric_array
from .errors import ConfigError, NonFinite, ShapeMismatch

if TYPE_CHECKING:
    from scipy import sparse

#: Rows of an ``n x n`` similarity or distance matrix held at once by the
#: blocked builders (``knn_graph`` here, ``recall_at_k`` in metrics).
BLOCK_ROWS = 256


def _standardize(features) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample z-scores over the d coordinates, plus the indices of
    the zero-variance samples: those whose coordinates are all equal (or
    whose deviations square to a variance of 0). Their z rows are exactly
    +0.0, so both graph builders read 0 for every correlation with them.
    A row whose centring or variance overflows float64 raises NonFinite."""
    data = feature_data(features)
    n, d = data.shape
    if n < 2 or d < 2:
        raise ShapeMismatch(f"need n >= 2 and d >= 2, got {n} x {d}")

    with np.errstate(over="ignore", invalid="ignore"):
        centered = data - data.mean(axis=1, keepdims=True)
        # population normalization (divide by d); the ratio is normalization
        # invariant but fixing it keeps tests bit-stable
        var = np.mean(centered**2, axis=1)
    # an overflow anywhere in a row leaves its variance inf or NaN
    overflowed = np.flatnonzero(~np.isfinite(var))
    if overflowed.size:
        raise NonFinite(f"feature row {overflowed[0]} overflows float64 when centred")
    # a constant row's rounded mean can centre it to a nonzero constant
    flat = (np.ptp(data, axis=1) == 0) | (var == 0)
    z = centered / np.sqrt(np.where(flat, 1.0, var))[:, None]
    z[flat] = 0.0
    return z, np.flatnonzero(flat)


def top_k(values, k: int) -> np.ndarray:
    """Column indices of each row's k largest values, best first.

    Rank order is descending value, then ascending column, so a tie at
    the k-th value goes to the lower column. ``argpartition`` alone picks
    among tied entries arbitrarily, so rows holding more entries equal to
    their k-th value than there are slots left are re-picked in column
    order.
    """
    n = values.shape[1]
    k = integer("k", k, 1, n - 1)
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
    the result invariant to per-sample positive affine transforms.

    A sample whose coordinates are all equal carries no correlation
    information: its row and column read +0.0 (see ``_standardize``) and
    its index is returned as a flag rather than raised, so a run survives
    uninformative samples.

    Returns
    -------
    (w, zero_variance) : n x n matrix, exactly symmetric by construction,
        with entries in [-1, 1] and zero diagonal, plus the indices of the
        flagged samples.
    """
    z, zero_variance = _standardize(features)
    # numpy runs a @ a.T as one syrk and mirrors the computed triangle,
    # so w is exactly symmetric with no averaging pass
    w = z @ z.T
    w /= z.shape[1]
    np.fill_diagonal(w, 0.0)
    return w, zero_variance


def handle_negatives(w, mode: str = "clamp") -> np.ndarray:
    """Map a possibly-negative similarity matrix into the non-negative regime.

    ``clamp`` zeroes every negative entry (a ReLU), which simply ignores
    anti-correlated pairs. ``shift`` subtracts the most negative entry
    from the whole matrix, then re-zeroes the diagonal; small spurious
    positives created this way can add up over large groups, which is why
    clamping is the default. Both are no-ops on already non-negative input.

    A writable float64 array is modified in place and returned, so the
    graph never needs a second ``n x n`` buffer; pass a copy to keep the
    raw correlations. Other input, a read-only array included, is
    converted to a new float64 array first.
    """
    w = numeric_array(w, 2, "similarity matrix")
    if not w.flags.writeable:
        w = w.copy()
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
    w = numeric_array(w, 2, "similarity matrix")
    n = w.shape[0]
    if w.shape != (n, n):
        raise ShapeMismatch("similarity matrix must be square")
    k = integer("k", k, 1, n - 1)
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

    Returns (graph, zero_variance) like ``pearson_matrix``: symmetric by
    construction, flagging the samples whose coordinates are all equal.
    """
    if mode not in ("clamp", "shift"):
        raise ConfigError(f"unknown negative-handling mode {mode!r} (use clamp or shift)")
    from scipy import sparse

    z, zero_variance = _standardize(features)
    n, d = z.shape
    cols, vals = [], []
    # the dense matrix's zero diagonal; a block's own diagonal (1, or 0 for
    # a zero-variance sample) cannot lower it
    lowest = 0.0
    for start in range(0, n, BLOCK_ROWS):
        block = (z[start:start + BLOCK_ROWS] @ z.T) / d
        # zero-variance rows of z are exactly 0 (see _standardize), so
        # their correlations already read 0
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
