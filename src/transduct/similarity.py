"""Similarity-matrix construction from per-sample embeddings.

The default pipeline is Pearson correlation followed by clamping of
negative entries, as a dense ``n x n`` array. With k-NN sparsification
``knn_graph`` builds the same graph block by block straight into a
``core.CsrGraph``, with numpy alone, in O(n·k) memory plus one
``BLOCK_ROWS x n`` block; ``sparsify_knn`` is its dense reference.
``neighbour_scan`` is the one blocked loop behind ``knn_graph`` and
``metrics.recall_at_k``: it owns the reused block, and each caller
passes the function that fills it. All functions accept either a
FeatureSet or a bare ``n x d`` array.
"""
from __future__ import annotations

from collections.abc import Callable, Iterator

import numpy as np

from .core import CsrGraph, feature_data, integer, numeric_array
from .errors import ConfigError, ShapeMismatch

#: How ``handle_negatives`` and ``knn_graph`` may map negative similarities.
NEGATIVE_MODES = ("clamp", "shift")

#: Rows of an ``n x n`` similarity or distance matrix held at once by
#: ``neighbour_scan`` (for ``knn_graph`` here and ``recall_at_k`` in
#: metrics).
BLOCK_ROWS = 64

#: Columns of each row, evenly spaced across it, whose k-th largest value
#: bounds the candidates ``top_k`` ranks (at most this many, at least half).
TOP_K_SAMPLE = 1024


def _standardize(features) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample z-scores over the d coordinates, plus the indices of the
    zero-variance samples, whose coordinates are all equal: their z rows are
    exactly +0.0, so both graph builders read 0 for their correlations. Each
    row is scaled by 2^-e, 2^e bounding its largest |x|: exactly, so z keeps
    the unscaled formula's bits wherever it neither overflows nor underflows."""
    data = feature_data(features)
    n, d = data.shape
    if n < 2 or d < 2:
        raise ShapeMismatch(f"need n >= 2 and d >= 2, got {n} x {d}")

    high, low = data.max(axis=1), data.min(axis=1)
    flat = high == low
    np.maximum(high, np.negative(low, out=low), out=high)
    exponent = np.negative(np.frexp(high, out=(high, None))[1])[:, None]
    del high, low  # the per-row buffers go before z, the one n x d array
    # z is scaled, centred, squared in place for the variance (over d, fixed
    # to keep tests bit-stable), scaled and centred again, then divided. Every
    # finite row has a z: scaled rows lie in (-1, 1), so nothing overflows, and
    # one that is not constant deviates from its mean by 2^-55 or more, var > 0.
    z = np.ldexp(data, exponent)
    mean = z.mean(axis=1, keepdims=True)
    z -= mean
    var = np.square(z, out=z).mean(axis=1)
    np.ldexp(data, exponent, out=z)
    z -= mean
    z /= np.sqrt(np.where(flat, 1.0, var))[:, None]
    z[flat] = 0.0  # a constant row's rounded mean can centre it to a nonzero constant
    return z, np.flatnonzero(flat)


def top_k(values, k: int) -> np.ndarray:
    """Column indices of each row's k largest values, best first.

    Rank order is descending value, then ascending column, so a tie at
    the k-th value goes to the lower column. ``values`` must hold no NaN;
    both callers pass finite values and ``-inf``.

    Only candidates are ranked. A row's bound is the k-th largest of at
    most ``TOP_K_SAMPLE`` of its columns, evenly spaced. Any k entries of
    the row have a minimum no greater than the row's k-th largest value,
    so every pick is >= the bound. The columns holding a value >= the bound
    are gathered in column order, padded with ``-inf`` to the widest row
    and ranked as one narrow matrix, so ties still go to the lower
    column. The whole matrix is ranked instead when the sample holds
    fewer than k columns, or when the candidates fill more than an eighth
    of the matrix or of its widest row: a clamped row whose bound is 0, a
    zero-variance sample, heavy ties.
    """
    n = values.shape[1]
    k = integer("k", k, 1, n - 1)
    narrowed = _candidates(values, k)
    if narrowed is None:
        return _rank(values, k)
    narrow, columns = narrowed
    return np.take_along_axis(columns, _rank(narrow, k), axis=1)


def _candidates(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Each row's ``top_k`` candidates, padded with ``-inf``, and their
    columns; None where the whole matrix is to be ranked."""
    rows, n = values.shape
    sample = values[:, ::-(-n // TOP_K_SAMPLE)]
    if sample.shape[1] < k:
        return None
    bound = np.partition(sample, sample.shape[1] - k, axis=1)[:, sample.shape[1] - k]
    candidate = values >= bound[:, None]
    # checked first, the total caps the index arrays built below
    if np.count_nonzero(candidate) > candidate.size // 8:
        return None
    at = np.flatnonzero(candidate)
    row, col = np.divmod(at, n)
    counts = np.bincount(row, minlength=rows)
    width = int(counts.max(initial=0))
    if not k <= width <= n // 8:
        return None
    # each candidate's slot in its row of the narrow matrix
    slot = np.arange(at.size) - np.repeat(np.cumsum(counts) - counts, counts)
    narrow = np.full((rows, width), -np.inf)
    narrow[row, slot] = values.ravel()[at]
    columns = np.zeros((rows, width), dtype=np.intp)
    columns[row, slot] = col
    return narrow, columns


def _rank(values: np.ndarray, k: int) -> np.ndarray:
    """``top_k`` by a partition of every column, for 1 <= k <= columns.
    ``argpartition`` alone picks among tied entries arbitrarily, so rows
    holding more entries equal to their k-th value than there are slots
    left are re-picked in column order."""
    n = values.shape[1]
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


def neighbour_scan(n: int, k: int,
                   fill: Callable[[slice, np.ndarray], None]) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """Each block of ``BLOCK_ROWS`` query rows of an ``n x n`` score
    matrix, with the ``top_k`` picks of its rows: yields ``(rows, block,
    picks)``, the query rows as a slice and ``picks = top_k(block, k)``.

    ``fill(rows, block)`` writes the scores of queries ``rows`` against
    all n samples into ``block`` in place. The scan then sets each
    query's own column to ``-inf``, so no sample picks itself. The block
    is allocated once, ``min(BLOCK_ROWS, n)`` rows, and reused: a yielded
    block holds its values only until the next one is filled.
    """
    space = np.empty((min(BLOCK_ROWS, n), n))
    for start in range(0, n, BLOCK_ROWS):
        rows = slice(start, min(start + BLOCK_ROWS, n))
        block = space[:rows.stop - start]
        fill(rows, block)
        block[np.arange(block.shape[0]), np.arange(rows.start, rows.stop)] = -np.inf
        yield rows, block, top_k(block, k)


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
    check_mode(mode)
    if not w.flags.writeable:
        w = w.copy()
    if mode == "clamp":
        return np.maximum(w, 0.0, out=w)
    lowest = w.min() if w.size else 0.0
    if lowest < 0:
        w -= lowest
        np.fill_diagonal(w, 0.0)
    return w


def check_mode(mode) -> None:
    """ConfigError unless ``mode`` is one of ``NEGATIVE_MODES``."""
    if mode not in NEGATIVE_MODES:
        raise ConfigError(f"unknown negative-handling mode {mode!r} (use {' or '.join(NEGATIVE_MODES)})")


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


def knn_graph(features, k: int, mode: str = "clamp") -> tuple[CsrGraph, np.ndarray]:
    """Pearson k-NN graph as a ``core.CsrGraph``, never holding the dense
    matrix and never loading scipy.

    Builds ``sparsify_knn(handle_negatives(pearson_matrix(features)[0],
    mode), k)`` with ``neighbour_scan``, one block of ``BLOCK_ROWS`` rows
    at a time: correlate the block against every sample, apply the
    negative handling, take each row's top k (ties to the lower column),
    then max-symmetrize. ``shift`` needs the global minimum, zero diagonal
    included; top-k does not move under a constant shift, so the minimum
    is collected in the same pass and subtracted from the kept values at
    the end. Picks whose final weight is 0 are not stored, as in the dense
    result. Each row stores its columns in ascending order, once each:
    the arrays scipy's canonical CSR form of the same graph holds. The
    standardized features and the block are freed before the CSR build,
    which holds only O(n·k) arrays.

    Returns (graph, zero_variance) like ``pearson_matrix``: symmetric by
    construction, flagging the samples whose coordinates are all equal.
    """
    check_mode(mode)
    cols, vals, zero_variance = _knn_picks(features, k, mode)
    n, k = cols.shape
    rows, cols, vals = np.repeat(np.arange(n), k), cols.ravel(), vals.ravel()

    # Max-symmetrize: each pick (r, c) is stored at (r, c) and at (c, r),
    # and each position keeps the smallest of its one or two weights. A
    # pair picked from both ends holds two products that the dense matrix
    # has as one exactly symmetric value; small BLAS kernels can round
    # them a last ulp apart, so the pair takes the smaller, which keeps a
    # pair at the shifted minimum at 0 on both sides as in the dense
    # result. The merged entries come in row, then column order, as the
    # CSR arrays hold them; a position's minimum is the same in any order.
    rows, cols, vals = np.concatenate([rows, cols]), np.concatenate([cols, rows]), np.concatenate([vals, vals])
    rows, cols, vals = _merge_entries(rows, cols, vals, n)
    stored = vals > 0
    rows, indices, data = rows[stored], cols[stored], vals[stored]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    for array in (indptr, indices, data):
        array.setflags(write=False)  # the graph keeps them without a copy
    return CsrGraph(indptr, indices, data), zero_variance


def _merge_entries(rows, cols, values, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries ``values`` at (rows, cols) of an n x n matrix as
    (rows, cols, values) in row, then column order, each position once
    with the smallest of its values. ``knn_graph`` peaks here, so each
    step frees the array it replaces before the next one is made."""
    key = rows * n + cols
    order = np.argsort(key)
    key = key[order]
    values = values[order]
    del order
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    values = np.minimum.reduceat(values, first)
    key = key[first]
    rows = key // n
    return rows, np.remainder(key, n, out=key), values


def _knn_picks(features, k: int, mode: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``knn_graph``'s scan: each row's k picks and their weights after
    the negative handling, as two n x k arrays, plus the zero-variance
    samples. The standardized features live only while it runs."""
    z, zero_variance = _standardize(features)
    n, d = z.shape
    k = integer("k", k, 1, n - 1)
    # the dense matrix's zero diagonal; a block's own diagonal (1, or 0 for
    # a zero-variance sample) cannot lower it
    lowest = 0.0

    def correlate(rows, block):
        nonlocal lowest
        # dividing in place rounds as the division into a new array would
        np.matmul(z[rows], z.T, out=block)
        block /= d
        # zero-variance rows of z are exactly 0 (see _standardize), so
        # their correlations already read 0
        if mode == "clamp":
            np.maximum(block, 0.0, out=block)
        else:
            lowest = min(lowest, float(block.min()))

    cols = np.empty((n, k), dtype=np.intp)
    vals = np.empty((n, k))
    for rows, block, picked in neighbour_scan(n, k, correlate):
        cols[rows] = picked
        vals[rows] = np.take_along_axis(block, picked, axis=1)
    vals -= lowest
    return cols, vals, zero_variance
