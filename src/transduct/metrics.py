"""Evaluation metrics: accuracy, macro F1, NMI, Recall@K."""
from __future__ import annotations

import math

import numpy as np

from .core import feature_data, integer, label_vector, squared_norms
from .errors import EmptyInput, InsufficientSamples
from . import similarity


def _aligned(pred, truth):
    pred = label_vector(pred, "pred")
    truth = label_vector(truth, "truth", pred.size)
    if pred.size == 0:
        raise EmptyInput("cannot score empty label vectors")
    return pred, truth


def accuracy(pred, truth) -> float:
    """Fraction of exact matches."""
    pred, truth = _aligned(pred, truth)
    return float(np.mean(pred == truth))


def macro_f1(pred, truth, num_classes: int) -> float:
    """Unweighted mean of per-class F1 scores.

    Classes absent from both vectors are skipped; a class with zero
    precision and recall contributes an F1 of 0.
    """
    pred, truth = _aligned(pred, truth)
    num_classes = integer("num_classes", num_classes, low=1)
    scores = []
    for c in range(num_classes):
        in_pred = pred == c
        in_truth = truth == c
        if not in_pred.any() and not in_truth.any():
            continue
        tp = float(np.sum(in_pred & in_truth))
        p = tp / in_pred.sum() if in_pred.any() else 0.0
        r = tp / in_truth.sum() if in_truth.any() else 0.0
        scores.append(0.0 if p + r == 0 else 2 * p * r / (p + r))
    if not scores:
        raise EmptyInput("no classes present in either vector")
    return float(np.mean(scores))


def _entropy(counts, n):
    # fsum is correctly rounded, so the value cannot depend on the order
    # clusters happen to be enumerated in
    return -math.fsum(c / n * math.log(c / n) for c in counts)


def nmi(assign_a, assign_b) -> float:
    """Normalized mutual information between two partitions.

    Uses natural logs and normalizes by the geometric mean of the two
    entropies, so the score is invariant under any relabeling of either
    side. Edge convention: when either partition is a single cluster the
    formula degenerates, so the score is 1 if the two partitions are
    identical as partitions (including the all-one-cluster case) and 0
    otherwise.
    """
    a, b = _aligned(assign_a, assign_b)
    n = a.size
    _, a_ids = np.unique(a, return_inverse=True)
    _, b_ids = np.unique(b, return_inverse=True)
    ka = int(a_ids.max()) + 1
    kb = int(b_ids.max()) + 1
    contingency = np.zeros((ka, kb), dtype=np.int64)
    np.add.at(contingency, (a_ids, b_ids), 1)
    row = contingency.sum(axis=1)
    col = contingency.sum(axis=0)
    # identical as partitions (a bijection between clusters) means NMI is
    # exactly 1; returning it directly keeps the identity exact in floats
    # and covers the degenerate single-cluster case
    if ka == kb and (np.count_nonzero(contingency, axis=1) == 1).all() and (
        np.count_nonzero(contingency, axis=0) == 1
    ).all():
        return 1.0
    ha = _entropy(row, n)
    hb = _entropy(col, n)
    if ha == 0.0 or hb == 0.0:
        return 0.0
    ii, jj = np.nonzero(contingency)
    mi = math.fsum(
        (contingency[i, j] / n) * math.log(contingency[i, j] * n / (row[i] * col[j]))
        for i, j in zip(ii.tolist(), jj.tolist())
    )
    return mi / math.sqrt(ha * hb)


def recall_at_k(features, truth, ks) -> dict[int, float]:
    """Fraction of samples whose K nearest neighbors hit their own class.

    Neighbors are ranked by Euclidean distance with the query itself
    excluded; distance ties break toward the lower sample index. A query
    scores 1 for a given K if any of its K nearest neighbors shares its
    class. Exact search: ``similarity.neighbour_scan`` computes squared
    distances one block of queries at a time into its reused block,
    subtracting each query's norm sums as one reused n-vector, and keeps
    only each query's max(ks) nearest, so every K is scored from one pass
    without an ``n x n`` matrix or an ``n x d`` temporary. Values so
    large that a distance could overflow raise NonFinite
    (``core.squared_norms``). No K gives an empty dict.
    """
    data = feature_data(features)
    n = data.shape[0]
    truth = label_vector(truth, "truth vector", n)
    ks = [integer("K", k, low=1) for k in np.ravel(ks)]
    if not ks:
        return {}
    if n < max(ks) + 1:
        raise InsufficientSamples(f"need at least {max(ks) + 1} samples for K={max(ks)}")
    sq = squared_norms(data)
    sums = np.empty(n)

    def closeness(rows, block):
        # -(|a|^2 + |b|^2 - 2 a.b), rounded exactly as the full-matrix form:
        # 2 a.b - s rounds to exactly -(s - 2 a.b), so the negation needs no
        # pass of its own (an exact 0 reads +0.0, which ranks as -0.0)
        np.matmul(data[rows], data.T, out=block)
        block *= 2.0
        for row, query in zip(block, sq[rows]):
            np.add(query, sq, out=sums)
            np.subtract(row, sums, out=row)

    hits = np.empty((n, max(ks)), dtype=bool)
    for rows, _, picked in similarity.neighbour_scan(n, max(ks), closeness):
        hits[rows] = truth[picked] == truth[rows, None]
    return {k: float(np.mean(hits[:, :k].any(axis=1))) for k in ks}
