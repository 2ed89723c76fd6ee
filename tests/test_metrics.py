from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transduct import accuracy, macro_f1, metrics, nmi, recall_at_k
from transduct.errors import EmptyInput, InsufficientSamples, LengthMismatch


def brute_force_recall(data, truth, ks):
    """Oracle: the full distance matrix, every row stably argsorted."""
    sq = np.sum(data**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (data @ data.T)
    np.fill_diagonal(d2, np.inf)
    order = np.argsort(d2, axis=1, kind="stable")
    hits = truth[order] == truth[:, None]
    return {k: float(np.mean(hits[:, :k].any(axis=1))) for k in ks}


class TestAccuracy:
    def test_partial(self):
        assert accuracy([0, 1, 0], [0, 1, 1]) == pytest.approx(2 / 3)

    def test_perfect(self):
        assert accuracy([2, 1, 0], [2, 1, 0]) == 1.0

    def test_disjoint(self):
        assert accuracy([0, 0], [1, 1]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            accuracy([0], [0, 1])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            accuracy([], [])


class TestMacroF1:
    def test_perfect(self):
        assert macro_f1([0, 1, 2], [0, 1, 2], 3) == 1.0

    def test_binary_cross(self):
        assert macro_f1([0, 0, 1, 1], [0, 1, 0, 1], 2) == pytest.approx(0.5)

    def test_one_sided_prediction(self):
        # class 0: P=1/2, R=1 -> F=2/3; class 1: absent from pred -> F=0
        assert macro_f1([0, 0], [0, 1], 2) == pytest.approx(1 / 3, abs=1e-12)

    def test_absent_class_skipped(self):
        # class 2 never occurs, so it must not drag the mean down
        assert macro_f1([0, 1], [0, 1], 3) == 1.0

    @given(st.integers(1, 30), st.integers(2, 5), st.integers(0, 2000))
    @settings(max_examples=100, deadline=None)
    def test_bounded(self, n, m, seed):
        rng = np.random.default_rng(seed)
        pred = rng.integers(0, m, size=n)
        truth = rng.integers(0, m, size=n)
        assert 0.0 <= macro_f1(pred, truth, m) <= 1.0
        assert 0.0 <= accuracy(pred, truth) <= 1.0


class TestNmi:
    def test_identical_partitions(self):
        assert nmi([0, 0, 1, 1, 2], [0, 0, 1, 1, 2]) == 1.0

    def test_permutation_invariance_exact(self):
        a = [0, 0, 1, 1, 2, 2]
        b = [2, 2, 0, 0, 1, 1]
        assert nmi(a, b) == 1.0
        rng = np.random.default_rng(3)
        x = rng.integers(0, 4, size=40)
        y = rng.integers(0, 3, size=40)
        perm = rng.permutation(4)
        assert nmi(x, y) == nmi(perm[x], y)

    def test_independent_partitions(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_single_cluster_conventions(self):
        assert nmi([0, 0, 0], [0, 0, 0]) == 1.0
        assert nmi([0, 0, 0], [0, 1, 2]) == 0.0
        assert nmi([5, 5, 5], [1, 1, 1]) == 1.0  # identical as partitions

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        a = rng.integers(0, 3, size=50)
        b = rng.integers(0, 4, size=50)
        assert nmi(a, b) == pytest.approx(nmi(b, a), abs=1e-12)

    @given(st.integers(2, 40), st.integers(0, 2000))
    @settings(max_examples=100, deadline=None)
    def test_bounded(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 4, size=n)
        b = rng.integers(0, 4, size=n)
        assert -1e-12 <= nmi(a, b) <= 1.0 + 1e-12

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            nmi([0, 1], [0, 1, 2])


class TestRecallAtK:
    def test_separated_clusters(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(10, 3)) * 0.1
        b = rng.normal(size=(10, 3)) * 0.1 + 50.0
        feats = np.vstack([a, b])
        truth = np.array([0] * 10 + [1] * 10)
        assert recall_at_k(feats, truth, [1])[1] == 1.0

    def test_alternating_line(self):
        feats = np.arange(8, dtype=float)[:, None]
        truth = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        assert recall_at_k(feats, truth, [1])[1] == 0.0

    def test_full_neighborhood(self):
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(9, 2))
        truth = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
        assert recall_at_k(feats, truth, [8])[8] == 1.0

    def test_monotone_in_k(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(6, 25))
            feats = rng.normal(size=(n, 3))
            truth = rng.integers(0, 3, size=n)
            ks = list(range(1, n))
            values = recall_at_k(feats, truth, ks)
            series = [values[k] for k in ks]
            assert all(b >= a for a, b in zip(series, series[1:]))

    def test_distance_tie_prefers_lower_index(self):
        # points 1 and 2 are equidistant from point 0; the tie must pick
        # index 1, whose class differs, so recall@1 for query 0 is 0
        feats = np.array([[0.0], [1.0], [-1.0], [9.0]])
        truth = np.array([0, 1, 0, 1])
        values = recall_at_k(feats, truth, [1])
        # query 0 misses (neighbor 1 is class 1), query 2 hits (neighbor 0),
        # queries 1 and 3 miss and hit respectively: 1 -> 0 (class 0) miss,
        # 3 -> 1 (class 1) hit
        assert values[1] == pytest.approx(0.5)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            recall_at_k(np.zeros((3, 2)), [0, 1, 0], [3])

    @given(st.integers(2, 40), st.integers(1, 4), st.sampled_from([1, 3, 7, 256]), st.integers(0, 5000))
    @settings(max_examples=100, deadline=None)
    def test_blocked_equals_brute_force_on_ties(self, n, d, block, seed):
        """Small-integer coordinates: exact distances, many of them tied
        and duplicated points, every K up to n - 1, blocks that do not
        divide n."""
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 3, size=(n, d)).astype(np.float64)
        truth = rng.integers(0, 3, size=n)
        ks = list(range(1, n))
        with mock.patch.object(metrics, "BLOCK_ROWS", block):
            assert recall_at_k(data, truth, ks) == brute_force_recall(data, truth, ks)

    def test_blocked_equals_brute_force_across_default_blocks(self):
        rng = np.random.default_rng(6)
        n = 2 * metrics.BLOCK_ROWS + 45
        data = rng.normal(size=(n, 8))
        truth = rng.integers(0, 4, size=n)
        ks = [1, 2, 4, 8, 50]
        assert recall_at_k(data, truth, ks) == brute_force_recall(data, truth, ks)
