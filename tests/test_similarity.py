import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from transduct import BlobSpec, CsrGraph, handle_negatives, knn_graph, make_synthetic, pearson_matrix, similarity
from transduct.errors import ConfigError, OutOfRange, ShapeMismatch
from transduct.similarity import sparsify_knn, top_k


def naive_pearson(data):
    """Two-pass per-pair oracle: explicit means, population covariance."""
    n, d = data.shape
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            u, v = data[i], data[j]
            cov = np.mean((u - u.mean()) * (v - v.mean()))
            var_u = np.mean((u - u.mean()) ** 2)
            var_v = np.mean((v - v.mean()) ** 2)
            if var_u == 0 or var_v == 0:
                w[i, j] = 0.0
            else:
                w[i, j] = cov / np.sqrt(var_u * var_v)
    return w


#: Both graph builders, as dense arrays; with k = 5 the k-NN graph of 6
#: samples keeps every correlation, shifted.
BOTH_GRAPHS = [lambda data: pearson_matrix(data)[0],
               lambda data: knn_graph(data, 5, "shift")[0].to_scipy().toarray()]


class TestPearson:
    def test_perfect_positive(self):
        w, _ = pearson_matrix(np.array([[1.0, 2, 3], [2, 4, 6]]))
        assert w[0, 1] == pytest.approx(1.0)

    def test_perfect_negative(self):
        w, _ = pearson_matrix(np.array([[1.0, 2, 3], [3, 2, 1]]))
        assert w[0, 1] == pytest.approx(-1.0)

    def test_zero_variance_flagged(self):
        w, flagged = pearson_matrix(np.array([[1.0, 2, 3], [5, 5, 5]]))
        assert w[0, 1] == 0.0
        assert list(flagged) == [1]

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            data = rng.normal(size=(rng.integers(2, 12), rng.integers(2, 9)))
            w, _ = pearson_matrix(data)
            np.testing.assert_allclose(w, naive_pearson(data), atol=1e-12)

    @given(st.integers(2, 15), st.integers(2, 10), st.integers(0, 5000))
    @settings(max_examples=100, deadline=None)
    def test_range_symmetry_diagonal(self, n, d, seed):
        rng = np.random.default_rng(seed)
        w, _ = pearson_matrix(rng.normal(size=(n, d)))
        assert np.all(w >= -1 - 1e-12) and np.all(w <= 1 + 1e-12)
        np.testing.assert_array_equal(w, w.T)
        assert np.all(np.diag(w) == 0)

    @given(st.integers(2, 10), st.integers(2, 8), st.integers(0, 5000))
    @settings(max_examples=100, deadline=None)
    def test_affine_invariance(self, n, d, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(n, d))
        a = rng.uniform(0.1, 10.0, size=(n, 1))
        b = rng.uniform(-5.0, 5.0, size=(n, 1))
        w1, _ = pearson_matrix(data)
        w2, _ = pearson_matrix(a * data + b)
        np.testing.assert_allclose(w1, w2, atol=1e-9)

    @pytest.mark.parametrize("scale, atol", [(2.0**-600, 0.0), (2.0**600, 0.0), (2.0**1020, 0.0),
                                             (1e-200, 1e-15), (1e200, 1e-15)],
                             ids=["2^-600", "2^600", "2^1020", "1e-200", "1e200"])
    @pytest.mark.parametrize("build", BOTH_GRAPHS, ids=["dense", "knn"])
    def test_one_sample_scaled_to_the_float64_edges(self, build, scale, atol):
        """Pearson does not change when a sample is multiplied by a positive
        number. A power of two keeps every bit; 1e-200 and 1e200 round the
        products s·x themselves. Unscaled, the sample's variance would
        underflow to 0 at 2^-600 and 1e-200, and overflow at the others."""
        data = np.random.default_rng(6).normal(size=(6, 8))
        scaled = data.copy()
        scaled[0] *= scale
        np.testing.assert_allclose(build(scaled), build(data), rtol=0, atol=atol)

    @pytest.mark.parametrize("build", BOTH_GRAPHS, ids=["dense", "knn"])
    def test_an_all_subnormal_sample(self, build):
        """A sample of multiples of 5e-324 = 2^-1074 correlates exactly as
        the same sample times 2^1074 does."""
        data = np.random.default_rng(6).normal(size=(6, 8))
        data[0] *= 5e-324
        assert np.all(np.abs(data[0]) < np.finfo(float).smallest_normal) and np.ptp(data[0]) > 0
        given = build(data)
        data[0] = np.ldexp(data[0], 1074)
        np.testing.assert_array_equal(given, build(data))

    def test_rejects_thin_input(self):
        with pytest.raises(ShapeMismatch):
            pearson_matrix(np.array([[1.0, 2.0]]))
        with pytest.raises(ShapeMismatch):
            pearson_matrix(np.array([[1.0], [2.0]]))

    @pytest.mark.parametrize("n, d", [(549, 70), (2000, 16), (513, 3)])
    def test_exactly_symmetric_across_many_tiles(self, n, d):
        w, _ = pearson_matrix(np.random.default_rng(n).normal(size=(n, d)))
        np.testing.assert_array_equal(w, w.T)

    def test_zero_variance_rows_are_positive_zero_across_many_tiles(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(549, 70))
        flat = [0, 300, 548]
        data[flat] = [[2.0], [-0.5], [0.1]]
        w, flagged = pearson_matrix(data)
        np.testing.assert_array_equal(w, w.T)
        assert list(flagged) == flat
        for band in (w[flat], w[:, flat]):
            assert np.all(band == 0.0) and not np.signbit(band).any()

    def test_standardize_matches_whole_matrix(self):
        """The variance is taken by squaring z in place and z centred again;
        each row's z must be bit-identical to the whole-matrix formula."""
        rng = np.random.default_rng(11)
        data = rng.normal(size=(301, 37)) * rng.uniform(0.1, 100, size=(301, 1))
        data[[0, 150]] = 0.1
        z, flagged = similarity._standardize(data)
        centered = data - data.mean(axis=1, keepdims=True)
        var = np.mean(centered**2, axis=1)
        flat = (np.ptp(data, axis=1) == 0) | (var == 0)
        expected = centered / np.sqrt(np.where(flat, 1.0, var))[:, None]
        expected[flat] = 0.0
        np.testing.assert_array_equal(z, expected)
        assert list(flagged) == [0, 150]

    def test_standardize_peaks_near_one_feature_matrix(self):
        """z is the one n x d array; the per-row buffers of the scaling
        stay within 64 bytes a row. One row at 1.7e308 and one at 1e-200
        make the scaling matter."""
        n, d = 4000, 512
        data = np.random.default_rng(12).normal(size=(n, d))
        data[1] *= 1.7e308 / np.abs(data[1]).max()
        data[2] *= 1e-200
        tracemalloc.start()
        try:
            similarity._standardize(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * d * 8 + 64 * n

    def test_constant_row_with_an_inexact_mean_is_flagged(self):
        """The mean of (.1, .1, .1) rounds away from .1, so centring leaves
        a nonzero constant; the row is still flagged and reads +0.0."""
        data = np.array([[0.1, 0.1, 0.1], [0.1, 0.1, 0.1], [1.0, 2, 3], [3.0, 1, 2]])
        w, flagged = pearson_matrix(data)
        graph, knn_flagged = knn_graph(data, 2)
        for matrix, flags in ((w, flagged), (graph.to_scipy().toarray(), knn_flagged)):
            assert list(flags) == [0, 1]
            for band in (matrix[:2], matrix[:, :2]):
                assert np.all(band == 0.0) and not np.signbit(band).any()

    @pytest.mark.parametrize("mode", ["clamp", "shift"])
    def test_dense_graph_peaks_near_one_matrix(self, mode):
        """Pearson plus negative handling hold one n x n float64 buffer
        and tile-sized temporaries, not several full copies."""
        n = 2000
        data = np.random.default_rng(2).normal(size=(n, 16))
        tracemalloc.start()
        try:
            handle_negatives(pearson_matrix(data)[0], mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * n * n


class TestHandleNegatives:
    def test_clamp(self):
        out = handle_negatives(np.array([[0, -0.5], [-0.5, 0]]), "clamp")
        np.testing.assert_array_equal(out, [[0, 0], [0, 0]])

    def test_shift_rezeroes_diagonal(self):
        out = handle_negatives(np.array([[0, -0.5], [0.3, 0]]), "shift")
        np.testing.assert_allclose(out, [[0, 0], [0.8, 0]])

    def test_noop_when_nonnegative(self):
        w = np.array([[0, 0.7], [0.7, 0]])
        np.testing.assert_array_equal(handle_negatives(w.copy(), "clamp"), w)
        np.testing.assert_array_equal(handle_negatives(w.copy(), "shift"), w)

    @pytest.mark.parametrize("mode", ["clamp", "shift"])
    def test_works_in_place_on_float64(self, mode):
        w = np.array([[0, -0.5], [0.3, 0]])
        assert handle_negatives(w, mode) is w
        assert w.min() == 0
        raw = [[0, -1], [2, 0]]
        assert handle_negatives(raw, mode).min() == 0
        assert raw == [[0, -1], [2, 0]]

    @pytest.mark.parametrize("mode", ["clamp", "shift"])
    def test_read_only_float64_gets_a_new_array(self, mode):
        w = np.array([[0, -0.5], [0.3, 0]])
        w.setflags(write=False)
        out = handle_negatives(w, mode)
        assert out is not w and out.min() == 0
        np.testing.assert_array_equal(w, [[0, -0.5], [0.3, 0]])

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            handle_negatives(np.zeros((2, 2)), "abs")

    @given(st.integers(2, 10), st.integers(0, 2000))
    @settings(max_examples=100, deadline=None)
    def test_clamp_idempotent_and_nonnegative(self, n, seed):
        rng = np.random.default_rng(seed)
        w = rng.uniform(-1, 1, size=(n, n))
        np.fill_diagonal(w, 0)
        once = handle_negatives(w, "clamp")
        assert once.min() >= 0
        np.testing.assert_array_equal(handle_negatives(once.copy(), "clamp"), once)


class TestSparsifyKnn:
    def test_top1_with_max_symmetrization(self):
        w = np.array([[0, 0.9, 0.1], [0.9, 0, 0.2], [0.1, 0.2, 0]])
        out = sparsify_knn(w, 1)
        np.testing.assert_allclose(out, [[0, 0.9, 0], [0.9, 0, 0.2], [0, 0.2, 0]])

    def test_full_graph_unchanged(self):
        rng = np.random.default_rng(3)
        w = rng.uniform(0.1, 1, size=(5, 5))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0)
        np.testing.assert_array_equal(sparsify_knn(w, 4), w)

    def test_tie_prefers_lowest_index(self):
        w = np.full((4, 4), 0.5)
        np.fill_diagonal(w, 0)
        out = sparsify_knn(w, 1)
        # row 0 keeps column 1; rows 1..3 keep column 0; symmetrization
        # then links 0-1, 0-2, 0-3 only
        expected = np.zeros((4, 4))
        expected[0, 1:] = 0.5
        expected[1:, 0] = 0.5
        np.testing.assert_array_equal(out, expected)

    def test_k_out_of_range(self):
        with pytest.raises(OutOfRange):
            sparsify_knn(np.zeros((3, 3)), 3)

    @given(st.integers(3, 12), st.integers(0, 2000))
    @settings(max_examples=100, deadline=None)
    def test_symmetric_with_bounded_support(self, n, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, n - 1))
        w = rng.uniform(0, 1, size=(n, n))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0)
        out = sparsify_knn(w, k)
        np.testing.assert_array_equal(out, out.T)
        assert out.min() >= 0
        # each row contributes at most k directed picks and max
        # symmetrization mirrors each pick, so the global count is <= 2kn
        # (a popular hub row can exceed 2k nonzeros on its own)
        assert int((out > 0).sum()) <= 2 * k * n


def dense_knn(data, k, mode):
    """The dense reference for knn_graph."""
    return sparsify_knn(handle_negatives(pearson_matrix(data)[0], mode), k)


def exact_samples(rng, n, d):
    """Samples whose correlations are computed without rounding.

    Each row is ``a * s + b`` for a balanced +-1 vector ``s`` and small
    integers ``a >= 1`` and ``b``, so its z-scores are exactly ``s`` and
    every product is an integer: the dense and the blocked paths see the
    same exact values, and the few distinct patterns make duplicated
    samples and ties at the k-th value common. About one row in ten is
    constant (zero variance).
    """
    signs = rng.permuted(np.tile(np.r_[np.ones(d // 2), -np.ones(d // 2)], (n, 1)), axis=1)
    data = rng.integers(1, 4, size=(n, 1)) * signs + rng.integers(-3, 4, size=(n, 1))
    data[rng.random(n) < 0.1] = 2.0
    return data.astype(np.float64)


class TestTopK:
    @given(st.integers(2, 120), st.sampled_from([4, 32, 1000]),
           st.sampled_from([1, 4, 16, similarity.TOP_K_SAMPLE]), st.integers(0, 5000))
    @settings(max_examples=100, deadline=None)
    def test_matches_stable_argsort_on_ties(self, n, levels, sample, seed):
        """Ties, -inf entries and at times an all-zero row, every k: small
        k with a sample of at least k columns ranks only the candidates,
        while a sample narrower than k or a wide candidate row (a
        tie-heavy or all-zero row) ranks the whole matrix."""
        rng = np.random.default_rng(seed)
        values = rng.integers(0, levels, size=(6, n)).astype(np.float64)
        values[rng.random((6, n)) < 0.1] = -np.inf
        if rng.random() < 0.5:
            values[rng.integers(0, 6)] = 0.0
        for k in range(1, n):
            expected = np.argsort(-values, axis=1, kind="stable")[:, :k]
            with mock.patch.object(similarity, "TOP_K_SAMPLE", sample):
                np.testing.assert_array_equal(top_k(values, k), expected)

    @pytest.mark.parametrize("sample", [128, similarity.TOP_K_SAMPLE])
    def test_ranks_candidates_or_the_whole_row_exactly(self, sample):
        """Wide negative rows with ties at the k-th value and -inf
        entries rank only their candidates; an all-zero row sends the
        block to the whole-row ranking. Both match a stable argsort."""
        rng = np.random.default_rng(3)
        values = rng.integers(-300, 0, size=(8, 3000)).astype(np.float64)
        values[rng.random(values.shape) < 0.1] = -np.inf
        for k in (1, 2, 4, 8):
            expected = np.argsort(-values, axis=1, kind="stable")[:, :k]
            with mock.patch.object(similarity, "TOP_K_SAMPLE", sample):
                assert similarity._candidates(values, k) is not None
                np.testing.assert_array_equal(top_k(values, k), expected)
        values[2] = 0.0
        expected = np.argsort(-values, axis=1, kind="stable")[:, :10]
        with mock.patch.object(similarity, "TOP_K_SAMPLE", sample):
            assert similarity._candidates(values, 10) is None
            np.testing.assert_array_equal(top_k(values, 10), expected)

    def test_k_out_of_range(self):
        with pytest.raises(OutOfRange):
            top_k(np.zeros((2, 3)), 3)


class TestKnnGraph:
    @given(st.integers(2, 40), st.sampled_from([2, 4, 6, 8]), st.sampled_from([1, 3, 7, 64, 256]),
           st.sampled_from([2, similarity.TOP_K_SAMPLE]), st.sampled_from(["clamp", "shift"]),
           st.integers(0, 5000))
    @settings(max_examples=100, deadline=None)
    def test_matches_dense_exactly_with_ties(self, n, d, block, sample, mode, seed):
        """Duplicated samples, zero-variance rows, blocks that do not
        divide n and a top-k sample narrower than the row: the same edges
        with the same weights for every k."""
        data = exact_samples(np.random.default_rng(seed), n, d)
        for k in range(1, n):
            with mock.patch.object(similarity, "BLOCK_ROWS", block), \
                    mock.patch.object(similarity, "TOP_K_SAMPLE", sample):
                graph, flagged = knn_graph(data, k, mode)
            expected = dense_knn(data, k, mode)
            np.testing.assert_array_equal(graph.to_scipy().toarray(), expected)
            np.testing.assert_array_equal(flagged, pearson_matrix(data)[1])

    @given(st.integers(3, 30), st.integers(3, 10), st.sampled_from([1, 3, 7, 64, 256]),
           st.sampled_from([2, similarity.TOP_K_SAMPLE]), st.sampled_from(["clamp", "shift"]),
           st.integers(0, 5000))
    @settings(max_examples=100, deadline=None)
    def test_matches_dense_on_real_valued_data(self, n, d, block, sample, mode, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(n, d))
        data[rng.integers(0, n)] = 1.5  # one zero-variance sample
        for k in range(1, n):
            with mock.patch.object(similarity, "BLOCK_ROWS", block), \
                    mock.patch.object(similarity, "TOP_K_SAMPLE", sample):
                graph = knn_graph(data, k, mode)[0].to_scipy().toarray()
            expected = dense_knn(data, k, mode)
            np.testing.assert_array_equal(graph != 0, expected != 0)
            np.testing.assert_allclose(graph, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["clamp", "shift"])
    def test_several_default_blocks(self, mode):
        rng = np.random.default_rng(4)
        n = 557
        assert n > 2 * similarity.BLOCK_ROWS
        data = rng.normal(size=(n, 12))
        data[[3, n - 2]] = 7.0
        graph = knn_graph(data, 6, mode)[0]
        expected = dense_knn(data, 6, mode)
        np.testing.assert_array_equal(graph.to_scipy().toarray() != 0, expected != 0)
        np.testing.assert_allclose(graph.to_scipy().toarray(), expected, rtol=0, atol=1e-12)

    def test_symmetric_csr_without_stored_zeros(self):
        """Canonical CSR (each row's columns sorted, once each), no stored
        zeros, equal to its transpose: the arrays scipy makes of the same
        matrix, read-only and int64."""
        data = exact_samples(np.random.default_rng(9), 30, 6)
        graph = knn_graph(data, 4, "clamp")[0]
        assert isinstance(graph, CsrGraph)
        for columns in np.split(graph.indices, graph.indptr[1:-1]):
            assert (np.diff(columns) > 0).all()
        assert np.all(graph.data > 0)
        dense = graph.to_scipy().toarray()
        np.testing.assert_array_equal(dense, dense.T)
        canonical = sparse.csr_array(dense)
        for name in ("indptr", "indices", "data"):
            array = getattr(graph, name)
            np.testing.assert_array_equal(array, getattr(canonical, name))
            assert not array.flags.writeable
        assert graph.indptr.dtype == graph.indices.dtype == np.int64

    def test_rejects_bad_k_and_mode(self):
        data = np.random.default_rng(0).normal(size=(4, 3))
        with pytest.raises(OutOfRange):
            knn_graph(data, 4)
        with pytest.raises(ConfigError):
            knn_graph(data, 2, "abs")

    def test_peak_memory_below_one_dense_matrix(self):
        """The k-NN path must never hold an n x n float64 matrix: it
        holds one 64 x n block (2 MB here), reused, and ranks only each
        row's candidates, so it peaks near 4.2 MB, far below the 128 MB
        dense matrix. Samples sorted by class too, whose leading columns
        all lie in one class."""
        n = 4000
        shuffled = np.random.default_rng(1).normal(size=(n, 16))
        by_class = make_synthetic(BlobSpec(blobs=4, per_blob=n // 4, dim=16, stddev=2.5), 1)[0].data
        for data in (shuffled, by_class):
            tracemalloc.start()
            try:
                knn_graph(data, 10)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 6_000_000
