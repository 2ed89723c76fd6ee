import contextlib
import sys
import threading
from importlib.machinery import FileFinder
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import oracles
from transduct import (
    FeatureSet,
    LabelSet,
    argmax_decode,
    harmonic_function,
    inject_anchors,
    label_propagation,
    label_spreading,
    run_dynamics,
)
from transduct import core
from transduct.core import DENSE_PRODUCT_FLIP, CsrGraph, check_graph, graph_product, iterate, normalize_rows, squared_norms
from transduct.errors import DataError, DuplicateId, EmptyInput, NonFinite, OutOfRange, ShapeMismatch
from transduct.pipeline import _report


def random_positive_matrix(draw_n, draw_m, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.01, 5.0, size=(draw_n, draw_m))


class TestRowNormalize:
    def test_direct(self):
        out, zero = normalize_rows([[2, 2], [1, 3]])
        np.testing.assert_allclose(out, [[0.5, 0.5], [0.25, 0.75]])
        assert zero.size == 0

    def test_one_hot_already(self):
        np.testing.assert_array_equal(normalize_rows([[1, 0]])[0], [[1, 0]])

    def test_zero_row(self):
        out, zero = normalize_rows([[0.0, 0.0], [1.0, 3.0]])
        assert zero.tolist() == [0]
        np.testing.assert_array_equal(out, [[0.0, 0.0], [0.25, 0.75]])

    @given(st.integers(1, 20), st.integers(2, 8), st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_rows_sum_to_one(self, n, m, seed):
        out, _ = normalize_rows(random_positive_matrix(n, m, seed))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    @given(st.integers(2, 6), st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_one_hot_rows_are_fixed_points(self, m, seed):
        rng = np.random.default_rng(seed)
        rows = np.stack([np.eye(m)[int(rng.integers(m))] for _ in range(5)])
        np.testing.assert_array_equal(normalize_rows(rows)[0], rows)


class TestArgmaxDecode:
    def test_basic(self):
        np.testing.assert_array_equal(argmax_decode([[0.9, 0.1], [0.2, 0.8]]), [0, 1])

    def test_tie_lowest_index(self):
        np.testing.assert_array_equal(argmax_decode([[0.5, 0.5]]), [0])

    def test_full_tie(self):
        np.testing.assert_array_equal(argmax_decode([[1 / 3, 1 / 3, 1 / 3]]), [0])

    @given(st.integers(1, 10), st.integers(2, 6), st.integers(0, 1000))
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_positive_row_scaling(self, n, m, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 1, size=(n, m))
        scale = rng.uniform(0.1, 10.0, size=(n, 1))
        np.testing.assert_array_equal(argmax_decode(x), argmax_decode(x * scale))


class TestContainers:
    def test_feature_set_rejects_duplicate_ids(self):
        with pytest.raises(DuplicateId):
            FeatureSet([[1.0, 2.0], [3.0, 4.0]], ("a", "a"))

    def test_feature_set_rejects_a_flat_matrix(self):
        with pytest.raises(ShapeMismatch):
            FeatureSet([1.0, 2.0], ("a", "b"))

    def test_feature_set_rejects_a_matrix_without_rows(self):
        with pytest.raises(EmptyInput, match=r"^feature matrix must be at least 1 x 1$"):
            FeatureSet(np.empty((0, 2)), ())

    def test_label_set_needs_a_class(self):
        with pytest.raises(OutOfRange):
            LabelSet(num_classes=0, labels=[-1])

    def test_feature_set_rejects_nan(self):
        with pytest.raises(NonFinite):
            FeatureSet([[1.0, np.nan]], ("a",))

    def test_feature_set_is_read_only(self):
        fs = FeatureSet([[1.0, 2.0]], ("a",))
        with pytest.raises(ValueError):
            fs.data[0, 0] = 9.0

    def test_feature_set_copies_an_array_the_caller_can_write(self):
        data = np.array([[1.0, 2.0], [3.0, 4.0]])
        fs = FeatureSet(data, ("a", "b"))
        data[0, 0] = 9.0
        assert fs.data[0, 0] == 1.0
        view = np.array([[1.0, 2.0], [3.0, 4.0]])
        readonly_view = view[:]
        readonly_view.setflags(write=False)
        fs = FeatureSet(readonly_view, ("a", "b"))
        view[0, 0] = 9.0
        assert fs.data[0, 0] == 1.0

    def test_feature_set_copy_cannot_be_made_writeable(self):
        fs = FeatureSet(np.array([[1.0, 2.0]]), ("a",))
        with pytest.raises(ValueError):
            fs.data.setflags(write=True)
        assert FeatureSet(fs.data, ("a",)).data is fs.data

    def test_feature_set_keeps_a_read_only_array_it_is_given(self):
        data = np.array([[1.0, 2.0], [3.0, 4.0]])
        data.setflags(write=False)
        assert FeatureSet(data, ("a", "b")).data is data

    def test_label_set_range_check(self):
        with pytest.raises(OutOfRange):
            LabelSet(num_classes=2, labels=[0, 2])

    def test_label_set_sentinel_ok(self):
        ls = LabelSet(num_classes=2, labels=[0, -1, 1])
        assert ls.labeled_indices().tolist() == [0, 2]

    def test_evaluation_report_requires_finite_metrics(self):
        with pytest.raises(NonFinite):
            _report({"accuracy": float("nan")}, {}, ("a",), 1, [])
        report = _report({"accuracy": 0.5}, {"seed": 1}, ("a",), 1, [])
        assert report["metrics"]["accuracy"] == 0.5
        assert report["classes"] == ["a"]


class TestGraphProduct:
    """W X on both sides of ``DENSE_PRODUCT_FLIP``: n=20 is below it and
    n=640 with 3 columns above, where a dense W is turned round."""

    @staticmethod
    def graph(rng, n, kind):
        w = rng.uniform(0, 1, size=(n, n))
        w[rng.uniform(size=(n, n)) < 0.5] = 0.0
        if kind == "symmetric":
            return (w + w.T) / 2
        return sparse.csr_array(w) if kind == "csr" else w

    @pytest.mark.parametrize("kind", ["symmetric", "asymmetric", "csr"])
    @pytest.mark.parametrize("n", [20, 640])
    def test_matches_w_times_x(self, n, kind):
        rng = np.random.default_rng(n)
        w = self.graph(rng, n, kind)
        x = rng.uniform(0, 1, size=(n, 3))
        assert (n * n * 3 > DENSE_PRODUCT_FLIP) == (n == 640)
        dense = np.array(w.toarray() if kind == "csr" else w)
        x_before = x.copy()
        out = graph_product(w, x)
        assert out.flags.c_contiguous and out.shape == (n, 3)
        np.testing.assert_allclose(out, dense @ x, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(w.toarray() if kind == "csr" else w, dense)
        np.testing.assert_array_equal(x, x_before)


def random_csr(rng, n):
    """The three CSR arrays of a random n x n graph with weights >= 0:
    empty rows, stored zeros, asymmetric entries, and each row's columns
    shuffled, some repeated."""
    w = rng.uniform(0, 1, size=(n, n)) * 10.0 ** rng.uniform(-3, 3, size=(n, n))
    stored = rng.uniform(size=(n, n)) < rng.uniform(0.02, 0.3)
    w[rng.uniform(size=(n, n)) < 0.1] = 0.0
    stored[rng.uniform(size=n) < 0.2] = False
    rows, cols = np.nonzero(stored)
    order = np.lexsort((rng.uniform(size=rows.size), rows))
    repeat = rng.uniform(size=rows.size) < 0.1
    rows, cols = np.r_[rows[order], rows[repeat]], np.r_[cols[order], cols[repeat]]
    order = np.argsort(rows, kind="stable")
    rows, cols = rows[order], cols[order]
    indptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=n))]
    return indptr, cols, w[rows, cols]


class TestCsrGraph:
    """``core.CsrGraph``'s products and row sums against scipy's on the
    same arrays and against a stored-order oracle, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 7, 60, 300])
    @pytest.mark.parametrize("seed", range(4))
    def test_products_and_row_sums_match_scipy(self, n, seed):
        rng = np.random.default_rng([n, seed])
        arrays = random_csr(rng, n)
        graph, reference = CsrGraph(*arrays), sparse.csr_array(arrays[::-1], shape=(n, n))
        for x in [rng.normal(size=n), *(rng.normal(size=(n, m)) * 10.0 ** rng.uniform(-3, 3, size=m)
                                        for m in range(1, 6))]:
            out = graph @ x
            assert out.flags.c_contiguous and out.shape == x.shape
            np.testing.assert_array_equal(out, reference @ x)
            if x.ndim == 2:
                np.testing.assert_array_equal(graph_product(graph, x), reference @ x)
        with pytest.raises(TypeError):
            np.ones(n) @ graph
        np.testing.assert_array_equal(graph.row_sums(), reference.sum(axis=1))
        assert graph.nnz == reference.nnz and graph.shape == reference.shape

    @pytest.mark.parametrize("n", [1, 7, 60])
    @pytest.mark.parametrize("seed", range(4))
    def test_products_match_the_stored_order_oracle(self, n, seed):
        """Bit for bit, on operands of every layout and on magnitudes
        near both ends of float64's range."""
        rng = np.random.default_rng([n, seed, 5])
        arrays = random_csr(rng, n)
        graph = CsrGraph(*arrays)
        wide = rng.normal(size=(n, 6))
        operands = [rng.normal(size=n), *(rng.normal(size=(n, m)) for m in range(1, 6)),
                    np.asfortranarray(wide), wide[:, 1], wide[:, ::2],
                    wide * 10.0 ** rng.choice([-300, 300], size=(n, 6))]
        for x in operands:
            out = graph @ x
            assert out.flags.c_contiguous and out.shape == x.shape
            np.testing.assert_array_equal(out, oracles.csr_product(*arrays, x))

    @pytest.mark.parametrize("found", [True, False], ids=["own file", "scipy.sparse"])
    def test_either_load_gives_the_same_bits(self, found):
        """The kernel loaded from its own file, and the one ``scipy.sparse``
        imports where that file is not found, are one function."""
        rng = np.random.default_rng(6)
        arrays = random_csr(rng, 50)
        graph, x = CsrGraph(*arrays), rng.normal(size=(50, 3))
        name = "scipy.sparse._sparsetools"
        finder = contextlib.nullcontext() if found else mock.patch.object(FileFinder, "find_spec", return_value=None)
        try:
            with mock.patch.dict(sys.modules), finder:
                sys.modules.pop(name)
                core._csr_matvecs.cache_clear()
                np.testing.assert_array_equal(graph @ x, oracles.csr_product(*arrays, x))
                assert core._csr_matvecs() is sparse._sparsetools.csr_matvecs
                assert name not in sys.modules
        finally:
            core._csr_matvecs.cache_clear()

    @pytest.mark.parametrize("arrays, error", [
        (([], [], []), DataError),
        (([1, 2], [0], [1.0]), DataError),
        (([0, 2, 1, 2], [0, 1], [1.0, 1.0]), DataError),
        (([0, 1, 1], [0, 1], [1.0, 1.0]), DataError),
        (([0, 1, 2], [0, 1], [1.0]), ShapeMismatch),
        (([0, 1, 2], [0, 2], [1.0, 1.0]), DataError),
        (([0, 1, 2], [0, -1], [1.0, 1.0]), DataError),
    ], ids=["no indptr", "indptr from 1", "indptr falling", "indptr short of nnz", "data short",
            "index past n", "negative index"])
    def test_malformed_arrays_are_rejected(self, arrays, error):
        with pytest.raises(error):
            CsrGraph(*arrays)

    def test_products_from_many_threads_keep_their_bits(self):
        """Threads sharing one graph race on the first load of the kernel;
        every product keeps the bits."""
        rng = np.random.default_rng(4)
        arrays = random_csr(rng, 120)
        graph, reference = CsrGraph(*arrays), sparse.csr_array(arrays[::-1], shape=(120, 120))
        xs = [rng.normal(size=(120, 3)) for _ in range(8)]
        failures = []

        def work(x):
            for _ in range(40):
                if not np.array_equal(graph @ x, reference @ x):
                    failures.append(x)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.dict(sys.modules):
                sys.modules.pop("scipy.sparse._sparsetools")
                core._csr_matvecs.cache_clear()
                threads = [threading.Thread(target=work, args=(x,)) for x in xs]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


def counting(move):
    """A step that applies ``move`` and records every iterate it is given."""
    calls = []

    def step(f):
        calls.append(f)
        return move(f)

    return step, calls


class TestIterate:
    def test_converges_at_the_first_small_step(self):
        # the L1 changes are 4, 2, 1, 0.5, ...: step 4 is the first below 1
        step, calls = counting(lambda f: f / 2)
        f, steps, converged = iterate(step, np.array([8.0]), 10, 1.0)
        assert (f.tolist(), steps, converged, len(calls)) == ([0.5], 4, True, 4)

    def test_zero_tolerance_runs_every_step(self):
        step, calls = counting(lambda f: f / 2)
        f, steps, converged = iterate(step, np.array([8.0]), 5, 0.0)
        assert (f.tolist(), steps, converged, len(calls)) == ([0.25], 5, False, 5)
        # a step that does not move the iterate still never converges at 0
        step, calls = counting(np.copy)
        _, steps, converged = iterate(step, np.ones(3), 5, 0.0)
        assert (steps, converged, len(calls)) == (5, False, 5)

    def test_start_is_never_written(self):
        f0 = np.array([[0.25, 0.75], [0.5, 0.5]])
        f0.setflags(write=False)
        step, calls = counting(lambda f: f / 2)
        f, _, _ = iterate(step, f0, 3, 0.0)
        np.testing.assert_array_equal(f0, [[0.25, 0.75], [0.5, 0.5]])
        assert calls[0] is f0 and f is not f0


NEGATIVE_W = np.array([[0.0, 1.0, -0.5], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
UNIFORM_X = np.full((3, 2), 0.5)
CHAIN_LABELS = LabelSet(2, [0, -1, 1])
ONE_STEP = {"max_iterations": 1, "tolerance": 0.0}
PROPAGATORS = {
    "run_dynamics": lambda w: run_dynamics(w, inject_anchors(UNIFORM_X, CHAIN_LABELS)),
    # one unanchored step, and the consistency functional its trace records
    "replicator_step": lambda w: run_dynamics(w, UNIFORM_X, **ONE_STEP)[0],
    "consistency_functional": lambda w: run_dynamics(w, UNIFORM_X, **ONE_STEP)[1].functional_values,
    "label_spreading": lambda w: label_spreading(w, CHAIN_LABELS),
    "label_propagation": lambda w: label_propagation(w, CHAIN_LABELS),
    "harmonic_function": lambda w: harmonic_function(w, CHAIN_LABELS),
}


@pytest.mark.parametrize("form", ["dense", "csr"])
@pytest.mark.parametrize("name", sorted(PROPAGATORS))
def test_every_propagator_rejects_a_negative_weight(name, form):
    w = NEGATIVE_W if form == "dense" else sparse.csr_array(NEGATIVE_W)
    with pytest.raises(DataError, match="^similarity weights must be non-negative$"):
        PROPAGATORS[name](w)
    PROPAGATORS[name](np.abs(w))  # the same graph with that weight flipped is accepted


def test_check_graph_does_not_copy_a_dense_float64_graph():
    w = np.abs(NEGATIVE_W)
    assert check_graph(w, w.shape[0], "x") is w


SCIPY_FORMATS = ["csr", "csc", "coo", "lil", "dok", "bsr", "dia"]


def scipy_intake_case(dtype):
    """A symmetric 30-vertex graph with zero diagonal, some isolated
    vertices and weights exact in ``dtype`` (int64, float32 or float64),
    a LabelSet of 3 classes over it, and the propagators to run on it."""
    rng = np.random.default_rng(5)
    n, m = 30, 3
    w = np.triu(rng.integers(1, 100, size=(n, n)) * (rng.uniform(size=(n, n)) < 0.3), 1)
    w = ((w + w.T) * (1 if dtype == np.int64 else 0.125)).astype(dtype)
    labels = LabelSet(m, np.where(rng.uniform(size=n) < 0.2, rng.integers(0, m, size=n), -1))
    x0 = inject_anchors(np.full((n, m), 1.0 / m), labels)
    propagators = {
        "run_dynamics": lambda g: run_dynamics(g, x0),
        "label_spreading": lambda g: label_spreading(g, labels),
        "label_propagation": lambda g: label_propagation(g, labels),
        "harmonic_function": lambda g: harmonic_function(g, labels),
    }
    return w, propagators


@pytest.mark.parametrize("dtype", [np.int64, np.float32, np.float64])
@pytest.mark.parametrize("kind", ["array", "matrix"])
@pytest.mark.parametrize("fmt", [*SCIPY_FORMATS, "coo with repeats"])
def test_every_scipy_format_gives_the_bits_of_its_csr_graph(fmt, kind, dtype):
    """Each scipy sparse format, as an array and as a matrix class, with
    scipy's int32 indices and int, float32 or float64 data, runs every
    propagator to the bits of the ``CsrGraph`` of the same graph's
    canonical CSR arrays. A COO graph may give a position twice, the
    copies far apart: they are summed."""
    w, propagators = scipy_intake_case(dtype)
    canonical = sparse.csr_array(w)
    if fmt == "coo with repeats":
        rows, cols = (index.astype(np.int32) for index in np.nonzero(w))
        half = w[rows, cols] // 2 if dtype == np.int64 else w[rows, cols] / 2
        rest = w[rows, cols] - half
        order = np.random.default_rng(6).permutation(2 * rows.size)
        entries = (np.r_[half, rest][order], (np.r_[rows, rows][order], np.r_[cols, cols][order]))
        graph = getattr(sparse, f"coo_{kind}")(entries, shape=w.shape)
        assert graph.nnz == 2 * canonical.nnz
    else:
        graph = getattr(sparse, f"{fmt}_{kind}")(w)
    assert graph.tocsr().indices.dtype == np.int32 and graph.dtype == dtype
    for name, run in propagators.items():
        expected = run(CsrGraph(canonical.indptr, canonical.indices, canonical.data))
        np.testing.assert_equal(run(graph), expected, err_msg=name)


def test_a_scipy_csr_graph_keeps_its_stored_order():
    """A CSR graph whose rows hold their columns unsorted and repeated
    becomes the CsrGraph of its own arrays, in their order, and the
    propagators run on it as on that CsrGraph."""
    rng = np.random.default_rng(7)
    indptr, indices, data = random_csr(rng, 40)
    assert any((np.diff(indices[a:b]) <= 0).any() for a, b in zip(indptr[:-1], indptr[1:]))
    graph = sparse.csr_array((data, indices, indptr), shape=(40, 40))
    assert not graph.has_sorted_indices
    kept = check_graph(graph, 40, "x")
    assert isinstance(kept, CsrGraph)
    for name, array in (("indptr", indptr), ("indices", indices), ("data", data)):
        np.testing.assert_array_equal(getattr(kept, name), array, err_msg=name)
    labels = LabelSet(2, np.where(rng.uniform(size=40) < 0.3, rng.integers(0, 2, size=40), -1))
    x0 = inject_anchors(np.full((40, 2), 0.5), labels)
    np.testing.assert_equal(run_dynamics(graph, x0), run_dynamics(CsrGraph(indptr, indices, data), x0))
    np.testing.assert_equal(label_propagation(graph, labels),
                            label_propagation(CsrGraph(indptr, indices, data), labels))


@pytest.mark.parametrize("graph", [sparse.csr_array((3, 4)), sparse.coo_matrix(np.ones((4, 3))),
                                   sparse.coo_array(np.ones(3))], ids=["csr 3x4", "coo 4x3", "1-d coo"])
def test_a_scipy_graph_that_is_not_square_is_a_shape_mismatch(graph):
    labels = LabelSet(2, [0, -1, 1])
    with pytest.raises(ShapeMismatch, match="^similarity matrix must be square$"):
        label_propagation(graph, labels)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("form", ["dense", "csr"])
@pytest.mark.parametrize("name", sorted(PROPAGATORS))
def test_every_propagator_rejects_a_non_finite_weight(name, form, bad):
    """NaN passes a ``< 0`` check, and ``inf * 0`` is NaN in a product with
    the reachability frontier, so both are rejected before any step."""
    w = np.abs(NEGATIVE_W)
    w[1, 2] = bad
    w = w if form == "dense" else sparse.csr_array(w)
    with pytest.raises(NonFinite, match="^similarity weights must be finite$"):
        PROPAGATORS[name](w)


@pytest.mark.parametrize("form", ["dense", "csr"])
@pytest.mark.parametrize("name", sorted(PROPAGATORS))
def test_every_propagator_rejects_weights_whose_sums_could_overflow(name, form):
    """n^2 times the largest weight of the chain at 1e308 overflows."""
    w = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]) * 1e308
    w = w if form == "dense" else sparse.csr_array(w)
    with pytest.raises(NonFinite, match="^similarity weights too large: row sums and products overflow float64$"):
        PROPAGATORS[name](w)


@pytest.mark.filterwarnings("error")
def test_weights_near_the_float64_limit_warn_nowhere():
    """Random symmetric graphs scaled by 10^150 to 10^307 run every
    propagator with warnings as errors: each either meets the bound of
    ``check_graph`` (NonFinite) or returns rows on the simplex."""
    rng = np.random.default_rng(8)
    rejected = 0
    for _ in range(200):
        n, m = int(rng.integers(2, 30)), int(rng.integers(2, 4))
        w = np.where(rng.random((n, n)) < rng.uniform(0.1, 0.9), rng.uniform(0.01, 1.0, (n, n)), 0.0)
        w = np.maximum(w, w.T) * 10.0 ** rng.uniform(150, 307)
        vector = np.full(n, -1)
        picked = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        vector[picked] = rng.integers(0, m, picked.size)
        labels = LabelSet(m, vector)
        for run in (lambda: run_dynamics(w, inject_anchors(np.full((n, m), 1.0 / m), labels))[0],
                    lambda: label_spreading(w, labels)[0], lambda: label_propagation(w, labels)[0],
                    lambda: harmonic_function(w, labels)):
            try:
                x = run()
            except NonFinite:
                rejected += 1
                continue
            assert (x >= 0).all() and np.allclose(x.sum(axis=1), 1.0, rtol=0, atol=1e-9)
    assert 0 < rejected < 200 * 4


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_squared_norms_in_blocks_keep_the_whole_sums_bits(layout):
    """Summed NORM_ROWS rows at a time, at an n that is not a multiple of
    it, the norms equal ``np.sum(data**2, axis=1)`` bit for bit, in each
    memory layout that sum follows."""
    data = np.random.default_rng(6).normal(size=(2500, 74)) * 10.0 ** np.arange(-3, 4).repeat(11)[:74]
    data = {"C": data, "F": np.asfortranarray(data), "strided": data[:, ::2]}[layout]
    assert data.shape[0] % core.NORM_ROWS
    np.testing.assert_array_equal(squared_norms(data), np.sum(data**2, axis=1))
