import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

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
from transduct.core import DENSE_PRODUCT_FLIP, check_graph, graph_product, iterate, normalize_rows
from transduct.errors import DataError, DuplicateId, NonFinite, OutOfRange, ShapeMismatch
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
