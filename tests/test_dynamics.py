import numpy as np
import pytest
from scipy import sparse

from transduct import (
    LabelSet,
    group_loss_value,
    inject_anchors,
    run_dynamics,
    uniform_prior,
)
from transduct.errors import ConfigError, DataError, EmptyInput, NonFinite, ShapeMismatch

from oracles import replicator_step_elementwise


def random_instance(rng, n=None, m=None):
    n = n or int(rng.integers(2, 20))
    m = m or int(rng.integers(2, 6))
    w = rng.uniform(0, 1, size=(n, n))
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0)
    x = rng.dirichlet(np.ones(m), size=n)
    return w, x


THREE_NODE_W = np.array([[0, 0.9, 0.1], [0.9, 0, 0.1], [0.1, 0.1, 0]])
THREE_NODE_ANCHORS = LabelSet(2, [0, -1, 1])


def one_step(w, x):
    """One replicator step: the new assignment and its trace, whose
    ``functional_values`` are F(x) and F of the result and whose
    ``degenerate_rows`` are the rows the step froze."""
    return run_dynamics(w, x, max_iterations=1, tolerance=0.0)


class TestSupport:
    """The support W @ X as the replicator step and the functional use it."""

    def test_hand_product(self):
        # W @ X = [[0.5, 0.5], [1, 0]]
        w = np.array([[0, 1], [1, 0.0]])
        x = np.array([[1, 0], [0.5, 0.5]])
        out, trace = one_step(w, x)
        assert trace.functional_values[0] == pytest.approx(0.5 + 0.5, abs=1e-15)
        np.testing.assert_allclose(out, [[1, 0], [1, 0]])

    def test_zero_graph(self):
        x = uniform_prior(3, 2)
        out, trace = one_step(np.zeros((3, 3)), x)
        assert trace.degenerate_rows == (0, 1, 2)
        np.testing.assert_array_equal(out, x)

    def test_same_class_onehots(self):
        # W @ X = [[1, 0], [1, 0]]: each row keeps its one-hot
        w = np.array([[0, 1], [1, 0.0]])
        x = np.array([[1, 0], [1, 0.0]])
        out, trace = one_step(w, x)
        np.testing.assert_array_equal(out, x)
        assert trace.degenerate_rows == ()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            one_step(np.zeros((3, 3)), np.zeros((2, 2)))


class TestReplicatorStep:
    def test_hand_case(self):
        w = np.array([[0, 1], [1, 0.0]])
        x = np.array([[1, 0], [0.5, 0.5]])
        out, trace = one_step(w, x)
        np.testing.assert_allclose(out, [[1, 0], [1, 0]])
        assert trace.degenerate_rows == ()

    def test_one_hot_rows_are_fixed_points(self):
        w = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0.0]])
        w[2, 0] = w[0, 2] = 0.3
        x = np.array([[1, 0], [1, 0], [1, 0.0]])
        out, _ = one_step(w, x)
        np.testing.assert_array_equal(out, x)

    def test_isolated_row_frozen_and_flagged(self):
        w = np.zeros((2, 2))
        w[0, 1] = w[1, 0] = 0.0
        x = np.array([[0.5, 0.5], [0.5, 0.5]])
        out, trace = one_step(w, x)
        np.testing.assert_array_equal(out, x)
        assert set(trace.degenerate_rows) == {0, 1}

    def test_row_stochastic_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            w, x = random_instance(rng)
            out, _ = one_step(w, x)
            np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
            assert out.min() >= 0 and out.max() <= 1 + 1e-12

    def test_matches_elementwise_form(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            w, x = random_instance(rng, n=int(rng.integers(2, 12)))
            fast, trace = one_step(w, x)
            slow, dslow = replicator_step_elementwise(w, x)
            np.testing.assert_allclose(fast, slow, atol=1e-12)
            np.testing.assert_array_equal(trace.degenerate_rows, dslow)

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            w, x = random_instance(rng)
            c = float(rng.uniform(0.01, 100))
            a, _ = one_step(w, x)
            b, _ = one_step(c * w, x)
            np.testing.assert_allclose(a, b, atol=1e-12)


class TestConsistencyFunctional:
    """F(X) = sum_ij w_ij <x_i, x_j>, read from the trace of run_dynamics."""

    def test_agreeing_labels(self):
        w = np.array([[0, 1], [1, 0.0]])
        assert one_step(w, [[1, 0], [1, 0]])[1].functional_values[0] == pytest.approx(2.0)

    def test_disjoint_labels(self):
        w = np.array([[0, 1], [1, 0.0]])
        assert one_step(w, [[1, 0], [0, 1]])[1].functional_values[0] == pytest.approx(0.0)

    def test_zero_graph(self):
        assert one_step(np.zeros((4, 4)), uniform_prior(4, 3))[1].functional_values == [0.0, 0.0]

    def test_monotone_under_replicator_updates(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            w, x = random_instance(rng)
            _, trace = run_dynamics(w, x, max_iterations=10, tolerance=0.0)
            assert len(trace.functional_values) == 11
            assert np.all(np.diff(trace.functional_values) >= -1e-12)


class TestRunDynamics:
    def test_three_node_hand_iteration(self):
        x0 = inject_anchors(uniform_prior(3, 2), THREE_NODE_ANCHORS)
        x1, trace = run_dynamics(THREE_NODE_W, x0, max_iterations=1, tolerance=0.0)
        np.testing.assert_allclose(x1[1], [0.9, 0.1], atol=1e-12)
        x2, _ = run_dynamics(THREE_NODE_W, x0, max_iterations=2, tolerance=0.0)
        np.testing.assert_allclose(x2[1], [0.9878, 0.0122], atol=1e-4)

    def test_three_node_converges_to_anchor_class(self):
        x0 = inject_anchors(uniform_prior(3, 2), THREE_NODE_ANCHORS)
        x, trace = run_dynamics(THREE_NODE_W, x0)
        assert trace.converged
        np.testing.assert_allclose(x[1], [1, 0], atol=1e-5)

    def test_consistent_onehots_converge_immediately(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        x0 = np.array([[1, 0], [1, 0], [0, 1], [0, 1.0]])
        x, trace = run_dynamics(w, x0)
        assert trace.converged and trace.iterations_used == 1
        np.testing.assert_array_equal(x, x0)

    def test_fixed_iterations_exact_count(self):
        rng = np.random.default_rng(2)
        w, x = random_instance(rng, n=6, m=3)
        _, trace = run_dynamics(w, x, max_iterations=3, tolerance=0.0)
        assert trace.iterations_used == 3
        assert not trace.converged

    def test_functional_trace_non_decreasing(self):
        rng = np.random.default_rng(31)
        w, x = random_instance(rng, n=15, m=4)
        _, trace = run_dynamics(w, x, max_iterations=60, tolerance=0)
        values = np.array(trace.functional_values)
        assert np.all(np.diff(values) >= -1e-12)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(8)
        w, x = random_instance(rng, n=12, m=3)
        anchors = LabelSet(3, [0, -1, -1, -1, -1, 2] + [-1] * 6)
        x0 = inject_anchors(x, anchors)
        a, ta = run_dynamics(w, x0)
        b, tb = run_dynamics(w, x0)
        assert np.array_equal(a, b)
        assert ta.functional_values == tb.functional_values
        assert (ta.iterations_used, ta.converged) == (tb.iterations_used, tb.converged)

    def test_isolated_row_flagged_degenerate(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        anchors = LabelSet(2, [0, -1, -1])
        x0 = inject_anchors(uniform_prior(3, 2), anchors)
        x, trace = run_dynamics(w, x0)
        assert 2 in trace.degenerate_rows
        np.testing.assert_allclose(x[2], [0.5, 0.5])

    @pytest.mark.parametrize("form", ["dense", "csr"])
    def test_pinned_anchors_stay_one_hot(self, form):
        # run_dynamics never re-pins: the one-hot rows inject_anchors puts
        # into x0 must come out of a 100-step run bit for bit
        rng = np.random.default_rng(41)
        for _ in range(20):
            n, m = int(rng.integers(4, 30)), int(rng.integers(2, 5))
            w, x = random_instance(rng, n=n, m=m)
            w[w < 0.6] = 0.0  # sparse enough to leave some rows without edges
            # rows 0 and 1 touch only each other and are anchored to different
            # classes, so neither gets support on its class
            w[:2] = 0.0
            w[:, :2] = 0.0
            w[0, 1] = w[1, 0] = 0.5
            vector = np.where(rng.random(n) < 0.3, rng.integers(m, size=n), -1)
            vector[:2] = [0, 1]
            anchors = LabelSet(m, vector)
            x0 = inject_anchors(x, anchors)
            graph = w if form == "dense" else sparse.csr_array(w)
            out, trace = run_dynamics(graph, x0, max_iterations=100, tolerance=0.0)
            rows = anchors.labeled_indices()
            np.testing.assert_array_equal(out[rows], x0[rows])
            assert {0, 1} <= set(trace.degenerate_rows)
            np.testing.assert_array_equal(out[:2], np.eye(m)[:2])

    @pytest.mark.parametrize("shape", [(3,), (3, 2, 1)], ids=["1-d", "3-d"])
    def test_prior_must_be_2d(self, shape):
        with pytest.raises(ShapeMismatch, match="^assignment matrix must be 2-d$"):
            run_dynamics(THREE_NODE_W, np.full(shape, 0.5))

    def test_prior_must_lie_on_the_simplex(self):
        w = np.array([[0, 1], [1, 0.0]])
        with pytest.raises(DataError, match="^prior rows must lie on the simplex"):
            run_dynamics(w, [[-1, 2], [0.5, 0.5]])
        with pytest.raises(NonFinite):
            run_dynamics(w, [[np.nan, 0.5], [0.5, 0.5]])
        run_dynamics(w, [[1 - 5e-10, 0.0], [0.5, 0.5]])  # a row sum within 1e-9 of 1 passes

    def test_config_validation(self):
        x0 = uniform_prior(3, 2)
        with pytest.raises(ConfigError):
            run_dynamics(THREE_NODE_W, x0, max_iterations=0)
        with pytest.raises(ConfigError):
            run_dynamics(THREE_NODE_W, x0, tolerance=-1.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                run_dynamics(THREE_NODE_W, x0, tolerance=bad)


class TestCsrGraph:
    """Every entry point takes the k-NN graph's CSR form and agrees with
    the dense array."""

    @staticmethod
    def sparse_instance(rng, n, m):
        w, x = random_instance(rng, n=n, m=m)
        w[w < 0.6] = 0.0  # keep roughly 40% of the edges
        return w, x

    def test_run_dynamics_matches_dense(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(3, 30))
            w, x = self.sparse_instance(rng, n, int(rng.integers(2, 5)))
            vector = np.full(n, -1)
            vector[[0, n - 1]] = [0, 1]
            anchors = LabelSet(2, vector)
            x0 = inject_anchors(x, anchors)
            dense, dense_trace = run_dynamics(w, x0, max_iterations=200)
            csr, csr_trace = run_dynamics(sparse.csr_array(w), x0, max_iterations=200)
            np.testing.assert_allclose(csr, dense, rtol=0, atol=1e-12)
            np.testing.assert_allclose(csr_trace.functional_values, dense_trace.functional_values, rtol=1e-12)
            assert csr_trace.degenerate_rows == dense_trace.degenerate_rows

    def test_step_support_and_functional_match_dense(self):
        rng = np.random.default_rng(13)
        w, x = self.sparse_instance(rng, 9, 3)
        a, csr_trace = one_step(sparse.csr_array(w), x)
        dense, dense_trace = one_step(w, x)
        for b, db in ((dense, dense_trace.degenerate_rows), replicator_step_elementwise(w, x)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(csr_trace.degenerate_rows, db)
        np.testing.assert_allclose(csr_trace.functional_values, dense_trace.functional_values, rtol=1e-12)

    def test_shape_checks(self):
        with pytest.raises(ShapeMismatch):
            one_step(sparse.csr_array((3, 3)), np.zeros((2, 2)))
        with pytest.raises(ShapeMismatch):
            one_step(sparse.csr_array((3, 2)), np.zeros((3, 2)))


class TestGroupLossValue:
    def test_hand_value(self):
        value = group_loss_value([[1, 0], [0.9, 0.1]], [0, 0])
        assert value == pytest.approx(-(np.log(1.0) + np.log(0.9)) / 2, abs=1e-12)

    def test_perfect_onehots(self):
        assert group_loss_value([[1, 0], [0, 1.0]], [0, 1]) == 0.0

    def test_uniform_binary(self):
        assert group_loss_value([[0.5, 0.5]], [0]) == pytest.approx(np.log(2), abs=1e-12)

    def test_skips_unlabeled_rows(self):
        value = group_loss_value([[0.5, 0.5], [1, 0.0]], [-1, 0])
        assert value == 0.0

    def test_floors_zero_probability(self):
        value = group_loss_value([[1.0, 0.0]], [1])
        assert value == pytest.approx(-np.log(1e-12))

    def test_all_unlabeled(self):
        with pytest.raises(EmptyInput):
            group_loss_value([[0.5, 0.5]], [-1])
