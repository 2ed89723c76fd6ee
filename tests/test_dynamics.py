import numpy as np
import pytest
from scipy import sparse

from transduct import (
    AnchorSet,
    DynamicsConfig,
    consistency_functional,
    group_loss_value,
    inject_anchors,
    replicator_step,
    replicator_step_elementwise,
    run_dynamics,
    support,
    uniform_prior,
)
from transduct.errors import ConfigError, EmptyInput, ShapeMismatch


def random_instance(rng, n=None, m=None):
    n = n or int(rng.integers(2, 20))
    m = m or int(rng.integers(2, 6))
    w = rng.uniform(0, 1, size=(n, n))
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0)
    x = rng.dirichlet(np.ones(m), size=n)
    return w, x


THREE_NODE_W = np.array([[0, 0.9, 0.1], [0.9, 0, 0.1], [0.1, 0.1, 0]])
THREE_NODE_ANCHORS = AnchorSet(((0, 0), (2, 1)))


class TestSupport:
    def test_hand_product(self):
        w = np.array([[0, 1], [1, 0.0]])
        x = np.array([[1, 0], [0.5, 0.5]])
        np.testing.assert_allclose(support(w, x), [[0.5, 0.5], [1, 0]])

    def test_zero_graph(self):
        assert np.all(support(np.zeros((3, 3)), uniform_prior(3, 2)) == 0)

    def test_same_class_onehots(self):
        w = np.array([[0, 1], [1, 0.0]])
        x = np.array([[1, 0], [1, 0.0]])
        np.testing.assert_allclose(support(w, x), [[1, 0], [1, 0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            support(np.zeros((3, 3)), np.zeros((2, 2)))


class TestReplicatorStep:
    def test_hand_case(self):
        w = np.array([[0, 1], [1, 0.0]])
        x = np.array([[1, 0], [0.5, 0.5]])
        out, degen = replicator_step(w, x)
        np.testing.assert_allclose(out, [[1, 0], [1, 0]])
        assert degen.size == 0

    def test_one_hot_rows_are_fixed_points(self):
        w = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0.0]])
        w[2, 0] = w[0, 2] = 0.3
        x = np.array([[1, 0], [1, 0], [1, 0.0]])
        out, _ = replicator_step(w, x)
        np.testing.assert_array_equal(out, x)

    def test_isolated_row_frozen_and_flagged(self):
        w = np.zeros((2, 2))
        w[0, 1] = w[1, 0] = 0.0
        x = np.array([[0.5, 0.5], [0.5, 0.5]])
        out, degen = replicator_step(w, x)
        np.testing.assert_array_equal(out, x)
        assert set(degen.tolist()) == {0, 1}

    def test_row_stochastic_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            w, x = random_instance(rng)
            out, _ = replicator_step(w, x)
            np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
            assert out.min() >= 0 and out.max() <= 1 + 1e-12

    def test_matches_elementwise_form(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            w, x = random_instance(rng, n=int(rng.integers(2, 12)))
            fast, dfast = replicator_step(w, x)
            slow, dslow = replicator_step_elementwise(w, x)
            np.testing.assert_allclose(fast, slow, atol=1e-12)
            np.testing.assert_array_equal(dfast, dslow)

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            w, x = random_instance(rng)
            c = float(rng.uniform(0.01, 100))
            a, _ = replicator_step(w, x)
            b, _ = replicator_step(c * w, x)
            np.testing.assert_allclose(a, b, atol=1e-12)


class TestConsistencyFunctional:
    def test_agreeing_labels(self):
        w = np.array([[0, 1], [1, 0.0]])
        assert consistency_functional(w, [[1, 0], [1, 0]]) == pytest.approx(2.0)

    def test_disjoint_labels(self):
        w = np.array([[0, 1], [1, 0.0]])
        assert consistency_functional(w, [[1, 0], [0, 1]]) == pytest.approx(0.0)

    def test_zero_graph(self):
        assert consistency_functional(np.zeros((4, 4)), uniform_prior(4, 3)) == 0.0

    def test_monotone_under_replicator_updates(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            w, x = random_instance(rng)
            f_prev = consistency_functional(w, x)
            for _ in range(10):
                x, _ = replicator_step(w, x)
                f_next = consistency_functional(w, x)
                assert f_next >= f_prev - 1e-12
                f_prev = f_next


class TestRunDynamics:
    def test_three_node_hand_iteration(self):
        x0 = inject_anchors(uniform_prior(3, 2), THREE_NODE_ANCHORS)
        x1, trace = run_dynamics(
            THREE_NODE_W, x0, DynamicsConfig(fixed_iterations=1), THREE_NODE_ANCHORS
        )
        np.testing.assert_allclose(x1[1], [0.9, 0.1], atol=1e-12)
        x2, _ = run_dynamics(
            THREE_NODE_W, x0, DynamicsConfig(fixed_iterations=2), THREE_NODE_ANCHORS
        )
        np.testing.assert_allclose(x2[1], [0.9878, 0.0122], atol=1e-4)

    def test_three_node_converges_to_anchor_class(self):
        x0 = inject_anchors(uniform_prior(3, 2), THREE_NODE_ANCHORS)
        x, trace = run_dynamics(THREE_NODE_W, x0, DynamicsConfig(), THREE_NODE_ANCHORS)
        assert trace.converged
        np.testing.assert_allclose(x[1], [1, 0], atol=1e-5)

    def test_consistent_onehots_converge_immediately(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        x0 = np.array([[1, 0], [1, 0], [0, 1], [0, 1.0]])
        x, trace = run_dynamics(w, x0, DynamicsConfig())
        assert trace.converged and trace.iterations_used == 1
        np.testing.assert_array_equal(x, x0)

    def test_fixed_iterations_exact_count(self):
        rng = np.random.default_rng(2)
        w, x = random_instance(rng, n=6, m=3)
        _, trace = run_dynamics(w, x, DynamicsConfig(tolerance=0.0, fixed_iterations=3))
        assert trace.iterations_used == 3
        assert not trace.converged

    def test_functional_trace_non_decreasing(self):
        rng = np.random.default_rng(31)
        w, x = random_instance(rng, n=15, m=4)
        _, trace = run_dynamics(w, x, DynamicsConfig(max_iterations=60, tolerance=0))
        values = np.array(trace.functional_values)
        assert np.all(np.diff(values) >= -1e-12)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(8)
        w, x = random_instance(rng, n=12, m=3)
        anchors = AnchorSet(((0, 0), (5, 2)))
        x0 = inject_anchors(x, anchors)
        a, ta = run_dynamics(w, x0, DynamicsConfig(), anchors)
        b, tb = run_dynamics(w, x0, DynamicsConfig(), anchors)
        assert np.array_equal(a, b)
        assert ta.functional_values == tb.functional_values
        assert (ta.iterations_used, ta.converged) == (tb.iterations_used, tb.converged)

    def test_isolated_row_flagged_degenerate(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        x0 = inject_anchors(uniform_prior(3, 2), AnchorSet(((0, 0),)))
        x, trace = run_dynamics(w, x0, DynamicsConfig(), AnchorSet(((0, 0),)))
        assert 2 in trace.degenerate_rows
        np.testing.assert_allclose(x[2], [0.5, 0.5])

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            DynamicsConfig(max_iterations=0)
        with pytest.raises(ConfigError):
            DynamicsConfig(tolerance=-1.0)
        with pytest.raises(ConfigError):
            DynamicsConfig(fixed_iterations=0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                DynamicsConfig(tolerance=bad)


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
            anchors = AnchorSet(((0, 0), (n - 1, 1)))
            x0 = inject_anchors(x, anchors)
            cfg = DynamicsConfig(max_iterations=200)
            dense, dense_trace = run_dynamics(w, x0, cfg, anchors)
            csr, csr_trace = run_dynamics(sparse.csr_array(w), x0, cfg, anchors)
            np.testing.assert_allclose(csr, dense, rtol=0, atol=1e-12)
            np.testing.assert_allclose(csr_trace.functional_values, dense_trace.functional_values, rtol=1e-12)
            assert csr_trace.degenerate_rows == dense_trace.degenerate_rows

    def test_step_support_and_functional_match_dense(self):
        rng = np.random.default_rng(13)
        w, x = self.sparse_instance(rng, 9, 3)
        csr = sparse.csr_array(w)
        np.testing.assert_allclose(support(csr, x), support(w, x), rtol=0, atol=1e-12)
        for fn in (replicator_step, replicator_step_elementwise):
            (a, da), (b, db) = fn(csr, x), fn(w, x)
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(da, db)
        assert consistency_functional(csr, x) == pytest.approx(consistency_functional(w, x), rel=1e-12)

    def test_shape_checks(self):
        with pytest.raises(ShapeMismatch):
            support(sparse.csr_array((3, 3)), np.zeros((2, 2)))
        with pytest.raises(ShapeMismatch):
            support(sparse.csr_array((3, 2)), np.zeros((3, 2)))


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
