import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order

from transduct import (
    BlobSpec,
    LabelSet,
    baselines,
    handle_negatives,
    harmonic_function,
    kmeans,
    knn_graph,
    label_propagation,
    label_spreading,
    make_synthetic,
    pearson_matrix,
)
from transduct.baselines import lloyd
from transduct.core import DENSE_PRODUCT_FLIP, check_graph, squared_norms, unreached
from transduct.errors import ConfigError, DataError, NumericalError

from oracles import harmonic_full_system, kmeans_per_centroid, label_spreading_closed_form, lloyd_per_centroid

CHAIN_W = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0.0]])
CHAIN_LABELS = LabelSet(2, [0, -1, 1])


def random_connected_graph(rng, n):
    """Random weights on a random spanning tree plus extra edges."""
    w = np.zeros((n, n))
    order = rng.permutation(n)
    for a, b in zip(order[:-1], order[1:]):
        w[a, b] = w[b, a] = rng.uniform(0.2, 1.0)
    extra = rng.integers(0, n)
    for _ in range(int(extra)):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            weight = rng.uniform(0.2, 1.0)
            w[i, j] = w[j, i] = weight
    return w


#: Vertices of the graphs whose products with 3 label columns take the
#: turned-round branch of ``core.graph_product`` (n·n·m > 1e6).
LARGE_N = 640


def large_symmetric_graph(rng, n):
    """A dense symmetric graph, every weight in [0.01, 1), no self-loops."""
    w = rng.uniform(0.01, 1.0, size=(n, n))
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    return w


def large_labels():
    """Three anchors of three classes among ``LARGE_N`` vertices."""
    vector = np.full(LARGE_N, -1)
    vector[[5, 300, 600]] = [0, 1, 2]
    assert LARGE_N * LARGE_N * 3 > DENSE_PRODUCT_FLIP
    return LabelSet(3, vector)


class TestLabelSpreading:
    def test_two_node_closed_form(self):
        w = np.array([[0, 1], [1, 0.0]])
        labels = LabelSet(2, [0, -1])
        raw = label_spreading_closed_form(w, labels, alpha=0.5)
        np.testing.assert_allclose(raw, [[2 / 3, 0], [1 / 3, 0]], atol=1e-12)
        x, meta = label_spreading(w, labels, alpha=0.5, tolerance=1e-13, max_iterations=10_000)
        assert meta["converged"]
        # the raw scores are the assignment times the oracle's row sums
        np.testing.assert_allclose(x * raw.sum(axis=1, keepdims=True), raw, atol=1e-10)
        assert x.argmax(axis=1).tolist() == [0, 0]

    def test_alpha_to_zero_recovers_labels(self):
        w = np.array([[0, 1], [1, 0.0]])
        labels = LabelSet(2, [0, 1])
        x, _ = label_spreading(w, labels, alpha=1e-9)
        np.testing.assert_allclose(x, [[1, 0], [0, 1]], atol=1e-6)

    def test_isolated_unlabeled_vertex_uniform_and_flagged(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        labels = LabelSet(2, [0, -1, -1])
        x, _ = label_spreading(w, labels, alpha=0.5)
        assert unreached(w, labels).tolist() == [2]
        np.testing.assert_allclose(x[2], [0.5, 0.5])

    def test_iterative_matches_closed_form_on_random_graphs(self):
        rng = np.random.default_rng(101)
        cfg = dict(alpha=0.9, tolerance=1e-13, max_iterations=50_000)
        for _ in range(10):
            n = int(rng.integers(4, 15))
            w = random_connected_graph(rng, n)
            labels = np.full(n, -1)
            labels[rng.choice(n, size=2, replace=False)] = [0, 1]
            ls = LabelSet(2, labels)
            x, _ = label_spreading(w, ls, **cfg)
            oracle = label_spreading_closed_form(w, ls, alpha=0.9)
            np.testing.assert_allclose(x * oracle.sum(axis=1, keepdims=True), oracle, atol=1e-8)

    def test_iterative_matches_closed_form_above_the_product_rule(self):
        labels = large_labels()
        w = large_symmetric_graph(np.random.default_rng(102), LARGE_N)
        x, meta = label_spreading(w, labels, alpha=0.9, tolerance=1e-13, max_iterations=50_000)
        assert meta["converged"]
        oracle = label_spreading_closed_form(w, labels, alpha=0.9)
        np.testing.assert_allclose(x * oracle.sum(axis=1, keepdims=True), oracle, atol=1e-8)

    def test_needs_labels(self):
        with pytest.raises(DataError):
            label_spreading(CHAIN_W, LabelSet(2, [-1, -1, -1]))
        for empty in (np.zeros((0, 0)), sparse.csr_array((0, 0))):
            for method in (label_spreading, label_propagation, harmonic_function):
                with pytest.raises(DataError):
                    method(empty, LabelSet(2, []))

    def test_alpha_range(self):
        with pytest.raises(ConfigError):
            label_spreading(CHAIN_W, CHAIN_LABELS, alpha=1.0)


class TestHarmonicFunction:
    def test_chain_average(self):
        x = harmonic_function(CHAIN_W, CHAIN_LABELS)
        np.testing.assert_allclose(x[1], [0.5, 0.5], atol=1e-12)
        np.testing.assert_array_equal(x[0], [1, 0])
        np.testing.assert_array_equal(x[2], [0, 1])

    def test_star_neighbor_average(self):
        w = np.zeros((4, 4))
        w[0, 1:] = w[1:, 0] = 1.0
        labels = LabelSet(2, [-1, 0, 0, 1])
        x = harmonic_function(w, labels)
        np.testing.assert_allclose(x[0], [2 / 3, 1 / 3], atol=1e-12)

    def test_unreachable_unlabeled_rows_uniform(self):
        """The system is solved on the reached vertices only; a vertex
        with no path to a label gets the uniform row."""
        w = np.zeros((5, 5))
        w[0, 1] = w[1, 0] = 1.0
        w[3, 4] = w[4, 3] = 1.0
        x = harmonic_function(w, LabelSet(2, [0, -1, -1, -1, -1]))
        np.testing.assert_array_equal(x, [[1, 0], [1, 0], [0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])

    @pytest.mark.parametrize("form", [np.asarray, sparse.csr_array], ids=["dense", "csr"])
    def test_no_out_edge_path_to_an_anchor_is_unreached(self, form):
        """A label flows into a vertex only along its out-edges. Vertex 1
        of the first graph has the in-edge 0 -> 1 and no edge out; vertices
        2 and 3 of the second have in-edges from 0 and no edge out. Each is
        unreached and uniform, and 0's row averages the anchor's with
        their uniform rows."""
        w = np.zeros((3, 3))
        w[0, 1] = w[0, 2] = w[2, 0] = 1.0
        labels = LabelSet(2, [0, -1, -1])
        assert unreached(form(w), labels).tolist() == [1]
        np.testing.assert_array_equal(harmonic_function(form(w), labels), [[1, 0], [0.5, 0.5], [1, 0]])
        w = np.array([[0, 1, 1, 1], [1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0.0]])
        x = harmonic_function(form(w), LabelSet(2, [-1, 0, -1, -1]))
        np.testing.assert_allclose(x, [[2 / 3, 1 / 3], [1, 0], [0.5, 0.5], [0.5, 0.5]], rtol=0, atol=1e-15)

    def test_unlabeled_rows_stay_on_simplex(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(4, 12))
            w = random_connected_graph(rng, n)
            labels = np.full(n, -1)
            labels[rng.choice(n, size=3, replace=False)] = [0, 1, 2]
            x = harmonic_function(w, LabelSet(3, labels))
            assert x.min() >= -1e-9 and x.max() <= 1 + 1e-9
            np.testing.assert_allclose(x.sum(axis=1), 1.0, atol=1e-9)


class TestHarmonicSolve:
    """Which solve ``harmonic_function`` takes, and what each one gives."""

    @pytest.fixture
    def direct_calls(self, monkeypatch):
        """Records every call to the direct solve, which still runs."""
        calls = []
        direct = baselines._direct_solve

        def spy(*args):
            calls.append(args)
            return direct(*args)

        monkeypatch.setattr(baselines, "_direct_solve", spy)
        return calls

    @pytest.mark.parametrize("form", [np.asarray, sparse.csr_array], ids=["dense", "csr"])
    def test_conjugate_gradient_matches_the_full_system(self, form, direct_calls):
        rng = np.random.default_rng(301)
        for _ in range(25):
            n = int(rng.integers(4, 60))
            w = random_connected_graph(rng, n)
            labels = np.full(n, -1)
            labels[rng.choice(n, size=3, replace=False)] = [0, 1, 2]
            labels = LabelSet(3, labels)
            np.testing.assert_allclose(harmonic_function(form(w), labels), harmonic_full_system(w, labels), rtol=0, atol=1e-12)
        assert direct_calls == []

    def test_conjugate_gradient_matches_the_full_system_above_the_product_rule(self, direct_calls):
        labels = large_labels()
        w = large_symmetric_graph(np.random.default_rng(304), LARGE_N)
        np.testing.assert_allclose(harmonic_function(w, labels), harmonic_full_system(w, labels), rtol=0, atol=1e-12)
        assert direct_calls == []

    @pytest.mark.parametrize("form", [np.asarray, sparse.csr_array], ids=["dense", "csr"])
    def test_weighted_path_exhausts_the_budget_and_falls_back(self, form, direct_calls):
        """Between anchors at its two ends a path's harmonic values are
        linear in the resistance 1/w walked from the first end; conjugate
        gradients need about one step per vertex there."""
        n = 4 * baselines.CG_MAX_STEPS
        weights = np.random.default_rng(302).uniform(0.2, 1.0, n - 1)
        w = np.zeros((n, n))
        w[np.arange(n - 1), np.arange(1, n)] = w[np.arange(1, n), np.arange(n - 1)] = weights
        labels = np.full(n, -1)
        labels[[0, -1]] = [0, 1]
        x = harmonic_function(form(w), LabelSet(2, labels))
        assert len(direct_calls) == 1
        walked = np.r_[0.0, np.cumsum(1.0 / weights)] / np.sum(1.0 / weights)
        np.testing.assert_allclose(x, np.column_stack([1.0 - walked, walked]), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("form", [np.asarray, sparse.csr_array], ids=["dense", "csr"])
    def test_a_singular_system_is_a_numerical_error(self, form):
        """Vertices 2 and 3 are joined only to each other, so their two
        rows of the scaled system, [1, -1] and [-1, 1], are dependent:
        numpy's LinAlgError (dense), or spsolve's NaN rows and warning or
        its RuntimeError (CSR), become one error. ``harmonic_function``
        never solves such a system: it leaves those vertices unreached."""
        w = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0.0]])
        u = np.array([1, 2, 3])
        with pytest.raises(NumericalError, match="^harmonic labeling: the grounded Laplacian is singular$"):
            baselines._direct_solve(check_graph(form(w), 4, "x"), u, w.sum(axis=1)[u], np.ones((3, 2)))

    @pytest.mark.parametrize("form", [np.asarray, sparse.csr_array], ids=["dense", "csr"])
    def test_a_subnormal_pivot_gives_the_exact_answer(self, form):
        """Rows 1 and 2 reach anchor 0 through the subnormal weight 9e-311.
        Unscaled, LU on their system overflows at that pivot and returns
        inf and NaN rows; divided by its degree, that row is [-1, 1] and
        the answer is the exact rational one."""
        w = np.zeros((4, 4))
        w[0, 3], w[1, 2], w[2, 0], w[3, 0] = 0.1, 0.8, 9e-311, 4e-311
        x = harmonic_function(form(w), LabelSet(2, [0, -1, -1, 1]))
        np.testing.assert_array_equal(x, [[1, 0], [1, 0], [1, 0], [0, 1]])

    @pytest.mark.parametrize("form", [np.asarray, sparse.csr_array], ids=["dense", "csr"])
    def test_subnormal_row_weights_give_the_exact_answer(self, form):
        """Vertex 3's weights, 2e-311 to 5e-311, barely count in the
        residual's 2-norm: conjugate gradients meet their tolerance with
        row 3 at [0.18, 0], which is not accepted. The degree-scaled
        direct solve returns the exact rational answer."""
        w = np.zeros((5, 5))
        for (i, j), weight in {(0, 1): 0.7, (0, 2): 0.8, (0, 3): 2e-311, (0, 4): 7e-311, (1, 3): 5e-311,
                               (1, 4): 1e-310, (2, 3): 4e-311}.items():
            w[i, j] = w[j, i] = weight
        x = harmonic_function(form(w), LabelSet(2, [0, -1, -1, -1, 1]))
        np.testing.assert_array_equal(x, [[1, 0], [1, 1.4285714285714e-310], [1, 0], [1, 6.4935064935067e-311], [0, 1]])

    def test_subnormal_weights_give_rows_on_the_simplex_or_an_error(self):
        """Random graphs, half of them symmetric and a third CSR, with
        each weight scaled by 1e-310 with probability 1/2: about one in
        eight gave a row off the simplex before the answers were checked."""
        rng = np.random.default_rng(1)
        for _ in range(300):
            n = int(rng.integers(2, 30))
            w = rng.uniform(0.1, 1.0, (n, n)) * (rng.random((n, n)) < 0.4)
            w *= np.where(rng.random((n, n)) < 0.5, 1e-310, 1.0)
            if rng.random() < 0.5:
                w = np.triu(w, 1) + np.triu(w, 1).T
            np.fill_diagonal(w, 0.0)
            labels = np.where(rng.random(n) < 0.3, rng.integers(0, 2, n), -1)
            labels[rng.integers(n)] = rng.integers(0, 2)
            form = sparse.csr_array if rng.random() < 1 / 3 else np.asarray
            try:
                x = harmonic_function(form(w), LabelSet(2, labels))
            except NumericalError:
                continue
            assert x.min() >= -1e-9 and np.abs(x.sum(axis=1) - 1.0).max() <= 1e-9

    @pytest.mark.parametrize("scale", [1e200, 2.0**600, 1e300], ids=["1e200", "2^600", "1e300"])
    @pytest.mark.parametrize("form", [np.asarray, sparse.csr_array], ids=["dense", "csr"])
    def test_weights_near_the_float64_limit_give_the_unscaled_answer(self, form, scale):
        """The squares in the conjugate-gradient norms overflow at these
        scales; the system then takes the direct solve, with no warning
        and no row off the simplex."""
        graph, _ = knn_graph(np.random.default_rng(305).normal(size=(50, 8)), 5)
        knn_labels = np.full(50, -1)
        knn_labels[::10] = [0, 1, 2, 0, 1]
        for w, labels in ((CHAIN_W, CHAIN_LABELS), (graph.to_scipy().toarray(), LabelSet(3, knn_labels))):
            np.testing.assert_allclose(
                harmonic_function(form(w * scale), labels), harmonic_function(w, labels), rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("form", [np.asarray, sparse.csr_array], ids=["dense", "csr"])
    def test_asymmetric_graph_matches_the_full_system(self, form):
        rng = np.random.default_rng(303)
        w = random_connected_graph(rng, 30)
        w[0, 1] += 0.5
        labels = np.full(30, -1)
        labels[[2, 3]] = [0, 1]
        labels = LabelSet(2, labels)
        x = harmonic_function(form(w), labels)
        np.testing.assert_allclose(x, harmonic_full_system(w, labels), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("form", [np.asarray, sparse.csr_array], ids=["dense", "csr"])
    def test_asymmetric_graph_takes_an_accepted_conjugate_gradient_answer(self, form, direct_calls):
        """Vertices 2..11 point only at anchors 0 and 1, so W_uu = 0 and
        one step solves the diagonal system; anchor 0 points back at
        vertices 2..6 alone, so the graph is asymmetric."""
        n = 12
        w = np.zeros((n, n))
        w[2:, :2] = np.random.default_rng(306).uniform(0.1, 1.0, (n - 2, 2))
        w[0, 2:7] = 0.5
        x = harmonic_function(form(w), LabelSet(2, [0, 1] + [-1] * (n - 2)))
        assert direct_calls == []
        np.testing.assert_array_equal(x[:2], np.eye(2))
        np.testing.assert_array_equal(x[2:], w[2:, :2] / w[2:, :2].sum(axis=1, keepdims=True))


class TestLabelPropagation:
    def test_chain_matches_harmonic(self):
        x, meta = label_propagation(CHAIN_W, CHAIN_LABELS, tolerance=1e-10, max_iterations=10_000)
        assert meta["converged"]
        np.testing.assert_allclose(x[1], [0.5, 0.5], atol=1e-6)

    def test_fully_labeled_identity(self):
        x, meta = label_propagation(CHAIN_W, LabelSet(2, [0, 1, 0]))
        np.testing.assert_array_equal(x, [[1, 0], [0, 1], [1, 0]])
        assert meta["converged"]

    def test_two_cliques_adopt_their_own_label(self):
        w = np.zeros((6, 6))
        for i, j in itertools.combinations(range(3), 2):
            w[i, j] = w[j, i] = 1.0
        for i, j in itertools.combinations(range(3, 6), 2):
            w[i, j] = w[j, i] = 1.0
        labels = LabelSet(2, [0, -1, -1, 1, -1, -1])
        x, _ = label_propagation(w, labels, tolerance=1e-12, max_iterations=10_000)
        assert x.argmax(axis=1).tolist() == [0, 0, 0, 1, 1, 1]

    def test_agrees_with_harmonic_on_random_graphs(self):
        rng = np.random.default_rng(55)
        cfg = dict(tolerance=1e-12, max_iterations=50_000)
        for _ in range(10):
            n = int(rng.integers(4, 15))
            w = random_connected_graph(rng, n)
            labels = np.full(n, -1)
            labels[rng.choice(n, size=2, replace=False)] = [0, 1]
            ls = LabelSet(2, labels)
            x, meta = label_propagation(w, ls, **cfg)
            assert meta["converged"]
            np.testing.assert_allclose(x, harmonic_function(w, ls), atol=1e-6)


class TestCsrGraph:
    """The baselines take the k-NN graph's CSR form and agree with the
    dense array."""

    @staticmethod
    def instances(seed, count=15):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n = int(rng.integers(4, 40))
            w = random_connected_graph(rng, n)
            labels = np.full(n, -1)
            labels[rng.choice(n, size=3, replace=False)] = [0, 1, 2]
            yield w, LabelSet(3, labels)

    def test_label_spreading(self):
        for w, labels in self.instances(201):
            dense, dense_meta = label_spreading(w, labels, alpha=0.9)
            csr, csr_meta = label_spreading(sparse.csr_array(w), labels, alpha=0.9)
            np.testing.assert_allclose(csr, dense, rtol=0, atol=1e-12)
            assert csr_meta["iterations"] == dense_meta["iterations"]
            tight, _ = label_spreading(sparse.csr_array(w), labels, alpha=0.9, tolerance=1e-13, max_iterations=50_000)
            oracle = label_spreading_closed_form(w, labels, alpha=0.9)
            np.testing.assert_allclose(tight * oracle.sum(axis=1, keepdims=True), oracle, atol=1e-8)

    def test_label_propagation(self):
        cfg = dict(max_iterations=300)
        for w, labels in self.instances(202):
            dense, dense_meta = label_propagation(w, labels, **cfg)
            csr, csr_meta = label_propagation(sparse.csr_array(w), labels, **cfg)
            np.testing.assert_allclose(csr, dense, rtol=0, atol=1e-12)
            assert csr_meta == dense_meta

    def test_harmonic_function(self):
        for w, labels in self.instances(203):
            np.testing.assert_allclose(
                harmonic_function(sparse.csr_array(w), labels), harmonic_function(w, labels), rtol=0, atol=1e-12
            )

    def test_checks_apply_to_csr(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        x = harmonic_function(sparse.csr_array(w), LabelSet(2, [0, -1, -1]))
        np.testing.assert_array_equal(x, [[1, 0], [1, 0], [0.5, 0.5]])
        with pytest.raises(DataError):
            label_propagation(sparse.csr_array(-CHAIN_W), CHAIN_LABELS)

    def test_config_rejects_non_finite_tolerance(self):
        for bad in (float("nan"), float("inf")):
            for method in (label_spreading, label_propagation):
                with pytest.raises(ConfigError):
                    method(CHAIN_W, CHAIN_LABELS, tolerance=bad)


class TestLabeledComponents:
    """``core.unreached`` gives the same orphan list as scipy's
    breadth-first search on W^T from each anchor, kept here as the
    oracle: a label flows into vertex i along the edges i -> j with
    w_ij > 0, so i is reached when W has a path from i to an anchor. On
    a symmetric graph that is the anchors' connected components."""

    @staticmethod
    def check(w, labels):
        into = sparse.csr_array((w != 0).T)
        reached = np.zeros(labels.labels.size, dtype=bool)
        for anchor in labels.labeled_indices():
            reached[breadth_first_order(into, anchor, return_predecessors=False)] = True
        orphans = np.flatnonzero(~reached)
        np.testing.assert_array_equal(unreached(w, labels), orphans)
        return orphans.size > 0

    @staticmethod
    def forms(rng, w):
        """The graph dense, as CSR, and as CSR storing extra explicit zeros."""
        padded = sparse.csr_array(np.where((rng.random(w.shape) < 0.2) & (w == 0), 2.0, w))
        padded.data[padded.data == 2.0] = 0.0
        return w, sparse.csr_array(w), padded

    @pytest.mark.parametrize("n_max", [1, 3, 256])
    def test_random_graphs_match_connected_components(self, n_max):
        """Symmetric and asymmetric graphs of 1 to ``n_max`` vertices, with
        weights from subnormal to near the float64 maximum: a product with
        the 0/1 frontier is positive exactly where an edge leads into it."""
        rng = np.random.default_rng(301)
        verdicts = set()
        for _ in range(300):
            n = int(rng.integers(1, n_max + 1))
            density = rng.choice([0.0, 0.02, 0.05, 0.1, 0.3])
            scale = rng.choice([1e-310, 1.0, 1e300])
            w = np.where(rng.random((n, n)) < density, scale * rng.uniform(0.1, 1.0, (n, n)), 0.0)
            if rng.random() < 0.5:
                w = np.maximum(w, w.T)
            labels = np.full(n, -1)
            picked = rng.choice(n, size=int(rng.integers(0, min(n, 4) + 1)), replace=False)
            labels[picked] = rng.integers(0, 2, picked.size)
            for form in self.forms(rng, w):
                verdicts.add(self.check(form, LabelSet(2, labels)))
        assert verdicts == {True, False}

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_frontier_wider_than_a_block(self, symmetric):
        """A labeled hub whose frontier holds 306 vertices (about half of
        them once each edge has a random direction); each hub vertex has a
        leaf, and a separate component has no label. With a label in that
        component too, the symmetric graph has no orphan, while the
        directed one keeps as orphans the hub vertices whose only edge
        with the hub points into them, and their leaves."""
        rng = np.random.default_rng(302)
        hub = 306
        n = 2 * hub + 1 + 20
        w = np.zeros((n, n))
        w[0, 1:hub + 1] = 1.0
        w[np.arange(1, hub + 1), np.arange(hub + 1, 2 * hub + 1)] = 0.5
        w[2 * hub + 1:, 2 * hub + 1:] = 0.25
        if symmetric:
            w = np.maximum(w, w.T)
        else:
            flip = rng.random((n, n)) < 0.5
            w = np.where(flip, 0.0, w) + np.where(flip, w, 0.0).T
        labels = np.full(n, -1)
        labels[0] = 0
        for form in self.forms(rng, w):
            assert self.check(form, LabelSet(2, labels))
        labels[n - 1] = 1
        for form in self.forms(rng, w):
            assert self.check(form, LabelSet(2, labels)) == (not symmetric)


@pytest.fixture(scope="module")
def blob_graph():
    """A clamped Pearson graph of four blobs at n=2000, d=64, 2% labeled."""
    n = 2000
    rng = np.random.default_rng(0)
    truth = rng.integers(0, 4, n)
    w = handle_negatives(pearson_matrix(rng.normal(0, 3, (4, 64))[truth] + rng.normal(0, 2.5, (n, 64)))[0], "clamp")
    labels = np.full(n, -1)
    picked = rng.choice(n, n // 50, replace=False)
    labels[picked] = truth[picked]
    return w, LabelSet(4, labels)


@pytest.mark.parametrize("method", [
    lambda w, labels: label_spreading(w, labels, max_iterations=5),
    lambda w, labels: label_propagation(w, labels, max_iterations=5),
    harmonic_function,
], ids=["label_spreading", "label_propagation", "harmonic"])
def test_dense_baselines_hold_little_beyond_the_graph(blob_graph, method):
    """Traced memory a dense baseline holds beyond the graph is under half
    of one 8·n² matrix; a scaled or converted copy of the graph costs 1."""
    w, labels = blob_graph
    tracemalloc.start()
    try:
        method(w, labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8 * w.shape[0] ** 2


def brute_force_kmeans(points, k):
    """Exhaustive search over assignments; optimal WCSS."""
    n = points.shape[0]
    best = np.inf
    for assign in itertools.product(range(k), repeat=n):
        assign = np.array(assign)
        wcss = 0.0
        for c in range(k):
            members = points[assign == c]
            if len(members):
                wcss += float(np.sum((members - members.mean(axis=0)) ** 2))
        best = min(best, wcss)
    return best


def planned_lloyd(points, start, max_iterations):
    """``lloyd`` on the plan ``kmeans`` makes: the points' squared norms,
    an n x d scratch buffer and a k x n distance block."""
    d2 = np.empty((len(start), len(points)))
    return lloyd(points, squared_norms(points), start, np.empty_like(points), d2, max_iterations)


def wcss_of(points, assign):
    total = 0.0
    for c in np.unique(assign):
        members = points[assign == c]
        total += float(np.sum((members - members.mean(axis=0)) ** 2))
    return total


class TestKmeans:
    def test_two_obvious_clusters(self):
        points = np.array([[0.0], [0.1], [10.0], [10.1]])
        assign = kmeans(points, 2, seed=3)
        assert assign[0] == assign[1] and assign[2] == assign[3] and assign[0] != assign[2]

    def test_k_equals_n(self):
        points = np.array([[0.0], [1.0], [2.0]])
        assign = kmeans(points, 3, seed=0)
        assert len(set(assign.tolist())) == 3
        assert wcss_of(points, assign) == 0.0

    def test_k_equals_one(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(6, 2))
        assign = kmeans(points, 1, seed=0)
        assert set(assign.tolist()) == {0}

    def test_wcss_non_increasing_across_lloyd_iterations(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            points = rng.normal(size=(15, 2))
            centroids = points[rng.choice(15, size=3, replace=False)]
            # lloyd returns only the final WCSS: rerun it from the same
            # start for 1, 2, ... iterations until the assignment repeats
            history, previous = [], None
            for iterations in range(1, 301):
                assign, _, wcss = planned_lloyd(points, centroids, iterations)
                history.append(wcss)
                if np.array_equal(assign, previous):
                    break
                previous = assign
            assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

    def test_matches_exhaustive_optimum_on_small_instances(self):
        rng = np.random.default_rng(77)
        for trial in range(10):
            n = int(rng.integers(4, 9))
            k = int(rng.integers(2, 4))
            points = rng.normal(size=(n, 2))
            assign = kmeans(points, k, seed=trial)
            assert wcss_of(points, assign) == pytest.approx(brute_force_kmeans(points, k), abs=1e-9)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        points = rng.normal(size=(30, 3))
        a = kmeans(points, 4, seed=5)
        b = kmeans(points, 4, seed=5)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("points", [
        np.zeros((5, 2)),
        np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]]),
    ], ids=["identical-rows", "two-duplicate-pairs"])
    def test_fewer_distinct_points_than_k(self, points):
        # k-means++ runs out of distance mass to draw from and Lloyd re-seeds
        # an empty cluster; with fewer distinct points than k a cluster can
        # still end empty, so only the label range is asserted
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = kmeans(points, 3, seed=6)
            b = kmeans(points, 3, seed=6)
        assert a.shape == (len(points),) and 0 <= a.min() and a.max() < 3
        np.testing.assert_array_equal(a, b)


def near_tie_draws(kind, seed, count=40):
    """(points, k, start centroids) on a grid of multiples of 0.3, which
    floats hold inexactly, drawn so that k-means meets exact and near
    ties: duplicated rows; points on the bisector of two start centroids,
    one the other with its first two coordinates swapped, so that the two
    distances sum the same terms in another order; and fewer distinct
    points than clusters, whose empty clusters the repair re-seeds."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, d, k = int(rng.integers(6, 40)), int(rng.integers(2, 10)), int(rng.integers(2, 6))

        def grid(*shape):
            return rng.integers(-30, 31, size=shape) * 0.3

        if kind == "grid-duplicates":
            points = grid(n, d)
            points = np.concatenate([points, points[rng.integers(0, n, size=n // 2)]])
            start = points[rng.choice(len(points), size=k, replace=False)]
        elif kind == "equidistant":
            points = grid(n, d)
            points[:, 1] = points[:, 0]
            start = grid(k, d)
            start[1] = start[0]
            start[1, :2] = start[0, 1::-1]
        else:
            distinct = grid(k - 1, d)
            points = distinct[rng.integers(0, k - 1, size=n)]
            start = points[rng.integers(0, n, size=k)]
        yield points, k, start


@pytest.mark.parametrize("scale", [1.0, 2.0**-540, 2.0**500], ids=["unit", "subnormal-squares", "huge"])
@pytest.mark.parametrize("kind", ["grid-duplicates", "equidistant", "fewer-points-than-clusters"])
def test_lloyd_and_kmeans_keep_the_per_centroid_bits(kind, scale):
    """The product form with its exact recheck picks what the per-centroid
    subtract, square and row sum picks, so the assignment, centroids and
    WCSS keep their bits, on near ties and at both ends of the exponent
    range. Without the recheck the equidistant and repair draws differ;
    at 2^-540 the squares are subnormal and only the bound's absolute
    term covers their rounding."""
    for i, (points, k, start) in enumerate(near_tie_draws(kind, seed=len(kind))):
        points, start = points * scale, start * scale
        # repairs can cycle without converging: 40 steps hold many of them
        assign, centroids, wcss = planned_lloyd(points, start, 40)
        want_assign, want_centroids, want_wcss = lloyd_per_centroid(points, start, 40)
        np.testing.assert_array_equal(assign, want_assign)
        np.testing.assert_array_equal(centroids, want_centroids)
        assert wcss == want_wcss
        if i % 10 == 0:
            np.testing.assert_array_equal(kmeans(points, k, seed=i), kmeans_per_centroid(points, k, seed=i))


def counted(monkeypatch, name):
    """Wrap ``baselines.<name>`` for this test; the list returned gets
    one entry per call."""
    calls, real = [], getattr(baselines, name)

    def wrapper(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(baselines, name, wrapper)
    return calls


def test_lloyd_skips_the_whole_periods_of_a_cycle(monkeypatch):
    """13 copies of one row with both start centroids on it: the mean of
    the copies misses the row by an ulp in some coordinates, so every
    step moves all points to the centroid that is exactly the row, and
    the repair re-seeds the emptied cluster with point 0. The assignment
    alternates, so it never repeats on consecutive steps; the loop sees
    the cycle within a few steps and returns the bits of all 300."""
    points = np.tile(np.arange(1, 9) * 0.3, (13, 1))
    nearest = counted(monkeypatch, "_nearest")
    assign, centroids, wcss = planned_lloyd(points, points[:2], 300)
    want_assign, want_centroids, want_wcss = lloyd_per_centroid(points, points[:2], 300)
    np.testing.assert_array_equal(assign, want_assign)
    np.testing.assert_array_equal(centroids, want_centroids)
    assert wcss == want_wcss
    assert len(nearest) <= 5


@pytest.mark.parametrize("kind", ["grid-duplicates", "equidistant", "fewer-points-than-clusters"])
def test_skipped_cycles_keep_the_per_centroid_bits_at_every_cap(kind):
    """A skip lands where the unskipped loop would stop. Of these draws,
    the repair ones cycle with period 2 or 6, and the caps stop them at
    six of period 6's phases and both of period 2's."""
    for points, k, start in itertools.islice(near_tie_draws(kind, seed=len(kind)), 0, None, 10):
        for cap in (1, 2, 3, 39, 40, 41, 300, 301):
            assign, centroids, wcss = planned_lloyd(points, start, cap)
            want_assign, want_centroids, want_wcss = lloyd_per_centroid(points, start, cap)
            np.testing.assert_array_equal(assign, want_assign)
            np.testing.assert_array_equal(centroids, want_centroids)
            assert wcss == want_wcss


def test_kmeans_computes_the_norms_once(monkeypatch):
    """The norms, and with them the overflow check, are planned once per
    call, not once more by each of the ten restarts."""
    norms = counted(monkeypatch, "squared_norms")
    kmeans(np.random.default_rng(5).normal(size=(50, 3)), 3, seed=0)
    assert len(norms) == 1


@pytest.mark.parametrize("order", ["shuffled", "by-class"])
def test_kmeans_holds_one_scratch_copy_of_the_points(order):
    """The seeding, every restart's rechecks, empty-cluster repairs and
    WCSS share one n x d buffer; beside it only a cluster's member rows
    are copied, for its mean. Three n x d arrays at once would fail."""
    points = make_synthetic(BlobSpec(blobs=4, per_blob=1000, dim=64, stddev=2.5), 2)[0].data
    if order == "shuffled":
        points = points[np.random.default_rng(2).permutation(len(points))]
    tracemalloc.start()
    try:
        kmeans(points, 4, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * points.nbytes
