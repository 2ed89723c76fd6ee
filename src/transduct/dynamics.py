"""Replicator-dynamics refinement of label assignments on a similarity graph.

The update is multiplicative and stays on the simplex: each row of X is
reweighted by the support its classes receive from similar samples and
renormalized. For a non-negative symmetric W this monotonically increases
the quadratic consistency functional (Baum-Eagon inequality), so the
iteration behaves like an ascent method with an implicit step size.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LabelSet, check_graph, check_settings, iterate, normalize_rows
from .errors import EmptyInput, ShapeMismatch
from .priors import inject_anchors

#: Probability floor used before taking logs in the cross-entropy readout.
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class DynamicsTrace:
    """Per-run diagnostics: consistency values, iteration count, degeneracies."""

    functional_values: list[float]
    iterations_used: int
    converged: bool
    degenerate_rows: tuple[int, ...]


def _check_shapes(w, x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeMismatch("assignment matrix must be 2-d")
    return check_graph(w, x.shape[0], "assignment matrix"), x


def _refine(x, pi):
    """One multiplicative reweighting of x by its support pi.

    Rows whose reweighted mass is zero (isolated vertices, or support
    vanishing on the row's surviving classes) cannot be normalized; they
    are frozen as-is and reported instead of dividing by zero.
    """
    out, degenerate = normalize_rows(x * pi)
    if degenerate.size:
        out[degenerate] = x[degenerate]
    return out, degenerate


def replicator_step(w, x) -> tuple[np.ndarray, np.ndarray]:
    """One discrete replicator update in matrix form.

    Computes X' = Q^{-1} [X (.) WX] where (.) is the Hadamard product and
    Q holds the row sums of X (.) WX, i.e. each entry is multiplied by its
    support and the row renormalized. Returns the updated row-stochastic
    matrix and the indices of degenerate (frozen) rows.
    """
    w, x = _check_shapes(w, x)
    return _refine(x, w @ x)


def consistency_functional(w, x) -> float:
    """Quadratic consistency of an assignment: sum_ij w_ij <x_i, x_j>.

    Rewards similar samples placing mass on the same classes; the
    replicator update never decreases it for non-negative symmetric W.
    """
    w, x = _check_shapes(w, x)
    return float(np.sum((w @ x) * x))


def run_dynamics(
    w,
    x0,
    anchors: LabelSet | None = None,
    *,
    max_iterations: int = 100,
    tolerance: float = 1e-6,
) -> tuple[np.ndarray, DynamicsTrace]:
    """Iterate replicator steps from x0 until one step moves the
    assignment by less than ``tolerance`` in L1, or ``max_iterations``
    steps have run.

    The trace records the consistency functional at every visited
    assignment (including x0 and the final state), the iteration count, a
    convergence flag and the union of degenerate rows seen. With
    ``tolerance=0`` exactly ``max_iterations`` steps run and ``converged``
    is False, since no L1 change is below 0: that is the fixed-step
    refinement (``group_loss``). Anchored rows are exact fixed points of
    the update; they are pinned to their one-hot labels at the start
    (``inject_anchors``) and re-pinned after every step anyway, so float
    drift on very long runs cannot move them.

    The loop is deterministic: identical inputs produce bit-identical
    iterates and traces.
    """
    check_settings(max_iterations=max_iterations, tolerance=tolerance)
    w, x = _check_shapes(w, x0)
    if anchors is not None:
        x = inject_anchors(x, anchors)
        pinned = anchors.labeled_indices()
        onehots = x[pinned]
    functional_values: list[float] = []
    degenerate: set[int] = set()

    def step(x):
        pi = w @ x
        functional_values.append(float(np.sum(x * pi)))
        x_next, degen = _refine(x, pi)
        degenerate.update(int(i) for i in degen)
        if anchors is not None:
            x_next[pinned] = onehots
        return x_next

    x, iterations, converged = iterate(step, x, max_iterations, tolerance)
    functional_values.append(float(np.sum((w @ x) * x)))
    return x, DynamicsTrace(functional_values, iterations, converged, tuple(sorted(degenerate)))


def group_loss_value(x_final, truth_labels) -> float:
    """Mean cross-entropy of the refined assignments against known labels.

    Rows whose truth entry is the UNLABELED sentinel are skipped;
    probabilities are floored at 1e-12 before the log so a confidently
    wrong row yields a large finite value instead of infinity.
    """
    x = np.asarray(x_final, dtype=np.float64)
    truth = np.asarray(truth_labels, dtype=np.int64)
    if truth.shape[0] != x.shape[0]:
        raise ShapeMismatch("truth vector must match assignment rows")
    rows = np.flatnonzero(truth >= 0)
    if rows.size == 0:
        raise EmptyInput("no labeled rows to evaluate")
    picked = x[rows, truth[rows]]
    return float(-np.log(np.maximum(picked, PROB_FLOOR)).mean())
