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

from .core import LabelSet, check_graph, check_settings, finite_matrix, graph_product, iterate, label_set, normalize_rows, on_simplex
from .errors import DataError, EmptyInput

#: Probability floor used before taking logs in the cross-entropy readout.
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class DynamicsTrace:
    """Per-run diagnostics: consistency values, iteration count, degeneracies."""

    functional_values: list[float]
    iterations_used: int
    converged: bool
    degenerate_rows: tuple[int, ...]


def run_dynamics(
    w,
    x0,
    *,
    max_iterations: int = 100,
    tolerance: float = 1e-6,
) -> tuple[np.ndarray, DynamicsTrace]:
    """Iterate replicator steps from x0 until one step moves the
    assignment by less than ``tolerance`` in L1, or ``max_iterations``
    steps have run.

    A step multiplies each entry of X by its support WX and renormalizes
    the row. The trace records the consistency functional sum_ij w_ij
    <x_i, x_j> at every visited assignment (x0 through the final state),
    the iteration count, a convergence flag and the union of degenerate
    (frozen) rows seen. With ``tolerance=0`` exactly ``max_iterations``
    steps run and ``converged`` is False, since no L1 change is below 0:
    that is the fixed-step refinement (``group_loss``), and one step with
    ``max_iterations=1``. Anchors are pinned into x0 by the caller
    (``inject_anchors``): a one-hot row is an exact fixed point of the
    update, since its zero entries stay 0 and its class entry is divided
    by itself, so it stays one-hot bit for bit on every step. A one-hot
    row whose class gets no support is frozen as it is and listed in
    ``degenerate_rows``.

    The loop is deterministic: identical inputs produce bit-identical
    iterates and traces.
    """
    check_settings(max_iterations=max_iterations, tolerance=tolerance)
    x = finite_matrix(x0)
    w = check_graph(w, x.shape[0], "assignment matrix")
    if not on_simplex(x):
        raise DataError("prior rows must lie on the simplex: entries >= 0 summing to 1 within 1e-9")
    functional_values: list[float] = []
    degenerate: set[int] = set()

    def step(x):
        reweighted = x * graph_product(w, x)
        functional_values.append(float(np.sum(reweighted)))
        x_next, degen = normalize_rows(reweighted)
        # a row with no reweighted mass (an isolated vertex, or no support on
        # its surviving classes) is frozen as-is and reported, not divided by 0
        if degen.size:
            x_next[degen] = x[degen]
            degenerate.update(int(i) for i in degen)
        return x_next

    x, iterations, converged = iterate(step, x, max_iterations, tolerance)
    functional_values.append(float(np.sum(graph_product(w, x) * x)))
    return x, DynamicsTrace(functional_values, iterations, converged, tuple(sorted(degenerate)))


def group_loss_value(x_final, truth_labels) -> float:
    """Mean cross-entropy of the refined assignments against known labels.

    Rows whose truth entry is UNLABELED are skipped; any other must be a
    column of ``x_final`` (OutOfRange). Probabilities are floored at 1e-12
    before the log so a confidently wrong row gives a large finite value.
    """
    x = finite_matrix(x_final)
    truth = label_set(LabelSet(x.shape[1], truth_labels), x.shape[0], "truth vector")
    rows = truth.labeled_indices()
    if rows.size == 0:
        raise EmptyInput("no labeled rows to evaluate")
    picked = x[rows, truth.labels[rows]]
    return float(-np.log(np.maximum(picked, PROB_FLOOR)).mean())
