"""Replicator-dynamics refinement of label assignments on a similarity graph.

The update is multiplicative and stays on the simplex: each row of X is
reweighted by the support its classes receive from similar samples and
renormalized. For a non-negative symmetric W this monotonically increases
the quadratic consistency functional (Baum-Eagon inequality), so the
iteration behaves like an ascent method with an implicit step size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .core import AnchorSet, check_graph, one_hot
from .errors import ConfigError, EmptyInput, ShapeMismatch

#: Probability floor used before taking logs in the cross-entropy readout.
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class DynamicsConfig:
    """Loop controls for run_dynamics.

    Convergence is declared when the L1 distance between successive
    assignment matrices drops below ``tolerance``. When
    ``fixed_iterations`` is set the loop runs exactly that many steps and
    the tolerance check is skipped (the fixed-step refinement mode).
    Anchored rows are mathematically exact fixed points of the update, but
    ``reclamp_anchors`` re-pins them after every step anyway to guard
    against float drift on very long runs.
    """

    max_iterations: int = 100
    tolerance: float = 1e-6
    fixed_iterations: int | None = None
    reclamp_anchors: bool = True

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if not 0 <= self.tolerance < math.inf:
            raise ConfigError(f"tolerance must be finite and >= 0, got {self.tolerance!r}")
        if self.fixed_iterations is not None and self.fixed_iterations < 1:
            raise ConfigError("fixed_iterations must be >= 1 when set")


@dataclass
class DynamicsTrace:
    """Per-run diagnostics: consistency values, iteration count, degeneracies."""

    functional_values: list[float] = field(default_factory=list)
    iterations_used: int = 0
    converged: bool = False
    degenerate_rows: tuple[int, ...] = ()


def _check_shapes(w, x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeMismatch("assignment matrix must be 2-d")
    return check_graph(w, x.shape[0], "assignment matrix"), x


def support(w, x) -> np.ndarray:
    """Aggregated per-class evidence from similar samples: W @ X.

    Entry (i, lam) sums the similarity-weighted probability that i's
    neighbors assign to class lam; it is non-negative whenever W is.
    """
    w, x = _check_shapes(w, x)
    return w @ x


def _refine(x, pi):
    """One multiplicative reweighting of x by its support pi.

    Rows whose reweighted mass is zero (isolated vertices, or support
    vanishing on the row's surviving classes) cannot be normalized; they
    are frozen as-is and reported instead of dividing by zero.
    """
    weighted = x * pi
    sums = weighted.sum(axis=1)
    degenerate = np.flatnonzero(sums <= 0)
    safe = np.where(sums > 0, sums, 1.0)
    out = weighted / safe[:, None]
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


def replicator_step_elementwise(w, x) -> tuple[np.ndarray, np.ndarray]:
    """Reference implementation of the update with explicit scalar loops.

    Exists as an independent cross-check of replicator_step; the two must
    agree to float precision on any input.
    """
    w, x = _check_shapes(w, x)
    if sparse.issparse(w):
        w = w.toarray()
    n, m = x.shape
    out = np.empty_like(x)
    degenerate = []
    for i in range(n):
        pi = [sum(w[i, j] * x[j, lam] for j in range(n)) for lam in range(m)]
        weighted = [x[i, lam] * pi[lam] for lam in range(m)]
        denom = sum(weighted)
        if denom <= 0:
            out[i] = x[i]
            degenerate.append(i)
        else:
            out[i] = [wv / denom for wv in weighted]
    return out, np.array(degenerate, dtype=np.int64)


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
    cfg: DynamicsConfig | None = None,
    anchors: AnchorSet | None = None,
) -> tuple[np.ndarray, DynamicsTrace]:
    """Iterate replicator steps from x0 until convergence or the step cap.

    The trace records the consistency functional at every visited
    assignment (including x0 and the final state), the iteration count, a
    convergence flag and the union of degenerate rows seen. In
    fixed-iteration mode exactly ``cfg.fixed_iterations`` steps run and
    ``converged`` is reported False since no tolerance test is made.

    The loop is deterministic: identical inputs produce bit-identical
    iterates and traces.
    """
    cfg = cfg or DynamicsConfig()
    w, x = _check_shapes(w, x0)
    x = x.copy()
    anchor_rows = anchor_onehots = None
    if anchors is not None and len(anchors):
        anchors.validate_against(*x.shape)
        anchor_rows = anchors.indices()
        anchor_onehots = np.stack([one_hot(c, x.shape[1]) for c in anchors.classes()])
        if cfg.reclamp_anchors:
            x[anchor_rows] = anchor_onehots

    fixed_mode = cfg.fixed_iterations is not None
    total = cfg.fixed_iterations if fixed_mode else cfg.max_iterations

    trace = DynamicsTrace()
    degenerate: set[int] = set()
    converged = False
    iterations = 0
    for _ in range(total):
        pi = w @ x
        trace.functional_values.append(float(np.sum(x * pi)))
        x_next, degen = _refine(x, pi)
        degenerate.update(int(i) for i in degen)
        if cfg.reclamp_anchors and anchor_rows is not None:
            x_next[anchor_rows] = anchor_onehots
        delta = float(np.abs(x_next - x).sum())
        x = x_next
        iterations += 1
        if not fixed_mode and delta < cfg.tolerance:
            converged = True
            break
    trace.functional_values.append(consistency_functional(w, x))
    trace.iterations_used = iterations
    trace.converged = converged
    trace.degenerate_rows = tuple(sorted(degenerate))
    return x, trace


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
