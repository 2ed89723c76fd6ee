"""Classic graph propagation baselines and K-means.

Label spreading follows Zhou et al. (2004): iterate
F <- alpha * S * F + (1 - alpha) * Y with the symmetrically normalized
similarity S = D^{-1/2} W D^{-1/2} to its fixed point
(1 - alpha) (I - alpha S)^{-1} Y.
The harmonic function solution of Zhu et al. (2003) solves the grounded
Laplacian system by preconditioned conjugate gradients (Hestenes and
Stiefel, 1952) on every graph, and directly where their answer is not
accepted, and label propagation (Zhu, 2002) iterates the row-normalized
walk matrix with labeled rows re-clamped; on connected graphs both
converge to the same harmonic labeling.
"""
from __future__ import annotations

import warnings

import numpy as np

from .core import LabelSet, check_graph, check_settings, feature_data, graph_product, integer, iterate, label_set, normalize_rows, on_simplex, row_sums, squared_norms, unreached
from .errors import DataError, NumericalError
from .priors import inject_anchors


def label_spreading(
    w, labels: LabelSet, *, alpha: float = 0.99, max_iterations: int = 1000, tolerance: float = 1e-8
) -> tuple[np.ndarray, dict]:
    """Iterative label spreading on the normalized similarity graph.

    Runs F <- alpha*S*F + (1-alpha)*Y from F(0)=Y until the L1 change
    drops below ``tolerance`` or ``max_iterations`` steps have run. Rows
    are renormalized onto the simplex for decoding; a vertex with no path
    to a labeled one (``core.unreached``) keeps a zero score row and ends
    up uniform.

    Returns (assignment, meta); meta carries the iteration count and
    convergence flag.
    """
    check_settings(max_iterations=max_iterations, tolerance=tolerance, alpha=alpha)
    w = check_graph(w, label_set(labels).labels.size, "label vector")
    if labels.labeled_indices().size == 0:
        raise DataError("label spreading needs at least one labeled sample")
    degree = row_sums(w)
    inv_sqrt = np.where(degree > 0, 1.0 / np.sqrt(np.where(degree > 0, degree, 1.0)), 0.0)[:, None]
    y = inject_anchors(np.zeros((w.shape[0], labels.num_classes)), labels)

    def step(f):
        # S F = D^-1/2 (W (D^-1/2 F)): the graph itself is never scaled
        return alpha * (inv_sqrt * graph_product(w, inv_sqrt * f)) + (1 - alpha) * y

    f, iterations, converged = iterate(step, y, max_iterations, tolerance)
    return _to_simplex(f), {"iterations": iterations, "converged": converged}


def _to_simplex(scores) -> np.ndarray:
    """Rows onto the simplex; zero rows become uniform."""
    out, zero = normalize_rows(scores)
    out[zero] = 1.0 / scores.shape[1]
    return out


#: Relative residual the conjugate-gradient harmonic solve must reach in
#: every class column: ``|r| <= CG_TOLERANCE * |b|`` on the recurrence's
#: residual, and ``|b - A x| <= CG_TOLERANCE * (|b| + |D x|)`` on the
#: recomputed one (2-norms).
CG_TOLERANCE = 1e-14
#: Conjugate-gradient steps before the harmonic solve falls back to the
#: direct one. Three-blob graphs (n 240-10,002, 1-20% anchors) took 7-15
#: steps dense, and 22-53 as k-NN graphs (k 7 or 10) at d=16 and 64, but
#: 31-94 at d=8, rising with n; elongated graphs (a weighted path, samples
#: along a noisy curve) took 179-2131, and on those the direct solve was
#: 2 to 400 times faster.
CG_MAX_STEPS = 100


def harmonic_function(w, labels: LabelSet) -> np.ndarray:
    """Gaussian-fields harmonic labeling: the grounded-Laplacian solution.

    Labeled rows are their one-hot labels, and the rows of the vertices
    with no out-edge path to a labeled one (``core.unreached``) are
    uniform. Every other row f_i equals the weighted average of its
    out-neighbors' rows: (D_uu - W_uu) f_u = b, where b is the pull of
    the labeled and unreached rows, W_ul Y_l plus that of any edge out to
    an unreached vertex. Each row of u has an out-edge path to a labeled
    vertex, so the system is non-singular. Conjugate gradients solve it on
    every graph, dense or CSR, as given (``_conjugate_gradient``); their
    answer is accepted on its recomputed residual and ``on_simplex``,
    else the degree-scaled direct solve (``_direct_solve``) gives it. Both
    test ``on_simplex`` with a floor of -1e-9, not 0: LU leaves entries
    such as -1e-17 where the answer is 0.
    """
    w = check_graph(w, label_set(labels).labels.size, "label vector")
    if labels.labeled_indices().size == 0:
        raise DataError("harmonic labeling needs at least one labeled sample")
    out = inject_anchors(np.zeros((w.shape[0], labels.num_classes)), labels)
    orphans = unreached(w, labels)
    out[orphans] = 1.0 / labels.num_classes
    u = np.setdiff1d(np.flatnonzero(~labels.labeled_mask()), orphans)
    if u.size:
        deg = row_sums(w)[u]
        # out is zero on u: b is the pull of the labeled and unreached rows
        b = graph_product(w, out)[u]
        solved = _conjugate_gradient(w, u, deg, b)
        out[u] = _direct_solve(w, u, deg, b) if solved is None else solved
    return out


def _conjugate_gradient(w, u, deg, b):
    """f_u of the grounded-Laplacian system (D_uu - W_uu) f_u = b by
    Jacobi-preconditioned conjugate gradients, or None if some column
    misses ``CG_TOLERANCE`` within ``CG_MAX_STEPS`` steps or the answer
    is not accepted. On a symmetric graph the system is symmetric
    positive definite. On an asymmetric one the steps may stall or
    overflow, silently: a NaN residual ends the loop and meets no bound,
    so the answer stands or falls by the same checks as on any graph.

    Each step is one product of the graph as given with an n x m
    direction that is zero off ``u``, so (W p)[u] = W_uu p_u and no u x u
    block is sliced. The m columns are m independent solves run together,
    each with its own step sizes.

    The loop stops on the recurrence's residual; the answer is accepted on
    the residual recomputed from x. That one is D x - W x subtracted from
    b, and D x is about b over the anchor fraction, so its rounding error
    is relative to |b| + |D x|: the direct solve's own answer has a
    recomputed residual of up to 2.5e-13 |b| but under 1e-15 (|b| + |D x|).
    A squared norm overflows once the weights pass about 1e154; such an
    answer meets no finite bound and is not accepted. Nor is one with a
    row off the simplex (``on_simplex``): subnormal weights count for
    next to nothing in the residual's 2-norm, yet their rows can be wrong.
    """
    deg = deg[:, None]
    spread = np.zeros((w.shape[0], b.shape[1]))

    def graph_uu(v):
        # W_uu v, with v scattered into the rows u of spread
        spread[u] = v
        return graph_product(w, spread)[u]

    def norm(v):
        return np.sqrt(np.sum(v * v, axis=0))

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = np.zeros_like(b)
        r = b.copy()
        z = r / deg
        p = z
        rz = np.sum(r * z, axis=0)
        steps = 0
        while (norm(r) > CG_TOLERANCE * norm(b)).any():
            if steps == CG_MAX_STEPS:
                return None
            steps += 1
            q = deg * p - graph_uu(p)
            # a column already solved exactly has p = 0: its step is 0, not 0/0
            pq = np.sum(p * q, axis=0)
            alpha = np.divide(rz, pq, out=np.zeros_like(rz), where=pq > 0)
            x += alpha * p
            r -= alpha * q
            z = r / deg
            rz_next = np.sum(r * z, axis=0)
            p = z + np.divide(rz_next, rz, out=np.zeros_like(rz), where=rz > 0) * p
            rz = rz_next
        dx = deg * x
        bound = CG_TOLERANCE * (norm(b) + norm(dx))
        converged = (np.isfinite(bound) & (norm(b - dx + graph_uu(x)) <= bound)).all()
    return x if converged and on_simplex(x, -1e-9) else None


def _direct_solve(w, u, deg, b):
    """f_u of the grounded-Laplacian system (D_uu - W_uu) f_u = b by LU
    on its degree-scaled form (I - D_uu^-1 W_uu) f_u = D_uu^-1 b: each
    row, and its entry of b, divided by its degree, which is positive on
    u because each vertex of u has an out-edge path to an anchor. Dense
    on a u x u copy, sparse (``spsolve``) on a CSR graph, through its
    scipy view. Raises NumericalError for a singular system, or one whose
    answer has a row off the simplex."""
    b = b / deg[:, None]
    singular = "harmonic labeling: the grounded Laplacian is singular"
    if isinstance(w, np.ndarray):
        # I - D_uu^-1 W_uu in the one u x u copy; 0 - w keeps zeros at +0
        w_uu = w[np.ix_(u, u)]
        laplacian_uu = np.subtract(0.0, np.divide(w_uu, deg[:, None], out=w_uu), out=w_uu)
        laplacian_uu.flat[:: u.size + 1] += 1.0
        try:
            solved = np.linalg.solve(laplacian_uu, b)
        except np.linalg.LinAlgError:
            raise NumericalError(singular) from None
    else:
        from scipy import sparse
        from scipy.sparse.linalg import MatrixRankWarning, spsolve

        w_uu = w.to_scipy()[np.ix_(u, u)]
        w_uu.data = w_uu.data / np.repeat(deg, np.diff(w_uu.indptr))
        laplacian_uu = (sparse.diags_array(np.ones(u.size)) - w_uu).tocsc()
        with warnings.catch_warnings():
            # spsolve warns and returns NaN rows for a singular system, or
            # raises a bare RuntimeError when SuperLU cannot factorize it
            warnings.simplefilter("error", MatrixRankWarning)
            try:
                # the pipeline's graphs are symmetric: a minimum-degree
                # ordering of A^T + A fills in far less than spsolve's
                # default COLAMD (about 3x faster on a 10k-sample k=10 graph)
                solved = spsolve(laplacian_uu, b, permc_spec="MMD_AT_PLUS_A").reshape(u.size, -1)
            except (MatrixRankWarning, RuntimeError):
                raise NumericalError(singular) from None
    # a pivot that is nearly 0, such as a subnormal weight, can make the
    # LU overflow, or lose the answer's row sums, without a warning
    if not on_simplex(solved, -1e-9):
        raise NumericalError(singular)
    return solved


def label_propagation(
    w, labels: LabelSet, *, max_iterations: int = 1000, tolerance: float = 1e-8
) -> tuple[np.ndarray, dict]:
    """Random-walk label propagation with labeled rows re-clamped each step.

    Iterates F <- D^{-1} (W F), the walk P = D^{-1} W applied without
    scaling the graph; on connected graphs this converges to the harmonic
    solution. If the step cap is hit first the best iterate is returned
    with converged=False in the metadata rather than raising.
    """
    check_settings(max_iterations=max_iterations, tolerance=tolerance)
    w = check_graph(w, label_set(labels).labels.size, "label vector")
    if labels.labeled_indices().size == 0:
        raise DataError("label propagation needs at least one labeled sample")
    m = labels.num_classes
    f0 = inject_anchors(np.full((w.shape[0], m), 1.0 / m), labels)
    labeled = labels.labeled_indices()
    y_labeled = f0[labeled]
    degree = row_sums(w)
    safe = np.where(degree > 0, degree, 1.0)[:, None]

    def step(f):
        f_next = graph_product(w, f)
        f_next /= safe
        f_next[labeled] = y_labeled
        return f_next

    f, iterations, converged = iterate(step, f0, max_iterations, tolerance)
    return _to_simplex(f), {"iterations": iterations, "converged": converged}


# --- K-means -----------------------------------------------------------

#: Independently seeded k-means++ starts per kmeans call; the best wins.
KMEANS_RESTARTS = 10


def _distances(points, centre, buffer) -> np.ndarray:
    """Each row's squared distance to ``centre``: the difference, squared
    in ``buffer`` (of the points' shape), then summed row by row. These
    are the exact distances; a row's value depends only on its own data,
    so a subset of the rows gets the bits the whole set does."""
    np.subtract(points, centre, out=buffer)
    np.square(buffer, out=buffer)
    return np.sum(buffer, axis=1)


def _residuals(points, assign, centroids, buffer) -> np.ndarray:
    """``buffer`` filled with each point's squared difference from its
    centroid. ``np.take`` buffers its output in its default ``raise``
    mode; the indices are in range, so ``wrap`` writes straight into
    ``buffer``."""
    np.take(centroids, assign, axis=0, mode="wrap", out=buffer)
    np.subtract(points, buffer, out=buffer)
    return np.square(buffer, out=buffer)


def _kmeans_pp_init(points, k, rng, buffer) -> np.ndarray:
    """k-means++ seeding: new centers drawn proportional to squared
    distance from the chosen set."""
    n = points.shape[0]
    centers = [int(rng.integers(n))]
    d2 = _distances(points, points[centers[0]], buffer)
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0:
            # all remaining mass at chosen centers; pick any uncovered index
            candidates = np.setdiff1d(np.arange(n), centers)
            centers.append(int(candidates[0]))
        else:
            centers.append(int(rng.choice(n, p=d2 / total)))
        d2 = np.minimum(d2, _distances(points, points[centers[-1]], buffer))
    return points[centers].copy()


def _nearest(points, norms, centroids, d2, buffer) -> np.ndarray:
    """Each point's nearest centroid by ``_distances``, the lowest index on
    ties.

    ``d2`` (k x n) is filled with |p|^2 - 2 p.c + |c|^2, one product per
    centroid; ``norms`` are the |p|^2. With u = 2^-53, that form and
    ``_distances`` each lie within (d + 2) u (|p| + |c|)^2 of the true
    distance, plus d 2^-1075 for each of |p|^2, p.c, |c|^2 and the
    squared differences where products are subnormal (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2002, ch. 3); the share of
    |p|^2 is common to a point's k values. So two values further apart
    than 4 (d + 8) (2u (|p| + max|c|)^2 + 2^-1074), which covers both
    bounds for both values, rank as ``_distances`` ranks them. Only the
    points whose best two values are closer, gathered into ``buffer``,
    get their exact distances.
    """
    d = points.shape[1]
    for c, centre in enumerate(centroids):
        np.matmul(points, centre, out=d2[c])
        d2[c] *= -2.0
        d2[c] += norms
        d2[c] += centre @ centre
    assign = np.argmin(d2, axis=0)
    reach = np.linalg.norm(centroids, axis=1).max()
    float64 = np.finfo(np.float64)
    slack = 4 * (d + 8) * (float64.eps * (np.sqrt(norms) + reach) ** 2 + float64.smallest_subnormal)
    near = np.flatnonzero(np.count_nonzero(d2 <= d2.min(axis=0) + slack, axis=0) > 1)
    if near.size:
        rows = buffer[:near.size]
        exact = np.empty((centroids.shape[0], near.size))
        for c, centre in enumerate(centroids):
            np.take(points, near, axis=0, mode="wrap", out=rows)
            exact[c] = _distances(rows, centre, rows)
        assign[near] = np.argmin(exact, axis=0)
    return assign


def lloyd(points, centroids, max_iterations: int = 300, *, buffer=None) -> tuple[np.ndarray, np.ndarray, float]:
    """Lloyd iterations from given centroids.

    Returns (assignment, centroids, WCSS of the two). Empty clusters are
    repaired by re-seeding at the point farthest from its current
    centroid. Each point goes to its nearest centroid by the exact
    subtract, square and row sum (``_distances``), found by one product
    per centroid and rechecked exactly only where two centroids come
    close (``_nearest``). The rechecked rows, the repair's residuals and
    the WCSS's are written into ``buffer``, a float64 array of the
    points' shape (allocated if None), so the only other n x d temporary
    is the member rows of the cluster whose mean is being taken. Values
    so large that a distance could overflow raise NonFinite
    (``core.squared_norms``).
    """
    points = np.asarray(points, dtype=np.float64)
    centroids = np.array(centroids, dtype=np.float64)
    norms = squared_norms(points)
    if buffer is None:
        buffer = np.empty_like(points)
    d2 = np.empty((centroids.shape[0], points.shape[0]))
    assign = None
    for _ in range(max_iterations):
        new_assign = _nearest(points, norms, centroids, d2, buffer)
        for c in range(centroids.shape[0]):
            members = new_assign == c
            if members.any():
                centroids[c] = points[members].mean(axis=0)
            else:
                residual = np.sum(_residuals(points, new_assign, centroids, buffer), axis=1)
                far = int(np.argmax(residual))
                centroids[c] = points[far]
                new_assign[far] = c
        if assign is not None and np.array_equal(assign, new_assign):
            break
        assign = new_assign
    return assign, centroids, float(np.sum(_residuals(points, assign, centroids, buffer)))


def kmeans(features, k: int, seed: int = 0) -> np.ndarray:
    """Best-of-``KMEANS_RESTARTS`` Lloyd's algorithm with k-means++ seeding.

    Deterministic given ``seed``: restart r uses its own generator seeded
    from (seed, r), and a restart replaces the best one so far only if
    its WCSS is lower by more than an absolute 1e-12, so the earlier of
    two restarts that close wins. Values so large that a distance could
    overflow raise NonFinite (``core.squared_norms``). The seeding and
    every restart share one n x d scratch buffer.
    """
    points = feature_data(features)
    k = integer("k", k, 1, points.shape[0])
    seed = integer("seed", seed, low=0)
    squared_norms(points)
    buffer = np.empty_like(points)
    best = None
    for restart in range(KMEANS_RESTARTS):
        rng = np.random.default_rng([seed, restart])
        centroids = _kmeans_pp_init(points, k, rng, buffer)
        assign, centroids, score = lloyd(points, centroids, buffer=buffer)
        if best is None or score < best[0] - 1e-12:
            best = (score, assign)
    return best[1]
