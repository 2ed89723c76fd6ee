"""Classic graph propagation baselines and K-means.

Label spreading follows Zhou et al. (2004): iterate
F <- alpha * S * F + (1 - alpha) * Y with the symmetrically normalized
similarity S = D^{-1/2} W D^{-1/2} to its fixed point
(1 - alpha) (I - alpha S)^{-1} Y.
The harmonic function solution of Zhu et al. (2003) solves the grounded
Laplacian system by preconditioned conjugate gradients (Hestenes and
Stiefel, 1952), directly where that does not apply or does not converge,
and label propagation (Zhu, 2002) iterates the row-normalized walk matrix
with labeled rows re-clamped; on connected graphs both converge to the
same harmonic labeling.
"""
from __future__ import annotations

import warnings

import numpy as np

from .core import CsrGraph, LabelSet, check_graph, check_settings, feature_data, graph_product, integer, iterate, label_set, normalize_rows, row_sums, squared_norms, unreached
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

    Returns (assignment, meta); meta carries the raw fixed-point scores
    (before renormalization), iteration count and convergence flag.
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
    x = _to_simplex(f)
    return x, {"raw_scores": f, "iterations": iterations, "converged": converged}


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
#: direct one. Blob graphs, dense or k-NN, took 11-41 steps; elongated
#: graphs (a weighted path, samples along a noisy curve) took 179-2131,
#: and on those the direct solve was 2 to 400 times faster.
CG_MAX_STEPS = 100
#: Side of the square tiles the dense symmetry check compares.
SYMMETRY_TILE = 256


def harmonic_function(w, labels: LabelSet) -> np.ndarray:
    """Gaussian-fields harmonic labeling: the grounded-Laplacian solution.

    Labeled rows are their one-hot labels, and the rows of the vertices
    with no out-edge path to a labeled one (``core.unreached``) are
    uniform. Every other row f_i equals the weighted average of its
    out-neighbors' rows: (D_uu - W_uu) f_u = b, where b is the pull of
    the labeled and unreached rows, W_ul Y_l plus that of any edge out to
    an unreached vertex. Each row of u has an out-edge path to a labeled
    vertex, so the system is non-singular. On a symmetric graph, dense or
    CSR, it is also symmetric positive definite and conjugate gradients
    solve it on the graph as given (``_conjugate_gradient``).
    An asymmetric graph, or a solve that misses ``CG_TOLERANCE`` within
    ``CG_MAX_STEPS`` steps, takes the direct solve (``_direct_solve``).
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
        solved = _conjugate_gradient(w, u, deg, b) if _symmetric(w) else None
        out[u] = _direct_solve(w, u, deg, b) if solved is None else solved
    return out


def _symmetric(w) -> bool:
    """Whether ``w`` equals its transpose. A dense graph is compared tile
    by tile with its mirror image, so no ``n x n`` temporary is made."""
    if isinstance(w, CsrGraph):
        return w.is_symmetric()
    n, t = w.shape[0], SYMMETRY_TILE
    return all(
        np.array_equal(w[i:i + t, j:j + t], w[j:j + t, i:i + t].T) for i in range(0, n, t) for j in range(i, n, t)
    )


def _conjugate_gradient(w, u, deg, b):
    """f_u of the grounded-Laplacian system (D_uu - W_uu) f_u = b of a
    symmetric graph by Jacobi-preconditioned conjugate gradients, or None
    if some column misses ``CG_TOLERANCE`` within ``CG_MAX_STEPS`` steps.

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
    answer meets no finite bound and is not accepted.
    """
    deg = deg[:, None]
    spread = np.zeros((w.shape[0], b.shape[1]))

    def graph_uu(v):
        # W_uu v, with v scattered into the rows u of spread
        spread[u] = v
        return graph_product(w, spread)[u]

    def norm(v):
        with np.errstate(over="ignore"):
            return np.sqrt(np.sum(v * v, axis=0))

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
    return x if (np.isfinite(bound) & (norm(b - dx + graph_uu(x)) <= bound)).all() else None


def _direct_solve(w, u, deg, b):
    """f_u of the grounded-Laplacian system (D_uu - W_uu) f_u = b by LU:
    dense on a u x u copy, sparse (``spsolve``) on a CSR graph, through
    its scipy view. Raises NumericalError for a singular system, or one
    whose answer is not finite."""
    dense = isinstance(w, np.ndarray)
    if not dense:
        w = w.to_scipy()
    w_uu = w[np.ix_(u, u)]
    singular = "harmonic labeling: the grounded Laplacian is singular"
    if not dense:
        from scipy import sparse
        from scipy.sparse.linalg import MatrixRankWarning, spsolve

        laplacian_uu = (sparse.diags_array(deg) - w_uu).tocsc()
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
    else:
        # D_uu - W_uu in the one u x u copy; 0 - w keeps zeros at +0
        laplacian_uu = np.subtract(0.0, w_uu, out=w_uu)
        laplacian_uu.flat[:: u.size + 1] += deg
        try:
            solved = np.linalg.solve(laplacian_uu, b)
        except np.linalg.LinAlgError:
            raise NumericalError(singular) from None
    # a pivot that is nearly 0, such as a subnormal weight, can make the
    # LU overflow without a warning
    if not np.isfinite(solved).all():
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
    meta = {"iterations": iterations, "converged": converged}
    return _to_simplex(f), meta


# --- K-means -----------------------------------------------------------

#: Independently seeded k-means++ starts per kmeans call; the best wins.
KMEANS_RESTARTS = 10


def _wcss(points, assign, centroids) -> float:
    return float(np.sum((points - centroids[assign]) ** 2))


def _kmeans_pp_init(points, k, rng) -> np.ndarray:
    """k-means++ seeding: new centers drawn proportional to squared
    distance from the chosen set."""
    n = points.shape[0]
    centers = [int(rng.integers(n))]
    d2 = np.sum((points - points[centers[0]]) ** 2, axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0:
            # all remaining mass at chosen centers; pick any uncovered index
            candidates = np.setdiff1d(np.arange(n), centers)
            centers.append(int(candidates[0]))
        else:
            centers.append(int(rng.choice(n, p=d2 / total)))
        d2 = np.minimum(d2, np.sum((points - points[centers[-1]]) ** 2, axis=1))
    return points[centers].copy()


def lloyd(points, centroids, max_iterations: int = 300) -> tuple[np.ndarray, np.ndarray, float]:
    """Lloyd iterations from given centroids.

    Returns (assignment, centroids, WCSS of the two). Empty clusters are
    repaired by re-seeding at the point farthest from its current
    centroid. Squared distances are filled into one n x k array a
    centroid at a time, so the only n x d temporary is one difference.
    """
    points = np.asarray(points, dtype=np.float64)
    centroids = np.array(centroids, dtype=np.float64)
    k = centroids.shape[0]
    diff = np.empty_like(points)
    d2 = np.empty((points.shape[0], k))
    assign = None
    for _ in range(max_iterations):
        for c in range(k):
            np.subtract(points, centroids[c], out=diff)
            np.square(diff, out=diff)
            np.sum(diff, axis=1, out=d2[:, c])
        new_assign = np.argmin(d2, axis=1)
        for c in range(k):
            members = new_assign == c
            if members.any():
                centroids[c] = points[members].mean(axis=0)
            else:
                residual = np.sum((points - centroids[new_assign]) ** 2, axis=1)
                far = int(np.argmax(residual))
                centroids[c] = points[far]
                new_assign[far] = c
        if assign is not None and np.array_equal(assign, new_assign):
            break
        assign = new_assign
    return assign, centroids, _wcss(points, assign, centroids)


def kmeans(features, k: int, seed: int = 0) -> np.ndarray:
    """Best-of-``KMEANS_RESTARTS`` Lloyd's algorithm with k-means++ seeding.

    Deterministic given ``seed``: restart r uses its own generator seeded
    from (seed, r) and the winner is the lowest (WCSS, restart index)
    pair. Values so large that a distance could overflow raise NonFinite
    (``core.squared_norms``).
    """
    points = feature_data(features)
    k = integer("k", k, 1, points.shape[0])
    seed = integer("seed", seed, low=0)
    squared_norms(points)
    best = None
    for restart in range(KMEANS_RESTARTS):
        rng = np.random.default_rng([seed, restart])
        centroids = _kmeans_pp_init(points, k, rng)
        assign, centroids, score = lloyd(points, centroids)
        if best is None or score < best[0] - 1e-12:
            best = (score, assign)
    return best[1]
