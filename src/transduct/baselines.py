"""Classic graph propagation baselines and K-means.

Label spreading follows Zhou et al. (2004): iterate
F <- alpha * S * F + (1 - alpha) * Y with the symmetrically normalized
similarity S = D^{-1/2} W D^{-1/2}; the fixed point has the closed form
(1 - alpha) (I - alpha S)^{-1} Y, which is kept as an independent oracle.
The harmonic function solution of Zhu et al. (2003) solves the grounded
Laplacian system directly, and label propagation (Zhu, 2002) iterates the
row-normalized walk matrix with labeled rows re-clamped; on connected
graphs both converge to the same harmonic labeling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FeatureSet, LabelSet, check_graph, is_sparse, normalize_rows
from .errors import ConfigError, DataError, OutOfRange, SingularSystem
from .similarity import BLOCK_ROWS


@dataclass(frozen=True)
class BaselineConfig:
    alpha: float = 0.99
    max_iterations: int = 1000
    tolerance: float = 1e-8
    kmeans_restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ConfigError("alpha must lie in (0, 1)")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if not 0 <= self.tolerance < math.inf:
            raise ConfigError(f"tolerance must be finite and >= 0, got {self.tolerance!r}")
        if self.kmeans_restarts < 1:
            raise ConfigError("kmeans_restarts must be >= 1")


def _check_graph(w, labels: LabelSet):
    w = check_graph(w, labels.labels.shape[0], "label vector")
    # a CSR minimum counts its implicit zeros; an empty graph has no minimum
    if w.shape[0] and w.min() < 0:
        raise DataError("similarity weights must be non-negative")
    return w, w.shape[0]


def _one_hot_targets(labels: LabelSet) -> np.ndarray:
    n = labels.labels.shape[0]
    y = np.zeros((n, labels.num_classes))
    idx = labels.labeled_indices()
    y[idx, labels.labels[idx]] = 1.0
    return y


def _require_labeled_components(w, labels: LabelSet):
    """Every unlabeled vertex must reach a labeled one, else the harmonic
    system is singular. Breadth-first from the labeled vertices along
    nonzero entries in either direction (an asymmetric graph counts as
    undirected), ``BLOCK_ROWS`` frontier vertices at a time."""
    reached = labels.labeled_mask()
    frontier = np.flatnonzero(reached)
    while frontier.size:
        found = np.zeros_like(reached)
        for start in range(0, frontier.size, BLOCK_ROWS):
            block = frontier[start:start + BLOCK_ROWS]
            found[w[block].nonzero()[1]] = True
            found[w[:, block].nonzero()[0]] = True
        frontier = np.flatnonzero(found & ~reached)
        reached |= found
    orphans = np.flatnonzero(~reached)
    if orphans.size:
        raise SingularSystem(
            f"unlabeled vertices {orphans[:8].tolist()} have no path to any labeled vertex"
        )


def label_spreading(w, labels: LabelSet, cfg: BaselineConfig | None = None) -> tuple[np.ndarray, dict]:
    """Iterative label spreading on the normalized similarity graph.

    Runs F <- alpha*S*F + (1-alpha)*Y with alpha = cfg.alpha from F(0)=Y
    until the L1 change drops below cfg.tolerance or cfg.max_iterations
    is hit. Rows are renormalized onto the simplex for decoding; isolated
    vertices (degree zero, so their S row vanishes) end up uniform and are
    flagged.

    Returns (assignment, meta); meta carries the raw fixed-point scores
    (before renormalization), iteration count, convergence flag and the
    isolated indices.
    """
    cfg = cfg or BaselineConfig()
    w, n = _check_graph(w, labels)
    if labels.labeled_indices().size == 0:
        raise DataError("label spreading needs at least one labeled sample")
    degree = w.sum(axis=1)
    isolated = np.flatnonzero(degree == 0)
    inv_sqrt = np.where(degree > 0, 1.0 / np.sqrt(np.where(degree > 0, degree, 1.0)), 0.0)[:, None]
    y = _one_hot_targets(labels)
    f = y.copy()
    converged = False
    iterations = 0
    for _ in range(cfg.max_iterations):
        # S F = D^-1/2 (W (D^-1/2 F)): the graph itself is never scaled
        f_next = cfg.alpha * (inv_sqrt * (w @ (inv_sqrt * f))) + (1 - cfg.alpha) * y
        delta = float(np.abs(f_next - f).sum())
        f = f_next
        iterations += 1
        if delta < cfg.tolerance:
            converged = True
            break
    x = _to_simplex(f)
    meta = {
        "raw_scores": f,
        "iterations": iterations,
        "converged": converged,
        "isolated": [int(i) for i in isolated if labels.labels[i] < 0],
    }
    return x, meta


def label_spreading_closed_form(w, labels: LabelSet, alpha: float = 0.99) -> np.ndarray:
    """Exact fixed point (1-alpha)(I - alpha S)^{-1} Y; oracle for the
    iterative solver."""
    if not 0 < alpha < 1:
        raise ConfigError("alpha must lie in (0, 1)")
    w, n = _check_graph(w, labels)
    if is_sparse(w):
        w = w.toarray()
    degree = w.sum(axis=1)
    inv_sqrt = np.where(degree > 0, 1.0 / np.sqrt(np.where(degree > 0, degree, 1.0)), 0.0)
    s = w * inv_sqrt[:, None] * inv_sqrt[None, :]
    y = _one_hot_targets(labels)
    return (1 - alpha) * np.linalg.solve(np.eye(n) - alpha * s, y)


def _to_simplex(scores) -> np.ndarray:
    """Rows onto the simplex; zero rows become uniform."""
    out, zero = normalize_rows(scores)
    out[zero] = 1.0 / scores.shape[1]
    return out


def harmonic_function(w, labels: LabelSet) -> np.ndarray:
    """Gaussian-fields harmonic labeling via a direct grounded-Laplacian solve.

    Labeled rows are their one-hot labels; every unlabeled row solves
    (D_uu - W_uu) f_u = W_ul Y_l, i.e. equals the weighted average of its
    neighbors' rows. A dense graph is solved densely, a CSR graph with a
    sparse LU (``spsolve``). Raises SingularSystem when an unlabeled
    vertex has no path to any labeled vertex.
    """
    w, n = _check_graph(w, labels)
    if labels.labeled_indices().size == 0:
        raise DataError("harmonic labeling needs at least one labeled sample")
    _require_labeled_components(w, labels)
    labeled = labels.labeled_mask()
    unlabeled = ~labeled
    y = _one_hot_targets(labels)
    out = y.copy()
    u = np.flatnonzero(unlabeled)
    if u.size:
        l = np.flatnonzero(labeled)
        w_uu = w[np.ix_(u, u)]
        w_ul = w[np.ix_(u, l)]
        deg = w.sum(axis=1)[u]
        if is_sparse(w):
            from scipy import sparse
            from scipy.sparse.linalg import spsolve

            laplacian_uu = (sparse.diags_array(deg) - w_uu).tocsc()
            # the system is symmetric: a minimum-degree ordering of A^T + A
            # fills in far less than spsolve's default COLAMD (about 3x
            # faster on a 10k-sample k=10 graph)
            out[u] = spsolve(laplacian_uu, w_ul @ y[l], permc_spec="MMD_AT_PLUS_A").reshape(u.size, -1)
        else:
            # D_uu - W_uu in the one u x u copy; 0 - w keeps zeros at +0
            laplacian_uu = np.subtract(0.0, w_uu, out=w_uu)
            laplacian_uu.flat[:: u.size + 1] += deg
            out[u] = np.linalg.solve(laplacian_uu, w_ul @ y[l])
    return out


def label_propagation(
    w, labels: LabelSet, cfg: BaselineConfig | None = None
) -> tuple[np.ndarray, dict]:
    """Random-walk label propagation with labeled rows re-clamped each step.

    Iterates F <- D^{-1} (W F), the walk P = D^{-1} W applied without
    scaling the graph; on connected graphs this converges to the harmonic
    solution. If the step cap is hit first the best iterate is returned
    with converged=False in the metadata rather than raising.
    """
    cfg = cfg or BaselineConfig()
    w, n = _check_graph(w, labels)
    if labels.labeled_indices().size == 0:
        raise DataError("label propagation needs at least one labeled sample")
    _require_labeled_components(w, labels)
    labeled = labels.labeled_indices()
    y_labeled = _one_hot_targets(labels)[labeled]
    degree = w.sum(axis=1)
    safe = np.where(degree > 0, degree, 1.0)[:, None]
    m = labels.num_classes
    f = np.full((n, m), 1.0 / m)
    f[labeled] = y_labeled
    converged = False
    iterations = 0
    for _ in range(cfg.max_iterations):
        f_next = w @ f
        f_next /= safe
        f_next[labeled] = y_labeled
        delta = float(np.abs(f_next - f).sum())
        f = f_next
        iterations += 1
        if delta < cfg.tolerance:
            converged = True
            break
    meta = {"iterations": iterations, "converged": converged}
    return _to_simplex(f), meta


# --- K-means -----------------------------------------------------------


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
            centers.append(int(candidates[0]) if candidates.size else centers[-1])
        else:
            centers.append(int(rng.choice(n, p=d2 / total)))
        d2 = np.minimum(d2, np.sum((points - points[centers[-1]]) ** 2, axis=1))
    return points[centers].copy()


def lloyd(points, centroids, max_iterations: int = 300) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Lloyd iterations from given centroids.

    Returns (assignment, centroids, per-iteration WCSS history). Empty
    clusters are repaired by re-seeding at the point farthest from its
    current centroid.
    """
    points = np.asarray(points, dtype=np.float64)
    centroids = np.array(centroids, dtype=np.float64)
    k = centroids.shape[0]
    history = []
    assign = None
    for _ in range(max_iterations):
        d2 = np.sum((points[:, None, :] - centroids[None]) ** 2, axis=2)
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
        history.append(_wcss(points, new_assign, centroids))
        if assign is not None and np.array_equal(assign, new_assign):
            break
        assign = new_assign
    return assign, centroids, history


def kmeans(features, k: int, cfg: BaselineConfig | None = None) -> np.ndarray:
    """Best-of-restarts Lloyd's algorithm with k-means++ seeding.

    Deterministic given cfg.seed: restart r uses its own generator seeded
    from (seed, r) and the winner is the lowest (WCSS, restart index)
    pair.
    """
    cfg = cfg or BaselineConfig()
    points = features.data if isinstance(features, FeatureSet) else np.asarray(features, dtype=np.float64)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise OutOfRange(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    best = None
    for restart in range(cfg.kmeans_restarts):
        rng = np.random.default_rng([cfg.seed, restart])
        centroids = _kmeans_pp_init(points, k, rng)
        assign, centroids, history = lloyd(points, centroids)
        score = history[-1]
        if best is None or score < best[0] - 1e-12:
            best = (score, assign)
    return best[1]
