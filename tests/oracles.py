"""Independent reference implementations the package is checked against.

Each one computes the same quantity as a package function by a different
route (scalar loops, a direct linear solve, the ``csv`` module with one
``float()`` or ``format()`` per value) without the package's own
helpers, so a shared bug cannot hide in both.
"""
import csv

import numpy as np

from transduct.core import FeatureSet
from transduct.errors import DataError, DimensionMismatch, DuplicateId, ParseError


def replicator_step_elementwise(w, x) -> tuple[np.ndarray, np.ndarray]:
    """One replicator update with explicit scalar loops; oracle for one
    step of ``run_dynamics`` (``max_iterations=1, tolerance=0.0``).

    Returns the updated rows and the indices of the rows whose reweighted
    mass is not positive, which are kept as they were.
    """
    w = np.asarray(w, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
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


def label_spreading_closed_form(w, labels, alpha: float = 0.99) -> np.ndarray:
    """Exact fixed point (1-alpha)(I - alpha S)^{-1} Y of label spreading,
    S = D^{-1/2} W D^{-1/2} with isolated vertices' rows and columns zero;
    oracle for the iterative ``label_spreading`` scores."""
    w = np.asarray(w, dtype=np.float64)
    n = w.shape[0]
    degree = w.sum(axis=1)
    inv_sqrt = np.zeros(n)
    inv_sqrt[degree > 0] = 1.0 / np.sqrt(degree[degree > 0])
    s = w * inv_sqrt[:, None] * inv_sqrt[None, :]
    y = np.zeros((n, labels.num_classes))
    for i, c in enumerate(labels.labels):
        if c >= 0:
            y[i, c] = 1.0
    return (1 - alpha) * np.linalg.solve(np.eye(n) - alpha * s, y)


def harmonic_full_system(w, labels) -> np.ndarray:
    """Harmonic labeling from one n x n linear solve: row i of the system
    is f_i = y_i for a labeled i and d_i f_i - sum_j w_ij f_j = 0 for the
    others, with d_i the row sum. Oracle for ``harmonic_function`` on a
    graph whose every unlabeled vertex has an out-edge path to a labeled
    one (otherwise the system is singular)."""
    w = np.asarray(w.toarray() if hasattr(w, "toarray") else w, dtype=np.float64)
    n = w.shape[0]
    system = np.diag(w.sum(axis=1)) - w
    rhs = np.zeros((n, labels.num_classes))
    for i, c in enumerate(labels.labels):
        if c >= 0:
            system[i] = 0.0
            system[i, i] = 1.0
            rhs[i, c] = 1.0
    return np.linalg.solve(system, rhs)


def csr_product(indptr, indices, data, x) -> np.ndarray:
    """W x from the three CSR arrays: for each row and column of ``x``,
    one Python float sum of ``data[jj] * x[indices[jj]]`` over the row's
    stored entries, in stored order, from 0.0. Oracle for
    ``CsrGraph.__matmul__``; a 1-d ``x`` gives a 1-d result."""
    x = np.asarray(x, dtype=np.float64)
    columns = x[:, None] if x.ndim == 1 else x
    out = np.empty((len(indptr) - 1, columns.shape[1]))
    for i in range(len(indptr) - 1):
        for c in range(columns.shape[1]):
            total = 0.0
            for jj in range(indptr[i], indptr[i + 1]):
                total += float(data[jj]) * float(columns[indices[jj], c])
            out[i, c] = total
    return out.reshape((len(indptr) - 1, *x.shape[1:]))


def read_features_csv(path) -> FeatureSet:
    """``csv.reader`` plus one ``float()`` per value; oracle for
    ``io.read_features_csv``, down to which error a bad file raises."""
    ids, rows, lines, seen = [], [], [], set()
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header or header[0] != "id" or len(header) < 2:
                raise ParseError(path, 1, "expected header 'id,f0,f1,...'")
            width = len(header) - 1
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) - 1 != width:
                    raise DimensionMismatch(f"{path}:{lineno}: row has {len(row) - 1} features, header declares {width}")
                if row[0] in seen:
                    raise DuplicateId(f"{path}:{lineno}: duplicate id {row[0]!r}")
                seen.add(row[0])
                try:
                    rows.append([float(v) for v in row[1:]])
                except ValueError as exc:
                    raise ParseError(path, lineno, f"bad float: {exc}") from None
                ids.append(row[0])
                lines.append(lineno)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not rows:
        raise ParseError(path, 1, "no data rows")
    data = np.array(rows)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise ParseError(path, lines[int(np.argmin(finite))], "value is NaN or infinite")
    return FeatureSet(data, tuple(ids))


def _fmt(value) -> str:
    return format(float(value), ".17g")


def write_features_csv(path, features) -> None:
    """One ``format(v, ".17g")`` per value; oracle for ``io.write_features_csv``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"f{j}" for j in range(features.dim)])
        for i, sample_id in enumerate(features.ids):
            writer.writerow([sample_id] + [_fmt(v) for v in features.data[i]])


def write_predictions_csv(path, ids, predicted_names, assignment) -> None:
    """One ``format(v, ".17g")`` per value and one ``max`` per row; oracle
    for ``io.write_predictions_csv``."""
    assignment = np.asarray(assignment, dtype=np.float64)
    m = assignment.shape[1]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "predicted_label", "confidence"] + [f"p_{j}" for j in range(m)])
        for i, sample_id in enumerate(ids):
            row = [sample_id, predicted_names[i], _fmt(assignment[i].max())]
            row += [_fmt(v) for v in assignment[i]]
            writer.writerow(row)


def lloyd_per_centroid(points, centroids, max_iterations: int = 300):
    """Lloyd iterations that fill each point's k squared distances by a
    subtract, square and row sum per centroid over all n points, then
    take the argmin; empty clusters are re-seeded at the point farthest
    from its centroid. Oracle for ``baselines.lloyd``, which must return
    the same (assignment, centroids, WCSS) bits."""
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
    return assign, centroids, float(np.sum((points - centroids[assign]) ** 2))


def kmeans_per_centroid(points, k: int, seed: int = 0) -> np.ndarray:
    """Best of 10 k-means++-seeded ``lloyd_per_centroid`` runs,
    restart r drawing from ``default_rng([seed, r])`` and replacing the
    best only when lower by more than 1e-12. Oracle for
    ``baselines.kmeans``."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    best = None
    for restart in range(10):
        rng = np.random.default_rng([seed, restart])
        centers = [int(rng.integers(n))]
        d2 = np.sum((points - points[centers[0]]) ** 2, axis=1)
        for _ in range(1, k):
            total = d2.sum()
            if total <= 0:
                centers.append(int(np.setdiff1d(np.arange(n), centers)[0]))
            else:
                centers.append(int(rng.choice(n, p=d2 / total)))
            d2 = np.minimum(d2, np.sum((points - points[centers[-1]]) ** 2, axis=1))
        assign, _, score = lloyd_per_centroid(points, points[centers])
        if best is None or score < best[0] - 1e-12:
            best = (score, assign)
    return best[1]
