"""Independent reference implementations the package is checked against.

Each one computes the same quantity as a package function by a different
route (scalar loops, a direct linear solve) on a dense graph, without
the package's own helpers, so a shared bug cannot hide in both.
"""
import numpy as np


def replicator_step_elementwise(w, x) -> tuple[np.ndarray, np.ndarray]:
    """One replicator update with explicit scalar loops; oracle for
    ``replicator_step``.

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
