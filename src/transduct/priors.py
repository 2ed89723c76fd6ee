"""Initial assignment matrices: uniform or softmax priors, anchor
injection."""
from __future__ import annotations

import numpy as np

from .core import LabelSet, check_settings, finite_matrix, integer, label_set, normalize_rows
from .errors import EmptyInput, OutOfRange


def uniform_prior(n: int, m: int) -> np.ndarray:
    """Every entry 1/m, for n >= 1 samples and m >= 2 classes."""
    if integer("n", n) < 1:
        raise EmptyInput("need at least one sample")
    return np.full((n, m), 1.0 / integer("m", m, low=2))


def softmax_with_temperature(logits, temperature: float = 1.0) -> np.ndarray:
    """Row-wise softmax of ``logits / temperature``.

    Max-subtraction keeps the exponentials bounded, so very small
    temperatures sharpen toward one-hot without overflowing. A temperature
    that is not finite and positive is a ConfigError.
    """
    logits = finite_matrix(logits, "logits")
    check_settings(temperature=temperature)
    scaled = logits / temperature
    scaled = scaled - scaled.max(axis=1, keepdims=True)
    # each row holds exp(0) = 1, so every row sum is positive
    return normalize_rows(np.exp(scaled))[0]


def inject_anchors(x, anchors: LabelSet) -> np.ndarray:
    """A copy of x with each anchored row replaced by the one-hot of its
    known label.

    Raises ShapeMismatch unless ``anchors`` has one entry per row, and
    OutOfRange for a class that is not one of x's columns.
    """
    x = finite_matrix(x).copy()
    rows = label_set(anchors, x.shape[0], "anchor vector").labeled_indices()
    classes = anchors.labels[rows]
    if classes.size and classes.max() >= x.shape[1]:
        raise OutOfRange(f"anchor class {int(classes.max())} out of range for m={x.shape[1]}")
    x[rows] = 0.0
    x[rows, classes] = 1.0
    return x
