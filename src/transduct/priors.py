"""Initial assignment matrices: uniform or softmax priors, anchor
injection."""
from __future__ import annotations

import numpy as np

from .core import LabelSet, check_settings, normalize_rows
from .errors import ConfigError, EmptyInput, NonFinite, OutOfRange, ShapeMismatch


def uniform_prior(n: int, m: int) -> np.ndarray:
    """Every entry 1/m."""
    if n < 1:
        raise EmptyInput("need at least one sample")
    if m < 2:
        raise ConfigError("need at least two classes")
    return np.full((n, m), 1.0 / m)


def softmax_with_temperature(logits, temperature: float = 1.0) -> np.ndarray:
    """Row-wise softmax of ``logits / temperature``.

    Max-subtraction keeps the exponentials bounded, so very small
    temperatures sharpen toward one-hot without overflowing. A temperature
    that is not finite and positive is a ConfigError.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise NonFinite("logits contain non-finite entries")
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
    x = np.array(x, dtype=np.float64)
    n, m = x.shape
    if anchors.labels.shape[0] != n:
        raise ShapeMismatch(f"anchor vector has {anchors.labels.shape[0]} entries for {n} rows")
    rows = anchors.labeled_indices()
    classes = anchors.labels[rows]
    if classes.size and classes.max() >= m:
        raise OutOfRange(f"anchor class {int(classes.max())} out of range for m={m}")
    x[rows] = 0.0
    x[rows, classes] = 1.0
    return x
