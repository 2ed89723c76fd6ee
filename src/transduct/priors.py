"""Initial assignment matrices: uniform or softmax priors, class masks,
anchor injection."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import AnchorSet, one_hot
from .errors import ConfigError, EmptyInput, NonFinite, ZeroRowSum


@dataclass(frozen=True)
class PriorConfig:
    """How the starting assignment X(0) is built.

    mode "uniform" spreads mass evenly over the classes; mode "logits"
    expects externally produced prediction logits and applies a softmax
    sharpened or flattened by ``temperature``. ``class_mask`` optionally
    restricts each sample to an allowed subset of classes.
    """

    mode: str = "uniform"
    temperature: float = 1.0
    class_mask: tuple | None = None

    def __post_init__(self):
        if self.mode not in ("uniform", "logits"):
            raise ConfigError(f"unknown prior mode {self.mode!r}")
        if not 0 < self.temperature < math.inf:
            raise ConfigError(f"temperature must be finite and positive, got {self.temperature!r}")


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
    temperatures sharpen toward one-hot without overflowing.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise NonFinite("logits contain non-finite entries")
    if not temperature > 0:
        raise ConfigError("temperature must be positive")
    scaled = logits / temperature
    scaled = scaled - scaled.max(axis=1, keepdims=True)
    e = np.exp(scaled)
    return e / e.sum(axis=1, keepdims=True)


def apply_class_mask(x, mask) -> np.ndarray:
    """Zero out disallowed classes per sample and renormalize the rows.

    ``mask`` is a sequence of per-sample allowed-class collections (or a
    boolean n x m array). A row whose allowed entries carried no mass
    raises ZeroRowSum: the mask conflicts with the prior.
    """
    x = np.asarray(x, dtype=np.float64)
    n, m = x.shape
    allowed = np.zeros((n, m), dtype=bool)
    mask_arr = np.asarray(mask, dtype=object)
    if mask_arr.ndim == 2 and mask_arr.shape == (n, m):
        allowed = np.asarray(mask, dtype=bool)
    else:
        if len(mask) != n:
            raise ConfigError(f"mask covers {len(mask)} samples, expected {n}")
        for i, classes in enumerate(mask):
            classes = list(classes)
            if not classes:
                raise ConfigError(f"class mask for sample {i} is empty")
            allowed[i, classes] = True
    survived = np.where(allowed, x, 0.0)
    sums = survived.sum(axis=1)
    bad = np.flatnonzero(sums <= 0)
    if bad.size:
        raise ZeroRowSum(int(bad[0]), f"class mask removed all mass from row {int(bad[0])}")
    return survived / sums[:, None]


def inject_anchors(x, anchors: AnchorSet) -> np.ndarray:
    """Replace each anchored row by the one-hot of its known label."""
    x = np.array(x, dtype=np.float64)
    n, m = x.shape
    anchors.validate_against(n, m)
    for i, c in anchors.entries:
        x[i] = one_hot(c, m)
    return x
