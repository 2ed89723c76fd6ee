"""Seeded synthetic datasets: isotropic Gaussian blobs with separated centroids."""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .core import FeatureSet, LabelSet, integer
from .errors import ConfigError, InvalidSpec


@dataclass(frozen=True)
class BlobSpec:
    blobs: int = 3
    per_blob: int = 100
    dim: int = 2
    separation: float = 6.0
    stddev: float = 1.0

    def __post_init__(self):
        for name in ("blobs", "per_blob", "dim"):
            object.__setattr__(self, name, integer(name, getattr(self, name)))
        for name in ("separation", "stddev"):
            if not isinstance(getattr(self, name), numbers.Real):
                raise ConfigError(f"{name} must be a number, got {getattr(self, name)!r}")
        if self.blobs < 1 or self.per_blob < 1 or self.dim < 1:
            raise InvalidSpec("blobs, per_blob and dim must all be >= 1")
        # _place_centroids may double its box 63 times; squared distances in it must stay below 1.8e308
        box = max(self.separation, 1.0) * max(self.blobs, 2) * 2.0**63 * self.dim**0.5
        if not (0 <= self.separation and 0 <= self.stddev < np.inf and box < 1e154):
            raise InvalidSpec("stddev must be finite and >= 0, separation >= 0 and small enough to place centroids")


def _place_centroids(spec: BlobSpec, rng) -> np.ndarray:
    """Rejection-sample centroids in a box until all pairwise distances
    reach the separation; the box grows if a configuration is tight."""
    span = max(spec.separation, 1.0) * max(spec.blobs, 2)
    for _ in range(64):
        for _ in range(10_000):
            c = rng.uniform(0.0, span, size=(spec.blobs, spec.dim))
            diff = c[:, None, :] - c[None, :, :]
            dist = np.sqrt(np.sum(diff**2, axis=2))
            np.fill_diagonal(dist, np.inf)
            if spec.blobs == 1 or dist.min() >= spec.separation:
                return c
        span *= 2.0
    raise InvalidSpec("could not place centroids at the requested separation")


def make_synthetic(spec: BlobSpec, seed: int) -> tuple[FeatureSet, LabelSet]:
    """Deterministic Gaussian blobs plus their generating labels.

    Centroids are mutually at least ``spec.separation`` apart; each blob
    contributes ``spec.per_blob`` points drawn isotropically with
    ``spec.stddev``. With stddev 0 every point sits exactly on its
    centroid. ``seed`` is an integer >= 0. A stddev so large that a drawn
    point overflows float64 is an InvalidSpec.
    """
    rng = np.random.default_rng(integer("seed", seed, low=0))
    centroids = _place_centroids(spec, rng)
    with np.errstate(over="ignore"):
        points = np.vstack(
            [
                centroids[b] + spec.stddev * rng.standard_normal((spec.per_blob, spec.dim))
                for b in range(spec.blobs)
            ]
        )
    if not np.isfinite(points).all():
        raise InvalidSpec("stddev too large: a drawn point overflows float64")
    labels = np.repeat(np.arange(spec.blobs), spec.per_blob)
    n = spec.blobs * spec.per_blob
    ids = tuple(f"s{i:05d}" for i in range(n))
    return FeatureSet(points, ids), LabelSet(num_classes=spec.blobs, labels=labels)


def true_centroids(spec: BlobSpec, seed: int) -> np.ndarray:
    """The generator's centroids for the same (spec, seed); lets callers
    build a nearest-true-centroid reference classifier."""
    rng = np.random.default_rng(integer("seed", seed, low=0))
    return _place_centroids(spec, rng)
