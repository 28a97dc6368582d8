"""Paired two-modality synthetic data with complementary class confusions.

Each class is a Gaussian cluster per modality inside the unit cube.  Chosen
class pairs share nearly-identical centers in one modality (controlled by
``confusion_overlap``) while staying well separated in the other, so each
modality is weak exactly where the other is strong.  That makes the data a
self-contained benchmark for cross-map fusion without any download.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FeatureMatrix, PairedDataset


@dataclass(frozen=True)
class SyntheticSpec:
    n_classes: int = 6
    dim_x: int = 16
    dim_y: int = 16
    train_per_class: int = 300
    test_per_class: int = 80
    noise: float = 0.07
    min_separation: float = 0.45
    confusion_overlap: float = 0.85
    # x is deliberately the stronger modality (one confused pair vs two):
    # divergence labels y from x, and label transfer wants a strong source.
    confused_x: tuple[tuple[int, int], ...] = ((4, 5),)
    confused_y: tuple[tuple[int, int], ...] = ((0, 1), (2, 3))

    def __post_init__(self):
        for name in ("n_classes", "dim_x", "dim_y", "train_per_class", "test_per_class"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        for a, b in self.confused_x + self.confused_y:
            if not (0 <= a < self.n_classes and 0 <= b < self.n_classes and a != b):
                raise ValueError(f"bad confused pair ({a}, {b})")
        for pairs in (self.confused_x, self.confused_y):
            flat = [c for p in pairs for c in p]
            if len(flat) != len(set(flat)):
                raise ValueError("a class may appear in at most one pair per modality")
        if not self.noise >= 0:
            raise ValueError(f"noise must be >= 0, got {self.noise}")
        if not 0.0 <= self.confusion_overlap <= 1.0:
            raise ValueError("confusion_overlap must lie in [0, 1]")


def _class_centers(
    rng: np.random.Generator,
    n_classes: int,
    dim: int,
    confused: tuple[tuple[int, int], ...],
    min_separation: float,
    overlap: float,
) -> np.ndarray:
    """One center per class; confused pairs sit close, everyone else apart.

    Confused pairs share a group anchor and are split by a gap that shrinks
    to zero as overlap approaches 1; group anchors are rejection-sampled to
    keep all non-confused relations at least min_separation apart.
    """
    group_of = list(range(n_classes))
    for a, b in confused:
        group_of[b] = group_of[a]
    groups = sorted(set(group_of))
    anchors = {}
    for g in groups:
        for _ in range(10_000):
            cand = rng.uniform(0.2, 0.8, size=dim)
            if all(np.linalg.norm(cand - a) >= min_separation for a in anchors.values()):
                anchors[g] = cand
                break
        else:
            raise ValueError("could not place separated class centers; lower min_separation")
    centers = np.empty((n_classes, dim))
    gap = (1.0 - overlap) * min_separation
    for c in range(n_classes):
        centers[c] = anchors[group_of[c]]
    for a, b in confused:
        direction = rng.normal(size=dim)
        direction /= np.linalg.norm(direction)
        centers[b] = centers[a] + gap * direction
    return centers


def _sample_modality(
    rng: np.random.Generator, centers: np.ndarray, labels: np.ndarray, noise: float
) -> np.ndarray:
    points = centers[labels] + rng.normal(scale=noise, size=(labels.size, centers.shape[1]))
    return np.clip(points, 0.0, 1.0)


def make_paired_dataset(
    spec: SyntheticSpec, seed: int
) -> tuple[PairedDataset, PairedDataset]:
    """(train, test) paired datasets, rows shuffled, identity pairing."""
    rng = np.random.default_rng(seed)
    centers_x = _class_centers(
        rng, spec.n_classes, spec.dim_x, spec.confused_x,
        spec.min_separation, spec.confusion_overlap,
    )
    centers_y = _class_centers(
        rng, spec.n_classes, spec.dim_y, spec.confused_y,
        spec.min_separation, spec.confusion_overlap,
    )

    def split(per_class: int) -> PairedDataset:
        labels = np.repeat(np.arange(spec.n_classes), per_class)
        labels = labels[rng.permutation(labels.size)]
        x = _sample_modality(rng, centers_x, labels, spec.noise)
        y = _sample_modality(rng, centers_y, labels, spec.noise)
        return PairedDataset(
            FeatureMatrix(x, labels),
            FeatureMatrix(y, labels),
            np.arange(labels.size),
        )

    return split(spec.train_per_class), split(spec.test_per_class)
