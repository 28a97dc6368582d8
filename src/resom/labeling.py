"""Assign a class to every neuron from a small labeled subset.

One rule, ``class_means``, labels both maps: each labeled sample's field (its
activities on map x, or its divergent activities on map y) is divided by its
peak, so the BMU contributes exactly 1.0 and every other neuron at most 1.0;
the normalized fields are averaged per class, and each neuron takes the
argmax class.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .data import FeatureMatrix
from .som import SomGrid, activities_batch

DEFAULT_ALPHA_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
# Draws of a subset that must cover every class before giving up.
MAX_REDRAWS = 1000


def class_means(fields: np.ndarray, labels: np.ndarray, n_classes: int) -> np.ndarray:
    """(n_neurons, n_classes) mean of each class's (n_samples, n_neurons) rows.

    Each row is first divided by its max where that max is positive; a row
    with no positive value is left as it is.  A class with no samples
    averages to 0.  np.argmax over a result row takes the lowest class on
    ties, which keeps labeling reproducible, and class 0 for an all-zero row.
    """
    peak = fields.max(axis=1)
    fields = fields / np.where(peak > 0, peak, 1.0)[:, None]
    sums = np.zeros((fields.shape[1], n_classes))
    for c in range(n_classes):
        sums[:, c] = fields[labels == c].sum(axis=0)
    return sums / np.maximum(np.bincount(labels, minlength=n_classes), 1)[None, :]


def select_label_subset(data: FeatureMatrix, fraction: float, seed: int) -> FeatureMatrix:
    """Seeded uniform sample without replacement of round(fraction * rows).

    Subsets missing a class are rejected and redrawn (the per-class average
    is undefined otherwise); the redraw loop keeps consuming the same seeded
    stream, so the result stays deterministic.
    """
    if data.labels is None:
        raise ValueError("labeled data required")
    n = data.n_samples
    size = round(fraction * n)
    if size < 1:
        raise ValueError(f"fraction {fraction} selects no samples from {n}")
    n_classes = data.n_classes
    rng = np.random.default_rng(seed)
    for _ in range(MAX_REDRAWS):
        rows = rng.choice(n, size=size, replace=False)
        subset = data.take(np.sort(rows))
        if np.all(np.bincount(subset.labels, minlength=n_classes) > 0):
            return subset
    raise ValueError(
        f"no subset of size {size} covered all {n_classes} classes "
        f"after {MAX_REDRAWS} draws"
    )


def label_som(som: SomGrid, subset: FeatureMatrix, kernel_width: float) -> SomGrid:
    """Labeled copy of the grid; requires every class present in the subset."""
    if subset.labels is None:
        raise ValueError("labeled subset required")
    acts = activities_batch(som, subset.values, kernel_width)
    if (acts.max(axis=1) == 0).any():
        raise ValueError(
            f"kernel width {kernel_width} underflows every activity for some sample"
        )
    n_classes = subset.n_classes
    missing = np.flatnonzero(np.bincount(subset.labels, minlength=n_classes) == 0)
    if missing.size:
        raise ValueError(f"subset has no samples for classes {missing.tolist()}")
    return replace(som, labels=np.argmax(class_means(acts, subset.labels, n_classes), axis=1))
