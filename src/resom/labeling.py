"""Assign a class to every neuron from a small labeled subset.

Each labeled sample distributes its per-neuron activities, normalized by the
BMU activity, into per-class accumulators; accumulators are then averaged
over the number of samples per class and each neuron takes the argmax class.
The BMU therefore contributes exactly 1.0 to its own class accumulator per
sample, every other neuron at most 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import FeatureMatrix
from .som import SomGrid, activities_batch

DEFAULT_ALPHA_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)


@dataclass
class ClassAccumulators:
    """Per-neuron, per-class activity sums plus the class sample counts."""

    acc: np.ndarray
    samples_per_class: np.ndarray

    @classmethod
    def from_activities(
        cls, activities: np.ndarray, labels: np.ndarray, n_classes: int
    ) -> "ClassAccumulators":
        """Sum the (n_samples, n_neurons) activity rows of each class."""
        acc = np.zeros((activities.shape[1], n_classes))
        for c in range(n_classes):
            rows = labels == c
            if rows.any():
                acc[:, c] = activities[rows].sum(axis=0)
        return cls(acc, np.bincount(labels, minlength=n_classes))

    def averaged(self) -> np.ndarray:
        # A class with no samples also has an all-zero accumulator column, so
        # clamping its divisor keeps the average total without changing it.
        counts = np.maximum(self.samples_per_class, 1)
        return self.acc / counts[None, :]

    def argmax_labels(self) -> np.ndarray:
        # np.argmax returns the lowest index on ties, which keeps labeling
        # reproducible; all-zero rows fall back to class 0.
        return np.argmax(self.averaged(), axis=1)


def select_label_subset(
    data: FeatureMatrix,
    fraction: float,
    seed: int,
    require_all_classes: bool = True,
    max_redraws: int = 1000,
) -> FeatureMatrix:
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
    for _ in range(max_redraws):
        rows = rng.choice(n, size=size, replace=False)
        subset = data.take(np.sort(rows))
        if not require_all_classes:
            return subset
        if np.all(np.bincount(subset.labels, minlength=n_classes) > 0):
            return subset
    raise ValueError(
        f"no subset of size {size} covered all {n_classes} classes "
        f"after {max_redraws} draws"
    )


def accumulate_class_activity(
    som: SomGrid, subset: FeatureMatrix, kernel_width: float, n_classes: int | None = None
) -> ClassAccumulators:
    if subset.labels is None:
        raise ValueError("labeled subset required")
    n_classes = n_classes or subset.n_classes
    acts = activities_batch(som, subset.values, kernel_width)
    peak = acts[np.arange(acts.shape[0]), np.argmax(acts, axis=1)]
    if (peak == 0).any():
        raise ValueError(
            f"kernel width {kernel_width} underflows every activity for some sample"
        )
    acts /= peak[:, None]
    return ClassAccumulators.from_activities(acts, subset.labels, n_classes)


def label_som(som: SomGrid, subset: FeatureMatrix, kernel_width: float) -> SomGrid:
    """Labeled copy of the grid; requires every class present in the subset."""
    accs = accumulate_class_activity(som, subset, kernel_width)
    if (accs.samples_per_class == 0).any():
        missing = np.flatnonzero(accs.samples_per_class == 0)
        raise ValueError(f"subset has no samples for classes {missing.tolist()}")
    return replace(som, labels=accs.argmax_labels())
