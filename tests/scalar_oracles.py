"""Scalar, one-input reference implementations of the batched library code.

Each function reads the paper's per-element definition directly: one
activity, one neighbourhood coefficient, one winner election, one BMU
normalization.  The library computes the same quantities in batches
(``som.distances``/``activities_from_distances``, the per-epoch table in
``som.train_many``, ``np.argmax`` over activity rows, the labeling
accumulators); the tests check those against these oracles.
"""

from dataclasses import dataclass

import numpy as np

from resom.som import SomGrid


@dataclass
class ActivationField:
    """Per-neuron activities for one input, with elected best/worst units."""

    activities: np.ndarray
    bmu: int
    wmu: int


def activity(v: np.ndarray, w: np.ndarray, kernel_width: float) -> float:
    """exp(-||v - w|| / kernel_width); the norm is NOT squared."""
    v = np.asarray(v, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if v.shape != w.shape:
        raise ValueError(f"dimension mismatch: {v.shape} vs {w.shape}")
    if kernel_width <= 0:
        raise ValueError("kernel width must be positive")
    diff = v - w
    return float(np.exp(-np.sqrt(np.sum(diff * diff)) / kernel_width))


def neighborhood(p_n, p_s, sigma: float, grid_metric: str = "euclidean") -> float:
    """exp(-d^2 / (2 sigma^2)) over the chosen grid distance (squared here)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    dr = float(p_n[0] - p_s[0])
    dc = float(p_n[1] - p_s[1])
    if grid_metric == "manhattan":
        d = abs(dr) + abs(dc)
        dsq = d * d
    elif grid_metric == "euclidean":
        dsq = dr * dr + dc * dc
    else:
        raise ValueError(f"unknown grid metric {grid_metric!r}")
    return float(np.exp(-dsq / (2.0 * sigma * sigma)))


def elect_bmu_wmu(activities: np.ndarray) -> tuple[int, int]:
    """(argmax, argmin) with lowest-index tie-breaking."""
    activities = np.asarray(activities)
    if activities.size == 0:
        raise ValueError("empty activation field")
    return int(np.argmax(activities)), int(np.argmin(activities))


def activation_field(som: SomGrid, v: np.ndarray, kernel_width: float) -> ActivationField:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (som.dim,):
        raise ValueError(f"input dim {v.shape} does not match som dim {som.dim}")
    diff = v - som.weights
    acts = np.exp(-np.sqrt(np.sum(diff * diff, axis=1)) / kernel_width)
    bmu, wmu = elect_bmu_wmu(acts)
    return ActivationField(acts, bmu, wmu)


def bmu_normalized(activities: np.ndarray) -> np.ndarray:
    """Activities divided by the BMU activity (BMU maps to exactly 1.0)."""
    activities = np.asarray(activities, dtype=np.float64)
    return activities / activities[np.argmax(activities)]
