"""Scalar, one-input reference implementations of the batched library code.

Each function reads the paper's per-element definition directly: one
activity, one neighbourhood coefficient, one winner election, one BMU
normalization, one cell's merge of its neighbours' wave records.  The
library computes the same quantities in batches
(``som.distances``/``activities_from_distances``, the per-epoch table in
``som.train_many``, ``np.argmax`` over activity rows,
``labeling.class_means``, the ``grid`` wave loop); the tests check
those against these oracles.  ``converge_classify`` is no oracle: it is
the one-sample form of ``inference.converge_from_fields`` that the
convergence tests state their expected winners with.
"""

from dataclasses import dataclass

import numpy as np

from resom.association import LateralSynapses
from resom.grid import WaveResult, propagation_steps
from resom.inference import ConvergenceConfig, converge_from_fields
from resom.som import SomGrid, activities_batch


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


CARDINAL_OFFSETS = ((-1, 0), (1, 0), (0, -1), (0, 1))


@dataclass(frozen=True)
class CellSummary:
    """Everything a cell shares with its neighbors in one step."""

    best_value: float
    best_origin: int
    worst_value: float
    worst_origin: int


def merge_summaries(own: CellSummary, seen: CellSummary) -> CellSummary:
    bv, bo = own.best_value, own.best_origin
    if (seen.best_value > bv) or (seen.best_value == bv and seen.best_origin < bo):
        bv, bo = seen.best_value, seen.best_origin
    wv, wo = own.worst_value, own.worst_origin
    if (seen.worst_value < wv) or (seen.worst_value == wv and seen.worst_origin < wo):
        wv, wo = seen.worst_value, seen.worst_origin
    return CellSummary(bv, bo, wv, wo)


def winner_wave_cellwise(activities: np.ndarray, cell_order=None) -> WaveResult:
    """Slow reference: each cell is handed only its cardinal neighbors' state.

    ``cell_order`` permutes the within-step update order; double buffering
    makes the result independent of it (pinned by tests).
    """
    a = np.asarray(activities, dtype=np.float64)
    rows, cols = a.shape
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    if cell_order is None:
        cell_order = cells
    states = {
        (r, c): CellSummary(a[r, c], r * cols + c, a[r, c], r * cols + c)
        for r, c in cells
    }
    adopt = np.zeros((rows, cols), dtype=np.int64)
    t_p = propagation_steps(rows, cols)
    for step in range(1, t_p + 1):
        new = {}
        for r, c in cell_order:
            s = states[(r, c)]
            for dr, dc in CARDINAL_OFFSETS:
                nr, nc = r + dr, c + dc
                if 0 <= nr < rows and 0 <= nc < cols:
                    s = merge_summaries(s, states[(nr, nc)])
            new[(r, c)] = s
            if (s.best_value, s.best_origin) != (
                states[(r, c)].best_value, states[(r, c)].best_origin
            ):
                adopt[r, c] = step
        states = new
    bv = np.array([[states[(r, c)].best_value for c in range(cols)] for r in range(rows)])
    bo = np.array([[states[(r, c)].best_origin for c in range(cols)] for r in range(rows)])
    wv = np.array([[states[(r, c)].worst_value for c in range(cols)] for r in range(rows)])
    wo = np.array([[states[(r, c)].worst_origin for c in range(cols)] for r in range(rows)])
    return WaveResult(bv, bo, wv, wo, adopt, t_p)


@dataclass(frozen=True)
class GlobalDecision:
    map_id: str  # "x" | "y"
    neuron: int
    label: int


def converge_classify(
    v_x: np.ndarray,
    v_y: np.ndarray,
    som_x: SomGrid,
    som_y: SomGrid,
    syn_xy: LateralSynapses,
    syn_yx: LateralSynapses,
    cfg: ConvergenceConfig,
) -> GlobalDecision | None:
    """Single-sample convergence; None signals an explicit no-decision."""
    batch = converge_from_fields(
        som_x, som_y, syn_xy, syn_yx,
        activities_batch(som_x, np.asarray(v_x)[None, :], cfg.kernel_width_x),
        activities_batch(som_y, np.asarray(v_y)[None, :], cfg.kernel_width_y),
        cfg,
    )
    if batch.no_decision[0]:
        return None
    return GlobalDecision(str(batch.map_ids[0]), int(batch.neurons[0]), int(batch.labels[0]))
