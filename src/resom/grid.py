"""Synchronous cellular grid simulator: winner waves and local training.

Each cell talks only to its four cardinal neighbors.  A winner wave runs
exactly t_p = rows + cols - 2 lockstep steps; every step, each cell merges
its neighbors' previous-step best/worst records (value first, then lowest
row-major origin on ties).  Because a record travels one hop per step, the
step at which a cell last improves its best record equals its Manhattan
distance to the global best cell, which is what local training uses as the
neighborhood distance: no second wave is needed.

All step functions are double-buffered (new state built purely from the
previous snapshot), so results cannot depend on cell iteration order.  A
wave step merges each cell's own record with its four neighbours' in one
stacked max/min-origin operation; the tests hold an explicit per-cell
reference (``winner_wave_cellwise``) that it must match in every field.

Cellular training is written row-wise: row n of each array is cell n's own
weights, activity, wave output and update, and nothing crosses rows.  It is
bit-identical to ``som.train`` under the Manhattan metric because the
row-wise square sums match per-row sums and every other operation is
elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .som import SomGrid, TrainSchedule, decay, validate_training_data


def propagation_steps(rows: int, cols: int) -> int:
    """Steps for any record to cover an entire rows x cols grid."""
    if rows < 1 or cols < 1:
        raise ValueError("grid sides must be positive")
    return rows + cols - 2


# ---------------------------------------------------------------------------
# Vectorized wave
# ---------------------------------------------------------------------------

@dataclass
class WaveResult:
    """Per-cell view after the wave; values/origins are uniform on completion."""

    best_values: np.ndarray
    best_origins: np.ndarray
    worst_values: np.ndarray
    worst_origins: np.ndarray
    distance_to_bmu: np.ndarray
    steps: int

    def _uniform(self, arr: np.ndarray) -> int:
        v = arr.flat[0]
        if not np.all(arr == v):
            raise AssertionError("wave did not converge to a uniform winner")
        return int(v)

    @property
    def bmu_index(self) -> int:
        return self._uniform(self.best_origins)

    @property
    def wmu_index(self) -> int:
        return self._uniform(self.worst_origins)

    @property
    def bmu_value(self) -> float:
        return float(self.best_values.flat[0])

    @property
    def wmu_value(self) -> float:
        return float(self.worst_values.flat[0])


def _wave_init(activities: np.ndarray) -> dict:
    """Step-0 state: every cell's best and worst record is its own activity.

    ``values`` and ``origins`` are (2, rows, cols): channel 0 holds the best
    record, channel 1 the worst.  ``steps`` is the step at which each cell
    last adopted a new best record.
    """
    a = np.ascontiguousarray(activities, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("activities must form a rectangular grid")
    if not np.isfinite(a).all():
        raise ValueError("activities contain non-finite values")
    rows, cols = a.shape
    origins = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    return {
        "values": np.stack([a, a]),
        "origins": np.stack([origins, origins]),
        "steps": np.zeros((rows, cols), dtype=np.int64),
    }


_NO_ORIGIN = np.iinfo(np.int64).max
# Off-grid fill per channel: never better than a finite activity.
_NO_VALUE = np.array([-np.inf, np.inf])[:, None, None]


def _with_neighbours(arr: np.ndarray, fill) -> np.ndarray:
    """(5, 2, rows, cols): each cell's own entry, then its up, down, left and
    right neighbours' entries, ``fill`` where the neighbour is off the grid."""
    out = np.empty((5,) + arr.shape, dtype=arr.dtype)
    out[1:] = fill
    out[0] = arr
    out[1, :, 1:, :] = arr[:, :-1, :]
    out[2, :, :-1, :] = arr[:, 1:, :]
    out[3, :, :, 1:] = arr[:, :, :-1]
    out[4, :, :, :-1] = arr[:, :, 1:]
    return out


def _wave_step(state: dict, step: int) -> dict:
    """One synchronous step from the previous snapshot (pure).

    Every cell adopts, per channel, the record among its own and its four
    neighbours' with the extreme value (max for best, min for worst), the
    lowest origin among equal values.  A record's value and origin are taken
    together from the winning candidate, so for finite activities this is
    the sequential pairwise merge of the per-cell reference in the tests.
    """
    values, origins = state["values"], state["origins"]
    cand_v = _with_neighbours(values, _NO_VALUE)
    cand_o = _with_neighbours(origins, _NO_ORIGIN)
    extreme = np.stack([cand_v[:, 0].max(axis=0), cand_v[:, 1].min(axis=0)])
    # Candidates without the extreme value drop out of the origin contest;
    # the winner holds that value, so its origin is read back unmasked.
    np.putmask(cand_o, cand_v != extreme, _NO_ORIGIN)
    # Flat index of each (channel, cell)'s winning record in the candidate stack.
    pick = cand_o.argmin(axis=0) * values.size
    pick += np.arange(values.size).reshape(values.shape)
    new_v, new_o = cand_v.take(pick), cand_o.take(pick)
    changed = (new_v[0] != values[0]) | (new_o[0] != origins[0])
    return {
        "values": new_v,
        "origins": new_o,
        "steps": np.where(changed, step, state["steps"]),
    }


def winner_wave(activities: np.ndarray) -> WaveResult:
    """Run the full wave; distance_to_bmu is each cell's last-improvement step."""
    state = _wave_init(activities)
    _, rows, cols = state["values"].shape
    t_p = propagation_steps(rows, cols)
    for step in range(1, t_p + 1):
        state = _wave_step(state, step)
    values, origins = state["values"], state["origins"]
    return WaveResult(
        best_values=values[0],
        best_origins=origins[0],
        worst_values=values[1],
        worst_origins=origins[1],
        distance_to_bmu=state["steps"],
        steps=t_p,
    )


def wave_trace(activities: np.ndarray) -> list[dict]:
    """Per-step, per-cell state rows (for CSV debugging dumps)."""
    state = _wave_init(activities)
    _, rows, cols = state["values"].shape
    t_p = propagation_steps(rows, cols)
    out = []

    def snapshot(step):
        values, origins, steps = state["values"], state["origins"], state["steps"]
        for r in range(rows):
            for c in range(cols):
                out.append({
                    "step": step, "row": r, "col": c,
                    "best_value": values[0, r, c],
                    "best_origin": origins[0, r, c],
                    "worst_value": values[1, r, c],
                    "worst_origin": origins[1, r, c],
                    "adopt_step": steps[r, c],
                })

    snapshot(0)
    for step in range(1, t_p + 1):
        state = _wave_step(state, step)
        snapshot(step)
    return out


# ---------------------------------------------------------------------------
# Cellular training
# ---------------------------------------------------------------------------

def ig_train_epoch(
    som: SomGrid, samples: np.ndarray, lr: float, sigma: float
) -> tuple[SomGrid, int]:
    """One epoch over ``samples`` in the given order; returns (grid, steps).

    Per sample each cell computes its own activity, the winner wave delivers
    the BMU and the cell's Manhattan distance to it, then the cell updates its
    own weights locally; that is t_p + 1 simulator steps per sample.  Row n
    of every array below is cell n's: its weights, its activity, its wave
    output and its update, with no value crossing rows.
    """
    W = som.weights.copy()
    width, height = som.width, som.height
    denom = 2.0 * sigma * sigma
    t_p = propagation_steps(height, width)
    steps = 0
    for v in np.ascontiguousarray(samples, dtype=np.float64):
        diff = v - W
        acts = np.exp(-np.sqrt(np.sum(diff * diff, axis=1)))
        d = winner_wave(acts.reshape(height, width)).distance_to_bmu.ravel()
        h = np.exp(-(d * d) / denom)
        W += (lr * h)[:, None] * diff
        steps += t_p + 1
    return replace(som, weights=W, labels=None), steps


def ig_train(som: SomGrid, data: np.ndarray, schedule: TrainSchedule, seed: int) -> SomGrid:
    """Cellular counterpart of som.train with the Manhattan grid metric.

    Uses the same seeded shuffling and per-epoch decay, so the final weights
    are bit-identical to train(..., grid_metric="manhattan").
    """
    X = validate_training_data(som, data)
    rng = np.random.default_rng(seed)
    out = som
    for t in range(schedule.epochs):
        lr = decay(t, schedule.epochs, schedule.lr_start, schedule.lr_end)
        sigma = decay(t, schedule.epochs, schedule.sigma_start, schedule.sigma_end)
        out, _ = ig_train_epoch(out, X[rng.permutation(X.shape[0])], lr, sigma)
    return out


# ---------------------------------------------------------------------------
# Cost accounting
# ---------------------------------------------------------------------------

@dataclass
class CostReport:
    rows: int
    cols: int
    n_cells: int
    t_p: int
    steps_per_sample: int
    total_steps: int
    messages_per_step: int
    messages_per_wave: int
    message_upper_bound: int
    centralized_ops_per_sample: int


def cost_report(rows: int, cols: int, n_samples: int) -> CostReport:
    """Step/message counts for the cellular path vs a centralized scan.

    Every cell sends its state to each in-grid cardinal neighbor once per
    step, so messages per step equal twice the number of grid edges; the
    4-per-cell bound is only reached away from the boundary.
    """
    t_p = propagation_steps(rows, cols)
    n = rows * cols
    edges = rows * (cols - 1) + cols * (rows - 1)
    return CostReport(
        rows=rows,
        cols=cols,
        n_cells=n,
        t_p=t_p,
        steps_per_sample=t_p + 1,
        total_steps=n_samples * (t_p + 1),
        messages_per_step=2 * edges,
        messages_per_wave=2 * edges * t_p,
        message_upper_bound=n * 4 * t_p,
        centralized_ops_per_sample=n,
    )
