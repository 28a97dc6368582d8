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
wave step copies each cell's own record and merges its four neighbours'
previous records into the copy one neighbour at a time, as shifted-slice
array operations over all cells: the pairwise merge of the per-cell
reference in the tests (``winner_wave_cellwise``), which it must match in
every field.

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


# Each cardinal neighbour as (cells, their neighbours) slices of a
# (channel, row, col) array, in the reference's up, down, left, right order.
_NEIGHBOURS = (
    (np.s_[:, 1:], np.s_[:, :-1]),
    (np.s_[:, :-1], np.s_[:, 1:]),
    (np.s_[:, :, 1:], np.s_[:, :, :-1]),
    (np.s_[:, :, :-1], np.s_[:, :, 1:]),
)


def _wave(activities: np.ndarray):
    """Yield each step's ``(values, origins, adopt)``, from step 0 to t_p.

    ``values`` and ``origins`` are (2, rows, cols): channel 0 is each cell's
    best record, channel 1 its worst record with the value negated, so one
    rule (higher value, then lower origin) merges both and the negation is
    exact, signed zeros included.  ``adopt`` is the step at which each cell
    last adopted a new best record.  Every step starts from a copy of each
    cell's own previous record and merges its neighbours' previous records
    into it one at a time: ``merge_summaries`` of the per-cell reference.
    """
    a = np.ascontiguousarray(activities, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("activities must form a rectangular grid")
    if not np.isfinite(a).all():
        raise ValueError("activities contain non-finite values")
    rows, cols = a.shape
    values = np.stack([a, -a])
    origins = np.stack([np.arange(a.size, dtype=np.int64).reshape(rows, cols)] * 2)
    adopt = np.zeros((rows, cols), dtype=np.int64)
    yield values, origins, adopt
    for step in range(1, propagation_steps(rows, cols) + 1):
        new_v, new_o = values.copy(), origins.copy()
        for cells, seen in _NEIGHBOURS:
            v, o, own_v, own_o = values[seen], origins[seen], new_v[cells], new_o[cells]
            better = (v > own_v) | ((v == own_v) & (o < own_o))
            np.copyto(own_v, v, where=better)
            np.copyto(own_o, o, where=better)
        adopt = np.where(new_o[0] != origins[0], step, adopt)
        values, origins = new_v, new_o
        yield values, origins, adopt


def winner_wave(activities: np.ndarray) -> WaveResult:
    """Run the full wave; distance_to_bmu is each cell's last-improvement step."""
    for step, (values, origins, adopt) in enumerate(_wave(activities)):
        pass
    np.negative(values[1], out=values[1])  # in place: the records stay views of one array
    return WaveResult(
        best_values=values[0],
        best_origins=origins[0],
        worst_values=values[1],
        worst_origins=origins[1],
        distance_to_bmu=adopt,
        steps=step,
    )


def wave_trace(activities: np.ndarray) -> list[dict]:
    """Per-step, per-cell state rows (for CSV debugging dumps)."""
    return [
        {
            "step": step, "row": r, "col": c,
            "best_value": values[0, r, c],
            "best_origin": origins[0, r, c],
            "worst_value": -values[1, r, c],
            "worst_origin": origins[1, r, c],
            "adopt_step": adopt[r, c],
        }
        for step, (values, origins, adopt) in enumerate(_wave(activities))
        for r, c in np.ndindex(adopt.shape)
    ]


def check_waves(rows: int, cols: int, trials: int, seed: int) -> tuple[int, np.ndarray]:
    """Count winner waves that disagree with the centralized oracle.

    Draws ``trials`` uniform rows x cols activity grids from
    ``default_rng(seed)``; a wave agrees when every cell holds the argmax as
    its best origin, the argmin as its worst origin and its Manhattan
    distance to the argmax as its adoption step.  Returns the mismatch count
    and the first grid drawn.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    r, c = np.indices((rows, cols))
    mismatches = 0
    for trial in range(trials):
        acts = rng.random((rows, cols))
        if trial == 0:
            first = acts
        wave = winner_wave(acts)
        bmu = int(np.argmax(acts))
        br, bc = divmod(bmu, cols)
        ok = (
            np.all(wave.best_origins == bmu)
            and np.all(wave.worst_origins == int(np.argmin(acts)))
            and np.array_equal(wave.distance_to_bmu, np.abs(r - br) + np.abs(c - bc))
        )
        mismatches += not ok
    return mismatches, first


# ---------------------------------------------------------------------------
# Cellular training
# ---------------------------------------------------------------------------

def ig_train_epoch(som: SomGrid, samples: np.ndarray, lr: float, sigma: float) -> SomGrid:
    """One epoch over ``samples`` in the given order.

    Per sample each cell computes its own activity, the winner wave delivers
    the BMU and the cell's Manhattan distance to it, then the cell updates its
    own weights locally; that is t_p + 1 simulator steps per sample
    (``cost_report(...).total_steps`` for the epoch).  Row n of every array
    below is cell n's: its weights, its activity, its wave output and its
    update, with no value crossing rows.
    """
    W = som.weights.copy()
    width, height = som.width, som.height
    denom = 2.0 * sigma * sigma
    for v in np.ascontiguousarray(samples, dtype=np.float64):
        diff = v - W
        acts = np.exp(-np.sqrt(np.sum(diff * diff, axis=1)))
        d = winner_wave(acts.reshape(height, width)).distance_to_bmu.ravel()
        h = np.exp(-(d * d) / denom)
        W += (lr * h)[:, None] * diff
    return replace(som, weights=W, labels=None)


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
        out = ig_train_epoch(out, X[rng.permutation(X.shape[0])], lr, sigma)
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
