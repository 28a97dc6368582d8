"""Synchronous cellular grid simulator: winner waves and local training.

Each cell talks only to its four cardinal neighbors.  A winner wave runs
exactly t_p = rows + cols - 2 lockstep steps; every step, each cell merges
its neighbors' previous-step best/worst records (value first, then lowest
row-major origin on ties).  Because a record travels one hop per step, the
step at which a cell last improves its best record equals its Manhattan
distance to the global best cell, which is what local training uses as the
neighborhood distance: no second wave is needed.

A cell's record is one complex number, ``value - 1j * origin``; numpy
orders complex numbers by real then imaginary part, so ``np.maximum`` of
two records is the merge rule.  The wave is double-buffered (each step reads
only the previous snapshot), so results cannot depend on cell iteration
order.  A step merges each neighbour's previous records into a copy of the
cells' own, one ``np.maximum`` over shifted slices per neighbour: the
pairwise merge of the per-cell reference in the tests
(``winner_wave_cellwise``), which it must match in every field.

Cellular training is ``som.train``'s rule, epochs, coefficients and
per-sample distance (``som.sample_distances``) included, with one change: a
cell's grid distance to the winner is its wave adoption step.  It is written
row-wise (row n of each array is cell n's, and nothing crosses rows), so it
is bit-identical to ``som.train`` under the Manhattan metric: the kernel's
row sums are the training loop's and every other operation is elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .som import (SomGrid, TrainSchedule, activities_from_distances, neighborhood,
                  sample_distances, training_epochs, validate_training_data)


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
    """Yield each step's ``(records, adopt)``, from step 0 to t_p.

    ``records`` is complex (2, rows, cols): channel 0 is each cell's best
    record ``a - 1j*origin``, channel 1 its worst record with the value
    negated, ``-a - 1j*origin``: one ``np.maximum`` (higher value, then lower
    origin, signed zeros included) merges both.  ``adopt`` is each cell's
    step of its last new best record.  A later step overwrites both arrays.
    """
    a = np.ascontiguousarray(activities, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("activities must form a rectangular grid")
    if not np.isfinite(a).all():
        raise ValueError("activities contain non-finite values")
    rows, cols = a.shape
    prev, cur = np.empty((2, 2, rows, cols), dtype=np.complex128)
    prev.real[0], prev.real[1] = a, -a
    prev.imag = -np.arange(a.size).reshape(rows, cols)
    adopt = np.zeros((rows, cols), dtype=np.int64)
    yield prev, adopt
    for step in range(1, propagation_steps(rows, cols) + 1):
        np.copyto(cur, prev)
        for cells, seen in _NEIGHBOURS:
            np.maximum(cur[cells], prev[seen], out=cur[cells])
        adopt[cur[0] != prev[0]] = step
        prev, cur = cur, prev
        yield prev, adopt


def _decoded(records: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, origins) of ``_wave``'s records, the worst values negated back."""
    values = records.real.copy()
    np.negative(values[1], out=values[1])
    origins = np.negative(records.imag, out=np.empty(records.shape, np.int64), casting="unsafe")
    return values, origins


def winner_wave(activities: np.ndarray) -> WaveResult:
    """Run the full wave; distance_to_bmu is each cell's last-improvement step."""
    for step, (records, adopt) in enumerate(_wave(activities)):
        pass
    values, origins = _decoded(records)  # best and worst: views of one array each
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
            "best_value": values[0, r, c], "best_origin": origins[0, r, c],
            "worst_value": values[1, r, c], "worst_origin": origins[1, r, c],
            "adopt_step": adopt[r, c],
        }
        for step, (records, adopt) in enumerate(_wave(activities))
        for values, origins in [_decoded(records)]
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

def ig_train(som: SomGrid, data: np.ndarray, schedule: TrainSchedule, seed: int) -> SomGrid:
    """Cellular counterpart of som.train with the Manhattan grid metric.

    Per sample each cell computes its own activity, the winner wave delivers
    the BMU and the cell's Manhattan distance to it, then the cell updates its
    own weights locally; that is t_p + 1 simulator steps per sample
    (``cost_report(...).total_steps`` for the run).  Row n of every array
    below is cell n's: its weights, its activity, its wave output and its
    update, with no value crossing rows.  Epochs and coefficients are
    som.train's, so the weights equal train(..., grid_metric="manhattan")'s.
    """
    X = validate_training_data(som, data)
    W = som.weights.copy()
    diff, sq, dist = np.empty_like(W), np.empty_like(W), np.empty(len(W))
    # A wave reports hop counts 0..t_p only: tabulate their coefficients.
    dsq = np.arange(propagation_steps(som.height, som.width) + 1.0) ** 2
    for lr, sigma, (order,) in training_epochs(schedule, [seed], X.shape[0]):
        h = neighborhood(dsq, lr, sigma)
        for i in order:
            sample_distances(X[i], W, diff, sq, dist)
            acts = activities_from_distances(dist, 1.0)
            for _, adopt in _wave(acts.reshape(som.height, som.width)):
                pass
            W += np.multiply(h[adopt.ravel()][:, None], diff, out=diff)
    return replace(som, weights=W, labels=None)


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
