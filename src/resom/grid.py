"""Synchronous cellular grid simulator: winner waves and local training.

Each cell talks only to its four cardinal neighbors.  A winner wave runs
exactly t_p = rows + cols - 2 lockstep steps; every step, each cell merges
its neighbors' previous-step best/worst records (value first, then lowest
row-major origin on ties).  Because a record travels one hop per step, the
step at which a cell last improves its best record equals its Manhattan
distance to the global best cell, which is what local training uses as the
neighborhood distance: no second wave is needed.

A cell's record is an int64 rank: the position of its (value, origin) in one
global merge order, which one stable sort of the grid's activities fixes
before step 1 (the best channel by falling value, the worst by rising value,
lower origin first on ties, so -0.0 ties 0.0).  The order is the merge
rule's, so ``np.minimum`` of two ranks picks the record the rule picks.  The
relabeling changes no simulated quantity: each cell still reads only its
neighbours' previous records, and every step's (value, origin) pairs decode
exactly from the ranks (values read back from the activities, sign bits
included).  The records are channel-last, (..., rows, cols, 2), so a merge
with the row above or below is one contiguous run and one with a left or
right neighbour one run of 2 (cols - 1) per row.  The wave is
double-buffered (each step reads only the previous snapshot), so results
cannot depend on cell iteration order.  A step copies the cells' own records
and merges each neighbour's with one ``np.minimum`` over shifted views: the
pairwise merge of the per-cell reference in the tests
(``winner_wave_cellwise``), which it must match in every field.

No step tracks the adoption step.  Ranks are a permutation per channel, so
a cell's best record at step s is the unique minimum over its radius-s
Manhattan ball: it last changed at step d(cell, origin), when its origin
entered the ball.  The adoption step is thus |r - r_o| + |c - c_o| of the
best origin at every step, and stays local: a cell knows its coordinates
and its record's origin.  ``ig_train`` builds one ``_WaveState`` (buffers,
views, index grids) per call; per sample it runs the sort, the steps and
the best origins' decode.  ``_wave`` refuses non-finite activities; those
``ig_train`` computes from its checked data are not checked again, as
``som.train`` checks none.  Activities of shape (..., rows, cols) run as one
wave per leading index; ``check_waves`` runs its trials so, in blocks.

Cellular training is ``som.train``'s rule, epochs, coefficients and
per-sample distance (``som.sample_distances``) included, with one change: a
cell's grid distance to the winner is its wave adoption step.  It is written
row-wise (row n of each array is cell n's, and nothing crosses rows), so it
is bit-identical to ``som.train`` under the Manhattan metric: the kernel's
row sums are the training loop's and every other operation is elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

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
    """Per-cell view after the wave; values/origins are uniform on completion.

    Every field has the activities' (..., rows, cols) shape; the scalar
    properties need a single grid's.
    """

    best_values: np.ndarray
    best_origins: np.ndarray
    worst_values: np.ndarray
    worst_origins: np.ndarray
    distance_to_bmu: np.ndarray
    steps: int

    def _uniform(self, arr: np.ndarray):
        if arr.ndim != 2:
            raise ValueError("a batch of waves has one winner per grid: read the fields")
        v = arr.flat[0]
        if not np.all(arr == v):
            raise AssertionError("wave did not converge to a uniform winner")
        return v

    @property
    def bmu_index(self) -> int:
        return int(self._uniform(self.best_origins))

    @property
    def wmu_index(self) -> int:
        return int(self._uniform(self.worst_origins))


# Each cardinal neighbour as (cells, their neighbours) slices of a
# (..., row, col, channel) array, in the reference's up, down, left, right order.
_NEIGHBOURS = (
    (np.s_[..., 1:, :, :], np.s_[..., :-1, :, :]),
    (np.s_[..., :-1, :, :], np.s_[..., 1:, :, :]),
    (np.s_[..., 1:, :], np.s_[..., :-1, :]),
    (np.s_[..., :-1, :], np.s_[..., 1:, :]),
)


class _WaveState:
    """Two snapshots of a shape's records (step s writes snapshot s % 2), their
    neighbour views, and the index grids of np.put/take_along_axis."""

    def __init__(self, shape: tuple[int, ...]):
        *lead, rows, cols = shape
        self.shape, self.flat = shape, (*lead, rows * cols, 2)
        self.records = np.empty((2, *shape, 2), dtype=np.int64)
        self.parities = [(dst, src, [(dst[cells], src[seen]) for cells, seen in _NEIGHBOURS])
                         for dst, src in (self.records, self.records[::-1])]
        self.lead = [np.arange(k).reshape(k, *[1] * (len(lead) - i + 1)) for i, k in enumerate(lead)]
        self.channels, self.ranks = np.arange(2), np.arange(rows * cols)[:, None]
        self.cells = np.divmod(self.ranks, cols)

    def run(self, a: np.ndarray):
        """Yield the records of each step of the wave over finite ``a``, 0 to t_p."""
        keys = np.empty(self.records.shape[1:])
        np.negative(a, out=keys[..., 0])
        keys[..., 1] = a
        self.activities, self.order = a, keys.reshape(self.flat).argsort(axis=-2, kind="stable")
        self.records[0].reshape(self.flat)[(*self.lead, self.order, self.channels)] = self.ranks
        yield self.records[0]
        for step in range(1, propagation_steps(*self.shape[-2:]) + 1):
            cur, prev, merges = self.parities[step % 2]
            np.copyto(cur, prev)
            for cells, seen in merges:
                np.minimum(cells, seen, out=cells)
            yield cur

    def adopt(self, records: np.ndarray) -> np.ndarray:
        """Each cell's step of its last new best record: its hops to that origin."""
        ro, co = np.divmod(self.order[(*self.lead, records.reshape(self.flat)[..., :1], 0)],
                           self.shape[-1])
        ro -= self.cells[0]
        co -= self.cells[1]
        return np.add(np.abs(ro, out=ro), np.abs(co, out=co), out=ro).reshape(self.shape)

    def decode(self, records: np.ndarray):
        """The step's (values, origins, adopt); [0] of values and origins is the best."""
        origins = self.order[(*self.lead, records.reshape(self.flat), self.channels)]
        values = self.activities.reshape(self.flat[:-1])[(*self.lead, origins)]
        # adopt last: decoded first, it left kept waves holes in the heap.
        return (*(x.reshape(*self.shape, 2).transpose(-1, *range(len(self.shape)))
                  for x in (values, origins)), self.adopt(records))


def _wave(activities: np.ndarray):
    """Yield each step's ``_WaveState.decode``, step 0 to t_p; call it before the next."""
    a = np.ascontiguousarray(activities, dtype=np.float64)
    if a.ndim < 2:
        raise ValueError("activities must form a rectangular grid")
    if not np.isfinite(a).all():
        raise ValueError("activities contain non-finite values")
    wave = _WaveState(a.shape)
    return (partial(wave.decode, records) for records in wave.run(a))


def winner_wave(activities: np.ndarray) -> WaveResult:
    """Run the full wave over (..., rows, cols) activities, one per grid.

    distance_to_bmu is each cell's last-improvement step; every field has
    the activities' shape.
    """
    for step, decoded in enumerate(_wave(activities)):
        pass
    values, origins, adopt = decoded()  # best and worst: views of one array each
    return WaveResult(
        best_values=values[0],
        best_origins=origins[0],
        worst_values=values[1],
        worst_origins=origins[1],
        distance_to_bmu=adopt,
        steps=step,
    )


def wave_trace(activities: np.ndarray) -> list[dict]:
    """Per-step, per-cell state rows of one grid (for CSV debugging dumps)."""
    if np.ndim(activities) > 2:
        raise ValueError("a trace covers one grid")
    return [
        {
            "step": step, "row": r, "col": c,
            "best_value": values[0, r, c], "best_origin": origins[0, r, c],
            "worst_value": values[1, r, c], "worst_origin": origins[1, r, c],
            "adopt_step": adopt[r, c],
        }
        for step, decoded in enumerate(_wave(activities))
        for values, origins, adopt in [decoded()]
        for r, c in np.ndindex(adopt.shape)
    ]


# Cells per check_waves block: a check peaks near 120 bytes a block cell
# (tracemalloc: 113 at 16x16, 126 at 4x4), about 8 MB whatever the trial count.
CHECK_BLOCK_CELLS = 1 << 16


def check_waves(rows: int, cols: int, trials: int, seed: int) -> tuple[int, np.ndarray]:
    """Count winner waves that disagree with the centralized oracle.

    Draws ``trials`` uniform rows x cols activity grids from
    ``default_rng(seed)``, in blocks of at most ``CHECK_BLOCK_CELLS`` cells
    (one grid at least) that each run as one batched wave; a wave agrees
    when every cell holds the argmax as its best origin, the argmin as its
    worst origin and its Manhattan distance to the argmax as its adoption
    step.  Returns the mismatch count and the first grid drawn.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    r, c = np.indices((rows, cols))
    per_block = max(1, CHECK_BLOCK_CELLS // (rows * cols))
    mismatches = 0
    for start in range(0, trials, per_block):
        acts = rng.random((min(per_block, trials - start), rows, cols))
        if start == 0:
            first = acts[0].copy()
        wave = winner_wave(acts)
        flat = acts.reshape(len(acts), -1)
        bmu, wmu = flat.argmax(axis=1)[:, None, None], flat.argmin(axis=1)[:, None, None]
        br, bc = np.divmod(bmu, cols)
        ok = (
            np.all(wave.best_origins == bmu, axis=(1, 2))
            & np.all(wave.worst_origins == wmu, axis=(1, 2))
            & np.all(wave.distance_to_bmu == np.abs(r - br) + np.abs(c - bc), axis=(1, 2))
        )
        mismatches += int(np.count_nonzero(~ok))
        del acts, wave, flat  # before the next block's, which would peak beside them
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
    wave = _WaveState((som.height, som.width))
    for lr, sigma, (order,) in training_epochs(schedule, [seed], X.shape[0]):
        h = neighborhood(dsq, lr, sigma)
        for i in order:
            sample_distances(X[i], W, diff, sq, dist)
            acts = activities_from_distances(dist, 1.0)
            for records in wave.run(acts.reshape(som.height, som.width)):
                pass
            W += np.multiply(h[wave.adopt(records).ravel()][:, None], diff, out=diff)
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
