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
included).  The wave is double-buffered (each step reads only the previous
snapshot), so results cannot depend on cell iteration order.

Each snapshot is one flat int64 array, channel-last (a cell's best and worst
rank side by side) and padded: a pad row above the first grid and one below
each grid of two rows or more, and a pad column right of every row, each pad
cell holding rank n = rows * cols, which no record has.  For every cell the
records above and below then lie 2 (cols + 1) places away and those left and
right 2, so a step is four ``np.minimum`` calls over contiguous flat slices
of the previous snapshot (the first writes the current one, so nothing is
copied), then one assignment refilling the pad column the merges wrote and,
with two grids or more, one the pad rows between them.  A one-row grid has
no vertical neighbour, so its layout holds no pad row below it and its step
skips the two vertical merges; a one-column grid runs as the one-row grid of
the same flat origins.  These are the pairwise merges of the per-cell
reference in the tests (``winner_wave_cellwise``), which the wave must match
in every field; ``adopt`` and ``decode`` read the real cells through a
(..., rows, cols, 2) view.

No step tracks the adoption step.  Ranks are a permutation per channel, so a
cell's best record at step s is the unique minimum over its radius-s
Manhattan ball: it last changed at step d(cell, origin), when its origin
entered the ball.  The adoption step is thus |r - r_o| + |c - c_o| of the
best origin at every step, and stays local: a cell knows its coordinates and
its record's origin; ``decode`` reads it from the best origins it gathers.
One ``_WaveState`` per shape holds the keys, buffers, views and index
tables, so a wave runs only the sort, the steps and the decode.
``ig_train`` builds one per call; ``winner_wave`` keeps the last shape's per
thread (of at most ``CHECK_BLOCK_CELLS`` cells) and reuses it, and ``_wave``
builds its own, so that two of its waves may interleave.  Both refuse
non-finite activities; those ``ig_train`` computes from its checked data are
not checked again, as ``som.train`` checks none.  Activities of shape
(..., rows, cols) run as one wave per leading index; ``check_waves`` runs
its trials so, in blocks.

Cellular training is ``som.train``'s rule, epochs, coefficients and
per-sample distance (``som.sample_distances``) included, with one change: a
cell's grid distance to the winner is its wave adoption step.  It is written
row-wise (row n of each array is cell n's, and nothing crosses rows), so it
is bit-identical to ``som.train`` under the Manhattan metric: the kernel's
row sums are the training loop's and every other operation is elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import math
from functools import partial
import threading

import numpy as np

from .som import (SomGrid, TrainSchedule, activities_from_distances, neighborhood,
                  sample_distances, training_epochs, validate_initial_weights,
                  validate_training_data)


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


def _layout(rows: int, cols: int) -> tuple[int, int, int]:
    """The (rows, cols) a grid's wave runs as, and the padded rows it takes.

    A one-column grid runs as the one-row grid of the same flat origins.  A
    grid of two rows or more takes a pad row below it; a one-row grid, with
    no vertical neighbour, takes none.
    """
    if cols == 1:
        rows, cols = 1, rows
    return rows, cols, rows + (rows > 1)


class _WaveState:
    """A shape's sort keys; two snapshots of its records (step s writes
    snapshot s % 2), each one flat padded array; each step's merge and refill
    views; the real cells' (..., rows, cols, 2) views and the index tables of
    the scatter and the decode."""

    def __init__(self, shape: tuple[int, ...]):
        *lead, rows, cols = shape
        rows, cols, height = _layout(rows, cols)
        grids, n = math.prod(lead), rows * cols
        width = 2 * (cols + 1)  # the records of a padded row
        size = (grids * height + 1) * width
        self.shape, self.n = shape, n
        # Keys and sort order are (..., channel, n): each channel sorts contiguous keys.
        self.keys = np.empty((*lead, 2, n))
        self.best_keys, self.worst_keys = (self.keys[..., c, :].reshape(shape) for c in (0, 1))
        self.records = np.empty((2, size), dtype=np.int64)
        self.records.fill(n)
        padded = self.records.reshape(2, -1, cols + 1, 2)
        self.real = padded[:, 1:].reshape(2, *lead, height, cols + 1, 2)[..., :rows, :cols, :]
        # Every grid row and the pad rows between grids; a one-row layout
        # ends before its last pad cell, which no merge may read past.
        lo, hi = width, size - (width if rows > 1 else 2)
        parities = []
        for dst, src, rowwise, real in zip(self.records, self.records[::-1], padded, self.real):
            up, down = (src[lo + k:hi + k] for k in (-width, width)) if rows > 1 else (None, None)
            pads = [rowwise[1:-1, -1]]  # the pad column
            if rows > 1:
                pads.append(rowwise[height:-1:height])  # the pad rows between grids
            parities.append((dst[lo:hi], src[lo:hi], up, down, src[lo - 2:hi - 2],
                             src[lo + 2:hi + 2], [p for p in pads if p.size], real))
        self.steps = [parities[s % 2] for s in range(1, rows + cols - 1)]  # steps 1 to t_p
        # The flat place of each cell's records in the first grid, and each
        # grid's and channel's offset from it.
        self.at = np.arange(width, (rows + 1) * width, 2).reshape(rows, cols + 1)[:, :cols].ravel()
        self.offsets = np.add.outer(np.arange(0, size - width, height * width),
                                    np.arange(2)).reshape(*lead, 2, 1)
        self.ranks = np.arange(n)
        # Each real record's grid and channel offset into the flat sort
        # order, each grid's into the flat activities, and the flat indices
        # the decode gathers through.
        self.picks = np.repeat(np.arange(0, 2 * grids * n, n).reshape(grids, 1, 2), n,
                               axis=1).reshape(*lead, rows, cols, 2)
        self.starts = np.arange(0, grids * n, n).reshape(*lead, 1, 1, 1)
        self.index = np.empty_like(self.picks)
        self.channel_first = (len(shape), *range(len(shape)))
        # An origin's hops to each cell, read from one difference of codes in
        # a (2 rows - 1, 2 cols - 1) frame, where a difference cannot wrap a row.
        span = 2 * cols - 1
        self.codes = np.add.outer(np.arange(rows) * span, np.arange(cols)).ravel()
        self.cell_codes = (self.codes - (rows - 1) * span - (cols - 1)).reshape(rows, cols, 1)
        self.hops = np.add.outer(abs(np.arange(1 - rows, rows)),
                                 abs(np.arange(1 - cols, cols))).ravel()

    def run(self, a: np.ndarray):
        """Yield the real records of each step of the wave over finite ``a``, 0 to t_p."""
        np.negative(a, out=self.best_keys)
        np.copyto(self.worst_keys, a)
        self.activities, self.order = a, self.keys.argsort(kind="stable")
        at = self.at[self.order]
        at += self.offsets
        self.records[0][at] = self.ranks
        yield self.real[0]
        n = self.n
        for dst, own, up, down, left, right, pads, real in self.steps:
            np.minimum(own, left, out=dst)
            np.minimum(dst, right, out=dst)
            if up is not None:  # a one-row layout has no vertical neighbour
                np.minimum(dst, up, out=dst)
                np.minimum(dst, down, out=dst)
            for pad in pads:
                pad.fill(n)
            yield real

    def _origins(self, records: np.ndarray) -> np.ndarray:
        """The (..., rows, cols, 2) origins of the records, best first."""
        return self.order.take(np.add(records, self.picks, out=self.index))

    def _hops(self, best: np.ndarray) -> np.ndarray:
        """Each cell's hops to its (..., rows, cols, 1) best origin."""
        return self.hops.take(self.codes.take(best) - self.cell_codes).reshape(self.shape)

    def adopt(self, records: np.ndarray) -> np.ndarray:
        """Each cell's step of its last new best record: its hops to that origin."""
        return self._hops(self._origins(records)[..., :1])

    def decode(self, records: np.ndarray):
        """The step's (values, origins, adopt); [0] of values and origins is the best."""
        origins = self._origins(records)
        values = self.activities.take(np.add(origins, self.starts, out=self.index))
        return (*(x.transpose(self.channel_first).reshape(2, *self.shape)
                  for x in (values, origins)),
                self._hops(origins[..., :1]))


def _finite_grids(activities) -> np.ndarray:
    """The activities as a contiguous float64 (..., rows, cols) array, checked finite."""
    a = np.ascontiguousarray(activities, dtype=np.float64)
    if a.ndim < 2:
        raise ValueError("activities must form a rectangular grid")
    if not np.isfinite(a).all():
        raise ValueError("activities contain non-finite values")
    return a


def _wave(activities: np.ndarray):
    """Yield each step's ``_WaveState.decode``, step 0 to t_p; call it before the next.

    Each call builds its own state, so two of these waves may interleave.
    """
    a = _finite_grids(activities)
    wave = _WaveState(a.shape)
    return (partial(wave.decode, records) for records in wave.run(a))


# winner_wave's state of the last shape it ran, one per thread.  Only a wave
# of at most CHECK_BLOCK_CELLS cells leaves its state behind: a larger one's
# set-up is small beside its steps, and its buffers would outlive it.
_reused = threading.local()


def winner_wave(activities: np.ndarray) -> WaveResult:
    """Run the full wave over (..., rows, cols) activities, one per grid.

    distance_to_bmu is each cell's last-improvement step; every field has
    the activities' shape.
    """
    a = _finite_grids(activities)
    wave = getattr(_reused, "wave", None)
    _reused.wave = None  # back only once a wave completes on it
    if getattr(wave, "shape", None) != a.shape:
        del wave  # the last shape's buffers go before this one's come
        wave = _WaveState(a.shape)
    for step, records in enumerate(wave.run(a)):
        pass
    values, origins, adopt = wave.decode(records)  # best and worst: views of one array each
    wave.activities = wave.order = None  # the state keeps none of this wave's arrays
    if a.size <= CHECK_BLOCK_CELLS:
        _reused.wave = wave
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


# Padded cells per check_waves block (a grid's real cells, its pad column and
# any pad row below it): a check peaks near 100-160 bytes a block cell, 6-10
# MB whatever the trial count (tracemalloc: 151 at 16x16, 124 at 4x4, 161 at
# 1x16 and 16x1, 104 at 2x2, 133 at 1x1).
CHECK_BLOCK_CELLS = 1 << 16


def check_waves(rows: int, cols: int, trials: int, seed: int) -> tuple[int, np.ndarray]:
    """Count winner waves that disagree with the centralized oracle.

    Draws ``trials`` uniform rows x cols activity grids from
    ``default_rng(seed)``, in blocks of at most ``CHECK_BLOCK_CELLS`` padded
    cells (one grid at least) that each run as one batched wave; a wave agrees
    when every cell holds the argmax as its best origin, the argmin as its
    worst origin and its Manhattan distance to the argmax as its adoption
    step.  Returns the mismatch count and the first grid drawn.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    r, c = np.indices((rows, cols))
    _, run_cols, height = _layout(rows, cols)
    per_block = max(1, CHECK_BLOCK_CELLS // (height * (run_cols + 1)))
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
    validate_initial_weights(som)
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
