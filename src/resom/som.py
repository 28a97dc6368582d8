"""Kohonen self-organizing map: activities, winner election, training.

Neurons live on a rectangular grid, indexed row-major: neuron n sits at
(row, col) = (n // width, n % width).  Activity uses a Gaussian kernel of the
*non-squared* Euclidean distance between input and weight, while the training
neighborhood uses the *squared* grid distance; the two exponents are not the
same shape on purpose.

Winner election during training runs on raw input distances (argmin); because
exp(-d/width) is strictly decreasing this elects the same neuron as the
activity argmax, a property the test suite pins down.

Training has one loop, ``train_many``; ``train`` is its one-map case.  Small
maps of equal (width, height, dim, n_samples) stack into one (M, k, d)
per-sample loop, which saves Python overhead per sample; a map whose weights
exceed STACK_MAX_BYTES runs in a loop of its own.  The loops, for instance
every seed's x and y maps at paper shape, run in batches of up to one loop
per CPU, a batch of two or more on one thread per loop: a high-d loop spends
its time in numpy kernels that release the GIL.  Only one batch's buffers
are alive at a time; a lone map's hold one (k, d) array, for v - w, and a
stack's two, for v - w and its squares.  Every map keeps its own seeded
permutation, and neither choice changes a bit: each row-wise sum over a
contiguous d-row of a stack matches the per-row sum of a lone (k, d) map,
every other operation is elementwise, and a stack's loop reads and writes
only its own arrays, so the thread it runs on cannot change its result.
tests/test_training_oracle.py checks this against the original one-map loop.
Like bmu_stream and distances, training casts the caller's rows to float64
one SAMPLE_BLOCK at a time (exact for float32), never the whole matrix.
``training_epochs``, ``neighborhood`` and ``sample_distances``, the one
per-sample distance of the stacked loop and the filter's exact check
(subtract, square, row sum, sqrt), are the training rule that grid.ig_train
shares; only its grid distances to the winner differ.

A lone map (a loop of one map) updates only the band of grid rows that its
winner's neighbourhood reaches.  Once per epoch, after ``neighborhood`` fills
the coefficient table, the reach R is read off the table: the largest row
offset with a nonzero coefficient, from row 0 of the table (neuron 0 sees
every (row, column) offset the grid has, and a coefficient depends on the
offset alone).  The neurons within R rows of the winner's row are one
contiguous slice, so the update is ``table[w, lo:hi] * (v - W[lo:hi])`` added
to ``W[lo:hi]``, and v - w is computed on the band alone.  Under the default
schedule (sigma 5 to 0.01) a 16x16 map's R is 15 for epochs 0-4, then 8, 4,
2, 1 and 0: in epoch 9 only the winner's row moves.  Every neuron outside the
band has a coefficient of exactly 0, so the full update would add
0 * (v - w) to each of its weights w, and skipping that is bit-identical
when three rules hold:

* v - w is finite.  Training refuses inputs (``validate_training_data``, a
  DataFormatError) and initial weights (``validate_initial_weights``) that
  hold a non-finite value or one of magnitude above BAND_MAX_ABS.  A
  coefficient lies in [0, lr] and ``TrainSchedule`` bounds lr by 1, so each
  update moves a weight at most to its input, and weights stay within the
  range of the inputs and initial weights up to rounding.  Within the bound
  neither v - w nor any squared norm, product or distance of the winner
  filter below can overflow (0 * inf is NaN), so no loop, banded, stacked
  or cellular, can turn its weights into NaN.
* w is not -0.0, since -0.0 + 0.0 is +0.0.  A weight sum is -0.0 only when
  both terms are, so training never makes one; a loop whose initial weights
  hold one takes the full update.
* The table holds no NaN: ``TrainSchedule`` refuses a schedule whose last
  sigma has 2 sigma^2 underflow to 0, where the table's diagonal is 0 / 0.

A lone map also finds its winner through a filter.  ||v - w||^2 is
||w||^2 - 2 w.v + ||v||^2, so one BLAS product g = W @ v ranks the neurons by
f = N - 2 g, where N holds each neuron's ||w||^2.  The candidates are the
neurons with f <= min f + tau.  A lone candidate is the winner; otherwise
the full search's ``sample_distances`` of the candidates alone elects the
first minimum in index order.  That is the neuron the full argmin elects, so
BLAS never sets a value, and neither its summation order nor its thread
count can change a bit.  N is recomputed by ``np.einsum`` at the start of
each sample block, as each row's ||v||^2 is (the bound below holds for any
order of the sums); after each step the band's N becomes
N + c (c (f + ||v||^2) - (N + f)), the closed form of
(1-c)^2 ||w||^2 + 2 c (1-c) w.v + c^2 ||v||^2, where c is the coefficient.

tau is an error bound.  With u = 2^-53 and gamma_n = n u / (1 - n u) (Higham,
Accuracy and Stability of Numerical Algorithms, 2002), let Q bound every
||w||^2 and ||v||^2 of the block: the recomputed max N and max ||v||^2 times
1 + (2d + 12 b + 4) u for a block of b rows, and at least 2^-900.  (The
update moves w toward v by c <= 1, and its rounding adds at most
10.1 u Q to a norm per step.)  Then, for a dimension d:

* N is off by at most gamma_d Q after the recompute, and each closed-form
  step adds at most (2d + 64) u Q: 1.5 gamma_d Q from the errors of w.v and
  ||v||^2, 31 u Q from f's rounding and the formula's six operations, and
  10.1 u Q from the rounding of the update.  The error it carries is
  scaled by (1-c)^2 <= 1.
* f is then off by at most e = delta + 2 gamma_d Q + 4 u Q (delta the
  error of N), and computing min f + tau rounds it by at most 4 u Q.
* The computed squared distance S of the exact check is D (1 + theta),
  |theta| <= gamma_{d+2}, with D <= 4 Q; and sqrt maps S_a < S_b to equal
  distances only if S_b <= S_a (1 + gamma_4), since sqrt is correctly
  rounded.
* So a neuron whose f exceeds min f + tau has a larger distance than the
  neuron of min f, and cannot be elected, when tau >= 2 e + 4 u Q +
  (8 gamma_{d+2} + 5 gamma_4) Q, which is 14.14 d + 48.36 + s (4d + 128)
  units of u Q after s closed-form steps.  tau is rounded up to
  (15 d + 64 + s (4d + 128)) u Q, below 5e-10 Q at d = 507 and
  b = 2048.  The floor 2^-900 on Q covers the absolute error of every
  underflow in these sums (2^-1075 each).

Stacks keep the full update and the full search, since their maps' winners
differ.

``distances`` splits large jobs across the CPUs too: one contiguous row
range per CPU, each range's cdist written into its rows of one result.  Each
distance depends on its input row alone, so the matrix equals one cdist's.
The rows are cast to float64 SAMPLE_BLOCK at a time (exact for float32),
into one buffer per range that the calling thread allocates before any pool
thread runs, so no whole-matrix float64 copy is made.

``cdist`` is the one seam to scipy: it imports scipy at the first distance,
on the calling thread, so ``import resom`` loads none of it.
"""

from __future__ import annotations

import io
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .data import (SAMPLE_BLOCK, DataFormatError, encoded, nonfinite_rows, read_binary,
                   write_binary)

RSOM_MAGIC = b"RSOM"
GRID_METRICS = ("euclidean", "manhattan")

# ``distances`` splits its rows across the CPUs from this much work (n*k*d).
# Same host, one cdist vs one row block per CPU: 1 000x100 at 100-d (10M)
# 4.0 vs 4.9 ms, 2 000x100 at 100-d (20M) 8.4 vs 8.0 ms, 500x100 at 784-d
# (39M) 16.0 vs 11.3 ms, 10 000x100 at 784-d 313 vs 191 ms.
PARALLEL_MIN_NKD = 30_000_000
# A map whose weights take more bytes than this trains in a loop of its own.
# 2-vCPU VM, ten equal maps over 500 rows for 2 epochs, one stacked loop
# against one loop per map (on 1 CPU / on 2): 8x8 at 16-d (8 KB) 0.065 vs
# 0.142 s / 0.059 vs 0.122 s, 10x10 at 100-d (78 KB) 0.39 vs 0.42 / 0.40 vs
# 0.40 s, 10x10 at 150-d (117 KB) 0.65 vs 0.54 / 0.59 vs 0.49 s, 10x10 at
# 300-d (234 KB) 1.30 vs 0.96 / 1.46 vs 0.69 s, 10x10 at 784-d (612 KB) 3.68
# vs 3.44 / 3.91 vs 1.66 s.
STACK_MAX_BYTES = 64 * 1024
# Training refuses inputs and initial weights beyond this magnitude (see the
# module docstring).  Below it, a d-dim squared norm, product or distance is
# at most 4 d 2**800, and the filter's largest sum about 16 d 2**800: finite
# for any d below 2**200.
BAND_MAX_ABS = 2.0**400
# The unit roundoff u of float64, in the winner filter's error bound.
UNIT_ROUNDOFF = 2.0**-53
# Each training loop holds two dense (k, k) float64 tables, the squared grid
# distances and the epoch's coefficients.  ExperimentSpec refuses a grid of
# more neurons than keep them within 512 MiB: 2 * k * k * 8 bytes, k <= 5 792.
# Building the distances briefly holds four (k, k) arrays, 1 GiB at the bound.
MAX_NEURONS = math.isqrt(512 * 1024 * 1024 // (2 * 8))


def cdist(*args, **kwargs) -> np.ndarray:
    """scipy.spatial.distance.cdist, imported on the first call."""
    from scipy.spatial.distance import cdist
    return cdist(*args, **kwargs)


def cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_all(calls) -> list:
    """Each no-argument call's result, with one thread per call when there
    are two or more; no thread outlives the call."""
    if len(calls) < 2:
        return [call() for call in calls]
    with ThreadPoolExecutor(len(calls)) as pool:
        return [done.result() for done in [pool.submit(call) for call in calls]]


@dataclass
class TrainSchedule:
    """Per-epoch geometric decay of learning rate and neighborhood width."""

    epochs: int = 10
    lr_start: float = 1.0
    lr_end: float = 0.01
    sigma_start: float = 5.0
    sigma_end: float = 0.01

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("need at least one epoch")
        # One epoch trains at the start rates: only longer schedules decay to the ends.
        decays = self.epochs > 1
        if not (1 >= self.lr_start > 0 and self.lr_end > 0) or decays and self.lr_start < self.lr_end:
            raise ValueError("learning rate must satisfy 1 >= start >= end > 0 "
                             "(start >= end from two epochs on)")
        if not (self.sigma_start > 0 and self.sigma_end > 0) or decays and self.sigma_start < self.sigma_end:
            raise ValueError("sigma must satisfy start >= end > 0 (start >= end from two epochs on)")
        # The last epoch's sigma is the smallest; neighborhood divides by 2 sigma^2.
        sigma = decay(self.epochs - 1, self.epochs, self.sigma_start, self.sigma_end)
        if not 2.0 * sigma * sigma > 0:
            raise ValueError(f"sigma decays to {sigma}, where 2 sigma^2 underflows to 0")


@dataclass
class SomGrid:
    """width x height neurons, each with an m-dimensional weight vector.

    ``labels`` is filled by the labeling procedures; training drops it.
    """

    width: int
    height: int
    weights: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        k = self.width * self.height
        if self.weights.ndim != 2 or self.weights.shape[0] != k:
            raise ValueError(
                f"expected {k} weight rows for a {self.width}x{self.height} grid, "
                f"got shape {self.weights.shape}"
            )
        if self.labels is not None:
            self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
            if self.labels.shape != (k,):
                raise ValueError("need exactly one label per neuron")

    @property
    def n_neurons(self) -> int:
        return self.width * self.height

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


def make_som(width: int, height: int, dim: int, seed: int) -> SomGrid:
    """Fresh grid with weights drawn uniformly from [0, 1)."""
    rng = np.random.default_rng(seed)
    return SomGrid(width, height, rng.random((width * height, dim)))


def decay(t: int, t_final: int, v_start: float, v_end: float) -> float:
    """Geometric interpolation from v_start (t=0) to v_end (t=t_final)."""
    if not 0 <= t <= t_final:
        raise ValueError(f"epoch {t} outside [0, {t_final}]")
    return v_start * (v_end / v_start) ** (t / t_final)


def training_epochs(schedule: TrainSchedule, seeds: list[int], n: int):
    """Yield each epoch's (lr, sigma, orders): both rates decayed to epoch t
    and one permutation of range(n) per seed, from its own default_rng."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    for t in range(schedule.epochs):
        lr = decay(t, schedule.epochs, schedule.lr_start, schedule.lr_end)
        sigma = decay(t, schedule.epochs, schedule.sigma_start, schedule.sigma_end)
        yield lr, sigma, [rng.permutation(n) for rng in rngs]


def neighborhood(dsq: np.ndarray, lr: float, sigma: float, out=None) -> np.ndarray:
    """Training coefficients lr * exp(-dsq / (2 sigma^2)) of squared grid
    distances ``dsq``, written into ``out`` when given."""
    out = np.divide(dsq, -(2.0 * sigma * sigma), out=out)
    np.exp(out, out=out)
    out *= lr
    return out


def distances(som: SomGrid, values: np.ndarray) -> np.ndarray:
    """(n_samples, n_neurons) Euclidean input-to-weight distances.

    The one distance kernel: every activity field, BMU and unimodal
    prediction derives from it.  Each row depends on its input row alone, so
    distances of gathered rows equal the gathered rows of the distances.
    """
    v = np.asarray(values)
    n = v.shape[0]
    workers = min(cpu_count(), n)
    if workers < 2 or n * som.n_neurons * som.dim < PARALLEL_MIN_NKD:
        workers = 1
    else:  # one contiguous row range per CPU, each written in place
        import scipy.spatial.distance  # noqa: F401  (first import on this thread, not a pool's)
    out = np.empty((n, som.n_neurons))
    bounds = [n * i // workers for i in range(workers + 1)]
    # Each range's cast buffer is allocated here, in the calling thread (a
    # pool thread's allocations would stay in its own malloc arena).
    _run_all([partial(_cdist_rows, v[a:b], som.weights, out[a:b],
                      np.empty((min(b - a, SAMPLE_BLOCK), v.shape[1])))
              for a, b in zip(bounds, bounds[1:])])
    return out


def _cdist_rows(rows, weights, out, buf) -> None:
    """cdist of ``rows`` to ``weights`` written into ``out``, the rows cast
    to float64 into ``buf`` one SAMPLE_BLOCK at a time."""
    for start in range(0, len(rows), SAMPLE_BLOCK):
        block = rows[start : start + SAMPLE_BLOCK]
        cast = buf[: len(block)]
        cast[...] = block
        cdist(cast, weights, out=out[start : start + len(block)])


def _activities(d: np.ndarray, kernel_width: float, out=None) -> np.ndarray:
    """exp(-d / kernel_width) into ``out`` (``d`` itself for an array the
    caller owns), or a fresh array."""
    if not 0 < kernel_width < math.inf:
        raise ValueError(f"kernel width must be positive and finite, got {kernel_width}")
    # The steps of np.exp(-d / kernel_width), bit for bit.
    a = np.negative(d, out=out)
    a /= kernel_width
    return np.exp(a, out=a)


def activities_from_distances(d: np.ndarray, kernel_width: float) -> np.ndarray:
    """Gaussian activities exp(-d / kernel_width) of a distance matrix, in a
    fresh array."""
    return _activities(d, kernel_width)


def activities_batch(som: SomGrid, values: np.ndarray, kernel_width: float) -> np.ndarray:
    """(n_samples, n_neurons) Gaussian activities."""
    d = distances(som, values)
    return _activities(d, kernel_width, out=d)


def bmu_stream(som: SomGrid, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample BMU index and BMU activity (kernel width 1), computed
    SAMPLE_BLOCK rows at a time, so only one block is ever cast to float64."""
    v = np.asarray(values)
    idx = np.empty(v.shape[0], dtype=np.int64)
    val = np.empty(v.shape[0], dtype=np.float64)
    for start in range(0, v.shape[0], SAMPLE_BLOCK):
        d = distances(som, v[start : start + SAMPLE_BLOCK])
        b = np.argmin(d, axis=1)
        idx[start : start + len(b)] = b
        val[start : start + len(b)] = activities_from_distances(d[np.arange(len(b)), b], 1.0)
    return idx, val


def sample_distances(v, W, diff=None, sq=None, dist=None) -> tuple[np.ndarray, np.ndarray]:
    """(v - W, distances): the one per-sample distance of training.  v - W
    is written into ``diff`` (the update reuses it), then squared into
    ``sq``, summed along the last axis into ``dist`` and square-rooted in
    place; a None buffer is a fresh array."""
    diff = np.subtract(v, W, out=diff)
    dist = np.add.reduce(np.square(diff, out=sq), axis=-1, out=dist)
    return diff, np.sqrt(dist, out=dist)


def grid_squared_distances(width: int, height: int, grid_metric: str) -> np.ndarray:
    """(k, k) squared pairwise grid distances under the chosen metric."""
    if grid_metric not in GRID_METRICS:
        raise ValueError(f"unknown grid metric {grid_metric!r}")
    idx = np.arange(width * height)
    rows, cols = idx // width, idx % width
    dr = np.abs(rows[:, None] - rows[None, :]).astype(np.float64)
    dc = np.abs(cols[:, None] - cols[None, :]).astype(np.float64)
    if grid_metric == "manhattan":
        d = dr + dc
        return d * d
    return dr * dr + dc * dc


def validate_training_data(som: SomGrid, data: np.ndarray) -> np.ndarray:
    """``data`` as given, uncast, once its shape fits ``som``, it is finite
    and no value's magnitude exceeds BAND_MAX_ABS (a DataFormatError)."""
    X = np.asarray(data)
    if X.ndim != 2 or X.shape[1] != som.dim:
        raise ValueError(f"data shape {X.shape} does not match som dim {som.dim}")
    if X.shape[0] == 0:
        raise ValueError("empty dataset")
    if nonfinite_rows(X).size:
        raise ValueError("training data contains non-finite values")
    if _beyond_band_bound(X):
        raise DataFormatError("training data holds a value of magnitude above 2**400")
    return X


def validate_initial_weights(som: SomGrid) -> None:
    """Refuse initial weights holding a non-finite value or one of magnitude
    above BAND_MAX_ABS: training would overflow to NaN weights."""
    if nonfinite_rows(som.weights).size:
        raise ValueError("initial weights contain non-finite values")
    if _beyond_band_bound(som.weights):
        raise ValueError("initial weights hold a value of magnitude above 2**400")


def _beyond_band_bound(values: np.ndarray) -> bool:
    """Whether finite ``values`` hold one of magnitude above BAND_MAX_ABS."""
    return max(float(values.max()), -float(values.min())) > BAND_MAX_ABS


def train_many(
    soms: list[SomGrid],
    datas: list[np.ndarray],
    schedule: TrainSchedule,
    seeds: list[int],
    grid_metric: str = "euclidean",
) -> list[SomGrid]:
    """Train each ``soms[i]`` on ``datas[i]`` with its own ``seeds[i]``.

    Maps whose (width, height, dim, n_samples) agree run in one stacked
    per-sample loop unless their weights exceed STACK_MAX_BYTES, and the
    loops run in batches of up to one per CPU.  Each map reads its rows as
    given, casting one sample block at a time, so maps that share an array
    share it.  Each map keeps its own seeded permutation, so every result is
    bit-identical to training it alone.
    """
    if not len(soms) == len(datas) == len(seeds):
        raise ValueError("need one dataset and one seed per map")
    for som in soms:
        validate_initial_weights(som)
    datas = [validate_training_data(som, d) for som, d in zip(soms, datas)]
    groups: dict[object, list[int]] = {}
    for i, (som, X) in enumerate(zip(soms, datas)):
        shape = (som.width, som.height, som.dim, X.shape[0])
        groups.setdefault(i if som.weights.nbytes > STACK_MAX_BYTES else shape, []).append(i)
    # The longest loops (maps x weights x samples) run first, at most one
    # per CPU at a time, so that a batch's threads finish close together.
    work = sorted(groups.values(), reverse=True,
                  key=lambda members: len(members) * soms[members[0]].weights.size
                  * datas[members[0]].shape[0])
    cpus = cpu_count()
    out: list[SomGrid] = [None] * len(soms)
    for start in range(0, len(work), cpus):
        batch = work[start : start + cpus]
        # A batch's buffers are allocated here, in the calling thread (a pool
        # thread's allocations would stay in its own malloc arena), once the
        # last batch's loops, which hold theirs, are gone.
        stacks = _run_all([
            _stack_loop([soms[i] for i in members], [datas[i] for i in members],
                        [seeds[i] for i in members], schedule, grid_metric)
            for members in batch
        ])
        for members, W in zip(batch, stacks):
            for row, i in enumerate(members):
                out[i] = replace(soms[i], weights=W[row], labels=None)
    return out


def _stack_loop(soms, datas, seeds, schedule, grid_metric):
    """The training loop of the (M, k, d) weight stack of ``soms`` as a
    no-argument call that returns the stack; every large array the loop
    writes is allocated here."""
    W = np.stack([som.weights for som in soms])
    # dsq is symmetric, so row s is the winner's column: (k, k, 1).
    dsq = grid_squared_distances(soms[0].width, soms[0].height, grid_metric)[:, :, None]
    samples = np.empty((len(soms), min(datas[0].shape[0], SAMPLE_BLOCK), W.shape[2]))
    banded = len(soms) == 1 and _band_is_exact(W)
    sq = None if banded else np.empty_like(W)  # the winner filter squares no (k, d) array
    buffers = np.empty_like(W), sq, np.empty(W.shape[:2]), np.empty_like(dsq)
    return partial(_train_stack, W, datas, seeds, dsq, schedule, samples, *buffers,
                   soms[0].width if banded else None)


def _band_is_exact(W: np.ndarray) -> bool:
    """Whether skipping the zero-coefficient neurons of checked weights ``W``,
    and finding the winner through the filter, are bit-identical to the full
    update and search (module docstring): no -0.0 weight.  It makes no array
    the size of ``W`` unless ``W`` holds a zero."""
    return not (np.count_nonzero(W) < W.size and np.signbit(W[W == 0]).any())


def _row_bands(table: np.ndarray, width: int) -> list[slice]:
    """Per winner row r, the neurons of the rows within R of r, where R is
    the largest row offset with a nonzero coefficient in ``table`` (k, k, 1);
    neuron 0's row holds every offset."""
    height = table.shape[0] // width
    nonzero = np.flatnonzero(table[0])
    reach = nonzero[-1] // width if nonzero.size else 0
    return [slice(max(r - reach, 0) * width, min(r + reach + 1, height) * width)
            for r in range(height)]


def _train_stack(W, datas, seeds, dsq, schedule, samples, diff, sq, dist, table,
                 width) -> np.ndarray:
    """Online training of the (M, k, d) weight stack ``W`` in place: per
    sample, every neuron of map m moves toward map m's input by
    lr(t) * h_sigma(t)(n, winner of map m).  Each epoch's permuted samples
    are gathered and cast into ``samples`` (M, block, d) a block at a time.
    Given the grid ``width`` (not None for a lone map only), a sample's
    winner comes from the filter, and it updates only the band of rows its
    winner's neighbourhood reaches."""
    n = datas[0].shape[0]
    block = samples.shape[1]
    for lr, sigma, perms in training_epochs(schedule, seeds, n):
        neighborhood(dsq, lr, sigma, out=table)
        bands = None if width is None else _row_bands(table, width)
        for start in range(0, n, block):
            size = min(block, n - start)
            for X, perm, rows in zip(datas, perms, samples):
                rows[:size] = X[perm[start : start + size]]
            if bands is not None:
                _train_lone_block(W[0], samples[0, :size], table, bands, width,
                                  diff[0], dist[0])
                continue
            # Sample i of every map, stacked: (M, 1, d).
            for v in samples[:, :size, None, :].swapaxes(0, 1):
                winners = sample_distances(v, W, diff, sq, dist)[1].argmin(axis=1)
                np.multiply(table[winners], diff, out=diff)
                W += diff
    return W


def _train_lone_block(W, rows, table, bands, width, diff, f):
    """Train the (k, d) weights ``W`` of a lone map in place on ``rows``, one
    sample block, through the winner filter and the band (module
    docstring); ``diff`` is a (k, d) buffer, ``f`` a k-vector."""
    d = W.shape[1]
    norms = np.einsum("ij,ij->i", W, W)
    row_norms = np.einsum("ij,ij->i", rows, rows)
    q = max(float(norms.max()), float(row_norms.max()), 2.0**-900)
    q *= 1 + (2 * d + 12 * len(rows) + 4) * UNIT_ROUNDOFF
    # tau after s closed-form steps is tau_0 + s tau_step (module docstring).
    tau_0 = (15 * d + 64) * UNIT_ROUNDOFF * q
    tau_step = (4 * d + 128) * UNIT_ROUNDOFF * q
    for s, (v, v_norm) in enumerate(zip(rows, row_norms)):
        np.dot(W, v, out=f)
        f *= -2.0
        f += norms
        near = np.flatnonzero(f <= f.min() + (tau_0 + s * tau_step))
        w = near[0] if near.size == 1 else _nearest(v, W, near)
        band = bands[w // width]
        c = table[w, band]
        step, weights = diff[band], W[band]
        np.subtract(v, weights, out=step)
        np.multiply(c, step, out=step)
        weights += step
        c, f_band = c[:, 0], f[band]  # the band's norms, in closed form
        norms[band] += c * (c * (f_band + v_norm) - (norms[band] + f_band))


def _nearest(v, W, near) -> int:
    """The first of the ascending neuron indices ``near`` whose distance to
    ``v``, computed as the full search computes it, is the least."""
    return near[sample_distances(v, W[near])[1].argmin()]


def train(
    som: SomGrid,
    data: np.ndarray,
    schedule: TrainSchedule,
    seed: int,
    grid_metric: str = "euclidean",
) -> SomGrid:
    """Competitive training: per sample, every neuron moves toward the input
    proportionally to lr(t) * h_sigma(t)(n, winner).

    Sample order is reshuffled every epoch from ``seed``; lr and sigma decay
    once per epoch, so epoch t runs with decay(t, ...) throughout.  The result
    is bit-reproducible for a fixed (seed, data, schedule, metric).  This is
    the one-map case of ``train_many``.
    """
    return train_many([som], [data], schedule, [seed], grid_metric)[0]


# RSOM checkpoint: magic | u32 width, height, dim | u8 has_labels |
# f32 weights row-major | u16 labels if has_labels.  Little-endian.

def save_som(som: SomGrid, path_or_file) -> None:
    labels = [] if som.labels is None else [("<u2", som.labels)]
    header = (som.width, som.height, som.dim, som.labels is not None)
    write_binary(path_or_file, RSOM_MAGIC, "<IIIB", header, [("<f4", som.weights)] + labels)


def _rsom_layout(width: int, height: int, dim: int, has_labels: int) -> list:
    k = width * height
    if k == 0 or dim == 0:
        raise DataFormatError(f"checkpoint holds no weights: {width}x{height}, dim {dim}")
    return [("<f4", k * dim)] + ([("<u2", k)] if has_labels else [])


def load_som(path_or_file) -> SomGrid:
    (width, height, dim, _), (weights, *labels) = read_binary(
        path_or_file, RSOM_MAGIC, "<IIIB", _rsom_layout
    )
    return SomGrid(width, height, weights.reshape(-1, dim), *labels)


def roundtrip_som(som: SomGrid) -> SomGrid:
    """Pass a grid through the checkpoint encoding (weights rounded to f32),
    as the pipeline does with every trained map, cached or fresh."""
    return load_som(io.BytesIO(encoded(save_som, som)))
