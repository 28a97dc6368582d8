"""Stacked training against the per-sample loop it replaced.

``reference_train`` is the one-map online loop that ``som.train`` ran before
maps were stacked: one permutation per epoch, one winner and one
``lr * h`` column per sample.  It keeps its own decay schedule and grid
distances, so a fault shared with ``resom.som`` cannot pass unseen.
``train_many`` and the cellular ``ig_train`` must reproduce it bit for bit.
"""

import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resom import grid as ig
from resom import som as som_mod
from resom.data import DataFormatError
from resom.som import TrainSchedule, make_som
from scalar_oracles import same_bits


def reference_decay(t, t_final, v_start, v_end):
    """v_start at epoch 0, shrunk by the same factor each epoch toward v_end."""
    return v_start * (v_end / v_start) ** (t / t_final)


def reference_grid_distances(width, height, grid_metric):
    """(k, k) squared grid distances, pair by pair; neuron n sits at row
    n // width, column n % width."""
    k = width * height
    dsq = np.empty((k, k))
    for a in range(k):
        for b in range(k):
            dr, dc = abs(a // width - b // width), abs(a % width - b % width)
            dsq[a, b] = (dr + dc) ** 2 if grid_metric == "manhattan" else dr * dr + dc * dc
    return dsq


def reference_train(som, data, schedule, seed, grid_metric="euclidean"):
    X = np.ascontiguousarray(data, dtype=np.float64)
    W = som.weights.copy()
    dsq = reference_grid_distances(som.width, som.height, grid_metric)
    rng = np.random.default_rng(seed)
    for t in range(schedule.epochs):
        lr = reference_decay(t, schedule.epochs, schedule.lr_start, schedule.lr_end)
        sigma = reference_decay(t, schedule.epochs, schedule.sigma_start, schedule.sigma_end)
        denom = 2.0 * sigma * sigma
        for i in rng.permutation(X.shape[0]):
            v = X[i]
            diff = v - W
            dist = np.sqrt(np.sum(diff * diff, axis=1))
            s = int(np.argmin(dist))
            h = np.exp(-dsq[:, s] / denom)
            W += (lr * h)[:, None] * diff
    return replace(som, weights=W, labels=None)


def mixed_batch():
    """Two maps that stack, plus two that share nothing but the sample count
    or nothing at all: (width, height, dim, n, seed) per map."""
    return batch([(8, 8, 16, 90, 11), (8, 8, 16, 90, 12), (5, 5, 40, 70, 13), (7, 3, 16, 90, 14)])


def batch(shapes):
    """Maps, data sets and seeds, one per (width, height, dim, n, seed)."""
    soms, datas, seeds = [], [], []
    for width, height, dim, n, seed in shapes:
        rng = np.random.default_rng(100 + seed)
        soms.append(make_som(width, height, dim, seed))
        datas.append(rng.random((n, dim)))
        seeds.append(seed)
    return soms, datas, seeds


@pytest.mark.parametrize("grid_metric", ["euclidean", "manhattan"])
def test_train_matches_reference(grid_metric):
    soms, datas, seeds = mixed_batch()
    schedule = TrainSchedule(epochs=4)
    for som, data, seed in zip(soms, datas, seeds):
        expected = reference_train(som, data, schedule, seed, grid_metric)
        got = som_mod.train(som, data, schedule, seed, grid_metric)
        assert same_bits(got.weights, expected.weights)


@pytest.mark.parametrize("grid_metric", ["euclidean", "manhattan"])
def test_train_many_matches_reference_per_map(grid_metric):
    soms, datas, seeds = mixed_batch()
    schedule = TrainSchedule()
    trained = som_mod.train_many(soms, datas, schedule, seeds, grid_metric)
    assert len(trained) == len(soms)
    for som, data, seed, got in zip(soms, datas, seeds, trained):
        expected = reference_train(som, data, schedule, seed, grid_metric)
        assert (got.width, got.height) == (som.width, som.height)
        assert got.labels is None
        assert same_bits(got.weights, expected.weights)
    # inputs are left untouched
    assert np.array_equal(soms[0].weights, make_som(8, 8, 16, 11).weights)


def test_ig_train_matches_reference():
    rng = np.random.default_rng(21)
    som = make_som(5, 4, 6, seed=22)
    data = rng.random((25, 6))
    schedule = TrainSchedule(epochs=3)
    expected = reference_train(som, data, schedule, 23, "manhattan")
    assert same_bits(ig.ig_train(som, data, schedule, 23).weights, expected.weights)


@pytest.mark.parametrize("block", [1, 7, 90])
def test_sample_blocks_do_not_change_training(monkeypatch, block):
    monkeypatch.setattr(som_mod, "SAMPLE_BLOCK", block)
    soms, datas, seeds = mixed_batch()
    schedule = TrainSchedule(epochs=2)
    trained = som_mod.train_many(soms, datas, schedule, seeds)
    for som, data, seed, got in zip(soms, datas, seeds, trained):
        assert same_bits(got.weights, reference_train(som, data, schedule, seed).weights)


@pytest.mark.parametrize("cpus", [1, 2])
def test_stacks_train_on_a_pool_like_the_reference(monkeypatch, pool_sizes, cpus):
    # two high-d maps of different shapes, and a small pair that stacks
    soms, datas, seeds = batch(
        [(8, 8, 256, 30, 31), (5, 4, 900, 25, 32), (3, 3, 4, 40, 33), (3, 3, 4, 40, 34)]
    )
    monkeypatch.setattr(som_mod, "cpu_count", lambda: cpus)
    schedule = TrainSchedule(epochs=2)
    threads = threading.active_count()
    trained = som_mod.train_many(soms, datas, schedule, seeds)
    assert threading.active_count() == threads
    assert pool_sizes == ([2] if cpus == 2 else [])
    for som, data, seed, got in zip(soms, datas, seeds, trained):
        assert same_bits(got.weights, reference_train(som, data, schedule, seed).weights)


@settings(deadline=None, max_examples=40)
@given(
    width=st.integers(1, 6), height=st.integers(1, 6), maps=st.integers(1, 3),
    dim=st.integers(1, 5), n=st.integers(1, 25), block=st.integers(1, 30),
    grid_metric=st.sampled_from(som_mod.GRID_METRICS),
    dtype=st.sampled_from([np.float64, np.float32]), epochs=st.integers(1, 4),
    # From 0.1 on, exp(-d^2 / 2 sigma^2) underflows to 0 within 4 rows, so
    # a lone map updates only a band of its rows.
    sigma_start=st.sampled_from([0.1, 1.0, 5.0]),
    sigma_end=st.sampled_from([0.001, 0.01, 0.1]),
    seed=st.integers(0, 2**32 - 1),
)
def test_train_many_matches_reference_property(
    width, height, maps, dim, n, block, grid_metric, dtype, epochs, sigma_start, sigma_end, seed
):
    # Maps of one shape stack (maps > 1, the full update) or train alone (the band).
    schedule = TrainSchedule(epochs=epochs, sigma_start=sigma_start, sigma_end=sigma_end)
    rng = np.random.default_rng(seed)
    seeds = [seed + i for i in range(maps)]
    soms = [make_som(width, height, dim, s) for s in seeds]
    datas = [rng.random((n, dim)).astype(dtype) for _ in seeds]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(som_mod, "SAMPLE_BLOCK", block)
        trained = som_mod.train_many(soms, datas, schedule, seeds, grid_metric)
    for som, data, s, got in zip(soms, datas, seeds, trained):
        assert same_bits(got.weights, reference_train(som, data, schedule, s, grid_metric).weights)


# A lone 1x8 map (one column of 8 rows) whose winner is neuron 7: under
# sigma 0.1 its band is rows 4-7, and neuron 0's update has coefficient 0.
BAND_SCHEDULE = TrainSchedule(epochs=1, lr_start=0.5, sigma_start=0.1, sigma_end=0.1)


def column_map(first_weight, top=1.0):
    weights = np.column_stack([np.linspace(0.0, top, 8), np.full(8, 0.5)])
    weights[0, 0] = first_weight
    return replace(make_som(1, 8, 2, seed=0), weights=weights)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_initial_weights_are_refused(value):
    # 0 * inf is NaN, so skipping a zero-coefficient update needs finite weights.
    with pytest.raises(ValueError, match="initial weights contain non-finite"):
        som_mod.train_many([column_map(value)], [np.ones((3, 2))], BAND_SCHEDULE, [0])


def test_negative_zero_weight_takes_the_full_update():
    som, data = column_map(-0.0), np.tile([1.0, 0.5], (5, 1))
    expected = reference_train(som, data, BAND_SCHEDULE, 0).weights
    # -0.0 + 0 * (1 - -0.0) is +0.0: skipping neuron 0 would keep the -0.0.
    assert expected[0, 0] == 0 and not np.signbit(expected[0, 0])
    assert same_bits(som_mod.train(som, data, BAND_SCHEDULE, 0).weights, expected)


# Every training loop: the lone banded one, a stack of two maps and the cellular one.
TRAINERS = {
    "train": lambda som, data: som_mod.train(som, data, BAND_SCHEDULE, 0, "manhattan"),
    "stack": lambda som, data: som_mod.train_many([som, som], [data, data], BAND_SCHEDULE,
                                                  [0, 1], "manhattan")[0],
    "ig_train": lambda som, data: ig.ig_train(som, data, BAND_SCHEDULE, 0),
}


@pytest.mark.parametrize("trainer", TRAINERS)
def test_values_beyond_the_band_bound_are_refused(trainer):
    # 1.5e308 - -1.5e308 overflows, and 0 * inf is NaN: both paths used to
    # return all-NaN weights without an error.
    train = TRAINERS[trainer]
    with pytest.raises(DataFormatError, match="magnitude above 2\\*\\*400"):
        train(column_map(0.0), np.tile([[1.5e308, 0.5], [-1.5e308, 0.5]], (3, 1)))
    with pytest.raises(ValueError, match="initial weights hold a value of magnitude above"):
        train(column_map(-1.5e308, top=1.5e308), np.tile([1.0, 0.5], (5, 1)))


@pytest.mark.parametrize("trainer", TRAINERS)
def test_values_whose_squares_overflow_are_refused(trainer):
    # Within 2**1020, but a squared norm or product of 1e200 overflows.
    train = TRAINERS[trainer]
    with pytest.raises(DataFormatError, match="magnitude above"):
        train(column_map(0.0), np.tile([1e200, 0.5], (5, 1)))
    with pytest.raises(ValueError, match="initial weights hold"):
        train(column_map(0.0, top=1e200), np.tile([1.0, 0.5], (5, 1)))


@pytest.mark.parametrize("trainer", TRAINERS)
def test_values_at_the_band_bound_train(trainer):
    bound = som_mod.BAND_MAX_ABS
    data = np.tile([[bound, 0.5], [-bound, 0.5]], (3, 1))
    trained = TRAINERS[trainer](column_map(-bound, top=bound), data).weights
    assert np.isfinite(trained).all()
    with pytest.raises(DataFormatError, match="magnitude above"):
        TRAINERS[trainer](column_map(0.0), np.nextafter(data, 2 * data))


# Weight and input levels, exact in float32: ties in distance are common.
LEVELS = np.array([0.0, 0.25, 0.5, 1.0, 3.0])


def tied_map(rng, width, height, dim, duplicates, nudged, ulps):
    """A map of weights from LEVELS, with ``duplicates`` neurons copied onto
    others and ``nudged`` neurons copied with one weight ``ulps`` ulps off."""
    k = width * height
    weights = LEVELS[rng.integers(len(LEVELS), size=(k, dim))]
    for _ in range(duplicates):
        weights[rng.integers(k)] = weights[rng.integers(k)]
    for _ in range(nudged):
        a, b, j = rng.integers(k), rng.integers(k), rng.integers(dim)
        weights[b] = weights[a]
        weights[b, j] += ulps * np.spacing(weights[b, j])
    return replace(make_som(width, height, dim, seed=0), weights=weights)


def train_recording_candidates(som, data, schedule, seed, grid_metric, block):
    """``som_mod.train`` with SAMPLE_BLOCK set to ``block``, and the size of
    every candidate set checked exactly."""
    sizes = []

    def nearest(v, W, near, *buffers):
        sizes.append(near.size)
        return nearest_of_som(v, W, near, *buffers)

    nearest_of_som = som_mod._nearest
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(som_mod, "SAMPLE_BLOCK", block)
        patch.setattr(som_mod, "_nearest", nearest)
        got = som_mod.train(som, data, schedule, seed, grid_metric)
    return got.weights, sizes


@settings(deadline=None, max_examples=60)
@given(
    width=st.integers(1, 5), height=st.integers(1, 5), dim=st.integers(1, 6),
    n=st.integers(1, 30), block=st.integers(1, 8), duplicates=st.integers(0, 4),
    nudged=st.integers(0, 3), ulps=st.integers(1, 4), equal_rows=st.integers(0, 5),
    grid_metric=st.sampled_from(som_mod.GRID_METRICS),
    dtype=st.sampled_from([np.float64, np.float32]), epochs=st.integers(1, 3),
    sigma_start=st.sampled_from([0.1, 1.0, 5.0]), seed=st.integers(0, 2**32 - 1),
)
def test_lone_map_with_ties_matches_reference_property(
    width, height, dim, n, block, duplicates, nudged, ulps, equal_rows, grid_metric, dtype,
    epochs, sigma_start, seed,
):
    # A small block makes every few samples recompute the norms, and the
    # closed-form refresh run between recomputes.
    rng = np.random.default_rng(seed)
    som = tied_map(rng, width, height, dim, duplicates, nudged, ulps)
    data = LEVELS[rng.integers(len(LEVELS), size=(n, dim))]
    for i in rng.integers(n, size=equal_rows):  # samples equal to weight rows
        data[i] = som.weights[rng.integers(width * height)]
    data = data.astype(dtype)
    schedule = TrainSchedule(epochs=epochs, sigma_start=sigma_start, sigma_end=0.01)
    got, _ = train_recording_candidates(som, data, schedule, seed, grid_metric, block)
    assert same_bits(got, reference_train(som, data, schedule, seed, grid_metric).weights)


def ulps_apart():
    # Squared distances to the origin 1 + (1 + i ulp)^2: a few ulps apart,
    # and some equal once sqrt rounds them.
    one = np.array([1.0, 1.0])
    weights = np.stack([one + [0, i * np.spacing(1.0)] for i in (3, 1, 2, 0, 1)])
    return weights, np.zeros((4, 2))


@pytest.mark.parametrize("weights, data", [
    # every neuron duplicated
    (np.tile([0.25, 0.5], (5, 1)), np.tile([1.0, 0.0], (4, 1))),
    # samples equal to a duplicated weight row
    (np.array([[0.0, 1.0], [3.0, 3.0], [0.0, 1.0], [1.0, 0.0], [3.0, 3.0]]),
     np.array([[3.0, 3.0], [0.0, 1.0], [3.0, 3.0], [0.0, 1.0]], dtype=np.float32)),
    ulps_apart(),
], ids=["duplicates", "equal-sample", "ulps-apart"])
def test_tied_candidates_are_checked_exactly(weights, data):
    # A 1x5 map under sigma 0.1 moves only its winner, so ties outlive a step.
    som = replace(make_som(1, 5, 2, seed=0), weights=weights)
    schedule = TrainSchedule(epochs=2, lr_start=0.5, sigma_start=0.1, sigma_end=0.1)
    got, sizes = train_recording_candidates(som, data, schedule, 4, "euclidean", 3)
    assert sizes and max(sizes) > 1
    assert same_bits(got, reference_train(som, data, schedule, 4).weights)
