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

from resom import grid as ig
from resom import som as som_mod
from resom.som import TrainSchedule, make_som


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
        assert np.array_equal(got.weights, expected.weights)


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
        assert np.array_equal(got.weights, expected.weights)
    # inputs are left untouched
    assert np.array_equal(soms[0].weights, make_som(8, 8, 16, 11).weights)


def test_ig_train_matches_reference():
    rng = np.random.default_rng(21)
    som = make_som(5, 4, 6, seed=22)
    data = rng.random((25, 6))
    schedule = TrainSchedule(epochs=3)
    expected = reference_train(som, data, schedule, 23, "manhattan")
    assert np.array_equal(ig.ig_train(som, data, schedule, 23).weights, expected.weights)


@pytest.mark.parametrize("block", [1, 7, 90])
def test_sample_blocks_do_not_change_training(monkeypatch, block):
    monkeypatch.setattr(som_mod, "SAMPLE_BLOCK", block)
    soms, datas, seeds = mixed_batch()
    schedule = TrainSchedule(epochs=2)
    trained = som_mod.train_many(soms, datas, schedule, seeds)
    for som, data, seed, got in zip(soms, datas, seeds, trained):
        assert np.array_equal(got.weights, reference_train(som, data, schedule, seed).weights)


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
        assert np.array_equal(got.weights, reference_train(som, data, schedule, seed).weights)
