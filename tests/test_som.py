import io
import math
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from resom import som as som_mod
from resom.som import (
    SomGrid,
    TrainSchedule,
    activities_from_distances,
    decay,
    grid_squared_distances,
    load_som,
    make_som,
    roundtrip_som,
    save_som,
    train,
    train_many,
)
from scalar_oracles import activation_field, activity, elect_bmu_wmu, neighborhood, same_bits


class TestActivity:
    def test_identical_vectors(self):
        v = np.array([0.3, 0.7])
        assert activity(v, v, 1.0) == 1.0

    def test_three_four_five_triangle(self):
        # ||(0,0)-(3,4)|| = 5, non-squared in the exponent
        a = activity(np.array([0.0, 0.0]), np.array([3.0, 4.0]), 1.0)
        assert a == pytest.approx(math.exp(-5.0), rel=1e-12)
        assert a == pytest.approx(6.7379e-3, rel=1e-4)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            activity(np.zeros(2), np.zeros(3), 1.0)

    def test_kernel_width_must_be_positive(self):
        with pytest.raises(ValueError):
            activity(np.zeros(2), np.zeros(2), 0.0)


class TestActivitiesFromDistances:
    @pytest.mark.parametrize("width", [0.0, -1.0, math.nan, math.inf])
    def test_kernel_width_must_be_positive_and_finite(self, width):
        with pytest.raises(ValueError, match="kernel width"):
            activities_from_distances(np.ones((2, 3)), width)


class TestDistances:
    """Row blocks on a thread pool give one cdist's matrix, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 23), k=st.integers(1, 9), d=st.integers(1, 6),
           cpus=st.integers(1, 5), split=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(n=1, k=3, d=2, cpus=4, split=True, seed=0)  # one row
    @example(n=3, k=3, d=2, cpus=4, split=True, seed=1)  # fewer rows than CPUs
    @example(n=10, k=4, d=3, cpus=3, split=True, seed=2)  # rows not divisible by CPUs
    def test_equals_one_cdist(self, n, k, d, cpus, split, seed):
        rng = np.random.default_rng(seed)
        som = SomGrid(k, 1, rng.random((k, d)))
        X = rng.random((n, d))
        threads = threading.active_count()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(som_mod, "cpu_count", lambda: cpus)
            mp.setattr(som_mod, "PARALLEL_MIN_NKD", 0 if split else 10**18)
            got = som_mod.distances(som, X)
        assert threading.active_count() == threads
        assert np.array_equal(got, cdist(X, som.weights))

    @pytest.mark.parametrize("rows, pools", [(2999, []), (3000, [2])])
    def test_splits_from_the_work_threshold(self, monkeypatch, pool_sizes, rows, pools):
        k, d = 100, 100
        assert 2999 * k * d < som_mod.PARALLEL_MIN_NKD <= 3000 * k * d
        rng = np.random.default_rng(3)
        som = SomGrid(k, 1, rng.random((k, d)))
        X = rng.random((rows, d))
        monkeypatch.setattr(som_mod, "cpu_count", lambda: 2)
        threads = threading.active_count()
        got = som_mod.distances(som, X)
        assert pool_sizes == pools
        assert threading.active_count() == threads
        assert np.array_equal(got, cdist(X, som.weights))


class TestBmuStream:
    def test_casts_one_sample_block_at_a_time(self):
        # A float64 copy of the whole matrix peaked at 2.11x the float32 rows.
        X = np.random.default_rng(14).random((20_000, 784), dtype=np.float32)
        som = make_som(2, 2, 784, seed=0)
        want = som_mod.bmu_stream(som, X.astype(np.float64))
        tracemalloc.start()
        try:
            got = som_mod.bmu_stream(som, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * X.nbytes
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestElection:
    def test_tie_breaks_to_lowest_index(self):
        bmu, wmu = elect_bmu_wmu(np.array([0.2, 0.9, 0.9]))
        assert (bmu, wmu) == (1, 0)

    def test_singleton(self):
        assert elect_bmu_wmu(np.array([0.5])) == (0, 0)

    def test_empty_field(self):
        with pytest.raises(ValueError, match="empty"):
            elect_bmu_wmu(np.array([]))

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            acts = rng.random(100)
            best, worst = 0, 0
            for i in range(100):  # brute-force oracle
                if acts[i] > acts[best]:
                    best = i
                if acts[i] < acts[worst]:
                    worst = i
            assert elect_bmu_wmu(acts) == (best, worst)


class TestNeighborhood:
    def test_self(self):
        assert neighborhood((2, 3), (2, 3), sigma=5.0) == 1.0

    def test_adjacent_sigma_five(self):
        h = neighborhood((0, 0), (0, 1), sigma=5.0)
        assert h == pytest.approx(math.exp(-1 / 50), rel=1e-12)
        assert h == pytest.approx(0.9802, abs=1e-4)

    def test_two_cells_away_sigma_one(self):
        h = neighborhood((0, 0), (0, 2), sigma=1.0)
        assert h == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert h == pytest.approx(0.1353, abs=1e-4)

    def test_manhattan_metric_squares_the_length(self):
        h = neighborhood((0, 0), (1, 1), sigma=1.0, grid_metric="manhattan")
        assert h == pytest.approx(math.exp(-4 / 2), rel=1e-12)

    def test_grid_table_agrees_with_scalar(self):
        dsq = grid_squared_distances(3, 2, "euclidean")
        assert dsq[0, 5] == (0 - 1) ** 2 + (0 - 2) ** 2
        dsq_m = grid_squared_distances(3, 2, "manhattan")
        assert dsq_m[0, 5] == (1 + 2) ** 2


class TestDecay:
    def test_boundaries(self):
        assert decay(0, 10, 1.0, 0.01) == 1.0
        assert decay(10, 10, 1.0, 0.01) == pytest.approx(0.01, rel=1e-12)

    def test_geometric_midpoint(self):
        assert decay(5, 10, 1.0, 0.01) == pytest.approx(0.1, rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            decay(11, 10, 1.0, 0.01)

    @given(st.integers(1, 50), st.floats(0.011, 10.0), st.floats(1e-4, 0.01))
    def test_strictly_decreasing(self, t_final, v_start, v_end):
        values = [decay(t, t_final, v_start, v_end) for t in range(t_final + 1)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainSchedule(epochs=0)
        with pytest.raises(ValueError):
            TrainSchedule(lr_start=0.01, lr_end=1.0)
        with pytest.raises(ValueError):
            TrainSchedule(sigma_end=0.0)
        # An update must not overshoot its input (see the band in som.py).
        with pytest.raises(ValueError, match="1 >= start"):
            TrainSchedule(lr_start=1.5)
        # 2 sigma^2 underflowed to 0: coefficient 0 / 0 made each winner's weights NaN.
        with pytest.raises(ValueError, match="underflows"):
            TrainSchedule(epochs=2, sigma_start=1e-160, sigma_end=1e-170)
        TrainSchedule(epochs=2, sigma_start=1e-160, sigma_end=1e-160)


class TestTrain:
    schedule = TrainSchedule(epochs=5, lr_start=0.5, lr_end=0.05, sigma_start=1.0, sigma_end=0.1)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        X = rng.random((50, 4))
        s = make_som(3, 3, 4, seed=2)
        a = train(s, X, self.schedule, seed=7)
        b = train(s, X, self.schedule, seed=7)
        assert same_bits(a.weights, b.weights)

    def test_weights_stay_in_unit_hull(self):
        rng = np.random.default_rng(3)
        X = rng.random((200, 6))
        s = make_som(4, 4, 6, seed=0)
        schedule = TrainSchedule(epochs=3, lr_start=1.0, lr_end=0.01)
        out = train(s, X, schedule, seed=1)
        assert out.weights.min() >= 0.0 and out.weights.max() <= 1.0

    def test_bmu_stability(self):
        s = train(
            make_som(3, 3, 5, seed=4),
            np.random.default_rng(4).random((80, 5)),
            self.schedule,
            seed=4,
        )
        for n in range(s.n_neurons):
            field = activation_field(s, s.weights[n], kernel_width=1.0)
            # its own weight elects the neuron, or an exact duplicate earlier
            assert field.bmu <= n
            assert np.array_equal(s.weights[field.bmu], s.weights[n])

    def test_single_neuron_tracks_mean(self):
        rng = np.random.default_rng(5)
        X = 0.6 + 0.05 * rng.standard_normal((400, 3))
        schedule = TrainSchedule(epochs=10, lr_start=0.5, lr_end=0.01)
        out = train(make_som(1, 1, 3, seed=0), X, schedule, seed=0)
        np.testing.assert_allclose(out.weights[0], X.mean(axis=0), atol=0.05)

    def test_two_neurons_split_two_clusters(self):
        rng = np.random.default_rng(6)
        a = 0.1 + 0.03 * rng.random((150, 2))
        b = 0.9 - 0.03 * rng.random((150, 2))
        X = np.vstack([a, b])
        schedule = TrainSchedule(epochs=20, lr_start=0.5, lr_end=0.01,
                                 sigma_start=0.5, sigma_end=0.05)
        out = train(make_som(2, 1, 2, seed=1), X, schedule, seed=1)

        # brute-force 2-means oracle on the same data
        centers = np.array([a[0], b[0]])
        for _ in range(50):
            owner = np.argmin(
                ((X[:, None, :] - centers[None]) ** 2).sum(-1), axis=1
            )
            centers = np.array([X[owner == j].mean(axis=0) for j in (0, 1)])

        cost = np.linalg.norm(out.weights[:, None, :] - centers[None], axis=-1)
        assignment = np.argmin(cost, axis=1)
        assert set(assignment) == {0, 1}  # one neuron per cluster
        assert cost[np.arange(2), assignment].max() < 0.08

    def test_training_election_equals_activity_election(self):
        # raw-distance argmin and activity argmax elect the same neuron
        rng = np.random.default_rng(7)
        for _ in range(300):
            d = rng.random(32) * rng.choice([0.1, 1.0, 10.0])
            by_distance = int(np.argmin(d))
            by_activity = int(np.argmax(np.exp(-d)))
            assert by_distance == by_activity

    def test_one_epoch_holds_one_sample_block(self):
        # Each epoch gathers its permuted samples SAMPLE_BLOCK rows at a time,
        # not as a permuted copy of the whole data set.
        X = np.random.default_rng(13).random((20_000, 784))
        som = make_som(2, 2, 784, seed=0)
        tracemalloc.start()
        try:
            train(som, X, TrainSchedule(epochs=1), seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * X.nbytes

    def test_float32_rows_hold_no_float64_copy(self):
        # A float64 copy of the whole matrix peaked at 2.41x the float32 rows.
        X = np.random.default_rng(13).random((20_000, 784), dtype=np.float32)
        som = make_som(2, 2, 784, seed=0)
        tracemalloc.start()
        try:
            train(som, X, TrainSchedule(epochs=1), seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * X.nbytes

    @pytest.mark.parametrize("side, dim, maps", [(8, 16, 3), (10, 784, 1)],
                             ids=["stacked-8x8-16", "lone-10x10-784"])
    def test_float32_rows_train_as_their_float64_cast(self, monkeypatch, side, dim, maps):
        # 60 rows in blocks of 7 end in a short block: both gather sizes run.
        monkeypatch.setattr(som_mod, "SAMPLE_BLOCK", 7)
        rows = list(np.random.default_rng(16).random((maps, 60, dim), dtype=np.float32))
        soms = [make_som(side, side, dim, seed=i) for i in range(maps)]
        schedule = TrainSchedule(epochs=2)
        got = train_many(soms, rows, schedule, list(range(maps)))
        want = train_many(soms, [r.astype(np.float64) for r in rows], schedule, list(range(maps)))
        assert all(same_bits(g.weights, w.weights) for g, w in zip(got, want))

    @pytest.mark.parametrize("side, dim, loops", [(8, 16, [20]), (10, 784, [1, 1, 1, 1])],
                             ids=["small-maps-stack", "large-maps-alone"])
    def test_small_maps_stack_and_large_maps_train_alone(self, monkeypatch, side, dim, loops):
        # Every equal-shape group shared one stack, which at 10x10/784 ran up
        # to 2.4x slower than one loop per map.
        rng = np.random.default_rng(14)
        soms = [make_som(side, side, dim, seed=i) for i in range(len(loops) * loops[0])]
        datas = [rng.random((40, dim)) for _ in soms]
        stacks = []
        train_stack = som_mod._train_stack
        monkeypatch.setattr(som_mod, "_train_stack",
                            lambda W, *args: stacks.append(len(W)) or train_stack(W, *args))
        schedule = TrainSchedule(epochs=2)
        trained = train_many(soms, datas, schedule, list(range(len(soms))))
        assert stacks == loops
        for i, (som, data, got) in enumerate(zip(soms, datas, trained)):
            assert same_bits(got.weights, train(som, data, schedule, seed=i).weights)

    @pytest.mark.parametrize("grid_metric", som_mod.GRID_METRICS)
    def test_lone_map_band_equals_the_full_update(self, grid_metric):
        # Alone, the 16-row map updates only the rows its neighbourhood
        # reaches (one row at epoch 9); stacked twice, it takes the full update.
        som = make_som(4, 16, 8, seed=3)
        data = np.random.default_rng(18).random((60, 8))
        (lone,) = train_many([som], [data], TrainSchedule(), [5], grid_metric)
        stacked = train_many([som, som], [data, data], TrainSchedule(), [5, 5], grid_metric)
        assert all(same_bits(s.weights, lone.weights) for s in stacked)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_one_batch_of_loop_buffers_is_alive_at_a_time(self, monkeypatch, cpus):
        # Every loop's buffers were allocated before any loop ran: six lone
        # maps held all six loops' buffers when the last loop started.
        monkeypatch.setattr(som_mod, "cpu_count", lambda: cpus)
        loops, alive = [], []
        train_stack = som_mod._train_stack

        def recording(W, *args):
            loops.append([weakref.ref(a) for a in args if isinstance(a, np.ndarray)])
            alive.append(sum(any(ref() is not None for ref in refs) for refs in loops))
            return train_stack(W, *args)

        monkeypatch.setattr(som_mod, "_train_stack", recording)
        rng = np.random.default_rng(17)
        soms = [make_som(8, 8, 200, seed=i) for i in range(6)]  # 100 KB each: one loop per map
        datas = [rng.random((30, 200)) for _ in soms]
        schedule = TrainSchedule(epochs=1)
        trained = train_many(soms, datas, schedule, list(range(6)))
        assert len(alive) == 6 and max(alive) <= cpus
        monkeypatch.undo()
        for i, (som, data, got) in enumerate(zip(soms, datas, trained)):
            assert same_bits(got.weights, train(som, data, schedule, seed=i).weights)

    @pytest.mark.parametrize("maps, side, dim, buffers", [(1, 8, 200, 1), (2, 4, 8, 2)],
                             ids=["lone-8x8-200", "stacked-4x4-8"])
    def test_a_lone_loop_holds_one_weight_sized_buffer(self, monkeypatch, maps, side, dim,
                                                       buffers):
        # A lone loop also held the stacks' (k, d) square buffer, which its
        # winner filter never reads.
        held = []
        train_stack = som_mod._train_stack

        def recording(W, *args):
            held.append(sum(isinstance(a, np.ndarray) and a.shape == W.shape for a in args))
            return train_stack(W, *args)

        monkeypatch.setattr(som_mod, "_train_stack", recording)
        rng = np.random.default_rng(19)
        soms = [make_som(side, side, dim, seed=i) for i in range(maps)]
        train_many(soms, [rng.random((30, dim)) for _ in soms], TrainSchedule(epochs=1),
                   list(range(maps)))
        assert held == [buffers]

    def test_no_maps_train_to_no_maps(self):
        # A rerun that finds every map in the stage cache trains none.
        assert train_many([], [], self.schedule, []) == []

    def test_a_shared_array_is_cast_once(self):
        # Each entry got its own float64 copy: ten seeds sharing a files
        # spec's matrices held ten.
        X = np.random.default_rng(15).random((40_000, 8), dtype=np.float32)
        soms = [make_som(2, 2, 8, seed=i) for i in range(3)]
        tracemalloc.start()
        try:
            train_many(soms, [X] * 3, TrainSchedule(epochs=1), [0, 1, 2])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * X.size * 8  # one float64 copy, not three

    def test_rejects_bad_input(self):
        s = make_som(2, 2, 3, seed=0)
        with pytest.raises(ValueError, match="empty"):
            train(s, np.empty((0, 3)), self.schedule, seed=0)
        with pytest.raises(ValueError, match="dim"):
            train(s, np.zeros((5, 4)), self.schedule, seed=0)
        with pytest.raises(ValueError, match="one seed per map"):
            train_many([s, s], [np.zeros((5, 3))] * 2, self.schedule, [0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_data(self, bad):
        s = make_som(2, 2, 3, seed=0)
        X = np.random.default_rng(12).random((5, 3))
        X[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            train_many([s, s], [X[:4], X], self.schedule, [0, 1])


class TestCheckpoint:
    def test_roundtrip_with_labels(self, tmp_path):
        s = make_som(3, 2, 4, seed=8)
        s.labels = np.array([0, 1, 2, 0, 1, 2])
        path = tmp_path / "map.rsom"
        save_som(s, path)
        back = load_som(path)
        assert (back.width, back.height, back.dim) == (3, 2, 4)
        np.testing.assert_allclose(back.weights, s.weights, atol=1e-7)  # f32 storage
        assert np.array_equal(back.labels, s.labels)

    def test_roundtrip_is_f32_stable(self):
        s = make_som(2, 2, 3, seed=9)
        once = roundtrip_som(s)
        twice = roundtrip_som(once)
        assert np.array_equal(once.weights, twice.weights)

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            load_som(io.BytesIO(b"XXXX" + b"\x00" * 32))

    @pytest.mark.parametrize("bad", [70000, -1])
    def test_labels_outside_u16_are_refused(self, tmp_path, bad):
        s = make_som(2, 1, 3, seed=0)
        s.labels = np.array([0, bad])
        path = tmp_path / "map.rsom"
        with pytest.raises(ValueError, match="u16"):
            save_som(s, path)
        assert not path.exists()
        s.labels = np.array([0, 65535])  # the range's edges still round-trip
        save_som(s, path)
        assert np.array_equal(load_som(path).labels, [0, 65535])

    def test_grid_shape_validation(self):
        with pytest.raises(ValueError, match="weight rows"):
            SomGrid(2, 2, np.zeros((3, 4)))
        with pytest.raises(ValueError, match="label"):
            SomGrid(2, 1, np.zeros((2, 4)), labels=np.array([1]))
