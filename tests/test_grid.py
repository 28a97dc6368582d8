import csv
import hashlib
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from resom import grid
from resom.grid import (
    check_waves,
    cost_report,
    ig_train,
    propagation_steps,
    wave_trace,
    winner_wave,
    _wave,
)
from resom.som import TrainSchedule, make_som, train
from scalar_oracles import (CellSummary, merge_summaries, same_bits, winner_wave_cellwise,
                            winner_wave_cellwise_steps)


def oracle(activities):
    """Centralized election + true Manhattan distances."""
    a = np.asarray(activities)
    flat = a.ravel()
    bmu, wmu = int(np.argmax(flat)), int(np.argmin(flat))
    rows, cols = np.indices(a.shape)
    br, bc = divmod(bmu, a.shape[1])
    return bmu, wmu, np.abs(rows - br) + np.abs(cols - bc)


class TestPropagationSteps:
    def test_formula(self):
        assert propagation_steps(10, 10) == 18
        assert propagation_steps(1, 1) == 0
        assert propagation_steps(3, 5) == 6

    def test_doubling_one_side(self):
        assert propagation_steps(8, 20) - propagation_steps(8, 10) == 10

    def test_square_grid_is_sqrt_n(self):
        for k in (2, 4, 8, 16):
            assert propagation_steps(k, k) == 2 * k - 2  # O(sqrt(n)) for n = k^2


class TestWinnerWave:
    def test_single_cell(self):
        res = winner_wave(np.array([[0.4]]))
        assert res.steps == 0
        assert res.bmu_index == res.wmu_index == 0
        assert res.distance_to_bmu[0, 0] == 0

    def test_exactness_small_grids(self):
        rng = np.random.default_rng(0)
        for rows in range(1, 6):
            for cols in range(1, 6):
                for _ in range(50):
                    a = rng.random((rows, cols))
                    bmu, wmu, dist = oracle(a)
                    res = winner_wave(a)
                    assert res.bmu_index == bmu
                    assert res.wmu_index == wmu
                    assert np.array_equal(res.distance_to_bmu, dist)
                    assert np.all(res.best_values == a.ravel()[bmu])
                    assert np.all(res.worst_values == a.ravel()[wmu])

    def test_duplicate_maxima_break_to_lowest_row_major_index(self):
        a = np.zeros((3, 3))
        a[2, 2] = a[0, 1] = 1.0  # two equal maxima
        res = winner_wave(a)
        assert res.bmu_index == 1
        # all-equal minima tie-break to cell 0
        assert res.wmu_index == 0

    def test_constant_field(self):
        res = winner_wave(np.full((4, 4), 0.5))
        assert res.bmu_index == 0 and res.wmu_index == 0
        bmu, wmu, dist = oracle(np.full((4, 4), 0.5))
        assert np.array_equal(res.distance_to_bmu, dist)

    def test_best_never_below_own_activity(self):
        rng = np.random.default_rng(1)
        a = rng.random((6, 7))
        res = winner_wave(a)
        assert (res.best_values >= a).all()
        assert (res.distance_to_bmu <= res.steps).all()

    def test_records_are_views_of_one_values_and_one_origins_array(self):
        # Each result a caller keeps carries two record arrays, not four.
        res = winner_wave(np.random.default_rng(12).random((5, 6)))
        for best, worst in ((res.best_values, res.worst_values),
                            (res.best_origins, res.worst_origins)):
            assert best.base is not None and best.base is worst.base
            assert np.shares_memory(best.base, worst)

    def test_results_share_no_memory(self):
        rng = np.random.default_rng(13)
        first, second = winner_wave(rng.random((4, 5))), winner_wave(rng.random((4, 5)))
        for a in vars(first).values():
            for b in vars(second).values():
                if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
                    assert not np.shares_memory(a, b)

    def test_rejects_non_grid(self):
        with pytest.raises(ValueError, match="rectangular"):
            winner_wave(np.zeros(5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_activities(self, bad):
        a = np.random.default_rng(10).random((3, 4))
        a[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            winner_wave(a)


# Few distinct values (signed zeros included) make value ties common.
tie_heavy_grids = st.tuples(st.integers(1, 6), st.integers(1, 7)).flatmap(
    lambda shape: hnp.arrays(
        np.float64, shape, elements=st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0])
    )
)


class TestCellwiseReference:
    @settings(max_examples=200, deadline=None)
    @given(tie_heavy_grids)
    @example(np.array([[0.5, 1.0, 1.0, 0.0, -0.0, 0.0, 0.5]]))
    @example(np.array([[0.0], [0.5], [0.5], [-0.0], [1.0], [0.0]]))
    def test_all_fields_match_on_tie_heavy_grids(self, a):
        fast, slow = winner_wave(a), winner_wave_cellwise(a)
        assert fast.steps == slow.steps
        for field in ("best_values", "best_origins", "worst_values",
                      "worst_origins", "distance_to_bmu"):
            got, want = getattr(fast, field), getattr(slow, field)
            assert got.shape == want.shape
            assert np.array_equal(got, want), field
            assert np.array_equal(np.signbit(got), np.signbit(want)), field

    @settings(max_examples=200, deadline=None)
    @given(tie_heavy_grids)
    @example(np.array([[0.5, 1.0, 1.0, 0.0, -0.0, 0.0, 0.5]]))
    @example(np.array([[0.0], [0.5], [0.5], [-0.0], [1.0], [0.0]]))
    def test_every_step_matches_on_tie_heavy_grids(self, a):
        # The wave derives each step's adoption step from the best origin;
        # the reference tracks when each cell's best record last changed.
        for step, (decoded, want) in enumerate(zip(_wave(a), winner_wave_cellwise_steps(a),
                                                   strict=True)):
            values, origins, adopt = decoded()
            got = {"best_values": values[0], "best_origins": origins[0],
                   "worst_values": values[1], "worst_origins": origins[1],
                   "distance_to_bmu": adopt}
            for field, g in got.items():
                w = getattr(want, field)
                assert g.shape == w.shape, (step, field)
                assert np.array_equal(g, w), (step, field)
                assert np.array_equal(np.signbit(g), np.signbit(w)), (step, field)

    def test_matches_vectorized(self):
        rng = np.random.default_rng(2)
        for shape in ((1, 1), (2, 5), (4, 4), (5, 3)):
            for _ in range(10):
                a = rng.random(shape)
                fast = winner_wave(a)
                slow = winner_wave_cellwise(a)
                assert fast.bmu_index == slow.bmu_index
                assert fast.wmu_index == slow.wmu_index
                assert np.array_equal(fast.distance_to_bmu, slow.distance_to_bmu)

    def test_iteration_order_irrelevant(self):
        rng = np.random.default_rng(3)
        a = rng.random((4, 5))
        cells = [(r, c) for r in range(4) for c in range(5)]
        natural = winner_wave_cellwise(a)
        for _ in range(5):
            rng.shuffle(cells)
            shuffled = winner_wave_cellwise(a, cell_order=list(cells))
            assert np.array_equal(natural.best_origins, shuffled.best_origins)
            assert np.array_equal(natural.distance_to_bmu, shuffled.distance_to_bmu)

    def test_merge_prefers_value_then_origin(self):
        a = CellSummary(0.5, 7, 0.5, 7)
        b = CellSummary(0.5, 3, 0.4, 9)
        merged = merge_summaries(a, b)
        assert merged.best_origin == 3  # tie on value, lower origin
        assert merged.worst_value == 0.4 and merged.worst_origin == 9


# A few tie-heavy grids of one shape, stacked on a leading batch axis.
tie_heavy_batches = st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 7)).flatmap(
    lambda shape: hnp.arrays(
        np.float64, shape, elements=st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0])
    )
)


class TestBatchAxis:
    @settings(max_examples=100, deadline=None)
    @given(tie_heavy_batches)
    @example(np.array([[[0.5, 1.0, 1.0, 0.0, -0.0, 0.0, 0.5]], [[-0.0, 0.0, 0.0, 1.0, 1.0, 0.5, 0.5]]]))
    @example(np.array([[[0.0], [0.5], [0.5], [-0.0], [1.0], [0.0]]] * 3))
    def test_batched_wave_equals_the_stacked_waves(self, batch):
        together = winner_wave(batch)
        alone = [winner_wave(a) for a in batch]
        assert together.steps == alone[0].steps
        for field in ("best_values", "best_origins", "worst_values",
                      "worst_origins", "distance_to_bmu"):
            got = getattr(together, field)
            want = np.stack([getattr(w, field) for w in alone])
            assert got.shape == want.shape == batch.shape
            assert np.array_equal(got, want), field
            assert np.array_equal(np.signbit(got), np.signbit(want)), field

    def test_a_batch_has_no_single_winner(self):
        batch = winner_wave(np.random.default_rng(3).random((2, 3, 4)))
        for name in ("bmu_index", "wmu_index"):
            with pytest.raises(ValueError, match="one winner per grid"):
                getattr(batch, name)


class TestLocality:
    def test_information_travels_one_hop_per_step(self):
        # perturbing one cell cannot affect cells farther than s hops in s steps
        rng = np.random.default_rng(4)
        a = rng.random((6, 6))
        b = a.copy()
        b[2, 3] = 10.0  # perturbation source
        rows, cols = np.indices(a.shape)
        hop = np.abs(rows - 2) + np.abs(cols - 3)
        # A rank depends on every cell's activity: compare the decoded records.
        for step, (da, db) in enumerate(zip(_wave(a), _wave(b))):
            untouched = hop > step
            for got, want in zip(da()[:2], db()[:2]):
                assert np.array_equal(got[:, untouched], want[:, untouched])


class TestTrace:
    def test_trace_covers_every_step_and_cell(self):
        t_p = propagation_steps(3, 4)
        signed_zeros = np.array([[0.0, -0.0, 0.5, -0.0],
                                 [-0.0, 0.0, 0.5, 0.0],
                                 [0.5, -0.0, 0.0, 0.5]])
        for a in (np.random.default_rng(5).random((3, 4)), signed_zeros):
            rows = wave_trace(a)
            assert len(rows) == (t_p + 1) * 12
            final = [r for r in rows if r["step"] == t_p]
            res = winner_wave(a)
            for r in final:
                cell = r["row"], r["col"]
                assert r["adopt_step"] == res.distance_to_bmu[cell]
                for field in ("best_value", "best_origin", "worst_value", "worst_origin"):
                    want = getattr(res, field + "s")[cell]
                    assert r[field] == want, field
                    assert np.signbit(r[field]) == np.signbit(want), field

    def test_a_trace_covers_one_grid(self):
        with pytest.raises(ValueError, match="a trace covers one grid"):
            wave_trace(np.zeros((2, 3, 4)))

    def test_csv_matches_the_golden_digest(self):
        # Value ties, signed zeros, one row and one column; written as ig-verify does.
        grids = [
            np.array([[0.0, -0.0, 0.5, -0.0], [-0.0, 0.0, 0.5, 0.0], [0.5, -0.0, 0.0, 0.5]]),
            np.random.default_rng(5).random((5, 7)),
            np.array([[0.25, 0.25, -0.0, 0.25]]),
            np.array([[1.0], [1.0], [0.0]]),
        ]
        out = io.StringIO()
        for a in grids:
            rows = wave_trace(a)
            writer = csv.DictWriter(out, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
            "da72b94bc6682357166fd7f39d65194646942cd8c8f8c3fcbe9a5d70990998e7"
        )


class TestCheckWaves:
    def test_counts_no_mismatch_and_returns_the_first_draw(self):
        mismatches, first = check_waves(3, 4, trials=20, seed=7)
        assert mismatches == 0
        assert np.array_equal(first, np.random.default_rng(7).random((3, 4)))

    @pytest.mark.parametrize("block_trials, trials", [(3, 10), (1, 8), (None, 40)])
    def test_blocks_count_as_a_per_trial_loop(self, monkeypatch, block_trials, trials):
        # A wave that lies on every grid whose first cell exceeds 0.5, so the
        # count depends on which draws land in which trial.
        real = grid.winner_wave

        def lying_wave(acts):
            res = real(acts)
            res.distance_to_bmu = np.where(acts[..., :1, :1] > 0.5, -1, res.distance_to_bmu)
            return res

        monkeypatch.setattr(grid, "winner_wave", lying_wave)
        if block_trials is not None:
            monkeypatch.setattr(grid, "CHECK_BLOCK_CELLS", block_trials * 3 * 4)
        rng = np.random.default_rng(8)
        grids = [rng.random((3, 4)) for _ in range(trials)]
        want = sum(not np.array_equal(lying_wave(a).distance_to_bmu, oracle(a)[2])
                   for a in grids)
        mismatches, first = check_waves(3, 4, trials, seed=8)
        assert 0 < mismatches == want < trials
        assert np.array_equal(first, grids[0])

    def test_memory_does_not_grow_with_the_trials(self):
        # One batch of all 20 000 trials peaked at 35 MB.
        tracemalloc.start()
        try:
            check_waves(4, 4, trials=20_000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 200 * grid.CHECK_BLOCK_CELLS

    @pytest.mark.parametrize("trials", [0, -1])
    def test_needs_a_trial(self, trials):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            check_waves(3, 3, trials, seed=0)


class TestCellularTraining:
    def test_bit_identical_to_centralized_manhattan(self):
        rng = np.random.default_rng(6)
        X = rng.random((20, 5))
        som = make_som(4, 4, 5, seed=11)
        schedule = TrainSchedule(epochs=4, lr_start=0.8, lr_end=0.05,
                                 sigma_start=2.0, sigma_end=0.2)
        central = train(som, X, schedule, seed=3, grid_metric="manhattan")
        cellular = ig_train(som, X, schedule, seed=3)
        assert same_bits(central.weights, cellular.weights)

    def test_row_reduction_matches_per_cell_sum(self):
        # the two training paths rely on identical per-row square sums
        rng = np.random.default_rng(7)
        A = rng.random((64, 300))
        per_row = np.array([np.sum(A[i] * A[i]) for i in range(64)])
        assert np.array_equal(per_row, np.sum(A * A, axis=1))

    def test_tiny_sigma_updates_only_the_bmu(self):
        rng = np.random.default_rng(9)
        som = make_som(3, 3, 4, seed=1)
        v = rng.random((1, 4))
        schedule = TrainSchedule(1, 0.5, 0.5, 1e-4, 1e-4)
        for result in (
            ig_train(som, v, schedule, seed=0),
            train(som, v, schedule, seed=0, grid_metric="manhattan"),
        ):
            changed = np.flatnonzero(np.any(result.weights != som.weights, axis=1))
            diff = v[0] - som.weights
            bmu = int(np.argmin(np.sqrt(np.sum(diff * diff, axis=1))))
            assert changed.tolist() == [bmu]

    def test_holds_no_copy_of_the_data(self):
        # Each epoch walks its sample order by index, not a permuted copy.
        X = np.random.default_rng(12).random((1_000, 256))
        som = make_som(3, 2, 256, seed=0)
        tracemalloc.start()
        try:
            ig_train(som, X, TrainSchedule(epochs=2), seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * X.nbytes

    def test_float32_rows_hold_no_float64_copy(self):
        # A float64 copy of the whole matrix peaked at 2.0x the float32 rows.
        X = np.random.default_rng(15).random((5_000, 784), dtype=np.float32)
        som = make_som(2, 2, 784, seed=0)
        tracemalloc.start()
        try:
            ig_train(som, X, TrainSchedule(epochs=1), seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * X.nbytes

    def test_float32_rows_train_as_their_float64_cast(self):
        X = np.random.default_rng(16).random((30, 5), dtype=np.float32)
        som = make_som(4, 3, 5, seed=2)
        schedule = TrainSchedule(epochs=3, sigma_start=2.0, sigma_end=0.2)
        got = ig_train(som, X, schedule, seed=1)
        assert same_bits(got.weights, ig_train(som, X.astype(np.float64), schedule, 1).weights)
        assert same_bits(got.weights, train(som, X, schedule, 1, "manhattan").weights)

    def test_finiteness_check_holds_no_mask(self):
        # An n x d isfinite mask of the data was the whole peak, 0.125x the data.
        X = np.random.default_rng(14).random((20_000, 64))
        som = make_som(1, 1, 64, seed=0)
        tracemalloc.start()
        try:
            ig_train(som, X, TrainSchedule(epochs=1), seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * X.nbytes

    def test_dimension_mismatch(self):
        som = make_som(2, 2, 3, seed=0)
        with pytest.raises(ValueError, match="dim"):
            ig_train(som, np.zeros((4, 5)), TrainSchedule(1), seed=0)

    def test_rejects_empty_dataset(self):
        som = make_som(2, 2, 3, seed=0)
        with pytest.raises(ValueError, match="empty"):
            ig_train(som, np.empty((0, 3)), TrainSchedule(1), seed=0)

    def test_rejects_non_finite_data(self):
        som = make_som(2, 2, 3, seed=0)
        X = np.random.default_rng(11).random((4, 3))
        X[2, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ig_train(som, X, TrainSchedule(1), seed=0)


class TestCostReport:
    def test_counts(self):
        rep = cost_report(10, 10, n_samples=3)
        assert rep.t_p == 18
        assert rep.steps_per_sample == 19
        assert rep.total_steps == 57
        edges = 10 * 9 + 10 * 9
        assert rep.messages_per_step == 2 * edges
        assert rep.messages_per_wave == 2 * edges * 18
        assert rep.messages_per_wave < rep.message_upper_bound  # boundary deficit
        assert rep.centralized_ops_per_sample == 100

    def test_sqrt_scaling(self):
        for k in (4, 8, 16, 32):
            rep = cost_report(k, k, 1)
            assert rep.t_p == 2 * k - 2
            assert rep.t_p < rep.centralized_ops_per_sample  # O(sqrt n) vs O(n)

    def test_single_cell(self):
        rep = cost_report(1, 1, 5)
        assert rep.messages_per_wave == 0 and rep.t_p == 0
