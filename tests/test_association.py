import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from resom.association import (
    LateralSynapses,
    associate,
    hebb_update,
    learn_direction,
    load_synapses,
    oja_update,
    prune,
    prune_quota,
    roundtrip_synapses,
    save_synapses,
)
from resom.data import FeatureMatrix, PairedDataset, pair_by_class
from resom.som import SomGrid, bmu_stream, make_som
from scalar_oracles import same_bits


def stream(pairs):
    """(src_bmus, src_acts, dst_bmus, dst_acts) from (s, t, a_s, a_t) tuples."""
    s, t, a_s, a_t = (np.array(col) for col in zip(*pairs))
    return s.astype(int), a_s, t.astype(int), a_t


class TestLearning:
    def test_sprout_then_hebb(self):
        # first co-occurrence sprouts at 0 and does not update; second applies Hebb
        s, a_s, t, a_t = stream([(0, 1, 0.5, 0.4), (0, 1, 0.5, 0.4)])
        syn = learn_direction(2, 2, s, a_s, t, a_t, rule="hebb", eta=1.0)
        assert syn.exists[0, 1]
        assert syn.weights[0, 1] == pytest.approx(0.2, rel=1e-12)

    def test_single_cooccurrence_leaves_weight_zero(self):
        s, a_s, t, a_t = stream([(1, 0, 0.9, 0.9)])
        syn = learn_direction(2, 2, s, a_s, t, a_t)
        assert syn.exists[1, 0] and syn.weights[1, 0] == 0.0

    def test_oja_step_value(self):
        assert oja_update(0.2, 0.5, 0.4, 1.0) == pytest.approx(0.368, rel=1e-12)
        assert hebb_update(0.0, 0.5, 0.4, 1.0) == pytest.approx(0.2, rel=1e-12)

    def test_sprouting_soundness_against_logged_cooccurrences(self):
        rng = np.random.default_rng(0)
        n = 200
        s = rng.integers(0, 6, n)
        t = rng.integers(0, 5, n)
        a = rng.random(n)
        b = rng.random(n)
        syn = learn_direction(6, 5, s, a, t, b)
        logged = set(zip(s.tolist(), t.tolist()))  # independent co-occurrence log
        created = set(zip(*np.nonzero(syn.exists)))
        assert created == logged

    def test_hebb_weight_is_nondecreasing(self):
        rng = np.random.default_rng(1)
        n = 100
        s = np.zeros(n, dtype=int)
        t = np.zeros(n, dtype=int)
        a = rng.random(n) + 1e-6
        b = rng.random(n) + 1e-6
        history = []
        for i in range(1, n + 1):
            syn = learn_direction(1, 1, s[:i], a[:i], t[:i], b[:i])
            history.append(syn.weights[0, 0])
        assert all(x <= y for x, y in zip(history, history[1:]))

    def test_direction_independence(self):
        rng = np.random.default_rng(2)
        som_x = SomGrid(2, 2, rng.random((4, 3)))
        som_y = SomGrid(3, 1, rng.random((3, 3)))
        labels = rng.integers(0, 2, 40)
        pairs = PairedDataset(
            FeatureMatrix(rng.random((40, 3)), labels),
            FeatureMatrix(rng.random((40, 3)), labels),
            np.arange(40),
        )
        syn_xy, syn_yx = associate(som_x, som_y, pairs, rule="oja", eta=0.5)
        # x->y learned alone gives the same result: the directions never interact
        from resom.som import bmu_stream

        bx, ax = bmu_stream(som_x, pairs.x.values)
        by, ay = bmu_stream(som_y, pairs.y_values)
        alone = learn_direction(4, 3, bx, ax, by, ay, rule="oja", eta=0.5)
        assert np.array_equal(alone.weights, syn_xy.weights)
        assert np.array_equal(alone.exists, syn_xy.exists)
        # under Oja the two directions genuinely differ
        assert not np.array_equal(syn_xy.weights, syn_yx.weights.T)

    def test_hebb_directions_are_transposes(self):
        rng = np.random.default_rng(3)
        som_x = SomGrid(2, 2, rng.random((4, 3)))
        som_y = SomGrid(2, 2, rng.random((4, 3)))
        labels = rng.integers(0, 2, 60)
        pairs = PairedDataset(
            FeatureMatrix(rng.random((60, 3)), labels),
            FeatureMatrix(rng.random((60, 3)), labels),
            np.arange(60),
        )
        syn_xy, syn_yx = associate(som_x, som_y, pairs, rule="hebb", eta=1.0)
        assert np.array_equal(syn_xy.exists, syn_yx.exists.T)
        assert np.array_equal(syn_xy.weights, syn_yx.weights.T)

    def test_map_y_stream_follows_the_pairing(self):
        # 50 y rows for 80 x rows: every y row is paired, some more than once.
        rng = np.random.default_rng(4)
        som_x = SomGrid(2, 2, rng.random((4, 3)))
        som_y = SomGrid(3, 2, rng.random((6, 5)))
        x = FeatureMatrix(rng.random((80, 3)), rng.integers(0, 3, 80))
        y = FeatureMatrix(rng.random((50, 5)), np.arange(50) % 3)
        pairs = pair_by_class(x, y, 5)
        bx, ax = bmu_stream(som_x, pairs.x.values)
        by, ay = bmu_stream(som_y, pairs.y_values)
        for rule in ("hebb", "oja"):
            syn_xy, syn_yx = associate(som_x, som_y, pairs, rule=rule, eta=0.5)
            for got, want in ((syn_xy, learn_direction(4, 6, bx, ax, by, ay, rule, 0.5)),
                              (syn_yx, learn_direction(6, 4, by, ay, bx, ax, rule, 0.5))):
                assert np.array_equal(got.weights, want.weights)
                assert np.array_equal(got.exists, want.exists)

    def test_holds_no_paired_copy_of_map_y_rows(self):
        # Streaming pairs.y_values, a paired copy of map y's rows, peaked at
        # 1.43x those rows.
        rng = np.random.default_rng(6)
        labels = rng.integers(0, 10, 20_000)
        x = FeatureMatrix(rng.random((20_000, 16)), labels)
        y = FeatureMatrix(rng.random((20_000, 507), dtype=np.float32), rng.permutation(labels))
        pairs = pair_by_class(x, y, 7)
        som_x, som_y = make_som(4, 4, 16, seed=0), make_som(16, 16, 507, seed=1)
        tracemalloc.start()
        try:
            associate(som_x, som_y, pairs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * y.values.nbytes

    def test_extra_epochs_reuse_pair_order(self):
        s, a_s, t, a_t = stream([(0, 0, 0.5, 0.5)])
        two = learn_direction(1, 1, s, a_s, t, a_t, rule="hebb", epochs=2)
        # epoch 1 sprouts, epoch 2 updates once
        assert two.weights[0, 0] == pytest.approx(0.25, rel=1e-12)

    def test_unknown_rule(self):
        with pytest.raises(ValueError, match="rule"):
            learn_direction(1, 1, np.array([0]), np.array([1.0]), np.array([0]), np.array([1.0]), rule="stdp")


class TestOjaDynamics:
    def test_converges_to_activity_ratio(self):
        w = 0.0
        for _ in range(2000):
            w = oja_update(w, 0.5, 0.4, eta=0.1)
        assert w == pytest.approx(0.5 / 0.4, abs=1e-6)


def reference_prune(syn, keep_fraction):
    """The per-source loop prune ran before it became one sort: each source's
    existing synapses, lexsorted by weight (descending) then target index."""
    quota = prune_quota(keep_fraction, syn.n_target)
    out = LateralSynapses.empty(syn.n_source, syn.n_target)
    for s in range(syn.n_source):
        idx = np.flatnonzero(syn.exists[s])
        w = syn.weights[s, idx]
        if idx.size > quota:
            order = np.lexsort((idx, -w))[:quota]
            idx, w = idx[order], w[order]
        out.exists[s, idx] = True
        out.weights[s, idx] = w
    return out


class TestPrune:
    def make(self, rows):
        n_target = max(len(r) for r in rows)
        syn = LateralSynapses.empty(len(rows), n_target)
        for i, r in enumerate(rows):
            for j, w in enumerate(r):
                if w is not None:
                    syn.exists[i, j] = True
                    syn.weights[i, j] = w
        return syn

    def test_top_k_kept(self):
        syn = self.make([[5.0, 3.0, 1.0]])
        out = prune(syn, keep_fraction=2 / 3)
        assert out.weights[0].tolist() == [5.0, 3.0, 0.0]
        assert out.exists[0].tolist() == [True, True, False]

    def test_keep_all_is_identity(self):
        syn = self.make([[1.0, None, 0.5], [None, 2.0, None]])
        out = prune(syn, keep_fraction=1.0)
        assert np.array_equal(out.exists, syn.exists)
        assert np.array_equal(out.weights, syn.weights)

    def test_quota_is_ceil_of_potential_targets(self):
        assert prune_quota(0.05, 64) == math.ceil(0.05 * 64)
        assert prune_quota(1.0, 10) == 10
        with pytest.raises(ValueError):
            prune_quota(0.0, 10)

    def test_cardinality_and_maxima_brute_force(self):
        rng = np.random.default_rng(4)
        syn = LateralSynapses.empty(10, 40)
        mask = rng.random((10, 40)) < 0.6
        syn.exists[:] = mask
        syn.weights[mask] = rng.random(mask.sum())
        for fraction in (0.05, 0.1, 0.25, 1.0):
            out = prune(syn, fraction)
            quota = math.ceil(fraction * 40)
            for s in range(10):
                kept = np.flatnonzero(out.exists[s])
                assert kept.size <= quota
                # brute-force: kept weights are the largest existing ones
                weights = sorted(syn.weights[s, syn.exists[s]], reverse=True)
                expected = sorted(weights[: min(quota, len(weights))], reverse=True)
                got = sorted(out.weights[s, kept], reverse=True)
                assert got == pytest.approx(expected, rel=0)

    def test_tie_keeps_lower_target_index(self):
        syn = self.make([[1.0, 1.0, 1.0]])
        out = prune(syn, keep_fraction=1 / 3)
        assert np.flatnonzero(out.exists[0]).tolist() == [0]

    def test_under_quota_neuron_keeps_everything(self):
        syn = self.make([[None, 0.1, None, None]])
        out = prune(syn, keep_fraction=0.5)
        assert out.exists[0, 1] and out.n_synapses == 1

    def test_matches_per_source_loop_bit_for_bit(self):
        # Few distinct weights make ties common; negative weights and -0.0
        # occur through RLAT files and Oja with eta > 1; sparse rows leave
        # sources under their quota.
        rng = np.random.default_rng(6)
        values = np.array([-2.0, -0.5, -0.0, 0.0, 0.25, 0.25, 1.0, 3.0])
        for trial in range(200):
            n_source, n_target = rng.integers(1, 12, 2)
            syn = LateralSynapses.empty(int(n_source), int(n_target))
            syn.exists[:] = rng.random(syn.exists.shape) < rng.random()
            syn.weights[:] = (rng.choice(values, syn.weights.shape) if trial % 2
                              else rng.normal(size=syn.weights.shape))
            for fraction in (0.01, 0.2, 0.5, 1.0, 3.0):
                got, want = prune(syn, fraction), reference_prune(syn, fraction)
                assert np.array_equal(got.exists, want.exists)
                assert np.array_equal(got.weights, want.weights)
                assert np.array_equal(np.signbit(got.weights), np.signbit(want.weights))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(),
           fraction=st.sampled_from([0.01, 0.2, 0.5, 1.0, 3.0]) | st.floats(0.01, 3.0))
    def test_matches_per_source_loop_property(self, data, fraction):
        n_source, n_target = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
        values = st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.25, 1.0, 3.0])
        syn = LateralSynapses(
            n_source, n_target,
            data.draw(hnp.arrays(np.float64, (n_source, n_target), elements=values)),
            data.draw(hnp.arrays(bool, (n_source, n_target))),
        )
        got, want = prune(syn, fraction), reference_prune(syn, fraction)
        assert np.array_equal(got.exists, want.exists)
        assert same_bits(got.weights, want.weights)

    @pytest.mark.parametrize("fraction", [float("nan"), float("inf"), -0.5])
    def test_quota_refuses_non_finite_and_non_positive_fractions(self, fraction):
        with pytest.raises(ValueError, match="keep_fraction"):
            prune_quota(fraction, 10)


class TestSynapseFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        syn = LateralSynapses.empty(6, 7)
        mask = rng.random((6, 7)) < 0.4
        syn.exists[:] = mask
        syn.weights[mask] = rng.random(mask.sum()).astype(np.float32)
        path = tmp_path / "s.rlat"
        save_synapses(syn, path, "YX")
        back, direction = load_synapses(path)
        assert direction == "YX"
        assert np.array_equal(back.exists, syn.exists)
        assert np.array_equal(back.weights, syn.weights)

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            load_synapses(io.BytesIO(b"XXXXXY" + b"\x00" * 12))

    def test_roundtrip_is_f32_stable(self):
        syn = LateralSynapses.empty(2, 2)
        syn.exists[0, 1] = True
        syn.weights[0, 1] = 0.1  # not f32-representable
        once = roundtrip_synapses(syn)
        twice = roundtrip_synapses(once)
        assert np.array_equal(once.weights, twice.weights)
