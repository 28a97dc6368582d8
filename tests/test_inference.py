import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from resom.association import LateralSynapses
from resom.data import FeatureMatrix, PairedDataset
from resom.inference import (
    ConvergenceConfig,
    converge_from_fields,
    disconnected_targets,
    diverge_label,
    evaluate_unimodal,
    gain_matrix,
    minmax_rows,
    score,
    score_convergence,
    synapse_max,
)
from resom.labeling import label_som
from resom.som import SomGrid, activities_batch, distances
from scalar_oracles import activation_field, converge_classify


def classify_batch(som_x, som_y, syn_xy, syn_yx, values_x, values_y, cfg):
    """Convergence on raw inputs: both afferent fields, then the decision."""
    return converge_from_fields(
        som_x, som_y, syn_xy, syn_yx,
        activities_batch(som_x, values_x, cfg.kernel_width_x),
        activities_batch(som_y, values_y, cfg.kernel_width_y),
        cfg,
    )


def synapses_from(weights_or_none):
    rows = len(weights_or_none)
    cols = len(weights_or_none[0])
    syn = LateralSynapses.empty(rows, cols)
    for i in range(rows):
        for j in range(cols):
            w = weights_or_none[i][j]
            if w is not None:
                syn.exists[i, j] = True
                syn.weights[i, j] = w
    return syn


def divergent_activity(syn: LateralSynapses, field_src: np.ndarray, target: int) -> float:
    """max over incoming synapses of weight * source activity; 0 if none."""
    src = np.flatnonzero(syn.exists[:, target])
    if src.size == 0:
        return 0.0
    return float(np.max(syn.weights[src, target] * np.asarray(field_src)[src]))


# ---------------------------------------------------------------------------
# Independent oracle: plain-Python reading of the convergence recipe
# ---------------------------------------------------------------------------

def naive_minmax(a):
    lo, hi = min(a), max(a)
    if hi == lo:
        return [0.0] * len(a)
    return [(v - lo) / (hi - lo) for v in a]


def naive_converge(labels_x, labels_y, ax, ay, syn_xy, syn_yx, cfg):
    kx, ky = len(ax), len(ay)

    def argmax(vals):
        best = 0
        for i, v in enumerate(vals):
            if v > vals[best]:
                best = i
        return best

    def support(syn, src, other):
        targets = [j for j in range(syn.n_target) if syn.exists[src, j]]
        if not targets:
            return None
        vals = [syn.weights[src, j] * other[j] for j in targets]
        return max(vals) if cfg.update == "max" else sum(vals) / len(vals)

    bx, by = argmax(ax), argmax(ay)
    if cfg.neurons == "all":
        axn = naive_minmax(ax) if cfg.activities == "norm" else list(ax)
        ayn = naive_minmax(ay) if cfg.activities == "norm" else list(ay)
        new_x, new_y = [], []
        for i in range(kx):
            sup = support(syn_xy, i, ayn)
            if sup is None:
                new_x.append(0.0 if cfg.disconnected == "zero" else axn[i])
            else:
                new_x.append(axn[i] * sup)
        for j in range(ky):
            sup = support(syn_yx, j, axn)
            if sup is None:
                new_y.append(0.0 if cfg.disconnected == "zero" else ayn[j])
            else:
                new_y.append(ayn[j] * sup)
        cand = [("x", i, new_x[i]) for i in range(kx)] + [
            ("y", j, new_y[j]) for j in range(ky)
        ]
    else:
        lat_for_x = naive_minmax(ay) if cfg.activities == "norm" else list(ay)
        lat_for_y = naive_minmax(ax) if cfg.activities == "norm" else list(ax)
        sup_x = support(syn_xy, bx, lat_for_x)
        sup_y = support(syn_yx, by, lat_for_y)
        if sup_x is None:
            sup_x = 1.0 if cfg.disconnected == "keep" else 0.0
        if sup_y is None:
            sup_y = 1.0 if cfg.disconnected == "keep" else 0.0
        cand = [("x", bx, ax[bx] * sup_x), ("y", by, ay[by] * sup_y)]

    best = max(cand, key=lambda c: c[2])
    if best[2] <= 0.0:
        return None
    # fixed map order: x wins exact ties
    for map_id, neuron, value in cand:
        if value == best[2]:
            labels = labels_x if map_id == "x" else labels_y
            return map_id, neuron, labels[neuron]
    return None


ALL_VARIANTS = [
    ConvergenceConfig(u, a, n, 1.0, 1.0, d)
    for u, a, n, d in itertools.product(
        ("max", "sum"), ("raw", "norm"), ("all", "bmu"), ("zero", "keep")
    )
]


class TestConvergenceAgainstOracle:
    def random_instance(self, rng, kx=4, ky=3):
        labels_x = rng.integers(0, 3, kx)
        labels_y = rng.integers(0, 3, ky)
        som_x = SomGrid(kx, 1, rng.random((kx, 2)), labels_x)
        som_y = SomGrid(ky, 1, rng.random((ky, 2)), labels_y)
        syn_xy = LateralSynapses.empty(kx, ky)
        syn_yx = LateralSynapses.empty(ky, kx)
        for syn in (syn_xy, syn_yx):
            mask = rng.random(syn.exists.shape) < 0.5
            syn.exists[:] = mask
            syn.weights[mask] = rng.random(mask.sum()) * 2
        return som_x, som_y, syn_xy, syn_yx

    def test_all_variants_match_naive_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(40):
            som_x, som_y, syn_xy, syn_yx = self.random_instance(rng)
            vx, vy = rng.random(2), rng.random(2)
            for cfg in ALL_VARIANTS:
                ax = activation_field(som_x, vx, cfg.kernel_width_x).activities
                ay = activation_field(som_y, vy, cfg.kernel_width_y).activities
                expected = naive_converge(
                    som_x.labels, som_y.labels, ax.tolist(), ay.tolist(),
                    syn_xy, syn_yx, cfg,
                )
                got = converge_classify(vx, vy, som_x, som_y, syn_xy, syn_yx, cfg)
                if expected is None:
                    assert got is None, cfg
                else:
                    assert got is not None, cfg
                    assert (got.map_id, got.neuron, got.label) == expected, cfg

    def test_toy_two_plus_two_hand_enumeration(self):
        # two neurons per map; all quantities small enough to enumerate by hand
        som_x = SomGrid(2, 1, np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0, 1]))
        som_y = SomGrid(2, 1, np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0, 1]))
        syn_xy = synapses_from([[0.8, 0.3], [None, 0.9]])
        syn_yx = synapses_from([[0.5, None], [0.3, 0.9]])
        vx = np.array([0.1, 0.1])
        vy = np.array([0.2, 0.9])
        ax = [math.exp(-math.dist(vx, w)) for w in som_x.weights.tolist()]
        ay = [math.exp(-math.dist(vy, w)) for w in som_y.weights.tolist()]

        cfg = ConvergenceConfig("max", "raw", "all", 1.0, 1.0, "zero")
        # all four candidate winners, enumerated explicitly:
        cand_x0 = ax[0] * max(0.8 * ay[0], 0.3 * ay[1])  # ~0.555
        cand_x1 = ax[1] * (0.9 * ay[1])                  # ~0.076
        cand_y0 = ay[0] * (0.5 * ax[0])                  # ~0.347
        cand_y1 = ay[1] * max(0.3 * ax[0], 0.9 * ax[1])  # ~0.078
        values = [cand_x0, cand_x1, cand_y0, cand_y1]
        assert int(np.argmax(values)) == 0  # x-neuron 0 wins this layout
        decision = converge_classify(vx, vy, som_x, som_y, syn_xy, syn_yx, cfg)
        assert (decision.map_id, decision.neuron, decision.label) == ("x", 0, 0)

    def test_scale_invariance_of_decision(self):
        # multiplying both maps' activities by one constant never flips the
        # winner (under the default zero convention; "keep" mixes scaled and
        # unscaled terms by design, so the property does not apply there)
        rng = np.random.default_rng(1)
        zero_variants = [cfg for cfg in ALL_VARIANTS if cfg.disconnected == "zero"]
        for _ in range(20):
            som_x, som_y, syn_xy, syn_yx = self.random_instance(rng)
            ax = rng.random((5, 4)) + 0.01
            ay = rng.random((5, 3)) + 0.01
            for cfg in zero_variants:
                base = converge_from_fields(som_x, som_y, syn_xy, syn_yx, ax, ay, cfg)
                scaled = converge_from_fields(
                    som_x, som_y, syn_xy, syn_yx, 0.25 * ax, 0.25 * ay, cfg
                )
                assert np.array_equal(base.map_ids, scaled.map_ids)
                assert np.array_equal(base.neurons, scaled.neurons)

    def test_bmu_mode_winner_is_a_local_bmu(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            som_x, som_y, syn_xy, syn_yx = self.random_instance(rng)
            cfg = ConvergenceConfig("max", "norm", "bmu", 1.0, 1.0)
            ax = activities_batch(som_x, rng.random((8, 2)), 1.0)
            ay = activities_batch(som_y, rng.random((8, 2)), 1.0)
            batch = converge_from_fields(som_x, som_y, syn_xy, syn_yx, ax, ay, cfg)
            bmu = {"x": np.argmax(ax, axis=1), "y": np.argmax(ay, axis=1)}
            for i in range(8):
                if batch.map_ids[i]:
                    assert batch.neurons[i] == bmu[batch.map_ids[i]][i]

    def test_sum_equals_max_with_single_synapses(self):
        rng = np.random.default_rng(3)
        som_x, som_y, _, _ = self.random_instance(rng)
        kx, ky = som_x.n_neurons, som_y.n_neurons
        syn_xy = LateralSynapses.empty(kx, ky)
        syn_yx = LateralSynapses.empty(ky, kx)
        for i in range(kx):
            syn_xy.exists[i, i % ky] = True
            syn_xy.weights[i, i % ky] = rng.random()
        for j in range(ky):
            syn_yx.exists[j, j % kx] = True
            syn_yx.weights[j, j % kx] = rng.random()
        vx, vy = rng.random((6, 2)), rng.random((6, 2))
        for act, neur in itertools.product(("raw", "norm"), ("all", "bmu")):
            a = classify_batch(
                som_x, som_y, syn_xy, syn_yx, vx, vy,
                ConvergenceConfig("max", act, neur, 1.0, 1.0),
            )
            b = classify_batch(
                som_x, som_y, syn_xy, syn_yx, vx, vy,
                ConvergenceConfig("sum", act, neur, 1.0, 1.0),
            )
            assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(a.neurons, b.neurons)

    def test_no_decision_when_both_maps_zero(self):
        som_x = SomGrid(1, 1, np.zeros((1, 2)), np.array([0]))
        som_y = SomGrid(1, 1, np.ones((1, 2)), np.array([1]))
        empty_xy = LateralSynapses.empty(1, 1)
        empty_yx = LateralSynapses.empty(1, 1)
        cfg = ConvergenceConfig("max", "raw", "bmu", 1.0, 1.0, "zero")
        decision = converge_classify(
            np.zeros(2), np.ones(2), som_x, som_y, empty_xy, empty_yx, cfg
        )
        assert decision is None
        # and the keep convention turns the same sample into a decision
        cfg_keep = ConvergenceConfig("max", "raw", "bmu", 1.0, 1.0, "keep")
        assert converge_classify(
            np.zeros(2), np.ones(2), som_x, som_y, empty_xy, empty_yx, cfg_keep
        ) is not None


@pytest.mark.parametrize("widths", [(math.nan, 1.0), (1.0, math.inf), (0.0, 1.0)])
def test_config_kernel_widths_must_be_positive_and_finite(widths):
    with pytest.raises(ValueError, match="kernel widths"):
        ConvergenceConfig(kernel_width_x=widths[0], kernel_width_y=widths[1])


class TestMinMax:
    def test_bmu_one_wmu_zero_argmax_unchanged(self):
        rng = np.random.default_rng(4)
        fields = rng.random((20, 9)) * 3
        normed = minmax_rows(fields)
        assert np.array_equal(np.argmax(fields, 1), np.argmax(normed, 1))
        rows = np.arange(20)
        assert (normed[rows, np.argmax(fields, 1)] == 1.0).all()
        assert (normed[rows, np.argmin(fields, 1)] == 0.0).all()

    def test_constant_row(self):
        assert not minmax_rows(np.full((1, 4), 0.7)).any()


class TestDivergence:
    def test_max_of_incoming(self):
        syn = synapses_from([[2.0], [1.0]])
        field = np.array([0.3, 0.9])
        assert divergent_activity(syn, field, 0) == pytest.approx(0.9)

    def test_disconnected_is_zero(self):
        syn = synapses_from([[None], [None]])
        assert divergent_activity(syn, np.array([1.0, 1.0]), 0) == 0.0
        assert disconnected_targets(syn).tolist() == [True]

    def test_single_synapse(self):
        syn = synapses_from([[0.7]])
        assert divergent_activity(syn, np.array([0.6]), 0) == pytest.approx(0.42)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        syn = LateralSynapses.empty(6, 4)
        mask = rng.random((6, 4)) < 0.5
        syn.exists[:] = mask
        syn.weights[mask] = rng.random(mask.sum())
        fields = rng.random((10, 6))
        batch = synapse_max(syn.weights, syn.exists, fields)
        for i in range(10):
            for t in range(4):
                assert batch[i, t] == pytest.approx(
                    divergent_activity(syn, fields[i], t), rel=1e-12
                )

    def test_identity_synapses_reproduce_direct_labeling(self):
        rng = np.random.default_rng(6)
        som = SomGrid(3, 3, rng.random((9, 4)))
        syn = LateralSynapses.empty(9, 9)
        np.fill_diagonal(syn.exists, True)
        np.fill_diagonal(syn.weights, 1.0)
        subset = FeatureMatrix(rng.random((30, 4)), rng.integers(0, 3, 30))
        direct = label_som(som, subset, kernel_width=0.8)
        diverged = diverge_label(som, som, syn, subset, kernel_width=0.8)
        assert np.array_equal(direct.labels, diverged.labels)

    def test_disconnected_neurons_default_to_label_zero(self):
        rng = np.random.default_rng(7)
        som_x = SomGrid(2, 2, rng.random((4, 3)))
        som_y = SomGrid(2, 2, rng.random((4, 3)))
        syn = synapses_from([
            [1.0, None, None, None],
            [None, 1.0, None, None],
            [None, None, None, None],
            [None, None, None, None],
        ])  # y-neurons 2 and 3 unreachable
        subset = FeatureMatrix(rng.random((20, 3)), rng.integers(1, 3, 20))
        labeled = diverge_label(som_x, som_y, syn, subset, 1.0, n_classes=3)
        assert labeled.labels[2] == 0 and labeled.labels[3] == 0


class TestSynapseMax:
    """One max-product operator: divergence on (W, E), lateral support on (Wᵀ, Eᵀ)."""

    def random_synapses(self, rng, n_source, n_target):
        syn = LateralSynapses.empty(n_source, n_target)
        syn.exists[:] = rng.random((n_source, n_target)) < rng.random()
        # Few distinct values give ties; negative weights come from RLAT
        # files and from Oja with eta > 1.
        syn.weights[:] = rng.choice([-1.5, -0.25, 0.0, 0.5, 0.5, 2.0], (n_source, n_target))
        return syn

    def test_matches_scalar_oracle_bit_for_bit(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            syn = self.random_synapses(rng, *rng.integers(1, 8, 2))
            fields = rng.choice([0.0, 0.3, 1.0], (5, syn.n_source))
            out = synapse_max(syn.weights, syn.exists, fields)
            for i, t in itertools.product(range(5), range(syn.n_target)):
                assert out[i, t] == divergent_activity(syn, fields[i], t)

    def test_negative_support_is_not_clipped(self):
        syn = synapses_from([[-2.0, None], [-0.5, None]])
        out = synapse_max(syn.weights, syn.exists, np.array([[1.0, 1.0]]))
        assert out.tolist() == [[-0.5, 0.0]]  # max over existing synapses only

    def test_transpose_gives_each_sources_max_over_its_targets(self):
        rng = np.random.default_rng(10)
        syn = self.random_synapses(rng, 6, 9)
        other = rng.random((4, 9))
        out = synapse_max(syn.weights.T, syn.exists.T, other)
        for i, s in itertools.product(range(4), range(6)):
            idx = np.flatnonzero(syn.exists[s])
            want = (other[i, idx] * syn.weights[s, idx]).max() if idx.size else 0.0
            assert out[i, s] == want

    def test_at_equals_the_full_operator_gathered(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            syn = self.random_synapses(rng, *rng.integers(1, 8, 2))
            fields = rng.random((12, syn.n_source))
            at = rng.integers(0, syn.n_target, 12)
            full = synapse_max(syn.weights, syn.exists, fields)
            got = synapse_max(syn.weights, syn.exists, fields, at)
            assert np.array_equal(got, full[np.arange(12), at])


class TestEvaluation:
    def test_perfect_classifier_identity_confusion(self):
        som = SomGrid(2, 1, np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0, 1]))
        data = FeatureMatrix(
            np.array([[0.1, 0.0], [0.9, 1.0], [0.0, 0.1], [1.0, 0.9]]),
            np.array([0, 1, 0, 1]),
        )
        res = evaluate_unimodal(som, data, n_classes=2)
        assert res.accuracy == 1.0
        assert np.array_equal(res.confusion, np.array([[2, 0], [0, 2]]))

    def test_confusion_skips_no_decision(self):
        res = score(np.array([0, -1, 1]), np.array([0, 1, 1]), 2)
        assert res.confusion.sum() == 2 and res.n_no_decision == 1

    def test_gain_matrix_rows_sum_to_zero(self):
        rng = np.random.default_rng(8)
        a = rng.integers(0, 20, (4, 4))
        b = rng.integers(0, 20, (4, 4))
        a[np.arange(4), np.arange(4)] += 5  # no empty rows
        b[np.arange(4), np.arange(4)] += 5
        gain = gain_matrix(a, b)
        np.testing.assert_allclose(gain.sum(axis=1), 0.0, atol=1e-12)

    def test_convergence_eval_counts_no_decision_as_error(self):
        som_x = SomGrid(1, 1, np.zeros((1, 2)), np.array([0]))
        som_y = SomGrid(1, 1, np.ones((1, 2)), np.array([0]))
        pairs = PairedDataset(
            FeatureMatrix(np.zeros((3, 2)), [0, 0, 0]),
            FeatureMatrix(np.ones((3, 2)), [0, 0, 0]),
            np.arange(3),
        )
        res = score_convergence(
            som_x, som_y, LateralSynapses.empty(1, 1), LateralSynapses.empty(1, 1), pairs,
            distances(som_x, pairs.x.values), distances(som_y, pairs.y.values),
            ConvergenceConfig("max", "raw", "all", 1.0, 1.0, "zero"), 1,
        )
        assert res.n_no_decision == 3
        assert res.accuracy == 0.0


# ---------------------------------------------------------------------------
# Properties: the batched operators against their scalar loops
# ---------------------------------------------------------------------------

# Few values, so activities, supports and the two maps' candidates tie.
QUARTERS = st.sampled_from([0.0, 0.25, 0.5, 1.0])
WEIGHTS = st.sampled_from([0.0, 0.5, 1.0, 2.0])
# Negative weights come from RLAT files and from Oja with eta > 1.
SIGNED_WEIGHTS = st.sampled_from([-1.5, -0.0, 0.0, 0.5, 1.0, 2.0])


def drawn_synapses(draw, n_source, n_target, weights=WEIGHTS):
    exists = draw(hnp.arrays(bool, (n_source, n_target)))
    w = draw(hnp.arrays(np.float64, (n_source, n_target), elements=weights))
    return LateralSynapses(n_source, n_target, np.where(exists, w, 0.0), exists)


def drawn_map(draw, k, dim):
    """A k x 1 labeled map whose weights come from QUARTERS."""
    weights = draw(hnp.arrays(np.float64, (k, dim), elements=QUARTERS))
    return SomGrid(k, 1, weights, draw(hnp.arrays(np.int64, k, elements=st.integers(0, 2))))


def scalar_diverge_labels(som_x, syn_xy, subset, kernel_width, n_classes):
    """diverge_label one sample and one neuron at a time, from the afferent
    fields of the one distance kernel: each sample's divergent field over its
    peak (if positive), summed per class in sample order and averaged; a
    neuron takes the first class of the largest mean."""
    sums = [[0.0] * n_classes for _ in range(syn_xy.n_target)]
    counts = [0] * n_classes
    for field, c in zip(activities_batch(som_x, subset.values, kernel_width), subset.labels):
        induced = [divergent_activity(syn_xy, field, t) for t in range(syn_xy.n_target)]
        peak = max(induced)
        for t, value in enumerate(induced):
            sums[t][c] += value / peak if peak > 0 else value
        counts[c] += 1
    labels = []
    for per_class in sums:
        means = [total / max(count, 1) for total, count in zip(per_class, counts)]
        labels.append(means.index(max(means)))
    return labels


class TestPropertiesAgainstScalarLoops:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_converge_from_fields_matches_naive_converge(self, data):
        kx, ky, n = (data.draw(st.integers(1, 4)) for _ in range(3))
        som_x, som_y = drawn_map(data.draw, kx, 1), drawn_map(data.draw, ky, 1)
        syn_xy, syn_yx = drawn_synapses(data.draw, kx, ky), drawn_synapses(data.draw, ky, kx)
        ax = data.draw(hnp.arrays(np.float64, (n, kx), elements=QUARTERS))
        ay = data.draw(hnp.arrays(np.float64, (n, ky), elements=QUARTERS))
        for cfg in ALL_VARIANTS:
            batch = converge_from_fields(som_x, som_y, syn_xy, syn_yx, ax, ay, cfg)
            for i in range(n):
                want = naive_converge(
                    som_x.labels, som_y.labels, ax[i].tolist(), ay[i].tolist(),
                    syn_xy, syn_yx, cfg,
                )
                got = (batch.map_ids[i], batch.neurons[i], batch.labels[i])
                assert got == (want or ("", -1, -1)), cfg

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_synapse_max_matches_its_scalar_loop(self, data):
        n_source, n_target, n = (data.draw(st.integers(1, 5)) for _ in range(3))
        syn = drawn_synapses(data.draw, n_source, n_target, SIGNED_WEIGHTS)
        fields = data.draw(hnp.arrays(np.float64, (n, n_source), elements=QUARTERS))
        at = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, n_target - 1)))
        full = synapse_max(syn.weights, syn.exists, fields)
        at_only = synapse_max(syn.weights, syn.exists, fields, at)
        for i in range(n):
            assert at_only[i] == divergent_activity(syn, fields[i], at[i])
            for t in range(n_target):
                assert full[i, t] == divergent_activity(syn, fields[i], t)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), kernel_width=st.sampled_from([0.5, 1.0]))
    def test_diverge_label_matches_its_scalar_loop(self, data, kernel_width):
        kx, ky = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        n = data.draw(st.integers(1, 8))
        som_x, som_y = drawn_map(data.draw, kx, 2), drawn_map(data.draw, ky, 2)
        syn_xy = drawn_synapses(data.draw, kx, ky)
        subset = FeatureMatrix(
            data.draw(hnp.arrays(np.float64, (n, 2), elements=QUARTERS)),
            data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, 2))),
        )
        got = diverge_label(som_x, som_y, syn_xy, subset, kernel_width, n_classes=3)
        assert got.labels.tolist() == scalar_diverge_labels(som_x, syn_xy, subset, kernel_width, 3)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_score_convergence_gathers_map_y_by_the_pairing(self, data):
        # More x rows than y rows, so the pairing reuses y rows.
        n_y = data.draw(st.integers(1, 4))
        pairing = data.draw(hnp.arrays(np.int64, n_y + data.draw(st.integers(1, 5)),
                                       elements=st.integers(0, n_y - 1)))
        y_labels = data.draw(hnp.arrays(np.int64, n_y, elements=st.integers(0, 2)))
        pairs = PairedDataset(
            FeatureMatrix(data.draw(hnp.arrays(np.float64, (pairing.size, 2), elements=QUARTERS)),
                          y_labels[pairing]),
            FeatureMatrix(data.draw(hnp.arrays(np.float64, (n_y, 2), elements=QUARTERS)), y_labels),
            pairing,
        )
        kx, ky = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        som_x, som_y = drawn_map(data.draw, kx, 2), drawn_map(data.draw, ky, 2)
        syn_xy, syn_yx = drawn_synapses(data.draw, kx, ky), drawn_synapses(data.draw, ky, kx)
        dist_x, dist_y = distances(som_x, pairs.x.values), distances(som_y, pairs.y.values)
        for cfg in ALL_VARIANTS:
            batch = classify_batch(som_x, som_y, syn_xy, syn_yx, pairs.x.values,
                                   pairs.y.values[pairing], cfg)
            want = score(batch.labels, pairs.x.labels, 3)
            got = score_convergence(som_x, som_y, syn_xy, syn_yx, pairs, dist_x, dist_y, cfg, 3)
            assert got.accuracy == want.accuracy, cfg
            assert got.n_no_decision == want.n_no_decision, cfg
            assert np.array_equal(got.confusion, want.confusion), cfg
