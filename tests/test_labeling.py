import math

import numpy as np
import pytest

from resom.data import FeatureMatrix
from resom.labeling import class_means, label_som, select_label_subset
from resom.som import SomGrid, activities_batch
from scalar_oracles import bmu_normalized


def toy_som():
    # 3x1 grid, 2-dim weights placed at distinct spots
    return SomGrid(1, 3, np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]]))


class TestSubsetSelection:
    def labeled(self, n, n_classes=10, seed=0):
        rng = np.random.default_rng(seed)
        return FeatureMatrix(rng.random((n, 2)), rng.integers(0, n_classes, n))

    def test_one_percent_of_sixty_thousand(self):
        data = self.labeled(60_000)
        sub = select_label_subset(data, 0.01, seed=1)
        assert sub.n_samples == 600

    def test_full_fraction_is_identity(self):
        data = self.labeled(50, n_classes=3)
        sub = select_label_subset(data, 1.0, seed=2)
        assert sub.n_samples == 50
        assert np.array_equal(np.sort(sub.values, axis=0), np.sort(data.values, axis=0))

    def test_deterministic(self):
        data = self.labeled(500)
        a = select_label_subset(data, 0.05, seed=3)
        b = select_label_subset(data, 0.05, seed=3)
        assert np.array_equal(a.values, b.values)

    def test_redraw_until_every_class_present(self):
        data = self.labeled(300, n_classes=8, seed=4)
        for seed in range(20):
            sub = select_label_subset(data, 0.05, seed=seed)
            assert len(np.unique(sub.labels)) == 8

    def test_empty_selection_rejected(self):
        data = self.labeled(50)
        with pytest.raises(ValueError, match="no samples"):
            select_label_subset(data, 0.001, seed=0)

    def test_impossible_coverage_raises(self):
        data = FeatureMatrix(np.zeros((4, 1)), [0, 1, 2, 3])
        with pytest.raises(ValueError, match="covered"):
            select_label_subset(data, 0.25, seed=0)


class TestBmuNormalization:
    def test_bmu_contributes_exactly_one(self):
        contrib = bmu_normalized(np.array([0.3, 0.8, 0.1]))
        assert contrib[1] == 1.0
        assert (contrib <= 1.0).all()

    def test_scale_invariance(self):
        acts = np.random.default_rng(0).random(20) + 0.01
        base = bmu_normalized(acts)
        assert np.array_equal(bmu_normalized(4.0 * acts), base)  # power of two: exact
        np.testing.assert_allclose(bmu_normalized(3.7 * acts), base, rtol=1e-12)


class TestLabelSom:
    def test_matches_hand_computed_accumulators(self):
        som = toy_som()
        subset = FeatureMatrix(
            np.array([[0.1, 0.1], [0.9, 0.9], [0.45, 0.45], [0.2, 0.2]]),
            np.array([0, 1, 1, 0]),
        )
        # independent oracle: explicit loops over samples and neurons
        acc = np.zeros((3, 2))
        counts = np.zeros(2)
        for v, lab in zip(subset.values.astype(float), subset.labels):
            acts = np.array(
                [math.exp(-math.dist(v, w) / 0.5) for w in som.weights]
            )
            acc[:, lab] += bmu_normalized(acts)
            counts[lab] += 1
        acc /= counts
        expected_labels = acc.argmax(axis=1)

        acts = activities_batch(som, subset.values, 0.5)
        np.testing.assert_allclose(class_means(acts, subset.labels, 2), acc, atol=1e-12)
        labeled = label_som(som, subset, kernel_width=0.5)
        assert np.array_equal(labeled.labels, expected_labels)

    def test_single_class_labels_every_neuron(self):
        som = toy_som()
        subset = FeatureMatrix(np.array([[0.4, 0.4], [0.6, 0.6]]), np.array([0, 0]))
        labeled = label_som(som, subset, kernel_width=1.0)
        assert (labeled.labels == 0).all()

    def test_missing_class_rejected(self):
        som = toy_som()
        subset = FeatureMatrix(np.array([[0.4, 0.4], [0.6, 0.6]]), np.array([0, 2]))
        with pytest.raises(ValueError, match="no samples"):
            label_som(som, subset, kernel_width=1.0)

    def test_underflowing_kernel_width_rejected(self):
        subset = FeatureMatrix(np.array([[0.3, 0.3], [0.6, 0.6]]), np.array([0, 1]))
        with pytest.raises(ValueError, match="underflows"):
            label_som(toy_som(), subset, kernel_width=1e-300)

    def test_order_independent_within_tolerance(self):
        rng = np.random.default_rng(1)
        som = SomGrid(4, 4, rng.random((16, 3)))
        subset = FeatureMatrix(rng.random((60, 3)), rng.integers(0, 4, 60))
        order = rng.permutation(60)
        acts = activities_batch(som, subset.values, 1.0)
        a = class_means(acts, subset.labels, 4)
        b = class_means(acts[order], subset.labels[order], 4)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_argmax_tie_takes_lowest_class(self):
        fields = np.array([[1.0, 0.5], [1.0, 0.5], [0.2, 1.0]])
        means = class_means(fields, np.array([0, 1, 2]), 3)
        assert means[0].tolist() == [1.0, 1.0, 0.2]  # neuron 0: classes 0 and 1 tie
        assert np.argmax(means, axis=1)[0] == 0

    def test_zero_count_class_stays_zero(self):
        fields = np.array([[0.2, 0.4], [0.0, 0.0]])
        means = class_means(fields, np.array([1, 1]), 2)
        assert means[:, 0].tolist() == [0.0, 0.0]  # class 0 has no samples
        assert means[:, 1].tolist() == [0.25, 0.5]  # the all-zero row stays zero
        assert np.argmax(means, axis=1).tolist() == [1, 1]
