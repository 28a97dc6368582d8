import time

import numpy as np
import pytest

from resom.data import FeatureMatrix, save_rsm1
from resom.experiments import (
    ExperimentSpec,
    SpecError,
    StageCache,
    alpha_sweep,
    format_spec,
    load_dataset,
    parse_spec,
    prune_sweep,
    read_record_csv,
    run_pipeline,
    run_seed,
    spec_hash,
    write_metrics,
    write_record_csv,
)
from resom.synthetic import SyntheticSpec, make_paired_dataset

TINY = dict(
    classes=4,
    dim_x=6,
    dim_y=6,
    train_per_class=60,
    test_per_class=25,
    grid_x=(4, 4),
    grid_y=(4, 4),
    epochs=3,
    confused_x=((2, 3),),
    confused_y=((0, 1),),
    seeds=(0,),
)


class TestSpecFile:
    def test_format_parse_roundtrip(self):
        spec = ExperimentSpec(**TINY)
        again = parse_spec(format_spec(spec))
        assert again == spec
        assert spec_hash(again) == spec_hash(spec)

    def test_comments_and_whitespace(self):
        spec = parse_spec("# a comment\n\n  epochs = 5  # trailing\nseeds=1,2\n")
        assert spec.epochs == 5 and spec.seeds == (1, 2)

    def test_unknown_key(self):
        with pytest.raises(SpecError, match="unknown key"):
            parse_spec("flux_capacitor = 1\n")

    def test_grid_syntax(self):
        assert parse_spec("grid_x = 12x7\n").grid_x == (12, 7)
        with pytest.raises(SpecError, match="grid"):
            parse_spec("grid_x = twelve\n")

    def test_confused_pairs_syntax(self):
        spec = parse_spec("confused_x = 0:1,2:3\nconfused_y =\n")
        assert spec.confused_x == ((0, 1), (2, 3))
        assert spec.confused_y == ()

    def test_files_dataset_requires_paths(self):
        with pytest.raises(SpecError, match="x_train"):
            parse_spec("dataset = files\n")

    def test_direct_labeling_needs_fraction(self):
        with pytest.raises(SpecError, match="label_fraction_y"):
            ExperimentSpec(label_mode_y="direct", label_fraction_y=0.0)


class TestSynthetic:
    def test_shapes_labels_and_range(self):
        spec = SyntheticSpec(n_classes=4, train_per_class=30, test_per_class=10,
                             confused_x=((2, 3),), confused_y=((0, 1),))
        train, test = make_paired_dataset(spec, seed=0)
        assert train.n_samples == 120 and test.n_samples == 40
        assert np.array_equal(np.bincount(train.x.labels), [30] * 4)
        assert np.array_equal(train.x.labels, train.y.labels)
        for m in (train.x, train.y, test.x, test.y):
            assert m.values.min() >= 0.0 and m.values.max() <= 1.0

    def test_confused_pairs_sit_closer_than_separated_classes(self):
        spec = SyntheticSpec(n_classes=4, confused_x=((0, 1),), confused_y=(),
                             train_per_class=50, test_per_class=10)
        train, _ = make_paired_dataset(spec, seed=1)
        means = np.array(
            [train.x.values[train.x.labels == c].mean(axis=0) for c in range(4)]
        )
        confused = np.linalg.norm(means[0] - means[1])
        separated = min(
            np.linalg.norm(means[a] - means[b])
            for a in range(4) for b in range(a + 1, 4) if (a, b) != (0, 1)
        )
        assert confused < 0.5 * separated

    def test_deterministic(self):
        spec = SyntheticSpec(train_per_class=20, test_per_class=5)
        a, _ = make_paired_dataset(spec, seed=7)
        b, _ = make_paired_dataset(spec, seed=7)
        assert np.array_equal(a.x.values, b.x.values)

    def test_overlapping_pair_validation(self):
        with pytest.raises(ValueError, match="at most one pair"):
            SyntheticSpec(confused_x=((0, 1), (1, 2)))


class TestPipeline:
    def test_seed_rerun_is_bit_identical(self, tmp_path):
        spec = ExperimentSpec(**TINY)
        a = run_seed(spec, 0, StageCache(None), artifact_dir=str(tmp_path / "a"))
        b = run_seed(spec, 0, StageCache(None), artifact_dir=str(tmp_path / "b"))
        assert (a.uni_x, a.uni_y, a.convergence) == (b.uni_x, b.uni_y, b.convergence)
        for name in ("som_x_0.rsom", "som_y_0.rsom", "syn_xy_0.rlat", "syn_yx_0.rlat"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_aggregates_recompute_and_hash_ignores_wall_time(self):
        spec = ExperimentSpec(**{**TINY, "seeds": (0, 1)})
        record = run_pipeline(spec)
        accs = np.array([r.convergence for r in record.results])
        assert record.mean == pytest.approx(accs.mean(), abs=1e-12)
        assert record.std == pytest.approx(accs.std(), abs=1e-12)
        h = record.content_hash()
        for r in record.results:
            r.wall_time += 123.0
        assert record.content_hash() == h

    def test_cache_makes_second_run_faster_and_identical(self, tmp_path):
        spec = ExperimentSpec(**{**TINY, "train_per_class": 120, "epochs": 6})
        cache = StageCache(str(tmp_path))
        t0 = time.perf_counter()
        first = run_pipeline(spec, cache)
        cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        second = run_pipeline(spec, cache)
        warm = time.perf_counter() - t0
        assert second.content_hash() == first.content_hash()
        assert warm < cold / 2

    def test_partly_cached_seed_matches_uncached(self, tmp_path):
        # alpha_sweep caches map x only; the pipeline then fetches x and
        # trains y alone, and must give the uncached result.
        spec = ExperimentSpec(**TINY)
        cache = StageCache(str(tmp_path))
        alpha_sweep(spec, alphas=(1.0,), modality="x", cache=cache)
        assert len(list(tmp_path.glob("*.bin"))) == 1
        partly = run_pipeline(spec, cache)
        assert len(list(tmp_path.glob("*.bin"))) == 3  # + map y + synapses
        assert partly.content_hash() == run_pipeline(spec, StageCache(None)).content_hash()

    def test_diverge_label_mode(self):
        spec = ExperimentSpec(**{**TINY, "label_mode_y": "diverge", "label_fraction_y": 0.0})
        result = run_seed(spec, 0)
        assert result.uni_y_direct is None
        assert result.uni_y == result.uni_y_diverged

    def test_parallel_jobs_match_serial(self, tmp_path):
        spec = ExperimentSpec(**{**TINY, "seeds": (0, 1)})
        serial = run_pipeline(spec, StageCache(None), jobs=1)
        parallel = run_pipeline(spec, StageCache(None), jobs=2)
        assert serial.content_hash() == parallel.content_hash()


class TestSweeps:
    def test_prune_sweep_keep_one_matches_unpruned_pipeline(self):
        spec = ExperimentSpec(**TINY)
        rows = prune_sweep(spec, fractions=(1.0,))
        record = run_pipeline(ExperimentSpec(**{**TINY, "keep_fraction": 1.0}))
        assert rows[0]["convergence_mean"] == pytest.approx(record.mean, abs=1e-12)

    def test_prune_sweep_monotone_synapse_counts(self):
        spec = ExperimentSpec(**TINY)
        rows = prune_sweep(spec, fractions=(0.05, 0.25, 1.0))
        counts = [r["synapses_xy_post"] for r in rows]
        assert counts[0] <= counts[1] <= counts[2]


class TestFiles:
    def test_file_dataset_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        labels = np.repeat(np.arange(3), 20)
        for name in ("x_train", "x_test", "y_train", "y_test"):
            m = FeatureMatrix(rng.random((60, 4)).astype(np.float32), labels)
            save_rsm1(m, tmp_path / f"{name}.rsm1")
        spec = ExperimentSpec(
            dataset="files",
            normalize_x="minmax",
            normalize_y="minmax",
            x_train=str(tmp_path / "x_train.rsm1"),
            x_test=str(tmp_path / "x_test.rsm1"),
            y_train=str(tmp_path / "y_train.rsm1"),
            y_test=str(tmp_path / "y_test.rsm1"),
            grid_x=(3, 3),
            grid_y=(3, 3),
            epochs=2,
            seeds=(0,),
        )
        train, test = load_dataset(spec, seed=0)
        assert train.n_samples == 60 and test.n_samples == 60
        assert np.array_equal(train.x.labels, train.y.labels[train.pairing])

    def test_missing_file_is_spec_error(self, tmp_path):
        spec = ExperimentSpec(
            dataset="files",
            x_train=str(tmp_path / "nope.rsm1"),
            x_test=str(tmp_path / "nope.rsm1"),
            y_train=str(tmp_path / "nope.rsm1"),
            y_test=str(tmp_path / "nope.rsm1"),
            seeds=(0,),
        )
        with pytest.raises(SpecError, match="missing data file"):
            load_dataset(spec, seed=0)


class TestRecordsAndMetrics:
    def test_record_csv_roundtrip(self, tmp_path):
        record = run_pipeline(ExperimentSpec(**TINY))
        assert record.std == 0.0  # single seed
        path = tmp_path / "rec.csv"
        write_record_csv(record, path)
        digest, rows = read_record_csv(path)
        assert digest == record.spec_digest
        assert float(rows[0]["convergence"]) == pytest.approx(record.mean)

    def test_metrics_format(self, tmp_path):
        path = tmp_path / "m.txt"
        write_metrics({"b": 2, "a": 0.5}, path)
        assert path.read_text() == "a=0.5\nb=2\n"
