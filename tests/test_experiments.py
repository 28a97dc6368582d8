import sys
import threading
import time
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import resom.som
from resom import association as assoc, inference, labeling, synthetic
from resom.cli import main
from resom.data import FeatureMatrix, save_rsm1
from resom.experiments import (
    _DATASET_KEYS,
    SEED_SUBSET_X,
    SEED_SUBSET_Y,
    ExperimentSpec,
    RunRecord,
    SpecError,
    StageCache,
    alpha_sweep,
    evaluate_seed,
    format_spec,
    load_dataset,
    load_spec,
    parse_spec,
    prune_sweep,
    read_record_csv,
    run_pipeline,
    seed_stages,
    spec_hash,
    unimodal_accuracies,
    write_metrics,
    write_record_csv,
)
from resom.synthetic import SyntheticSpec, make_paired_dataset
from scalar_oracles import same_bits
import whole_matrix_oracles as whole

DIGITS_SPEC = Path(__file__).resolve().parent.parent / "specs" / "digits.spec"

# A spec text of each dataset that sets none of the other's keys.
DATASET_SPECS = {
    "synthetic": "",
    "files": "dataset = files\n"
    + "".join(f"{key} = {key}.rsm1\n" for key in _DATASET_KEYS["files"][:4]),
}
# A value off the default for each key only one dataset reads; a path otherwise.
OFF_DEFAULT = {
    "normalize_x": "minmax", "normalize_y": "zscore-minmax", "classes": "7", "dim_x": "3",
    "dim_y": "3", "train_per_class": "10", "test_per_class": "10", "noise": "0.5",
    "min_separation": "0.2", "confusion_overlap": "0.5", "confused_x": "0:1", "confused_y": "",
}

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

    def test_digits_file_sets_the_papers_values(self):
        # The paper's digits run; its paths are relative to the data directory.
        assert load_spec(DIGITS_SPEC) == ExperimentSpec(
            dataset="files", normalize_y="zscore-minmax",
            x_train="mnist/train-images-idx3-ubyte", x_train_labels="mnist/train-labels-idx1-ubyte",
            x_test="mnist/t10k-images-idx3-ubyte", x_test_labels="mnist/t10k-labels-idx1-ubyte",
            y_train="digits/smnist_train.rsm1", y_test="digits/smnist_test.rsm1",
            grid_x=(10, 10), grid_y=(16, 16), label_fraction_x=0.01, alpha_y=0.1,
            keep_fraction=0.1, beta_x=10.0, beta_y=10.0, seeds=tuple(range(10)),
        )

    def test_digits_file_hash_is_pinned(self):
        # The spec_hash of every digits record, wherever its data lives.
        assert spec_hash(load_spec(DIGITS_SPEC)) == (
            "46d111edd522f7f726aa58b4e0df15a2efcf982a8c660c8803cfae0951af56d9"
        )

    def test_comments_and_whitespace(self):
        spec = parse_spec("# a comment\n\n  epochs = 5  # trailing\nseeds=1,2\n")
        assert spec.epochs == 5 and spec.seeds == (1, 2)

    @pytest.mark.parametrize("seeds", ["0,0", "-1", "2,0,2"])
    def test_seeds_are_distinct_and_non_negative(self, seeds):
        with pytest.raises(SpecError, match="seeds must be distinct and non-negative"):
            parse_spec(f"seeds = {seeds}\n")

    def test_unknown_key(self):
        with pytest.raises(SpecError, match="unknown key"):
            parse_spec("flux_capacitor = 1\n")

    def test_repeated_key(self):
        # The last value was kept: this spec trained 5 epochs.
        with pytest.raises(SpecError, match="^line 3: epochs is set again, first on line 1$"):
            parse_spec("epochs = 3\nseeds = 0\nepochs = 5\n")

    def test_grid_syntax(self):
        assert parse_spec("grid_x = 12x7\n").grid_x == (12, 7)
        for bad in ("twelve", "0x3", "-2x4"):
            with pytest.raises(SpecError, match="grid"):
                parse_spec(f"grid_x = {bad}\n")

    @pytest.mark.parametrize("grid", [{"grid_x": (0, 3)}, {"grid_y": (4, 0)}, {"grid_x": (-2, 4)}])
    def test_grid_sides_are_checked_in_code(self, grid):
        # Built in code, not parsed: run_pipeline used to train, then fail.
        with pytest.raises(SpecError, match=f"{next(iter(grid))} sides must be at least 1"):
            ExperimentSpec(**{**TINY, **grid})

    @pytest.mark.parametrize("name", ["grid_x", "grid_y"])
    def test_grid_holds_at_most_what_training_tables_afford(self, name):
        # 5 792 neurons: two 5 792 x 5 792 float64 tables take 512 MiB less
        # 64 KiB, and 5 793 neurons' take 512 MiB and 117 KiB.
        assert getattr(parse_spec(f"{name} = 32x181\n"), name) == (32, 181)
        with pytest.raises(SpecError, match=f"{name} has more than 5792 neurons"):
            ExperimentSpec(**{**TINY, name: (5793, 1)})
        # 256x256, which RLAT's u16 indices would address, needed 2 x 32 GiB.
        with pytest.raises(SpecError, match=f"{name} has more than 5792 neurons"):
            ExperimentSpec(**{**TINY, name: (256, 256)})

    def test_confused_pairs_syntax(self):
        spec = parse_spec("confused_x = 0:1,2:3\nconfused_y =\n")
        assert spec.confused_x == ((0, 1), (2, 3))
        assert spec.confused_y == ()

    def test_files_dataset_requires_paths(self):
        with pytest.raises(SpecError, match="x_train"):
            parse_spec("dataset = files\n")

    def test_files_spec_format_parse_roundtrip(self):
        # format_spec writes every key, the generator's at their defaults.
        spec = parse_spec(DATASET_SPECS["files"] + "normalize_y = minmax\ngrid_x = 3x5\n")
        again = parse_spec(format_spec(spec))
        assert again == spec
        assert spec_hash(again) == spec_hash(spec)

    @pytest.mark.parametrize("line", [
        f"{key} = {OFF_DEFAULT.get(key, 'data.rsm1')}"
        for keys in _DATASET_KEYS.values() for key in keys
    ])
    def test_synthetic_dataset_refuses_file_keys(self, line):
        # Each dataset refuses a key only the other reads: a synthetic spec
        # trained on generated data and exited 0, the files and normalizer
        # unread, and a files spec took noise = -0.5 and ignored it.
        key = line.split(" =")[0]
        for dataset, text in DATASET_SPECS.items():
            if key not in _DATASET_KEYS[dataset]:
                with pytest.raises(SpecError, match=f"^{dataset} dataset reads no {key}$"):
                    parse_spec(text + line + "\n")

    @pytest.mark.parametrize("fields, message", [
        ({"classes": 3}, "bad confused pair"),  # the default pairs name classes 4 and 5
        ({**TINY, "test_per_class": 0}, "test_per_class must be at least 1"),
        ({**TINY, "train_per_class": 0}, "train_per_class must be at least 1"),
        ({**TINY, "classes": 0}, "n_classes must be at least 1"),
        ({**TINY, "dim_y": 0}, "dim_y must be at least 1"),
        ({**TINY, "noise": -0.5}, "noise must be >= 0"),
    ], ids=["classes-3", "test-per-class-0", "train-per-class-0", "classes-0", "dim-y-0",
            "noise-negative"])
    def test_synthetic_fields_are_checked_in_code(self, fields, message):
        # Used to be found only when the data was generated, or never: an
        # empty test split gave NaN accuracies.
        with pytest.raises(SpecError, match=message):
            ExperimentSpec(**fields)

    def test_direct_labeling_needs_fraction(self):
        with pytest.raises(SpecError, match="label_fraction_y"):
            ExperimentSpec(label_mode_y="direct", label_fraction_y=0.0)

    def test_alpha_y_needs_direct_labeling_of_map_y(self):
        # Accepted and never read: without a y subset no command labels map y directly.
        unlabeled = dict(label_mode_y="diverge", label_fraction_y=0.0)
        with pytest.raises(SpecError, match="^alpha_y labels map y directly, which needs "
                                            "label_fraction_y > 0$"):
            ExperimentSpec(**unlabeled, alpha_y=5.0)
        assert ExperimentSpec(**unlabeled).alpha_y == 1.0
        assert ExperimentSpec(label_mode_y="diverge", alpha_y=5.0).alpha_y == 5.0

    def test_eta_moves_hebbian_results_under_keep(self):
        # Refused under keep too, where the connected neurons' support scales
        # with eta against a disconnected neuron's fixed 1.
        keep = dict(TINY, rule="hebb", disconnected="keep", neurons="all")
        (scaled,) = run_pipeline(ExperimentSpec(**keep, eta=0.01)).results
        (plain,) = run_pipeline(ExperimentSpec(**keep)).results
        assert scaled.convergence != plain.convergence

    def test_defaults_agree_with_the_configs_they_build(self):
        # Each default is written twice, in ExperimentSpec and in the config.
        spec = ExperimentSpec()
        assert spec.schedule() == resom.som.TrainSchedule()
        assert spec.synthetic_spec() == SyntheticSpec()
        assert spec.convergence_config() == inference.ConvergenceConfig()


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

    def test_blocks_of_seven_repeat_the_whole_matrix_draw(self, monkeypatch):
        # 60 and 18 rows in blocks of 7 end in a short block; the noise of
        # the blocks is the stream of one draw of every row.
        spec = SyntheticSpec(n_classes=3, dim_x=5, dim_y=4, train_per_class=20,
                             test_per_class=6, confused_x=((1, 2),), confused_y=((0, 1),))
        monkeypatch.setattr(synthetic, "SAMPLE_BLOCK", 7)
        got = make_paired_dataset(spec, seed=3)
        monkeypatch.setattr(synthetic, "_sample_modality", whole.sample_modality)
        want = make_paired_dataset(spec, seed=3)
        for g, w in zip(got, want):
            for m in ("x", "y"):
                assert same_bits(getattr(g, m).values, getattr(w, m).values)
                assert np.array_equal(getattr(g, m).labels, getattr(w, m).labels)

    def test_draws_one_sample_block_at_a_time(self):
        # One float64 draw of every row peaked at 4.0x the float32 points.
        spec = SyntheticSpec(n_classes=10, dim_x=784, dim_y=16, train_per_class=2_000,
                             test_per_class=1)
        tracemalloc.start()
        try:
            train, _ = make_paired_dataset(spec, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * train.x.values.nbytes


def files_spec(tmp_path, **overrides) -> ExperimentSpec:
    """A 3-class files dataset whose y test split has fewer rows per class
    than its x test split, so test pairs share y rows."""
    rng = np.random.default_rng(5)
    paths = {}
    for modality, test_per_class in (("x", 12), ("y", 5)):
        for split, per_class in (("train", 40), ("test", test_per_class)):
            labels = np.repeat(np.arange(3), per_class)
            values = rng.random((labels.size, 5)) + 0.3 * labels[:, None]
            paths[f"{modality}_{split}"] = str(tmp_path / f"{modality}_{split}.rsm1")
            save_rsm1(FeatureMatrix(values, labels), paths[f"{modality}_{split}"])
    return ExperimentSpec(**{
        "dataset": "files", **paths, "normalize_x": "minmax", "normalize_y": "minmax",
        "grid_x": (3, 3), "grid_y": (4, 4), "epochs": 3, "label_fraction_x": 0.2,
        "label_fraction_y": 0.2, "seeds": (0,), **overrides,
    })


class TestPipeline:
    def test_seed_rerun_is_bit_identical(self, tmp_path):
        spec = ExperimentSpec(**TINY)
        (a,) = run_pipeline(spec, StageCache(None), artifact_dir=str(tmp_path / "a")).results
        (b,) = run_pipeline(spec, StageCache(None), artifact_dir=str(tmp_path / "b")).results
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

    def test_warm_cache_trains_and_associates_nothing(self, tmp_path, monkeypatch):
        spec = ExperimentSpec(**{**TINY, "seeds": (0, 1)})
        cache = StageCache(str(tmp_path))
        first = run_pipeline(spec, cache)
        calls = []
        train_many, associate = resom.som.train_many, assoc.associate
        monkeypatch.setattr(resom.som, "train_many",
                            lambda soms, *args: calls.append(("train", len(soms)))
                            or train_many(soms, *args))
        monkeypatch.setattr(assoc, "associate",
                            lambda *args: calls.append(("associate",)) or associate(*args))
        assert run_pipeline(spec, cache).content_hash() == first.content_hash()
        assert calls == []

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
        (result,) = run_pipeline(spec).results
        assert result.uni_y_direct is None
        assert result.uni_y == result.uni_y_diverged

    @pytest.mark.parametrize("jobs", [0, -1, 2])
    def test_run_pipeline_takes_one_job(self, monkeypatch, jobs):
        def refuse(*args, **kwargs):
            raise AssertionError("trained with a refused jobs value")

        monkeypatch.setattr(resom.som, "train_many", refuse)
        with pytest.raises(SpecError, match=f"jobs must be 1, got {jobs}"):
            run_pipeline(ExperimentSpec(**TINY), StageCache(None), jobs=jobs)


def combined_rows(rows_per_seed: list[list[dict]]) -> list[dict]:
    """A multi-seed sweep's rows, from one one-seed sweep per seed."""
    out = []
    for rows in zip(*rows_per_seed):
        row = dict(rows[0])
        for col in row:
            if col.endswith("_std"):
                row[col] = float(np.std([r[col[: -len("_std")] + "_mean"] for r in rows]))
            elif col.endswith("_mean") or col == "synapses_xy_post":
                row[col] = float(np.mean([r[col] for r in rows]))
        out.append(row)
    return out


class TestRunPlan:
    """run_pipeline and both sweeps go through run_plan: the data is read
    once per run, and every seed's maps train in one train_many call."""

    @pytest.fixture
    def train_calls(self, monkeypatch):
        calls = []
        train_many = resom.som.train_many
        monkeypatch.setattr(resom.som, "train_many",
                            lambda *args: calls.append(len(args[0])) or train_many(*args))
        return calls

    def test_pipeline_trains_once_and_matches_one_seed_runs(self, train_calls):
        spec = ExperimentSpec(**{**TINY, "seeds": (0, 1, 2)})
        record = run_pipeline(spec, StageCache(None))
        assert train_calls == [6]
        singles = [run_pipeline(replace(spec, seeds=(s,)), StageCache(None)).results[0]
                   for s in spec.seeds]
        without_time = [replace(r, wall_time=0.0) for r in record.results]
        assert without_time == [replace(r, wall_time=0.0) for r in singles]
        assert RunRecord(spec_hash(spec), singles, 0.0).content_hash() == record.content_hash()

    def test_prune_sweep_trains_once_and_matches_one_seed_runs(self, train_calls):
        spec = ExperimentSpec(**{**TINY, "seeds": (0, 1, 2)})
        fractions = (0.1, 1.0)
        rows = prune_sweep(spec, fractions, StageCache(None))
        assert train_calls == [6]
        assert rows == combined_rows([
            prune_sweep(replace(spec, seeds=(s,)), fractions, StageCache(None))
            for s in spec.seeds
        ])

    @pytest.mark.parametrize("modality", ["x", "y"])
    def test_alpha_sweep_trains_once_and_matches_one_seed_runs(self, train_calls, modality):
        spec = ExperimentSpec(**{**TINY, "seeds": (0, 1, 2)})
        alphas = (0.5, 2.0)
        rows = alpha_sweep(spec, alphas, modality, StageCache(None))
        assert train_calls == [3]
        assert rows == combined_rows([
            alpha_sweep(replace(spec, seeds=(s,)), alphas, modality, StageCache(None))
            for s in spec.seeds
        ])

    @pytest.mark.parametrize("run", [
        lambda spec: run_pipeline(spec, StageCache(None)),
        lambda spec: prune_sweep(spec, (0.5,), StageCache(None)),
        lambda spec: alpha_sweep(spec, (1.0,), "y", StageCache(None)),
    ], ids=["pipeline", "prune-sweep", "alpha-sweep"])
    def test_files_are_read_once_per_run(self, tmp_path, monkeypatch, run):
        import resom.experiments as exp_mod

        paths = []
        load_features = exp_mod.load_features
        monkeypatch.setattr(exp_mod, "load_features",
                            lambda path, *args: paths.append(path) or load_features(path, *args))
        run(files_spec(tmp_path, seeds=(0, 1, 2)))
        assert sorted(paths) == sorted(str(tmp_path / f"{m}_{split}.rsm1")
                                       for m in "xy" for split in ("train", "test"))

    @pytest.mark.parametrize("directory, fingerprints", [(False, 0), (True, 2)],
                             ids=["no-cache", "cache"])
    def test_cache_keys_fingerprint_each_matrix_once(
        self, tmp_path, monkeypatch, directory, fingerprints
    ):
        # Every training matrix was hashed once per map key and again for the
        # association key, for every seed, with or without a cache directory.
        import resom.experiments as exp_mod

        calls = []
        fingerprint = exp_mod.matrix_fingerprint
        monkeypatch.setattr(exp_mod, "matrix_fingerprint",
                            lambda m: calls.append(m) or fingerprint(m))
        spec = files_spec(tmp_path, seeds=(0, 1, 2))
        cache = StageCache(str(tmp_path / "cache") if directory else None)
        record = run_pipeline(spec, cache)
        assert len(calls) == fingerprints  # map x's and map y's training rows
        assert len({id(m) for m in calls}) == fingerprints
        if directory:
            monkeypatch.undo()
            assert run_pipeline(spec, cache).content_hash() == record.content_hash()
            assert record.content_hash() == run_pipeline(spec, StageCache(None)).content_hash()


class TestStageCache:
    @pytest.mark.parametrize("directory", [True, False], ids=["directory", "no-directory"])
    def test_stages_computes_the_misses_once(self, tmp_path, directory):
        cache = StageCache(str(tmp_path) if directory else None)
        cache.put("b", b"STORED")
        calls = []

        def compute(missing):
            calls.append(missing)
            return [b"fresh %d" % i for i in missing]

        def stages():  # each stage's file; ``save`` encodes a value by upper()
            save = lambda value, f: f.write(value.upper())
            return [f.read() for f in cache.stages(["a", "b", "c"], compute, save)]

        want = [b"FRESH 0", b"STORED" if directory else b"FRESH 1", b"FRESH 2"]
        assert stages() == want
        assert stages() == want
        # A warm cache computes nothing; without a directory every key misses.
        assert calls == ([[0, 2]] if directory else [[0, 1, 2]] * 2)

    def test_truncated_blobs_are_recomputed(self, tmp_path):
        spec = ExperimentSpec(**TINY)
        spec_path = tmp_path / "spec.txt"
        spec_path.write_text(format_spec(spec))
        cache_dir = tmp_path / "cache"
        first = run_pipeline(spec, StageCache(str(cache_dir)))
        blobs = sorted(cache_dir.glob("*.bin"))
        assert len(blobs) == 3  # map x, map y, synapses
        for blob in blobs:
            blob.write_bytes(blob.read_bytes()[: blob.stat().st_size // 2])
        assert main(["pipeline", "--spec", str(spec_path), "--out", str(tmp_path / "r.csv"),
                     "--cache", str(cache_dir)]) == 0
        cache = StageCache(str(cache_dir))
        assert all(cache.get(blob.stem) is not None for blob in blobs)  # rewritten
        assert run_pipeline(spec, cache).content_hash() == first.content_hash()

    def test_cache_keys_are_pinned(self, tmp_path):
        # A changed key reads every blob an earlier run wrote as a miss and
        # recomputes it, which a run that agrees with itself cannot show.
        # The synapse key hashes trained weights, so it also moves with them.
        run_pipeline(ExperimentSpec(**TINY), StageCache(str(tmp_path)))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "0b140e127b7edfe832945fbd76210c828a79325a20e235ed1e9e9f596f3aefba.bin",
            "4268baa7fa7314f71f034eabd0cdfd9ba406b845ff034c361bf2b46555347caa.bin",
            "c4cea1b784e841148837099dcaece2969145eaf0501a06cb73e9e4a0be2a42b6.bin",
        ]

    @pytest.mark.parametrize("damage", ["empty", "short", "flipped", "unchecked"])
    def test_damaged_blob_is_a_miss(self, tmp_path, damage):
        cache = StageCache(str(tmp_path))
        cache.put("k", b"payload")
        path = tmp_path / "k.bin"
        stored = path.read_bytes()
        path.write_bytes({
            "empty": b"",
            "short": stored[:20],
            "flipped": stored[:-1] + bytes([stored[-1] ^ 1]),
            "unchecked": b"payload",
        }[damage])
        assert cache.get("k") is None

    def test_concurrent_puts_leave_one_valid_blob(self, tmp_path):
        cache = StageCache(str(tmp_path))
        blobs = [bytes([i]) * (1 << 20) for i in range(4)]  # more writers than cores
        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                start = threading.Barrier(len(blobs))

                def put(blob):
                    start.wait()
                    try:
                        cache.put("k", blob)
                    except Exception as e:  # asserted on below, in the test's thread
                        errors.append(e)

                threads = [threading.Thread(target=put, args=(b,)) for b in blobs]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                assert not errors
                assert cache.get("k") in blobs
                assert [p.name for p in tmp_path.iterdir()] == ["k.bin"]
        finally:
            sys.setswitchinterval(interval)


class TestSharedDistances:
    """evaluate_seed and the sweeps reuse each built seed's test distances."""

    @pytest.mark.parametrize("mode", ["direct", "diverge"])
    def test_evaluate_seed_matches_evaluators_from_scratch(self, tmp_path, mode):
        spec = files_spec(tmp_path, label_mode_y=mode)
        (stages,) = seed_stages(spec, cache=StageCache(None))
        test, n_classes = stages.test_pairs, stages.n_classes
        assert np.unique(test.pairing).size < test.n_samples  # pairs reuse y rows
        assert unimodal_accuracies(stages) == (
            inference.evaluate_unimodal(stages.som_x, test.x, n_classes).accuracy,
            inference.evaluate_unimodal(stages.som_y, test.y, n_classes).accuracy,
        )
        configs = [replace(cfg, kernel_width_x=width, kernel_width_y=width)
                   for cfg in inference.ALL_VARIANTS for width in (1.0, 10.0)]
        keep = 0.3
        ev = evaluate_seed(spec, stages, keep, configs, diverge=True)
        syn_xy = assoc.prune(stages.syn_xy, keep)
        syn_yx = assoc.prune(stages.syn_yx, keep)
        diverged = inference.diverge_label(
            stages.som_x, stages.som_y, syn_xy, stages.subset_x, spec.diverge_beta, n_classes
        )
        assert ev.uni_y_diverged == inference.evaluate_unimodal(diverged, test.y, n_classes).accuracy
        som_y = diverged if mode == "diverge" else stages.som_y
        assert np.array_equal(ev.som_y.labels, som_y.labels)
        dist_x = resom.som.distances(stages.som_x, test.x.values)
        dist_y = resom.som.distances(som_y, test.y.values)
        for cfg, got in zip(configs, ev.convergence, strict=True):
            want = inference.score_convergence(
                stages.som_x, som_y, syn_xy, syn_yx, test, dist_x, dist_y, cfg, n_classes
            )
            assert (got.accuracy, got.n_no_decision) == (want.accuracy, want.n_no_decision)
            assert np.array_equal(got.confusion, want.confusion)

    def test_prune_sweep_measures_test_distances_once_per_map_and_seed(self, monkeypatch):
        spec = ExperimentSpec(**{**TINY, "grid_y": (5, 5), "seeds": (0, 1)})
        n_test = TINY["classes"] * TINY["test_per_class"]  # no other row block is this long
        calls = []
        cdist = resom.som.cdist

        def counting_cdist(values, weights, **kwargs):
            calls.append((values.shape[0], weights.shape[0]))
            return cdist(values, weights, **kwargs)

        monkeypatch.setattr(resom.som, "cdist", counting_cdist)
        prune_sweep(spec, (0.05, 0.1, 0.25, 1.0), StageCache(None))
        neurons = sorted(k for rows, k in calls if rows == n_test)
        assert neurons == [16, 16, 25, 25]  # x and y, two seeds

    @pytest.mark.parametrize("modality", ["x", "y"])
    def test_alpha_sweep_measures_test_rows_one_block_at_a_time(self, monkeypatch, modality):
        # Took one (n_test, k) distance matrix per seed: the BMUs come from
        # bmu_stream now.  The block holds a label subset (24 rows), not the
        # 100 test rows.
        spec = ExperimentSpec(**{**TINY, "seeds": (0, 1)})
        rows = alpha_sweep(spec, (0.5, 1.0), modality, StageCache(None))
        calls = []
        distances = resom.som.distances
        monkeypatch.setattr(resom.som, "SAMPLE_BLOCK", 32)
        monkeypatch.setattr(resom.som, "distances",
                            lambda grid, values: calls.append(len(values))
                            or distances(grid, values))
        assert alpha_sweep(spec, (0.5, 1.0), modality, StageCache(None)) == rows
        assert calls and max(calls) <= 32

    @pytest.mark.parametrize("modality", ["x", "y"])
    def test_alpha_sweep_matches_evaluate_unimodal_per_alpha(self, modality):
        spec = ExperimentSpec(**{**TINY, "seeds": (0, 1)})
        alphas = (0.1, 1.0, 20.0)
        rows = alpha_sweep(spec, alphas, modality, StageCache(None))
        fraction, offset = (
            (spec.label_fraction_x, SEED_SUBSET_X) if modality == "x"
            else (spec.label_fraction_y, SEED_SUBSET_Y)
        )
        per_seed = []
        pairs = load_dataset(spec)
        for seed, stages in zip(spec.seeds, seed_stages(spec, cache=StageCache(None))):
            train_pairs, _ = pairs(seed)
            subset = labeling.select_label_subset(
                getattr(train_pairs, modality), fraction, seed * 1000 + offset
            )
            grid = stages.som_x if modality == "x" else stages.som_y
            per_seed.append((grid, subset, getattr(stages.test_pairs, modality), stages.n_classes))
        for alpha, row in zip(alphas, rows, strict=True):
            accs = [
                inference.evaluate_unimodal(
                    labeling.label_som(grid, subset, alpha), test, n_classes
                ).accuracy
                for grid, subset, test, n_classes in per_seed
            ]
            assert row == {"alpha": alpha, "accuracy_mean": float(np.mean(accs)),
                           "accuracy_std": float(np.std(accs))}


class TestSweeps:
    def test_prune_sweep_keep_one_matches_unpruned_pipeline(self):
        spec = ExperimentSpec(**TINY)
        rows = prune_sweep(spec, fractions=(1.0,))
        record = run_pipeline(ExperimentSpec(**{**TINY, "keep_fraction": 1.0}))
        assert rows[0]["convergence_mean"] == pytest.approx(record.mean, abs=1e-12)

    @pytest.mark.parametrize("mode", ["direct", "diverge"])
    def test_prune_sweep_rows_match_pipeline_per_keep(self, mode):
        # Both label map y as label_mode_y says, also with a y subset drawn.
        spec = ExperimentSpec(**{**TINY, "seeds": (0, 1, 2), "label_mode_y": mode})
        fractions = (0.1, 0.25, 1.0)
        rows = prune_sweep(spec, fractions, StageCache(None))
        for row, keep in zip(rows, fractions):
            record = run_pipeline(replace(spec, keep_fraction=keep), StageCache(None))
            assert row["convergence_mean"] == pytest.approx(record.mean, abs=1e-12)

    def test_prune_sweep_holds_one_seed_at_a_time(self, monkeypatch):
        import resom.experiments as exp_mod

        spec = ExperimentSpec(**{**TINY, "seeds": (0, 1, 2)})
        fractions = (0.1, 1.0)
        build, evaluate = exp_mod.build_stages, exp_mod.evaluate_seed
        calls, built, rows = [], [], []

        def recording_build(spec, data, maps, keys):
            assert all(ref() is None for ref in built)  # earlier seeds are freed
            stages = build(spec, data, maps, keys)
            built.append(weakref.ref(stages))
            rows.append(weakref.ref(data.train))
            calls.append(("build", data.seed))
            return stages

        def recording_evaluate(spec, stages, keep, configs, diverge=False):
            assert all(ref() is None for ref in rows)  # training rows die once built
            calls.append(("evaluate", keep))
            return evaluate(spec, stages, keep, configs, diverge)

        monkeypatch.setattr(exp_mod, "build_stages", recording_build)
        monkeypatch.setattr(exp_mod, "evaluate_seed", recording_evaluate)
        swept = prune_sweep(spec, fractions, StageCache(None))
        assert calls == [
            call for seed in spec.seeds
            for call in [("build", seed)] + [("evaluate", f) for f in fractions]
        ]
        monkeypatch.undo()
        per_seed = seed_stages(spec, cache=StageCache(None))
        assert prune_sweep(spec, fractions, per_seed=per_seed) == swept

    @pytest.mark.parametrize("sweep, values", [
        (prune_sweep, (0.25, 0.0)), (prune_sweep, (float("nan"),)),
        (alpha_sweep, (1.0, 0.0)), (alpha_sweep, (float("inf"),)),
    ])
    def test_sweep_values_are_refused_before_training(self, monkeypatch, sweep, values):
        import resom.experiments as exp_mod

        def refuse(*args, **kwargs):
            raise AssertionError("trained before checking the sweep values")

        monkeypatch.setattr(exp_mod.som_mod, "train_many", refuse)
        with pytest.raises(SpecError, match="must be positive and finite"):
            sweep(ExperimentSpec(**TINY), values, cache=StageCache(None))

    @pytest.mark.parametrize("sweep, fields", [
        (lambda spec: seed_stages(spec, cache=StageCache(None)), {"label_fraction_x": 0.0001}),
        (lambda spec: alpha_sweep(spec, (1.0,), "y", StageCache(None)),
         {"label_mode_y": "diverge", "label_fraction_y": 0.0}),
    ], ids=["build-stages", "alpha-sweep-y"])
    def test_label_subsets_are_drawn_before_training(self, monkeypatch, sweep, fields):
        import resom.experiments as exp_mod

        calls = []
        train_many = exp_mod.som_mod.train_many
        monkeypatch.setattr(exp_mod.som_mod, "train_many",
                            lambda *args: calls.append(args) or train_many(*args))
        with pytest.raises(ValueError, match="selects no samples"):
            sweep(ExperimentSpec(**{**TINY, **fields}))
        assert calls == []

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
        train, test = load_dataset(spec)(0)
        assert train.n_samples == 60 and test.n_samples == 60
        assert np.array_equal(train.x.labels, train.y.labels[train.pairing])

    def test_class_only_in_test_split(self, tmp_path):
        rng = np.random.default_rng(1)
        splits = {"train": np.repeat(np.arange(3), 20), "test": np.repeat(np.arange(4), 5)}
        paths = {}
        for modality in ("x", "y"):
            for split, labels in splits.items():
                m = FeatureMatrix(rng.random((labels.size, 4)).astype(np.float32), labels)
                paths[f"{modality}_{split}"] = str(tmp_path / f"{modality}_{split}.rsm1")
                save_rsm1(m, paths[f"{modality}_{split}"])
        spec = ExperimentSpec(
            dataset="files", **paths, grid_x=(3, 3), grid_y=(3, 3), epochs=2,
            label_fraction_x=0.2, label_fraction_y=0.2, seeds=(0,),
        )
        record = run_pipeline(spec, StageCache(None))
        assert 0.0 <= record.mean <= 0.75  # class 3 can never be predicted
        for modality in ("x", "y"):
            assert len(alpha_sweep(spec, (1.0,), modality, StageCache(None))) == 1

    def test_missing_file_is_a_data_error(self, tmp_path, monkeypatch):
        # Exited 2 as "config error: missing data file", unlike every other data error.
        spec = tmp_path / "spec.txt"
        keys = ("x_train", "x_test", "y_train", "y_test")
        spec.write_text("dataset = files\n" + "".join(f"{k} = {tmp_path}/nope.rsm1\n" for k in keys))
        with pytest.raises(FileNotFoundError, match="nope.rsm1"):
            load_dataset(load_spec(spec))
        def refuse(*args, **kwargs):
            raise AssertionError("trained on a spec naming a missing file")

        monkeypatch.setattr(resom.som, "train_many", refuse)
        assert main(["pipeline", "--spec", str(spec), "--out", str(tmp_path / "r.csv")]) == 3
        assert not (tmp_path / "r.csv").exists()


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
