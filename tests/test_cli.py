import argparse
import io
import struct

import numpy as np
import pytest

import resom.som
from resom.association import LateralSynapses, load_synapses, save_synapses
from resom.cli import build_parser, main
from resom.data import FeatureMatrix, load_features, pair_by_class, save_rsm1
from resom.experiments import read_record_csv, write_metrics
from resom.inference import (
    ConvergenceConfig,
    evaluate_unimodal,
    gain_matrix,
    score_convergence,
)
from resom.som import distances, load_som, make_som, save_som
from resom.synthetic import SyntheticSpec, make_paired_dataset
from test_spec_keys import spec_text

TINY_SPEC = """
dataset = synthetic
classes = 4
dim_x = 6
dim_y = 6
train_per_class = 50
test_per_class = 20
confused_x = 2:3
confused_y = 0:1
grid_x = 4x4
grid_y = 4x4
epochs = 3
seeds = 0
"""


def tiny_spec_with(lines: str) -> str:
    """TINY_SPEC with ``lines`` in place of its own lines of the same keys,
    since a spec sets each key once."""
    keys = {line.split("=")[0].strip() for line in lines.splitlines()}
    kept = [line for line in TINY_SPEC.splitlines() if line.split("=")[0].strip() not in keys]
    return "\n".join(kept + [lines, ""])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """RSM1 feature files for a small paired synthetic dataset."""
    root = tmp_path_factory.mktemp("cli")
    spec = SyntheticSpec(
        n_classes=4, dim_x=6, dim_y=6, train_per_class=50, test_per_class=20,
        confused_x=((2, 3),), confused_y=((0, 1),),
    )
    train, test = make_paired_dataset(spec, seed=0)
    save_rsm1(train.x, root / "x_train.rsm1")
    save_rsm1(FeatureMatrix(train.y_values, train.x.labels), root / "y_train.rsm1")
    save_rsm1(test.x, root / "x_test.rsm1")
    save_rsm1(FeatureMatrix(test.y_values, test.x.labels), root / "y_test.rsm1")
    return root


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def chain(workspace):
    """The workspace after train (x and y), label, associate and diverge-label."""
    w = workspace
    assert run(
        "train", "--modality", w / "x_train.rsm1", "--grid", "4x4",
        "--epochs", 3, "--seed", 0, "--out", w / "som_x.rsom",
    ) == 0
    assert run(
        "train", "--modality", w / "y_train.rsm1", "--grid", "4x4",
        "--epochs", 3, "--seed", 1, "--out", w / "som_y.rsom",
    ) == 0
    assert run(
        "label", "--som", w / "som_x.rsom", "--data", w / "x_train.rsm1",
        "--subset-frac", 0.2, "--alpha", 1.0, "--seed", 2,
        "--out", w / "som_x_labeled.rsom",
    ) == 0
    assert load_som(w / "som_x_labeled.rsom").labels is not None
    assert run(
        "associate", "--som-x", w / "som_x_labeled.rsom", "--som-y", w / "som_y.rsom",
        "--pairs-x", w / "x_train.rsm1", "--pairs-y", w / "y_train.rsm1",
        "--rule", "hebb", "--keep", 0.5,
        "--out-xy", w / "xy.rlat", "--out-yx", w / "yx.rlat",
    ) == 0
    assert run(
        "diverge-label", "--som-x", w / "som_x_labeled.rsom",
        "--som-y", w / "som_y.rsom", "--syn-xy", w / "xy.rlat",
        "--data-x", w / "x_train.rsm1", "--subset-frac", 0.2, "--seed", 2,
        "--beta", 0.5, "--out", w / "som_y_labeled.rsom",
    ) == 0
    return w


class TestWorkflow:
    def test_train_label_associate_diverge_converge(self, chain):
        w = chain
        assert run(
            "converge", "--som-x", w / "som_x_labeled.rsom",
            "--som-y", w / "som_y_labeled.rsom",
            "--syn-xy", w / "xy.rlat", "--syn-yx", w / "yx.rlat",
            "--test-x", w / "x_test.rsm1", "--test-y", w / "y_test.rsm1",
            "--update", "max", "--activities", "norm", "--neurons", "bmu",
            "--beta-x", 1.0, "--beta-y", 1.0,
            "--metrics", w / "metrics.txt", "--confusion-csv", w / "confusion.csv",
            "--gain-csv", w / "gain.csv",
        ) == 0
        metrics = dict(
            line.split("=", 1) for line in (w / "metrics.txt").read_text().splitlines()
        )
        assert 0.0 <= float(metrics["accuracy"]) <= 1.0
        confusion = np.loadtxt(w / "confusion.csv", delimiter=",")
        assert confusion.shape == (4, 4)

    def test_swapped_synapse_files_are_a_data_error(self, chain, tmp_path, capsys):
        w = chain
        test = ["--test-x", w / "x_test.rsm1", "--test-y", w / "y_test.rsm1"]
        maps = ["--som-x", w / "som_x_labeled.rsom", "--som-y", w / "som_y_labeled.rsom"]
        for syn_xy, syn_yx, tags in (("yx", "xy", "'YX', expected 'XY'"),
                                     ("xy", "xy", "'XY', expected 'YX'")):
            assert run("converge", *maps, "--syn-xy", w / f"{syn_xy}.rlat",
                       "--syn-yx", w / f"{syn_yx}.rlat", *test,
                       "--metrics", tmp_path / "m.txt") == 3
            assert tags in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()
        assert run(
            "diverge-label", "--som-x", w / "som_x_labeled.rsom", "--som-y", w / "som_y.rsom",
            "--syn-xy", w / "yx.rlat", "--data-x", w / "x_train.rsm1",
            "--out", tmp_path / "out.rsom",
        ) == 3
        assert "'YX', expected 'XY'" in capsys.readouterr().err
        assert not (tmp_path / "out.rsom").exists()

    def test_associate_eta_scales_hebbian_synapses(self, chain, tmp_path):
        # eta scales every Hebbian synapse this command writes, up to rounding.
        w = chain
        assert run(
            "associate", "--som-x", w / "som_x_labeled.rsom", "--som-y", w / "som_y.rsom",
            "--pairs-x", w / "x_train.rsm1", "--pairs-y", w / "y_train.rsm1",
            "--rule", "hebb", "--eta", 2, "--keep", 0.5,
            "--out-xy", tmp_path / "xy.rlat", "--out-yx", tmp_path / "yx.rlat",
        ) == 0
        for name in ("xy", "yx"):
            (one, _), (two, _) = (load_synapses(d / f"{name}.rlat") for d in (w, tmp_path))
            assert np.array_equal(two.exists, one.exists)
            assert np.allclose(two.weights, 2 * one.weights, rtol=1e-6, atol=0)
            assert two.weights.max() > one.weights.max() > 0

    def test_ig_verify_and_trace(self, tmp_path):
        trace = tmp_path / "trace.csv"
        assert run("ig-verify", "--grid", "6x4", "--trials", 50, "--trace", trace) == 0
        header = trace.read_text().splitlines()[0]
        assert header.startswith("step,row,col,best_value")

    def test_pipeline_prune_sweep_report(self, tmp_path):
        spec_path = tmp_path / "spec.txt"
        spec_path.write_text(TINY_SPEC)
        out = tmp_path / "record.csv"
        assert run("pipeline", "--spec", spec_path, "--out", out,
                   "--cache", tmp_path / "cache") == 0
        assert out.exists()
        assert run("report", "--records", out) == 0
        sweep_out = tmp_path / "sweep.csv"
        assert run("prune-sweep", "--spec", spec_path, "--fractions", "0.25,1.0",
                   "--out", sweep_out) == 0
        assert len(sweep_out.read_text().splitlines()) == 3

    def test_alpha_sweep(self, tmp_path):
        spec_path = tmp_path / "spec.txt"
        spec_path.write_text(TINY_SPEC)
        out = tmp_path / "alphas.csv"
        assert run("alpha-sweep", "--spec", spec_path, "--alphas", "0.5,1.0",
                   "--out", out) == 0
        assert len(out.read_text().splitlines()) == 3


class TestExitCodes:
    def test_config_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("no_such_key = 1\n")
        assert run("pipeline", "--spec", bad, "--out", tmp_path / "r.csv") == 2

    def test_data_error_missing_file(self, tmp_path):
        assert run(
            "train", "--modality", tmp_path / "missing.rsm1", "--grid", "2x2",
            "--out", tmp_path / "s.rsom",
        ) == 3

    def test_data_error_bad_magic(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"JUNKJUNKJUNK")
        assert run(
            "train", "--modality", bad, "--grid", "2x2", "--out", tmp_path / "s.rsom"
        ) == 3

    @pytest.mark.parametrize("trials", [0, -3])
    def test_ig_verify_needs_a_trial(self, tmp_path, trials):
        trace = tmp_path / "trace.csv"
        assert run("ig-verify", "--grid", "3x3", "--trials", trials, "--trace", trace) == 2
        assert not trace.exists()

    def test_verification_failure(self, monkeypatch, tmp_path):
        import resom.cli as cli

        real = cli.ig.winner_wave

        def lying_wave(acts):
            res = real(acts)
            res.best_origins = np.full_like(res.best_origins, -1)
            return res

        monkeypatch.setattr(cli.ig, "winner_wave", lying_wave)
        trace = tmp_path / "trace.csv"
        assert run("ig-verify", "--grid", "3x3", "--trials", 2, "--trace", trace) == 4
        assert trace.exists()  # the trace of the failing run is kept


def labeled_map(path, width=2, height=2, dim=6, seed=0):
    grid = make_som(width, height, dim, seed)
    grid.labels = np.arange(width * height) % 2
    save_som(grid, path)
    return path


class TestConverge:
    def test_map_y_label_beyond_test_classes(self, tmp_path):
        # Three test classes; map y names class 5, which needs a confusion row.
        rng = np.random.default_rng(0)
        labels = np.repeat(np.arange(3), 4)
        for name in ("x", "y"):
            save_rsm1(FeatureMatrix(rng.random((12, 6)), labels), tmp_path / f"{name}.rsm1")
        labeled_map(tmp_path / "x.rsom")
        som_y = make_som(2, 2, 6, seed=1)
        som_y.labels = np.full(4, 5)
        save_som(som_y, tmp_path / "y.rsom")
        for name in ("xy", "yx"):
            save_synapses(LateralSynapses.empty(4, 4), tmp_path / f"{name}.rlat", name.upper())
        confusion = tmp_path / "confusion.csv"
        assert run(
            "converge", "--som-x", tmp_path / "x.rsom", "--som-y", tmp_path / "y.rsom",
            "--syn-xy", tmp_path / "xy.rlat", "--syn-yx", tmp_path / "yx.rlat",
            "--test-x", tmp_path / "x.rsm1", "--test-y", tmp_path / "y.rsm1",
            "--disconnected", "keep", "--metrics", tmp_path / "m.txt",
            "--confusion-csv", confusion,
        ) == 0
        counts = np.loadtxt(confusion, delimiter=",")
        assert counts.shape == (6, 6) and counts.sum() == 12

    def test_stray_test_label_is_refused_before_any_distance(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("measured distances for a stray label's confusion")

        monkeypatch.setattr(resom.som, "distances", refuse)
        for name in ("xy", "yx"):
            save_synapses(LateralSynapses.empty(4, 4), tmp_path / f"{name}.rlat", name.upper())
        assert run(
            "converge", "--som-x", labeled_map(tmp_path / "x.rsom"),
            "--som-y", labeled_map(tmp_path / "y.rsom", seed=1),
            "--syn-xy", tmp_path / "xy.rlat", "--syn-yx", tmp_path / "yx.rlat",
            "--test-x", workspace / "x_test.rsm1",
            "--test-y", save_stray_label(workspace / "y_test.rsm1", tmp_path / "y.rsm1"),
            "--metrics", tmp_path / "m.txt",
        ) == 3
        assert "data error: labels name class 40000: 40001 classes" in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()

    def test_measures_each_maps_test_distances_once(self, chain, tmp_path, monkeypatch):
        calls = []
        cdist = resom.som.cdist

        def counting_cdist(values, weights):
            calls.append((values.shape[0], weights.shape[0]))
            return cdist(values, weights)

        monkeypatch.setattr(resom.som, "cdist", counting_cdist)
        assert run("converge", *converge_inputs(chain), "--metrics", tmp_path / "m.txt") == 0
        # The 80 test rows of x and of y, each against its 16-neuron map, once.
        assert calls == [(80, 16), (80, 16)]

    @pytest.mark.parametrize("update, activities, neurons", [
        ("max", "norm", "bmu"), ("sum", "raw", "all"),
    ])
    def test_outputs_match_the_evaluators_from_scratch(
        self, chain, tmp_path, update, activities, neurons
    ):
        w = chain
        out = {name: tmp_path / name for name in ("metrics.txt", "confusion.csv", "gain.csv")}
        assert run(
            "converge", *converge_inputs(w), "--update", update, "--activities", activities,
            "--neurons", neurons, "--beta-x", 2.0, "--beta-y", 0.5,
            "--metrics", out["metrics.txt"], "--confusion-csv", out["confusion.csv"],
            "--gain-csv", out["gain.csv"],
        ) == 0
        som_x, som_y = load_som(w / "som_x_labeled.rsom"), load_som(w / "som_y_labeled.rsom")
        (syn_xy, _), (syn_yx, _) = load_synapses(w / "xy.rlat"), load_synapses(w / "yx.rlat")
        pairs = pair_by_class(
            load_features(w / "x_test.rsm1"), load_features(w / "y_test.rsm1"), 0
        )
        cfg = ConvergenceConfig(update, activities, neurons, 2.0, 0.5)
        n_classes = 4  # every test split names all four classes
        dist_x, dist_y = distances(som_x, pairs.x.values), distances(som_y, pairs.y.values)
        conv = score_convergence(som_x, som_y, syn_xy, syn_yx, pairs, dist_x, dist_y, cfg,
                                 n_classes)
        uni_x = evaluate_unimodal(som_x, pairs.x, n_classes)
        uni_y = evaluate_unimodal(som_y, pairs.y, n_classes)
        best = uni_x if uni_x.accuracy >= uni_y.accuracy else uni_y
        want = io.StringIO()
        write_metrics({
            "variant": cfg.name(), "accuracy": conv.accuracy, "unimodal_x": uni_x.accuracy,
            "unimodal_y": uni_y.accuracy, "gain_over_best_unimodal": conv.accuracy - best.accuracy,
            "no_decision": conv.n_no_decision, "samples": pairs.n_samples,
        }, want)
        assert out["metrics.txt"].read_text() == want.getvalue()
        confusion = np.loadtxt(out["confusion.csv"], delimiter=",", dtype=np.int64)
        assert np.array_equal(confusion, conv.confusion)
        np.testing.assert_allclose(
            np.loadtxt(out["gain.csv"], delimiter=","),
            gain_matrix(conv.confusion, best.confusion), rtol=0, atol=5e-7,
        )


def converge_inputs(w) -> list:
    """``resom converge``'s maps, synapses and test files from the chain."""
    return [
        "--som-x", w / "som_x_labeled.rsom", "--som-y", w / "som_y_labeled.rsom",
        "--syn-xy", w / "xy.rlat", "--syn-yx", w / "yx.rlat",
        "--test-x", w / "x_test.rsm1", "--test-y", w / "y_test.rsm1",
    ]


class TestBinaryInputExitCodes:
    @pytest.mark.parametrize("blob", [
        b"RSOM\x02\x00\x00\x00",
        b"RSOM" + struct.pack("<IIIB", 2, 2, 6, 0) + bytes(40),
        b"JUNK" + struct.pack("<IIIB", 2, 2, 6, 0) + bytes(96),
        b"RSOM" + struct.pack("<IIIB", 0xFFFFFFFF, 0xFFFFFFFF, 0, 0),
    ], ids=["truncated-header", "short-payload", "bad-magic", "no-weights"])
    def test_bad_checkpoint_is_data_error(self, workspace, tmp_path, blob):
        bad = tmp_path / "bad.rsom"
        bad.write_bytes(blob)
        assert run(
            "label", "--som", bad, "--data", workspace / "x_train.rsm1",
            "--out", tmp_path / "out.rsom",
        ) == 3

    @pytest.mark.parametrize("blob", [
        b"RLATXY\x04\x00\x00",
        b"RLATXY" + struct.pack("<III", 4, 4, 2) + bytes(12),
        b"JUNKXY" + struct.pack("<III", 4, 4, 0),
        b"RLAT\xff\xff" + struct.pack("<III", 4, 4, 0),
        b"RLATXY" + struct.pack("<III", 4, 4, 1) + struct.pack("<HHf", 9, 0, 1.0),
    ], ids=["truncated-header", "short-payload", "bad-magic", "bad-tag", "index-range"])
    def test_bad_synapse_file_is_data_error(self, workspace, tmp_path, blob):
        bad = tmp_path / "bad.rlat"
        bad.write_bytes(blob)
        assert run(
            "diverge-label", "--som-x", labeled_map(tmp_path / "x.rsom"),
            "--som-y", labeled_map(tmp_path / "y.rsom", seed=1), "--syn-xy", bad,
            "--data-x", workspace / "x_train.rsm1", "--out", tmp_path / "out.rsom",
        ) == 3

    def test_map_beyond_u16_synapse_indices_is_refused(self, tmp_path):
        rng = np.random.default_rng(0)
        for name in ("x", "y"):
            m = FeatureMatrix(rng.random((4, 1)), np.array([0, 0, 1, 1]))
            save_rsm1(m, tmp_path / f"{name}.rsm1")
        save_som(make_som(257, 256, 1, seed=0), tmp_path / "big.rsom")  # 65 792 neurons
        save_som(make_som(2, 2, 1, seed=1), tmp_path / "small.rsom")
        assert run(
            "associate", "--som-x", tmp_path / "big.rsom", "--som-y", tmp_path / "small.rsom",
            "--pairs-x", tmp_path / "x.rsm1", "--pairs-y", tmp_path / "y.rsm1",
            "--out-xy", tmp_path / "xy.rlat", "--out-yx", tmp_path / "yx.rlat",
        ) == 2
        assert not (tmp_path / "xy.rlat").exists()


# Each invalid value as a spec line, with the stepwise command and flag that
# set the same field.
INVALID_VALUES = {
    "update-bogus": ("update = bogus", "converge", "--update", "bogus"),
    "neurons-bogus": ("neurons = bogus", "converge", "--neurons", "bogus"),
    "activities-bogus": ("activities = bogus", "converge", "--activities", "bogus"),
    "disconnected-bogus": ("disconnected = bogus", "converge", "--disconnected", "bogus"),
    "beta-x-0": ("beta_x = 0", "converge", "--beta-x", "0"),
    "alpha-x-0": ("alpha_x = 0", "label", "--alpha", "0"),
    "diverge-beta-0": ("diverge_beta = 0", "diverge-label", "--beta", "0"),
    "keep-0": ("keep_fraction = 0", "associate", "--keep", "0"),
    # ran with exit 0, every test pair a no-decision; eta = -1 overflowed RLAT's float32
    "eta-0": ("eta = 0", "associate", "--eta", "0"),
    "label-fraction-2": ("label_fraction_x = 2", "label", "--subset-frac", "2"),
    "grid-metric-bogus": ("grid_metric = bogus", "train", "--grid-metric", "bogus"),
    "assoc-epochs-0": ("assoc_epochs = 0", "associate", "--assoc-epochs", "0"),
    "grid-0x3": ("grid_x = 0x3", "train", "--grid", "0x3"),
    # more neurons than RLAT indexes: a 32.3 GiB grid table, an _ArrayMemoryError
    # traceback once the run was set up
    "grid-257x256": ("grid_x = 257x256", "train", "--grid", "257x256"),
    # the smallest grid whose two (k, k) float64 training tables exceed
    # 512 MiB; 256x256 (2 x 32 GiB) ended in a MemoryError traceback, exit 1
    "grid-5793x1": ("grid_x = 5793x1", "train", "--grid", "5793x1"),
    # an update that overshoots its input, with no bound on the weights
    "lr-start-2": ("lr_start = 2", "train", "--lr-start", "2"),
}

# Every file a stepwise command reads is missing: reading one exits 3.
STEPWISE_FILES = {
    "train": ["--modality", "missing", "--grid", "2x2", "--out", "out"],
    "label": ["--som", "missing", "--data", "missing", "--out", "out"],
    "associate": ["--som-x", "missing", "--som-y", "missing", "--pairs-x", "missing",
                  "--pairs-y", "missing", "--out-xy", "out", "--out-yx", "out"],
    "diverge-label": ["--som-x", "missing", "--som-y", "missing", "--syn-xy", "missing",
                      "--data-x", "missing", "--out", "out"],
    "converge": ["--som-x", "missing", "--som-y", "missing", "--syn-xy", "missing",
                 "--syn-yx", "missing", "--test-x", "missing", "--test-y", "missing"],
}


@pytest.fixture
def no_training(monkeypatch):
    import resom.experiments as exp

    def refuse(*args, **kwargs):
        raise AssertionError("trained on an invalid spec")

    monkeypatch.setattr(exp.som_mod, "train_many", refuse)


class TestNonFiniteInputs:
    """Invalid run parameters (non-finite, out of range or unknown) exit 2
    before any file is read or any map is trained."""

    @pytest.mark.parametrize("line", [
        # printed accuracy 0.00 and exit 0
        pytest.param("beta_x = nan\nbeta_y = nan", id="beta-nan"),
        # labeled every neuron 0 and exit 0
        pytest.param("alpha_x = nan", id="alpha-nan"),
        # OverflowError traceback from the prune quota
        pytest.param("keep_fraction = inf", id="keep-inf"),
        # reported "over 2 seeds" with std 0.00 from one seed run twice, exit 0
        pytest.param("seeds = 0,0", id="seeds-repeated"),
        # numpy's "expected non-negative integer", naming no field
        pytest.param("seeds = -1", id="seeds-negative"),
    ] + [pytest.param(line, id=key) for key, (line, *_) in INVALID_VALUES.items()])
    def test_spec_is_refused_before_training(self, tmp_path, no_training, line):
        spec = tmp_path / "spec.txt"
        spec.write_text(tiny_spec_with(line))
        assert run("pipeline", "--spec", spec, "--out", tmp_path / "r.csv") == 2
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("key", INVALID_VALUES)
    def test_stepwise_flag_is_refused_like_the_spec(
        self, tmp_path, monkeypatch, capsys, no_training, key
    ):
        line, command, flag, value = INVALID_VALUES[key]
        spec = tmp_path / "spec.txt"
        spec.write_text(tiny_spec_with(line))
        assert run("pipeline", "--spec", spec, "--out", tmp_path / "r.csv") == 2
        refusal = capsys.readouterr().err
        monkeypatch.chdir(tmp_path)
        assert run(command, *STEPWISE_FILES[command], flag, value) == 2
        assert capsys.readouterr().err == refusal
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line, error", [
        # "config error: invalid literal for int() with base 10: 'ten'"
        ("epochs = ten", "epochs = 'ten': invalid literal for int()"),
        # "config error: not enough values to unpack (expected 2, got 1)"
        ("confused_x = 4-5", "confused_x = '4-5': not enough values to unpack"),
    ], ids=["epochs-ten", "confused-x-4-5"])
    def test_unparsable_spec_value_names_its_line_and_key(
        self, tmp_path, capsys, no_training, line, error
    ):
        spec = tmp_path / "spec.txt"
        spec.write_text(tiny_spec_with(line))
        assert run("pipeline", "--spec", spec, "--out", tmp_path / "r.csv") == 2
        lineno = len(spec.read_text().splitlines())
        assert f"config error: line {lineno}: {error}" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("command, flag", [
        ("prune-sweep", "--fractions"), ("alpha-sweep", "--alphas"),
    ])
    def test_sweep_value_is_refused_before_training(self, tmp_path, no_training, command, flag):
        spec = tmp_path / "spec.txt"
        spec.write_text(TINY_SPEC)
        assert run(command, "--spec", spec, flag, "0", "--out", tmp_path / "r.csv") == 2
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("line", ["test_per_class = 0", "train_per_class = 0"])
    @pytest.mark.parametrize("command", ["pipeline", "prune-sweep", "alpha-sweep"])
    def test_empty_synthetic_split_is_refused_before_training(
        self, tmp_path, no_training, command, line
    ):
        # An empty test split wrote NaN accuracies and exited 0.
        spec = tmp_path / "spec.txt"
        spec.write_text(tiny_spec_with(line))
        assert run(command, "--spec", spec, "--out", tmp_path / "r.csv") == 2
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("line", [
        "x_train = missing.rsm1", "y_test_labels = missing.idx", "normalize_x = minmax",
    ])
    def test_synthetic_spec_naming_data_is_refused(self, tmp_path, capsys, no_training, line):
        # Trained on generated data, printed "convergence accuracy 50.21" and
        # exited 0; the missing files show that none is read.
        spec = tmp_path / "spec.txt"
        spec.write_text(tiny_spec_with(line))
        assert run("pipeline", "--spec", spec, "--out", tmp_path / "r.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: synthetic dataset") and line.split(" =")[0] in err
        assert not (tmp_path / "r.csv").exists()

    def test_files_spec_naming_generator_keys_is_refused(self, tmp_path, capsys, no_training):
        # Trained on the files and exited 0, noise unread; the missing files
        # show that none is read.
        spec = files_spec(tmp_path / "spec.txt", *[tmp_path / "missing.rsm1"] * 4)
        spec.write_text(spec.read_text() + "noise = 0.5\n")
        assert run("pipeline", "--spec", spec, "--out", tmp_path / "r.csv") == 2
        assert capsys.readouterr().err == "config error: files dataset reads no noise\n"
        assert not (tmp_path / "r.csv").exists()

    def test_alpha_y_without_a_y_subset_is_refused(self, tmp_path, capsys, no_training):
        # Trained and exited 0 with alpha_y unread, since no command labels map
        # y directly without a y subset; the missing files show that none is read.
        spec = files_spec(tmp_path / "spec.txt", *[tmp_path / "missing.rsm1"] * 4)
        spec.write_text(spec.read_text()
                        + "label_fraction_y = 0\nlabel_mode_y = diverge\nalpha_y = 5\n")
        assert run("pipeline", "--spec", spec, "--out", tmp_path / "r.csv") == 2
        assert capsys.readouterr().err == ("config error: alpha_y labels map y directly, "
                                           "which needs label_fraction_y > 0\n")
        assert not (tmp_path / "r.csv").exists()

    def test_eta_under_hebb_with_zero_runs_and_moves_a_prune_row(self, tmp_path):
        # Exited 2, though eta moves divergence labels through rounding.
        rows, spec = [], tmp_path / "spec.txt"
        for eta in ("1", "100"):
            spec.write_text(spec_text({"rule": "hebb", "disconnected": "zero", "eta": eta}))
            assert run("pipeline", "--spec", spec, "--out", tmp_path / "r.csv") == 0
            assert run("prune-sweep", "--spec", spec, "--fractions", "0.25",
                       "--out", tmp_path / "rows.csv") == 0
            rows.append((tmp_path / "rows.csv").read_text())
        assert rows[0] != rows[1]

    def test_eta_under_hebb_with_kept_neurons_runs(self, tmp_path):
        # Exited 2, though eta moves the support of connected neurons against
        # the fixed 1 of a neuron without synapses.
        accuracies, spec = [], tmp_path / "spec.txt"
        for eta in ("1", "0.01"):
            spec.write_text(TINY_SPEC + "rule = hebb\ndisconnected = keep\nneurons = all\n"
                            + f"eta = {eta}\n")
            assert run("pipeline", "--spec", spec, "--out", tmp_path / "r.csv") == 0
            (row,) = read_record_csv(tmp_path / "r.csv")[1]
            accuracies.append(row["convergence"])
        assert accuracies[0] != accuracies[1]

    def test_repeated_key_is_refused(self, tmp_path, capsys, no_training):
        # Trained with the last value and exited 0; the missing files show
        # that none is read.
        spec = files_spec(tmp_path / "spec.txt", *[tmp_path / "missing.rsm1"] * 4)
        lineno = len(spec.read_text().splitlines()) + 1
        spec.write_text(spec.read_text() + "epochs = 1\nepochs = 2\n")
        assert run("pipeline", "--spec", spec, "--out", tmp_path / "r.csv") == 2
        assert capsys.readouterr().err == (f"config error: line {lineno + 1}: epochs is set "
                                           f"again, first on line {lineno}\n")
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_label_alpha_flag(self, workspace, tmp_path, value):
        assert run(
            "label", "--som", labeled_map(tmp_path / "x.rsom"),
            "--data", workspace / "x_train.rsm1", "--subset-frac", 0.2,
            "--alpha", value, "--out", tmp_path / "out.rsom",
        ) == 2

    @pytest.mark.parametrize("flag", ["--beta-x", "--beta-y"])
    def test_converge_beta_flags(self, workspace, tmp_path, flag):
        for name in ("xy", "yx"):
            save_synapses(LateralSynapses.empty(4, 4), tmp_path / f"{name}.rlat", name.upper())
        assert run(
            "converge", "--som-x", labeled_map(tmp_path / "x.rsom"),
            "--som-y", labeled_map(tmp_path / "y.rsom", seed=1),
            "--syn-xy", tmp_path / "xy.rlat", "--syn-yx", tmp_path / "yx.rlat",
            "--test-x", workspace / "x_test.rsm1", "--test-y", workspace / "y_test.rsm1",
            flag, "nan", "--metrics", tmp_path / "m.txt",
        ) == 2


class TestOversizeHeaders:
    """Headers announcing more bytes than the file holds are data errors,
    found before any read or allocation."""

    def test_rsm1_rows_and_cols_at_u32_max(self, tmp_path):
        bad = tmp_path / "huge.rsm1"
        bad.write_bytes(b"RSM1" + struct.pack("<II", 0xFFFFFFFF, 0xFFFFFFFF) + bytes(16))
        assert run("train", "--modality", bad, "--grid", "2x2", "--out", tmp_path / "s.rsom") == 3

    def test_rsom_grid_and_dim_at_u32_max(self, workspace, tmp_path):
        bad = tmp_path / "huge.rsom"
        bad.write_bytes(b"RSOM" + struct.pack("<IIIB", *[0xFFFFFFFF] * 3, 1) + bytes(16))
        assert run(
            "label", "--som", bad, "--data", workspace / "x_train.rsm1",
            "--out", tmp_path / "out.rsom",
        ) == 3

    # u16 indices address at most 65 536 neurons a side; the u32-max header
    # gave numpy's "array is too big" ValueError, exit 2.
    @pytest.mark.parametrize("n_source, n_target", [
        (0xFFFFFFFF, 0xFFFFFFFF), (65_537, 1),
    ], ids=["u32-max", "65537x1"])
    def test_rlat_beyond_u16_neurons(self, workspace, tmp_path, n_source, n_target):
        bad = tmp_path / "huge.rlat"
        bad.write_bytes(b"RLATXY" + struct.pack("<III", n_source, n_target, 0))
        assert run(
            "diverge-label", "--som-x", labeled_map(tmp_path / "x.rsom"),
            "--som-y", labeled_map(tmp_path / "y.rsom", seed=1), "--syn-xy", bad,
            "--data-x", workspace / "x_train.rsm1", "--out", tmp_path / "out.rsom",
        ) == 3


def save_empty_rsm1(path, dim=6):
    save_rsm1(FeatureMatrix(np.zeros((0, dim)), np.zeros(0, dtype=np.int64)), path)
    return path


class TestEmptyTestSplit:
    """A test file with no rows is a data error (exit 3), found before any
    training; it used to give NaN accuracies and exit 0."""

    def test_files_pipeline(self, workspace, tmp_path, no_training):
        w = workspace
        spec = tmp_path / "spec.txt"
        spec.write_text(
            f"dataset = files\nx_train = {w / 'x_train.rsm1'}\ny_train = {w / 'y_train.rsm1'}\n"
            f"x_test = {save_empty_rsm1(tmp_path / 'empty.rsm1')}\n"
            f"y_test = {w / 'y_test.rsm1'}\ngrid_x = 4x4\ngrid_y = 4x4\n"
        )
        assert run("pipeline", "--spec", spec, "--out", tmp_path / "r.csv") == 3
        assert not (tmp_path / "r.csv").exists()

    def test_converge(self, workspace, tmp_path):
        for name in ("xy", "yx"):
            save_synapses(LateralSynapses.empty(4, 4), tmp_path / f"{name}.rlat", name.upper())
        assert run(
            "converge", "--som-x", labeled_map(tmp_path / "x.rsom"),
            "--som-y", labeled_map(tmp_path / "y.rsom", seed=1),
            "--syn-xy", tmp_path / "xy.rlat", "--syn-yx", tmp_path / "yx.rlat",
            "--test-x", save_empty_rsm1(tmp_path / "empty.rsm1"),
            "--test-y", workspace / "y_test.rsm1", "--metrics", tmp_path / "m.txt",
        ) == 3
        assert not (tmp_path / "m.txt").exists()


def test_class_missing_from_y_is_a_data_error(workspace, tmp_path, capsys, no_training):
    # A class of x_test with no row in y_test exited 2 as a "config error".
    w = workspace
    y_test = load_features(w / "y_test.rsm1")
    save_rsm1(y_test.take(np.flatnonzero(y_test.labels != 2)), tmp_path / "y_test.rsm1")
    spec = tmp_path / "spec.txt"
    spec.write_text(
        f"dataset = files\nx_train = {w / 'x_train.rsm1'}\ny_train = {w / 'y_train.rsm1'}\n"
        f"x_test = {w / 'x_test.rsm1'}\ny_test = {tmp_path / 'y_test.rsm1'}\n"
        "grid_x = 4x4\ngrid_y = 4x4\n"
    )
    assert run("pipeline", "--spec", spec, "--out", tmp_path / "r.csv") == 3
    assert "class 2 present in x but absent in y" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def save_stray_label(source, path, row=3, label=40000):
    """``source``'s rows with one label set to a class no other row names."""
    m = load_features(source)
    labels = m.labels.copy()
    labels[row] = label
    save_rsm1(FeatureMatrix(m.values, labels), path)
    return path


def test_stray_label_is_a_data_error_before_training(workspace, tmp_path, capsys, no_training):
    # Both maps trained, then the confusion of 40 001 classes asked for
    # 11.9 GiB and the run died with a traceback, exit 1.
    w = workspace
    spec = files_spec(tmp_path / "spec.txt", w / "x_train.rsm1", w / "y_train.rsm1",
                      w / "x_test.rsm1", save_stray_label(w / "y_test.rsm1", tmp_path / "y.rsm1"))
    assert run("pipeline", "--spec", spec, "--out", tmp_path / "r.csv") == 3
    assert "data error: labels name class 40000: 40001 classes" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def files_spec(path, x_train, y_train, x_test, y_test):
    path.write_text(
        f"dataset = files\nx_train = {x_train}\ny_train = {y_train}\n"
        f"x_test = {x_test}\ny_test = {y_test}\ngrid_x = 4x4\ngrid_y = 4x4\n"
    )
    return path


def bad_file_argv(command, workspace, tmp_path):
    """``command``'s arguments reading ``tmp_path/bad.rsm1`` as its first
    feature file and writing ``tmp_path/out``."""
    w, t = workspace, tmp_path
    data = t / "bad.rsm1"
    for name in ("xy", "yx"):
        save_synapses(LateralSynapses.empty(4, 4), t / f"{name}.rlat", name.upper())
    maps = ["--som-x", labeled_map(t / "x.rsom"), "--som-y", labeled_map(t / "y.rsom", seed=1)]
    spec = ["--spec", files_spec(t / "spec.txt", data, w / "y_train.rsm1", w / "x_test.rsm1",
                                 w / "y_test.rsm1"), "--out", t / "out"]
    return {
        "train": ["--modality", data, "--grid", "2x2", "--out", t / "out"],
        "label": ["--som", t / "x.rsom", "--data", data, "--out", t / "out"],
        "associate": [*maps, "--pairs-x", data, "--pairs-y", w / "y_train.rsm1",
                      "--out-xy", t / "out", "--out-yx", t / "out"],
        "diverge-label": [*maps, "--syn-xy", t / "xy.rlat", "--data-x", data,
                          "--out", t / "out"],
        "converge": [*maps, "--syn-xy", t / "xy.rlat", "--syn-yx", t / "yx.rlat",
                     "--test-x", data, "--test-y", w / "y_test.rsm1", "--metrics", t / "out"],
        "pipeline": spec, "prune-sweep": spec, "alpha-sweep": spec,
    }[command]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command", ["train", "label", "associate", "diverge-label", "converge", "pipeline"]
)
def test_non_finite_feature_is_a_data_error(workspace, tmp_path, capsys, no_training,
                                            command, bad):
    # `label` wrote a labeled map and exited 0; `train` exited 2 as a "config error".
    x = load_features(workspace / "x_train.rsm1")
    values = x.values.copy()
    values[7, 2] = bad
    save_rsm1(FeatureMatrix(values, x.labels), tmp_path / "bad.rsm1")
    assert run(command, *bad_file_argv(command, workspace, tmp_path)) == 3
    assert "bad.rsm1: row 7 holds a non-finite value" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("rows, features", [(0, 6), (40, 0)], ids=["no-rows", "no-features"])
@pytest.mark.parametrize("command", ["train", "label", "associate", "diverge-label", "converge",
                                     "pipeline", "prune-sweep", "alpha-sweep"])
def test_empty_or_featureless_file_is_a_data_error(workspace, tmp_path, capsys, no_training,
                                                   command, rows, features):
    # `train` exited 2 with "empty dataset" on no rows and with numpy's "zero-size
    # array to reduction operation maximum" on no features; `label` exited 2 with
    # "fraction 0.01 selects no samples from 0"; the others said "no rows to
    # pair", naming no file, or blamed a well-formed file for its width.
    labels = np.arange(rows) % 4
    save_rsm1(FeatureMatrix(np.zeros((rows, features)), labels), tmp_path / "bad.rsm1")
    assert run(command, *bad_file_argv(command, workspace, tmp_path)) == 3
    assert (f"data error: {tmp_path / 'bad.rsm1'}: holds {rows} rows of {features} features"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["label", "pipeline"])
def test_labeled_data_without_a_class_is_a_data_error(workspace, tmp_path, capsys,
                                                     no_training, command):
    # Labels 1-3 and no class 0 made 1000 subset draws, then exited 2.
    w, t = workspace, tmp_path
    for name in ("x_train", "y_train"):
        m = load_features(w / f"{name}.rsm1")
        save_rsm1(m.take(np.flatnonzero(m.labels != 0)), t / f"{name}.rsm1")
    argv = {
        "label": ["--som", labeled_map(t / "x.rsom"), "--data", t / "x_train.rsm1",
                  "--subset-frac", 0.1],
        "pipeline": ["--spec", files_spec(t / "spec.txt", t / "x_train.rsm1",
                                          t / "y_train.rsm1", w / "x_test.rsm1",
                                          w / "y_test.rsm1")],
    }[command]
    assert run(command, *argv, "--out", t / "out") == 3
    assert "no row has class 0 (labels run from 0 to 3)" in capsys.readouterr().err
    assert not (t / "out").exists()


def save_idx(directory, n_images, n_labels):
    """IDX files of ``n_images`` blank 2x3 images and ``n_labels`` labels 0."""
    images, labels = directory / "images.idx", directory / "labels.idx"
    images.write_bytes(b"\x00\x00\x08\x03" + struct.pack(">III", n_images, 2, 3)
                       + bytes(6 * n_images))
    labels.write_bytes(b"\x00\x00\x08\x01" + struct.pack(">I", n_labels) + bytes(n_labels))
    return images, labels


def labeled_data_argv(command, workspace, tmp_path, data, labels):
    """``command``'s arguments to label map x's training ``data`` by ``labels``."""
    if command == "label":
        return ["label", "--som", labeled_map(tmp_path / "x.rsom"), "--data", data,
                "--labels", labels, "--out", tmp_path / "out"]
    w = workspace
    spec = files_spec(tmp_path / "spec.txt", data, w / "y_train.rsm1", w / "x_test.rsm1",
                      w / "y_test.rsm1")
    spec.write_text(spec.read_text() + f"x_train_labels = {labels}\n")
    return ["pipeline", "--spec", spec, "--out", tmp_path / "out"]


@pytest.mark.parametrize("command", ["label", "pipeline"])
def test_labels_file_for_an_rsm1_file_is_a_config_error(
    workspace, tmp_path, capsys, no_training, command
):
    # The labels file was never opened: the RSM1 file's own labels were used.
    data, labels = workspace / "x_train.rsm1", tmp_path / "junk"
    assert run(*labeled_data_argv(command, workspace, tmp_path, data, labels)) == 2
    err = capsys.readouterr().err
    assert f"config error: {data} is an RSM1 file" in err and str(labels) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["label", "pipeline"])
def test_idx_count_mismatch_names_both_files(workspace, tmp_path, capsys, no_training, command):
    # Said "image/label count mismatch: 5 images, 4 labels", naming no file.
    images, labels = save_idx(tmp_path, 5, 4)
    assert run(*labeled_data_argv(command, workspace, tmp_path, images, labels)) == 3
    assert (f"data error: {images}: image/label count mismatch: 5 images, 4 labels in {labels}"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("narrow", ["x_test", "y_test"])
@pytest.mark.parametrize("command", ["pipeline", "prune-sweep", "alpha-sweep"])
def test_test_file_narrower_than_its_training_file_is_a_data_error(
    workspace, tmp_path, capsys, no_training, command, narrow
):
    # A 5-wide test file against 6-wide training rows trained both maps, then
    # exited 2 with scipy's "XA and XB must have the same number of columns".
    w = workspace
    m = load_features(w / f"{narrow}.rsm1")
    save_rsm1(FeatureMatrix(m.values[:, :5], m.labels), tmp_path / "narrow.rsm1")
    files = {name: w / f"{name}.rsm1" for name in ("x_train", "y_train", "x_test", "y_test")}
    spec = files_spec(tmp_path / "spec.txt", **{**files, narrow: tmp_path / "narrow.rsm1"})
    assert run(command, "--spec", spec, "--out", tmp_path / "out.csv") == 3
    assert "narrow.rsm1: rows have 5 features, the map takes 6" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("jobs", [0, -1])
def test_pipeline_needs_a_job(tmp_path, capsys, no_training, jobs):
    # Every seed runs in one process; a ``--jobs`` value, valid or not, is an
    # unknown option refused before anything trains or is written.
    spec = tmp_path / "spec.txt"
    spec.write_text(TINY_SPEC.replace("seeds = 0", "seeds = 0,1"))
    with pytest.raises(SystemExit) as exit_:
        run("pipeline", "--spec", spec, "--jobs", jobs, "--out", tmp_path / "r.csv")
    assert exit_.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


# Each stepwise subcommand's option strings, in --help order.  Some come
# from config fields (train's from TrainSchedule, converge's from
# ConvergenceConfig), so a renamed, reordered or new field shows here.
STEPWISE_OPTIONS = {
    "train": ["--modality", "--labels", "--grid", "--seed", "--epochs", "--lr-start",
              "--lr-end", "--sigma-start", "--sigma-end", "--grid-metric", "--out"],
    "label": ["--som", "--data", "--labels", "--subset-frac", "--alpha", "--seed", "--out"],
    "associate": ["--som-x", "--som-y", "--pairs-x", "--pairs-y", "--labels-x", "--labels-y",
                  "--pair-seed", "--rule", "--eta", "--assoc-epochs", "--keep", "--out-xy",
                  "--out-yx"],
    "diverge-label": ["--som-x", "--som-y", "--syn-xy", "--data-x", "--labels-x", "--seed",
                      "--subset-frac", "--beta", "--out"],
    "converge": ["--som-x", "--som-y", "--syn-xy", "--syn-yx", "--test-x", "--test-y",
                 "--test-labels-x", "--test-labels-y", "--pair-seed", "--update",
                 "--activities", "--neurons", "--beta-x", "--beta-y", "--disconnected",
                 "--metrics", "--confusion-csv", "--gain-csv"],
}


@pytest.mark.parametrize("command", STEPWISE_OPTIONS)
def test_stepwise_flags_are_pinned(command):
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    options = [s for action in commands.choices[command]._actions for s in action.option_strings]
    assert options == ["-h", "--help", *STEPWISE_OPTIONS[command]]


REPORT_CELLS = {"seed": "0", "uni_x": "0.5", "uni_y": "0.6", "convergence": "0.7"}


def record_text(cells, rows=1):
    return ",".join(cells) + "\n" + (",".join(cells.values()) + "\n") * rows


@pytest.mark.parametrize("text", [
    pytest.param("# spec_hash=ab\n" + record_text(REPORT_CELLS, rows=0), id="header-only"),
    pytest.param("", id="empty-file"),
    *(pytest.param(record_text({k: v for k, v in REPORT_CELLS.items() if k != column}),
                   id=f"no-{column}-column")
      for column in ("convergence", "uni_x", "uni_y")),
    pytest.param(record_text({**REPORT_CELLS, "uni_y": "abc"}), id="non-numeric-cell"),
    pytest.param(record_text(REPORT_CELLS) + "1,0.5\n", id="short-row"),
])
def test_report_refuses_a_malformed_record(tmp_path, capsys, text):
    path = tmp_path / "record.csv"
    path.write_text(text)
    assert run("report", "--records", path) == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("column, cell", [
    ("convergence", "nan"), ("uni_x", "inf"), ("uni_y", "-0.25"), ("convergence", "1.5"),
])
def test_report_refuses_a_cell_that_is_not_an_accuracy(tmp_path, capsys, column, cell):
    # A nan convergence and an inf uni_x exited 0 and printed
    # convergence_mean=nan and unimodal_x_mean=inf.
    path = tmp_path / "record.csv"
    bad_row = ",".join({**REPORT_CELLS, column: cell}.values()) + "\n"
    path.write_text("# spec_hash=ab\n" + record_text(REPORT_CELLS) + bad_row)
    assert run("report", "--records", path) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"data error: {path}: line 4 {column} is not a number in [0, 1]\n"


def test_report_refuses_a_record_that_is_not_utf8(tmp_path, capsys):
    # Exited 2 with "config error: 'utf-8' codec can't decode byte 0xff ...",
    # naming neither the file nor the line.
    path = tmp_path / "record.csv"
    text = "# spec_hash=ab\n" + record_text(REPORT_CELLS)
    path.write_bytes(text.encode() + b"1,0.\xff,0.6,0.7\n")
    assert run("report", "--records", path) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"data error: {path}: line 4 is not UTF-8 text\n"


@pytest.mark.parametrize("command", ["train", "label", "pipeline", "report"])
def test_directory_path_is_a_data_error(tmp_path, capsys, command):
    # Printed an IsADirectoryError traceback and exited 1.
    argv = {
        "train": ["--modality", tmp_path, "--grid", "2x2", "--out", tmp_path / "s.rsom"],
        "label": ["--som", labeled_map(tmp_path / "x.rsom"), "--data", tmp_path,
                  "--out", tmp_path / "out.rsom"],
        "pipeline": ["--spec", tmp_path, "--out", tmp_path / "r.csv"],
        "report": ["--records", tmp_path],
    }[command]
    assert run(command, *argv) == 3
    assert "data error: " in capsys.readouterr().err


def test_report_reads_the_report_columns(tmp_path, capsys):
    path = tmp_path / "record.csv"
    path.write_text("# spec_hash=ab\n" + record_text(REPORT_CELLS, rows=2))
    assert run("report", "--records", path) == 0
    assert capsys.readouterr().out == (
        "convergence_mean=0.7\nconvergence_std=0.0\n"
        f"gain_over_best_unimodal={0.7 - 0.6}\nseeds=2\nspec_hash=ab\n"
        "unimodal_x_mean=0.5\nunimodal_y_mean=0.6\n"
    )


def test_report_gain_takes_the_better_map_of_each_seed(tmp_path, capsys):
    # y is the better map of seed 0 and x of seed 1: the gain is 0.875 - 0.75,
    # not 0.875 minus the better of the two mean accuracies (0.625).
    path = tmp_path / "record.csv"
    path.write_text("seed,uni_x,uni_y,convergence\n0,0.5,0.75,0.875\n1,0.75,0.5,0.875\n")
    assert run("report", "--records", path) == 0
    assert "gain_over_best_unimodal=0.125\n" in capsys.readouterr().out


@pytest.mark.parametrize("command, extra", [
    ("pipeline", ""), ("pipeline", "label_mode_y = diverge\n"), ("alpha-sweep", ""),
], ids=["pipeline-direct", "pipeline-diverge", "alpha-sweep-y"])
def test_class_only_in_y_gets_a_confusion_row(workspace, tmp_path, command, extra):
    # x names classes 0-2 and y 0-3: counting only x's classes raised
    # "IndexError: index 3 is out of bounds" (exit 1).
    w = workspace
    for split in ("train", "test"):
        x = load_features(w / f"x_{split}.rsm1")
        save_rsm1(x.take(np.flatnonzero(x.labels != 3)), tmp_path / f"x_{split}.rsm1")
    spec = tmp_path / "spec.txt"
    spec.write_text(
        f"dataset = files\nx_train = {tmp_path / 'x_train.rsm1'}\n"
        f"x_test = {tmp_path / 'x_test.rsm1'}\ny_train = {w / 'y_train.rsm1'}\n"
        f"y_test = {w / 'y_test.rsm1'}\ngrid_x = 4x4\ngrid_y = 4x4\nepochs = 2\n" + extra
    )
    argv = ["--modality", "y"] if command == "alpha-sweep" else []
    assert run(command, "--spec", spec, *argv, "--out", tmp_path / "out.csv") == 0
    assert (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("outside", [True, False], ids=["outside-the-maps", "inside-the-maps"])
@pytest.mark.parametrize("command", ["converge", "diverge-label"])
def test_synapses_that_do_not_fit_the_maps_are_a_data_error(
    workspace, tmp_path, capsys, command, outside
):
    # An 81x81 synapse file against two 4x4 maps gave an IndexError traceback
    # (exit 1) with synapses outside the maps; with every synapse inside them,
    # converge exited 0 and diverge-label exited 2 as a config error.
    w = workspace
    big = LateralSynapses.empty(81, 81)
    if outside:
        big.exists[80, :] = big.exists[:, 80] = True
    else:
        big.exists[1, 0] = True
    big.weights[big.exists] = 1.0
    save_synapses(big, tmp_path / "big.rlat")
    save_synapses(LateralSynapses.empty(16, 16), tmp_path / "yx.rlat", "YX")
    maps = ["--som-x", labeled_map(tmp_path / "x.rsom", 4, 4),
            "--som-y", labeled_map(tmp_path / "y.rsom", 4, 4, seed=1),
            "--syn-xy", tmp_path / "big.rlat"]
    out = tmp_path / "out"
    argv = {
        "converge": ["--syn-yx", tmp_path / "yx.rlat", "--test-x", w / "x_test.rsm1",
                     "--test-y", w / "y_test.rsm1", "--metrics", out],
        "diverge-label": ["--data-x", w / "x_train.rsm1", "--subset-frac", 0.2, "--out", out],
    }[command]
    assert run(command, *maps, *argv) == 3
    err = capsys.readouterr().err
    assert "synapses are 81x81" in err and "maps are 16x16" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["label", "associate", "diverge-label", "converge"])
def test_features_that_do_not_fit_the_map_are_a_data_error(workspace, tmp_path, capsys, command):
    # A 3-column file against a 6-dimensional map exited 2 with scipy's
    # "XA and XB must have the same number of columns".
    w = workspace
    narrow = tmp_path / "narrow.rsm1"
    save_rsm1(FeatureMatrix(np.zeros((8, 3)), np.repeat([0, 1], 4)), narrow)
    for name in ("xy", "yx"):
        save_synapses(LateralSynapses.empty(4, 4), tmp_path / f"{name}.rlat", name.upper())
    maps = ["--som-x", labeled_map(tmp_path / "x.rsom"),
            "--som-y", labeled_map(tmp_path / "y.rsom", seed=1)]
    out = tmp_path / "out"
    argv = {
        "label": ["--som", tmp_path / "x.rsom", "--data", narrow, "--subset-frac", 1,
                  "--out", out],
        "associate": [*maps, "--pairs-x", narrow, "--pairs-y", w / "y_train.rsm1",
                      "--out-xy", out, "--out-yx", tmp_path / "out-yx"],
        "diverge-label": [*maps, "--syn-xy", tmp_path / "xy.rlat", "--data-x", narrow,
                          "--subset-frac", 1, "--out", out],
        "converge": [*maps, "--syn-xy", tmp_path / "xy.rlat", "--syn-yx", tmp_path / "yx.rlat",
                     "--test-x", narrow, "--test-y", w / "y_test.rsm1", "--metrics", out],
    }[command]
    assert run(command, *argv) == 3
    err = capsys.readouterr().err
    assert "rows have 3 features, the map takes 6" in err
    assert not out.exists()


@pytest.fixture
def training_calls(monkeypatch):
    """The arguments of each ``som.train_many`` call the test makes."""
    calls = []
    train_many = resom.som.train_many

    def counted(*args, **kwargs):
        calls.append(args)
        return train_many(*args, **kwargs)

    monkeypatch.setattr(resom.som, "train_many", counted)
    return calls


@pytest.mark.parametrize("out, error", [
    (("no", "such", "r.csv"), "No such file or directory"), (("adir",), "Is a directory"),
], ids=["missing-directory", "directory"])
@pytest.mark.parametrize("command", ["pipeline", "prune-sweep", "alpha-sweep", "train"])
def test_output_path_that_cannot_be_written_exits_before_training(
    workspace, tmp_path, capsys, training_calls, command, out, error
):
    # pipeline, prune-sweep and alpha-sweep trained every seed, then exited 3.
    spec = tmp_path / "spec.txt"
    spec.write_text(TINY_SPEC.replace("seeds = 0", "seeds = 0,1"))
    (tmp_path / "adir").mkdir()
    argv = (["--modality", workspace / "x_train.rsm1", "--grid", "2x2"] if command == "train"
            else ["--spec", spec])
    out = tmp_path.joinpath(*out)
    assert run(command, *argv, "--out", out) == 3
    assert capsys.readouterr().err.endswith(f"{error}: '{out}'\n")
    assert training_calls == []
    assert list(tmp_path.glob("**/*.tmp")) == []


def test_artifacts_that_cannot_be_created_exit_before_training(tmp_path, capsys, training_calls):
    # The directory was made after a seed's stages were built: one seed
    # trained, then the run exited 3.
    spec = tmp_path / "spec.txt"
    spec.write_text(TINY_SPEC.replace("seeds = 0", "seeds = 0,1"))
    (tmp_path / "afile").write_text("")
    assert run("pipeline", "--spec", spec, "--out", tmp_path / "r.csv",
               "--artifacts", tmp_path / "afile" / "sub") == 3
    assert "Not a directory" in capsys.readouterr().err
    assert training_calls == []
    assert not (tmp_path / "r.csv").exists()


def test_a_failed_pipeline_keeps_the_earlier_record(workspace, tmp_path):
    w, t = workspace, tmp_path
    spec = t / "spec.txt"
    spec.write_text(TINY_SPEC)
    record = t / "record.csv"
    assert run("pipeline", "--spec", spec, "--out", record) == 0
    earlier = record.read_bytes()
    x = load_features(w / "x_test.rsm1")
    values = x.values.copy()
    values[3, 1] = np.nan
    save_rsm1(FeatureMatrix(values, x.labels), t / "bad.rsm1")
    bad = files_spec(t / "bad.txt", w / "x_train.rsm1", w / "y_train.rsm1",
                     t / "bad.rsm1", w / "y_test.rsm1")
    assert run("pipeline", "--spec", bad, "--out", record) == 3
    assert record.read_bytes() == earlier
    assert list(t.glob("*.tmp")) == []
