"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  The two dataset-bound criteria look for files under
``$RESOM_DATA_DIR`` (default ``./data``) and skip when they are absent; see
the README for the expected layout.
"""

import hashlib
import importlib.metadata
import math
import os
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from resom import association as assoc
from resom import experiments as exp
from resom import grid as ig
from resom import inference, labeling, synthetic
from resom import som as som_mod
from resom.association import hebb_update, oja_update
from resom.data import load_idx, save_rsm1
from scalar_oracles import same_bits

DATA_DIR = Path(os.environ.get("RESOM_DATA_DIR", "data"))
DIGITS_SPEC = Path(__file__).resolve().parent.parent / "specs" / "digits.spec"


@contextmanager
def criterion(name):
    try:
        yield
    except pytest.skip.Exception as e:
        print(f"\nACCEPTANCE {name}: SKIPPED ({e})")
        raise
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {name}: PASS")


def manhattan_to(shape, index):
    rows, cols = np.indices(shape)
    r0, c0 = divmod(index, shape[1])
    return np.abs(rows - r0) + np.abs(cols - c0)


def test_ig_exactness_property():
    """Wave election and adoption-step distances equal the centralized oracle."""
    with criterion("IG exactness"):
        rng = np.random.default_rng(2024)
        started = time.perf_counter()
        for rows, cols in ((1, 1), (3, 5), (5, 5), (10, 10), (16, 16)):
            for _ in range(1000):
                acts = rng.random((rows, cols))
                wave = ig.winner_wave(acts)
                flat = acts.ravel()
                bmu, wmu = int(np.argmax(flat)), int(np.argmin(flat))
                assert wave.bmu_index == bmu
                assert wave.wmu_index == wmu
                assert np.all(wave.best_values == flat[bmu])
                assert np.all(wave.worst_values == flat[wmu])
                assert np.array_equal(
                    wave.distance_to_bmu, manhattan_to((rows, cols), bmu)
                )
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"exactness sweep took {elapsed:.1f}s"


def test_ig_training_equivalence():
    """Cellular and centralized Manhattan-metric training agree bit for bit."""
    with criterion("IG/centralized training equivalence"):
        started = time.perf_counter()
        rng = np.random.default_rng(7)
        samples = rng.random((20, 8))
        som = som_mod.make_som(4, 4, 8, seed=5)
        schedule = som_mod.TrainSchedule(epochs=3, lr_start=0.9, lr_end=0.05,
                                         sigma_start=2.0, sigma_end=0.2)
        central = som_mod.train(som, samples, schedule, seed=13, grid_metric="manhattan")
        cellular = ig.ig_train(som, samples, schedule, seed=13)
        assert same_bits(central.weights, cellular.weights)
        assert time.perf_counter() - started < 5.0


def test_mnist_unimodal_reproduction():
    """10x10 map, 1% labels: mean test accuracy within 87.04 +/- 2 points."""
    with criterion("MNIST unimodal reproduction"):
        mnist = DATA_DIR / "mnist"
        paths = {
            "train_images": mnist / "train-images-idx3-ubyte",
            "train_labels": mnist / "train-labels-idx1-ubyte",
            "test_images": mnist / "t10k-images-idx3-ubyte",
            "test_labels": mnist / "t10k-labels-idx1-ubyte",
        }
        if not all(p.exists() for p in paths.values()):
            pytest.skip(f"MNIST IDX files not found under {mnist}")
        train = load_idx(paths["train_images"], paths["train_labels"])
        test = load_idx(paths["test_images"], paths["test_labels"])
        full = os.environ.get("RESOM_MNIST_FULL") == "1"
        if not full:
            train = train.take(np.arange(10_000))  # desk-scale fallback
        schedule = som_mod.TrainSchedule(epochs=10, lr_start=1.0, lr_end=0.01,
                                         sigma_start=5.0, sigma_end=0.01)
        accs = []
        for seed in range(10):
            grid_som = som_mod.make_som(10, 10, 784, seed)
            grid_som = som_mod.train(grid_som, train.values, schedule, seed)
            subset = labeling.select_label_subset(train, 0.01, seed)
            labeled = labeling.label_som(grid_som, subset, kernel_width=1.0)
            accs.append(
                inference.evaluate_unimodal(labeled, test, 10).accuracy
            )
        mean = float(np.mean(accs))
        if full:
            assert abs(mean - 0.8704) <= 0.02, f"mean accuracy {mean:.4f}"
        else:
            assert mean >= 0.80, f"desk-scale mean accuracy {mean:.4f}"


def test_multimodal_digits_reproduction(monkeypatch):
    """Paired written/spoken digits: 95.07 +/- 1.5 convergence, gain >= +4."""
    with criterion("Multimodal convergence reproduction"):
        spec = exp.load_spec(DIGITS_SPEC)
        paths = (spec.x_train, spec.x_train_labels, spec.x_test, spec.x_test_labels,
                 spec.y_train, spec.y_test)
        if not all((DATA_DIR / p).exists() for p in paths):
            pytest.skip(f"paired digit feature files not found under {DATA_DIR}")
        monkeypatch.chdir(DATA_DIR)  # the spec's paths are relative to the data directory
        record = exp.run_pipeline(spec)
        best_uni = np.mean([max(r.uni_x, r.uni_y) for r in record.results])
        assert abs(record.mean - 0.9507) <= 0.015, f"convergence {record.mean:.4f}"
        assert record.mean - best_uni >= 0.04, (
            f"gain {record.mean - best_uni:.4f} below +4 points"
        )


def test_synthetic_fallback_all_variants():
    """Every convergence variant at least matches the best unimodal map."""
    with criterion("Synthetic fallback"):
        spec = exp.ExperimentSpec(seeds=tuple(range(10)))
        per_seed = exp.seed_stages(spec)
        max_uni = float(np.mean([max(exp.unimodal_accuracies(st)) for st in per_seed]))
        configs = inference.ALL_VARIANTS
        evals = [exp.evaluate_seed(spec, st, spec.keep_fraction, configs) for st in per_seed]
        variant_means = {
            cfg.name(): float(np.mean([ev.convergence[i].accuracy for ev in evals]))
            for i, cfg in enumerate(configs)
        }
        floor = max_uni - 0.01
        for name, mean in variant_means.items():
            assert mean >= floor, f"{name}: {mean:.4f} under floor {floor:.4f}"
        best = max(variant_means.values())
        assert best >= max_uni + 0.02, (
            f"best variant {best:.4f} under target {max_uni + 0.02:.4f}"
        )


def test_divergence_labeling_parity():
    """Label transfer matches direct labeling when connectivity is preserved."""
    with criterion("Divergence labeling parity"):
        spec = exp.ExperimentSpec(
            seeds=tuple(range(10)), confused_x=(), confused_y=(), diverge_beta=0.5
        )
        per_seed = exp.seed_stages(spec)
        # Map y labeled by divergence, from the same built stages.
        diverging = replace(spec, label_mode_y="diverge")
        direct, healthy, starved = [], [], []
        for st in per_seed:
            direct.append(exp.unimodal_accuracies(st)[1])
            for keep, sink in ((0.25, healthy), (0.02, starved)):
                ev = exp.evaluate_seed(diverging, st, keep, ())
                disconnected = inference.disconnected_targets(ev.syn_xy)
                assert (ev.som_y.labels[disconnected] == 0).all()
                if keep == 0.02:
                    assert disconnected.any(), "expected starved connectivity"
                sink.append(ev.uni_y_diverged)
        direct_mean = float(np.mean(direct))
        healthy_mean = float(np.mean(healthy))
        starved_mean = float(np.mean(starved))
        assert abs(healthy_mean - direct_mean) <= 0.02, (
            f"diverged {healthy_mean:.4f} vs direct {direct_mean:.4f}"
        )
        assert starved_mean <= healthy_mean - 0.03, (
            f"no degradation below connectivity threshold: {starved_mean:.4f}"
        )


def test_oja_fixed_point_and_hebb_divergence():
    """Oja settles at the activity ratio; Hebb grows without bound."""
    with criterion("Oja fixed point"):
        a_src, a_dst, eta = 0.5, 0.4, 0.1
        target = a_src / a_dst  # 1.25
        w = 0.0
        converged_at = None
        for i in range(1, 10_001):
            w = oja_update(w, a_src, a_dst, eta)
            if abs(w - target) < 1e-6:
                converged_at = i
                break
        assert converged_at is not None, f"Oja stuck at {w}"
        assert abs(w - target) < 1e-6
        w_hebb = 0.0
        for _ in range(100_000):
            w_hebb = hebb_update(w_hebb, a_src, a_dst, eta)
            if w_hebb > 1e3:
                break
        assert w_hebb > 1e3, "Hebb failed to exceed 1e3"


def test_prune_cardinality():
    """Quota holds and kept synapses are each neuron's strongest."""
    with criterion("Prune cardinality"):
        rng = np.random.default_rng(99)
        for trial in range(20):
            n_src = int(rng.integers(1, 30))
            n_tgt = int(rng.integers(1, 60))
            syn = assoc.LateralSynapses.empty(n_src, n_tgt)
            mask = rng.random((n_src, n_tgt)) < rng.uniform(0.1, 0.9)
            syn.exists[:] = mask
            syn.weights[mask] = rng.random(mask.sum())
            for fraction in (0.05, 0.1, 0.25, 1.0):
                quota = math.ceil(fraction * n_tgt)
                out = assoc.prune(syn, fraction)
                for s in range(n_src):
                    kept = np.flatnonzero(out.exists[s])
                    assert kept.size <= quota
                    existing = sorted(
                        syn.weights[s, syn.exists[s]].tolist(), reverse=True
                    )
                    expected = existing[: min(quota, len(existing))]
                    got = sorted(out.weights[s, kept].tolist(), reverse=True)
                    assert got == expected


def golden_versions() -> str:
    """The failure message of a golden digest: the versions it was taken under."""
    versions = {name: importlib.metadata.version(name) for name in ("numpy", "scipy")}
    return f"the digest was taken under numpy 2.4.6 and scipy 1.17.1; this run has {versions}"


# The sha256 of each file test_pipeline_determinism's spec writes.
ARTIFACT_DIGESTS = {
    "som_x_0.rsom": "26e0545256e4da24dce783f5c73681aea97229f9120931628008a711d931f0fb",
    "som_y_0.rsom": "f2f3b64b320a72c8945654cd5a601ebeb32875bbafc9f4d5535ffb292debb9e2",
    "syn_xy_0.rlat": "b52734f4a8c7d2aa1bf06fa4bc985ff2c4524c4e33b957e033f1b4a2339d0efe",
    "syn_xy_raw_0.rlat": "8ea11c6b4fbda880a2bf89c5d2a2dadeb5ffa6bab67fbcb74d85e0579a1251fd",
    "syn_yx_0.rlat": "c268f92a28cccb320ab373ac0e2e497afdedfeb462dc18505c3fe1bb09b18100",
    "syn_yx_raw_0.rlat": "6acddb19065df36a77e49e639635059a8d03aeba13421b6d9ad4927b6de9dc62",
}


def test_pipeline_determinism():
    """Same seed and inputs give the recorded checkpoint and synapse files, bit for bit."""
    with criterion("Determinism"):
        spec = exp.ExperimentSpec(
            classes=4, dim_x=6, dim_y=6, train_per_class=80, test_per_class=20,
            grid_x=(4, 4), grid_y=(4, 4), epochs=3,
            confused_x=((2, 3),), confused_y=((0, 1),), seeds=(0,),
        )
        import tempfile

        digests = []
        for _ in range(2):
            with tempfile.TemporaryDirectory() as tmp:
                exp.run_pipeline(spec, exp.StageCache(None), artifact_dir=tmp)
                digest = {
                    name: hashlib.sha256((Path(tmp) / name).read_bytes()).hexdigest()
                    for name in sorted(os.listdir(tmp))
                }
                digests.append(digest)
        assert digests[0] == digests[1]
        assert digests[0] == ARTIFACT_DIGESTS, golden_versions()


def test_default_spec_content_hash_is_pinned():
    """The default spec over seeds 0-9 reproduces its recorded results."""
    with criterion("Default-spec content hash"):
        result = exp.run_pipeline(exp.ExperimentSpec(seeds=tuple(range(10))), exp.StageCache(None))
        assert result.content_hash() == (
            "9609c3a0ffc7e8c86b1480f92e7f8adec0ce4c827fcf7e7311c65487697375fb"
        ), golden_versions()


def test_digits_sweep_rows_are_pinned(tmp_path):
    """prune_sweep at the digits shape, read from RSM1 files, reproduces its recorded rows."""
    with criterion("Digits-sweep rows"):
        # MNIST and spoken-digit widths, 500 training and 10 000 test pairs.
        shape = synthetic.SyntheticSpec(
            n_classes=10, dim_x=784, dim_y=507, train_per_class=50, test_per_class=1000
        )
        paths = {}
        for split, pairs in zip(("train", "test"), synthetic.make_paired_dataset(shape, 4242)):
            for modality in ("x", "y"):
                paths[f"{modality}_{split}"] = str(tmp_path / f"{modality}_{split}.rsm1")
                save_rsm1(getattr(pairs, modality), paths[f"{modality}_{split}"])
        spec = exp.ExperimentSpec(
            dataset="files", normalize_y="zscore-minmax", **paths,
            grid_x=(10, 10), grid_y=(16, 16), beta_x=10.0, beta_y=10.0, seeds=(4242,),
        )
        rows = exp.prune_sweep(spec, (0.01, 0.02, 0.05, 1.0), cache=exp.StageCache(None))
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "e015a69ef7013752f36aea6396b4e42e69cd431d70419cccb9b4498d77593011"
        ), golden_versions()


# The sha256 of each map's alpha_sweep rows over seeds 0 and 1.
ALPHA_ROWS_DIGESTS = {
    "x": "3450ea8d2a6d6ce1be15e3b1a53891473d6446b931c20dcaeb14b8bb095b33c0",
    "y": "8ee759eaaffbb138ac0ded073189ab331242a3656564c8f628016a4f92280d9c",
}


@pytest.mark.parametrize("modality", ALPHA_ROWS_DIGESTS)
def test_alpha_sweep_rows_are_pinned(modality):
    """alpha_sweep of each map over seeds 0 and 1 reproduces its recorded rows."""
    with criterion(f"Alpha-sweep rows of map {modality}"):
        rows = exp.alpha_sweep(exp.ExperimentSpec(seeds=(0, 1)), (0.5, 1.0, 5.0),
                               modality=modality, cache=exp.StageCache(None))
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            ALPHA_ROWS_DIGESTS[modality]
        ), golden_versions()
