"""The benchmark's three workloads.

Each workload makes its inputs from the workload seed (``setup``), runs them
through the public entry points of ``resom.experiments`` and ``resom.grid``
(``run``, which hands each unit of work to ``measure`` to be timed), and
replays the same computation by calling each layer's public
functions directly, with one span around every call (``replay``).  The
replay must give exactly the outputs of ``run``; ``digest`` is the form in
which the two are compared.

Span names are ``<layer>.<part>``.  A composite is split into its public
parts so that each part lands in its own layer: ``associate`` is two
``bmu_stream`` plus two ``learn_direction`` calls, and
``converge_classify_batch`` is two ``activities_batch`` calls (the afferent
fields) plus ``converge_from_fields`` (the decision).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from resom import association as assoc
from resom import data, grid, inference, labeling, som, synthetic
from resom import experiments as exp

COUNT_KEYS = (
    "som.train_samples",
    "association.synapses_pre",
    "association.synapses_post",
    "inference.pairs",
    "inference.afferent_flop",
    "inference.no_decision",
    "inference.disconnected_y",
    "data.bytes_read",
    "grid.sim_samples",
    "grid.waves",
    "grid.sim_steps",
    "grid.messages",
)


def _zero_counts() -> dict[str, int]:
    return dict.fromkeys(COUNT_KEYS, 0)


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Replay steps shared by the two pipeline workloads
# ---------------------------------------------------------------------------

def _train_map(tr, counts, spec, size, matrix, seed):
    """experiments._train_cached without a cache: train, then encode/decode."""
    schedule = spec.schedule()
    with tr.span("som.train"):
        grid_som = som.make_som(*size, matrix.n_features, seed)
        grid_som = som.train(grid_som, matrix.values, schedule, seed, spec.grid_metric)
    counts["som.train_samples"] += matrix.n_samples * schedule.epochs
    with tr.span("som.roundtrip"):
        return som.roundtrip_som(grid_som)


def _front_end(tr, counts, spec, seed, train_pairs):
    """experiments.build_stages after the data is loaded."""
    base = seed * 1000
    som_x = _train_map(tr, counts, spec, spec.grid_x, train_pairs.x, base + exp.SEED_TRAIN_X)
    som_y = _train_map(tr, counts, spec, spec.grid_y, train_pairs.y, base + exp.SEED_TRAIN_Y)
    with tr.span("labeling.subset"):
        subset_x = labeling.select_label_subset(
            train_pairs.x, spec.label_fraction_x, base + exp.SEED_SUBSET_X
        )
    with tr.span("labeling.label"):
        som_x = labeling.label_som(som_x, subset_x, spec.alpha_x)
    with tr.span("labeling.subset"):
        subset_y = labeling.select_label_subset(
            train_pairs.y, spec.label_fraction_y, base + exp.SEED_SUBSET_Y
        )
    with tr.span("association.bmu_stream"):
        bx, ax = som.bmu_stream(som_x, train_pairs.x.values)
    with tr.span("association.bmu_stream"):
        by, ay = som.bmu_stream(som_y, train_pairs.y_values)
    kx, ky = som_x.n_neurons, som_y.n_neurons
    args = (spec.rule, spec.eta, spec.assoc_epochs)
    with tr.span("association.learn"):
        syn_xy = assoc.learn_direction(kx, ky, bx, ax, by, ay, *args)
    with tr.span("association.learn"):
        syn_yx = assoc.learn_direction(ky, kx, by, ay, bx, ax, *args)
    with tr.span("association.roundtrip"):
        syn_xy = assoc.roundtrip_synapses(syn_xy)
    with tr.span("association.roundtrip"):
        syn_yx = assoc.roundtrip_synapses(syn_yx)
    counts["association.synapses_pre"] += syn_xy.n_synapses + syn_yx.n_synapses
    return som_x, som_y, subset_x, subset_y, syn_xy, syn_yx


def _prune(tr, counts, syn_xy, syn_yx, keep):
    with tr.span("association.prune"):
        syn_xy = assoc.prune(syn_xy, keep)
    with tr.span("association.prune"):
        syn_yx = assoc.prune(syn_yx, keep)
    counts["association.synapses_post"] += syn_xy.n_synapses + syn_yx.n_synapses
    counts["inference.disconnected_y"] += int(inference.disconnected_targets(syn_xy).sum())
    return syn_xy, syn_yx


def _unimodal(tr, grid_som, matrix, n_classes) -> float:
    with tr.span("inference.unimodal"):
        return inference.evaluate_unimodal(grid_som, matrix, n_classes).accuracy


def _converge(tr, counts, som_x, som_y, syn_xy, syn_yx, test_pairs, cfg):
    """inference.evaluate_convergence split into afferent fields and decision."""
    with tr.span("inference.afferent"):
        ax = som.activities_batch(som_x, test_pairs.x.values, cfg.kernel_width_x)
    with tr.span("inference.afferent"):
        ay = som.activities_batch(som_y, test_pairs.y_values, cfg.kernel_width_y)
    with tr.span("inference.decide"):
        batch = inference.converge_from_fields(som_x, som_y, syn_xy, syn_yx, ax, ay, cfg)
    n = test_pairs.n_samples
    counts["inference.pairs"] += n
    counts["inference.afferent_flop"] += n * (
        som_x.n_neurons * som_x.dim + som_y.n_neurons * som_y.dim
    )
    no_decision = int(batch.no_decision.sum())
    counts["inference.no_decision"] += no_decision
    return float(np.mean(batch.labels == test_pairs.x.labels)), no_decision


# ---------------------------------------------------------------------------
# synth-seeds: run_pipeline on the default spec over ten seeds
# ---------------------------------------------------------------------------

class SynthSeeds:
    """The paper's synthetic reproduction as users run it (jobs=1, no cache).

    Workload seed s runs pipeline seeds 10s .. 10s+9, so seed 0 is the
    documented 0..9 sweep.
    """

    name = "synth-seeds"
    n_seeds = 10

    def setup(self, seed, tr):
        first = seed * self.n_seeds
        return exp.ExperimentSpec(seeds=tuple(range(first, first + self.n_seeds)))

    def run(self, spec, measure):
        # One run_pipeline call per seed does the same work as one call over
        # all seeds (it loops over them) and lets the host speed be measured
        # between seeds.
        results = []
        for seed in spec.seeds:
            record, _ = measure(lambda: exp.run_pipeline(
                replace(spec, seeds=(seed,)), cache=exp.StageCache(None), jobs=1
            ))
            results += record.results
        return exp.RunRecord(exp.spec_hash(spec), results, 0.0), {}

    def replay(self, spec, tr):
        counts = _zero_counts()
        results = [self._replay_seed(tr, counts, spec, s) for s in spec.seeds]
        return exp.RunRecord(exp.spec_hash(spec), results, 0.0), counts

    def _replay_seed(self, tr, counts, spec, seed):
        with tr.span("experiments.run_seed"):
            with tr.span("synthetic.generate"):
                train_pairs, test_pairs = synthetic.make_paired_dataset(
                    spec.synthetic_spec(), seed * 1000 + exp.SEED_DATA
                )
            n_classes = train_pairs.x.n_classes
            som_x, som_y, subset_x, subset_y, raw_xy, raw_yx = _front_end(
                tr, counts, spec, seed, train_pairs
            )
            syn_xy, syn_yx = _prune(tr, counts, raw_xy, raw_yx, spec.keep_fraction)
            with tr.span("association.roundtrip"):
                syn_xy = assoc.roundtrip_synapses(syn_xy)
            with tr.span("association.roundtrip"):
                syn_yx = assoc.roundtrip_synapses(syn_yx)
            with tr.span("labeling.label"):
                som_y = labeling.label_som(som_y, subset_y, spec.alpha_y)
            uni_y = _unimodal(tr, som_y, test_pairs.y, n_classes)
            uni_x = _unimodal(tr, som_x, test_pairs.x, n_classes)
            conv, no_decision = _converge(
                tr, counts, som_x, som_y, syn_xy, syn_yx, test_pairs,
                spec.convergence_config(),
            )
        return exp.SeedResult(
            seed=seed, uni_x=uni_x, uni_y=uni_y, uni_y_direct=uni_y,
            uni_y_diverged=None, convergence=conv, n_no_decision=no_decision,
            synapses_xy_pre=raw_xy.n_synapses, synapses_xy_post=syn_xy.n_synapses,
            synapses_yx_pre=raw_yx.n_synapses, synapses_yx_post=syn_yx.n_synapses,
            wall_time=0.0,
        )

    def digest(self, record) -> str:
        return record.content_hash()

    def checks(self, spec, record):
        return [("fusion_gain_positive", self.results(record, {})["fusion_gain_pts"] > 0)]

    def results(self, record, timings):
        best_uni = np.mean([max(r.uni_x, r.uni_y) for r in record.results])
        return {
            "convergence_acc": record.mean,
            "fusion_gain_pts": float(100.0 * (record.mean - best_uni)),
        }


# ---------------------------------------------------------------------------
# digits-sweep: prune_sweep over RSM1 files at MNIST / spoken-digit shape
# ---------------------------------------------------------------------------

class DigitsSweep:
    """run_digits.py plus prune-sweep at digits shape, on generated data."""

    name = "digits-sweep"
    fractions = (0.01, 0.02, 0.05, 1.0)
    shape = synthetic.SyntheticSpec(
        n_classes=10, dim_x=784, dim_y=507, train_per_class=50, test_per_class=1000
    )

    def __init__(self, work_dir: str):
        self.work_dir = work_dir

    def setup(self, seed, tr):
        with tr.span("synthetic.generate"):
            train_pairs, test_pairs = synthetic.make_paired_dataset(self.shape, seed)
        paths = {}
        with tr.span("data.write"):
            for split, pairs in (("train", train_pairs), ("test", test_pairs)):
                for modality in ("x", "y"):
                    path = os.path.join(self.work_dir, f"{modality}_{split}.rsm1")
                    data.save_rsm1(getattr(pairs, modality), path)
                    paths[f"{modality}_{split}"] = path
        return exp.ExperimentSpec(
            dataset="files", normalize_y="zscore-minmax", **paths,
            grid_x=(10, 10), grid_y=(16, 16), epochs=10, beta_x=10.0, beta_y=10.0,
            seeds=(seed,),
        )

    def run(self, spec, measure):
        rows, _ = measure(
            lambda: exp.prune_sweep(spec, self.fractions, cache=exp.StageCache(None))
        )
        return rows, {}

    def replay(self, spec, tr):
        counts = _zero_counts()
        (seed,) = spec.seeds
        base = seed * 1000
        with tr.span("experiments.build_stages"):
            loaded = {}
            for key in ("x_train", "x_test", "y_train", "y_test"):
                path = getattr(spec, key)
                with tr.span("data.load"):
                    loaded[key] = data.load_features(path)
                counts["data.bytes_read"] += os.path.getsize(path)
            with tr.span("data.normalize"):
                y_train, y_test = data.standardize_then_minmax(
                    loaded["y_train"], loaded["y_test"]
                )
            with tr.span("data.pair"):
                train_pairs = data.pair_by_class(
                    loaded["x_train"], y_train, base + exp.SEED_PAIR_TRAIN
                )
            with tr.span("data.pair"):
                test_pairs = data.pair_by_class(
                    loaded["x_test"], y_test, base + exp.SEED_PAIR_TEST
                )
            n_classes = train_pairs.x.n_classes
            som_x, som_y, subset_x, subset_y, raw_xy, raw_yx = _front_end(
                tr, counts, spec, seed, train_pairs
            )
        rows = []
        for fraction in self.fractions:
            with tr.span("experiments.prune_fraction"):
                syn_xy, syn_yx = _prune(tr, counts, raw_xy, raw_yx, fraction)
                with tr.span("inference.diverge"):
                    diverged = inference.diverge_label(
                        som_x, som_y, syn_xy, subset_x, spec.diverge_beta, n_classes
                    )
                div = _unimodal(tr, diverged, test_pairs.y, n_classes)
                with tr.span("labeling.label"):
                    labeled_y = labeling.label_som(som_y, subset_y, spec.alpha_y)
                conv, _ = _converge(
                    tr, counts, som_x, labeled_y, syn_xy, syn_yx, test_pairs,
                    spec.convergence_config(),
                )
            rows.append({
                "keep_fraction": fraction,
                "divergence_mean": float(np.mean([div])),
                "divergence_std": float(np.std([div])),
                "convergence_mean": float(np.mean([conv])),
                "convergence_std": float(np.std([conv])),
                "synapses_xy_post": float(np.mean([syn_xy.n_synapses])),
            })
        return rows, counts

    def digest(self, rows) -> str:
        return hashlib.sha256(repr(rows).encode()).hexdigest()

    def checks(self, spec, rows):
        return [("one_row_per_fraction",
                 [r["keep_fraction"] for r in rows] == list(self.fractions))]

    def results(self, rows, timings):
        return {
            "convergence_acc": float(np.mean([r["convergence_mean"] for r in rows])),
            "divergence_acc": float(np.mean([r["divergence_mean"] for r in rows])),
        }


# ---------------------------------------------------------------------------
# cellular: cellular training and standalone winner waves
# ---------------------------------------------------------------------------

class Cellular:
    """grid.ig_train against som.train, then standalone winner waves."""

    name = "cellular"
    map_size = (8, 8)
    n_rows = 300
    epochs = 2
    n_waves = 500
    wave_chunks = 5
    wave_grid = (16, 16)

    def setup(self, seed, tr):
        with tr.span("synthetic.generate"):
            train_pairs, _ = synthetic.make_paired_dataset(synthetic.SyntheticSpec(), seed)
        x = train_pairs.x.values[: self.n_rows]
        return SimpleNamespace(
            seed=seed,
            x=x,
            initial=som.make_som(*self.map_size, x.shape[1], seed),
            schedule=som.TrainSchedule(epochs=self.epochs),
            activities=np.random.default_rng(seed).random((self.n_waves, *self.wave_grid)),
        )

    def run(self, inp, measure):
        trained, ig_s = measure(
            lambda: grid.ig_train(inp.initial, inp.x, inp.schedule, inp.seed)
        )
        waves, waves_s = [], 0.0
        for chunk in np.split(inp.activities, self.wave_chunks):
            part, t = measure(lambda: [grid.winner_wave(a) for a in chunk])
            waves += part
            waves_s += t
        return (trained, waves), {"ig_train_s": ig_s, "waves_s": waves_s}

    def replay(self, inp, tr):
        counts = _zero_counts()
        with tr.span("grid.ig_train"):
            trained = grid.ig_train(inp.initial, inp.x, inp.schedule, inp.seed)
        waves = []
        for a in inp.activities:
            with tr.span("grid.wave"):
                waves.append(grid.winner_wave(a))
        n_samples = inp.x.shape[0] * inp.schedule.epochs
        train_cost = grid.cost_report(*self.map_size, n_samples)
        wave_cost = grid.cost_report(*self.wave_grid, len(waves))
        counts["grid.sim_samples"] = n_samples
        counts["grid.waves"] = len(waves)
        counts["grid.sim_steps"] = train_cost.total_steps + len(waves) * wave_cost.t_p
        counts["grid.messages"] = (
            n_samples * train_cost.messages_per_wave
            + len(waves) * wave_cost.messages_per_wave
        )
        return (trained, waves), counts

    def digest(self, out) -> str:
        trained, waves = out
        arrays = [trained.weights]
        for w in waves:
            arrays += [w.best_values, w.best_origins, w.worst_values,
                       w.worst_origins, w.distance_to_bmu]
        return _sha(*arrays)

    def checks(self, inp, out):
        trained, waves = out
        reference = som.train(inp.initial, inp.x, inp.schedule, inp.seed, "manhattan")
        checks = [("ig_train_bit_identical",
                   np.array_equal(trained.weights, reference.weights))]
        rows, cols = self.wave_grid
        r, c = np.divmod(np.arange(rows * cols), cols)
        for a, w in zip(inp.activities, waves):
            bmu = int(np.argmax(a))
            manhattan = (np.abs(r - r[bmu]) + np.abs(c - c[bmu])).reshape(rows, cols)
            try:
                ok = (w.bmu_index == bmu and w.wmu_index == int(np.argmin(a))
                      and np.array_equal(w.distance_to_bmu, manhattan))
            except AssertionError:  # raised when the wave left no uniform winner
                ok = False
            checks.append(("wave_matches_argmax", ok))
        return checks

    def results(self, out, timings):
        n_samples = self.n_rows * self.epochs
        return {
            "sim_samples_per_s": n_samples / timings["ig_train_s"],
            "waves_per_s": self.n_waves / timings["waves_s"],
        }


def make(name: str, work_dir: str):
    if name == SynthSeeds.name:
        return SynthSeeds()
    if name == DigitsSweep.name:
        return DigitsSweep(work_dir)
    if name == Cellular.name:
        return Cellular()
    raise KeyError(name)

