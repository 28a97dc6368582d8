"""End-to-end reproduction harness: spec files, stage cache, seed sweeps.

A pipeline run is described by a flat key=value spec (diff-able, hashable)
and executed by one run plan, ``run_plan``: it reads a files spec's data
once, draws every seed's label subsets, trains every seed's maps in one
``som.train_many`` call, then builds each seed in seed order.  A seed is
built and evaluated in two steps: build_stages labels both maps from small
subsets, learns the lateral synapses and computes the test rows' distances
to both maps, once per seed; evaluate_seed prunes the synapses at a keep
fraction, labels map y as the spec says and classifies the test pairs from
those distances, so no keep fraction or labeling of map y recomputes them.
Every stage output passes through its binary file encoding (float32
weights), so a cached stage and a freshly computed one feed bit-identical
state downstream.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import time
import weakref
from dataclasses import dataclass, fields
from functools import partial
from typing import Callable, get_type_hints

import numpy as np

from . import association as assoc
from . import inference, labeling, som as som_mod, synthetic
from .data import (
    DataFormatError,
    FeatureMatrix,
    PairedDataset,
    load_features,
    normalize_minmax,
    opened,
    pair_by_class,
    standardize_then_minmax,
)

CACHE_ENV_VAR = "RESOM_CACHE_DIR"
_CHECK_SIZE = hashlib.sha256().digest_size  # header of every stored cache blob

# Stage-specific offsets keep the per-seed random streams distinct.
SEED_TRAIN_X = 0
SEED_TRAIN_Y = 1
SEED_SUBSET_X = 2
SEED_SUBSET_Y = 3
SEED_PAIR_TRAIN = 4
SEED_PAIR_TEST = 5
SEED_DATA = 6

_NORMALIZERS = {
    "none": lambda train, test: (train, test),
    "minmax": normalize_minmax,
    "zscore-minmax": standardize_then_minmax,
}

# The values each choice field of ExperimentSpec accepts.
_FIELD_CHOICES = {
    "dataset": ("synthetic", "files"),
    "normalize_x": tuple(_NORMALIZERS),
    "normalize_y": tuple(_NORMALIZERS),
    "grid_metric": som_mod.GRID_METRICS,
    "label_mode_y": ("direct", "diverge"),
    "rule": assoc.RULES,
    "update": inference.UPDATES,
    "activities": inference.ACTIVITY_MODES,
    "neurons": inference.NEURON_MODES,
    "disconnected": inference.DISCONNECTED_MODES,
}


class SpecError(ValueError):
    """Invalid experiment spec or run parameter (unknown key, bad value)."""


def parse_grid(text: str) -> tuple[int, int]:
    try:
        w, h = (int(side) for side in text.lower().split("x"))
    except ValueError as e:
        raise SpecError(f"grid must look like 10x10, got {text!r}") from e
    if w < 1 or h < 1:
        raise SpecError(f"grid sides must be at least 1, got {text!r}")
    return w, h


def _parse_pairs(text: str) -> tuple[tuple[int, int], ...]:
    text = text.strip()
    if not text:
        return ()
    out = []
    for item in text.split(","):
        a, b = item.split(":")
        out.append((int(a), int(b)))
    return tuple(out)


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(s) for s in text.split(",") if s.strip())


@dataclass
class ExperimentSpec:
    """Everything needed to rerun a pipeline; see parse_spec for the file form."""

    # data
    dataset: str = "synthetic"  # "synthetic" | "files"
    normalize_x: str = "none"  # "none" | "minmax" | "zscore-minmax", per modality
    normalize_y: str = "none"
    x_train: str = ""
    x_train_labels: str = ""
    x_test: str = ""
    x_test_labels: str = ""
    y_train: str = ""
    y_train_labels: str = ""
    y_test: str = ""
    y_test_labels: str = ""
    # synthetic generator
    classes: int = 6
    dim_x: int = 16
    dim_y: int = 16
    train_per_class: int = 300
    test_per_class: int = 80
    noise: float = 0.07
    min_separation: float = 0.45
    confusion_overlap: float = 0.85
    confused_x: tuple[tuple[int, int], ...] = ((4, 5),)
    confused_y: tuple[tuple[int, int], ...] = ((0, 1), (2, 3))
    # maps
    grid_x: tuple[int, int] = (8, 8)
    grid_y: tuple[int, int] = (8, 8)
    epochs: int = 10
    lr_start: float = 1.0
    lr_end: float = 0.01
    sigma_start: float = 5.0
    sigma_end: float = 0.01
    grid_metric: str = "euclidean"
    # labeling
    label_fraction_x: float = 0.1
    label_fraction_y: float = 0.1
    alpha_x: float = 1.0
    alpha_y: float = 1.0
    label_mode_y: str = "direct"  # "direct" | "diverge"
    diverge_beta: float = 1.0
    # association
    rule: str = "hebb"
    eta: float = 1.0
    assoc_epochs: int = 1
    keep_fraction: float = 0.25
    # convergence
    update: str = "max"
    activities: str = "norm"
    neurons: str = "bmu"
    beta_x: float = 1.0
    beta_y: float = 1.0
    disconnected: str = "zero"
    seeds: tuple[int, ...] = (0,)

    def __post_init__(self):
        """Every run parameter is checked here, so a bad value fails before
        any stage runs; the stepwise CLI flags build a spec too."""
        for name in _FLOAT_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise SpecError(f"{name} must be finite, got {getattr(self, name)}")
        for name, allowed in _FIELD_CHOICES.items():
            if getattr(self, name) not in allowed:
                raise SpecError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
        for name in ("grid_x", "grid_y"):
            if min(getattr(self, name)) < 1:
                raise SpecError(f"{name} sides must be at least 1, got {getattr(self, name)}")
        for name in ("alpha_x", "alpha_y", "diverge_beta", "keep_fraction"):
            if not getattr(self, name) > 0:
                raise SpecError(f"{name} must be > 0, got {getattr(self, name)}")
        if not 0 < self.label_fraction_x <= 1:
            raise SpecError(f"label_fraction_x must be in (0, 1], got {self.label_fraction_x}")
        if not 0 <= self.label_fraction_y <= 1:
            raise SpecError(f"label_fraction_y must be in [0, 1], got {self.label_fraction_y}")
        if self.assoc_epochs < 1:
            raise SpecError(f"assoc_epochs must be >= 1, got {self.assoc_epochs}")
        if not self.seeds:
            raise SpecError("at least one seed required")
        if min(self.seeds) < 0 or len(set(self.seeds)) < len(self.seeds):
            raise SpecError(f"seeds must be distinct and non-negative, got {self.seeds}")
        if self.dataset == "files":
            for key in ("x_train", "x_test", "y_train", "y_test"):
                if not getattr(self, key):
                    raise SpecError(f"files dataset requires {key}")
        if self.label_mode_y == "direct" and self.label_fraction_y <= 0:
            raise SpecError("direct labeling of map y needs label_fraction_y > 0")
        try:
            self.schedule()
            self.convergence_config()
            if self.dataset == "synthetic":
                self.synthetic_spec()
        except ValueError as e:
            raise SpecError(str(e)) from e

    def schedule(self) -> som_mod.TrainSchedule:
        return som_mod.TrainSchedule(
            self.epochs, self.lr_start, self.lr_end, self.sigma_start, self.sigma_end
        )

    def convergence_config(self) -> inference.ConvergenceConfig:
        return inference.ConvergenceConfig(
            update=self.update,
            activities=self.activities,
            neurons=self.neurons,
            kernel_width_x=self.beta_x,
            kernel_width_y=self.beta_y,
            disconnected=self.disconnected,
        )

    def synthetic_spec(self) -> synthetic.SyntheticSpec:
        return synthetic.SyntheticSpec(
            n_classes=self.classes,
            dim_x=self.dim_x,
            dim_y=self.dim_y,
            train_per_class=self.train_per_class,
            test_per_class=self.test_per_class,
            noise=self.noise,
            min_separation=self.min_separation,
            confusion_overlap=self.confusion_overlap,
            confused_x=self.confused_x,
            confused_y=self.confused_y,
        )


# (format, parse) per field type.  format_spec's text is the spec_hash input,
# so a format may never change.
_CODECS = {
    str: (str, str),
    int: (str, int),
    float: (str, float),
    tuple[int, int]: (lambda v: f"{v[0]}x{v[1]}", parse_grid),
    tuple[tuple[int, int], ...]: (
        lambda v: ",".join(f"{a}:{b}" for a, b in v), _parse_pairs
    ),
    tuple[int, ...]: (lambda v: ",".join(str(s) for s in v), _parse_ints),
}
_FIELD_CODECS = {
    name: _CODECS[typ] for name, typ in get_type_hints(ExperimentSpec).items()
}


_FLOAT_FIELDS = tuple(
    name for name, typ in get_type_hints(ExperimentSpec).items() if typ is float
)


def format_spec(spec: ExperimentSpec) -> str:
    """Canonical key=value text (also the hashing input)."""
    return "".join(
        f"{name} = {_FIELD_CODECS[name][0](getattr(spec, name))}\n"
        for name in sorted(_FIELD_CODECS)
    )


def parse_spec(text: str) -> ExperimentSpec:
    kwargs = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_CODECS:
            raise SpecError(f"line {lineno}: unknown key {key!r}")
        try:
            kwargs[key] = _FIELD_CODECS[key][1](value)
        except SpecError:
            raise
        except ValueError as e:
            raise SpecError(f"line {lineno}: {key} = {value!r}: {e}") from e
    return ExperimentSpec(**kwargs)


def load_spec(path) -> ExperimentSpec:
    with open(path) as f:
        return parse_spec(f.read())


def spec_hash(spec: ExperimentSpec) -> str:
    return hashlib.sha256(format_spec(spec).encode()).hexdigest()


def write_metrics(metrics: dict, path_or_file) -> None:
    """Line-oriented key=value text, keys sorted."""
    with opened(path_or_file, "w") as f:
        for key in sorted(metrics):
            f.write(f"{key}={metrics[key]}\n")


# ---------------------------------------------------------------------------
# Stage cache (content-addressed)
# ---------------------------------------------------------------------------

class StageCache:
    """Byte blobs keyed by content hashes of their inputs.

    A stored file is the sha256 digest of the blob followed by the blob.  It
    is written through ``opened``, which renames a whole file into place, so
    runs sharing one directory never read a half-written file; a short or
    corrupt file reads as a miss, and the stage is recomputed and rewritten.
    """

    def __init__(self, directory: str | None):
        self.directory = directory
        if directory:
            os.makedirs(directory, exist_ok=True)

    @staticmethod
    def from_env() -> "StageCache":
        return StageCache(os.environ.get(CACHE_ENV_VAR))

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".bin")

    def get(self, key: str) -> bytes | None:
        if not self.directory:
            return None
        try:
            with open(self._path(key), "rb") as f:
                stored = f.read()
        except FileNotFoundError:
            return None
        digest, blob = stored[:_CHECK_SIZE], stored[_CHECK_SIZE:]
        return blob if hashlib.sha256(blob).digest() == digest else None

    def put(self, key: str, blob: bytes) -> None:
        if not self.directory:
            return
        with opened(self._path(key), "wb") as f:
            f.write(hashlib.sha256(blob).digest())
            f.write(blob)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(str(p).encode())
        h.update(b"|")
    return h.hexdigest()


def matrix_fingerprint(m: FeatureMatrix) -> str:
    return _digest(m.values, m.labels if m.labels is not None else b"")


class _Keys:
    """The stage cache of one run and the keys of its stages.

    Without a cache directory every key is None, which StageCache reads as a
    miss, and nothing is hashed.  With one, a FeatureMatrix part of a key is
    fingerprinted once per run, however many maps and seeds use it.
    """

    def __init__(self, cache: StageCache):
        self.cache = cache
        # id -> (weak reference, fingerprint); the reference tells a live
        # matrix from a later one given the same id.
        self._fingerprints: dict[int, tuple[weakref.ref, str]] = {}

    def __call__(self, *parts) -> str | None:
        if not self.cache.directory:
            return None
        return _digest(*(self._fingerprint(p) if isinstance(p, FeatureMatrix) else p
                         for p in parts))

    def _fingerprint(self, m: FeatureMatrix) -> str:
        ref, digest = self._fingerprints.get(id(m), (None, ""))
        if ref is None or ref() is not m:
            digest = matrix_fingerprint(m)
            self._fingerprints[id(m)] = weakref.ref(m), digest
        return digest


def _train_cached(
    keys: _Keys,
    maps: list[tuple[tuple[int, int], FeatureMatrix, int]],
    schedule: som_mod.TrainSchedule,
    grid_metric: str,
) -> list[som_mod.SomGrid]:
    """Train (or fetch) one map per ((width, height), data, seed) entry.

    The cache misses are trained by a single ``train_many`` call; every map
    comes back checkpoint-encoded.
    """
    map_keys = [
        keys("som", width, height, data, schedule, seed, grid_metric)
        for (width, height), data, seed in maps
    ]
    blobs = [keys.cache.get(key) for key in map_keys]
    missing = [i for i, blob in enumerate(blobs) if blob is None]
    fresh = [maps[i] for i in missing]
    trained = som_mod.train_many(
        [som_mod.make_som(*size, data.n_features, seed) for size, data, seed in fresh],
        [data.values for _, data, _ in fresh],
        schedule,
        [seed for _, _, seed in fresh],
        grid_metric,
    )
    for i, grid in zip(missing, trained):
        buf = io.BytesIO()
        som_mod.save_som(grid, buf)
        blobs[i] = buf.getvalue()
        keys.cache.put(map_keys[i], blobs[i])
    return [som_mod.load_som(io.BytesIO(blob)) for blob in blobs]


def _associate_cached(
    keys: _Keys,
    som_x: som_mod.SomGrid,
    som_y: som_mod.SomGrid,
    pairs: PairedDataset,
    spec: ExperimentSpec,
) -> tuple[assoc.LateralSynapses, assoc.LateralSynapses]:
    key = keys(
        "assoc", som_x.weights, som_y.weights, pairs.x, pairs.y, pairs.pairing,
        spec.rule, spec.eta, spec.assoc_epochs,
    )
    blob = keys.cache.get(key)
    if blob is None:
        syn_xy, syn_yx = assoc.associate(
            som_x, som_y, pairs, spec.rule, spec.eta, spec.assoc_epochs
        )
        buf = io.BytesIO()
        assoc.save_synapses(syn_xy, buf, "XY")
        assoc.save_synapses(syn_yx, buf, "YX")
        blob = buf.getvalue()
        keys.cache.put(key, blob)
    buf = io.BytesIO(blob)
    syn_xy, _ = assoc.load_synapses(buf)
    syn_yx, _ = assoc.load_synapses(buf)
    return syn_xy, syn_yx


# ---------------------------------------------------------------------------
# Run plan and pipeline
# ---------------------------------------------------------------------------

@dataclass
class SeedResult:
    seed: int
    uni_x: float
    uni_y: float
    uni_y_direct: float | None
    uni_y_diverged: float | None
    convergence: float
    n_no_decision: int
    synapses_xy_pre: int
    synapses_xy_post: int
    synapses_yx_pre: int
    synapses_yx_post: int
    wall_time: float


RECORD_COLUMNS = tuple(f.name for f in fields(SeedResult))
# The record columns ``resom report`` aggregates.
REPORT_COLUMNS = ("convergence", "uni_x", "uni_y")


@dataclass
class RunRecord:
    spec_digest: str
    results: list[SeedResult]
    wall_time: float

    @property
    def accuracies(self) -> np.ndarray:
        return np.array([r.convergence for r in self.results])

    @property
    def mean(self) -> float:
        return float(self.accuracies.mean())

    @property
    def std(self) -> float:
        return float(self.accuracies.std())

    def content_hash(self) -> str:
        """Hash of everything except wall times (those vary run to run)."""
        parts = [self.spec_digest]
        for r in sorted(self.results, key=lambda r: r.seed):
            parts.extend(getattr(r, c) for c in RECORD_COLUMNS if c != "wall_time")
        return _digest(*parts)


def gain_over_best_unimodal(convergence, uni_x, uni_y) -> float:
    """Mean convergence accuracy minus the mean over seeds of the better
    unimodal map's accuracy; each argument holds one accuracy per seed."""
    return float(np.mean(convergence) - np.mean(np.maximum(uni_x, uni_y)))


def load_dataset(spec: ExperimentSpec) -> Callable[[int], tuple[PairedDataset, PairedDataset]]:
    """The (train, test) pairs of a run as a function of the seed.

    A files spec's four feature files are read, checked (a test file must
    be as wide as its training file) and normalized here, once per run; per
    seed only the pairing is drawn.  A synthetic spec is generated per seed.
    """
    if spec.dataset == "synthetic":
        synth = spec.synthetic_spec()
        return lambda seed: synthetic.make_paired_dataset(synth, seed * 1000 + SEED_DATA)
    x_train = load_features(spec.x_train, spec.x_train_labels or None)
    y_train = load_features(spec.y_train, spec.y_train_labels or None)
    x_test = load_features(spec.x_test, spec.x_test_labels or None, x_train.n_features)
    y_test = load_features(spec.y_test, spec.y_test_labels or None, y_train.n_features)
    x_train, x_test = _NORMALIZERS[spec.normalize_x](x_train, x_test)
    y_train, y_test = _NORMALIZERS[spec.normalize_y](y_train, y_test)
    return lambda seed: (
        pair_by_class(x_train, y_train, seed * 1000 + SEED_PAIR_TRAIN),
        pair_by_class(x_test, y_test, seed * 1000 + SEED_PAIR_TEST),
    )


def digits_spec(data_dir, seeds: tuple[int, ...] = tuple(range(10))) -> ExperimentSpec:
    """The paper's written/spoken digits run on the files under ``data_dir``.

    The file layout is in the README; every other field keeps its default,
    which is the paper's value.
    """
    mnist = os.path.join(data_dir, "mnist", "")
    digits = os.path.join(data_dir, "digits", "")
    return ExperimentSpec(
        dataset="files", normalize_y="zscore-minmax",  # MFCC rows; pixels stay at /255
        x_train=mnist + "train-images-idx3-ubyte", x_train_labels=mnist + "train-labels-idx1-ubyte",
        x_test=mnist + "t10k-images-idx3-ubyte", x_test_labels=mnist + "t10k-labels-idx1-ubyte",
        y_train=digits + "smnist_train.rsm1", y_test=digits + "smnist_test.rsm1",
        grid_x=(10, 10), grid_y=(16, 16), label_fraction_x=0.01, alpha_y=0.1,
        keep_fraction=0.1, beta_x=10.0, beta_y=10.0, seeds=tuple(seeds),
    )


@dataclass
class SeedData:
    """One seed's rows and label subsets, drawn before any map trains."""

    seed: int
    train: PairedDataset
    test: PairedDataset
    subsets: dict[str, FeatureMatrix]  # by modality, "x" or "y"


def _modality(spec: ExperimentSpec, modality: str) -> tuple[tuple[int, int], float, int, int]:
    """(grid, label fraction, training seed offset, subset seed offset) of map x or y."""
    if modality == "x":
        return spec.grid_x, spec.label_fraction_x, SEED_TRAIN_X, SEED_SUBSET_X
    return spec.grid_y, spec.label_fraction_y, SEED_TRAIN_Y, SEED_SUBSET_Y


def _trained_seeds(
    spec: ExperimentSpec, keys: _Keys, modality: str | None
) -> list[tuple[SeedData, list[som_mod.SomGrid]]]:
    """Every seed's SeedData and trained maps, the last seed first; see run_plan."""
    if modality is None:
        trained = ("x", "y")
        labeled = trained if spec.label_fraction_y > 0 else ("x",)
    else:
        trained = labeled = (modality,)
    pairs = load_dataset(spec)
    seeds, entries = [], []
    for seed in spec.seeds:
        train, test = pairs(seed)
        subsets = {}
        for m in labeled:
            _, fraction, _, offset = _modality(spec, m)
            subsets[m] = labeling.select_label_subset(
                getattr(train, m), fraction, seed * 1000 + offset
            )
        seeds.append(SeedData(seed, train, test, subsets))
        for m in trained:
            grid, _, offset, _ = _modality(spec, m)
            entries.append((grid, getattr(train, m), seed * 1000 + offset))
    maps = iter(_train_cached(keys, entries, spec.schedule(), spec.grid_metric))
    return [(data, [next(maps) for _ in trained]) for data in seeds][::-1]


def run_plan(
    spec: ExperimentSpec,
    build: Callable,
    visit: Callable = lambda built: built,
    cache: StageCache | None = None,
    modality: str | None = None,
) -> list:
    """``visit(build(data, maps, keys))`` of each seed, in seed order: the one
    run plan of the pipeline and the sweeps.

    1. ``load_dataset`` reads a files spec's data once per run.
    2. Every seed's label subsets are drawn, so a fraction that selects no
       samples fails before any map trains.
    3. Every seed's maps train in one ``_train_cached`` call: maps x and y,
       or with ``modality`` ("x" or "y") that map alone.  Map x is labeled,
       and map y when label_fraction_y > 0 or it is ``modality``.
    4. ``build`` gets each seed's SeedData, its trained maps and the run's
       cache keys, and ``visit`` what ``build`` returns.  A seed's rows die
       once its ``build`` returns, and its build once its ``visit`` returns,
       so what ``visit`` returns is all that is kept of a seed.
    """
    keys = _Keys(cache or StageCache.from_env())
    work = _trained_seeds(spec, keys, modality)
    results = []
    while work:
        results.append(visit(build(*work.pop(), keys)))
    return results


@dataclass
class SeedStages:
    """One seed's state up to pruning, which evaluate_seed reads at any keep."""

    seed: int
    test_pairs: PairedDataset
    som_x: som_mod.SomGrid  # labeled
    som_y: som_mod.SomGrid  # unlabeled
    som_y_direct: som_mod.SomGrid | None  # labeled from the y subset, if any
    subset_x: FeatureMatrix
    syn_xy: assoc.LateralSynapses  # unpruned
    syn_yx: assoc.LateralSynapses
    n_classes: int  # confusion rows
    dist_x: np.ndarray  # test_pairs.x rows to som_x's weights
    dist_y: np.ndarray  # test_pairs.y rows (unpaired) to som_y's weights


def build_stages(
    spec: ExperimentSpec, data: SeedData, maps: list[som_mod.SomGrid], keys: _Keys
) -> SeedStages:
    """Label x (and y directly, given a y subset) of a seed's trained maps,
    associate, and measure the test rows' distances to both maps."""
    som_x, som_y = maps
    subset_x, subset_y = data.subsets["x"], data.subsets.get("y")
    som_x = labeling.label_som(som_x, subset_x, spec.alpha_x)
    som_y_direct = None if subset_y is None else labeling.label_som(som_y, subset_y, spec.alpha_y)
    syn_xy, syn_yx = _associate_cached(keys, som_x, som_y, data.train, spec)
    test_pairs = data.test
    # Every map label, direct or diverged, is a class of a label subset.
    n_classes = inference.class_count(
        test_pairs.x.labels, test_pairs.y.labels, *(s.labels for s in data.subsets.values())
    )
    return SeedStages(
        data.seed, test_pairs, som_x, som_y, som_y_direct, subset_x, syn_xy, syn_yx, n_classes,
        som_mod.distances(som_x, test_pairs.x.values),
        som_mod.distances(som_y, test_pairs.y.values),
    )


def seed_stages(
    spec: ExperimentSpec, visit: Callable = lambda stages: stages, cache: StageCache | None = None
) -> list:
    """``visit(stages)`` of each seed's SeedStages, in seed order, by run_plan;
    a ``visit`` that keeps nothing of its stages holds one seed's at a time."""
    return run_plan(spec, partial(build_stages, spec), visit, cache)


def _unimodal_accuracy(stages: SeedStages, som: som_mod.SomGrid, modality: str) -> float:
    """Test accuracy of a labeling of som_x or som_y (modality "x" or "y")."""
    dist = stages.dist_x if modality == "x" else stages.dist_y
    true = getattr(stages.test_pairs, modality).labels
    return inference.score(som.labels[np.argmin(dist, axis=1)], true, stages.n_classes).accuracy


def unimodal_accuracies(stages: SeedStages) -> tuple[float, float | None]:
    """Test accuracy of map x and of the directly labeled map y (if any)."""
    uni_x = _unimodal_accuracy(stages, stages.som_x, "x")
    if stages.som_y_direct is None:
        return uni_x, None
    return uni_x, _unimodal_accuracy(stages, stages.som_y_direct, "y")


@dataclass
class SeedEval:
    """A built seed evaluated at one keep fraction."""

    syn_xy: assoc.LateralSynapses  # pruned
    syn_yx: assoc.LateralSynapses
    som_y: som_mod.SomGrid  # map y as labeled for convergence
    uni_y_diverged: float | None
    convergence: list[inference.Score]  # one per config


def evaluate_seed(
    spec: ExperimentSpec, stages: SeedStages, keep_fraction: float, configs,
    diverge: bool = False,
) -> SeedEval:
    """Prune both directions, label map y and classify the test pairs.

    Map y is labeled as ``spec.label_mode_y`` says: directly (done once in
    build_stages) or by divergence through the pruned x->y synapses.  With
    ``diverge`` the divergence labeling is also done in direct mode, for its
    accuracy.  Convergence runs once per config in ``configs``.
    """
    syn_xy = assoc.prune(stages.syn_xy, keep_fraction)
    syn_yx = assoc.prune(stages.syn_yx, keep_fraction)
    diverged = uni_y_diverged = None
    if diverge or spec.label_mode_y == "diverge":
        diverged = inference.diverge_label(
            stages.som_x, stages.som_y, syn_xy, stages.subset_x,
            spec.diverge_beta, stages.n_classes,
        )
        uni_y_diverged = _unimodal_accuracy(stages, diverged, "y")
    som_y = diverged if spec.label_mode_y == "diverge" else stages.som_y_direct
    test = stages.test_pairs
    convergence = [
        inference.score_convergence(
            stages.som_x, som_y, syn_xy, syn_yx, stages.dist_x, stages.dist_y[test.pairing],
            test.x.labels, cfg, stages.n_classes,
        )
        for cfg in configs
    ]
    return SeedEval(syn_xy, syn_yx, som_y, uni_y_diverged, convergence)


def _seed_result(
    spec: ExperimentSpec, started: float, stages: SeedStages, artifact_dir: str | None
) -> SeedResult:
    """A built seed evaluated at the spec's keep fraction; optionally dump
    artifact files.  ``started`` is when the seed's build began."""
    ev = evaluate_seed(spec, stages, spec.keep_fraction, [spec.convergence_config()])
    (conv,) = ev.convergence
    uni_x, uni_y_direct = unimodal_accuracies(stages)
    seed = stages.seed

    if artifact_dir:
        som_mod.save_som(stages.som_x, os.path.join(artifact_dir, f"som_x_{seed}.rsom"))
        som_mod.save_som(ev.som_y, os.path.join(artifact_dir, f"som_y_{seed}.rsom"))
        assoc.save_synapses(stages.syn_xy, os.path.join(artifact_dir, f"syn_xy_raw_{seed}.rlat"), "XY")
        assoc.save_synapses(stages.syn_yx, os.path.join(artifact_dir, f"syn_yx_raw_{seed}.rlat"), "YX")
        assoc.save_synapses(ev.syn_xy, os.path.join(artifact_dir, f"syn_xy_{seed}.rlat"), "XY")
        assoc.save_synapses(ev.syn_yx, os.path.join(artifact_dir, f"syn_yx_{seed}.rlat"), "YX")

    uni_y = ev.uni_y_diverged if spec.label_mode_y == "diverge" else uni_y_direct
    return SeedResult(
        seed=seed,
        uni_x=uni_x,
        uni_y=float(uni_y),
        uni_y_direct=uni_y_direct,
        uni_y_diverged=ev.uni_y_diverged,
        convergence=conv.accuracy,
        n_no_decision=conv.n_no_decision,
        synapses_xy_pre=stages.syn_xy.n_synapses,
        synapses_xy_post=ev.syn_xy.n_synapses,
        synapses_yx_pre=stages.syn_yx.n_synapses,
        synapses_yx_post=ev.syn_yx.n_synapses,
        wall_time=time.perf_counter() - started,
    )


def run_pipeline(
    spec: ExperimentSpec,
    cache: StageCache | None = None,
    jobs: int = 1,
    artifact_dir: str | None = None,
) -> RunRecord:
    """Every seed of a spec by run_plan, each evaluated at the spec's keep
    fraction.  A seed's wall time spans its build and evaluation; the
    record's, the whole run with the training of every map."""
    # Every seed runs in this process; ``jobs`` stays because the benchmark passes jobs=1.
    if jobs != 1:
        raise SpecError(f"jobs must be 1, got {jobs}")
    started = time.perf_counter()
    if artifact_dir:
        os.makedirs(artifact_dir, exist_ok=True)

    def build(data, maps, keys):
        return time.perf_counter(), build_stages(spec, data, maps, keys)

    results = run_plan(
        spec, build, lambda built: _seed_result(spec, *built, artifact_dir), cache
    )
    return RunRecord(spec_hash(spec), results, time.perf_counter() - started)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def _require_positive(name: str, values) -> None:
    """Refuse a sweep's values before any training, not at their first use."""
    for v in values:
        if not 0 < v < math.inf:
            raise SpecError(f"{name} must be positive and finite, got {v}")


def prune_sweep(
    spec: ExperimentSpec, fractions: tuple[float, ...], cache: StageCache | None = None,
    per_seed: list[SeedStages] | None = None,
) -> list[dict]:
    """Divergence and convergence accuracy per keep fraction.

    Each seed is built (or taken from ``per_seed``) and evaluated at every
    fraction before the next seed is built, so one seed's stages are alive at
    a time; convergence labels map y as ``spec.label_mode_y`` says.
    """
    _require_positive("keep fractions", fractions)
    configs = [spec.convergence_config()]

    def measure(stages: SeedStages) -> list[tuple[float, float, int]]:
        evals = (evaluate_seed(spec, stages, f, configs, diverge=True) for f in fractions)
        return [(ev.uni_y_diverged, ev.convergence[0].accuracy, ev.syn_xy.n_synapses)
                for ev in evals]

    if per_seed is None:
        cells = seed_stages(spec, measure, cache)
    else:
        cells = [measure(stages) for stages in per_seed]
    rows = []
    for fraction, per_fraction in zip(fractions, zip(*cells)):
        div, conv, post = zip(*per_fraction)
        rows.append({
            "keep_fraction": fraction,
            "divergence_mean": float(np.mean(div)),
            "divergence_std": float(np.std(div)),
            "convergence_mean": float(np.mean(conv)),
            "convergence_std": float(np.std(conv)),
            "synapses_xy_post": float(np.mean(post)),
        })
    return rows


def alpha_sweep(
    spec: ExperimentSpec,
    alphas: tuple[float, ...],
    modality: str = "x",
    cache: StageCache | None = None,
) -> list[dict]:
    """Unimodal test accuracy of one map across labeling kernel widths."""
    if modality not in ("x", "y"):
        raise SpecError("modality must be x or y")
    _require_positive("alphas", alphas)

    def build(data: SeedData, maps, keys):
        (grid_som,) = maps
        subset, test = data.subsets[modality], getattr(data.test, modality)
        # Only the labels change with alpha; the test BMUs are computed once.
        bmu = np.argmin(som_mod.distances(grid_som, test.values), axis=1)
        return grid_som, subset, bmu, test.labels, inference.class_count(test.labels, subset.labels)

    per_seed = run_plan(spec, build, cache=cache, modality=modality)
    rows = []
    for alpha in alphas:
        accs = [
            inference.score(
                labeling.label_som(grid_som, subset, alpha).labels[bmu], true, n_classes
            ).accuracy
            for grid_som, subset, bmu, true, n_classes in per_seed
        ]
        rows.append({
            "alpha": alpha,
            "accuracy_mean": float(np.mean(accs)),
            "accuracy_std": float(np.std(accs)),
        })
    return rows


# ---------------------------------------------------------------------------
# CSV records
# ---------------------------------------------------------------------------


def write_record_csv(record: RunRecord, path_or_file) -> None:
    with opened(path_or_file, "w") as f:
        f.write("# spec_hash=" + record.spec_digest + "\n")
        f.write(",".join(RECORD_COLUMNS) + "\n")
        for r in record.results:
            f.write(",".join(str(getattr(r, c)) for c in RECORD_COLUMNS) + "\n")


def write_rows_csv(rows: list[dict], path_or_file) -> None:
    if not rows:
        raise ValueError("nothing to write")
    cols = list(rows[0])
    with opened(path_or_file, "w") as f:
        f.write(",".join(cols) + "\n")
        for row in rows:
            f.write(",".join(str(row[c]) for c in cols) + "\n")


def read_record_csv(path) -> tuple[str, list[dict]]:
    """(spec hash, one dict per seed row) of a ``write_record_csv`` file, with
    the REPORT_COLUMNS parsed as floats and the other cells as text.

    A file with no seed row, a row of the wrong width, a missing report
    column or a cell in one that is not a number raises DataFormatError.
    """
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    digest = ""
    if lines and lines[0].startswith("# spec_hash="):
        digest = lines.pop(0).split("=", 1)[1]
    if len(lines) < 2:
        raise DataFormatError(f"{path}: record holds no seed rows")
    cols = lines[0].split(",")
    missing = [c for c in REPORT_COLUMNS if c not in cols]
    if missing:
        raise DataFormatError(f"{path}: record lacks columns {missing}")
    rows = []
    for lineno, line in enumerate(lines[1:], 2):
        cells = line.split(",")
        if len(cells) != len(cols):
            raise DataFormatError(f"{path}: row {lineno} has {len(cells)} cells, not {len(cols)}")
        row = dict(zip(cols, cells))
        for c in REPORT_COLUMNS:
            try:
                row[c] = float(row[c])
            except ValueError:
                raise DataFormatError(f"{path}: row {lineno} {c} is not a number") from None
        rows.append(row)
    return digest, rows
