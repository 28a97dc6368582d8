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
Every cached stage, the trained maps and the synapses, passes through its
binary file encoding (float32 weights) in ``StageCache.stages``, so a cached
stage and a freshly computed one feed bit-identical state downstream.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import time
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
    class_count,
    encoded,
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


def _spec_keys(config: type, **renamed: str) -> dict[str, str]:
    """Each field of ``config`` and the ExperimentSpec field it is built from:
    the field of the same name, unless ``renamed`` names another."""
    return {f.name: renamed.get(f.name, f.name) for f in fields(config)}


_SCHEDULE_KEYS = _spec_keys(som_mod.TrainSchedule)
_CONVERGENCE_KEYS = _spec_keys(inference.ConvergenceConfig,
                               kernel_width_x="beta_x", kernel_width_y="beta_y")
_SYNTHETIC_KEYS = _spec_keys(synthetic.SyntheticSpec, n_classes="classes")

_DATASET_KEYS = {  # the spec keys only one dataset reads; a files spec needs the first four
    "synthetic": tuple(_SYNTHETIC_KEYS.values()),
    "files": ("x_train", "x_test", "y_train", "y_test", "x_train_labels", "x_test_labels",
              "y_train_labels", "y_test_labels", "normalize_x", "normalize_y"),
}

# The values each choice field of ExperimentSpec accepts.
_FIELD_CHOICES = {
    "dataset": tuple(_DATASET_KEYS),
    "normalize_x": tuple(_NORMALIZERS),
    "normalize_y": tuple(_NORMALIZERS),
    "grid_metric": som_mod.GRID_METRICS,
    "label_mode_y": ("direct", "diverge"),
    "rule": assoc.RULES,
    **inference.CHOICES,
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
    items = text.split(",") if text.strip() else []
    return tuple((int(a), int(b)) for a, b in (item.split(":") for item in items))


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
            grid = getattr(self, name)
            if min(grid) < 1:
                raise SpecError(f"{name} sides must be at least 1, got {grid}")
            # Training's (k, k) tables bound a map well below what RLAT indexes.
            if math.prod(grid) > som_mod.MAX_NEURONS:
                raise SpecError(f"{name} has more than {som_mod.MAX_NEURONS} neurons, "
                                f"whose training tables exceed 512 MiB, got {grid}")
        for name in ("alpha_x", "alpha_y", "diverge_beta", "eta", "keep_fraction"):
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
        for dataset, keys in _DATASET_KEYS.items():
            unread = [key for key in keys if getattr(self, key) != _DEFAULTS[key]]
            if dataset != self.dataset and unread:  # set off its default, and never read
                raise SpecError(f"{self.dataset} dataset reads no {unread[0]}")
        if self.dataset == "files":
            for key in _DATASET_KEYS["files"][:4]:  # the feature files
                if not getattr(self, key):
                    raise SpecError(f"files dataset requires {key}")
        if self.label_mode_y == "direct" and self.label_fraction_y <= 0:
            raise SpecError("direct labeling of map y needs label_fraction_y > 0")
        if self.label_fraction_y <= 0 and self.alpha_y != _DEFAULTS["alpha_y"]:
            raise SpecError("alpha_y labels map y directly, which needs label_fraction_y > 0")
        if self.epochs == 1:  # the one epoch trains at the start rates
            for key in ("lr_end", "sigma_end"):
                if getattr(self, key) != _DEFAULTS[key]:
                    raise SpecError(f"one epoch reads no {key}, only lr_start and sigma_start")
        try:
            self.schedule()
            self.convergence_config()
            self.synthetic_spec()
        except ValueError as e:
            raise SpecError(str(e)) from e

    def _config(self, config: type, keys: dict[str, str]):
        return config(**{name: getattr(self, key) for name, key in keys.items()})

    def schedule(self) -> som_mod.TrainSchedule:
        return self._config(som_mod.TrainSchedule, _SCHEDULE_KEYS)

    def convergence_config(self) -> inference.ConvergenceConfig:
        return self._config(inference.ConvergenceConfig, _CONVERGENCE_KEYS)

    def synthetic_spec(self) -> synthetic.SyntheticSpec:
        return self._config(synthetic.SyntheticSpec, _SYNTHETIC_KEYS)


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
_DEFAULTS = {field.name: field.default for field in fields(ExperimentSpec)}


def format_spec(spec: ExperimentSpec) -> str:
    """Canonical key=value text (also the hashing input)."""
    return "".join(
        f"{name} = {_FIELD_CODECS[name][0](getattr(spec, name))}\n"
        for name in sorted(_FIELD_CODECS)
    )


def parse_spec(text: str) -> ExperimentSpec:
    kwargs, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_CODECS:
            raise SpecError(f"line {lineno}: unknown key {key!r}")
        if key in lines:
            raise SpecError(f"line {lineno}: {key} is set again, first on line {lines[key]}")
        lines[key] = lineno
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

    def key(self, *parts) -> str | None:
        """The key of a stage's input ``parts``.  Without a directory it is
        None, which ``get`` reads as a miss, and nothing is hashed."""
        return _digest(*parts) if self.directory else None

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

    def stages(self, keys: list, compute: Callable, save: Callable) -> list[io.BytesIO]:
        """Each key's stage as a file to decode.  ``compute(missing)`` returns
        the values of the keys that missed, called once and only if one did;
        each is stored as ``encoded(save, value)``, so a fresh stage and a
        stored one are decoded from the same bytes."""
        blobs = [self.get(key) for key in keys]
        missing = [i for i, blob in enumerate(blobs) if blob is None]
        for i, value in zip(missing, compute(missing) if missing else (), strict=True):
            blobs[i] = encoded(save, value)
            self.put(keys[i], blobs[i])
        return [io.BytesIO(blob) for blob in blobs]


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


def _train_cached(
    cache: StageCache,
    maps: list[tuple[tuple[int, int], FeatureMatrix, int, str | None]],
    schedule: som_mod.TrainSchedule,
    grid_metric: str,
) -> list[som_mod.SomGrid]:
    """Train (or fetch) one map per ((width, height), data, seed, data's
    fingerprint) entry; the cache misses train in one ``train_many`` call."""
    keys = [
        cache.key("som", width, height, fingerprint, schedule, seed, grid_metric)
        for (width, height), _, seed, fingerprint in maps
    ]

    def train(missing):
        fresh = [maps[i] for i in missing]
        return som_mod.train_many(
            [som_mod.make_som(*size, data.n_features, seed) for size, data, seed, _ in fresh],
            [data.values for _, data, _, _ in fresh],
            schedule,
            [seed for _, _, seed, _ in fresh],
            grid_metric,
        )

    return [som_mod.load_som(f) for f in cache.stages(keys, train, som_mod.save_som)]


def _associate_cached(
    cache: StageCache,
    som_x: som_mod.SomGrid,
    som_y: som_mod.SomGrid,
    data: SeedData,
    spec: ExperimentSpec,
) -> tuple[assoc.LateralSynapses, assoc.LateralSynapses]:
    """The synapses of ``data``'s training pairs, learned (or fetched)."""
    pairs, fingerprints = data.train, data.fingerprints
    key = cache.key(
        "assoc", som_x.weights, som_y.weights, fingerprints.get("x"), fingerprints.get("y"),
        pairs.pairing, spec.rule, spec.eta, spec.assoc_epochs,
    )

    def save(synapses, f):
        assoc.save_synapses(synapses[0], f, "XY")
        assoc.save_synapses(synapses[1], f, "YX")

    (f,) = cache.stages([key], lambda _: [assoc.associate(
        som_x, som_y, pairs, spec.rule, spec.eta, spec.assoc_epochs)], save)
    return assoc.load_synapses(f)[0], assoc.load_synapses(f)[0]  # XY, then YX


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


@dataclass
class SeedData:
    """One seed's rows and label subsets, drawn before any map trains."""

    seed: int
    train: PairedDataset
    test: PairedDataset
    subsets: dict[str, FeatureMatrix]  # by modality, "x" or "y"
    # The cache-key fingerprints of the trained modalities' rows, by
    # modality; empty without a cache directory.
    fingerprints: dict[str, str]
    # Confusion rows: every map label, direct or diverged, is a class of a
    # label subset, so the test labels and the subsets name every class.
    n_classes: int


def _modality(spec: ExperimentSpec, modality: str) -> tuple[tuple[int, int], float, int, int]:
    """(grid, label fraction, training seed offset, subset seed offset) of map x or y."""
    if modality == "x":
        return spec.grid_x, spec.label_fraction_x, SEED_TRAIN_X, SEED_SUBSET_X
    return spec.grid_y, spec.label_fraction_y, SEED_TRAIN_Y, SEED_SUBSET_Y


def _trained_seeds(
    spec: ExperimentSpec, cache: StageCache, modality: str | None
) -> list[tuple[SeedData, list[som_mod.SomGrid]]]:
    """Every seed's SeedData and trained maps, the last seed first; see run_plan."""
    if modality is None:
        trained = ("x", "y")
        labeled = trained if spec.label_fraction_y > 0 else ("x",)
    else:
        trained = labeled = (modality,)
    pairs = load_dataset(spec)
    # Fingerprints by matrix id: every seed's rows stay alive here, so no id
    # is reused, and a matrix that several seeds share is hashed once.
    known: dict[int, str] = {}
    seeds, entries = [], []
    for seed in spec.seeds:
        train, test = pairs(seed)
        subsets = {}
        for m in labeled:
            _, fraction, _, offset = _modality(spec, m)
            subsets[m] = labeling.select_label_subset(
                getattr(train, m), fraction, seed * 1000 + offset
            )
        fingerprints = {}
        if cache.directory:
            for m in trained:
                rows = getattr(train, m)
                if id(rows) not in known:
                    known[id(rows)] = matrix_fingerprint(rows)
                fingerprints[m] = known[id(rows)]
        n_classes = class_count(test.x.labels, test.y.labels, *(s.labels for s in subsets.values()))
        seeds.append(SeedData(seed, train, test, subsets, fingerprints, n_classes))
        for m in trained:
            grid, _, offset, _ = _modality(spec, m)
            entries.append((grid, getattr(train, m), seed * 1000 + offset, fingerprints.get(m)))
    maps = iter(_train_cached(cache, entries, spec.schedule(), spec.grid_metric))
    return [(data, [next(maps) for _ in trained]) for data in seeds][::-1]


def run_plan(
    spec: ExperimentSpec,
    build: Callable,
    visit: Callable = lambda built: built,
    cache: StageCache | None = None,
    modality: str | None = None,
) -> list:
    """``visit(build(data, maps, cache))`` of each seed, in seed order: the one
    run plan of the pipeline and the sweeps.

    1. ``load_dataset`` reads a files spec's data once per run.
    2. Every seed's label subsets are drawn, so a fraction that selects no
       samples fails before any map trains.
    3. Every seed's maps train in one ``_train_cached`` call: maps x and y,
       or with ``modality`` ("x" or "y") that map alone.  Map x is labeled,
       and map y when label_fraction_y > 0 or it is ``modality``.
    4. ``build`` gets each seed's SeedData, its trained maps and the run's
       stage cache, and ``visit`` what ``build`` returns.  A seed's rows die
       once its ``build`` returns, and its build once its ``visit`` returns,
       so what ``visit`` returns is all that is kept of a seed.
    """
    cache = cache or StageCache.from_env()
    work = _trained_seeds(spec, cache, modality)
    results = []
    while work:
        results.append(visit(build(*work.pop(), cache)))
    return results


@dataclass
class SeedStages:
    """One seed's state up to pruning, which evaluate_seed reads at any keep."""

    seed: int
    test_pairs: PairedDataset
    som_x: som_mod.SomGrid  # labeled
    som_y: som_mod.SomGrid  # labeled from the y subset if one was drawn, else unlabeled
    subset_x: FeatureMatrix
    syn_xy: assoc.LateralSynapses  # unpruned
    syn_yx: assoc.LateralSynapses
    n_classes: int  # confusion rows
    dist_x: np.ndarray  # test_pairs.x rows to som_x's weights
    dist_y: np.ndarray  # test_pairs.y rows (unpaired) to som_y's weights


def build_stages(
    spec: ExperimentSpec, data: SeedData, maps: list[som_mod.SomGrid], cache: StageCache
) -> SeedStages:
    """Label x (and y directly, given a y subset) of a seed's trained maps,
    associate, and measure the test rows' distances to both maps."""
    som_x, som_y = maps
    subset_x, subset_y = data.subsets["x"], data.subsets.get("y")
    som_x = labeling.label_som(som_x, subset_x, spec.alpha_x)
    som_y = som_y if subset_y is None else labeling.label_som(som_y, subset_y, spec.alpha_y)
    syn_xy, syn_yx = _associate_cached(cache, som_x, som_y, data, spec)
    test_pairs = data.test
    return SeedStages(
        data.seed, test_pairs, som_x, som_y, subset_x, syn_xy, syn_yx, data.n_classes,
        som_mod.distances(som_x, test_pairs.x.values),
        som_mod.distances(som_y, test_pairs.y.values),
    )


def seed_stages(
    spec: ExperimentSpec, visit: Callable = lambda stages: stages, cache: StageCache | None = None
) -> list:
    """``visit(stages)`` of each seed's SeedStages, in seed order, by run_plan;
    a ``visit`` that keeps nothing of its stages holds one seed's at a time."""
    return run_plan(spec, partial(build_stages, spec), visit, cache)


def unimodal_accuracies(stages: SeedStages) -> tuple[float, float | None]:
    """Test accuracy of map x and of the directly labeled map y (if any)."""
    test, n = stages.test_pairs, stages.n_classes
    uni_x = inference.unimodal_score(stages.som_x, stages.dist_x, test.x.labels, n).accuracy
    if stages.som_y.labels is None:
        return uni_x, None
    uni_y = inference.unimodal_score(stages.som_y, stages.dist_y, test.y.labels, n)
    return uni_x, uni_y.accuracy


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
        uni_y_diverged = inference.unimodal_score(
            diverged, stages.dist_y, stages.test_pairs.y.labels, stages.n_classes
        ).accuracy
    som_y = diverged if spec.label_mode_y == "diverge" else stages.som_y
    convergence = [
        inference.score_convergence(
            stages.som_x, som_y, syn_xy, syn_yx, stages.test_pairs, stages.dist_x,
            stages.dist_y, cfg, stages.n_classes,
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

    def build(data, maps, cache):
        return time.perf_counter(), build_stages(spec, data, maps, cache)

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

    def build(data: SeedData, maps, cache):
        (grid_som,) = maps
        subset, test = data.subsets[modality], getattr(data.test, modality)
        # Only the labels change with alpha; the test BMUs are computed once.
        bmu, _ = som_mod.bmu_stream(grid_som, test.values)
        return grid_som, subset, bmu, test.labels, data.n_classes

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

    A file with no seed row, a missing report column, or a line that is not
    UTF-8, has the wrong width or holds a report cell that is not a finite
    number in [0, 1] (an accuracy) raises DataFormatError naming the line.
    """
    with open(path, "rb") as f:
        raw = f.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line = raw.count(b"\n", 0, e.start) + 1
        raise DataFormatError(f"{path}: line {line} is not UTF-8 text") from None
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    digest = ""
    if lines and lines[0][1].startswith("# spec_hash="):
        digest = lines.pop(0)[1].split("=", 1)[1]
    if len(lines) < 2:
        raise DataFormatError(f"{path}: record holds no seed rows")
    cols = lines[0][1].split(",")
    missing = [c for c in REPORT_COLUMNS if c not in cols]
    if missing:
        raise DataFormatError(f"{path}: record lacks columns {missing}")
    rows = []
    for n, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(cols):
            raise DataFormatError(f"{path}: line {n} has {len(cells)} cells, not {len(cols)}")
        row = dict(zip(cols, cells))
        for c in REPORT_COLUMNS:
            try:
                row[c] = float(row[c])
            except ValueError:
                row[c] = math.nan
            if not 0 <= row[c] <= 1:  # so neither nan nor inf
                raise DataFormatError(f"{path}: line {n} {c} is not a number in [0, 1]")
        rows.append(row)
    return digest, rows
