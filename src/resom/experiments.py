"""End-to-end reproduction harness: spec files, stage cache, seed sweeps.

A pipeline run is described by a flat key=value spec (diff-able, hashable)
and executed independently per seed: train both maps, label map x from a
small subset, learn and prune lateral synapses, label map y directly and/or
by divergence, then evaluate unimodal and convergence accuracy on the test
pairs.  Every stage output passes through its binary file encoding (float32
weights), so a cached stage and a freshly computed one feed bit-identical
state downstream.
"""

from __future__ import annotations

import hashlib
import io
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from . import association as assoc
from . import inference, labeling, som as som_mod, synthetic
from .data import (
    FeatureMatrix,
    PairedDataset,
    load_features,
    normalize_minmax,
    pair_by_class,
    standardize_then_minmax,
)

CACHE_ENV_VAR = "RESOM_CACHE_DIR"

# Stage-specific offsets keep the per-seed random streams distinct.
SEED_TRAIN_X = 0
SEED_TRAIN_Y = 1
SEED_SUBSET_X = 2
SEED_SUBSET_Y = 3
SEED_PAIR_TRAIN = 4
SEED_PAIR_TEST = 5
SEED_DATA = 6


class SpecError(ValueError):
    """Invalid experiment spec (unknown key, bad value, missing file)."""


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError as e:
        raise SpecError(f"grid must look like 10x10, got {text!r}") from e


def _parse_pairs(text: str) -> tuple[tuple[int, int], ...]:
    text = text.strip()
    if not text:
        return ()
    out = []
    for item in text.split(","):
        a, b = item.split(":")
        out.append((int(a), int(b)))
    return tuple(out)


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
        if self.dataset not in ("synthetic", "files"):
            raise SpecError(f"dataset must be synthetic or files, got {self.dataset!r}")
        for mode in (self.normalize_x, self.normalize_y):
            if mode not in ("none", "minmax", "zscore-minmax"):
                raise SpecError(f"unknown normalize mode {mode!r}")
        if self.label_mode_y not in ("direct", "diverge"):
            raise SpecError(f"unknown label_mode_y {self.label_mode_y!r}")
        if self.rule not in assoc.RULES:
            raise SpecError(f"rule must be one of {assoc.RULES}")
        if not self.seeds:
            raise SpecError("at least one seed required")
        if self.dataset == "files":
            for key in ("x_train", "x_test", "y_train", "y_test"):
                if not getattr(self, key):
                    raise SpecError(f"files dataset requires {key}")
        if self.label_mode_y == "direct" and self.label_fraction_y <= 0:
            raise SpecError("direct labeling of map y needs label_fraction_y > 0")

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


def format_spec(spec: ExperimentSpec) -> str:
    """Canonical key=value text (also the hashing input)."""
    lines = []
    for f in sorted(fields(ExperimentSpec), key=lambda f: f.name):
        v = getattr(spec, f.name)
        if f.name in ("grid_x", "grid_y"):
            v = f"{v[0]}x{v[1]}"
        elif f.name in ("confused_x", "confused_y"):
            v = ",".join(f"{a}:{b}" for a, b in v)
        elif f.name == "seeds":
            v = ",".join(str(s) for s in v)
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def parse_spec(text: str) -> ExperimentSpec:
    field_types = {f.name: f for f in fields(ExperimentSpec)}
    kwargs = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in field_types:
            raise SpecError(f"line {lineno}: unknown key {key!r}")
        if key in ("grid_x", "grid_y"):
            kwargs[key] = _parse_grid(value)
        elif key in ("confused_x", "confused_y"):
            kwargs[key] = _parse_pairs(value)
        elif key == "seeds":
            kwargs[key] = tuple(int(s) for s in value.split(",") if s.strip())
        else:
            typ = field_types[key].type
            if typ == "int":
                kwargs[key] = int(value)
            elif typ == "float":
                kwargs[key] = float(value)
            else:
                kwargs[key] = value
    return ExperimentSpec(**kwargs)


def load_spec(path) -> ExperimentSpec:
    with open(path) as f:
        return parse_spec(f.read())


def spec_hash(spec: ExperimentSpec) -> str:
    return hashlib.sha256(format_spec(spec).encode()).hexdigest()


def write_metrics(metrics: dict, path_or_file) -> None:
    """Line-oriented key=value text, keys sorted."""
    f = path_or_file if hasattr(path_or_file, "write") else open(path_or_file, "w")
    try:
        for key in sorted(metrics):
            f.write(f"{key}={metrics[key]}\n")
    finally:
        if f is not path_or_file:
            f.close()


# ---------------------------------------------------------------------------
# Stage cache (content-addressed)
# ---------------------------------------------------------------------------

class StageCache:
    """Byte blobs keyed by content hashes of their inputs."""

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
                return f.read()
        except FileNotFoundError:
            return None

    def put(self, key: str, blob: bytes) -> None:
        if not self.directory:
            return
        tmp = self._path(key) + ".tmp"
        with open(tmp, "wb") as f:
            f.write(blob)
        os.replace(tmp, self._path(key))


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
    maps: list[tuple[tuple[int, int], FeatureMatrix, int]],
    schedule: som_mod.TrainSchedule,
    grid_metric: str,
) -> list[som_mod.SomGrid]:
    """Train (or fetch) one map per ((width, height), data, seed) entry.

    The cache misses are trained by a single ``train_many`` call; every map
    comes back checkpoint-encoded.
    """
    keys = [
        _digest("som", width, height, matrix_fingerprint(data), schedule, seed, grid_metric)
        for (width, height), data, seed in maps
    ]
    blobs = [cache.get(key) for key in keys]
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
        cache.put(keys[i], blobs[i])
    return [som_mod.load_som(io.BytesIO(blob)) for blob in blobs]


def _associate_cached(
    cache: StageCache,
    som_x: som_mod.SomGrid,
    som_y: som_mod.SomGrid,
    pairs: PairedDataset,
    spec: ExperimentSpec,
) -> tuple[assoc.LateralSynapses, assoc.LateralSynapses]:
    key = _digest(
        "assoc", som_x.weights, som_y.weights,
        matrix_fingerprint(pairs.x), matrix_fingerprint(pairs.y), pairs.pairing,
        spec.rule, spec.eta, spec.assoc_epochs,
    )
    blob = cache.get(key)
    if blob is None:
        syn_xy, syn_yx = assoc.associate(
            som_x, som_y, pairs, spec.rule, spec.eta, spec.assoc_epochs
        )
        buf = io.BytesIO()
        assoc.save_synapses(syn_xy, buf, "XY")
        assoc.save_synapses(syn_yx, buf, "YX")
        blob = buf.getvalue()
        cache.put(key, blob)
    buf = io.BytesIO(blob)
    syn_xy, _ = assoc.load_synapses(buf)
    syn_yx, _ = assoc.load_synapses(buf)
    return syn_xy, syn_yx


# ---------------------------------------------------------------------------
# Per-seed pipeline
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
            parts.extend([
                r.seed, r.uni_x, r.uni_y, r.uni_y_direct, r.uni_y_diverged,
                r.convergence, r.n_no_decision,
                r.synapses_xy_pre, r.synapses_xy_post,
                r.synapses_yx_pre, r.synapses_yx_post,
            ])
        return _digest(*parts)


def _load_file_matrix(path: str, labels_path: str) -> FeatureMatrix:
    try:
        return load_features(path, labels_path or None)
    except FileNotFoundError as e:
        raise SpecError(f"missing data file: {e.filename}") from e


def load_dataset(spec: ExperimentSpec, seed: int) -> tuple[PairedDataset, PairedDataset]:
    """(train, test) pairs for one run; file datasets are paired per seed."""
    if spec.dataset == "synthetic":
        return synthetic.make_paired_dataset(
            spec.synthetic_spec(), seed * 1000 + SEED_DATA
        )
    x_train = _load_file_matrix(spec.x_train, spec.x_train_labels)
    x_test = _load_file_matrix(spec.x_test, spec.x_test_labels)
    y_train = _load_file_matrix(spec.y_train, spec.y_train_labels)
    y_test = _load_file_matrix(spec.y_test, spec.y_test_labels)

    def normalized(mode, train_m, test_m):
        if mode == "minmax":
            return normalize_minmax(train_m, test_m)
        if mode == "zscore-minmax":
            return standardize_then_minmax(train_m, test_m)
        return train_m, test_m

    x_train, x_test = normalized(spec.normalize_x, x_train, x_test)
    y_train, y_test = normalized(spec.normalize_y, y_train, y_test)
    train = pair_by_class(x_train, y_train, seed * 1000 + SEED_PAIR_TRAIN)
    test = pair_by_class(x_test, y_test, seed * 1000 + SEED_PAIR_TEST)
    return train, test


@dataclass
class SeedStages:
    """Intermediate state of one seed, for sweeps that reuse the front end."""

    train_pairs: PairedDataset
    test_pairs: PairedDataset
    som_x: som_mod.SomGrid  # labeled
    som_y: som_mod.SomGrid  # unlabeled
    subset_x: FeatureMatrix
    subset_y: FeatureMatrix | None
    syn_xy: assoc.LateralSynapses  # unpruned
    syn_yx: assoc.LateralSynapses
    n_classes: int


def build_stages(
    spec: ExperimentSpec, seed: int, cache: StageCache | None = None
) -> SeedStages:
    cache = cache or StageCache.from_env()
    train_pairs, test_pairs = load_dataset(spec, seed)
    n_classes = train_pairs.x.n_classes
    som_x, som_y = _train_cached(
        cache,
        [(spec.grid_x, train_pairs.x, seed * 1000 + SEED_TRAIN_X),
         (spec.grid_y, train_pairs.y, seed * 1000 + SEED_TRAIN_Y)],
        spec.schedule(), spec.grid_metric,
    )
    subset_x = labeling.select_label_subset(
        train_pairs.x, spec.label_fraction_x, seed * 1000 + SEED_SUBSET_X
    )
    som_x = labeling.label_som(som_x, subset_x, spec.alpha_x)
    subset_y = None
    if spec.label_fraction_y > 0:
        subset_y = labeling.select_label_subset(
            train_pairs.y, spec.label_fraction_y, seed * 1000 + SEED_SUBSET_Y
        )
    syn_xy, syn_yx = _associate_cached(cache, som_x, som_y, train_pairs, spec)
    return SeedStages(
        train_pairs, test_pairs, som_x, som_y, subset_x, subset_y,
        syn_xy, syn_yx, n_classes,
    )


def run_seed(
    spec: ExperimentSpec,
    seed: int,
    cache: StageCache | None = None,
    artifact_dir: str | None = None,
) -> SeedResult:
    """Execute every stage for one seed; optionally dump artifact files."""
    started = time.perf_counter()
    stages = build_stages(spec, seed, cache)
    syn_xy = assoc.roundtrip_synapses(assoc.prune(stages.syn_xy, spec.keep_fraction))
    syn_yx = assoc.roundtrip_synapses(assoc.prune(stages.syn_yx, spec.keep_fraction))

    som_y_direct = None
    uni_y_direct = None
    if stages.subset_y is not None:
        som_y_direct = labeling.label_som(stages.som_y, stages.subset_y, spec.alpha_y)
        uni_y_direct = inference.evaluate_unimodal(
            som_y_direct, stages.test_pairs.y, stages.n_classes
        ).accuracy

    som_y_diverged = None
    uni_y_diverged = None
    if spec.label_mode_y == "diverge" or stages.subset_y is None:
        som_y_diverged = inference.diverge_label(
            stages.som_x, stages.som_y, syn_xy, stages.subset_x,
            spec.diverge_beta, stages.n_classes,
        )
        uni_y_diverged = inference.evaluate_unimodal(
            som_y_diverged, stages.test_pairs.y, stages.n_classes
        ).accuracy

    som_y = som_y_diverged if spec.label_mode_y == "diverge" else som_y_direct
    uni_x = inference.evaluate_unimodal(
        stages.som_x, stages.test_pairs.x, stages.n_classes
    ).accuracy
    conv = inference.evaluate_convergence(
        stages.som_x, som_y, syn_xy, syn_yx, stages.test_pairs,
        spec.convergence_config(), stages.n_classes,
    )

    if artifact_dir:
        os.makedirs(artifact_dir, exist_ok=True)
        som_mod.save_som(stages.som_x, os.path.join(artifact_dir, f"som_x_{seed}.rsom"))
        som_mod.save_som(som_y, os.path.join(artifact_dir, f"som_y_{seed}.rsom"))
        assoc.save_synapses(stages.syn_xy, os.path.join(artifact_dir, f"syn_xy_raw_{seed}.rlat"), "XY")
        assoc.save_synapses(stages.syn_yx, os.path.join(artifact_dir, f"syn_yx_raw_{seed}.rlat"), "YX")
        assoc.save_synapses(syn_xy, os.path.join(artifact_dir, f"syn_xy_{seed}.rlat"), "XY")
        assoc.save_synapses(syn_yx, os.path.join(artifact_dir, f"syn_yx_{seed}.rlat"), "YX")

    uni_y = uni_y_diverged if spec.label_mode_y == "diverge" else uni_y_direct
    return SeedResult(
        seed=seed,
        uni_x=uni_x,
        uni_y=float(uni_y),
        uni_y_direct=uni_y_direct,
        uni_y_diverged=uni_y_diverged,
        convergence=conv.accuracy,
        n_no_decision=conv.n_no_decision,
        synapses_xy_pre=stages.syn_xy.n_synapses,
        synapses_xy_post=syn_xy.n_synapses,
        synapses_yx_pre=stages.syn_yx.n_synapses,
        synapses_yx_post=syn_yx.n_synapses,
        wall_time=time.perf_counter() - started,
    )


def _run_seed_star(args) -> SeedResult:
    spec_text, seed, cache_dir = args
    return run_seed(parse_spec(spec_text), seed, StageCache(cache_dir))


def run_pipeline(
    spec: ExperimentSpec,
    cache: StageCache | None = None,
    jobs: int = 1,
    artifact_dir: str | None = None,
) -> RunRecord:
    """All seeds of a spec; seeds are independent jobs when jobs > 1."""
    started = time.perf_counter()
    cache = cache or StageCache.from_env()
    if jobs > 1 and len(spec.seeds) > 1 and artifact_dir is None:
        args = [(format_spec(spec), s, cache.directory) for s in spec.seeds]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_seed_star, args))
    else:
        results = [run_seed(spec, s, cache, artifact_dir) for s in spec.seeds]
    results.sort(key=lambda r: r.seed)
    return RunRecord(spec_hash(spec), results, time.perf_counter() - started)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def prune_sweep(
    spec: ExperimentSpec,
    fractions: tuple[float, ...],
    cache: StageCache | None = None,
) -> list[dict]:
    """Divergence and convergence accuracy per keep fraction.

    The expensive front end (training, labeling, association) is built once
    per seed and reused across fractions.
    """
    cache = cache or StageCache.from_env()
    per_seed = [build_stages(spec, s, cache) for s in spec.seeds]
    rows = []
    for fraction in fractions:
        div, conv, post = [], [], []
        for stages in per_seed:
            syn_xy = assoc.prune(stages.syn_xy, fraction)
            syn_yx = assoc.prune(stages.syn_yx, fraction)
            diverged = inference.diverge_label(
                stages.som_x, stages.som_y, syn_xy, stages.subset_x,
                spec.diverge_beta, stages.n_classes,
            )
            div.append(
                inference.evaluate_unimodal(
                    diverged, stages.test_pairs.y, stages.n_classes
                ).accuracy
            )
            som_y = (
                labeling.label_som(stages.som_y, stages.subset_y, spec.alpha_y)
                if stages.subset_y is not None
                else diverged
            )
            conv.append(
                inference.evaluate_convergence(
                    stages.som_x, som_y, syn_xy, syn_yx, stages.test_pairs,
                    spec.convergence_config(), stages.n_classes,
                ).accuracy
            )
            post.append(syn_xy.n_synapses)
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
    alphas: tuple[float, ...] = labeling.DEFAULT_ALPHA_GRID,
    modality: str = "x",
    cache: StageCache | None = None,
) -> list[dict]:
    """Unimodal test accuracy of one map across labeling kernel widths."""
    if modality not in ("x", "y"):
        raise SpecError("modality must be x or y")
    cache = cache or StageCache.from_env()
    rows = []
    per_seed = []
    for seed in spec.seeds:
        train_pairs, test_pairs = load_dataset(spec, seed)
        mat = train_pairs.x if modality == "x" else train_pairs.y
        test = test_pairs.x if modality == "x" else test_pairs.y
        grid = spec.grid_x if modality == "x" else spec.grid_y
        (grid_som,) = _train_cached(
            cache,
            [(grid, mat, seed * 1000 + (SEED_TRAIN_X if modality == "x" else SEED_TRAIN_Y))],
            spec.schedule(), spec.grid_metric,
        )
        fraction = spec.label_fraction_x if modality == "x" else spec.label_fraction_y
        subset = labeling.select_label_subset(
            mat, fraction,
            seed * 1000 + (SEED_SUBSET_X if modality == "x" else SEED_SUBSET_Y),
        )
        per_seed.append((grid_som, subset, test, train_pairs.x.n_classes))
    for alpha in alphas:
        accs = [
            inference.evaluate_unimodal(
                labeling.label_som(grid_som, subset, alpha), test, n_classes
            ).accuracy
            for grid_som, subset, test, n_classes in per_seed
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

RECORD_COLUMNS = (
    "seed", "uni_x", "uni_y", "uni_y_direct", "uni_y_diverged", "convergence",
    "n_no_decision", "synapses_xy_pre", "synapses_xy_post",
    "synapses_yx_pre", "synapses_yx_post", "wall_time",
)


def write_record_csv(record: RunRecord, path) -> None:
    with open(path, "w") as f:
        f.write("# spec_hash=" + record.spec_digest + "\n")
        f.write(",".join(RECORD_COLUMNS) + "\n")
        for r in record.results:
            f.write(",".join(str(getattr(r, c)) for c in RECORD_COLUMNS) + "\n")


def write_rows_csv(rows: list[dict], path) -> None:
    if not rows:
        raise ValueError("nothing to write")
    cols = list(rows[0])
    with open(path, "w") as f:
        f.write(",".join(cols) + "\n")
        for row in rows:
            f.write(",".join(str(row[c]) for c in cols) + "\n")


def read_record_csv(path) -> tuple[str, list[dict]]:
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f]
    digest = ""
    if lines and lines[0].startswith("# spec_hash="):
        digest = lines.pop(0).split("=", 1)[1]
    cols = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        if not ln:
            continue
        rows.append(dict(zip(cols, ln.split(","))))
    return digest, rows
