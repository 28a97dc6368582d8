"""Every ExperimentSpec key is refused or moves an output.

For each field, a small valid spec (the reference) and the same spec with
the field set to another valid value off its default must differ in one of
these outputs: ``run_pipeline``'s seed results (every column but the wall
time), the ``prune_sweep`` rows, or the ``alpha_sweep`` rows of map x or y.
The content hash does not count: it covers the spec text, which every key
moves.  A spec that raises SpecError passes too, since a refused key is not
silently ignored.
"""

from dataclasses import fields

import numpy as np
import pytest

from resom.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC, FeatureMatrix, save_rsm1, write_binary
from resom.experiments import (
    RECORD_COLUMNS,
    ExperimentSpec,
    SpecError,
    alpha_sweep,
    parse_spec,
    prune_sweep,
    run_pipeline,
)
from resom.synthetic import SyntheticSpec, make_paired_dataset

# The lines of every spec, then those of a synthetic one: three classes of
# noisy, clipped rows, so no accuracy sits at 1 and a small move shows.
BASE = {"grid_x": "4x4", "grid_y": "4x4", "epochs": "2", "seeds": "0"}
SYNTHETIC = {"classes": "3", "dim_x": "4", "dim_y": "4", "train_per_class": "40",
             "test_per_class": "40", "noise": "0.3", "confused_x": "0:1", "confused_y": "1:2"}
GENERATOR = SyntheticSpec(n_classes=3, dim_x=4, dim_y=4, train_per_class=40, test_per_class=40,
                          noise=0.3, confused_x=((0, 1),), confused_y=((1, 2),))

SPLITS = ("x_train", "x_test", "y_train", "y_test")
# A files spec of the RSM1 files the workspace writes, each in two draws.
FILES = {"dataset": "files", **{name: f"{name}.rsm1" for name in SPLITS}}


def idx_files(split: str) -> dict:
    """FILES with ``split``'s rows read from IDX images and a labels file."""
    return {**FILES, split: f"{split}.idx", f"{split}_labels": f"{split}_labels.idx"}


# key: (value, companion lines).  The reference spec is the companions alone.
KEYS = {
    "dataset": ("files", FILES),
    "normalize_x": ("minmax", FILES),
    "normalize_y": ("zscore-minmax", FILES),
    **{name: (f"{name}_b.rsm1", FILES) for name in SPLITS},
    **{f"{name}_labels": (f"{name}_relabeled.idx", idx_files(name)) for name in SPLITS},
    "classes": ("4", {}),
    "dim_x": ("5", {}),
    "dim_y": ("5", {}),
    "train_per_class": ("30", {}),
    "test_per_class": ("30", {}),
    "noise": ("0.2", {}),
    "min_separation": ("0.3", {}),
    "confusion_overlap": ("0.5", {}),
    "confused_x": ("", {}),
    "confused_y": ("", {}),
    "grid_x": ("3x3", {}),
    "grid_y": ("3x3", {}),
    "epochs": ("3", {}),
    "lr_start": ("0.5", {}),
    "lr_end": ("0.1", {}),
    "sigma_start": ("2", {}),
    "sigma_end": ("0.5", {}),
    "grid_metric": ("manhattan", {}),
    "label_fraction_x": ("0.5", {}),
    "label_fraction_y": ("0.5", {}),
    "alpha_x": ("0.05", {}),
    "alpha_y": ("0.05", {}),
    "label_mode_y": ("diverge", {}),
    "diverge_beta": ("5", {}),
    "rule": ("oja", {}),
    "eta": ("100", {}),
    "assoc_epochs": ("2", {}),
    "keep_fraction": ("0.5", {}),
    "update": ("sum", {}),
    "activities": ("raw", {}),
    "neurons": ("all", {}),
    "beta_x": ("5", {}),
    "beta_y": ("5", {}),
    "disconnected": ("keep", {}),
    "seeds": ("1", {}),
}


def seed_results(spec):
    return [[getattr(r, c) for c in RECORD_COLUMNS if c != "wall_time"]
            for r in run_pipeline(spec).results]


FRACTIONS = (0.05, 0.25, 1.0)
OUTPUTS = (
    seed_results,
    lambda spec: prune_sweep(spec, FRACTIONS),
    lambda spec: alpha_sweep(spec, (0.1, 1.0, 10.0), "x"),
    lambda spec: alpha_sweep(spec, (0.1, 1.0, 10.0), "y"),
)


def spec_text(lines: dict) -> str:
    """The spec text of BASE, then SYNTHETIC unless ``lines`` make a files
    spec, then ``lines``; a later line replaces an earlier one of its key."""
    data = {} if lines.get("dataset") == "files" else SYNTHETIC
    return "".join(f"{k} = {v}\n" for k, v in {**BASE, **data, **lines}.items())


def spec_of(lines: dict) -> ExperimentSpec:
    return parse_spec(spec_text(lines))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """The directory of the files spec's data, and a store of the reference
    specs' outputs, which several keys share."""
    root = tmp_path_factory.mktemp("keys")
    for draw, seed in (("", 0), ("_b", 1)):
        train, test = make_paired_dataset(GENERATOR, seed)
        for name, rows in zip(SPLITS, (train.x, test.x, train.y, test.y)):
            values = rows.values / 2  # off [0, 1], so that normalizing moves the rows
            save_rsm1(FeatureMatrix(values, rows.labels), root / f"{name}{draw}.rsm1")
            if draw:
                continue
            pixels = np.round(values * 255).astype(np.uint8)
            write_binary(root / f"{name}.idx", IDX_IMAGES_MAGIC, ">III", (len(pixels), 2, 2),
                         [("u1", pixels)])
            relabeled = (rows.labels + 1) % GENERATOR.n_classes
            for suffix, labels in (("labels", rows.labels), ("relabeled", relabeled)):
                write_binary(root / f"{name}_{suffix}.idx", IDX_LABELS_MAGIC, ">I",
                             (len(labels),), [("u1", labels.astype(np.uint8))])
    return root, {}


def test_the_table_holds_every_field():
    assert set(KEYS) == {f.name for f in fields(ExperimentSpec)}


@pytest.mark.parametrize("key", KEYS)
def test_key_is_refused_or_moves_an_output(workspace, monkeypatch, key):
    root, reference_outputs = workspace
    monkeypatch.chdir(root)
    value, companions = KEYS[key]
    try:
        changed = spec_of({**companions, key: value})
    except SpecError:
        return
    # A synthetic spec refuses the file keys a files spec needs.
    reference = {} if key == "dataset" else companions
    assert getattr(changed, key) not in (getattr(ExperimentSpec(), key),
                                         getattr(spec_of(reference), key))

    def output(i):
        store = (tuple(reference.items()), i)
        if store not in reference_outputs:
            reference_outputs[store] = OUTPUTS[i](spec_of(reference))
        return reference_outputs[store]

    assert any(output(i) != compute(changed) for i, compute in enumerate(OUTPUTS)), (
        f"{key} = {value} moves no output"
    )


def test_eta_moves_a_hebbian_prune_row_under_zero():
    # Refused before, as a factor common to every Hebbian synapse.  With
    # kernel width 1 map x's activities are nearly flat, so a neuron of map y
    # and the peak of its field take their values through one x neuron's
    # synapses for almost every labeled sample; its normalized field is then
    # one ratio, its class means tie but for rounding, and eta moves the
    # rounding.  The synapses kept stay the same.
    hebb = {"rule": "hebb", "disconnected": "zero"}
    plain, scaled = (prune_sweep(spec_of({**hebb, **eta}), FRACTIONS)
                     for eta in ({}, {"eta": "100"}))
    assert plain != scaled
    for rows in (plain, scaled):
        for row in rows:
            del row["divergence_mean"], row["divergence_std"]
    assert plain == scaled
