"""Command line front end.

Exit codes: 2 for configuration problems, 3 for data problems, 4 for failed
verification (e.g. ig-verify finding a mismatch); 0 on success.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from . import association as assoc
from . import experiments as exp
from . import grid as ig
from . import inference, labeling
from . import som as som_mod
from .data import DataFormatError, load_features, opened, pair_by_class

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_VERIFY = 4


class VerificationError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _spec(args) -> exp.ExperimentSpec:
    """The spec the parameter flags describe, checked before any file is read."""
    return exp.ExperimentSpec(**{k: v for k, v in vars(args).items() if k in exp._FIELD_CODECS})


def _load_synapses(path, direction: str, source: som_mod.SomGrid, target: som_mod.SomGrid):
    """Synapses from ``source``'s neurons to ``target``'s, checked against the
    file's direction tag and both maps."""
    syn, tag = assoc.load_synapses(path)
    if tag != direction:
        raise DataFormatError(f"{path}: synapses are tagged {tag!r}, expected {direction!r}")
    if (syn.n_source, syn.n_target) != (source.n_neurons, target.n_neurons):
        raise DataFormatError(
            f"{path}: synapses are {syn.n_source}x{syn.n_target}, "
            f"the maps are {source.n_neurons}x{target.n_neurons} neurons"
        )
    return syn


def cmd_train(args) -> int:
    spec = _spec(args)
    width, height = exp.parse_grid(args.grid)
    with opened(args.out, "wb") as out:
        data = load_features(args.modality, args.labels)
        grid_som = som_mod.train(
            som_mod.make_som(width, height, data.n_features, args.seed),
            data.values, spec.schedule(), args.seed, spec.grid_metric,
        )
        som_mod.save_som(grid_som, out)
    print(f"trained {width}x{height} map on {data.n_samples} samples -> {args.out}")
    return 0


def cmd_label(args) -> int:
    spec = _spec(args)
    with opened(args.out, "wb") as out:
        grid_som = som_mod.load_som(args.som)
        data = load_features(args.data, args.labels, grid_som.dim)
        subset = labeling.select_label_subset(data, spec.label_fraction_x, args.seed)
        labeled = labeling.label_som(grid_som, subset, spec.alpha_x)
        som_mod.save_som(labeled, out)
    print(f"labeled {labeled.n_neurons} neurons from {subset.n_samples} samples -> {args.out}")
    return 0


def cmd_alpha_sweep(args) -> int:
    spec = exp.load_spec(args.spec)
    alphas = tuple(float(a) for a in args.alphas.split(","))
    with opened(args.out, "w") as out:
        rows = exp.alpha_sweep(spec, alphas, args.modality)
        exp.write_rows_csv(rows, out)
    for row in rows:
        print(f"alpha={row['alpha']} accuracy={row['accuracy_mean']:.4f}")
    return 0


def cmd_associate(args) -> int:
    spec = _spec(args)
    with opened(args.out_xy, "wb") as out_xy, opened(args.out_yx, "wb") as out_yx:
        som_x = som_mod.load_som(args.som_x)
        som_y = som_mod.load_som(args.som_y)
        x = load_features(args.pairs_x, args.labels_x, som_x.dim)
        y = load_features(args.pairs_y, args.labels_y, som_y.dim)
        pairs = pair_by_class(x, y, args.pair_seed)
        syn_xy, syn_yx = assoc.associate(
            som_x, som_y, pairs, spec.rule, spec.eta, spec.assoc_epochs
        )
        pre = (syn_xy.n_synapses, syn_yx.n_synapses)
        # A keep fraction of 1 or more keeps every synapse.
        syn_xy, syn_yx = (assoc.prune(syn, spec.keep_fraction) for syn in (syn_xy, syn_yx))
        assoc.save_synapses(syn_xy, out_xy, "XY")
        assoc.save_synapses(syn_yx, out_yx, "YX")
    print(
        f"synapses x->y {pre[0]} -> {syn_xy.n_synapses}, "
        f"y->x {pre[1]} -> {syn_yx.n_synapses}"
    )
    return 0


def cmd_diverge_label(args) -> int:
    spec = _spec(args)
    with opened(args.out, "wb") as out:
        som_x = som_mod.load_som(args.som_x)
        if som_x.labels is None:
            raise exp.SpecError("--som-x must be a labeled checkpoint")
        som_y = som_mod.load_som(args.som_y)
        syn_xy = _load_synapses(args.syn_xy, "XY", som_x, som_y)
        data = load_features(args.data_x, args.labels_x, som_x.dim)
        subset = labeling.select_label_subset(data, spec.label_fraction_x, args.seed)
        labeled = inference.diverge_label(som_x, som_y, syn_xy, subset, spec.diverge_beta)
        som_mod.save_som(labeled, out)
    n_disc = int(inference.disconnected_targets(syn_xy).sum())
    print(f"diverge-labeled {labeled.n_neurons} neurons ({n_disc} disconnected) -> {args.out}")
    return 0


def cmd_converge(args) -> int:
    cfg = _spec(args).convergence_config()
    with (
        opened(args.metrics or sys.stdout, "w") as metrics_out,
        opened(args.confusion_csv, "w") as confusion_out,
        opened(args.gain_csv, "w") as gain_out,
    ):
        som_x = som_mod.load_som(args.som_x)
        som_y = som_mod.load_som(args.som_y)
        if som_x.labels is None or som_y.labels is None:
            raise exp.SpecError("--som-x and --som-y must be labeled checkpoints")
        syn_xy = _load_synapses(args.syn_xy, "XY", som_x, som_y)
        syn_yx = _load_synapses(args.syn_yx, "YX", som_y, som_x)
        x = load_features(args.test_x, args.test_labels_x, som_x.dim)
        y = load_features(args.test_y, args.test_labels_y, som_y.dim)
        pairs = pair_by_class(x, y, args.pair_seed)
        n_classes = inference.class_count(x.labels, y.labels, som_x.labels, som_y.labels)
        # Each map's test distances once; y's are gathered by the pairing, as in evaluate_seed.
        dist_x = som_mod.distances(som_x, x.values)
        dist_y = som_mod.distances(som_y, y.values)
        result = inference.score_convergence(
            som_x, som_y, syn_xy, syn_yx, dist_x, dist_y[pairs.pairing], x.labels, cfg, n_classes
        )
        uni_x = inference.score(som_x.labels[np.argmin(dist_x, axis=1)], x.labels, n_classes)
        uni_y = inference.score(som_y.labels[np.argmin(dist_y, axis=1)], y.labels, n_classes)
        metrics = {
            "variant": cfg.name(),
            "accuracy": result.accuracy,
            "unimodal_x": uni_x.accuracy,
            "unimodal_y": uni_y.accuracy,
            "gain_over_best_unimodal": exp.gain_over_best_unimodal(
                [result.accuracy], [uni_x.accuracy], [uni_y.accuracy]
            ),
            "no_decision": result.n_no_decision,
            "samples": pairs.n_samples,
        }
        exp.write_metrics(metrics, metrics_out)
        if args.confusion_csv:
            np.savetxt(confusion_out, result.confusion, fmt="%d", delimiter=",")
        if args.gain_csv:
            best = max(uni_x, uni_y, key=lambda uni: uni.accuracy)  # x on a tie
            gain = inference.gain_matrix(result.confusion, best.confusion)
            np.savetxt(gain_out, gain, fmt="%.6f", delimiter=",")
    if args.metrics:
        print(f"accuracy={result.accuracy:.4f} (metrics -> {args.metrics})")
    return 0


def cmd_ig_verify(args) -> int:
    width, height = exp.parse_grid(args.grid)
    with opened(args.trace, "w", newline="") as trace:
        mismatches, first = ig.check_waves(height, width, args.trials, args.seed)
        if args.trace:
            rows_out = ig.wave_trace(first)
            writer = csv.DictWriter(trace, fieldnames=list(rows_out[0]))
            writer.writeheader()
            writer.writerows(rows_out)
    print(
        f"grid={width}x{height} trials={args.trials} t_p={ig.propagation_steps(height, width)} "
        f"mismatches={mismatches}"
    )
    if mismatches:
        raise VerificationError(f"{mismatches} wave/oracle mismatches")
    return 0


def cmd_pipeline(args) -> int:
    spec = exp.load_spec(args.spec)
    cache = exp.StageCache(args.cache) if args.cache else None
    with opened(args.out, "w") as out:
        record = exp.run_pipeline(spec, cache, artifact_dir=args.artifacts)
        exp.write_record_csv(record, out)
    print(
        f"convergence accuracy {100 * record.mean:.2f} +/- {100 * record.std:.2f} "
        f"over {len(record.results)} seeds (record -> {args.out})"
    )
    return 0


def cmd_prune_sweep(args) -> int:
    spec = exp.load_spec(args.spec)
    fractions = tuple(float(f) for f in args.fractions.split(","))
    with opened(args.out, "w") as out:
        rows = exp.prune_sweep(spec, fractions)
        exp.write_rows_csv(rows, out)
    for row in rows:
        print(
            f"keep={row['keep_fraction']} divergence={row['divergence_mean']:.4f} "
            f"convergence={row['convergence_mean']:.4f}"
        )
    return 0


def cmd_report(args) -> int:
    digest, rows = exp.read_record_csv(args.records)
    conv, uni_x, uni_y = (np.array([r[c] for r in rows]) for c in ("convergence", "uni_x", "uni_y"))
    metrics = {
        "spec_hash": digest,
        "seeds": len(rows),
        "convergence_mean": conv.mean(),
        "convergence_std": conv.std(),
        "unimodal_x_mean": uni_x.mean(),
        "unimodal_y_mean": uni_y.mean(),
        "gain_over_best_unimodal": exp.gain_over_best_unimodal(conv, uni_x, uni_y),
    }
    exp.write_metrics(metrics, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Parameter flags whose names differ from the ExperimentSpec field they set.
_FLAG_NAMES = {"alpha_x": "--alpha", "diverge_beta": "--beta",
               "keep_fraction": "--keep", "label_fraction_x": "--subset-frac"}


def _spec_flags(parser, *names: str, **overrides) -> None:
    """A flag per ExperimentSpec field: ``lr_start`` is ``--lr-start`` unless
    _FLAG_NAMES renames it, parsed as in spec files, defaulting to the spec's
    value unless ``overrides`` gives one."""
    defaults = exp.ExperimentSpec()
    for name in names:
        choices = exp._FIELD_CHOICES.get(name)
        parser.add_argument(
            _FLAG_NAMES.get(name, "--" + name.replace("_", "-")), dest=name,
            type=exp._FIELD_CODECS[name][1], default=overrides.get(name, getattr(defaults, name)),
            metavar=choices and "{" + ",".join(choices) + "}",  # else the field's name
        )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="resom", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train one unimodal map")
    t.add_argument("--modality", required=True, help="feature file (IDX or RSM1)")
    t.add_argument("--labels", help="IDX label file when --modality is IDX images")
    t.add_argument("--grid", required=True, help="map size, e.g. 10x10")
    t.add_argument("--seed", type=int, default=0)
    _spec_flags(t, "epochs", "lr_start", "lr_end", "sigma_start", "sigma_end", "grid_metric")
    t.add_argument("--out", required=True)
    t.set_defaults(func=cmd_train)

    l = sub.add_parser("label", help="label neurons from a labeled subset")
    l.add_argument("--som", required=True)
    l.add_argument("--data", required=True)
    l.add_argument("--labels")
    _spec_flags(l, "label_fraction_x", "alpha_x", label_fraction_x=0.01)
    l.add_argument("--seed", type=int, default=0)
    l.add_argument("--out", required=True)
    l.set_defaults(func=cmd_label)

    asw = sub.add_parser("alpha-sweep", help="labeling kernel width grid search")
    asw.add_argument("--spec", required=True)
    asw.add_argument("--modality", choices=("x", "y"), default="x")
    asw.add_argument("--alphas", default="0.1,0.5,1.0,2.0,5.0,10,20")
    asw.add_argument("--out", required=True)
    asw.set_defaults(func=cmd_alpha_sweep)

    a = sub.add_parser("associate", help="learn lateral synapses between two maps")
    a.add_argument("--som-x", required=True)
    a.add_argument("--som-y", required=True)
    a.add_argument("--pairs-x", required=True, help="x-modality training features")
    a.add_argument("--pairs-y", required=True, help="y-modality training features")
    a.add_argument("--labels-x")
    a.add_argument("--labels-y")
    a.add_argument("--pair-seed", type=int, default=0)
    _spec_flags(a, "rule", "eta", "assoc_epochs", "keep_fraction", keep_fraction=1.0)
    a.add_argument("--out-xy", required=True)
    a.add_argument("--out-yx", required=True)
    a.set_defaults(func=cmd_associate)

    d = sub.add_parser("diverge-label", help="label map y through x->y synapses")
    d.add_argument("--som-x", required=True, help="labeled x checkpoint")
    d.add_argument("--som-y", required=True)
    d.add_argument("--syn-xy", required=True)
    d.add_argument("--data-x", required=True)
    d.add_argument("--labels-x")
    d.add_argument("--seed", type=int, default=0)
    _spec_flags(d, "label_fraction_x", "diverge_beta", label_fraction_x=0.01)
    d.add_argument("--out", required=True)
    d.set_defaults(func=cmd_diverge_label)

    c = sub.add_parser("converge", help="multimodal classification on test pairs")
    c.add_argument("--som-x", required=True)
    c.add_argument("--som-y", required=True)
    c.add_argument("--syn-xy", required=True)
    c.add_argument("--syn-yx", required=True)
    c.add_argument("--test-x", required=True)
    c.add_argument("--test-y", required=True)
    c.add_argument("--test-labels-x")
    c.add_argument("--test-labels-y")
    c.add_argument("--pair-seed", type=int, default=0)
    _spec_flags(c, "update", "activities", "neurons", "beta_x", "beta_y", "disconnected")
    c.add_argument("--metrics", help="key=value metrics file (stdout if omitted)")
    c.add_argument("--confusion-csv")
    c.add_argument("--gain-csv")
    c.set_defaults(func=cmd_converge)

    g = sub.add_parser("ig-verify", help="check the cellular wave against the oracle")
    g.add_argument("--grid", required=True)
    g.add_argument("--trials", type=int, default=100)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--trace", help="CSV per-step state dump of the first trial")
    g.set_defaults(func=cmd_ig_verify)

    pl = sub.add_parser("pipeline", help="run a full spec over its seeds")
    pl.add_argument("--spec", required=True)
    pl.add_argument("--out", required=True)
    pl.add_argument("--cache", help=f"stage cache dir (default ${exp.CACHE_ENV_VAR})")
    pl.add_argument("--artifacts", help="directory for per-seed checkpoint/synapse files")
    pl.set_defaults(func=cmd_pipeline)

    ps = sub.add_parser("prune-sweep", help="accuracy vs remaining synapses")
    ps.add_argument("--spec", required=True)
    ps.add_argument("--fractions", default="0.05,0.1,0.25,0.5,1.0")
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=cmd_prune_sweep)

    r = sub.add_parser("report", help="aggregate a pipeline record CSV")
    r.add_argument("--records", required=True)
    r.set_defaults(func=cmd_report)

    return p


def exit_codes(main):
    """``main`` returning the exit code of an error it raises, told in one line on stderr."""
    def run(*args):
        try:
            return main(*args)
        except (DataFormatError, OSError) as e:  # OSError: missing, unreadable or a directory
            print(f"data error: {e}", file=sys.stderr)
            return EXIT_DATA
        except VerificationError as e:
            print(f"verification failed: {e}", file=sys.stderr)
            return EXIT_VERIFY
        except ValueError as e:  # SpecError included; DataFormatError is caught above
            print(f"config error: {e}", file=sys.stderr)
            return EXIT_CONFIG
    return run


@exit_codes
def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
