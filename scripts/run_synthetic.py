#!/usr/bin/env python3
"""Full synthetic benchmark: unimodal baselines, all eight convergence
variants, divergence labeling, and a pruning sweep.  No external data needed.

Usage: python scripts/run_synthetic.py [--seeds N] [--out-dir results]
"""

import argparse
from pathlib import Path

import numpy as np

from resom import cli
from resom import experiments as exp
from resom import inference
from resom.data import opened


@cli.exit_codes
def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args(argv)

    spec = exp.ExperimentSpec(seeds=tuple(range(args.seeds)))  # checked before --out-dir exists
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with (
        opened(out / "convergence_variants.csv", "w") as variants_out,
        opened(out / "prune_sweep.csv", "w") as sweep_out,
    ):
        print(f"building {args.seeds} seeds of the default synthetic pipeline ...")
        per_seed = exp.seed_stages(spec)
        ux, uy = zip(*(exp.unimodal_accuracies(st) for st in per_seed))
        print(f"unimodal: x {100 * np.mean(ux):.2f}%  y {100 * np.mean(uy):.2f}%")

        configs = inference.ALL_VARIANTS
        evals = [exp.evaluate_seed(spec, st, spec.keep_fraction, configs) for st in per_seed]
        variant_rows = []
        for cfg, scores in zip(configs, zip(*(ev.convergence for ev in evals))):
            accs = [score.accuracy for score in scores]
            mean, std = float(np.mean(accs)), float(np.std(accs))
            variant_rows.append({
                "variant": cfg.name(),
                "accuracy_mean": mean,
                "accuracy_std": std,
                "gain_over_best_unimodal": exp.gain_over_best_unimodal(accs, ux, uy),
            })
            print(f"{cfg.name():<14} {100 * mean:6.2f}% +/- {100 * std:.2f}")
        exp.write_rows_csv(variant_rows, variants_out)

        print("pruning sweep (divergence and convergence paths) ...")
        sweep = exp.prune_sweep(
            spec, fractions=(0.02, 0.05, 0.1, 0.25, 0.5, 1.0), per_seed=per_seed
        )
        exp.write_rows_csv(sweep, sweep_out)
        for row in sweep:
            print(
                f"keep {row['keep_fraction']:<5} divergence {100 * row['divergence_mean']:6.2f}%"
                f"  convergence {100 * row['convergence_mean']:6.2f}%"
            )
    print(f"CSV written to {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
