#!/usr/bin/env python3
"""Empirical scaling of the cellular grid: wave steps grow as sqrt(n) while a
centralized scan grows as n, and measured messages stay under the 4-per-cell
bound because boundary cells have fewer neighbors.  Then N seeded 12x12
waves are checked against the centralized oracle (BMU, WMU and each cell's
distance to the BMU); a mismatch exits 4, as ``resom ig-verify`` does.

Usage: python scripts/ig_scaling.py [--verify-trials N]
"""

import argparse

from resom import cli
from resom import grid as ig


@cli.exit_codes
def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--verify-trials", type=int, default=200)
    args = ap.parse_args(argv)

    print(f"{'grid':>8} {'cells':>6} {'t_p':>5} {'msgs/wave':>10} {'bound':>10} {'central':>8}")
    for k in (2, 4, 8, 16, 32, 64):
        rep = ig.cost_report(k, k, n_samples=1)
        print(
            f"{k:>4}x{k:<3} {rep.n_cells:>6} {rep.t_p:>5} {rep.messages_per_wave:>10} "
            f"{rep.message_upper_bound:>10} {rep.centralized_ops_per_sample:>8}"
        )

    mismatches, _ = ig.check_waves(12, 12, args.verify_trials, seed=0)
    print(f"\nverification on 12x12: {args.verify_trials} trials, {mismatches} mismatches")
    if mismatches:
        raise cli.VerificationError(f"{mismatches} wave/oracle mismatches")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
