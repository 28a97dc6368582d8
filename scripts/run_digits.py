#!/usr/bin/env python3
"""Written/spoken digits reproduction.

Expects, under --data-dir (default ./data):
  mnist/train-images-idx3-ubyte     mnist/train-labels-idx1-ubyte
  mnist/t10k-images-idx3-ubyte      mnist/t10k-labels-idx1-ubyte
  digits/smnist_train.rsm1          digits/smnist_test.rsm1

The RSM1 files hold 507-dimensional spoken-digit MFCC feature rows with
their class labels (see README for the format).  Raw audio processing is out
of scope here; prepare the features offline.

Usage: python scripts/run_digits.py [--data-dir data] [--seeds N] [--jobs J]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from resom import experiments as exp


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--data-dir", default="data")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--out", default="results/digits_record.csv")
    args = ap.parse_args(argv)
    if args.jobs < 1:
        ap.error(f"--jobs must be at least 1, got {args.jobs}")

    spec = exp.digits_spec(args.data_dir, tuple(range(args.seeds)))
    missing = exp.missing_files(spec)
    if missing:
        print("missing data files:\n  " + "\n  ".join(missing), file=sys.stderr)
        return 3
    record = exp.run_pipeline(spec, jobs=args.jobs)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    exp.write_record_csv(record, args.out)
    best_uni = np.mean([max(r.uni_x, r.uni_y) for r in record.results])
    print(f"unimodal best     {100 * best_uni:.2f}%")
    print(f"convergence       {100 * record.mean:.2f}% +/- {100 * record.std:.2f}")
    print(f"gain              {100 * (record.mean - best_uni):+.2f} points")
    print(f"record -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
