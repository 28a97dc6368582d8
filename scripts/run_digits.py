#!/usr/bin/env python3
"""Written/spoken digits reproduction.

Expects, under --data-dir (default ./data):
  mnist/train-images-idx3-ubyte     mnist/train-labels-idx1-ubyte
  mnist/t10k-images-idx3-ubyte      mnist/t10k-labels-idx1-ubyte
  digits/smnist_train.rsm1          digits/smnist_test.rsm1

The RSM1 files hold 507-dimensional spoken-digit MFCC feature rows with
their class labels (see README for the format).  Raw audio processing is out
of scope here; prepare the features offline.  Prints ``resom report`` of
the record it writes, and exits with ``resom``'s codes.

Usage: python scripts/run_digits.py [--data-dir data] [--seeds N] [--out CSV]
"""

import argparse
from pathlib import Path

from resom import cli
from resom import experiments as exp
from resom.data import opened


@cli.exit_codes
def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--data-dir", default="data")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", default="results/digits_record.csv")
    args = ap.parse_args(argv)

    spec = exp.digits_spec(args.data_dir, tuple(range(args.seeds)))
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with opened(args.out, "w") as out:
        exp.write_record_csv(exp.run_pipeline(spec), out)
    return cli.main(["report", "--records", args.out])


if __name__ == "__main__":
    raise SystemExit(main())
