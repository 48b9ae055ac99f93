#!/usr/bin/env python3
"""Measure every instrumented kernel and compare against its predictions.

Runs ``blocklin verify-counts`` once per operation of a fixed plan: each
operation on seeded random invertible rational matrices, with measured
multiplication and division totals printed next to the exact recurrence
and closed-form values.  Rows whose closed form tracks a different
accounting (triangular inversion, the full factorization) carry an
annotation instead of a mismatch flag.  Exits 0 when every row matches.
"""

import argparse
import sys
from pathlib import Path

# allow running straight from a checkout, before any install
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from blocklin import cli

DEFAULT_PLAN = [
    ("mul", [2, 4, 8, 16]),
    ("tri_mul", [2, 4, 8, 16]),
    ("tri_inv", [2, 4, 8, 16]),
    ("gram_inv", [2, 4, 8]),
    ("lu", [2, 4, 8, 16]),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--machine", action="store_true", help="one line per row")
    args = parser.parse_args()
    ok = True
    for op, sizes in DEFAULT_PLAN:
        argv = ["verify-counts", "--op", op, "--sizes", ",".join(map(str, sizes))]
        argv += ["--seed", str(args.seed)] + (["--machine"] if args.machine else [])
        ok = cli.main(argv) == cli.EXIT_OK and ok
        if not args.machine:
            sys.stdout.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
