#!/usr/bin/env python3
"""Survey odd multiples of 3 for representations as two Chen primes plus an
almost-prime-shifted prime; print the per-decade failure tally and the
distribution of the minimal Omega(p3 + 2)."""

import argparse

import numpy as np

from chen3.goldbach_verify import range_survey


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lo", type=int, default=9)
    ap.add_argument("--hi", type=int, default=100_000)
    ap.add_argument("--variant", choices=("basic", "strict"), default="basic")
    ap.add_argument("--z", type=float)
    args = ap.parse_args()

    report = range_survey(args.lo, args.hi, variant=args.variant, z=args.z)
    rows = report.rows
    print(f"surveyed {len(rows)} values of n in [{args.lo}, {args.hi}]")
    print(f"failures (no all-Chen representation): {len(report.failures)}")
    for k, count in zip(*np.unique(rows.min_k, return_counts=True)):
        print(f"  min Omega(p3+2) = {k}: {count} values of n")
    worst = rows[np.argmin(rows.rep_count)]
    print(f"fewest representations: n = {worst.n} with {worst.rep_count}")


if __name__ == "__main__":
    main()
