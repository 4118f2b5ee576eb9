#!/usr/bin/env python3
"""Scan the empirical density of odd m with phi(m)/m <= alpha.

Prints a CSV of (alpha, count, density), flags the rows with literature
brackets, and finishes with the second-moment statistic.

    python scripts/distribution_scan.py --n 1000000 --points 20
"""

import argparse
import sys
from fractions import Fraction

from coprime_census import dist
from coprime_census.reference import BRACKETS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=10**6)
    ap.add_argument("--points", type=int, default=20, help="grid resolution")
    args = ap.parse_args()

    brackets = {alpha: f"({lower};{upper})" for alpha, lower, upper in BRACKETS}
    print("alpha,count,density,bracket")
    grid = sorted(
        {Fraction(k, args.points) for k in range(1, args.points + 1)}
        | set(brackets)
    )
    for est in dist.d_counts(grid, args.n):
        print(f"{est.alpha},{est.count},{est.density:.6f},{brackets.get(est.alpha, '')}")

    sm = dist.second_moment(args.n)
    print(
        f"second moment at n={args.n}: {sm:.1f} = {sm / args.n:.6f} * n "
        f"(bound 1.78n)",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
