#!/usr/bin/env python3
"""Recompute the three published tables and diff them against reference.

Only rows the reference holds are computed, so a cap past its range
stops at the last reference row.  Typical runs:

    python scripts/reproduce_tables.py                  # quick prefix
    python scripts/reproduce_tables.py --max1 25 --max3 30   # full t1/t3
    python scripts/reproduce_tables.py --max2 49             # extended t2
"""

import argparse
import sys
import time

from coprime_census import counts

HEADERS = {
    "t1": "n, C0(n), r_2n",
    "t2": "\nn, C(n), r_n   (odd n)",
    "t3": "\nn, A(n), u_n   (composite n)",
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max1", type=int, default=16, help="largest n for C0(n)")
    ap.add_argument("--max2", type=int, default=25, help="largest odd n for C(n)")
    ap.add_argument("--max3", type=int, default=30, help="largest composite n for A(n)")
    args = ap.parse_args()

    bad = 0
    t0 = time.time()
    for which, max_n in (("t1", args.max1), ("t2", args.max2), ("t3", args.max3)):
        print(HEADERS[which])
        for row, passed in counts.check_table(which, max_n):
            bad += not passed
            note = "" if passed else "  <-- differs from reference"
            print(f"{row.n}, {row.value}, {counts.format_ratio(row.ratio)} {note}")

    print(f"\n{bad} mismatches; {time.time() - t0:.1f}s", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
