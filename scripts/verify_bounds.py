#!/usr/bin/env python3
"""Run the bounds suite and print its records as JSON lines plus a summary."""

import sys
import time

from coprime_census import checks


def main() -> int:
    t0 = time.perf_counter()
    reports = checks.bounds()
    for rep in reports:
        print(rep.to_json())
    ok = all(r.passed for r in reports)
    print(
        f"{'all pass' if ok else 'FAILURES'} "
        f"({len(reports)} reports, {time.perf_counter() - t0:.2f}s)",
        file=sys.stderr,
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
