"""Seeded workload plans, their execution and their correctness checks.

A plan is a list of operations.  Each operation carries everything needed
to run it and to check its output, so the same plan can be run untraced,
traced, or against a perturbed expectation in the benchmark's own tests.
The program only ever sees the generated arguments; the seed stays here.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

WHY = {
    "census": (
        "Exact counts in-process at one lane: permanent and the counts oracle "
        "do nearly all the work; no arith/dist/bounds work, so it bypasses "
        "analytic optimisations."
    ),
    "cli": (
        "About 50 CLI commands on a private cache: count misses beside hits, "
        "plus dist, table and verify runs that carry the arith/dist/bounds "
        "work and the peak memory."
    ),
}

# Census sizes: the fixed ladder every seed requests.
CENSUS_C0_MAX = 18
CENSUS_C_ODD_MAX = 31
CENSUS_A_MAX = 24
CENSUS_EVEN_C = 3  # even C(n), 14 <= n <= 2*CENSUS_C0_MAX, answered from C0
CENSUS_C2_SMALL = (4, 6)  # C_2(n) drawn here run the backtracking cross-check
CENSUS_C2_LARGE = (13, 14)  # ... and here only the permanent

# CLI catalogue: each count key is sent CLI_REPEATS times against one
# fresh cache, so the first one misses and the rest hit.
CLI_COUNT_KEYS = (
    ("c0", 12, None),
    ("c0", 16, None),
    ("c0", 17, None),
    ("c0", 18, None),
    ("c", 25, None),
    ("c", 27, None),
    ("c", 29, None),
    ("c", 30, None),
    ("a", 20, None),
    ("a", 22, None),
    ("a", 24, None),
    ("ck", 10, 2),
    ("ck", 14, 2),
    ("ck", 16, 2),
)
CLI_REPEATS = 3
CLI_DIST_N = (80_000, 120_000)
# dist --second-moment at this scale holds ~240 MB of object arrays, the
# peak memory of the benchmark
CLI_MOMENT_N = (950_000, 1_000_000)


def sizes(workload: str) -> dict:
    """The fixed workload sizes, recorded with every result."""
    if workload == "census":
        return {
            "c0_n": [1, CENSUS_C0_MAX],
            "c_odd_n": [1, CENSUS_C_ODD_MAX],
            "a_composite_n": [4, CENSUS_A_MAX],
            "even_c_requests": CENSUS_EVEN_C,
            "c2_small_window": list(CENSUS_C2_SMALL),
            "c2_large_window": list(CENSUS_C2_LARGE),
        }
    if workload == "cli":
        return {
            "count_keys": [list(k) for k in CLI_COUNT_KEYS],
            "repeats": CLI_REPEATS,
            "no_cache_commands": 9,
            "dist_n_window": list(CLI_DIST_N),
            "second_moment_n_window": list(CLI_MOMENT_N),
        }
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Op:
    """One timed operation and the check of its output.

    ``check`` takes the operation's output and returns an error string,
    or None when the output is correct.
    """

    name: str
    run: Any  # a callable for in-process ops, an argv list for CLI ops
    check: Callable[[Any], str | None]


# ---------------------------------------------------------------- expected


def expected_values(reference) -> dict:
    """Exact expected counts keyed by (kind, n, aux), from reference.py."""
    table = {}
    for n, (v, _) in reference.TABLE_C0.items():
        table[("c0", n, None)] = v
        table[("c", 2 * n, None)] = v * v  # C(2n) = C0(n)^2
    for n, (v, _) in reference.TABLE_C_ODD.items():
        table[("c", n, None)] = v
    for n, (v, _) in reference.TABLE_A.items():
        table[("a", n, None)] = v
    return table


def c2_closed(n: int) -> int:
    """C_2(2m) = m!^2 and C_2(2m+1) = (m+1)!^2."""
    return math.factorial((n + 1) // 2) ** 2


def expect(expected: dict, kind: str, n: int, aux: int | None) -> int:
    if kind == "ck" and aux == 2:
        return c2_closed(n)
    return expected[(kind, n, aux)]


def _equals(want: int) -> Callable[[Any], str | None]:
    def check(got):
        return None if got == want else f"got {got}, expected {want}"

    return check


# ------------------------------------------------------------------ census


def census_plan(rng: random.Random, counts, expected: dict) -> list[Op]:
    """Exact counts through the public counts API with library defaults."""
    requests = [("c0", n, None) for n in range(1, CENSUS_C0_MAX + 1)]
    requests += [("c", n, None) for n in range(1, CENSUS_C_ODD_MAX + 1, 2)]
    requests += [
        ("a", n, None)
        for n in range(4, CENSUS_A_MAX + 1)
        if any(n % p == 0 for p in range(2, n))
    ]
    evens = range(14, 2 * CENSUS_C0_MAX + 1, 2)
    requests += [("c", n, None) for n in rng.sample(evens, CENSUS_EVEN_C)]
    for lo, hi in (CENSUS_C2_SMALL, CENSUS_C2_SMALL, CENSUS_C2_LARGE):
        requests.append(("ck", rng.randint(lo, hi), 2))
    rng.shuffle(requests)

    def call(kind, n, aux):
        # looked up at call time, so a tracer installed later sees the call
        if kind == "ck":
            return lambda: counts.count_ck(n, aux)
        return lambda: getattr(counts, f"count_{kind}")(n)

    return [
        Op(
            name=f"{kind}({n})" if aux is None else f"{kind}({n},{aux})",
            run=call(kind, n, aux),
            check=_equals(expect(expected, kind, n, aux)),
        )
        for kind, n, aux in requests
    ]


# --------------------------------------------------------------------- cli


def cli_plan(rng: random.Random, expected: dict, cache_path: str) -> list[Op]:
    """A seeded command sequence; count keys miss once and then hit."""
    commands = []
    for kind, n, aux in CLI_COUNT_KEYS:
        argv = ["count", "--kind", kind, "--n", str(n), "--cache", cache_path]
        if aux is not None:
            argv += ["--aux", str(aux)]
        commands += [(argv, _count_value(expect(expected, kind, n, aux)))] * CLI_REPEATS

    def alpha():
        return str(rng.randint(100, 999) / 1000)

    def dist_n():
        return str(rng.randint(*CLI_DIST_N))

    no_cache = [
        (["dist", "--n", dist_n(), "--alpha", alpha(), "--alpha", alpha()], _density_rows),
        (["dist", "--n", dist_n(), "--top-set"], _top_set_equal),
        (["dist", "--n", str(rng.randint(*CLI_MOMENT_N)), "--second-moment"], _moment_below_bound),
        (["table", "--which", "t1", "--max", str(rng.randint(10, 12))], _table_rows(expected, "c0")),
        (["table", "--which", "t2", "--max", str(rng.choice((15, 17)))], _table_rows(expected, "c")),
        (["table", "--which", "t3", "--max", str(rng.randint(14, 16))], _table_rows(expected, "a")),
        (["verify", "--suite", "bounds"], _verification_passed),
        (["verify", "--suite", "constants"], _verification_passed),
        (["verify", "--suite", "tables", "--max", "12"], _verification_passed),
    ]
    commands += [(argv + ["--no-cache"], check) for argv, check in no_cache]
    rng.shuffle(commands)
    return [Op(" ".join(argv[:5]), argv, _exit_zero_and(check)) for argv, check in commands]


def _exit_zero_and(check_stdout):
    """A CLI op's output is (exit code, stdout); the exit code must be 0."""

    def check(out):
        rc, stdout = out
        return f"exit code {rc}" if rc != 0 else check_stdout(stdout)

    return check


def _count_value(want: int):
    def check(stdout):
        got = json.loads(stdout.strip().splitlines()[-1])["value"]
        return None if got == str(want) else f"value {got}, expected {want}"

    return check


def _density_rows(stdout):
    rows = list(csv.DictReader(io.StringIO(stdout)))
    bad = [r for r in rows if not 0.0 <= float(r["density"]) <= 1.0]
    return None if rows and not bad else f"density rows {rows}"


def _top_set_equal(stdout):
    verdict = json.loads(stdout)["verdict"]
    return None if verdict == "EQUAL" else f"verdict {verdict}"


def _moment_below_bound(stdout):
    ratio = json.loads(stdout)["ratio_to_n"]
    return None if 0 < ratio < 1.78 else f"second moment ratio {ratio}"


def _table_rows(expected: dict, kind: str):
    def check(stdout):
        rows = list(csv.DictReader(io.StringIO(stdout)))
        bad = [r["n"] for r in rows if r["value"] != str(expected[(kind, int(r["n"]), None)])]
        return None if rows and not bad else f"table rows differ at n={bad}"

    return check


def _verification_passed(stdout):
    lines = stdout.strip().splitlines()
    return None if lines and lines[-1] == "verification PASSED" else "not PASSED"
