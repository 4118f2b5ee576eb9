"""Command-line surface: counts, tables, distribution scans, verification.

Exit codes: 0 success, 1 verification failure (or cache contention, or a
corrupt cache), 2 usage error, 3 capacity refusal.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import fcntl
import json
import math
import sys
from pathlib import Path

# arith, bounds and dist load numpy, which costs most of the start-up
# time; only cmd_dist and the lemmas/bounds/constants suites read them,
# so those import them where they run and a count or table never does
from . import __version__, counts
from .counts import CapacityError
from .permanent import DEFAULT_CEILING
from .reference import BRACKETS

DEFAULT_CACHE = "./coprime-census.cache.jsonl"
DEFAULT_SIEVE_LIMIT = 2 * 10**7


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


class ResultCache:
    """Append-only JSONL store of count records, exclusive while open.

    Duplicate (kind, n, aux) keys resolve last-writer-wins with a warning
    on load; contention on the advisory lock fails fast.  A line that is
    not a record (a truncated append, say) is refused with its path and
    line number, and the file is left as it is.  A path that cannot be
    opened (a missing directory, a directory) is a usage error.
    """

    def __init__(self, path: Path):
        self.path = path
        try:
            self._fh = open(path, "a+", encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot open cache {path}: {exc.strerror}") from None
        try:
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            self._fh.close()
            raise RuntimeError(f"cache file {path} is locked by another process")
        self.records: dict[tuple, dict] = {}
        self._fh.seek(0)
        for lineno, line in enumerate(self._fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                key = (rec["kind"], rec["n"], rec.get("aux"))
                duplicate = key in self.records
                int(rec["value"])  # every record carries an exact value
            except (ValueError, KeyError, TypeError) as exc:
                self._fh.close()
                raise RuntimeError(
                    f"corrupt cache {path} line {lineno}: {exc!r}"
                ) from None
            if duplicate:
                print(
                    f"warning: duplicate cache key {key}, keeping the later record",
                    file=sys.stderr,
                )
            self.records[key] = rec

    def get(self, kind: str, n: int, aux: int | None) -> dict | None:
        return self.records.get((kind, n, aux))

    def append(self, rec: dict) -> None:
        self.records[(rec["kind"], rec["n"], rec.get("aux"))] = rec
        self._fh.write(json.dumps(rec, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def _record(kind: str, n: int, aux: int | None, value: int, ratio: str | None) -> dict:
    return {
        "kind": kind,
        "n": n,
        "aux": aux,
        "value": str(value),
        "ratio": ratio,
        "timestamp": _now(),
        "engine_version": __version__,
    }


def _ratio_for(kind: str, n: int, value: int) -> str | None:
    if kind in ("c", "a"):
        return counts.format_ratio(counts.growth_ratio(n, value))
    if kind == "c0":
        return counts.format_ratio(counts.growth_ratio(2 * n, value * value))
    return None


def _emit_rows(rows: list[dict], fmt: str, out) -> None:
    if fmt == "json":
        for row in rows:
            out.write(json.dumps(row, sort_keys=True) + "\n")
    else:
        writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def cmd_count(args) -> int:
    kind = args.kind
    # before the cache, so no record is ever served under an --aux it ignores
    counts.check_aux(kind, args.aux)
    if args.dump_matrix:
        print(counts.matrix_for(kind, args.n, args.aux).to_text())

    cache = None
    if not args.no_cache:
        cache = ResultCache(Path(args.cache))
    try:
        cached = cache.get(kind, args.n, args.aux) if cache else None
        # a named method is a request to compute, and a record from another
        # engine version is suspect: both check it like --verify-cache
        if (
            cached is not None
            and not args.verify_cache
            and args.method == "auto"
            and cached.get("engine_version") == __version__
        ):
            print(json.dumps(cached, sort_keys=True))
            return 0
        result = counts.compute(
            kind,
            args.n,
            args.aux,
            method=args.method,
            ceiling=args.ceiling,
        )
        if cached is not None and cached["value"] != str(result.value):
            print(
                f"cache mismatch for ({kind}, {args.n}, {args.aux}): "
                f"stored {cached['value']} recomputed {result.value}",
                file=sys.stderr,
            )
            return 1
        rec = _record(kind, args.n, args.aux, result.value, _ratio_for(kind, args.n, result.value))
        if cache and cached is None:
            cache.append(rec)
        print(json.dumps(rec, sort_keys=True))
        return 0
    finally:
        if cache:
            cache.close()


def cmd_table(args) -> int:
    rows = counts.table_rows(args.which, args.max, ceiling=args.ceiling)
    _emit_rows([row.printed() for row in rows], args.format, sys.stdout)
    return 0


def cmd_dist(args) -> int:
    from . import dist

    if 2 * args.n > args.sieve_limit:
        print(
            f"n={args.n} needs phi up to {2 * args.n} > --sieve-limit {args.sieve_limit}",
            file=sys.stderr,
        )
        return 3
    if args.second_moment:
        val = dist.second_moment(args.n)
        print(
            json.dumps(
                {"n": args.n, "second_moment": val, "ratio_to_n": val / args.n},
                sort_keys=True,
            )
        )
        return 0
    if args.top_set:
        got = dist.top_interval_set(args.n)
        expected = dist.top_interval_characterization(args.n)
        verdict = "EQUAL" if got == expected else "DIFFER"
        print(
            json.dumps(
                {"n": args.n, "size": len(got), "verdict": verdict}, sort_keys=True
            )
        )
        return 0 if verdict == "EQUAL" else 1
    alphas = args.alpha or ["0.5"]
    rows = []
    for a in alphas:
        est = dist.d_count(dist.as_fraction(a), args.n)
        rows.append(
            {"alpha": str(est.alpha), "count": est.count, "density": est.density}
        )
    _emit_rows(rows, args.format, sys.stdout)
    return 0


def _print_check(ok: bool, name: str, detail: str, warn: bool = False) -> bool:
    tag = "PASS" if ok else ("warn" if warn else "FAIL")
    print(f"{tag} {name}: {detail}")
    return ok or warn


# table -> the detail of its verify line: the count, then the ratio
_TABLE_DETAIL = {"t1": "C0={} r={:.4f}", "t2": "C={} r={:.4f}", "t3": "A={} u={:.4f}"}


def _verify_lemmas(max_n: int, ceiling: int) -> bool:
    from . import dist

    ok = True
    kw = {"ceiling": ceiling}
    top = min(max_n // 2, 12)
    for n in range(2, top + 1):
        c_even = counts.count_c(2 * n, **kw)
        c0 = counts.count_c0(n, **kw)
        ok &= _print_check(c_even == c0 * c0, f"square n={n}", "C(2n)=C0(n)^2")
        c_odd = counts.count_c(2 * n + 1, **kw)
        lo = 2 * counts.count_c0(n - 1, **kw) ** 2
        hi = counts.count_c1(n, **kw) ** 2
        ok &= _print_check(
            lo <= c_odd <= hi, f"sandwich n={n}", f"{lo} <= C(2n+1)={c_odd} <= {hi}"
        )
    for n in range(1, 7):
        ok &= _print_check(
            counts.count_ck(2 * n, 2, **kw) == math.factorial(n) ** 2,
            f"parity even n={n}",
            "C_2(2n) = n!^2",
        )
        ok &= _print_check(
            counts.count_ck(2 * n + 1, 2, **kw) == math.factorial(n + 1) ** 2,
            f"parity odd n={n}",
            "C_2(2n+1) = (n+1)!^2",
        )
    ok &= _print_check(counts.count_ck(6, 3, **kw) == 16, "threes n=6", "C_3(6) = 16")
    ok &= _print_check(
        counts.count_ck(12, 3, **kw) == 82944, "threes n=12", "C_3(12) = 82944"
    )
    for p in (3, 5, 7, 11, 13):
        ok &= _print_check(
            counts.count_a(p, **kw) == counts.count_a(p - 1, **kw),
            f"anti prime p={p}",
            "A(p) = A(p-1)",
        )
    for n in (10, 15, 20):
        ok &= _print_check(
            counts.anti_lower(n) <= counts.count_a(n, **kw),
            f"anti gluing n={n}",
            "anti_lower(n) <= A(n)",
        )
    # distribution spot checks at a scale that stays quick
    n = 10**5
    ok &= _print_check(
        dist.second_moment(n) < 1.78 * n, "second moment", f"sum < 1.78n at n={n}"
    )
    ok &= _print_check(
        dist.top_interval_set(n) == dist.top_interval_characterization(n),
        "top interval",
        f"set characterization at n={n}",
    )
    for alpha, lower, upper in BRACKETS:
        est = dist.d_count(alpha, n)
        inside = (
            lower - dist.BRACKET_DIAGNOSTIC_TOL
            <= est.density
            <= upper + dist.BRACKET_DIAGNOSTIC_TOL
        )
        _print_check(
            inside,
            f"bracket alpha={alpha}",
            f"density {est.density:.5f} vs ({lower}, {upper}) [diagnostic]",
            warn=True,
        )
    return ok


def _verify_bounds() -> bool:
    from . import bounds

    ok = True
    dy = bounds.esum_dyadic()
    mid = bounds.esum_middle()
    tail = bounds.esum_tail()
    for rep in (dy, mid, tail, bounds.assemble_lower_bound(dy, mid, tail)):
        ok &= _print_check(
            rep.passed,
            rep.name,
            f"computed {rep.computed:.6f} {rep.relation} {rep.claimed}",
        )
    for rep in bounds.rs_bracket_check():
        ok &= _print_check(
            rep.passed,
            rep.name,
            f"computed {rep.computed:.8f} {rep.relation} {rep.claimed:.8f}",
        )
    return ok


def _verify_constants() -> bool:
    from . import bounds

    ok = True
    c3 = bounds.ck_closed(3)
    c5 = bounds.ck_closed(5)
    ok &= _print_check(int(c3 * 10**6) == 2381101, "c3", f"{c3:.9f} (prefix 2.381101)")
    ok &= _print_check(int(c5 * 10**6) == 2504521, "c5", f"{c5:.9f} (prefix 2.504521)")
    ok &= _print_check(
        abs(bounds.mcnew_product(5) - c5) < 1e-12 * c5,
        "product small",
        "mcnew_product(5) = c5 to 12 digits",
    )
    m = bounds.mcnew_product(10**7)
    ok &= _print_check(
        abs(m - 2.65044) < 1e-4, "product limit", f"mcnew_product(1e7) = {m:.6f}"
    )
    return ok


def cmd_verify(args) -> int:
    suite = args.suite
    ok = True
    if suite in ("tables", "all"):
        compared = 0
        for which, detail in _TABLE_DETAIL.items():
            checks = counts.check_table(which, args.max, ceiling=args.ceiling)
            for row, passed in checks:
                compared += 1
                ok &= _print_check(
                    passed, f"{which} n={row.n}", detail.format(row.value, row.ratio)
                )
        if not compared:
            # a suite that checked nothing must not report PASSED
            raise ValueError(
                f"the tables suite compared no reference row: none has n <= {args.max}"
            )
    if suite in ("lemmas", "all"):
        ok &= _verify_lemmas(args.max, args.ceiling)
    if suite in ("bounds", "all"):
        ok &= _verify_bounds()
    if suite in ("constants", "all"):
        ok &= _verify_constants()
    print("verification " + ("PASSED" if ok else "FAILED"))
    return 0 if ok else 1


# the flags more than one subcommand reads; each subcommand takes only its own
_SHARED_FLAGS = {
    "--ceiling": dict(type=int, default=DEFAULT_CEILING, help="permanent dimension cap"),
    "--sieve-limit": dict(type=int, default=DEFAULT_SIEVE_LIMIT, help="phi table cap"),
    "--cache": dict(default=DEFAULT_CACHE, help="result cache path"),
    "--no-cache": dict(action="store_true", help="skip the cache"),
    "--verify-cache": dict(action="store_true", help="recompute cached entries and compare"),
    "--format": dict(choices=("csv", "json"), default="csv"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coprime-census",
        description="Exact coprime-permutation counting and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, summary: str, *flags: str):
        # --no-cache is accepted everywhere so one invocation style runs
        # every subcommand; only count has a cache to skip
        p = sub.add_parser(name, help=summary)
        for flag in (*flags, "--no-cache"):
            p.add_argument(flag, **_SHARED_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    count_flags = ("--ceiling", "--cache", "--verify-cache")
    p_count = add("count", cmd_count, "compute one count", *count_flags)
    p_count.add_argument("--kind", required=True, choices=("c", "c0", "c1", "a", "ck"))
    p_count.add_argument("--n", required=True, type=int)
    p_count.add_argument("--aux", type=int, help="k for kind=ck")
    p_count.add_argument(
        "--method", choices=("auto", "permanent", "brute"), default="auto"
    )
    p_count.add_argument(
        "--dump-matrix", action="store_true", help="print the matrix before counting"
    )

    p_table = add("table", cmd_table, "emit a full table", "--ceiling", "--format")
    p_table.add_argument("--which", required=True, choices=("t1", "t2", "t3"))
    p_table.add_argument("--max", required=True, type=int)

    p_dist = add("dist", cmd_dist, "distribution scans", "--format", "--sieve-limit")
    p_dist.add_argument("--n", required=True, type=int)
    # one scan per run: the cutoff counts, the second moment or the top set
    mode = p_dist.add_mutually_exclusive_group()
    mode.add_argument("--alpha", action="append", help="cutoff (repeatable)")
    mode.add_argument("--second-moment", action="store_true")
    mode.add_argument("--top-set", action="store_true")

    p_verify = add("verify", cmd_verify, "verification suites", "--ceiling")
    p_verify.add_argument(
        "--suite",
        required=True,
        choices=("tables", "lemmas", "bounds", "constants", "all"),
    )
    p_verify.add_argument("--max", type=int, default=16, help="table verification cap")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity refusal: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
