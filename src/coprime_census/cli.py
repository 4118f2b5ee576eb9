"""Command-line surface: counts, tables, distribution scans, verification.

Exit codes: 0 success, 1 verification failure (or cache contention, or a
corrupt cache), 2 usage error, 3 capacity refusal.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import sys
from pathlib import Path

# Without bytecode files each process compiles every package module it
# imports, so a command imports the layers it runs where it runs them: a
# cache-hit count loads graph (the --aux check, the ceiling and the
# --dump-matrix matrix) but not permanent, counts or checks, and numpy
# (arith, bounds, dist) loads only for dist and the lemmas, bounds and
# constants suites.
from . import __version__
from .graph import DEFAULT_CEILING, CapacityError, check_aux, check_ceiling, count_dimension, matrix

DEFAULT_CACHE = "./coprime-census.cache.jsonl"
DEFAULT_SIEVE_LIMIT = 2 * 10**7
_VERIFY_MAX = 16


def _now() -> str:
    import datetime

    return datetime.datetime.now(datetime.timezone.utc).isoformat()


class ResultCache:
    """Append-only JSONL store of count records, exclusive while open.

    Duplicate (kind, n, aux) keys resolve last-writer-wins, with a warning
    on load when their values differ; contention on the advisory lock
    fails fast.  A line that is not a record (a truncated append, say) is
    refused with its path and line number, and the file is left as it is.  A path that cannot be
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
                value = int(rec["value"])  # every record carries an exact value
                differs = key in self.records and int(self.records[key]["value"]) != value
            except (ValueError, KeyError, TypeError) as exc:
                self._fh.close()
                raise RuntimeError(
                    f"corrupt cache {path} line {lineno}: {exc!r}"
                ) from None
            if differs:
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


def _emit_rows(rows: list[dict], fmt: str, out) -> None:
    if fmt == "json":
        for row in rows:
            out.write(json.dumps(row, sort_keys=True) + "\n")
    else:
        import csv

        writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def cmd_count(args) -> int:
    kind = args.kind
    # before the cache, so no record is ever served under an --aux it ignores
    check_aux(kind, args.aux)
    if args.no_cache and args.verify_cache:
        raise ValueError("--verify-cache compares against the cache that --no-cache skips")
    # built first, so a kind with no matrix is refused before any work;
    # printed only once the count is admitted
    dump = matrix(kind, args.n, args.aux).to_text() if args.dump_matrix else None

    cache = None
    if not args.no_cache:
        cache = ResultCache(Path(args.cache))
    try:
        cached = cache.get(kind, args.n, args.aux) if cache else None
        current = cached is not None and cached.get("engine_version") == __version__
        # a named method is a request to compute, and a record from another
        # engine version is suspect: both check it like --verify-cache
        hit = current and not args.verify_cache and args.method == "auto"
        if hit:
            # the ceiling a computed count would be refused under
            check_ceiling(count_dimension(kind, args.n), args.ceiling)
        else:
            from . import counts

            result = counts.compute(
                kind,
                args.n,
                args.aux,
                method=args.method,
                ceiling=args.ceiling,
            )
        if dump is not None:
            print(dump)
        if hit:
            print(json.dumps(cached, sort_keys=True))
            return 0
        if cached is not None and cached["value"] != str(result.value):
            print(
                f"cache mismatch for ({kind}, {args.n}, {args.aux}): "
                f"stored {cached['value']} recomputed {result.value}",
                file=sys.stderr,
            )
            return 1
        ratio = counts.count_ratio(kind, args.n, result.value)
        shown = None if ratio is None else counts.format_ratio(ratio)
        rec = _record(kind, args.n, args.aux, result.value, shown)
        # a matching record from another engine version is replaced, so
        # the key hits again
        if cache and not current:
            cache.append(rec)
        print(json.dumps(rec, sort_keys=True))
        return 0
    finally:
        if cache:
            cache.close()


def cmd_table(args) -> int:
    from . import counts

    rows = counts.table_rows(args.which, args.max, ceiling=args.ceiling)
    _emit_rows([row.printed() for row in rows], args.format, sys.stdout)
    return 0


def cmd_dist(args) -> int:
    if args.format is not None and (args.second_moment or args.top_set):
        raise ValueError("--format is read only by the --alpha scan; this mode prints JSON")
    if 2 * args.n > args.sieve_limit:
        raise CapacityError(
            f"n={args.n} scans the odd m below 2n = {2 * args.n} > --sieve-limit "
            f"{args.sieve_limit}"
        )
    from . import dist

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
        size, missed = dist.top_interval_check(args.n)
        verdict = "EQUAL" if missed == 0 else "DIFFER"
        print(
            json.dumps({"n": args.n, "size": size, "verdict": verdict}, sort_keys=True)
        )
        return 0 if verdict == "EQUAL" else 1
    rows = [
        {"alpha": str(est.alpha), "count": est.count, "density": est.density}
        for est in dist.d_counts(args.alpha or ["0.5"], args.n)
    ]
    _emit_rows(rows, args.format or "csv", sys.stdout)
    return 0


def cmd_verify(args) -> int:
    # only the tables and lemmas suites count, so only they read --max and
    # --ceiling; None marks a flag left at its default
    given = [flag for flag in ("max", "ceiling") if getattr(args, flag) is not None]
    if given and args.suite in ("bounds", "constants"):
        raise ValueError(f"--{given[0]} is not read by the {args.suite} suite")
    max_n = _VERIFY_MAX if args.max is None else args.max
    ceiling = DEFAULT_CEILING if args.ceiling is None else args.ceiling
    from . import checks

    suites = {
        "tables": lambda: checks.tables(max_n, ceiling),
        "lemmas": lambda: checks.lemmas(max_n, ceiling),
        "bounds": checks.bounds,
        "constants": checks.constants,
    }
    ok = True
    for suite in suites if args.suite == "all" else [args.suite]:
        for rec in suites[suite]():
            ok &= rec.passed or rec.diagnostic
            tag = "PASS" if rec.passed else ("warn" if rec.diagnostic else "FAIL")
            print(f"{tag} {rec.name}: {rec.computed} {rec.relation} {rec.claimed}")
    print("verification " + ("PASSED" if ok else "FAILED"))
    return 0 if ok else 1


# the flags more than one subcommand reads; each subcommand takes only its own
_SHARED_FLAGS = {
    "--ceiling": dict(type=int, default=DEFAULT_CEILING, help="permanent dimension cap"),
    "--sieve-limit": dict(
        type=int,
        default=DEFAULT_SIEVE_LIMIT,
        help="largest 2n a dist scan accepts, a guard on run time",
    ),
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
    # None marks --format left at its default: only the --alpha scan reads it
    p_dist.set_defaults(format=None)

    p_verify = add("verify", cmd_verify, "verification suites", "--ceiling")
    p_verify.add_argument(
        "--suite",
        required=True,
        choices=("tables", "lemmas", "bounds", "constants", "all"),
    )
    p_verify.add_argument(
        "--max",
        type=int,
        help=f"largest n of the tables suite's rows (default {_VERIFY_MAX}); the "
        "lemmas suite runs its square and sandwich records for n <= min(MAX // 2, 12)",
    )
    p_verify.set_defaults(ceiling=None)
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
