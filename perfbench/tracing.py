"""Spans around the program's public functions, recorded from outside it.

The tracer replaces each listed function at the name its caller looks it
up under (``counts.permanent_ryser`` is the name ``count_c0`` calls), so
calls between modules pass through a span.  A span records its name,
start, end, parent span and operation id, plus work counters read from
the arguments or the result.  Spans stay in memory until the run ends.
A listed name the program no longer has is reported as absent.
"""

from __future__ import annotations

import functools
from time import perf_counter


def _reports(result) -> dict:
    items = result if isinstance(result, list) else [result]
    if not items or not all(hasattr(r, "passed") for r in items):
        return {}
    return {"reports": len(items), "failed": sum(not r.passed for r in items)}


def _ryser_work(args, result):
    return {"dim": args[0].n, "terms": 1 << args[0].n}


def _cells(args, result):
    return {"cells": result.n * result.n}


_MATRIX_FNS = (
    "build_odd_half",
    "build_odd_plus_excluding",
    "build_anti",
    "build_gcd_k",
    "build_full_coprime",
)
_COUNTS = ("count_c0", "count_c_a", "count_c1", "count_c", "count_a", "count_ck")

# (module, attribute, span name, work counters).  The attribute is where
# the caller looks the function up; one function imported into several
# modules is listed once per module.
WRAPS = (
    [("counts", "permanent_ryser", "permanent.ryser", _ryser_work)]
    + [("counts", "permanent_expand", "permanent.expand", lambda a, r: {"dim": a[0].n})]
    + [("counts", b, "graph.build", _cells) for b in _MATRIX_FNS]
    + [("counts", c, "counts.count", None) for c in _COUNTS]
    + [("counts", "compute", "counts.compute", None)]
    + [("counts", "brute_constrained_count", "counts.oracle", None)]
    + [(m, "build_sieve", "arith.sieve", None) for m in ("arith", "graph", "counts")]
    + [(m, "phi_array", "arith.phi_array", lambda a, r: {"entries": len(r)}) for m in ("arith", "dist")]
    + [(m, "primes_upto", "arith.primes_upto", None) for m in ("arith", "dist", "bounds")]
    + [("arith", "primes_in_range", "arith.primes_in_range", lambda a, r: {"width": max(0, a[1] - a[0])})]
    + [("dist", f, "dist.scan", lambda a, r: {"entries": a[1]}) for f in ("d_count", "delta_phi")]
    + [("dist", "top_interval_set", "dist.scan", lambda a, r: {"entries": a[0]})]
    + [("dist", "second_moment", "dist.second_moment", None)]
    + [("bounds", f, "bounds.esum", None) for f in ("esum_dyadic", "esum_middle", "esum_tail", "assemble_lower_bound")]
    + [("bounds", "mcnew_product", "bounds.mcnew", None)]
    + [("bounds", "rs_bracket_check", "bounds.rs", None)]
    + [("cli", "main", "cli.main", None)]
    + [("cli", "ResultCache.__init__", "cli.cache.load", lambda a, r: {"records": len(a[0].records)})]
    + [("cli", "ResultCache.get", "cli.cache.get", lambda a, r: {"hit": int(r is not None)})]
    + [("cli", "ResultCache.append", "cli.cache.append", None)]
)

# per-layer metric name -> (unit, better); the traced run reports all of them
PER_LAYER = {
    "permanent.ryser.calls": ("count", "lower"),
    "permanent.ryser.self_s": ("s", "lower"),
    "permanent.ryser.nominal_terms": ("count", "lower"),
    "permanent.ryser.ns_per_term": ("ns", "lower"),
    "permanent.expand.calls": ("count", "lower"),
    "permanent.expand.self_s": ("s", "lower"),
    "permanent.max_dim": ("count", "lower"),
    "counts.calls": ("count", "lower"),
    "counts.self_s": ("s", "lower"),
    "counts.oracle.calls": ("count", "lower"),
    "counts.oracle.self_s": ("s", "lower"),
    "counts.memo_hit_ratio": ("ratio", "higher"),
    "graph.build.calls": ("count", "lower"),
    "graph.build.self_s": ("s", "lower"),
    "graph.cells": ("count", "lower"),
    "arith.phi_array.self_s": ("s", "lower"),
    "arith.phi_array.entries": ("count", "lower"),
    "arith.primes.self_s": ("s", "lower"),
    "arith.primes.span": ("count", "lower"),
    "arith.primes_upto.hit_ratio": ("ratio", "higher"),
    "arith.sieve.self_s": ("s", "lower"),
    "dist.scan.self_s": ("s", "lower"),
    "dist.scan.entries": ("count", "lower"),
    "dist.second_moment.self_s": ("s", "lower"),
    "bounds.esum.self_s": ("s", "lower"),
    "bounds.mcnew.self_s": ("s", "lower"),
    "bounds.rs.self_s": ("s", "lower"),
    "bounds.reports": ("count", "higher"),
    "bounds.reports_failed": ("count", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.cache.load_s": ("s", "lower"),
    "cli.cache.records": ("count", "lower"),
    "cli.cache.append_s": ("s", "lower"),
    "cli.cache.hit_ratio": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """Collects spans from the wrapped functions of one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def install(self, modules: dict) -> None:
        """Wrap every name in WRAPS whose module is given and has it."""
        for mod_name, attr, name, work in WRAPS:
            if mod_name not in modules:
                continue
            owner = modules[mod_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None)
            if fn is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            setattr(owner, leaf, self._wrap(fn, name, work))

    def _wrap(self, fn, name: str, work):
        tracer = self
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": tracer._stack[-1] if tracer._stack else None, "op": tracer.op}
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            misses = cache_info().misses if cache_info else None
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                tracer._stack.pop()
            if misses is not None:
                sieved = cache_info().misses > misses
                span["width"] = args[0] if sieved and args else 0
                span["miss"] = int(sieved)
            span.update(_reports(result))
            if work is not None:
                try:
                    span.update(work(args, result))
                except (AttributeError, IndexError, TypeError):
                    pass  # a changed signature loses the counter, not the span
            return result

        return traced


def layer_metrics(spans: list[dict], import_s: float = 0.0) -> dict[str, float]:
    """Per-layer metrics from spans; self time excludes child spans."""
    n = len(spans)
    dur = [s["end"] - s["start"] for s in spans]
    inner = [0.0] * n
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            inner[s["parent"]] += dur[i]
    own = [d - c for d, c in zip(dur, inner)]

    # a count call that reached no matrix build, permanent or oracle was
    # answered from the memo
    reached = set()
    for s in spans:
        if s["name"] in ("graph.build", "permanent.ryser", "permanent.expand", "counts.oracle"):
            p = s["parent"]
            while p is not None:
                reached.add(p)
                p = spans[p]["parent"]

    def pick(*names):
        return [i for i in range(n) if spans[i]["name"] in names]

    def self_s(*names):
        return sum(own[i] for i in pick(*names))

    def total(key, *names):
        return sum(spans[i].get(key, 0) for i in pick(*names))

    def ratio(hits, calls):
        return hits / calls if calls else 0.0

    primes = ("arith.primes_upto", "arith.primes_in_range")
    top_primes = [
        i for i in pick(*primes)
        if spans[i]["parent"] is None or spans[spans[i]["parent"]]["name"] not in primes
    ]
    count_calls = pick("counts.count")
    ryser_s = self_s("permanent.ryser")
    ryser_terms = total("terms", "permanent.ryser")
    upto = pick("arith.primes_upto")
    gets = pick("cli.cache.get")
    report_spans = [i for i in range(n) if spans[i]["name"].startswith(("bounds.", "dist."))]
    return {
        "permanent.ryser.calls": len(pick("permanent.ryser")),
        "permanent.ryser.self_s": ryser_s,
        "permanent.ryser.nominal_terms": ryser_terms,
        "permanent.ryser.ns_per_term": ratio(ryser_s * 1e9, ryser_terms),
        "permanent.expand.calls": len(pick("permanent.expand")),
        "permanent.expand.self_s": self_s("permanent.expand"),
        "permanent.max_dim": max(
            (spans[i].get("dim", 0) for i in pick("permanent.ryser", "permanent.expand")),
            default=0,
        ),
        "counts.calls": len(count_calls),
        "counts.self_s": self_s("counts.count", "counts.compute"),
        "counts.oracle.calls": len(pick("counts.oracle")),
        "counts.oracle.self_s": self_s("counts.oracle"),
        "counts.memo_hit_ratio": ratio(sum(i not in reached for i in count_calls), len(count_calls)),
        "graph.build.calls": len(pick("graph.build")),
        "graph.build.self_s": self_s("graph.build"),
        "graph.cells": total("cells", "graph.build"),
        "arith.phi_array.self_s": self_s("arith.phi_array"),
        "arith.phi_array.entries": total("entries", "arith.phi_array"),
        "arith.primes.self_s": self_s(*primes),
        "arith.primes.span": sum(spans[i].get("width", 0) for i in top_primes),
        "arith.primes_upto.hit_ratio": ratio(
            len(upto) - total("miss", "arith.primes_upto"), len(upto)
        ),
        "arith.sieve.self_s": self_s("arith.sieve"),
        "dist.scan.self_s": self_s("dist.scan"),
        "dist.scan.entries": total("entries", "dist.scan"),
        "dist.second_moment.self_s": self_s("dist.second_moment"),
        "bounds.esum.self_s": self_s("bounds.esum"),
        "bounds.mcnew.self_s": self_s("bounds.mcnew"),
        "bounds.rs.self_s": self_s("bounds.rs"),
        "bounds.reports": sum(spans[i].get("reports", 0) for i in report_spans),
        "bounds.reports_failed": sum(spans[i].get("failed", 0) for i in report_spans),
        "cli.import_s": import_s,
        "cli.main.self_s": self_s("cli.main"),
        "cli.cache.load_s": self_s("cli.cache.load"),
        "cli.cache.records": total("records", "cli.cache.load"),
        "cli.cache.append_s": self_s("cli.cache.append"),
        "cli.cache.hit_ratio": ratio(total("hit", "cli.cache.get"), len(gets)),
    }
