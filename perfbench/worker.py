"""One round of a workload in a fresh interpreter.

    python perfbench/worker.py --workload census --seed 1 [--trace]

Run from the checkout root with ``src`` on PYTHONPATH (run.py does both).
The last line of standard output is a JSON record of the round: the
monotonic time the first timed call started, the timed wall time, each
operation's latency, the failures, and the peak RSS of the process that
did the work.  A fresh interpreter per round keeps every in-process memo
and cache of the program cold.

``--traced-command ARGV_JSON`` is the traced form of one CLI command: it
times ``import coprime_census.cli``, wraps the layers, runs
``cli.main(argv)`` in-process and prints its spans.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import tracing
import workloads

COMMAND_TIMEOUT_S = 60


def run_ops(ops, execute, tracer=None) -> dict:
    """Run each op, time it, check its output; a failure never aborts."""
    latencies, failures = [], []
    start = time.perf_counter()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        t0 = time.perf_counter()
        try:
            out, err = execute(op), None
        except Exception as exc:  # the op failed; record it and go on
            out, err = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        if err is None:
            try:
                err = op.check(out)
            except Exception as exc:  # a malformed output is a failure too
                err = f"unreadable output: {type(exc).__name__}: {exc}"
        if err is not None:
            failures.append(f"{op.name}: {err}")
    return {
        "wall_s": time.perf_counter() - start,
        "latencies": latencies,
        "attempted": len(ops),
        "failures": failures,
    }


def _cli_runner(cwd: Path, env: dict, traced: list | None):
    """Execute CLI ops as subprocesses; traced ones return their spans."""

    def execute(op):
        if traced is None:
            argv = [sys.executable, "-m", "coprime_census", *op.run]
        else:
            argv = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--traced-command",
                json.dumps(op.run),
                "--op",
                str(len(traced)),
            ]
        res = subprocess.run(
            argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S
        )
        if traced is None:
            return res.returncode, res.stdout
        child = json.loads(res.stdout.strip().splitlines()[-1])
        traced.append(child)
        return child["rc"], child["stdout"]

    return execute


def _merge_spans(children: list[dict]) -> list[dict]:
    spans = []
    for child in children:
        base = len(spans)
        for s in child["spans"]:
            if s["parent"] is not None:
                s["parent"] += base
            spans.append(s)
    return spans


LAYERS = ("arith", "bounds", "counts", "dist", "graph")


def _tracer(modules) -> tracing.Tracer:
    """A tracer wrapping the listed coprime_census modules."""
    tracer = tracing.Tracer()
    tracer.install({m: importlib.import_module(f"coprime_census.{m}") for m in modules})
    return tracer


def run_round(workload: str, seed: int, trace: bool, out_dir: Path) -> dict:
    import numpy
    from coprime_census import counts, reference

    rng = random.Random(seed)
    expected = workloads.expected_values(reference)
    tracer = None
    traced_children = None
    if workload == "cli":
        tmp = out_dir / f"cli-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        ops = workloads.cli_plan(rng, expected, str(tmp / "cache.jsonl"))
        traced_children = [] if trace else None
        # the commands run in another cwd, so src goes on their path absolute
        src = str(Path(reference.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        execute = _cli_runner(tmp, env, traced_children)
    else:
        tmp = None
        if workload != "census":
            raise SystemExit(f"unknown workload {workload!r}")
        ops = workloads.census_plan(rng, counts, expected)
        if trace:
            tracer = _tracer(LAYERS)
        execute = lambda op: op.run()  # noqa: E731

    ready = time.monotonic()
    try:
        result = run_ops(ops, execute, tracer)
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    result.update(
        ready=ready,
        peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0,
        numpy=numpy.__version__,
        op_names=[op.name for op in ops],
    )
    if trace:
        if tracer is not None:
            spans, absent, import_s = tracer.spans, tracer.absent, 0.0
        else:
            spans = _merge_spans(traced_children)
            absent = sorted({a for c in traced_children for a in c["absent"]})
            imports = sorted(c["import_s"] for c in traced_children)
            import_s = imports[len(imports) // 2] if imports else 0.0
        trace_file = out_dir / f"spans-{workload}-seed{seed}.json"
        trace_file.write_text(json.dumps(spans))
        result["layers"] = tracing.layer_metrics(spans, import_s)
        result["absent"] = absent
        result["trace_file"] = str(trace_file)
    return result


def traced_command(argv: list[str], op: int) -> dict:
    t0 = time.perf_counter()
    import coprime_census.cli as cli

    import_s = time.perf_counter() - t0
    tracer = _tracer(LAYERS + ("cli",))
    tracer.op = op
    buf = io.StringIO()
    with redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad usage this way
            rc = exc.code if isinstance(exc.code, int) else 1
    return {
        "rc": rc,
        "stdout": buf.getvalue(),
        "spans": tracer.spans,
        "absent": tracer.absent,
        "import_s": import_s,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out-dir", default=".perfbench_out")
    parser.add_argument("--traced-command")
    parser.add_argument("--op", type=int, default=0)
    args = parser.parse_args()
    if args.traced_command is not None:
        record = traced_command(json.loads(args.traced_command), args.op)
    else:
        record = run_round(args.workload, args.seed, args.trace, Path(args.out_dir).resolve())
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
