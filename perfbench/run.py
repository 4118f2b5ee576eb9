"""The repository benchmark: seeded workloads, timed from outside the program.

    python3 perfbench/run.py --workload census|cli --seed N \\
        --seconds S --trace 0|1

Run it from the checkout root.  Each round of a workload runs in a fresh
interpreter (worker.py), so no memo or cache of the program carries over
from one round to the next; rounds repeat until ``--seconds`` have passed,
and each timing reported is the best over the rounds.  All outputs are
checked; a wrong one counts as failed and the run goes on.

Workloads (sizes in workloads.py):

* census: exact C0, odd C, even C, composite A and C_2 counts through the
  counts API with library defaults (one lane).
* cli: about 50 ``python -m coprime_census`` commands against a fresh
  private cache; every count key misses once, then hits; the dist, table
  and verify commands carry the density, bound and constant checks.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` adds one
traced round after the timed ones and prints the per-layer metrics taken
from its spans, with the tracing overhead against the untraced median.
The last line of standard output is the result as JSON; the lines before
it give the provenance and each metric with its unit.  The full record
and the spans are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
ROUND_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cmd_p50_ms": "ms",
    "cmd_tail_ms": "ms",
}


def tail_rank(n: int) -> tuple[int, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (percentile, 1-based nearest rank) for n samples.
    """
    pct = max(0, math.floor(100 * (n - 10) / n))
    return pct, max(1, math.ceil(pct * n / 100))


def run_worker(root: Path, env: dict, workload: str, seed: int, trace: bool) -> dict:
    argv = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--out-dir",
        str(root / OUT_DIR),
    ]
    if trace:
        argv.append("--trace")
    spawned = time.monotonic()
    res = subprocess.run(
        argv, cwd=root, env=env, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S
    )
    if res.returncode != 0:
        raise RuntimeError(f"worker failed ({res.returncode}):\n{res.stderr[-4000:]}")
    record = json.loads(res.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["ready"] - spawned
    return record


def provenance(root: Path, workload: str, seed: int, numpy_version: str) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_rev = None
    return {
        "workload": workload,
        "seed": seed,
        "why": workloads.WHY[workload],
        "sizes": workloads.sizes(workload),
        "git_rev": git_rev,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "coprime_census" / "__init__.py").is_file():
        print(f"error: no coprime_census package under {src}; run from the checkout root",
              file=sys.stderr)
        return 2
    (root / OUT_DIR).mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    rounds = []
    begin = time.monotonic()
    while not rounds or time.monotonic() - begin < args.seconds:
        rounds.append(run_worker(root, env, args.workload, args.seed, trace=False))
    traced = run_worker(root, env, args.workload, args.seed, trace=True) if args.trace else None

    # Other tenants of a shared machine only ever add time, so an op's
    # fastest time over the rounds is the steadiest measure of its own
    # cost: wall_s is the timed phase with every op at its best, and the
    # percentiles are taken over those per-op bests.  Set-up and memory
    # are medians over the rounds.
    n_ops = len(rounds[0]["latencies"])
    best_ops = sorted(min(r["latencies"][i] for r in rounds) for i in range(n_ops))
    pct, rank = tail_rank(n_ops)
    values = {
        "wall_s": sum(best_ops),
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "cmd_p50_ms": 1000 * statistics.median(best_ops),
        "cmd_tail_ms": 1000 * best_ops[rank - 1],
    }
    if traced is None:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    else:
        untraced = statistics.median(r["wall_s"] for r in rounds)
        layers = dict(traced["layers"], **{"trace.overhead_s": traced["wall_s"] - untraced})
        metrics = {k: {"value": layers[k], "unit": tracing.PER_LAYER[k][0]} for k in tracing.PER_LAYER}

    done = rounds + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in done)
    failures = [f for r in done for f in r["failures"]]
    record = {
        "provenance": provenance(root, args.workload, args.seed, rounds[0]["numpy"]),
        "rounds": len(rounds),
        "ops_per_round": n_ops,
        "cmd_tail_percentile": pct,
        "end_to_end": values,
        "ops": rounds[0]["op_names"],
        "per_round": {
            key: [r[key] for r in rounds]
            for key in ("wall_s", "setup_s", "peak_rss_mb", "latencies")
        },
        "fail_frac": len(failures) / attempted,
        "failures": failures,
        "traced": traced and {k: traced[k] for k in ("wall_s", "layers", "absent", "trace_file")},
    }
    (root / OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )

    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    for name, value in values.items():
        print(f"{name} = {value:.6g} {END_TO_END[name]}")
    print(f"cmd_tail_ms is p{pct} of {n_ops} ops, each the best of {len(rounds)} rounds")
    print(f"fail_frac = {len(failures)}/{attempted} = {record['fail_frac']:.6g}")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    if traced is not None:
        print(f"traced wall_s = {traced['wall_s']:.6g} s, overhead "
              f"{metrics['trace.overhead_s']['value']:+.6g} s; absent: {traced['absent'] or 'none'}")
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
