"""Tests of the benchmark itself: its checks, its tracing, its contract.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from coprime_census import reference

import run
import tracing
import workloads
from worker import run_ops

ROOT = Path(__file__).resolve().parents[1]


def _oracle_counts(expected):
    """A counts stand-in that answers every request from the expectations."""
    return SimpleNamespace(
        count_c0=lambda n: expected[("c0", n, None)],
        count_c=lambda n: expected[("c", n, None)],
        count_a=lambda n: expected[("a", n, None)],
        count_ck=lambda n, k: workloads.c2_closed(n),
    )


def test_census_checker_counts_a_perturbed_value_as_failed():
    expected = workloads.expected_values(reference)
    ops = workloads.census_plan(random.Random(7), _oracle_counts(expected), expected)
    assert run_ops(ops, lambda op: op.run())["failures"] == []

    perturbed = dict(expected)
    perturbed[("c0", 12, None)] += 1
    ops = workloads.census_plan(random.Random(7), _oracle_counts(expected), perturbed)
    result = run_ops(ops, lambda op: op.run())
    assert result["attempted"] == len(ops)
    assert len(result["failures"]) == 1 and result["failures"][0].startswith("c0(12)")


def test_a_raising_op_is_a_failure_and_the_run_goes_on():
    def boom():
        raise ArithmeticError("no")

    ops = [
        workloads.Op("bad", boom, lambda out: None),
        workloads.Op("good", lambda: 3, lambda out: None if out == 3 else "wrong"),
    ]
    result = run_ops(ops, lambda op: op.run())
    assert result["attempted"] == 2
    assert result["failures"] == ["bad: ArithmeticError: no"]


def test_cli_checks_read_exit_code_value_verdict_and_pass_line():
    expected = workloads.expected_values(reference)
    ops = workloads.cli_plan(random.Random(3), expected, "cache.jsonl")
    count = next(op for op in ops if op.run[:3] == ["count", "--kind", "c0"])
    n = int(count.run[4])
    good = json.dumps({"value": str(reference.TABLE_C0[n][0])})
    assert count.check((0, good)) is None
    assert count.check((0, json.dumps({"value": str(reference.TABLE_C0[n][0] + 1)})))
    assert count.check((1, good))

    top = next(op for op in ops if "--top-set" in op.run)
    assert top.check((0, '{"verdict": "EQUAL"}')) is None
    assert top.check((0, '{"verdict": "DIFFER"}'))

    verify = next(op for op in ops if op.run[0] == "verify")
    assert verify.check((0, "PASS x\nverification PASSED\n")) is None
    assert verify.check((0, "FAIL x\nverification FAILED\n"))


def test_cli_plan_sends_every_count_key_three_times_and_never_the_default_cache():
    ops = workloads.cli_plan(random.Random(5), workloads.expected_values(reference), "c.jsonl")
    keys = [tuple(op.run) for op in ops if op.run[0] == "count"]
    assert len(keys) == len(workloads.CLI_COUNT_KEYS) * workloads.CLI_REPEATS
    assert all(keys.count(k) == workloads.CLI_REPEATS for k in keys)
    for op in ops:
        assert ("--no-cache" in op.run) != ("--cache" in op.run)
        assert not {"--threads", "--ceiling", "--method"} & set(op.run)


def test_plans_depend_on_the_seed_only():
    expected = workloads.expected_values(reference)
    names = lambda seed: [  # noqa: E731
        op.name for op in workloads.census_plan(random.Random(seed), None, expected)
    ]
    assert names(1) == names(1)
    assert names(1) != names(2)


def test_self_time_excludes_children_and_absent_names_are_reported():
    mod = SimpleNamespace(count_c0=lambda n: n)
    tracer = tracing.Tracer()
    tracer.install({"counts": mod})
    assert "counts.permanent_ryser" in tracer.absent
    spans = [
        {"name": "counts.count", "start": 0.0, "end": 10.0, "parent": None, "op": 0},
        {"name": "permanent.ryser", "start": 1.0, "end": 7.0, "parent": 0, "op": 0, "terms": 64, "dim": 6},
        {"name": "counts.count", "start": 11.0, "end": 12.0, "parent": None, "op": 1},
    ]
    m = tracing.layer_metrics(spans)
    assert m["counts.self_s"] == pytest.approx(5.0)
    assert m["permanent.ryser.self_s"] == pytest.approx(6.0)
    assert m["permanent.ryser.ns_per_term"] == pytest.approx(6e9 / 64)
    assert m["counts.memo_hit_ratio"] == pytest.approx(0.5)
    assert mod.count_c0(4) == 4
    assert set(m) | {"trace.overhead_s"} == set(tracing.PER_LAYER)


def test_tail_rank_leaves_ten_samples_beyond():
    assert run.tail_rank(50) == (80, 40)
    for n in (24, 54, 200):
        _, rank = run.tail_rank(n)
        assert n - rank >= 10


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in bench["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == tracing.PER_LAYER
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
