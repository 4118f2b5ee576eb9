import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import coprime_census


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "coprime_census", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def payload(record: dict) -> dict:
    return {k: v for k, v in record.items() if k != "timestamp"}


def test_subprocess_imports_same_package(tmp_path):
    """Every CLI test launches a child from tmp_path; it must find the package."""
    res = subprocess.run(
        [sys.executable, "-c", "import coprime_census; print(coprime_census.__file__)"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    child = Path(res.stdout.strip()).resolve()
    assert child == Path(coprime_census.__file__).resolve()


# runs one command in a fresh interpreter; prints its exit code and which
# of the watched modules it loaded
_LOADED = """
import io, json, sys
from contextlib import redirect_stdout
import coprime_census.cli as cli
with redirect_stdout(io.StringIO()):
    rc = cli.main(sys.argv[1:])
watched = ("coprime_census.counts", "coprime_census.checks", "dataclasses", "numpy")
print(json.dumps([rc, [m for m in watched if m in sys.modules]]))
"""


def loaded_by(argv: list[str], cwd) -> set[str]:
    res = subprocess.run(
        [sys.executable, "-c", _LOADED, *argv], capture_output=True, text=True, cwd=cwd
    )
    assert res.returncode == 0, res.stderr
    rc, loaded = json.loads(res.stdout)
    assert rc == 0, argv
    return set(loaded)


def test_count_and_table_never_load_numpy(tmp_path):
    """count, table and the verify tables suite run on the pure-Python stack
    without dataclasses or numpy; a cache hit loads neither counts nor checks."""
    runs = [
        ["count", "--kind", "c0", "--n", "10", "--no-cache"],
        ["count", "--kind", "c", "--n", "11", "--no-cache"],
        ["count", "--kind", "a", "--n", "12", "--no-cache"],
        ["count", "--kind", "ck", "--n", "8", "--aux", "3", "--no-cache"],
        ["table", "--which", "t1", "--max", "8"],
        ["table", "--which", "t2", "--max", "9"],
        ["table", "--which", "t3", "--max", "12"],
        ["verify", "--suite", "tables", "--max", "12"],
    ]
    for argv in runs:
        assert not loaded_by(argv, tmp_path) & {"dataclasses", "numpy"}, argv
    hit = ["count", "--kind", "c0", "--n", "12", "--cache", str(tmp_path / "c.jsonl")]
    assert "coprime_census.counts" in loaded_by(hit, tmp_path)  # the miss fills it
    assert loaded_by(hit, tmp_path) == set()


class TestCount:
    def test_c24(self, tmp_path):
        res = run_cli("count", "--kind", "c", "--n", "24", "--no-cache", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        rec = json.loads(res.stdout)
        assert rec["value"] == "1142807773593600"
        assert rec["ratio"] == "2.3118"
        assert rec["kind"] == "c" and rec["n"] == 24 and rec["aux"] is None

    def test_a20(self, tmp_path):
        res = run_cli("count", "--kind", "a", "--n", "20", "--no-cache", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["value"] == "318695040"

    def test_c2(self, tmp_path):
        res = run_cli("count", "--kind", "c", "--n", "2", "--no-cache", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["value"] == "1"

    def test_methods_byte_identical(self, tmp_path):
        a = run_cli(
            "count", "--kind", "c", "--n", "12", "--no-cache", cwd=tmp_path
        )
        b = run_cli(
            "count",
            "--kind",
            "c",
            "--n",
            "12",
            "--method",
            "permanent",
            "--no-cache",
            cwd=tmp_path,
        )
        assert a.returncode == 0, a.stderr
        assert b.returncode == 0, b.stderr
        assert json.loads(a.stdout)["value"] == json.loads(b.stdout)["value"]

    def test_usage_error(self, tmp_path):
        res = run_cli("count", "--kind", "zz", "--n", "4", cwd=tmp_path)
        assert res.returncode == 2

    def test_missing_aux_is_usage_error(self, tmp_path):
        res = run_cli("count", "--kind", "ck", "--n", "6", "--no-cache", cwd=tmp_path)
        assert res.returncode == 2

    def test_capacity_refusal(self, tmp_path):
        res = run_cli(
            "count", "--kind", "c0", "--n", "45", "--no-cache", cwd=tmp_path
        )
        assert res.returncode == 3
        assert "ceiling" in res.stderr

    def test_capacity_refusal_for_anti(self, tmp_path):
        # build_anti(20) has dimension 15; a subprocess has an empty memo
        res = run_cli(
            "count", "--kind", "a", "--n", "20", "--ceiling", "10", "--no-cache",
            cwd=tmp_path,
        )
        assert res.returncode == 3, res.stderr
        assert "ceiling" in res.stderr

    def test_brute_refuses_past_the_ceiling(self, tmp_path):
        # every kind's brute path is covered in test_counts
        res = run_cli(
            "count", "--kind", "c0", "--n", "5", "--method", "brute", "--ceiling", "2",
            "--no-cache", cwd=tmp_path,
        )
        assert res.returncode == 3, res.stdout + res.stderr
        assert "exceeds ceiling 2" in res.stderr
        assert res.stdout == ""

    def test_dump_matrix(self, tmp_path):
        res = run_cli(
            "count",
            "--kind",
            "c0",
            "--n",
            "3",
            "--dump-matrix",
            "--no-cache",
            cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        assert lines[0] == "rows: 1 3 5"
        assert lines[1] == "cols: 1 2 3"
        assert lines[2:5] == ["111", "110", "111"]
        json.loads(lines[5])  # record still emitted

    def test_dump_matrix_for_a1(self, tmp_path):
        # 1 is a forced fixed point, so the reduced matrix is 0 x 0
        res = run_cli(
            "count", "--kind", "a", "--n", "1", "--dump-matrix", "--no-cache", cwd=tmp_path
        )
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        assert lines[:2] == ["rows: ", "cols: "]
        assert json.loads(lines[2])["value"] == "1" and len(lines) == 3

    def test_dump_matrix_for_ck(self, tmp_path):
        res = run_cli(
            "count", "--kind", "ck", "--n", "6", "--aux", "3", "--dump-matrix",
            "--no-cache", cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        assert lines[:2] == ["rows: 1 2 3 4 5 6", "cols: 1 2 3 4 5 6"]
        # gcd(i, j, 3!) = 1: no shared factor 2 or 3
        assert lines[2:8] == ["111111", "101010", "110110", "101010", "111111", "100010"]
        assert json.loads(lines[8])["value"] == "16"

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--kind", "c", "--n", "9", "--aux", "3"],
            ["count", "--kind", "c1", "--n", "4", "--method", "permanent"],
            ["count", "--kind", "c1", "--n", "3", "--dump-matrix"],
            ["count", "--kind", "c0", "--n", "6", "--sieve-limit", "5"],
            ["count", "--kind", "c0", "--n", "6", "--format", "json"],
            ["table", "--which", "t1", "--max", "3", "--verify-cache"],
            ["dist", "--n", "100", "--ceiling", "3"],
            ["dist", "--n", "100", "--threads", "0"],
            ["count", "--kind", "c0", "--n", "5", "--threads", "2", "--no-cache"],
            ["table", "--which", "t1", "--max", "3", "--threads", "2"],
            ["verify", "--suite", "constants", "--threads", "2"],
        ],
        ids=[
            "count-aux-on-c",
            "count-c1-permanent",
            "count-c1-dump",
            "count-sieve-limit",
            "count-format",
            "table-verify-cache",
            "dist-ceiling",
            "dist-threads",
            "count-threads",
            "table-threads",
            "verify-threads",
        ],
    )
    def test_input_the_command_does_not_read_is_refused(self, tmp_path, argv):
        res = run_cli(*argv, cwd=tmp_path)
        assert res.returncode == 2, res.stdout + res.stderr


class TestCache:
    def test_round_trip_byte_identical(self, tmp_path):
        first = run_cli("count", "--kind", "c0", "--n", "9", cwd=tmp_path)
        assert first.returncode == 0, first.stderr
        second = run_cli("count", "--kind", "c0", "--n", "9", cwd=tmp_path)
        assert second.returncode == 0, second.stderr
        # cache hit re-emits the stored record verbatim
        assert json.loads(first.stdout) == json.loads(second.stdout)
        cache_file = tmp_path / "coprime-census.cache.jsonl"
        assert cache_file.exists()
        stored = json.loads(cache_file.read_text().strip())
        assert stored["value"] == "59616"

    def test_verify_cache_recomputes(self, tmp_path):
        seed = run_cli("count", "--kind", "c0", "--n", "8", cwd=tmp_path)
        assert seed.returncode == 0, seed.stderr
        res = run_cli(
            "count", "--kind", "c0", "--n", "8", "--verify-cache", cwd=tmp_path
        )
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["value"] == "9552"

    def test_verify_cache_detects_corruption(self, tmp_path):
        seed = run_cli("count", "--kind", "c0", "--n", "8", cwd=tmp_path)
        assert seed.returncode == 0, seed.stderr
        cache_file = tmp_path / "coprime-census.cache.jsonl"
        text = cache_file.read_text().replace("9552", "9553")
        cache_file.write_text(text)
        res = run_cli(
            "count", "--kind", "c0", "--n", "8", "--verify-cache", cwd=tmp_path
        )
        assert res.returncode == 1
        assert "mismatch" in res.stderr

    def test_named_method_checks_the_cached_record(self, tmp_path):
        seed = run_cli("count", "--kind", "c", "--n", "9", cwd=tmp_path)
        assert seed.returncode == 0, seed.stderr
        cache_file = tmp_path / "coprime-census.cache.jsonl"
        rec = json.loads(cache_file.read_text())
        assert rec["value"] == "3600"
        rec["value"] = "3601"
        cache_file.write_text(json.dumps(rec, sort_keys=True) + "\n")
        res = run_cli("count", "--kind", "c", "--n", "9", "--method", "brute", cwd=tmp_path)
        assert res.returncode == 1, res.stdout + res.stderr
        assert "mismatch" in res.stderr

    def test_record_from_another_engine_version_is_recomputed(self, tmp_path):
        seed = run_cli("count", "--kind", "c0", "--n", "8", cwd=tmp_path)
        assert seed.returncode == 0, seed.stderr
        cache_file = tmp_path / "coprime-census.cache.jsonl"
        rec = json.loads(cache_file.read_text())
        rec["engine_version"] = "0.0.0"
        rec["value"] = "9553"
        stale = json.dumps(rec, sort_keys=True) + "\n"
        cache_file.write_text(stale)
        res = run_cli("count", "--kind", "c0", "--n", "8", cwd=tmp_path)
        assert res.returncode == 1, res.stdout + res.stderr
        assert "mismatch" in res.stderr
        assert cache_file.read_text() == stale

    @pytest.mark.parametrize(
        "key, argv",
        [
            (("c", 9, 3), ["--kind", "c", "--n", "9", "--aux", "3"]),
            (("ck", 6, None), ["--kind", "ck", "--n", "6"]),
        ],
        ids=["aux-on-c", "ck-without-aux"],
    )
    def test_unread_aux_is_refused_before_a_stored_record(self, tmp_path, key, argv):
        kind, n, aux = key
        rec = {"kind": kind, "n": n, "aux": aux, "value": "1", "ratio": None,
               "timestamp": "", "engine_version": coprime_census.__version__}
        cache_file = tmp_path / "seeded.jsonl"
        cache_file.write_text(json.dumps(rec, sort_keys=True) + "\n")
        res = run_cli("count", *argv, "--cache", str(cache_file), cwd=tmp_path)
        assert res.returncode == 2, res.stdout + res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("damage", ["truncated", "no-value"])
    def test_corrupt_line_names_the_file_and_line(self, tmp_path, damage):
        seed = run_cli("count", "--kind", "c0", "--n", "5", cwd=tmp_path)
        assert seed.returncode == 0, seed.stderr
        cache_file = tmp_path / "coprime-census.cache.jsonl"
        text = cache_file.read_text()
        if damage == "truncated":
            # a second record cut off mid-append
            bad = text[:-20]
        else:
            bad = '{"aux": null, "kind": "c0", "n": 7}\n'
        cache_file.write_text(text + bad)
        res = run_cli("count", "--kind", "c0", "--n", "6", cwd=tmp_path)
        assert res.returncode == 1, res.stdout + res.stderr
        assert "line 2" in res.stderr
        assert cache_file.name in res.stderr
        assert cache_file.read_text() == text + bad

    @pytest.mark.parametrize(
        "where, reason",
        [("missing-directory", "No such file or directory"), ("directory", "Is a directory")],
    )
    def test_unopenable_path_is_a_usage_error(self, tmp_path, where, reason):
        path = tmp_path / "absent" / "x.jsonl" if where == "missing-directory" else tmp_path
        res = run_cli("count", "--kind", "c0", "--n", "5", "--cache", str(path), cwd=tmp_path)
        assert res.returncode == 2, res.stdout + res.stderr
        assert str(path) in res.stderr and reason in res.stderr
        assert "Traceback" not in res.stderr


class TestTable:
    def test_t1_csv(self, tmp_path):
        res = run_cli(
            "table", "--which", "t1", "--max", "12", "--no-cache", cwd=tmp_path
        )
        assert res.returncode == 0, res.stderr
        rows = list(csv.DictReader(io.StringIO(res.stdout)))
        assert res.stdout.splitlines()[0] == "n,value,ratio"
        assert len(rows) == 12
        assert rows[11] == {"n": "12", "value": "33805440", "ratio": "2.3118"}

    def test_t2_rows(self, tmp_path):
        res = run_cli(
            "table", "--which", "t2", "--max", "21", "--no-cache", cwd=tmp_path
        )
        assert res.returncode == 0, res.stderr
        rows = {r["n"]: r for r in csv.DictReader(io.StringIO(res.stdout))}
        assert rows["21"]["value"] == "12474417291264"
        assert rows["21"]["ratio"] == "2.0648"

    def test_t3_rows(self, tmp_path):
        res = run_cli(
            "table", "--which", "t3", "--max", "27", "--no-cache", cwd=tmp_path
        )
        assert res.returncode == 0, res.stderr
        rows = {r["n"]: r for r in csv.DictReader(io.StringIO(res.stdout))}
        assert "23" not in rows  # primes are skipped
        assert rows["27"]["value"] == "132879856582656"
        assert rows["27"]["ratio"] == "3.2758"

    def test_csv_and_json_carry_identical_data(self, tmp_path):
        c = run_cli("table", "--which", "t1", "--max", "6", "--no-cache", cwd=tmp_path)
        j = run_cli(
            "table",
            "--which",
            "t1",
            "--max",
            "6",
            "--format",
            "json",
            "--no-cache",
            cwd=tmp_path,
        )
        assert c.returncode == 0, c.stderr
        assert j.returncode == 0, j.stderr
        csv_rows = [
            {"n": int(r["n"]), "value": r["value"], "ratio": r["ratio"]}
            for r in csv.DictReader(io.StringIO(c.stdout))
        ]
        json_rows = [json.loads(line) for line in j.stdout.splitlines()]
        assert len(csv_rows) == 6
        assert csv_rows == json_rows

    @pytest.mark.parametrize(
        "which, max_n, first",
        [("t1", "0", 1), ("t3", "3", 4)],
        ids=["t1-max-0", "t3-max-3"],
    )
    def test_table_with_no_row_is_refused(self, tmp_path, which, max_n, first):
        res = run_cli(
            "table", "--which", which, "--max", max_n, "--no-cache", cwd=tmp_path
        )
        assert res.returncode == 2, res.stdout + res.stderr
        assert f"table {which} has no row n <= {max_n}" in res.stderr
        assert f"its first row is n={first}" in res.stderr
        assert res.stdout == ""


class TestDist:
    def test_density_row(self, tmp_path):
        res = run_cli(
            "dist",
            "--alpha",
            "0.5",
            "--n",
            "100000",
            "--format",
            "json",
            "--no-cache",
            cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        row = json.loads(res.stdout)
        assert row["alpha"] == "1/2"
        assert 0.018 < row["density"] < 0.028

    def test_second_moment_mode(self, tmp_path):
        res = run_cli(
            "dist", "--second-moment", "--n", "100000", "--no-cache", cwd=tmp_path
        )
        assert res.returncode == 0, res.stderr
        data = json.loads(res.stdout)
        assert data["ratio_to_n"] < 1.78

    def test_top_set_mode(self, tmp_path):
        res = run_cli(
            "dist", "--top-set", "--n", "10000", "--no-cache", cwd=tmp_path
        )
        assert res.returncode == 0
        assert json.loads(res.stdout)["verdict"] == "EQUAL"

    def test_sieve_limit_refusal(self, tmp_path):
        res = run_cli(
            "dist",
            "--alpha",
            "0.5",
            "--n",
            "60000",
            "--sieve-limit",
            "100000",
            "--no-cache",
            cwd=tmp_path,
        )
        assert res.returncode == 3


    def test_zero_denominator_is_a_usage_error(self, tmp_path):
        res = run_cli("dist", "--n", "10", "--alpha", "1/0", cwd=tmp_path)
        assert res.returncode == 2, res.stdout + res.stderr
        assert "zero denominator" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "modes",
        [
            ["--second-moment", "--top-set"],
            ["--alpha", "0.5", "--second-moment"],
            ["--alpha", "0.5", "--top-set"],
        ],
        ids=["moment-top", "alpha-moment", "alpha-top"],
    )
    def test_modes_are_exclusive(self, tmp_path, modes):
        res = run_cli("dist", "--n", "1000", *modes, cwd=tmp_path)
        assert res.returncode == 2, res.stdout + res.stderr
        assert "not allowed with" in res.stderr
        assert res.stdout == ""


class TestVerify:
    def test_constants_suite(self, tmp_path):
        res = run_cli("verify", "--suite", "constants", "--no-cache", cwd=tmp_path)
        assert res.returncode == 0, res.stdout + res.stderr
        assert "PASS c3" in res.stdout and "PASS c5" in res.stdout

    def test_bounds_suite(self, tmp_path):
        res = run_cli("verify", "--suite", "bounds", "--no-cache", cwd=tmp_path)
        assert res.returncode == 0
        for name in ("esum-dyadic", "esum-middle", "esum-tail", "assembly"):
            assert f"PASS {name}" in res.stdout

    def test_tables_suite_prefix(self, tmp_path):
        res = run_cli(
            "verify", "--suite", "tables", "--max", "12", "--no-cache", cwd=tmp_path
        )
        assert res.returncode == 0, res.stdout
        assert "verification PASSED" in res.stdout

    @pytest.mark.parametrize("suite", ["tables", "all"])
    def test_tables_suite_that_compares_nothing_is_refused(self, tmp_path, suite):
        res = run_cli(
            "verify", "--suite", suite, "--max", "0", "--no-cache", cwd=tmp_path
        )
        assert res.returncode == 2, res.stdout + res.stderr
        assert "verification PASSED" not in res.stdout
        assert "compared no reference row" in res.stderr

    def test_tables_suite_passes_with_one_table_empty(self, tmp_path):
        # t3 starts at n = 4; t1 and t2 still compare rows at --max 3
        res = run_cli(
            "verify", "--suite", "tables", "--max", "3", "--no-cache", cwd=tmp_path
        )
        assert res.returncode == 0, res.stdout + res.stderr
        assert "PASS t1 n=3" in res.stdout and "PASS t2 n=3" in res.stdout
        assert "t3 n=" not in res.stdout
        assert "verification PASSED" in res.stdout

    def test_a_diagnostic_miss_warns_and_a_check_miss_fails(self, monkeypatch, capsys):
        from coprime_census import checks, cli

        make = checks.BoundReport.make
        records = [
            make("held", 1, "==", 1),
            make("drift", 0.82183, ">=", 0.834, diagnostic=True),
        ]
        monkeypatch.setattr(checks, "constants", lambda: records)
        assert cli.main(["verify", "--suite", "constants"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "PASS held: 1 == 1",
            "warn drift: 0.82183 >= 0.834",
            "verification PASSED",
        ]
        records.append(make("missed", 2, "<", 1))
        assert cli.main(["verify", "--suite", "constants"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[-2:] == ["FAIL missed: 2 < 1", "verification FAILED"]

    def test_lemmas_respect_the_ceiling(self, tmp_path):
        # the C_2(2n+1) parity checks reach dimension 13
        res = run_cli(
            "verify", "--suite", "lemmas", "--max", "4", "--ceiling", "12",
            "--no-cache", cwd=tmp_path,
        )
        assert res.returncode == 3, res.stdout + res.stderr
        assert "exceeds ceiling 12" in res.stderr


class TestDeterminism:
    def test_repeated_runs_give_the_same_payload(self, tmp_path):
        outs = []
        for _ in range(2):
            res = run_cli(
                "count", "--kind", "c0", "--n", "16", "--no-cache", cwd=tmp_path
            )
            assert res.returncode == 0, res.stderr
            outs.append(payload(json.loads(res.stdout)))
        assert outs[0] == outs[1]
