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
watched = (
    "coprime_census.permanent",
    "coprime_census.counts",
    "coprime_census.checks",
    "coprime_census.reference",
    "dataclasses",
    "numpy",
)
print(json.dumps([rc, [m for m in watched if m in sys.modules]]))
"""


def loaded_by(argv: list[str], cwd, code: int = 0) -> set[str]:
    res = subprocess.run(
        [sys.executable, "-c", _LOADED, *argv], capture_output=True, text=True, cwd=cwd
    )
    assert res.returncode == 0, res.stderr
    rc, loaded = json.loads(res.stdout)
    assert rc == code, argv
    return set(loaded)


def test_count_and_table_never_load_numpy(tmp_path):
    """count, table and the verify tables suite run on the pure-Python stack
    without dataclasses or numpy, and only the suite reads the reference
    tables; a cache hit loads none of permanent, counts and checks, and nor
    does its --dump-matrix, which reads graph."""
    runs = [
        ["count", "--kind", "c0", "--n", "10", "--no-cache"],
        ["count", "--kind", "c", "--n", "11", "--no-cache"],
        ["count", "--kind", "a", "--n", "12", "--no-cache"],
        ["count", "--kind", "a", "--n", "24", "--no-cache"],  # three primes eliminated
        ["count", "--kind", "ck", "--n", "8", "--aux", "3", "--no-cache"],
        ["table", "--which", "t1", "--max", "8"],
        ["table", "--which", "t2", "--max", "9"],
        ["table", "--which", "t3", "--max", "12"],
        ["verify", "--suite", "tables", "--max", "12"],
    ]
    for argv in runs:
        loaded = loaded_by(argv, tmp_path)
        assert not loaded & {"dataclasses", "numpy"}, argv
        if argv[0] != "verify":
            assert "coprime_census.reference" not in loaded, argv
    hit = ["count", "--kind", "c0", "--n", "12", "--cache", str(tmp_path / "c.jsonl")]
    assert "coprime_census.counts" in loaded_by(hit, tmp_path)  # the miss fills it
    assert loaded_by(hit, tmp_path) == set()
    assert loaded_by(hit + ["--dump-matrix"], tmp_path) == set()


def test_dist_and_bounds_never_load_the_counting_stack(tmp_path):
    """dist and the bounds suite load neither counts nor permanent, and
    dist, which builds no check record, loads neither checks nor the
    reference tables."""
    dist_runs = [
        ["dist", "--n", "1000", "--alpha", "0.5"],
        ["dist", "--n", "1000", "--top-set"],
        ["dist", "--n", "1000", "--second-moment"],
    ]
    for argv in (*dist_runs, ["verify", "--suite", "bounds"]):
        loaded = loaded_by(argv, tmp_path)
        assert not loaded & {"coprime_census.counts", "coprime_census.permanent"}, argv
    for argv in dist_runs:
        loaded = loaded_by(argv, tmp_path)
        assert not loaded & {"coprime_census.checks", "coprime_census.reference"}, argv


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

    def test_a24_permanent_prints_the_auto_value(self, tmp_path):
        # auto eliminates 11, 7 and 5; --method permanent walks matrix("a", 24)
        out = []
        for method in ("auto", "permanent"):
            res = run_cli(
                "count", "--kind", "a", "--n", "24", "--method", method, "--no-cache",
                cwd=tmp_path,
            )
            assert res.returncode == 0, res.stderr
            out.append(payload(json.loads(res.stdout)))
        assert out[0] == out[1]
        assert out[0]["value"] == "575372874240"

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
        # matrix("a", 20) has dimension 15; a subprocess has an empty memo
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

    def test_c0_brute_runs_to_the_one_limit(self, tmp_path):
        from coprime_census.reference import TABLE_C0

        res = run_cli(
            "count", "--kind", "c0", "--n", "12", "--method", "brute", "--no-cache",
            cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["value"] == str(TABLE_C0[12][0])
        res = run_cli(
            "count", "--kind", "c0", "--n", "13", "--method", "brute", "--no-cache",
            cwd=tmp_path,
        )
        assert res.returncode == 3, res.stdout + res.stderr
        assert "brute enumeration limited to n <= 12" in res.stderr
        assert res.stdout == ""

    def test_c1_brute_refuses_a_negative_n(self, tmp_path):
        res = run_cli(
            "count", "--kind", "c1", "--n", "-1", "--method", "brute", "--no-cache",
            cwd=tmp_path,
        )
        assert res.returncode == 2, res.stdout + res.stderr
        assert "n must be >= 1" in res.stderr
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
            ["dist", "--n", "1000", "--top-set", "--format", "csv"],
            ["dist", "--n", "1000", "--second-moment", "--format", "csv"],
            ["dist", "--n", "1000", "--second-moment", "--format", "json"],
            ["dist", "--n", "100", "--threads", "0"],
            ["count", "--kind", "c0", "--n", "5", "--threads", "2", "--no-cache"],
            ["table", "--which", "t1", "--max", "3", "--threads", "2"],
            ["verify", "--suite", "constants", "--threads", "2"],
            ["count", "--kind", "c0", "--n", "5", "--no-cache", "--verify-cache"],
            ["verify", "--suite", "bounds", "--max", "30", "--ceiling", "3"],
            ["verify", "--suite", "bounds", "--max", "30"],
            ["verify", "--suite", "constants", "--ceiling", "40"],
        ],
        ids=[
            "count-aux-on-c",
            "count-c1-permanent",
            "count-c1-dump",
            "count-sieve-limit",
            "count-format",
            "table-verify-cache",
            "dist-ceiling",
            "dist-top-set-format",
            "dist-second-moment-format",
            "dist-second-moment-format-json",
            "dist-threads",
            "count-threads",
            "table-threads",
            "verify-threads",
            "count-no-cache-verify-cache",
            "verify-bounds-max-ceiling",
            "verify-bounds-max",
            "verify-constants-ceiling",
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["--kind", "c0", "--n", "12"],
            ["--kind", "c", "--n", "13"],
            ["--kind", "a", "--n", "14"],
            ["--kind", "ck", "--n", "9", "--aux", "3"],
        ],
        ids=["c0", "c", "a", "ck"],
    )
    def test_stored_record_is_refused_past_the_ceiling(self, tmp_path, argv):
        seed = run_cli("count", *argv, cwd=tmp_path)
        assert seed.returncode == 0, seed.stderr
        hit = run_cli("count", *argv, "--ceiling", "5", cwd=tmp_path)
        fresh = run_cli("count", *argv, "--ceiling", "5", "--no-cache", cwd=tmp_path)
        assert fresh.returncode == 3, fresh.stdout + fresh.stderr
        assert "exceeds ceiling 5" in fresh.stderr
        assert (hit.returncode, hit.stdout, hit.stderr) == (3, "", fresh.stderr)
        # the refusal leaves the record, which a large enough ceiling serves
        again = run_cli("count", *argv, "--ceiling", "40", cwd=tmp_path)
        assert again.stdout == seed.stdout

    def test_dump_is_printed_only_for_an_admitted_count(self, tmp_path):
        argv = ["count", "--kind", "c0", "--n", "12", "--dump-matrix", "--ceiling", "5"]
        fresh = run_cli(*argv, "--no-cache", cwd=tmp_path)
        assert (fresh.returncode, fresh.stdout) == (3, ""), fresh.stderr
        assert "exceeds ceiling 5" in fresh.stderr
        seed = run_cli("count", "--kind", "c0", "--n", "12", cwd=tmp_path)
        assert seed.returncode == 0, seed.stderr
        hit = run_cli(*argv, cwd=tmp_path)
        assert (hit.returncode, hit.stdout, hit.stderr) == (3, "", fresh.stderr)

    def test_matching_record_from_another_engine_version_is_refreshed(self, tmp_path):
        seed = run_cli("count", "--kind", "c0", "--n", "6", cwd=tmp_path)
        assert seed.returncode == 0, seed.stderr
        cache_file = tmp_path / "coprime-census.cache.jsonl"
        rec = json.loads(cache_file.read_text())
        rec["engine_version"] = "0.1.0"
        stale = json.dumps(rec, sort_keys=True) + "\n"
        cache_file.write_text(stale)
        first = run_cli("count", "--kind", "c0", "--n", "6", cwd=tmp_path)
        second = run_cli("count", "--kind", "c0", "--n", "6", cwd=tmp_path)
        assert (first.returncode, first.stderr) == (0, ""), first.stderr
        # the recomputed record is appended and served verbatim by the hit
        assert (second.returncode, second.stdout, second.stderr) == (0, first.stdout, "")
        assert cache_file.read_text() == stale + first.stdout

    @pytest.mark.parametrize("later, warned", [("9552", False), ("9553", True)])
    def test_duplicate_keys_warn_only_when_values_differ(self, tmp_path, capsys, later, warned):
        from coprime_census.cli import ResultCache

        rec = {"kind": "c0", "n": 8, "aux": None, "value": "9552", "ratio": None,
               "timestamp": "", "engine_version": coprime_census.__version__}
        cache_file = tmp_path / "seeded.jsonl"
        cache_file.write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in (rec, {**rec, "value": later}))
        )
        cache = ResultCache(cache_file)
        try:
            assert cache.get("c0", 8, None)["value"] == later
        finally:
            cache.close()
        assert ("duplicate cache key" in capsys.readouterr().err) == warned

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

    @pytest.mark.parametrize("alpha", [["--alpha", "0.5"], []], ids=["alpha", "no-mode"])
    def test_cutoff_scan_prints_csv_by_default(self, tmp_path, alpha):
        res = run_cli("dist", "--n", "1000", *alpha, cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith("alpha,count,density\n")
        [row] = csv.DictReader(io.StringIO(res.stdout))
        from coprime_census import dist

        assert (row["alpha"], int(row["count"])) == ("1/2", dist.d_count(0.5, 1000).count)

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
        assert (res.returncode, res.stdout) == (3, ""), res.stderr
        assert res.stderr.startswith("capacity refusal:")
        # refused before the scan's imports
        argv = ["dist", "--n", "60000", "--sieve-limit", "100000"]
        assert "numpy" not in loaded_by(argv, tmp_path, code=3)


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

    def test_square_check_reads_a_second_walk(self, monkeypatch):
        from coprime_census import checks, counts

        # a wrong walk of the C0(8) matrix; C_(17)(8) comes from another walk
        walk = counts.permanent_ryser
        c0_8 = tuple(range(1, 16, 2))
        wrong = lambda m: walk(m) + (getattr(m, "labels_row", None) == c0_8)
        monkeypatch.setattr(counts, "_memo", {})
        monkeypatch.setattr(counts, "permanent_ryser", wrong)
        failed = [r.name for r in checks.lemmas(16, 40) if not r.passed and not r.diagnostic]
        assert failed == ["square n=8"]

    def test_square_check_fails_on_a_wrong_last_minor(self, monkeypatch):
        from coprime_census import checks, counts

        # count_c0(8) would read C0(8) off this memo; the square's own walk
        # does not, so the wrong C_(17)(8) = C0(8) is caught
        minors = counts._c_a_all(8, 40)
        wrong = minors[:-1] + (minors[-1] + 1,)
        monkeypatch.setattr(counts, "_memo", {("ca", 8): wrong})
        failed = [r.name for r in checks.lemmas(16, 40) if not r.passed and not r.diagnostic]
        assert failed == ["square n=8"]

    def test_anti_split_check_reads_a_second_walk(self, monkeypatch):
        from coprime_census import checks, counts

        # a wrong A(22) in the memo; the claimed side walks matrix("a", 22)
        monkeypatch.setattr(counts, "_memo", {("a", 22): 27628410817})
        failed = [r.name for r in checks.lemmas(16, 40) if not r.passed and not r.diagnostic]
        assert failed == ["anti split n=22"]

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
