import csv
import io
import json
import re
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
        # auto eliminates 11, 7 and 5; --method permanent walks the table of ("a", 24)
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

    def test_c1_at_the_ceiling_is_refused(self, tmp_path):
        # auto walks the (n+1)-square C1(n) matrix, one past the default ceiling
        res = run_cli("count", "--kind", "c1", "--n", "40", "--no-cache", cwd=tmp_path)
        assert (res.returncode, res.stdout) == (3, ""), res.stderr
        assert res.stderr == "capacity refusal: permanent dimension 41 exceeds ceiling 40\n"

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

    def test_dump_of_a_refused_count_builds_no_matrix(self, monkeypatch, capsys):
        from coprime_census import cli

        def unbuilt(*args):
            raise AssertionError("the matrix was built")

        monkeypatch.setattr(cli, "dump", unbuilt)
        argv = ["count", "--kind", "c", "--n", "2000", "--no-cache", "--dump-matrix"]
        assert cli.main(argv) == 3
        assert capsys.readouterr().out == ""

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
        "argv, golden, value",
        [
            (
                # 7, the one prime in (5, 10], is a forced fixed point
                ["--kind", "a", "--n", "10"],
                "rows: 2 3 4 5 6 8 9 10\ncols: 2 3 4 5 6 8 9 10\n10101101\n01001010\n"
                "10101101\n00010001\n11101111\n10101101\n01001010\n10111101\n",
                "408",
            ),
            (
                ["--kind", "c", "--n", "4"],
                "rows: 1 2 3 4\ncols: 1 2 3 4\n1111\n1010\n1101\n1010\n",
                "4",
            ),
        ],
        ids=["a10", "c4"],
    )
    def test_dump_matrix_golden(self, tmp_path, argv, golden, value):
        res = run_cli("count", *argv, "--dump-matrix", "--no-cache", cwd=tmp_path)
        assert (res.returncode, res.stderr) == (0, "")
        dumped, record = res.stdout.rsplit("\n", 2)[:2]
        assert dumped + "\n" == golden
        assert json.loads(record)["value"] == value

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--kind", "c", "--n", "9", "--aux", "3"],
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
            ["verify", "--suite", "lemmas", "--max", "4", "--ceiling", "12"],
        ],
        ids=[
            "count-aux-on-c",
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
            "verify-lemmas-ceiling",
        ],
    )
    def test_input_the_command_does_not_read_is_refused(self, tmp_path, argv):
        res = run_cli(*argv, cwd=tmp_path)
        assert res.returncode == 2, res.stdout + res.stderr
        assert list(tmp_path.iterdir()) == []  # no cache file is created

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["count", "--kind", "a", "--n", "1", "--ceiling", "-2"],
             "the ceiling must be >= 0, not -2"),
            (["table", "--which", "t1", "--max", "3", "--ceiling", "-1"],
             "the ceiling must be >= 0, not -1"),
            (["dist", "--n", "5", "--sieve-limit", "-1"],
             "--sieve-limit must be >= 0, not -1"),
        ],
        ids=["count", "table", "dist"],
    )
    def test_a_negative_cap_is_a_usage_error(self, tmp_path, argv, message):
        res = run_cli(*argv, cwd=tmp_path)
        assert (res.returncode, res.stdout) == (2, ""), res.stderr
        assert res.stderr == f"invalid arguments: {message}\n"
        assert list(tmp_path.iterdir()) == []  # no cache file is created

    def test_c1_permanent_prints_the_auto_record(self, tmp_path):
        # both routes walk the (n+1)-square c1 matrix; the record is the same
        argv = ["count", "--kind", "c1", "--n", "12", "--no-cache"]
        auto = run_cli(*argv, cwd=tmp_path)
        direct = run_cli(*argv, "--method", "permanent", cwd=tmp_path)
        assert (direct.returncode, direct.stderr) == (0, "")
        assert payload(json.loads(direct.stdout)) == payload(json.loads(auto.stdout))

    def test_c1_dump_golden(self, tmp_path):
        argv = ["count", "--kind", "c1", "--n", "3", "--dump-matrix", "--no-cache"]
        res = run_cli(*argv, cwd=tmp_path)
        assert (res.returncode, res.stderr) == (0, "")
        # the first n + 1 odd numbers against column 1 twice, then 2..n
        masked = re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', res.stdout)
        assert masked == (
            "rows: 1 3 5 7\ncols: 1 1 2 3\n1111\n1110\n1111\n1111\n"
            '{"aux": null, "engine_version": "%s", "kind": "c1", "n": 3, "ratio": null, '
            '"timestamp": "", "value": "18"}\n' % coprime_census.__version__
        )


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

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["--kind", "c", "--n", "0"], 2),
            (["--kind", "ck", "--n", "5", "--aux", "1"], 2),
            (["--kind", "c", "--n", "83"], 3),
            (["--kind", "c", "--n", "13", "--method", "brute"], 3),
        ],
        ids=["n-0", "ck-aux-1", "past-the-ceiling", "brute-past-12"],
    )
    def test_refused_request_leaves_no_cache_file(self, tmp_path, monkeypatch, capsys, argv, code):
        from coprime_census import cli

        monkeypatch.chdir(tmp_path)
        assert cli.main(["count", *argv]) == code
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "coprime-census.cache.jsonl").exists()

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
        "field, argv",
        [
            ({"value": 60.7}, ["--kind", "c0", "--n", "5"]),
            ({"value": True}, ["--kind", "c0", "--n", "5"]),
            ({"value": "-5"}, ["--kind", "c0", "--n", "5"]),
            ({"value": "0060"}, ["--kind", "c0", "--n", "5"]),
            ({"n": True}, ["--kind", "c0", "--n", "1"]),
            ({"aux": True}, ["--kind", "c0", "--n", "5"]),
            ({"kind": "ck", "n": 6, "aux": "3"}, ["--kind", "ck", "--n", "6", "--aux", "3"]),
        ],
        ids=["float-value", "bool-value", "negative-value", "padded-value", "bool-n",
             "bool-aux", "str-aux"],
    )
    def test_record_the_program_never_writes_is_corrupt(self, tmp_path, field, argv):
        # each line parses and its value converts with int(), so a loader
        # that checks only that would serve the count from it or beside it
        rec = {"kind": "c0", "n": 5, "aux": None, "value": "60", "ratio": "2.0817",
               "timestamp": "", "engine_version": coprime_census.__version__}
        cache_file = tmp_path / "seeded.jsonl"
        text = json.dumps({**rec, **field}, sort_keys=True) + "\n"
        cache_file.write_text(text)
        res = run_cli("count", *argv, "--cache", str(cache_file), cwd=tmp_path)
        assert res.returncode == 1, res.stdout + res.stderr
        assert res.stdout == ""
        assert f"corrupt cache {cache_file} line 1" in res.stderr
        assert cache_file.read_text() == text

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

    def test_twenty_digit_cutoff_is_counted_exactly(self, tmp_path):
        from fractions import Fraction

        from coprime_census.arith import coprime_count

        # a denominator of 10^20 puts q * phi(m) past int64
        res = run_cli("dist", "--n", "1000", "--alpha", "0.12345678901234567891", cwd=tmp_path)
        assert (res.returncode, res.stderr) == (0, "")
        [row] = csv.DictReader(io.StringIO(res.stdout))
        alpha = Fraction("0.12345678901234567891")
        p, q = alpha.numerator, alpha.denominator
        want = sum(q * coprime_count(m, m) <= p * m for m in range(1, 2000, 2))
        assert (row["alpha"], int(row["count"])) == (str(alpha), want)

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

    @pytest.mark.parametrize("max_n", ["0", "-5"])
    def test_lemmas_suite_below_one_is_refused(self, tmp_path, max_n):
        res = run_cli("verify", "--suite", "lemmas", "--max", max_n, "--no-cache", cwd=tmp_path)
        assert res.returncode == 2, res.stdout + res.stderr
        assert "verification PASSED" not in res.stdout
        assert f"max_n >= 1, not {max_n}" in res.stderr

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
        from coprime_census.graph import incidence

        # a wrong walk of the C0(8) table; C_(17)(8) comes from another walk
        walk = counts.permanent_ryser
        c0_8 = counts._table(*incidence("c0", 8))
        wrong = lambda table: walk(table) + (table == c0_8)
        monkeypatch.setattr(counts, "_memo", {})
        monkeypatch.setattr(counts, "permanent_ryser", wrong)
        failed = [r.name for r in checks.lemmas(16) if not r.passed and not r.diagnostic]
        assert failed == ["square n=8"]

    def test_square_check_fails_on_a_wrong_last_minor(self, monkeypatch):
        from coprime_census import checks, counts

        # count_c0(8) would read C0(8) off this memo; the square's own walk
        # does not, so the wrong C_(17)(8) = C0(8) is caught
        minors = counts._c_a_all(8)
        wrong = minors[:-1] + (minors[-1] + 1,)
        monkeypatch.setattr(counts, "_memo", {("ca", 8): wrong})
        failed = [r.name for r in checks.lemmas(16) if not r.passed and not r.diagnostic]
        assert failed == ["square n=8"]

    def test_anti_split_check_reads_a_second_walk(self, monkeypatch):
        from coprime_census import checks, counts

        # a wrong A(22) in the memo; the claimed side walks the table of ("a", 22)
        monkeypatch.setattr(counts, "_memo", {("a", 22): 27628410817})
        failed = [r.name for r in checks.lemmas(16) if not r.passed and not r.diagnostic]
        assert failed == ["anti split n=22"]


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


# stdout of three runs on the table route, byte for byte: verify at its
# default --max 16, and table t3 to 16 as CSV (csv's \r\n line ends) and
# as JSON lines
GOLDEN_VERIFY_TABLES = """\
PASS t1 n=1: C0=1 r=1.4142 == C0=1 r=1.4142
PASS t1 n=2: C0=2 r=1.5651 == C0=2 r=1.5651
PASS t1 n=3: C0=4 r=1.8860 == C0=4 r=1.8860
PASS t1 n=4: C0=18 r=1.8276 == C0=18 r=1.8276
PASS t1 n=5: C0=60 r=1.9969 == C0=60 r=1.9969
PASS t1 n=6: C0=252 r=2.1044 == C0=252 r=2.1044
PASS t1 n=7: C0=1860 r=2.0625 == C0=1860 r=2.0625
PASS t1 n=8: C0=9552 r=2.1629 == C0=9552 r=2.1629
PASS t1 n=9: C0=59616 r=2.2260 == C0=59616 r=2.2260
PASS t1 n=10: C0=565920 r=2.2082 == C0=565920 r=2.2082
PASS t1 n=11: C0=4051872 r=2.2707 == C0=4051872 r=2.2707
PASS t1 n=12: C0=33805440 r=2.3118 == C0=33805440 r=2.3118
PASS t1 n=13: C0=465239808 r=2.2727 == C0=465239808 r=2.2727
PASS t1 n=14: C0=4294865664 r=2.3171 == C0=4294865664 r=2.3171
PASS t1 n=15: C0=35413136640 r=2.3851 == C0=35413136640 r=2.3851
PASS t1 n=16: C0=768372168960 r=2.3122 == C0=768372168960 r=2.3122
PASS t2 n=1: C=1 r=1.0000 == C=1 r=1.0000
PASS t2 n=3: C=3 r=1.2599 == C=3 r=1.2599
PASS t2 n=5: C=28 r=1.3378 == C=28 r=1.3378
PASS t2 n=7: C=256 r=1.5307 == C=256 r=1.5307
PASS t2 n=9: C=3600 r=1.6696 == C=3600 r=1.6696
PASS t2 n=11: C=129744 r=1.6834 == C=129744 r=1.6834
PASS t2 n=13: C=3521232 r=1.7775 == C=3521232 r=1.7775
PASS t2 n=15: C=60891840 r=1.9444 == C=60891840 r=1.9444
PASS t3 n=4: A=2 u=1.8612 == A=2 u=1.8612
PASS t3 n=6: A=8 u=2.1169 == A=8 u=2.1169
PASS t3 n=8: A=30 u=2.4607 == A=30 u=2.4607
PASS t3 n=9: A=72 u=2.5786 == A=72 u=2.5786
PASS t3 n=10: A=408 u=2.4826 == A=408 u=2.4826
PASS t3 n=12: A=4104 u=2.6440 == A=4104 u=2.6440
PASS t3 n=14: A=29640 u=2.8976 == A=29640 u=2.8976
PASS t3 n=15: A=208704 u=2.8388 == A=208704 u=2.8388
PASS t3 n=16: A=1437312 u=2.8034 == A=1437312 u=2.8034
verification PASSED
"""
GOLDEN_T3_CSV = """\
n,value,ratio
4,2,1.8612
6,8,2.1169
8,30,2.4607
9,72,2.5786
10,408,2.4826
12,4104,2.6440
14,29640,2.8976
15,208704,2.8388
16,1437312,2.8034
""".replace("\n", "\r\n")
GOLDEN_T3_JSON = """\
{"n": 4, "ratio": "1.8612", "value": "2"}
{"n": 6, "ratio": "2.1169", "value": "8"}
{"n": 8, "ratio": "2.4607", "value": "30"}
{"n": 9, "ratio": "2.5786", "value": "72"}
{"n": 10, "ratio": "2.4826", "value": "408"}
{"n": 12, "ratio": "2.6440", "value": "4104"}
{"n": 14, "ratio": "2.8976", "value": "29640"}
{"n": 15, "ratio": "2.8388", "value": "208704"}
{"n": 16, "ratio": "2.8034", "value": "1437312"}
"""


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["verify", "--suite", "tables"], GOLDEN_VERIFY_TABLES),
        (["table", "--which", "t3", "--max", "16"], GOLDEN_T3_CSV),
        (["table", "--which", "t3", "--max", "16", "--format", "json"], GOLDEN_T3_JSON),
    ],
    ids=["verify-tables", "t3-csv", "t3-json"],
)
def test_table_route_prints_its_golden_bytes(tmp_path, argv, golden):
    res = subprocess.run(
        [sys.executable, "-m", "coprime_census", *argv], capture_output=True, cwd=tmp_path
    )
    assert (res.returncode, res.stdout, res.stderr) == (0, golden.encode(), b"")
