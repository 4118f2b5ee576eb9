import subprocess
import sys
from pathlib import Path

REPRODUCE = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_tables.py"

# runs reproduce_tables.py with every reference table cut to n <= 10, so
# caps past the reference range are cheap to reach
_CUT_REFERENCE = f"""
import runpy, sys
from coprime_census import reference
for table in (reference.TABLE_C0, reference.TABLE_C_ODD, reference.TABLE_A):
    for n in [n for n in table if n > 10]:
        del table[n]
sys.argv = [{str(REPRODUCE)!r}, *sys.argv[1:]]
runpy.run_path(sys.argv[0], run_name="__main__")
"""


def run_script(args, tmp_path, *, cut_reference=False):
    launch = ["-c", _CUT_REFERENCE] if cut_reference else [str(REPRODUCE)]
    return subprocess.run(
        [sys.executable, *launch, *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )


def test_reproduce_tables_prefix(tmp_path):
    res = run_script(["--max1", "6", "--max2", "9", "--max3", "10"], tmp_path)
    assert res.returncode == 0, res.stderr
    assert "0 mismatches" in res.stderr
    lines = res.stdout.splitlines()
    assert lines[0] == "n, C0(n), r_2n"
    assert "6, 252, 2.1044 " in lines
    assert "9, 3600, 1.6696 " in lines
    assert "10, 408, 2.4826 " in lines


def test_reproduce_tables_stops_at_reference_range(tmp_path):
    res = run_script(
        ["--max1", "40", "--max2", "41", "--max3", "40"], tmp_path, cut_reference=True
    )
    assert res.returncode == 0, res.stderr
    assert "0 mismatches" in res.stderr
    rows = [line for line in res.stdout.splitlines() if line[:1].isdigit()]
    # t1: n = 1..10, t2: odd n <= 9, t3: composite n <= 10
    assert len(rows) == 10 + 5 + 5
    assert rows[9].startswith("10, 565920, ")
