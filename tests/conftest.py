import os
import subprocess
import sys
from pathlib import Path

import pytest

import coprime_census
from coprime_census.graph import smallest_factor


@pytest.fixture(scope="session", autouse=True)
def cli_subprocess_path():
    """Let CLI subprocesses import the same coprime_census as this process.

    The CLI tests run ``python -m coprime_census`` with ``cwd=tmp_path``,
    where a relative ``PYTHONPATH=src`` no longer resolves and an
    uninstalled package cannot be found. The package root goes first on
    the inherited ``PYTHONPATH``, ahead of any existing entries.
    """
    root = str(Path(coprime_census.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [root, inherited])))
        yield


@pytest.fixture(scope="session")
def omega_of():
    """omega(m), the number of distinct primes that repeated
    ``smallest_factor`` division finds; omega(1) = 0."""

    def omega(m: int) -> int:
        count = 0
        while m > 1:
            p = smallest_factor(m)
            count += 1
            while m % p == 0:
                m //= p
        return count

    return omega


# imports the module, then reports the tracemalloc peak of one call in MiB
_TRACED_PEAK = """
import sys, tracemalloc
from importlib import import_module
module = import_module("coprime_census." + sys.argv[1])
tracemalloc.start()
eval(sys.argv[2], {sys.argv[1]: module})
print(tracemalloc.get_traced_memory()[1] / 2**20)
"""


@pytest.fixture
def traced_peak_mib(tmp_path):
    """Peak traced memory of one library call, from a fresh interpreter.

    numpy reports its array buffers to tracemalloc, and a fresh process
    starts with every table cache cold.
    """

    def peak(module: str, call: str) -> float:
        res = subprocess.run(
            [sys.executable, "-c", _TRACED_PEAK, module, call],
            capture_output=True,
            text=True,
            cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        return float(res.stdout)

    return peak
