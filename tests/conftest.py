import os
from pathlib import Path

import pytest

import coprime_census
from coprime_census.arith import build_sieve


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
def sieve_1m():
    return build_sieve(10**6)


@pytest.fixture(scope="session")
def sieve_small():
    return build_sieve(10**4)
