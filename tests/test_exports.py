"""Every name a module lists in ``__all__`` exists in that module."""

import importlib
import pkgutil

import pytest

import coprime_census

# __main__ runs the CLI on import, and it exports nothing
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(coprime_census.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"coprime_census.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"coprime_census.{name}.__all__ lists missing names {missing}"
