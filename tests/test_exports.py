"""Each module's public names are the ones the program calls.

Every name a module lists in ``__all__`` exists in that module, is used
by code of the package outside its own definition (or is a named test
oracle), and no module reads a sibling module's private name.  Uses are
read from the source: a name loaded in its own module, a name imported
from a sibling and loaded, or an attribute of an imported sibling.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import coprime_census

# __main__ runs the CLI on import, and it exports nothing
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(coprime_census.__path__) if m.name != "__main__"
)

# public for the tests alone: the trial-division and prime-table oracles
# the numeric layer is checked against
ORACLES = {"arith.coprime_count", "arith.primes_upto"}

SOURCE = Path(coprime_census.__file__).parent


def _tree(name: str) -> ast.Module:
    return ast.parse((SOURCE / f"{name}.py").read_text(encoding="utf-8"))


def _sibling_reads(name: str):
    """(sibling, attribute) for each name module ``name`` imports from a
    sibling module and each attribute it reads of an imported sibling."""
    tree = _tree(name)
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    names[local] = (node.module, alias.name)
                    yield node.module, alias.name, False
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                yield modules[node.value.id], node.attr, True
        elif isinstance(node, ast.Name) and node.id in names:
            yield *names[node.id], True


def _own_uses(name: str) -> set[str]:
    """The names module ``name`` loads outside the top-level definitions
    that bind them."""
    used = set()
    for top in _tree(name).body:
        own = getattr(top, "name", None)
        used |= {
            node.id
            for node in ast.walk(top)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != own
        }
    return used


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"coprime_census.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"coprime_census.{name}.__all__ lists missing names {missing}"


def test_every_public_name_is_used():
    used = {f"{name}.{attr}" for name in MODULES for attr in _own_uses(name)}
    used |= {
        f"{sibling}.{attr}"
        for name in MODULES
        for sibling, attr, read in _sibling_reads(name)
        if read
    }
    unused = [
        f"{name}.{attr}"
        for name in MODULES
        for attr in getattr(importlib.import_module(f"coprime_census.{name}"), "__all__", ())
        if f"{name}.{attr}" not in used | ORACLES
    ]
    assert not unused, f"public names no code of the package uses: {unused}"


def test_no_module_reads_a_private_name_of_a_sibling():
    private = sorted(
        {
            f"{name}: {sibling}.{attr}"
            for name in MODULES
            for sibling, attr, _ in _sibling_reads(name)
            if attr.startswith("_") and not attr.startswith("__")
        }
    )
    assert not private, f"private names read across modules: {private}"
