"""Import hygiene of the package source.

The main code never calls the naive oracles, and it depends on nothing
outside the standard library.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "giideals"
MODULES = sorted(SRC.glob("*.py"))


def imported_modules(path):
    """Absolute name of every module a source file imports, function-level
    imports included."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if not node.level:
                yield node.module
            elif node.module:
                yield f"giideals.{node.module}"
            else:  # ``from . import oracles`` names the modules in the aliases
                yield from (f"giideals.{alias.name}" for alias in node.names)


def test_modules_found():
    assert {p.stem for p in MODULES} >= {"core", "cli", "oracles"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_imports_the_oracles(path):
    for name in imported_modules(path):
        assert name.split(".")[:2] != ["giideals", "oracles"], f"{path.name} imports {name}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_imports_are_stdlib_or_the_package(path):
    for name in imported_modules(path):
        top = name.split(".")[0]
        assert top == "giideals" or top in sys.stdlib_module_names, (
            f"{path.name} imports {name}"
        )
