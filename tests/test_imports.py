"""Import hygiene of the package source.

The main code never calls the naive oracles, it depends on nothing outside
the standard library, and it defines no private helper that nothing uses.
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


def private_definitions(tree):
    """Module-level ``_private`` functions, classes and assigned names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            found = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in found if isinstance(t, ast.Name)]
        else:
            continue
        yield from (n for n in targets if n.startswith("_") and not n.startswith("__"))


def referenced_names(tree):
    """Every name a module loads, reads as an attribute or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_private_name_is_used():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    used = {name for tree in trees.values() for name in referenced_names(tree)}
    unused = [
        f"{stem}.{name}"
        for stem, tree in trees.items()
        for name in private_definitions(tree)
        if name not in used
    ]
    assert unused == []
