"""Import hygiene of the package source.

The main code never calls the naive oracles, it depends on nothing outside
the standard library, it defines no private helper that nothing uses, and
no command loads the standard library's slow-to-import ``dataclasses`` or
``inspect``.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "giideals"
MODULES = sorted(SRC.glob("*.py"))


def modules_named(node):
    """Absolute name of each module an import statement imports."""
    if isinstance(node, ast.Import):
        yield from (alias.name for alias in node.names)
    elif isinstance(node, ast.ImportFrom):
        if not node.level:
            yield node.module
        elif node.module:
            yield f"giideals.{node.module}"
        else:  # ``from . import oracles`` names the modules in the aliases
            yield from (f"giideals.{alias.name}" for alias in node.names)


def imported_modules(path):
    """Absolute name of every module a source file imports, function-level
    imports included."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        yield from modules_named(node)


def module_level_imports(path):
    """Absolute name of every module a source file imports while it loads;
    imports inside functions and classes run later, if at all."""
    pending = list(ast.parse(path.read_text(), filename=str(path)).body)
    while pending:
        node = pending.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from modules_named(node)
            pending.extend(ast.iter_child_nodes(node))


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


#: modules that cost a command about 10 ms to import and compile when no
#: bytecode is cached (``dataclasses`` loads ``inspect``, which loads ``ast``,
#: ``dis`` and ``tokenize``); records are ``NamedTuple``s or ``core._Record``s
SLOW_IMPORTS = ("dataclasses", "inspect")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_imports_dataclasses_or_inspect(path):
    for name in imported_modules(path):
        assert name.split(".")[0] not in SLOW_IMPORTS, f"{path.name} imports {name}"


_SLOW_IMPORTS_AFTER = """
import contextlib, io, json, sys
from giideals.cli import main
loaded = {}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    loaded[" ".join(argv)] = [code, [m for m in json.loads(sys.argv[2]) if m in sys.modules]]
print(json.dumps(loaded))
"""


def test_no_command_loads_dataclasses_or_inspect(tmp_path):
    """Every command in one fresh process, one after another: a module that
    none of them loads is in ``sys.modules`` after none of them."""
    fixtures = SRC.parent.parent / "fixtures"
    absorb2, family = (str(fixtures / n) for n in ("absorb2.json", "absorb2_nested_family.json"))
    dot = str(tmp_path / "lat.dot")
    commands = [
        ["validate", absorb2],
        ["compute", "jf", absorb2],
        ["family", "check", absorb2, family, "--mode", "t"],
        ["family", "check", absorb2, family, "--mode", "nt"],
        ["enumerate", absorb2],
        ["enumerate", absorb2, "--count-only"],
        ["lattice", absorb2, "--dot", dot],
        ["crosscheck", absorb2],
        ["random", "--kind", "dynsys", "--rank", "2", "--vertices", "3", "--seed", "5"],
    ]
    before = subprocess.run(
        [sys.executable, "-c", "import sys, json; print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, timeout=60,
    )
    if not set(json.loads(before.stdout)).isdisjoint(SLOW_IMPORTS):
        pytest.skip("the interpreter's start-up (a site .pth, say) loads them")
    proc = subprocess.run(
        [sys.executable, "-c", _SLOW_IMPORTS_AFTER, json.dumps(commands),
         json.dumps(SLOW_IMPORTS)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert {key: code for key, (code, _) in loaded.items()} == {
        " ".join(argv): 1 if argv[0] == "family" else 0 for argv in commands
    }
    assert {key: mods for key, (_, mods) in loaded.items() if mods} == {}


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



def test_the_cli_loads_only_core_and_modelio():
    """Each command starts a fresh interpreter, so a package module imported
    at the top of ``cli.py`` costs every command; handlers import the rest."""
    for name in module_level_imports(SRC / "cli.py"):
        top = name.split(".")[0]
        assert name in ("giideals.core", "giideals.modelio") or (
            top != "giideals" and top in sys.stdlib_module_names
        ), f"cli.py imports {name} at module level"


#: the CLI's two writers, the only code that writes to stdout or stderr
WRITERS = {"_emit", "_note"}


def test_only_the_writers_touch_stdout_and_stderr():
    """``print`` is called, and ``sys.stdout`` or ``sys.stderr`` read, only
    inside ``_emit`` and ``_note``, which own the rule for a failed write."""
    tree = ast.parse((SRC / "cli.py").read_text())
    outside = []
    pending = [(node, None) for node in tree.body]
    while pending:
        node, owner = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        is_print = isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
        is_stream = (
            isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr")
            and getattr(node.value, "id", None) == "sys"
        )
        if (is_print or is_stream) and owner not in WRITERS:
            outside.append(f"{owner}:{node.lineno}")
        pending.extend((child, owner) for child in ast.iter_child_nodes(node))
    assert outside == []


def test_the_package_root_loads_no_module():
    names = list(module_level_imports(SRC / "__init__.py"))
    assert [n for n in names if n.split(".")[0] == "giideals"] == []


#: the package root's public names
PUBLIC_NAMES = [
    "BudgetExceededError", "CheckReport", "CorpusSpec", "DirectionModel",
    "DiscrepancyReport", "EnumerationResult", "InternalConsistencyError",
    "InvalidInputError", "KGraphSkeleton", "LatticeGraph", "MAX_VERTICES",
    "PartialMapSystem", "build_lattice", "canonical_masks", "direction_covers",
    "enumerate_relative_o", "enumerate_t_families", "export_dot", "export_json",
    "family_from_doc", "family_to_doc", "free_directions", "i_family", "inv_set",
    "is_invariant", "is_nt_tuple", "is_partially_ordered", "is_relative_o_family",
    "is_t_family", "iter_corpus_models", "j_family", "jf_of", "join",
    "katsura_oracle", "ker_phi", "label_to_mask", "largest_perp_invariant",
    "lim_set", "load_model", "load_model_path", "mask_label", "mask_of", "meet",
    "model_fingerprint", "phi_n", "property_suite", "random_model",
    "theorem_a_sweep", "xf_inverse",
]


def test_the_lazy_root_keeps_the_public_surface():
    import importlib

    import giideals

    assert len(PUBLIC_NAMES) == 49
    assert sorted(giideals.__all__) == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(giideals))
    for name in PUBLIC_NAMES:
        home = importlib.import_module(f"giideals.{giideals._HOME[name]}")
        value = getattr(giideals, name)
        assert value is getattr(home, name), name
        # a class or function resolves to the module that defines it
        assert getattr(value, "__module__", home.__name__) == home.__name__, name
    star: dict = {}
    exec("from giideals import *", star)
    assert {n for n in star if not n.startswith("__")} == set(PUBLIC_NAMES)
    from giideals import core

    assert core is sys.modules["giideals.core"]
    with pytest.raises(AttributeError, match="no_such_name"):
        giideals.no_such_name
