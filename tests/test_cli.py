"""End-to-end CLI behaviour: grammar, exit codes, determinism, schemas."""

import contextlib
import errno
import functools
import importlib
import io
import json
import operator
import os
import subprocess
import sys
from pathlib import Path

import pytest

from giideals.cli import _StdoutGone, _emit, _note, build_parser, main
from giideals.cli import run as cli_run
from helpers import cli_rejects


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_alias_is_the_entry_point():
    assert cli_run is main


def test_console_script_is_the_cli_main():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    module, _, attr = scripts["giideals"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main


def fx(fixture_dir, name):
    return str(fixture_dir / name)


def test_import_leaves_the_process_pool_unloaded():
    """Only ``crosscheck --corpus`` above ``--jobs 1`` needs the process
    pool, which is slow to import, so a fresh import of the CLI does not
    load it."""
    code = "import giideals.cli, sys; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


_REPORT_LOADED = """
import contextlib, io, json, sys
if sys.argv[1:]:
    from giideals.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        main(sys.argv[1:])
else:
    import giideals
print(json.dumps([
    m for m in sys.modules
    if m.startswith("giideals.") or m in ("hashlib", "concurrent.futures.process")
]))
"""


def loaded_modules(*argv):
    """The package modules (``giideals.`` stripped), ``hashlib`` and the
    process pool's module that a fresh process holds after ``main(argv)``,
    or after ``import giideals`` for no ``argv``."""
    proc = subprocess.run(
        [sys.executable, "-c", _REPORT_LOADED, *argv],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return {name.removeprefix("giideals.") for name in json.loads(proc.stdout)}


def test_import_of_the_package_loads_no_module():
    assert loaded_modules() == set()


def test_only_the_corpus_crosscheck_loads_the_process_pool(fixture_dir, tmp_path):
    """``enumerate`` runs in one process under any ``--jobs``, and so does
    ``crosscheck`` of one model, from a file or a corpus; ``crosscheck
    --corpus`` over two models with ``--jobs 2`` starts the pool."""
    def corpus(models):
        path = tmp_path / f"corpus{models}.json"
        path.write_text(json.dumps({
            "kinds": ["dynsys"], "rank_min": 1, "rank_max": 1,
            "vertices_min": 2, "vertices_max": 2, "sample_count": models,
        }))
        return str(path)

    absorb2 = fx(fixture_dir, "absorb2.json")
    pool = "concurrent.futures.process"
    assert pool not in loaded_modules("enumerate", absorb2, "--jobs", "2")
    assert pool not in loaded_modules("crosscheck", absorb2, "--jobs", "2")
    assert pool not in loaded_modules("crosscheck", "--corpus", corpus(1), "--jobs", "2")
    assert pool in loaded_modules("crosscheck", "--corpus", corpus(2), "--jobs", "2")


#: per command, its argv and the modules it must not load: ``validate`` and
#: ``compute`` need no family code, and only fingerprints need ``hashlib``
UNLOADED_BY = {
    "validate": (["validate", "loop1.json"], {"families", "crossval", "lattice"}),
    "compute": (["compute", "jf", "shift2.json"], {"families", "crossval", "lattice", "hashlib"}),
    "enumerate": (["enumerate", "absorb2.json"], {"crossval", "lattice", "hashlib"}),
    "family-check": (
        ["family", "check", "absorb2.json", "absorb2_nested_family.json", "--mode", "t"],
        {"crossval", "lattice", "hashlib"},
    ),
    "random": (
        ["random", "--kind", "kgraph", "--rank", "2", "--vertices", "4", "--seed", "3"],
        {"lattice", "hashlib"},
    ),
}


@pytest.mark.parametrize("command", UNLOADED_BY)
def test_each_command_loads_only_what_it_uses(fixture_dir, command):
    argv, unloaded = UNLOADED_BY[command]
    argv = [fx(fixture_dir, a) if a.endswith(".json") else a for a in argv]
    loaded = loaded_modules(*argv)
    assert {"cli", "core", "modelio"} <= loaded
    assert loaded.isdisjoint(unloaded), loaded & unloaded


#: a locale whose preferred encoding is ASCII
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}

ACCENTED = {"kind": "kgraph", "rank": 1, "vertices": ["é", "v"], "adjacency": [[[1, 1], [0, 1]]]}


def cli_process(*argv, env=None):
    return subprocess.run(
        [sys.executable, "-m", "giideals.cli", *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, **(env or {})},
    )


def accented_model(tmp_path):
    path = tmp_path / "accented.json"
    path.write_bytes(json.dumps(ACCENTED, ensure_ascii=False).encode("utf-8"))
    return str(path)


def test_undecodable_model_file_is_invalid_input(tmp_path):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xff\xfe")
    proc = cli_process("validate", str(path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "not UTF-8" in proc.stderr


def test_utf8_model_reads_alike_under_an_ascii_locale(tmp_path):
    path = accented_model(tmp_path)
    ascii_run = cli_process("validate", path, env=ASCII_LOCALE)
    utf8_run = cli_process("validate", path, env={"LC_ALL": "C.UTF-8"})
    assert ascii_run.returncode == utf8_run.returncode == 0, ascii_run.stderr
    assert ascii_run.stdout == utf8_run.stdout
    assert json.loads(ascii_run.stdout)["vertices"] == 2


def test_dot_label_is_written_as_utf8_under_an_ascii_locale(tmp_path):
    dot = tmp_path / "accented.dot"
    proc = cli_process("lattice", accented_model(tmp_path), "--dot", str(dot), env=ASCII_LOCALE)
    assert proc.returncode == 0, proc.stderr
    assert "é" in dot.read_bytes().decode("utf-8")


def test_family_check_t_mode_witness(capsys, fixture_dir):
    code, out, _ = run(
        capsys,
        "family", "check",
        fx(fixture_dir, "absorb2.json"),
        fx(fixture_dir, "absorb2_nested_family.json"),
        "--mode", "t",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] is False
    assert doc["witness"]["F"] == "1"
    assert doc["witness"]["i"] == 2


def test_family_check_nt_and_o_modes(capsys, fixture_dir):
    for mode in ("nt", "o"):
        code, out, _ = run(
            capsys,
            "family", "check",
            fx(fixture_dir, "absorb2.json"),
            fx(fixture_dir, "absorb2_nested_family.json"),
            "--mode", mode,
        )
        assert code == 1
        assert json.loads(out)["verdict"] is False


def test_family_check_rel_requires_bound(capsys, fixture_dir):
    code, _, err = run(
        capsys,
        "family", "check",
        fx(fixture_dir, "absorb2.json"),
        fx(fixture_dir, "absorb2_nested_family.json"),
        "--mode", "rel",
    )
    assert code == 2
    assert "requires" in err


@pytest.mark.parametrize("mode", ["t", "nt", "o"])
def test_family_check_bound_outside_rel_mode_is_invalid_input(capsys, mode):
    # checked before any file is read: neither the model nor the bound exists
    code, out, err = run(
        capsys,
        "family", "check", "missing-model.json", "missing-family.json",
        "--mode", mode, "--k", "missing-bound.json",
    )
    assert code == 2
    assert out == ""
    assert "--k" in err and "missing" not in err


def test_family_check_rel_mode_passes(capsys, fixture_dir):
    code, out, _ = run(
        capsys,
        "family", "check",
        fx(fixture_dir, "absorb2.json"),
        fx(fixture_dir, "absorb2_nested_family.json"),
        "--mode", "rel",
        "--k", fx(fixture_dir, "absorb2_nested_family.json"),
    )
    # nested family fails the fixed-point equations regardless of the bound
    assert code == 1
    assert json.loads(out)["violated_condition"] == "t_equation"


def test_compute_if_absorb2_exact_output(capsys, fixture_dir):
    code, out, _ = run(capsys, "compute", "if", fx(fixture_dir, "absorb2.json"))
    assert code == 0
    assert out.strip() == (
        '{"rank":2,"sets":{"":[],"1":["p","q"],"1,2":["p","q"],"2":["q"]}}'
    )


def test_compute_jf_shift2(capsys, fixture_dir):
    code, out, _ = run(capsys, "compute", "jf", fx(fixture_dir, "shift2.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["sets"]["1"] == ["v1"]
    assert doc["sets"][""] == []


def test_enumerate_count_only(capsys, fixture_dir):
    code, out, _ = run(
        capsys, "enumerate", fx(fixture_dir, "loops2.json"), "--count-only"
    )
    assert code == 0
    assert out.strip() == "6"


def test_enumerate_full_document(capsys, fixture_dir):
    code, out, _ = run(capsys, "enumerate", fx(fixture_dir, "loop1.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "T"
    assert doc["count"] == 3
    assert doc["families"][0] == {"": [], "1": []}


def test_enumerate_relative(capsys, fixture_dir, tmp_path):
    bound = tmp_path / "bound.json"
    bound.write_text(
        json.dumps({"rank": 1, "sets": {"": [], "1": ["v"]}})
    )
    code, out, _ = run(
        capsys,
        "enumerate", fx(fixture_dir, "loop1.json"),
        "--relative", str(bound), "--count-only",
    )
    assert code == 0
    assert out.strip() == "2"


MODEL_FIXTURES = ("shift2", "absorb2", "loop1", "loops2", "funnel1", "funnel2")


def i_family_file(capsys, model, tmp_path):
    """The model's I-family document, written to a file for ``--relative``."""
    code, out, _ = run(capsys, "compute", "if", model)
    assert code == 0
    path = tmp_path / "if.json"
    path.write_text(out)
    return str(path)


@pytest.mark.parametrize("name", MODEL_FIXTURES)
def test_count_only_prints_the_document_count(capsys, fixture_dir, tmp_path, name):
    """``--count-only`` counts the walk's families without building the
    document, and prints the document's ``count``: for the T-families and
    for the families above a ``--relative`` bound (here the I-family)."""
    model = fx(fixture_dir, f"{name}.json")
    bound = i_family_file(capsys, model, tmp_path)
    for relative in ([], ["--relative", bound]):
        code, full, _ = run(capsys, "enumerate", model, *relative)
        assert code == 0
        code, counted, _ = run(capsys, "enumerate", model, *relative, "--count-only")
        assert (code, counted) == (0, f"{json.loads(full)['count']}\n")


#: a budget one candidate short: absorb2's walk tries 45 candidates, and
#: funnel2's above its I-family 10
SHORT_BUDGETS = [("absorb2", False, 44), ("funnel2", True, 9)]


@pytest.mark.parametrize("name, relative, budget", SHORT_BUDGETS, ids=["t", "relative"])
def test_count_only_budget_exit_matches_the_document_form(
    capsys, fixture_dir, tmp_path, name, relative, budget
):
    model = fx(fixture_dir, f"{name}.json")
    argv = ["enumerate", model, "--budget", str(budget)]
    if relative:
        argv += ["--relative", i_family_file(capsys, model, tmp_path)]
    code, full, _ = run(capsys, *argv)
    assert code == 3
    assert json.loads(full) == {"error": "budget-exceeded", "stats": {"budget": budget}}
    assert run(capsys, *argv, "--count-only")[:2] == (3, full)
    argv[3] = str(budget + 1)  # one more candidate is enough for both forms
    code, full, _ = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv, "--count-only")[:2] == (0, f"{json.loads(full)['count']}\n")


#: the states of a stream that cannot be written: closed before the process
#: starts (``2>&-``: Python's ``sys.stderr`` is then ``None``), full
#: (``/dev/full``), and a pipe whose reader has gone, with Python's stdio
#: buffered or not
BROKEN = ["closed", "full", "buffered", "unbuffered"]


def run_with_broken(fd, state, *argv):
    """Run the CLI in a child whose stdout (``fd`` 1) or stderr (2) is in
    ``state``, one of :data:`BROKEN` or ``"working"``; returns the exit code
    and the bytes on stdout and on stderr, ``None`` for a broken stream."""
    if state == "full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if state == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    command = [sys.executable, "-m", "giideals.cli", *argv]
    name = "stdout" if fd == 1 else "stderr"
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    with contextlib.ExitStack() as stack:
        if state == "closed":
            command = ["sh", "-c", f'exec "$@" {fd}>&-', "sh", *command]
        elif state == "full":
            streams[name] = stack.enter_context(open("/dev/full", "wb"))
        elif state != "working":
            read_end, streams[name] = os.pipe()
            os.close(read_end)
            stack.callback(os.close, streams[name])
        proc = subprocess.run(command, env=env, timeout=60, **streams)
    return proc.returncode, proc.stdout, proc.stderr


#: one command per exit code: 0 a passing crosscheck, 1 a failing family
#: check, 2 a missing model file, 3 a budget exit; each writes a note
BY_EXIT_CODE = {
    0: ["crosscheck", "absorb2.json"],
    1: ["family", "check", "absorb2.json", "absorb2_nested_family.json", "--mode", "nt"],
    2: ["validate", "missing.json"],
    3: ["enumerate", "funnel2.json", "--budget", "2"],
}


@functools.lru_cache(maxsize=None)
def working_run(fixture_dir, code):
    argv = [fx(fixture_dir, a) if a.endswith(".json") else a for a in BY_EXIT_CODE[code]]
    result = run_with_broken(2, "working", *argv)
    assert result[0] == code and b"Traceback" not in result[2], result
    return argv, result


@pytest.mark.parametrize("state", BROKEN)
@pytest.mark.parametrize("code", BY_EXIT_CODE)
def test_a_stderr_that_cannot_be_written_changes_neither_stdout_nor_exit_code(
    fixture_dir, code, state
):
    """Notes are best effort: whatever state stderr is in, stdout and the
    exit code are those of a run with a working stderr."""
    argv, (_, out, _) = working_run(fixture_dir, code)
    assert run_with_broken(2, state, *argv)[:2] == (code, out)


@pytest.mark.parametrize("state", BROKEN)
def test_a_usage_error_with_a_broken_stderr_exits_2(state):
    """argparse's usage errors are notes too."""
    assert run_with_broken(2, state, "validate")[:2] == (2, b"")


@pytest.mark.parametrize("state", BROKEN)
def test_lattice_with_a_broken_stderr_writes_its_file_and_summary(fixture_dir, tmp_path, state):
    dot = tmp_path / "l.dot"
    argv = ["lattice", fx(fixture_dir, "loop1.json"), "--dot", str(dot)]
    code, out, _ = run_with_broken(2, "working", *argv)
    assert code == 0 and json.loads(out)["nodes"] >= 1
    expected = dot.read_bytes()
    dot.unlink()
    assert run_with_broken(2, state, *argv)[:2] == (0, out)
    assert dot.read_bytes() == expected


@pytest.mark.parametrize("state", BROKEN)
def test_closed_stdout_exits_141_without_a_traceback(fixture_dir, state):
    """A stdout that cannot take the output, closed, full or with its reader
    gone (``| head -c 100``), ends the command quietly: nothing on stderr,
    exit 141 (128 + SIGPIPE), whether the write fails at once or at the
    final flush.  A command with nothing to print keeps its own exit code."""
    for argv in (["enumerate", fx(fixture_dir, "funnel2.json")], ["--help"], ["validate", "--help"]):
        code, _, err = run_with_broken(1, state, *argv)
        assert (code, err) == (141, b""), argv
    code, _, err = run_with_broken(1, state, "validate", fx(fixture_dir, "missing.json"))
    assert code == 2 and err.startswith(b"error: cannot read") and b"Traceback" not in err


def test_help_is_stdout_output(capsys):
    assert run(capsys, "--help") == (0, build_parser().format_help(), "")
    code, out, err = run(capsys, "validate", "--help")
    assert (code, err) == (0, "") and out.startswith("usage: giideals validate")


def test_a_broken_stderr_pipe_keeps_what_went_to_stdout(fixture_dir, tmp_path):
    """Only a stdout that failed goes to the null device: a budget exit whose
    stderr note fails still leaves its stdout line in the file, and exits 3."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)  # the line waits in stdout's buffer
    read_end, write_end = os.pipe()
    os.close(read_end)
    out = tmp_path / "out.json"
    try:
        with out.open("wb") as stdout:
            proc = subprocess.run(
                [sys.executable, "-m", "giideals.cli", "enumerate",
                 fx(fixture_dir, "funnel2.json"), "--budget", "2"],
                stdout=stdout, stderr=write_end, env=env, timeout=60,
            )
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert out.read_text() == '{"error":"budget-exceeded","stats":{"budget":2}}\n'


def test_the_writers_look_the_streams_up_per_call(capsys):
    """``capsys`` and ``redirect_stdout`` swap the streams, and the writers
    follow them: ``scripts/cli_digest.py`` reads stdout that way."""
    _emit({"b": 1, "a": [2]})
    _note("a note")
    assert capsys.readouterr() == ('{"a":[2],"b":1}\n', "a note\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        _emit(45)
        _note("another")
    assert (out.getvalue(), err.getvalue()) == ("45\n", "another\n")


class FullStream(io.StringIO):
    """A stream with no file descriptor whose every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


def test_a_failed_write_to_a_stream_with_no_descriptor(monkeypatch, fixture_dir):
    monkeypatch.setattr(sys, "stderr", FullStream())
    _note("dropped")  # best effort: no exception
    assert main(["validate", fx(fixture_dir, "missing.json")]) == 2
    monkeypatch.setattr(sys, "stdout", FullStream())
    with pytest.raises(_StdoutGone):
        _emit({})
    assert main(["validate", fx(fixture_dir, "loop1.json")]) == 141


def test_output_without_an_int_string_digit_limit(capsys, monkeypatch, fixture_dir):
    """Python 3.10.0 to 3.10.6 have no int-string digit limit, and no
    ``sys.get_int_max_str_digits`` to lift it with."""
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    code, out, _ = run(capsys, "enumerate", fx(fixture_dir, "funnel2.json"), "--budget", "2")
    assert (code, out) == (3, '{"error":"budget-exceeded","stats":{"budget":2}}\n')
    code, out, _ = run(capsys, "enumerate", fx(fixture_dir, "absorb2.json"), "--count-only")
    assert (code, out) == (0, "14\n")


def test_enumerate_budget_exceeded(capsys, fixture_dir):
    code, out, _ = run(
        capsys, "enumerate", fx(fixture_dir, "funnel2.json"), "--budget", "2"
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["error"] == "budget-exceeded"
    assert doc["stats"]["budget"] == 2


def test_validate_and_fingerprint(capsys, fixture_dir):
    code, out, _ = run(capsys, "validate", fx(fixture_dir, "funnel2.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is True and doc["rank"] == 2 and doc["vertices"] == 2


def test_validate_missing_file(capsys):
    code, out, err = run(capsys, "validate", "no-such-file.json")
    assert code == 2
    assert out == ""
    assert "error" in err


def test_validate_bad_document(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "kgraph", "rank": 1, "vertices": ["v"]}))
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "missing" in err


def test_validate_rank3_note(capsys, tmp_path):
    doc = {
        "kind": "kgraph",
        "rank": 3,
        "vertices": ["v"],
        "adjacency": [[[1]], [[1]], [[1]]],
    }
    path = tmp_path / "r3.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert json.loads(out)["note"] == "skeleton-level model"


def test_unknown_flag_exits_2_with_usage(capsys, fixture_dir):
    code, _, err = run(
        capsys, "enumerate", fx(fixture_dir, "loop1.json"), "--frobnicate"
    )
    assert code == 2
    assert "usage" in err.lower()


def test_unknown_subcommand_exits_2(capsys):
    code, _, err = run(capsys, "bogus")
    assert code == 2
    assert "usage" in err.lower()


def test_lattice_writes_files(capsys, fixture_dir, tmp_path):
    dot = tmp_path / "lat.dot"
    js = tmp_path / "lat.json"
    code, out, _ = run(
        capsys,
        "lattice", fx(fixture_dir, "loop1.json"),
        "--dot", str(dot), "--json", str(js),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["nodes"] == 3 and summary["cover_edges"] == 2
    assert dot.read_text().startswith("digraph")
    lat_doc = json.loads(js.read_text())
    assert lat_doc["bottom"] == summary["bottom"]


@pytest.mark.parametrize("flag", ["--dot", "--json"])
def test_lattice_unwritable_output_is_invalid_input(capsys, fixture_dir, tmp_path, flag):
    target = tmp_path / "missing" / "out"
    code, out, err = run(
        capsys, "lattice", fx(fixture_dir, "loop1.json"), flag, str(target)
    )
    assert code == 2
    assert out == ""
    assert "cannot write" in err
    assert not target.exists()


def test_lattice_failed_second_write_leaves_no_file(capsys, fixture_dir, tmp_path):
    dot = tmp_path / "a.dot"
    code, out, err = run(
        capsys,
        "lattice", fx(fixture_dir, "loop1.json"),
        "--dot", str(dot), "--json", str(tmp_path / "missing" / "a.json"),
    )
    assert code == 2
    assert out == ""
    assert "cannot write" in err
    assert list(tmp_path.iterdir()) == []


def test_lattice_same_output_path_is_invalid_input(capsys, fixture_dir, tmp_path):
    (tmp_path / "sub").mkdir()
    code, out, err = run(
        capsys,
        "lattice", fx(fixture_dir, "loop1.json"),
        "--dot", str(tmp_path / "x"), "--json", str(tmp_path / "sub" / ".." / "x"),
    )
    assert code == 2
    assert out == ""
    assert "same file" in err
    assert list(tmp_path.iterdir()) == [tmp_path / "sub"]


def test_lattice_output_naming_an_input_is_invalid_input(capsys, fixture_dir, tmp_path):
    """An output path that resolves to the model or the ``--relative`` file
    is rejected before anything is read or written."""
    (tmp_path / "sub").mkdir()
    model = tmp_path / "m.json"
    model.write_text((fixture_dir / "loop1.json").read_text())
    bound = tmp_path / "k.json"
    bound.write_text(json.dumps({"rank": 1, "sets": {"": [], "1": ["v"]}}))
    before = {path: path.read_text() for path in (model, bound)}
    for flag, target in (("--dot", model), ("--json", tmp_path / "sub" / ".." / "k.json")):
        code, out, err = run(
            capsys,
            "lattice", str(model), "--relative", str(bound), flag, str(target),
        )
        assert code == 2
        assert out == ""
        assert "names an input file" in err
    assert {path: path.read_text() for path in before} == before
    assert sorted(tmp_path.iterdir()) == [bound, model, tmp_path / "sub"]


RANK10_MODELS = [
    ({"kind": "dynsys", "rank": 10, "points": ["a"], "maps": [{}] * 10}, 2),
    (
        {
            "kind": "kgraph", "rank": 10, "vertices": ["u", "v"],
            "adjacency": [[[0, 1], [0, 0]]] * 10,
        },
        4,
    ),
]


@pytest.mark.parametrize("doc, count", RANK10_MODELS, ids=["dynsys", "kgraph"])
def test_rank_10_models_enumerate_and_build_lattices(capsys, tmp_path, doc, count):
    """The walk keeps one stack frame per direction set, not one Python
    frame, so 1,024 direction sets fit."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "enumerate", str(path), "--count-only")
    assert (code, out) == (0, f"{count}\n")
    code, out, _ = run(capsys, "lattice", str(path))
    assert code == 0
    assert json.loads(out)["nodes"] == count


def test_random_too_many_vertices_message(capsys):
    code, out, err = run(
        capsys, "random", "--kind", "kgraph", "--rank", "2", "--vertices", "65",
        "--seed", "1",
    )
    assert code == 2
    assert out == ""
    assert "at most 64 vertices supported, got 65" in err
    assert "positive" not in err


def test_crosscheck_single_model(capsys, fixture_dir):
    code, out, err = run(capsys, "crosscheck", fx(fixture_dir, "absorb2.json"))
    assert code == 0
    assert out == ""
    assert "0 discrepancy report(s)" in err


def test_crosscheck_corpus(capsys, fixture_dir):
    code, out, err = run(
        capsys, "crosscheck", "--corpus", fx(fixture_dir, "corpus_small.json")
    )
    assert code == 0
    assert out == ""
    assert "45 model(s)" in err


def test_crosscheck_needs_exactly_one_source(capsys, fixture_dir):
    code, _, err = run(capsys, "crosscheck")
    assert code == 2
    code, _, err = run(
        capsys,
        "crosscheck", fx(fixture_dir, "absorb2.json"),
        "--corpus", fx(fixture_dir, "corpus_small.json"),
    )
    assert code == 2


def test_random_deterministic_stdout(capsys):
    args = ["random", "--kind", "dynsys", "--rank", "2", "--vertices", "4",
            "--seed", "7"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["kind"] == "dynsys" and len(doc["points"]) == 4


def test_random_rejection_budget_zero(capsys):
    # a nonpositive retry count is invalid input under either strategy, not
    # a budget exit: no model was tried
    for strategy in ("rejection", "derived"):
        for retries in ("0", "-3"):
            code, out, err = run(
                capsys,
                "random", "--kind", "kgraph", "--rank", "2", "--vertices", "2",
                "--seed", "1", "--strategy", strategy, "--retries", retries,
            )
            assert code == 2
            assert out == ""
            assert "--retries" in err


def test_identical_invocations_byte_identical(capsys, fixture_dir):
    args = ["enumerate", fx(fixture_dir, "funnel2.json")]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_jobs_do_not_change_output(capsys, fixture_dir):
    base = ["enumerate", fx(fixture_dir, "funnel2.json")]
    _, out1, _ = run(capsys, *base)
    _, out2, _ = run(capsys, *base, "--jobs", "2")
    assert out1 == out2


def test_jobs_share_one_enumeration_budget(capsys, tmp_path):
    # the model needs 402 candidates in all, so budget 300 runs out
    code, doc, _ = run(
        capsys, "random", "--kind", "kgraph", "--rank", "2", "--vertices", "5",
        "--seed", "7",
    )
    assert code == 0
    model = tmp_path / "model.json"
    model.write_text(doc)
    base = ["enumerate", str(model)]
    outs, budget_outs = [], []
    for jobs in ("1", "2"):
        code, out, _ = run(capsys, *base, "--budget", "300", "--jobs", jobs)
        assert code == 3
        assert json.loads(out)["error"] == "budget-exceeded"
        budget_outs.append(out)
        code, out, _ = run(capsys, *base, "--jobs", jobs)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert budget_outs[0] == budget_outs[1]


def test_jobs_share_the_relative_enumeration_budget(capsys, fixture_dir, tmp_path):
    # funnel2 above its canonical family needs 10 candidates in all; tops
    # below the bound count too
    model = fx(fixture_dir, "funnel2.json")
    code, doc, _ = run(capsys, "compute", "if", model)
    assert code == 0
    bound = tmp_path / "if.json"
    bound.write_text(doc)
    base = ["enumerate", model, "--relative", str(bound)]
    for budget, want in (("9", 3), ("10", 0)):
        outs = set()
        for jobs in ("1", "2", "3"):
            code, out, _ = run(capsys, *base, "--budget", budget, "--jobs", jobs)
            assert code == want
            outs.add(out)
        assert len(outs) == 1
    assert json.loads(out)["mode"] == "O"
    assert json.loads(out)["count"] == 2


def test_jobs_budget_exit_identical_on_21_vertices(capsys, tmp_path):
    # 2**21 tops: the budget runs out long before the tops do
    code, doc, _ = run(
        capsys, "random", "--kind", "dynsys", "--rank", "1", "--vertices", "21",
        "--seed", "1",
    )
    assert code == 0
    model = tmp_path / "model.json"
    model.write_text(doc)
    outs = []
    for jobs in ("1", "2"):
        code, out, _ = run(
            capsys, "enumerate", str(model), "--budget", "1000", "--jobs", jobs
        )
        assert code == 3
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0]) == {
        "error": "budget-exceeded",
        "stats": {"budget": 1000},
    }


def test_jobs_relative_enumeration_identical(capsys, fixture_dir, tmp_path):
    bound = tmp_path / "bound.json"
    bound.write_text(
        json.dumps(
            {"rank": 2, "sets": {"": [], "1": ["v"], "2": ["v"], "1,2": ["v"]}}
        )
    )
    base = [
        "enumerate", fx(fixture_dir, "loops2.json"), "--relative", str(bound)
    ]
    _, out1, _ = run(capsys, *base)
    _, out2, _ = run(capsys, *base, "--jobs", "3")
    assert out1 == out2
    assert json.loads(out1)["count"] == 2


def test_jobs_enumeration_above_a_bound_that_is_not_a_family(capsys, fixture_dir, tmp_path):
    model = fx(fixture_dir, "shift2.json")
    code, jf_doc, _ = run(capsys, "compute", "jf", model)
    assert code == 0
    bound = tmp_path / "jf.json"
    bound.write_text(jf_doc)
    base = ["enumerate", model, "--relative", str(bound)]
    code1, out1, _ = run(capsys, *base, "--jobs", "1")
    code2, out2, _ = run(capsys, *base, "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["count"] >= 1


def test_crosscheck_discrepancies_exit_1(capsys, fixture_dir, monkeypatch):
    # a fixed-point verdict that always says no mismatches every valid
    # family; each report is one canonical JSON line on stdout
    import giideals.crossval
    from giideals.crossval import theorem_a_sweep
    from giideals.modelio import canonical_json

    def faulty_sweep(pairs, **kwargs):
        return theorem_a_sweep(pairs, t_check=lambda m, fam: False, **kwargs)

    monkeypatch.setattr(giideals.crossval, "theorem_a_sweep", faulty_sweep)
    code, out, err = run(capsys, "crosscheck", fx(fixture_dir, "absorb2.json"))
    assert code == 1
    docs = [json.loads(line) for line in out.splitlines()]
    assert docs and [canonical_json(d) for d in docs] == out.splitlines()
    keys = [(d["fingerprint"], d["claim"]) for d in docs]
    assert keys == sorted(keys)
    assert {d["claim"] for d in docs} == {"nt_matches_t", "no_matches_o"}
    assert f"{len(docs)} discrepancy report(s)" in err


def test_internal_consistency_error_exits_1(
    capsys, fixture_dir, monkeypatch, tmp_path
):
    # two engines disagreeing is a failed check, not invalid input
    import giideals.lattice
    from giideals.core import InternalConsistencyError

    def broken_build(model, result):
        raise InternalConsistencyError("family set is not an interval of T-families")

    monkeypatch.setattr(giideals.lattice, "build_lattice", broken_build)
    dot = tmp_path / "out.dot"
    code, out, err = run(
        capsys, "lattice", fx(fixture_dir, "loop1.json"), "--dot", str(dot)
    )
    assert code == 1
    assert out == ""
    assert "internal consistency error (please report)" in err
    assert not dot.exists()


def test_crosscheck_beyond_the_table_limit_is_a_budget_exit(capsys, tmp_path):
    # a valid 18-vertex model: validate accepts it, so crosscheck must not
    # call it invalid input; the sweep tables stop at 16 vertices
    code, out, _ = run(
        capsys,
        "random", "--kind", "dynsys", "--rank", "1", "--vertices", "18",
        "--seed", "1",
    )
    assert code == 0
    path = tmp_path / "big.json"
    path.write_text(out)
    assert run(capsys, "validate", str(path))[0] == 0
    code, out, _ = run(capsys, "crosscheck", str(path))
    assert code == 3
    assert json.loads(out) == {
        "error": "budget-exceeded",
        "stats": {"vertices": 18, "table_limit": 16},
    }

    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({
        "kinds": ["dynsys"], "rank_min": 1, "rank_max": 1,
        "vertices_min": 17, "vertices_max": 17, "sample_count": 2,
    }))
    code, out, _ = run(capsys, "crosscheck", "--corpus", str(corpus), "--jobs", "2")
    assert code == 3
    assert json.loads(out)["stats"] == {"vertices": 17, "table_limit": 16}

    # models of 4, 17 and 18 vertices: the first in corpus order to exceed
    # the table limit is reported, whichever worker sweeps it
    corpus.write_text(json.dumps({
        "kinds": ["dynsys"], "rank_min": 1, "rank_max": 1,
        "vertices_min": 2, "vertices_max": 18, "sample_count": 3, "seed": 245,
    }))
    for jobs in ("1", "2"):
        code, out, _ = run(capsys, "crosscheck", "--corpus", str(corpus), "--jobs", jobs)
        assert code == 3
        assert json.loads(out) == {
            "error": "budget-exceeded",
            "stats": {"vertices": 17, "table_limit": 16},
        }


def test_jobs_crosscheck_deterministic(capsys, fixture_dir):
    args = ["crosscheck", "--corpus", fx(fixture_dir, "corpus_small.json")]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args, "--jobs", "2")
    assert out1 == out2


@pytest.mark.parametrize("models, code", [(11, 0), (14, 3)])
def test_jobs_give_one_stdout_and_exit_code_on_a_streamed_corpus(capsys, tmp_path, models, code):
    """Models 0-10 of this corpus have 1 to 12 vertices and model 11 has 17,
    past the subset-table limit: the 14-model corpus is a budget exit
    partway through, more than one ``--jobs 2`` window into the corpus."""
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({
        "kinds": ["dynsys", "kgraph"], "rank_min": 1, "rank_max": 2,
        "vertices_min": 1, "vertices_max": 17, "sample_count": models, "seed": 241,
        "candidate_ceiling": 4096, "candidate_samples": 500,
    }))
    argv = ["crosscheck", "--corpus", str(corpus), "--jobs"]
    code1, out1, _ = run(capsys, *argv, "1")
    assert run(capsys, *argv, "2")[:2] == (code1, out1)
    assert code1 == code


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_the_corpus_is_drawn_at_most_one_window_ahead_of_the_results(jobs):
    """``_map_in_order`` yields in input order, draws at most ``4 * jobs``
    batches of at most ``_BATCH_MAX`` items ahead of the batch it is
    yielding (nothing with one job), batches quick tasks, and raises a
    task's error in its batch's turn, without drawing the rest."""
    from giideals.cli import _BATCH_MAX, _map_in_order

    drawn = []

    def items(values):
        for value in values:
            drawn.append(value)
            yield value

    window = (4 * jobs + 1) * _BATCH_MAX if jobs > 1 else 0
    results, ahead = [], []
    count = 4 * window + 20
    for result in _map_in_order(operator.neg, items(range(count)), jobs):
        results.append(result)
        ahead.append(len(drawn) - len(results))
    assert results == [-i for i in range(count)]
    assert max(ahead) <= window
    if jobs > 1:  # tasks this quick go out in full batches
        assert max(ahead) > 4 * jobs

    # in the first window each batch is one item; later, the results of the
    # raising task's batch are lost with it
    for bad in (2, 3 * _BATCH_MAX):
        drawn.clear()
        results.clear()
        values = [*range(1, bad + 1), "x", *range(window + 20)]
        with pytest.raises(TypeError):
            for result in _map_in_order(operator.neg, items(values), jobs):
                results.append(result)
        assert results == [-i for i in range(1, len(results) + 1)]
        assert len(results) == bad or (jobs > 1 and bad > 4 * jobs)
        assert len(drawn) <= bad + 1 + window


def test_jobs_crosscheck_orders_reports_of_equal_fingerprints_by_corpus_index(
    capsys, tmp_path, monkeypatch
):
    # reports that tie on (fingerprint, claim) print in corpus order and, per
    # model, in candidate order, whichever worker swept the model
    import giideals.crossval
    from giideals.crossval import CorpusSpec, DiscrepancyReport, iter_corpus_models

    def tied_sweep(pairs, stats=None, **kwargs):
        if stats is not None:
            stats.update(models=len(pairs), candidates=0)
        return [
            DiscrepancyReport("same", "nt_matches_t", {}, {"candidate": c}, seed)
            for _, seed in pairs
            for c in range(2)
        ]

    monkeypatch.setattr(giideals.crossval, "theorem_a_sweep", tied_sweep)
    spec = {
        "kinds": ["dynsys"], "rank_min": 1, "rank_max": 1,
        "vertices_min": 1, "vertices_max": 2, "sample_count": 3,
    }
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(spec))
    args = ["crosscheck", "--corpus", str(corpus)]
    code1, out1, _ = run(capsys, *args, "--jobs", "1")
    code2, out2, _ = run(capsys, *args, "--jobs", "2")
    assert code1 == code2 == 1
    assert out1 == out2
    seeds = [seed for _, seed in iter_corpus_models(CorpusSpec.from_doc(spec))]
    docs = [json.loads(line) for line in out1.splitlines()]
    assert [(d["seed"], d["datum"]["candidate"]) for d in docs] == [
        (seed, c) for seed in seeds for c in range(2)
    ]


@pytest.mark.parametrize("jobs", ["0", "-2", "x"])
@pytest.mark.parametrize(
    "command", [["enumerate", "--count-only"], ["crosscheck"]], ids=lambda c: c[0]
)
def test_nonpositive_jobs_is_invalid_input(capsys, fixture_dir, command, jobs):
    code, out, err = run(
        capsys, command[0], fx(fixture_dir, "loop1.json"), *command[1:], "--jobs", jobs
    )
    assert code == 2
    assert out == ""
    assert "--jobs" in err


@pytest.mark.parametrize("budget", ["0", "-1"])
@pytest.mark.parametrize("command", ["enumerate", "lattice"])
def test_nonpositive_budget_is_invalid_input(capsys, fixture_dir, command, budget):
    # not a budget exit: no candidate was tried against an invalid budget
    code, out, err = run(
        capsys, command, fx(fixture_dir, "loop1.json"), "--budget", budget
    )
    assert code == 2
    assert out == ""
    assert "--budget" in err


def test_witness_replays_through_library(capsys, fixture_dir):
    # a failing check's witness, fed back through the library, must
    # reproduce the violation
    from giideals import label_to_mask, load_model_path
    from giideals.modelio import family_from_path

    model = load_model_path(fx(fixture_dir, "absorb2.json"))
    fam = family_from_path(model, fx(fixture_dir, "absorb2_nested_family.json"))
    _, out, _ = run(
        capsys,
        "family", "check",
        fx(fixture_dir, "absorb2.json"),
        fx(fixture_dir, "absorb2_nested_family.json"),
        "--mode", "t",
    )
    witness = json.loads(out)["witness"]
    f = label_to_mask(witness["F"], model.rank)
    i = witness["i"]
    lhs = fam[f]
    rhs = model.phi(i, fam[f]) & fam[f | (1 << (i - 1))]
    assert lhs != rhs
    assert set(model.names_of_set(lhs ^ rhs)) == set(witness["difference"])


def test_family_file_validation(capsys, fixture_dir, tmp_path):
    bad = tmp_path / "fam.json"
    bad.write_text(json.dumps({"rank": 2, "sets": {"": []}}))
    code, _, err = run(
        capsys,
        "family", "check", fx(fixture_dir, "absorb2.json"), str(bad),
        "--mode", "t",
    )
    assert code == 2
    assert "keys mismatch" in err


@pytest.mark.parametrize("target", [["q"], {"x": 1}], ids=["list", "object"])
def test_validate_rejects_a_non_string_map_target(capsys, tmp_path, target):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(
        {"kind": "dynsys", "rank": 1, "points": ["p", "q"], "maps": [{"p": target}]}
    ))
    code, out, err = run(capsys, "validate", str(model))
    assert code == 2
    assert out == ""
    assert "unknown point" in err


def test_family_check_rejects_a_non_string_vertex_name(capsys, fixture_dir, tmp_path):
    bad = tmp_path / "fam.json"
    bad.write_text(json.dumps({"rank": 2, "sets": {"": [["p"]], "1": [], "2": [], "1,2": []}}))
    code, out, err = run(
        capsys,
        "family", "check", fx(fixture_dir, "absorb2.json"), str(bad),
        "--mode", "t",
    )
    assert code == 2
    assert out == ""
    assert "unknown vertex name" in err


@pytest.mark.parametrize(
    "config",
    [{"rank_min": "1"}, {"kinds": 5}, {"exhaustive": "no"}],
    ids=["string-bound", "number-kinds", "string-exhaustive"],
)
def test_corpus_config_fields_are_type_checked(capsys, tmp_path, config):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(config))
    code, out, err = run(capsys, "crosscheck", "--corpus", str(corpus))
    assert code == 2
    assert out == ""
    assert "wrong type" in err


def test_corpus_with_repeated_kinds_is_invalid_input(capsys, tmp_path):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({
        "kinds": ["dynsys", "dynsys"], "exhaustive": True,
        "rank_min": 1, "rank_max": 1, "vertices_max": 2,
    }))
    code, out, err = run(capsys, "crosscheck", "--corpus", str(corpus))
    assert code == 2
    assert out == ""
    assert "kinds repeat" in err


@pytest.mark.parametrize("rank_max", [20_000, 10**6])
def test_exhaustive_corpus_past_the_ceiling_is_a_prompt_budget_exit(tmp_path, rank_max):
    # the implied model count stops at its first partial sum past the
    # ceiling: 2 + 4 + ... + 2**17, one-point maps of ranks 1 to 17.  Summing
    # every rank formed an int too long to print (20,000) or ran for minutes
    # (10**6); the subprocess timeout is the wall-time bound
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({
        "kinds": ["dynsys"], "rank_min": 1, "rank_max": rank_max,
        "vertices_min": 1, "vertices_max": 1, "exhaustive": True,
    }))
    proc = subprocess.run(
        [sys.executable, "-m", "giideals.cli", "crosscheck", "--corpus", str(corpus)],
        capture_output=True, text=True, timeout=5,
    )
    assert proc.returncode == 3, proc.stderr
    (line,) = proc.stdout.splitlines()
    doc = json.loads(line)
    assert doc == {
        "error": "budget-exceeded",
        "stats": {"implied_models": 2**18 - 2, "model_ceiling": 200_000},
    }
    assert doc["stats"]["implied_models"] > doc["stats"]["model_ceiling"]


def test_sampled_corpus_past_the_ceiling_is_a_prompt_budget_exit(tmp_path):
    # every model was drawn before the sweep began, so a sample count past
    # the ceiling ran out of memory; the subprocess timeout is the wall-time
    # bound
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({
        "kinds": ["dynsys"], "rank_min": 1, "rank_max": 1,
        "vertices_min": 1, "vertices_max": 1, "sample_count": 10**9,
    }))
    proc = subprocess.run(
        [sys.executable, "-m", "giideals.cli", "crosscheck", "--corpus", str(corpus)],
        capture_output=True, text=True, timeout=5,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == (
        '{"error":"budget-exceeded",'
        '"stats":{"implied_models":1000000000,"model_ceiling":200000}}\n'
    )


def test_budget_stats_past_the_digit_limit_still_print(capsys, tmp_path):
    # every number in the config reads under the int-string digit limit,
    # but the implied model count, max_mult + 1 = 10**4300, prints past it
    nines = "9" * 4300
    corpus = tmp_path / "corpus.json"
    corpus.write_text(
        f'{{"kinds":["kgraph"],"max_mult":{nines},"model_ceiling":{nines},'
        '"exhaustive":true,"rank_min":1,"rank_max":1,'
        '"vertices_min":1,"vertices_max":1}'
    )
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "crosscheck", "--corpus", str(corpus))
    assert code == 3
    assert out == (
        '{"error":"budget-exceeded","stats":{"implied_models":1' + "0" * 4300
        + f',"model_ceiling":{nines}}}}}\n'
    )
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize(
    "command, text",
    [
        ("validate", '{"kind":"dynsys","rank":%s,"points":["a"],"maps":[{}]}'),
        ("crosscheck", '{"kinds":["dynsys"],"model_ceiling":%s,"exhaustive":true}'),
    ],
    ids=["model-rank", "corpus-model-ceiling"],
)
def test_integers_past_the_digit_limit_are_invalid_input(capsys, tmp_path, command, text):
    # valid JSON, but Python refuses to parse an integer of more than 4,300
    # digits with a ValueError that is not a JSONDecodeError
    path = tmp_path / "doc.json"
    path.write_text(text % ("1" * 5000))
    source = [str(path)] if command == "validate" else ["--corpus", str(path)]
    err = cli_rejects(capsys, command, *source)
    assert "too long" in err


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "kgraph", "rank": 1, "vertices": ["a"], "adjacency": [[[1.5]]]},
        {"kind": "kgraph", "rank": 1, "vertices": ["a"], "adjacency": [[["1"]]]},
        {"kind": "kgraph", "rank": 1, "vertices": ["a"], "adjacency": [[[True]]]},
        {"rank": True, "sets": {"": [], "1": []}},
    ],
    ids=["entry-float", "entry-string", "entry-true", "family-rank-true"],
)
def test_non_integer_numbers_are_invalid_input(capsys, fixture_dir, tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    if "kind" in doc:
        argv = ["validate", str(path)]
    else:
        model = fx(fixture_dir, "loop1.json")
        argv = ["family", "check", model, str(path), "--mode", "t"]
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert out == ""
