"""The experiment scripts stay runnable."""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_run_theorem_sweep_small(tmp_path):
    out_file = tmp_path / "reports.jsonl"
    proc = subprocess.run(
        [
            sys.executable,
            str(SCRIPTS / "run_theorem_sweep.py"),
            "--skip-exhaustive",
            "--random-models", "4",
            "--out", str(out_file),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["discrepancies"] == 0
    leg = summary["legs"][0]
    assert leg["models"] == 4
    # the sweep and the property suite are timed apart, beside the total
    assert set(leg) == {
        "name", "models", "candidates", "reports",
        "seconds", "sweep_seconds", "property_seconds",
    }
    assert all(leg[key] >= 0 for key in ("seconds", "sweep_seconds", "property_seconds"))
    assert "(sweep " in proc.stderr and "property suite " in proc.stderr
    assert out_file.exists()


def test_render_fixture_lattices(tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            str(SCRIPTS / "render_fixture_lattices.py"),
            "--out", str(tmp_path),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("shift2", "absorb2", "loop1", "loops2", "funnel1", "funnel2"):
        assert (tmp_path / f"{name}.dot").read_text().startswith("digraph")
        json.loads((tmp_path / f"{name}.json").read_text())


def test_cli_digest_is_stable():
    runs = [
        subprocess.run(
            [sys.executable, str(SCRIPTS / "cli_digest.py")],
            capture_output=True,
            text=True,
            timeout=120,
        )
        for _ in range(2)
    ]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    lines = runs[0].stdout.splitlines()
    assert lines == runs[1].stdout.splitlines()
    # same outputs as the recorded digest: stdout, written files, exit codes
    assert lines == (GOLDEN / "cli_digest.txt").read_text().splitlines()
    assert len(lines) == 86
    assert all(len(line.split()) == 4 for line in lines)
    assert "corpus-repeated-kinds 2" in runs[0].stdout
    assert "corpus-exhaustive-past-ceiling 3" in runs[0].stdout
    # a run that exits 2 on its second write leaves no file: the digest of
    # no files is the digest of the empty byte string
    nothing = hashlib.sha256().hexdigest()[:16]
    assert f"lattice-unwritable-second 2 {nothing} {nothing}" in lines
    assert f"lattice-same-path 2 {nothing} {nothing}" in lines
    # the budget boundary does not move with --jobs: 44 candidates are one
    # too few for absorb2, 45 are enough
    over = hashlib.sha256(b'{"error":"budget-exceeded","stats":{"budget":44}}\n')
    count = hashlib.sha256(b"14\n").hexdigest()[:16]
    for jobs in ("1", "2"):
        key = f"count-budget{{}}-jobs{jobs}:absorb2"
        assert f"{key.format(44)} 3 {over.hexdigest()[:16]} {nothing}" in lines
        assert f"{key.format(45)} 0 {count} {nothing}" in lines


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", SCRIPTS / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_snippet_occurs_exactly_once():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "mutants.py"), "--check"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # the check itself: a snippet found twice or not at all, a replacement
    # that changes nothing, a repeated name and a missing test all fail it
    mutants = load_mutants()
    first = mutants.MUTANTS[0]
    bad = [
        first._replace(name="twice", snippet="\n"),
        first._replace(name="absent", snippet="no such code"),
        first._replace(name="same", replacement=first.snippet),
        first,
        first._replace(tests=("tests/test_crossval.py::test_no_such_test",)),
    ]
    problems = mutants.check(bad)
    assert [p.split(":")[0] for p in problems] == [
        first.name, "twice", "absent", "same", first.name,
    ]


@pytest.mark.slow
def test_every_mutant_is_killed():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "mutants.py")],
        capture_output=True,
        text=True,
        timeout=1800,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "SURVIVED" not in proc.stdout
