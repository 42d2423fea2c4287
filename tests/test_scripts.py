"""The experiment scripts stay runnable."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

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
    assert summary["legs"][0]["models"] == 4
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
