"""Self-test of the benchmark: every workload at smoke size, the metric
contract, the recorded anchors, and gates that trip on injected faults.

Run from the root of a checkout:  python3 -m pytest perfbench
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_package()

import workloads  # noqa: E402
from giideals.crossval import DEFAULT_CANDIDATE_CEILING, RANDOM_SCHEDULE  # noqa: E402
from giideals.families import is_t_family  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
RECORD = json.loads((run.HERE / "workloads.json").read_text())
ANCHORS = workloads.load_anchors()


def units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_passes_and_emits_every_metric(name, trace):
    record, _ = run.run(name, seed=5, seconds=0, trace=trace, smoke=True)
    assert record["failed"] == 0, record["failures"]
    assert record["counts_repeat"]
    want = units("per_layer" if trace else "end_to_end")
    got = {k: v["unit"] for k, v in record["metrics"].items()}
    assert got == want
    if not trace:
        assert all(v["value"] > 0 for v in record["metrics"].values())
    context = record["context"]
    assert context["nproc"] >= 1 and context["python"]
    assert len(context["loadavg_start"]) == len(context["loadavg_end"]) == 3


def _smoke_pass(name, anchors):
    wl = workloads.WORKLOADS[name]
    workdir = run.OUT / f"test-{name}-{os.getpid()}"
    try:
        return run.run_pass(wl, 5, anchors, True, workdir, None, None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_gate_trips_on_one_flipped_t_verdict(monkeypatch):
    flips = {"left": 1}

    def flip_once(model, fam):
        verdict = is_t_family(model, fam).verdict
        if flips["left"]:
            flips["left"] -= 1
            return not verdict
        return verdict

    sweep = functools.partial(workloads.theorem_a_sweep, t_check=flip_once)
    monkeypatch.setattr(workloads, "theorem_a_sweep", sweep)
    result = _smoke_pass("sweep-small", ANCHORS)
    assert flips["left"] == 0
    assert len(result.failures) == 1
    assert "discrepancy report" in result.failures[0]


@pytest.mark.parametrize("name,field", [("lattice", "dot"), ("cli", "stdout")])
def test_gate_trips_on_corrupted_expected_digest(name, field):
    anchors = json.loads(json.dumps(ANCHORS))
    clean = _smoke_pass(name, anchors)
    assert clean.failures == []
    key = next(k for k in sorted(clean.raw) if field in anchors[name][k])
    anchors[name][key][field] = "0" * 16
    result = _smoke_pass(name, anchors)
    assert len(result.failures) == 1
    assert result.failures[0].startswith(key)


def test_anchors_hold_the_recorded_corpus_counts():
    small = ANCHORS["sweep-small"]
    for leg, models, candidates in (("dynsys", 685, 2_632_000), ("kgraph", 752, 190_352)):
        rows = [v for k, v in small.items() if k.startswith(f"{leg}:")]
        assert len(rows) == models
        assert sum(r["candidates"] for r in rows) == candidates
    assert all(r["models"] == 1 for r in small.values())

    rand = ANCHORS["sweep-random"]
    cycle = len(RANDOM_SCHEDULE)
    assert len(rand) == workloads.RANDOM_CYCLES * cycle
    per_cycle = {"exhaustive": [], "sampled": []}
    for c in range(workloads.RANDOM_CYCLES):
        split = {"exhaustive": 0, "sampled": 0}
        for i in range(cycle):
            _, rank, vertices = RANDOM_SCHEDULE[i]
            space = (1 << vertices) ** (1 << rank)
            mode = "exhaustive" if space <= DEFAULT_CANDIDATE_CEILING else "sampled"
            split[mode] += rand[f"random:{c * cycle + i}"]["candidates"]
        for mode, total in split.items():
            per_cycle[mode].append(total)
    # every cycle repeats the schedule, so ten cycles make the 200-model leg
    assert len(set(per_cycle["exhaustive"])) == len(set(per_cycle["sampled"])) == 1
    assert 10 * per_cycle["exhaustive"][0] == 24_389_920
    assert 10 * per_cycle["sampled"][0] == 800_000


def test_cli_anchors_record_identical_jobs_output():
    cli = ANCHORS["cli"]
    pairs = [k for k in cli if k.startswith("enumerate-j2:")]
    assert pairs
    for key in pairs:
        assert cli[key] == cli[key.replace("-j2:", "-j1:")]


def test_record_matches_benchmark_json():
    assert set(RECORD["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    assert set(RECORD["workloads"]) == set(workloads.WORKLOADS)
    names = set(units("end_to_end")) | set(units("per_layer"))
    described = {k for k in RECORD["end_to_end"] if k != "error_rate"}
    assert described == set(units("end_to_end"))
    for row in RECORD["predictions"]:
        assert set(row["metrics"]) <= names
        for target in row["should_move"]:
            workload, metric = target.split()
            assert workload in RECORD["workloads"] and metric in names
    assert set(RECORD["exact_counts"]) <= names


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
