"""The four benchmark workloads: their inputs, items and correctness gates.

Each workload builds its inputs in ``setup`` (timed as set-up, never as
work) and runs one *item* at a time in ``run_item`` (timed, one latency
sample each).  After the timer stops, ``observe`` reduces an item's output
to the values that ``anchors.json`` records (written from the package by
``record.py``), its work counters and any inconsistency of its own, and
``check`` grades it.

The benchmark seed never changes which models or commands a workload runs,
so every exact count and recorded digest repeats across seeds.  It changes
the order of the items and the ``join`` pairs of ``lattice``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from giideals import core, crossval, dynsys, families, fixtures, kgraph, lattice, modelio
from giideals.core import i_family
from giideals.crossval import (
    CorpusSpec,
    builtin_random_models,
    iter_corpus_models,
    property_suite,
    random_model,
    theorem_a_sweep,
)
from giideals.families import enumerate_relative_o, enumerate_t_families, join
from giideals.lattice import build_lattice, export_dot, export_json
from giideals.modelio import family_to_doc, load_model

HERE = Path(__file__).resolve().parent
ANCHORS_PATH = HERE / "anchors.json"

#: The exhaustive legs of the shipped corpus (685 + 752 models).
SMALL_LEGS = (
    ("dynsys", dict(kinds=("dynsys",), rank_min=2, rank_max=2,
                    vertices_min=1, vertices_max=3, exhaustive=True)),
    ("kgraph", dict(kinds=("kgraph",), rank_min=2, rank_max=2,
                    vertices_min=1, vertices_max=2, max_mult=2, exhaustive=True)),
)

#: sweep-random runs a prefix of whole 20-model RANDOM_SCHEDULE cycles of
#: the shipped random leg; two cycles fit several passes into one run.
RANDOM_CYCLES = 2
RANDOM_SMOKE = (0, 1, 2, 3, 4, 5, 6, 7, 14, 16)

#: lattice keeps the fixtures and the random-leg models with at most this
#: many T-families (recorded in anchors.json by record.py).
LATTICE_CAP = 200
JOINS_PER_MODEL = 4

#: cli: generated models, written as documents in set-up.  ``gen1`` (150
#: families) is a subject next to the absorb2 fixture; ``gen2`` (9816
#: families) makes the ``--jobs 1`` / ``--jobs 2`` pair long enough to compare.
GENERATED = {
    "gen1": dict(kind="kgraph", rank=2, vertices=4, seed=3),
    "gen2": dict(kind="kgraph", rank=3, vertices=4, seed=2),
}
FIXTURE_FILES = ("shift2", "absorb2", "loop1", "loops2", "funnel1", "funnel2")
#: The corpus for ``crosscheck --corpus``: fixed seed so its counts repeat;
#: ceiling and sample size put each model's sweep below a second.
CORPUS = dict(rank_min=1, rank_max=3, vertices_min=2, vertices_max=4, seed=7,
              sample_count=32, candidate_ceiling=1 << 18, candidate_samples=8000)
CORPUS_SMOKE = dict(CORPUS, sample_count=4)
CLI_TIMEOUT_S = 120

_CROSSCHECK_NOTE = re.compile(
    r"crosscheck: (\d+) model\(s\), (\d+) candidate families, (\d+) discrepancy"
)


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def load_anchors() -> dict:
    with open(ANCHORS_PATH) as fh:
        return json.load(fh)


def _mix(*parts) -> int:
    return int.from_bytes(hashlib.sha256(repr(parts).encode()).digest()[:8], "big")


def _shuffled(items, seed):
    items = list(items)
    random.Random(_mix("order", seed)).shuffle(items)
    return items


#: The CPUs this process may use when it starts.  A run keeps itself on the
#: first one (see run.py) and gives the others only to parallel invocations.
ALL_CPUS = frozenset(os.sched_getaffinity(0))


@dataclass
class Item:
    key: str
    payload: object
    parallel: bool = False  # uses more than one CPU


# ---------------------------------------------------------------------------
# sweeps


class SweepWorkload:
    """Items are ``theorem_a_sweep`` then ``property_suite`` on one model."""

    def __init__(self, name: str):
        self.name = name

    def models(self, seed: int, smoke: bool):
        if self.name == "sweep-small":
            out = [(f"fixture:{i}", m, None) for i, m in enumerate(fixtures.all_models())]
            for leg, spec in SMALL_LEGS:
                models = iter_corpus_models(CorpusSpec(**spec))
                for i, (m, _) in enumerate(models):
                    if smoke and i >= 10:
                        break
                    out.append((f"{leg}:{i}", m, None))
            return out
        pairs = builtin_random_models(20 * RANDOM_CYCLES)
        keep = RANDOM_SMOKE if smoke else range(len(pairs))
        return [(f"random:{i}", *pairs[i]) for i in keep]

    def setup(self, seed: int, anchors: dict, smoke: bool = False, workdir=None) -> list[Item]:
        return _shuffled(
            (Item(key, (model, rng_seed)) for key, model, rng_seed in self.models(seed, smoke)),
            seed,
        )

    def run_item(self, item: Item):
        pair = [item.payload]
        sweep_stats: dict = {}
        prop_stats: dict = {}
        reports = theorem_a_sweep(models=pair, stats=sweep_stats)
        reports += property_suite(models=pair, stats=prop_stats)
        return reports, sweep_stats, prop_stats

    def observe(self, item: Item, raw):
        reports, sweep_stats, prop_stats = raw
        got = {
            "models": sweep_stats.get("models"),
            "candidates": sweep_stats.get("candidates"),
            "property_families": prop_stats.get("families"),
            "invariant_sets": prop_stats.get("invariant_sets"),
        }
        counts = {
            "candidates": got["candidates"] or 0,
            "sweep_candidates": got["candidates"] or 0,
            "families": got["property_families"] or 0,
            "property_families": got["property_families"] or 0,
            "invariant_sets": got["invariant_sets"] or 0,
        }
        problem = f"{len(reports)} discrepancy report(s)" if reports else None
        return got, counts, problem


# ---------------------------------------------------------------------------
# lattice


def _le(a, b) -> bool:
    return all(x & ~y == 0 for x, y in zip(a, b))


class LatticeWorkload:
    """Items enumerate, build, join and export the lattice of one model."""

    name = "lattice"

    def setup(self, seed: int, anchors: dict, smoke: bool = False, workdir=None) -> list[Item]:
        keys = list(anchors["lattice"])
        if smoke:
            keys = keys[:8]
        pool = {f"fixture:{i}": m for i, m in enumerate(fixtures.all_models())}
        pool.update(
            (f"random:{i}", m) for i, (m, _) in enumerate(builtin_random_models(200))
        )
        return _shuffled(
            (Item(key, (pool[key], _mix("join", seed, key))) for key in keys), seed
        )

    def run_item(self, item: Item):
        model, join_seed = item.payload
        result = enumerate_t_families(model)
        relative = enumerate_relative_o(model, i_family(model))
        graph = build_lattice(model, result)
        rng = random.Random(join_seed)
        joins = []
        for _ in range(JOINS_PER_MODEL):
            a = rng.choice(result.families)
            b = rng.choice(result.families)
            joins.append((a, b, join(model, a, b)))
        return result, relative, graph, joins, export_dot(graph), export_json(graph)

    def observe(self, item: Item, raw):
        result, relative, graph, joins, dot, doc = raw
        candidates = result.stats.get("candidates", 0) + relative.stats.get("candidates", 0)
        found = result.stats.get("found", 0) + relative.stats.get("found", 0)
        counts = {
            "candidates": candidates,
            "families": result.count,
            "enum_candidates": candidates,
            "enum_found": found,
            "joins": len(joins),
            "cover_edges": len(graph.cover_edges),
            "max_nodes": len(graph.nodes),
            "export_bytes": len(dot) + len(doc),
        }
        got = {
            "families": result.count,
            "relative": relative.count,
            "cover_edges": len(graph.cover_edges),
            "dot": digest(dot),
            "json": digest(doc),
        }
        problem = None
        for a, b, j in joins:
            union = tuple(x | y for x, y in zip(a, b))
            uppers = [f for f in result.families if _le(union, f)]
            if j not in uppers or not all(_le(j, f) for f in uppers):
                problem = "join is not the least upper bound"
        return got, counts, problem


# ---------------------------------------------------------------------------
# cli


@dataclass
class Command:
    key: str
    argv: list
    model: str | None = None  # model document the command reads
    outputs: tuple = ()  # files the command writes


class CliWorkload:
    """Items are ``python -m giideals.cli`` invocations, one subprocess each."""

    name = "cli"

    root = HERE.parent

    def commands(self, work: Path, smoke: bool) -> list[Command]:
        """The invocation script, short enough for five passes per run."""
        fixture_dir = self.root / "fixtures"
        path = {name: str(fixture_dir / f"{name}.json") for name in FIXTURE_FILES}
        path.update((name, str(work / f"{name}.json")) for name in GENERATED)
        family = {"absorb2": str(fixture_dir / "absorb2_nested_family.json"),
                  "gen1": str(work / "gen1.ifamily.json")}

        def cmd(key, name, *argv, outputs=()):
            return Command(f"{key}:{name}", list(argv), path.get(name), outputs)

        subjects = ["absorb2"] if smoke else ["absorb2", "gen1"]
        cmds = [cmd("validate", n, "validate", path[n]) for n in ("loop1", "absorb2")]
        cmds += [cmd(f"compute-{which}", "shift2", "compute", which, path["shift2"])
                 for which in ("jf", "if")]
        cmds += [cmd(f"enumerate-j{j}", "absorb2", "enumerate", path["absorb2"], "--jobs", str(j))
                 for j in (1, 2)]
        for n in subjects:
            dot, lat = str(work / f"{n}.dot"), str(work / f"{n}.lattice.json")
            cmds += [cmd(f"check-{mode}", n, "family", "check", path[n], family[n], "--mode", mode)
                     for mode in ("t", "nt", "o")]
            cmds += [cmd("lattice", n, "lattice", path[n], "--dot", dot, "--json", lat,
                         outputs=(dot, lat)),
                     cmd("crosscheck", n, "crosscheck", path[n])]
        corpus = "corpus-smoke" if smoke else "corpus"
        cmds.append(cmd("crosscheck-corpus", "j2" if not smoke else "smoke-j2",
                        "crosscheck", "--corpus", str(work / f"{corpus}.json"), "--jobs", "2"))
        if not smoke:
            spec = GENERATED["gen1"]
            cmds += [cmd(f"enumerate-j{j}", "gen2", "enumerate", path["gen2"], "--count-only",
                         "--jobs", str(j)) for j in (1, 2)]
            cmds.append(Command("random:gen1", [
                "random", "--kind", spec["kind"], "--rank", str(spec["rank"]),
                "--vertices", str(spec["vertices"]), "--seed", str(spec["seed"])]))
        return cmds

    def setup(self, seed: int, anchors: dict, smoke: bool = False, workdir=None) -> list[Item]:
        work = Path(workdir)
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        for name, spec in GENERATED.items():
            model = random_model(spec["kind"], spec["rank"], spec["vertices"], spec["seed"])
            (work / f"{name}.json").write_text(json.dumps(model.to_doc()))
            if name == "gen1":
                fam = family_to_doc(model, i_family(model))
                (work / "gen1.ifamily.json").write_text(json.dumps(fam))
        (work / "corpus.json").write_text(json.dumps(CORPUS))
        (work / "corpus-smoke.json").write_text(json.dumps(CORPUS_SMOKE))
        return _shuffled(
            (Item(c.key, c, "--jobs" in c.argv and c.argv[c.argv.index("--jobs") + 1] != "1")
             for c in self.commands(work, smoke)),
            seed,
        )

    def env(self) -> dict:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env

    def invoke(self, argv, parallel: bool = False) -> subprocess.CompletedProcess:
        """Run one invocation in its own process group, so that a timeout
        also ends its pool workers.  A parallel invocation may use every CPU;
        any other stays on the benchmark's CPU."""
        cmd = [sys.executable, "-m", "giideals.cli", *argv]
        widen = (lambda: os.sched_setaffinity(0, ALL_CPUS)) if parallel else None
        with subprocess.Popen(
            cmd, cwd=self.root, env=self.env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, start_new_session=True, preexec_fn=widen,
        ) as proc:
            try:
                out, err = proc.communicate(timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise
        return subprocess.CompletedProcess(cmd, proc.returncode, out, err)

    def run_item(self, item: Item):
        return self.invoke(item.payload.argv, item.parallel)

    def observe(self, item: Item, raw):
        cmd = item.payload
        got = {"exit": raw.returncode, "stdout": digest(raw.stdout)}
        counts = {"stdout_bytes": len(raw.stdout), "candidates": 0, "families": 0}
        problem = None
        if cmd.outputs:
            got["files"] = digest(b"".join(Path(p).read_bytes() for p in cmd.outputs))
        if cmd.argv[0] == "crosscheck":
            note = _CROSSCHECK_NOTE.search(raw.stderr.decode(errors="replace"))
            if note is None:
                problem = "no crosscheck summary on stderr"
            else:
                got["models"], got["candidates"], reports = map(int, note.groups())
                counts["candidates"] = counts["sweep_candidates"] = got["candidates"]
                if reports:
                    problem = f"{reports} discrepancy report(s)"
        elif cmd.argv[0] in ("enumerate", "lattice") and raw.returncode == 0:
            doc = json.loads(raw.stdout)  # --count-only prints the bare count
            if isinstance(doc, dict):
                doc = doc["count" if cmd.argv[0] == "enumerate" else "nodes"]
            got["families"] = counts["families"] = doc
        return got, counts, problem


def check(workload, item: Item, raw, anchors: dict):
    """Grade one item: its own consistency first, then the recorded anchor.

    Returns ``(failure reason or None, counters)``.
    """
    got, counts, problem = workload.observe(item, raw)
    if problem:
        return f"{item.key}: {problem}", counts
    want = anchors[workload.name].get(item.key)
    if got != want:
        return f"{item.key}: {got} differs from recorded {want}", counts
    return None, counts


WORKLOADS = {
    "sweep-small": SweepWorkload("sweep-small"),
    "sweep-random": SweepWorkload("sweep-random"),
    "lattice": LatticeWorkload(),
    "cli": CliWorkload(),
}


def trace_sites():
    """``(owner, attr, span name, kind)`` for every traced call.

    The benchmark's own calls are traced at this module's names; calls the
    package makes internally are traced at the package module that looks
    them up.
    """
    bench_module = sys.modules[__name__]
    sites = [
        (kgraph.KGraphSkeleton, "__init__", "backend.build", "init"),
        (dynsys.PartialMapSystem, "__init__", "backend.build", "init"),
        (core.DirectionModel, "phi_table", "core.phi_table", "phi_table"),
    ]
    for owner in (core, crossval, families, bench_module):
        sites.append((owner, "j_family", "core.canonical", "call"))
        sites.append((owner, "i_family", "core.canonical", "call"))
    sites += [
        (bench_module, "iter_corpus_models", "crossval.corpus", "call"),
        (bench_module, "builtin_random_models", "crossval.corpus", "call"),
        (bench_module, "random_model", "crossval.corpus", "call"),
        (crossval, "random_model", "crossval.corpus", "call"),
        (crossval, "SweepTables", "crossval.tables", "call"),
        (crossval, "sweep_model", "crossval.verdicts", "sweep_model"),
        (bench_module, "theorem_a_sweep", "crossval.sweep", "call"),
        (bench_module, "property_suite", "crossval.property", "call"),
        (crossval, "iter_t_families", "families.iter", "call"),
        (crossval, "is_invariant", "families.check", "call"),
        (crossval, "is_partially_ordered", "families.check", "call"),
        (bench_module, "enumerate_t_families", "families.enum", "call"),
        (bench_module, "enumerate_relative_o", "families.relative", "call"),
        (bench_module, "join", "families.join", "call"),
        (bench_module, "build_lattice", "lattice.build", "call"),
        (lattice, "family_to_doc", "modelio.node_id", "call"),
        (lattice, "fingerprint", "modelio.node_id", "call"),
        (bench_module, "export_dot", "lattice.export", "call"),
        (bench_module, "export_json", "lattice.export", "call"),
        (bench_module, "load_model", "modelio.load", "call"),
    ]
    return sites


def traced_load(cmd: Command) -> None:
    """In traced cli passes, load the command's model in-process so that
    ``modelio`` has a span on the cli inputs."""
    if cmd.model:
        load_model(modelio.read_json(cmd.model))
