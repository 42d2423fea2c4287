#!/usr/bin/env python3
"""Benchmark of the giideals package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sweep-small, sweep-random, lattice, cli (see workloads.json).
A run repeats passes, each of set-up plus one timed pass over all items,
for about ``--seconds``, and checks every item against the recorded anchors.
It prints as its last stdout line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` passes alternate
untraced and traced, and the metrics are the per-layer ones.

Times are reported at a reference machine speed.  A shared host can change
speed by up to 1.7x within seconds (seen on a 2-vCPU 2.1 GHz virtual
machine), so a fixed pure-Python probe kernel is timed before set-up and
between items (at least every ``PROBE_EVERY_S``), and each measured time is
scaled by ``PROBE_REF_MS / probe time`` with the probes taken just before
and after it.  The raw times and probe times are kept in the record.

The line before the result is the full record: machine context (nproc,
Python version, load average at start and end, probe times), error rate,
exact counts and per-pass figures.  It is also written, with the spans of a
traced run, under ``perfbench/out/``.  The package is imported from
``src/`` of the checkout; without it the run exits with status 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
perf = time.perf_counter

#: Passes per run at least, so that each item's median has three samples,
#: and latency samples (items x passes) at least.
MIN_PASSES = 3
MIN_SAMPLES = 100
#: Candidates per model in the verdict timing loop of a traced run.
VERDICT_STREAM = 5000
VERDICT_REPEATS = 5
#: Probe kernel size, the longest gap between probes, and the probe time
#: that defines the reference speed (about the probe's time on a 2.1 GHz
#: vCPU when the host is quiet).
PROBE_LOOPS = 12_000
PROBE_EVERY_S = 0.2
PROBE_REF_MS = 4.0


def import_package():
    src = ROOT / "src"
    if not (src / "giideals" / "__init__.py").is_file():
        raise SystemExit(f"error: no giideals package under {src}")
    sys.path.insert(0, str(src))
    import giideals

    if Path(giideals.__file__).resolve().parent != (src / "giideals").resolve():
        raise SystemExit(f"error: giideals imported from {giideals.__file__}, not {src}")


def quantile(values, q: int) -> float:
    """Harrell-Davis estimate of percentile ``q`` (1..99); 0 when empty.

    A mean of all order statistics weighted by the Beta(p(n+1), (1-p)(n+1))
    mass of each one's rank interval.  Item costs come in clusters, and one
    or two order statistics at a cluster edge move with every small timing
    change; the weighted mean does not.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 2:
        return xs[0] if xs else 0.0
    p = q / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        if not 0 < x < 1:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    steps = 16  # Simpson's rule on each rank interval
    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        lo = i / n
        inner = sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        weights.append((density(lo) + inner + density(lo + 1 / n)) * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def probe_ms(all_cpus: bool = False) -> float:
    """Time of a fixed kernel of list, dict, tuple and bit operations.  It
    does not touch the package, so it tracks only the machine's speed: of
    the benchmark's own CPU, or with ``all_cpus`` the mean over every CPU,
    for work that runs on all of them."""
    import workloads

    if all_cpus and len(workloads.ALL_CPUS) > 1:
        times = []
        for cpu in sorted(workloads.ALL_CPUS):
            os.sched_setaffinity(0, {cpu})
            times.append(probe_ms())
        os.sched_setaffinity(0, {min(workloads.ALL_CPUS)})
        return sum(times) / len(times)
    start = perf()
    table = list(range(256))
    slots: dict[int, int] = {}
    acc = 0
    for i in range(PROBE_LOOPS):
        h = table[i & 255] ^ (i >> 3)
        slots[h & 63] = acc
        acc = (acc + (h & ~i) + len((h, i))) & 0xFFFF
    return (perf() - start) * 1000


def peak_rss_mb(children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024


class Pass:
    """One set-up and timed pass.  ``raw`` holds measured seconds per item
    and ``probe`` the probe time (ms) bracketing each item."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.setup_raw = 0.0
        self.setup_probe = PROBE_REF_MS
        self.raw: dict[str, float] = {}
        self.probe: dict[str, float] = {}
        self.failures: list[str] = []
        self.counts: Counter = Counter()
        self.spans = (0, 0)
        self.extra: dict = {}

    @property
    def setup_s(self) -> float:
        return self.setup_raw * PROBE_REF_MS / self.setup_probe

    @property
    def latencies(self) -> dict[str, float]:
        """Item latencies at the reference speed."""
        return {k: v * PROBE_REF_MS / self.probe[k] for k, v in self.raw.items()}

    @property
    def wall_s(self) -> float:
        return sum(self.latencies.values())

    @property
    def scale(self) -> float:
        """Reference-speed factor of the whole pass."""
        return PROBE_REF_MS / median_or_zero(self.probe.values())


def run_pass(wl, seed, anchors, smoke, workdir, tracer, sites) -> Pass:
    import workloads

    result = Pass(tracer is not None)
    gc.collect()
    before = probe_ms()
    if tracer is not None:
        first = len(tracer.spans)
        tracer.install(sites)
        tracer.item = "setup"
    try:
        start = perf()
        items = wl.setup(seed, anchors, smoke, workdir)
        result.setup_raw = perf() - start
        probe, probed_at = probe_ms(), perf()
        result.setup_probe = (before + probe) / 2
        for item in items:
            if tracer is not None:
                tracer.item = item.key
                if wl.name == "cli":
                    workloads.traced_load(item.payload)
            if item.parallel:
                probe = probe_ms(all_cpus=True)
            raw = error = None
            start = perf()
            try:
                raw = wl.run_item(item)
            except Exception as exc:  # an item that raises is a failed item
                error = f"{item.key}: {type(exc).__name__}: {exc}"
            result.raw[item.key] = perf() - start
            if item.parallel or perf() - probed_at >= PROBE_EVERY_S or item is items[-1]:
                after, probed_at = probe_ms(all_cpus=item.parallel), perf()
            else:
                after = probe
            result.probe[item.key] = (probe + after) / 2
            probe = probe_ms() if item.parallel else after
            if error:
                result.failures.append(error)
                continue
            reason, counts = workloads.check(wl, item, raw, anchors)
            del raw
            for key, value in counts.items():
                if key.startswith("max_"):
                    result.counts[key] = max(result.counts[key], value)
                else:
                    result.counts[key] += value
            if reason:
                result.failures.append(reason)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.item = None
            result.spans = (first, len(tracer.spans))
    if tracer is not None and wl.name == "cli":
        corpus = next(i for i in items if i.key.startswith("crosscheck-corpus"))
        before = probe_ms()
        start = perf()
        proc = wl.invoke(corpus.payload.argv[:-1] + ["1"])
        elapsed = perf() - start
        if proc.returncode != 0:
            result.failures.append(f"{corpus.key} at --jobs 1: exit {proc.returncode}")
        result.extra["corpus_jobs1_s"] = elapsed * PROBE_REF_MS / ((before + probe_ms()) / 2)
    return result


def measure(name, seed, seconds, trace, smoke=False):
    """Run passes for about ``seconds``; return the passes and the tracer
    (``None`` when untraced)."""
    import spans
    import workloads

    wl = workloads.WORKLOADS[name]
    anchors = workloads.load_anchors()
    workdir = OUT / f"work-{name}-{os.getpid()}"
    tracer = spans.Tracer() if trace else None
    sites = workloads.trace_sites() if trace else None
    passes: list[Pass] = []
    home = os.sched_getaffinity(0)
    # the probe must run on the CPU the measured work runs on
    os.sched_setaffinity(0, {min(workloads.ALL_CPUS)})
    begin = perf()
    try:
        while True:
            traced = trace and len(passes) % 2 == 1
            passes.append(
                run_pass(wl, seed, anchors, smoke, workdir, tracer if traced else None, sites)
            )
            elapsed = perf() - begin
            enough = max(MIN_PASSES, -(-MIN_SAMPLES // len(passes[0].raw)))
            if len(passes) >= enough and elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
    finally:
        os.sched_setaffinity(0, home)
        shutil.rmtree(workdir, ignore_errors=True)
    return passes, tracer


# ---------------------------------------------------------------------------
# metrics


def item_medians(passes) -> list[float]:
    """Each item's median latency over the passes."""
    latencies = [p.latencies for p in passes]
    return [statistics.median(lat[key] for lat in latencies) for key in passes[0].raw]


def end_to_end(name, passes) -> dict:
    wall = statistics.median(p.wall_s for p in passes)
    items_ms = [v * 1000 for v in item_medians(passes)]
    counts = passes[0].counts
    return {
        "setup_s": (statistics.median(p.setup_s for p in passes), "s"),
        "wall_s": (wall, "s"),
        "item_p50_ms": (quantile(items_ms, 50), "ms"),
        "item_p90_ms": (quantile(items_ms, 90), "ms"),
        "candidates_per_s": (counts["candidates"] / wall, "1/s"),
        "families_per_s": (counts["families"] / wall, "1/s"),
        "commands_per_s": (len(passes[0].raw) / wall, "1/s"),
        "peak_rss_mb": (peak_rss_mb(children=name == "cli"), "MB"),
    }


def verdict_ns() -> tuple[float, float]:
    """Plain timed loops of the two table-driven verdicts over a fixed
    seeded stream: a prefix of each model of the first random cycle, in
    exhaustive order or from the sweep's own sampler where the model is
    sampled."""
    import itertools
    import random

    from giideals import crossval

    tables_cls = getattr(crossval, "SweepTables", None)
    sampler = getattr(crossval, "_biased_candidates", None)
    if tables_cls is None:
        return 0.0, 0.0
    streams = []
    for model, seed in crossval.builtin_random_models(20):
        tables = tables_cls(model)
        size = 1 << model.vertex_count
        nmasks = 1 << model.rank
        if size**nmasks <= crossval.DEFAULT_CANDIDATE_CEILING or sampler is None:
            cands = list(itertools.islice(itertools.product(range(size), repeat=nmasks),
                                          VERDICT_STREAM))
        else:
            cands = list(sampler(random.Random(seed), model.vertex_count, model.rank,
                                 VERDICT_STREAM))
        streams.append((tables, cands))
    total = sum(len(c) for _, c in streams)
    out = []
    for attr in ("t_verdict", "nt_verdict"):
        runs = []
        for _ in range(VERDICT_REPEATS):
            before = probe_ms()
            start = perf()
            for tables, cands in streams:
                verdict = getattr(tables, attr)
                for fam in cands:
                    verdict(fam)
            elapsed = perf() - start
            speed = PROBE_REF_MS / ((before + probe_ms()) / 2)
            runs.append(elapsed * speed / total * 1e9)
        out.append(statistics.median(runs))
    return out[0], out[1]


def layer_times(p: Pass, tracer) -> dict:
    """Per-layer figures of one traced pass, at the reference speed."""
    first, last = p.spans
    scale = p.scale
    busy: Counter = Counter()
    durations: dict[str, list[float]] = {}
    verdict = {"exhaustive": [0, 0.0], "sampled": [0, 0.0]}
    for span, self_s in zip(tracer.spans[first:last], tracer.self_times(first, last)):
        name, start, end, _, _, data = span
        busy[name] += self_s * scale
        durations.setdefault(name, []).append((end - start) * scale)
        if name == "crossval.verdicts" and data and data["mode"] in verdict:
            verdict[data["mode"]][0] += data["candidates"]
            verdict[data["mode"]][1] += self_s * scale

    def rate(mode):
        count, busy_s = verdict[mode]
        return count / busy_s if busy_s else 0.0

    joins_ms = [d * 1000 for d in durations.get("families.join", [])]
    return {
        "backend.build_s": busy["backend.build"],
        "modelio.load_s": busy["modelio.load"],
        "modelio.node_id_s": busy["modelio.node_id"],
        "core.phi_table_s": busy["core.phi_table"],
        "core.canonical_s": busy["core.canonical"],
        "crossval.corpus_s": busy["crossval.corpus"],
        "crossval.tables_s": busy["crossval.tables"],
        "crossval.tables_p50_ms": median_or_zero(
            d * 1000 for d in durations.get("crossval.tables", [])),
        "crossval.sweep_s": busy["crossval.sweep"] + busy["crossval.verdicts"],
        "crossval.exhaustive_candidates_per_s": rate("exhaustive"),
        "crossval.sampled_candidates_per_s": rate("sampled"),
        "crossval.property_s": busy["crossval.property"],
        "families.enum_s": busy["families.enum"],
        "families.relative_s": busy["families.relative"],
        "families.join_p50_ms": quantile(joins_ms, 50),
        "families.join_p90_ms": quantile(joins_ms, 90),
        "families.iter_s": busy["families.iter"],
        "families.check_s": busy["families.check"],
        "lattice.build_s": busy["lattice.build"],
        "lattice.build_max_s": max(durations.get("lattice.build", [0.0])),
        "lattice.export_s": busy["lattice.export"],
    }


def cli_metrics(passes) -> dict:
    def med(prefix):
        return median_or_zero(
            v for p in passes for k, v in p.latencies.items() if k.startswith(prefix))

    corpus_j2 = med("crosscheck-corpus")
    corpus_j1 = median_or_zero(p.extra["corpus_jobs1_s"] for p in passes if p.traced)
    enum_j1, enum_j2 = med("enumerate-j1:gen2"), med("enumerate-j2:gen2")
    return {
        "cli.startup_ms": (med("validate:") * 1000, "ms"),
        "cli.crosscheck_corpus_s": (corpus_j2, "s"),
        "cli.crosscheck_jobs2_speedup": (corpus_j1 / corpus_j2 if corpus_j2 else 0.0, "ratio"),
        "cli.enumerate_jobs2_speedup": (enum_j1 / enum_j2 if enum_j2 else 0.0, "ratio"),
    }


def per_layer(name, passes, tracer) -> dict:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    rows = [layer_times(p, tracer) for p in traced]
    units = {"_per_s": "1/s", "_ms": "ms", "_s": "s"}
    metrics = {
        key: (statistics.median(row[key] for row in rows),
              next(u for suffix, u in units.items() if key.endswith(suffix)))
        for key in rows[0]
    }
    counts = traced[0].counts
    found = counts["enum_found"]
    t_ns, nt_ns = verdict_ns()
    metrics.update({
        "crossval.candidates": (counts["sweep_candidates"], "count"),
        "crossval.t_verdict_ns": (t_ns, "ns"),
        "crossval.nt_verdict_ns": (nt_ns, "ns"),
        "crossval.property_families": (counts["property_families"], "count"),
        "crossval.invariant_sets": (counts["invariant_sets"], "count"),
        "families.enum_candidates": (counts["enum_candidates"], "count"),
        "families.enum_found": (found, "count"),
        "families.candidates_per_family": (counts["enum_candidates"] / found if found else 0.0, "ratio"),
        "families.joins": (counts["joins"], "count"),
        "lattice.max_nodes": (counts["max_nodes"], "count"),
        "lattice.cover_edges": (counts["cover_edges"], "count"),
        "lattice.export_bytes": (counts["export_bytes"], "bytes"),
        "cli.stdout_bytes": (counts["stdout_bytes"], "bytes"),
        "trace.overhead_s": (
            statistics.median(p.wall_s for p in traced) - statistics.median(p.wall_s for p in plain),
            "s"),
    })
    metrics.update(cli_metrics(passes) if name == "cli" else {
        "cli.startup_ms": (0.0, "ms"),
        "cli.crosscheck_corpus_s": (0.0, "s"),
        "cli.crosscheck_jobs2_speedup": (0.0, "ratio"),
        "cli.enumerate_jobs2_speedup": (0.0, "ratio"),
    })
    return metrics


# ---------------------------------------------------------------------------


def run(name, seed, seconds, trace, smoke=False) -> tuple[dict, object]:
    """One benchmark run; returns the full record and the tracer."""
    loadavg_start = list(os.getloadavg())
    passes, tracer = measure(name, seed, seconds, trace, smoke)
    metrics = per_layer(name, passes, tracer) if trace else end_to_end(name, passes)
    attempted = sum(len(p.raw) for p in passes)
    failures = [f for p in passes for f in p.failures]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "context": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "loadavg_start": loadavg_start,
            "loadavg_end": list(os.getloadavg()),
            "probe_ref_ms": PROBE_REF_MS,
            "probe_ms_median_per_pass": [median_or_zero(p.probe.values()) for p in passes],
        },
        "passes": len(passes),
        "items_per_pass": len(passes[0].raw),
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted if attempted else 1.0,
        "failures": failures[:20],
        "counts": dict(sorted(passes[0].counts.items())),
        "counts_repeat": all(p.counts == passes[0].counts for p in passes),
        "traced_per_pass": [p.traced for p in passes],
        "setup_s_per_pass": [p.setup_s for p in passes],
        "wall_s_per_pass": [p.wall_s for p in passes],
        "raw_setup_s_per_pass": [p.setup_raw for p in passes],
        "raw_wall_s_per_pass": [sum(p.raw.values()) for p in passes],
        "item_median_ms": dict(zip(passes[0].raw, (v * 1000 for v in item_medians(passes)))),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return record, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    record, tracer = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    (OUT / f"{stem}.json").write_text(json.dumps(record) + "\n")
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({k: v for k, v in record.items() if k != "item_median_ms"}))
    print(json.dumps({
        # correct only when every item passed its gate and the counts repeated
        "correct": record["failed"] == 0 and record["counts_repeat"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
