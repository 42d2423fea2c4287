#!/usr/bin/env python3
"""Steadiness check: run the benchmark on several seeds and compare spreads.

Run from the root of a checkout:

    python3 perfbench/steady.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                [--trace] [--against perfbench/out/steady-A.json]
                                [--label A]

For each workload and end-to-end metric it prints the median and the spread,
the distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), and flags a spread above a third of
the metric's bound in ``BENCHMARK.json`` (``setup_s`` is exempt).  Exact
counts must be identical across all runs.  With ``--against`` it also flags
a median worse than that earlier set's by more than the bound.  Results are
saved to ``perfbench/out/steady-LABEL.json``.  Exit status 1 on any flag.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(metric: dict, new: float, old: float) -> float:
    if metric["better"] == "lower":
        return (new - old) / old
    return (old - new) / old


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--against")
    parser.add_argument("--label", default="latest")
    args = parser.parse_args()

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    results: dict = {}
    flags = []
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            record, result = run_once(workload, seed, spec["run_seconds"], args.trace)
            if not result["correct"]:
                flags.append(f"{workload} seed {seed}: incorrect, failures {record['failures']}")
            runs.append({"seed": seed, "counts": record["counts"],
                         "context": record["context"], "metrics": result["metrics"]})
            print(f"{workload} seed {seed}: load {record['context']['loadavg_start'][0]:.2f}"
                  f" -> {record['context']['loadavg_end'][0]:.2f}", file=sys.stderr)
        results[workload] = runs
        if any(r["counts"] != runs[0]["counts"] for r in runs):
            flags.append(f"{workload}: exact counts differ between runs")
        print(f"\n{workload} ({len(runs)} runs)")
        for metric in metrics:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            line = f"  {name:40s} median {median:14.6g}"
            if len(values) >= 2 and median:
                s = spread(values)
                line += f"  spread {s:7.3f}"
                bound = metric.get("bound")
                if bound is not None and name != "setup_s" and s > bound / 3:
                    line += "  > bound/3"
                    flags.append(f"{workload} {name}: spread {s:.3f} > {bound / 3:.3f}")
            if earlier.get(workload) and metric.get("bound") is not None:
                old = statistics.median(r["metrics"][name]["value"] for r in earlier[workload])
                if old:
                    w = worse_by(metric, median, old)
                    line += f"  vs earlier {w:+.3f}"
                    if w > metric["bound"]:
                        flags.append(f"{workload} {name}: worse than earlier by {w:.3f}")
                counts_then = earlier[workload][0]["counts"]
                if counts_then != runs[0]["counts"] and name == metrics[0]["name"]:
                    flags.append(f"{workload}: exact counts differ from the earlier set")
            print(line)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{args.label}.json").write_text(json.dumps(results, indent=1) + "\n")
    for flag in flags:
        print(f"FLAG {flag}")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
