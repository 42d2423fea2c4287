#!/usr/bin/env python3
"""Sweep the shipped corpus, comparing the two family characterisations.

Prints per-leg progress to stderr and a JSON summary to stdout; any
discrepancy reports are emitted as JSON lines.  Each leg reports its total
``seconds`` and, apart, the verdict sweep's ``sweep_seconds`` and the
property suite's ``property_seconds``, in seconds to the millisecond.
Exit code 0 iff clean.

Usage:
    python scripts/run_theorem_sweep.py [--random-models N] [--seed S]
                                        [--skip-exhaustive] [--out FILE]
"""

import argparse
import json
import sys
import time

from giideals.crossval import (
    BUILTIN_SEED,
    EXHAUSTIVE_LEGS,
    builtin_random_models,
    iter_corpus_models,
    property_suite,
    theorem_a_sweep,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--random-models", type=int, default=200)
    parser.add_argument("--seed", type=int, default=BUILTIN_SEED)
    parser.add_argument("--skip-exhaustive", action="store_true")
    parser.add_argument("--out", help="also write reports to this JSONL file")
    args = parser.parse_args()

    legs = []
    if not args.skip_exhaustive:
        legs.extend(
            (name, list(iter_corpus_models(spec))) for name, spec in EXHAUSTIVE_LEGS
        )
    legs.append(
        (
            f"{args.random_models} seeded random models",
            builtin_random_models(args.random_models, args.seed),
        )
    )

    all_reports = []
    summary = {"legs": [], "discrepancies": 0}
    for name, models in legs:
        t0 = time.perf_counter()
        stats: dict = {}
        reports = theorem_a_sweep(models=models, stats=stats)
        t1 = time.perf_counter()
        reports += property_suite(models=models)
        t2 = time.perf_counter()
        print(
            f"{name}: {stats['models']} models, {stats['candidates']} candidates, "
            f"{len(reports)} reports, {t2 - t0:.3f}s "
            f"(sweep {t1 - t0:.3f}s, property suite {t2 - t1:.3f}s)",
            file=sys.stderr,
        )
        summary["legs"].append(
            {
                "name": name,
                "models": stats["models"],
                "candidates": stats["candidates"],
                "reports": len(reports),
                "seconds": round(t2 - t0, 3),
                "sweep_seconds": round(t1 - t0, 3),
                "property_seconds": round(t2 - t1, 3),
            }
        )
        all_reports.extend(reports)

    summary["discrepancies"] = len(all_reports)
    lines = [json.dumps(r.to_doc(), sort_keys=True) for r in all_reports]
    for line in lines:
        print(line)
    print(json.dumps(summary, sort_keys=True))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines + [json.dumps(summary, sort_keys=True)]) + "\n")
    return 0 if not all_reports else 1


if __name__ == "__main__":
    sys.exit(main())
