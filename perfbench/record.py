#!/usr/bin/env python3
"""Record ``anchors.json``: the outputs every workload's gate compares against.

Run from the root of a checkout whose outputs are trusted:

    python3 perfbench/record.py

Records, per item, what ``observe`` reports: for the sweeps the model and
candidate counts and the property-suite counts; for ``lattice`` the family,
relative-family and cover-edge counts and the export digests, and which
models fall under the family-count cap; for ``cli`` each command's exit
code, stdout digest and counts.  It refuses to record an item that fails
its own consistency check (a discrepancy report, a wrong join, ``--jobs 2``
output differing from ``--jobs 1``).
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def observe_all(wl, items) -> dict:
    out = {}
    for item in items:
        got, _, problem = wl.observe(item, wl.run_item(item))
        if problem:
            raise SystemExit(f"refusing to record {wl.name} {item.key}: {problem}")
        out[item.key] = got
    return out


def lattice_keys(cap: int) -> list[str]:
    from giideals import fixtures
    from giideals.core import BudgetExceededError
    from giideals.crossval import builtin_random_models
    from giideals.families import enumerate_t_families

    pool = [(f"fixture:{i}", m) for i, m in enumerate(fixtures.all_models())]
    pool += [(f"random:{i}", m) for i, (m, _) in enumerate(builtin_random_models(200))]
    keys = []
    for key, model in pool:
        try:
            count = enumerate_t_families(model).count
        except BudgetExceededError:
            continue
        if count <= cap:
            keys.append(key)
    return keys


def main() -> int:
    run.import_package()
    import workloads

    anchors: dict = {}
    for name in ("sweep-small", "sweep-random"):
        wl = workloads.WORKLOADS[name]
        order = [key for key, _, _ in wl.models(0, False)]
        items = sorted(wl.setup(0, anchors), key=lambda it: order.index(it.key))
        anchors[name] = observe_all(wl, items)
        print(f"{name}: {len(anchors[name])} items", file=sys.stderr)

    anchors["lattice"] = {key: None for key in lattice_keys(workloads.LATTICE_CAP)}
    wl = workloads.WORKLOADS["lattice"]
    items = sorted(wl.setup(0, anchors), key=lambda it: list(anchors["lattice"]).index(it.key))
    anchors["lattice"] = observe_all(wl, items)
    print(f"lattice: {len(anchors['lattice'])} items", file=sys.stderr)

    wl = workloads.WORKLOADS["cli"]
    workdir = run.OUT / f"record-{os.getpid()}"
    try:
        anchors["cli"] = {}
        for smoke in (False, True):
            items = wl.setup(0, anchors, smoke, workdir)
            anchors["cli"].update(observe_all(wl, sorted(items, key=lambda it: it.key)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    cli = anchors["cli"]
    for key in cli:
        if key.startswith("enumerate-j2:") and cli[key] != cli[key.replace("-j2:", "-j1:")]:
            raise SystemExit(f"refusing to record: {key} differs from its --jobs 1 run")
    print(f"cli: {len(cli)} commands", file=sys.stderr)

    workloads.ANCHORS_PATH.write_text(dumps(anchors))
    return 0


def dumps(anchors: dict) -> str:
    """JSON with one item per line, so that a re-recording diffs by item."""
    blocks = []
    for name, items in anchors.items():
        rows = ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(got, sort_keys=True)}" for key, got in items.items()
        )
        blocks.append(f"{json.dumps(name)}: {{\n{rows}\n}}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
