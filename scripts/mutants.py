#!/usr/bin/env python3
"""Mutation gate for the sweep's verdict code: every listed mutant must be
killed by the tests named beside it.

A mutant is an exact snippet of a file under ``src/giideals``, its
replacement, and the pytest node ids that must fail on the mutated code.
Each snippet must occur exactly once in its file, so a refactor that moves
the code must move its mutants with it.  A mutant that no test kills is
either killed by a new test or listed as equivalent, with its reason, in
``EQUIVALENT``; none is deleted to make the gate pass.

    python scripts/mutants.py            # run every mutant
    python scripts/mutants.py --check    # only check the snippets and test ids

Each run copies ``src``, ``tests``, ``fixtures`` and ``pyproject.toml`` to
a temporary directory, applies one mutant there and runs ``pytest -x`` on
its tests with that copy first on ``PYTHONPATH``, two mutants at a time.
The exit code is 1 if a mutant survives or a check fails, else 0.
Standard library only, besides pytest itself.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "fixtures", "pyproject.toml")
JOBS = 2  # mutants run at once


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/giideals
    snippet: str
    replacement: str
    tests: tuple


CROSSVAL = "crossval.py"
T = "tests/test_crossval.py::"
WHOLE_SPACE = T + "test_the_kernel_matches_the_references_on_a_whole_space"
FAULTY = T + "test_sweep_matches_the_reference_verdicts_on_faulty_tables"
CHUNK_SHAPES = T + "test_lane_verdicts_on_every_chunk_shape"
PLANES = T + "test_lane_verdicts_match_the_reference_on_two_and_three_planes"
RANDRANGE = T + "test_sampler_draws_the_randrange_stream[0]"
SELF_TEST = T + "test_sweep_self_test_detects_injected_fault"
BLOCKS = T + "test_the_kernel_sees_only_the_blocks_the_first_cover_leaves"

MUTANTS = (
    # the per-candidate kernel, SweepTables.mismatches
    Mutant(
        "first-cover-exit-inverted", CROSSVAL,
        "            if h & ~x:\n                continue  # the first subset half",
        "            if not h & ~x:\n                continue  # the first subset half",
        (WHOLE_SPACE,),
    ),
    Mutant(
        "spurious-exit-on-empty-set", CROSSVAL,
        "            if h & ~x:\n                continue  # the first subset half",
        "            if h & ~x or not h:\n                continue  # the first subset half",
        (WHOLE_SPACE + "[rank-3]",),
    ),
    Mutant(
        "t-starts-true", CROSSVAL,
        "            t = x == h\n",
        "            t = True\n",
        (WHOLE_SPACE,),
    ),
    Mutant(
        "condition-i-disabled", CROSSVAL,
        "                    if fam[f] & ~jf_row[h0]:",
        "                    if False:",
        (SELF_TEST,),
    ),
    Mutant(
        "lim-dropped-from-iv", CROSSVAL,
        "if lpi[jf_row[h0] & k0] & lim[h] & ~h:",
        "if lpi[jf_row[h0] & k0] & ~h:",
        (WHOLE_SPACE + "[rank-3]",),
    ),
    Mutant(
        "report-cap-off-by-one", CROSSVAL,
        "                if len(found) >= REPORT_CAP:\n                    break",
        "                if len(found) > REPORT_CAP:\n                    break",
        (FAULTY + "[jf-full]",),
    ),
    Mutant(
        "t-check-route-removed", CROSSVAL,
        "        if t_check is not None:\n            records = (",
        "        if False:\n            records = (",
        (SELF_TEST,),
    ),
    # the exhaustive candidates, SweepTables.exhaustive_candidates, and
    # their use in sweep_model
    Mutant(
        "block-test-inverted", CROSSVAL,
        "if not h0 & ~(row0[h0] & h1)]",
        "if h0 & ~(row0[h0] & h1)]",
        (BLOCKS, WHOLE_SPACE),
    ),
    Mutant(
        "blocks-under-a-t-check", CROSSVAL,
        "tables.exhaustive_candidates() if t_check is None",
        "tables.exhaustive_candidates() if True",
        (FAULTY + "[jf-full]",),
    ),
    Mutant(
        "block-test-entries-swapped", CROSSVAL,
        "if not h0 & ~(row0[h0] & h1)]",
        "if not h0 & ~(row0[h1] & h0)]",
        (BLOCKS,),
    ),
    Mutant(
        "block-entry-range-one-short", CROSSVAL,
        "[h1 for h1 in hs if",
        "[h1 for h1 in hs[:-1] if",
        (BLOCKS,),
    ),
    # the lane kernel, SweepTables.lane_verdicts and lane_mismatches
    Mutant(
        "lane-carry-mask-0x3f", CROSSVAL,
        'low = int.from_bytes(b"\\x7f" * size, "little")',
        'low = int.from_bytes(b"\\x3f" * size, "little")',
        (CHUNK_SHAPES,),
    ),
    Mutant(
        "lane-carry-into-the-next-lane", CROSSVAL,
        'low = int.from_bytes(b"\\x7f" * size, "little")',
        'low = int.from_bytes(b"\\xff" * size, "little")',
        (CHUNK_SHAPES,),
    ),
    Mutant(
        "lanes-drop-condition-i", CROSSVAL,
        "                nt_bad |= h[f] & ~j\n",
        "                pass\n",
        (CHUNK_SHAPES,),
    ),
    Mutant(
        "lanes-drop-condition-iv", CROSSVAL,
        "                nt_bad |= core & _plane_lookup(lim, entries[f], size) & ~h[f]\n",
        "                pass\n",
        (FAULTY + "[lim-full]",),
    ),
    Mutant(
        "lanes-jf-without-h0", CROSSVAL,
        "jf_h0[f] = j = ~_plane_lookup(xf, entries[0], size) | h[0]",
        "jf_h0[f] = j = ~_plane_lookup(xf, entries[0], size)",
        (CHUNK_SHAPES,),
    ),
    Mutant(
        "lanes-t-read-as-the-subset-half", CROSSVAL,
        "                t_bad |= x ^ h[f]\n",
        "                t_bad |= h[f] & ~x\n",
        (CHUNK_SHAPES,),
    ),
    Mutant(
        "lanes-skip-a-neighbouring-lane", CROSSVAL,
        "j = lanes.find(0x80, j + 1)",
        "j = lanes.find(0x80, j + 2)",
        (FAULTY + "[jf-full]",),
    ),
    Mutant(
        "lanes-flipped-t", CROSSVAL,
        "                t = not t_lanes[j]\n",
        "                t = bool(t_lanes[j])\n",
        (FAULTY + "[jf-full]",),
    ),
    Mutant(
        "lanes-no-report-cap", CROSSVAL,
        "                if len(found) >= REPORT_CAP:\n                    return found",
        "                if False:\n                    return found",
        (FAULTY + "[jf-full]",),
    ),
    Mutant(
        "lanes-skip-the-plane-fold", CROSSVAL,
        "            for q in range(1, p):\n",
        "            for q in range(1, 1):\n",
        (PLANES,),
    ),
    Mutant(
        "plane-table-other-planes-empty", CROSSVAL,
        "row[b << shift | full & ~(mask << shift)]",
        "row[b << shift]",
        (T + "test_the_plane_factored_lookup_equals_the_row_on_every_subset",),
    ),
    # the sampler, _sampled_lanes
    Mutant(
        "sampler-uniform-lanes-swapped", CROSSVAL,
        "v[2 * nmasks + m::stride]",
        "v[2 * nmasks + (m ^ 1)::stride]",
        (RANDRANGE,),
    ),
    Mutant(
        "sampler-identity-last-plane-shift", CROSSVAL,
        "bytes(b >> 7 * p - n for b in range(256))",
        "bytes(range(256))",
        (RANDRANGE,),
    ),
    Mutant(
        "sampler-lists-its-chunk-sizes", CROSSVAL,
        "map(chunk, (min(step, count - start) for start in range(0, count, step)))",
        "map(chunk, [min(step, count - start) for start in range(0, count, step)])",
        (T + "test_the_first_sampled_candidate_comes_before_the_chunk_sizes_are_listed",),
    ),
)

#: Mutants no test can kill because they do not change behaviour, by name,
#: each with its reason.  Empty: every mutant above changes some verdict.
EQUIVALENT: dict = {}


def check(mutants) -> list[str]:
    """Problems with the list: a snippet that does not occur exactly once,
    a replacement equal to its snippet, a repeated name, or a test id whose
    file or test function does not exist."""
    problems = []
    names = [m.name for m in mutants]
    for name in sorted({n for n in names if names.count(n) > 1}):
        problems.append(f"{name}: the name repeats")
    for m in mutants:
        text = (ROOT / "src" / "giideals" / m.path).read_text()
        if text.count(m.snippet) != 1:
            problems.append(f"{m.name}: snippet occurs {text.count(m.snippet)} times")
        if m.snippet == m.replacement:
            problems.append(f"{m.name}: the replacement equals the snippet")
        if not m.tests:
            problems.append(f"{m.name}: no test is named")
        for node in m.tests:
            path, _, test = node.partition("::")
            func = re.sub(r"\[.*\]$", "", test)
            source = ROOT / path
            if not source.is_file() or f"def {func}(" not in source.read_text():
                problems.append(f"{m.name}: no test {node}")
    return problems


def killed(mutant: Mutant) -> tuple[bool, float, str]:
    """Apply the mutant to a temporary copy and run its tests: ``(killed,
    seconds, last line of pytest's output)``.  Only a test failure (pytest
    exit 1) kills; a usage error or an empty selection does not."""
    with tempfile.TemporaryDirectory(prefix="giideals-mutant-") as tmp:
        for name in COPIED:
            src, dst = ROOT / name, Path(tmp) / name
            if src.is_dir():
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(src, dst)
        target = Path(tmp) / "src" / "giideals" / mutant.path
        target.write_text(target.read_text().replace(mutant.snippet, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=tmp, env=env, capture_output=True, text=True, timeout=900,
        )
        seconds = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return proc.returncode == 1, seconds, lines[-1] if lines else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="only check the snippets and test ids")
    args = parser.parse_args(argv)
    problems = check(MUTANTS)
    for problem in problems:
        print(f"mutants: {problem}", file=sys.stderr)
    if problems:
        return 1
    if args.check:
        print(f"{len(MUTANTS)} mutants, every snippet found once")
        return 0
    survivors = []
    with ThreadPoolExecutor(JOBS) as pool:
        for m, (dead, seconds, last) in zip(MUTANTS, pool.map(killed, MUTANTS)):
            verdict = "killed" if dead else "SURVIVED"
            print(f"{verdict:8} {m.name} ({seconds:.1f} s): {last}", flush=True)
            if not dead and m.name not in EQUIVALENT:
                survivors.append(m.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
