#!/usr/bin/env python3
"""Digest a fixed list of CLI invocations, to show that two trees give the
same outputs.

Each invocation runs in-process through ``giideals.cli.main``; files it
writes go to a fresh temporary directory.  One line per invocation:

    key exit sha256(stdout)[:16] sha256(written files)[:16]

Run it against two source trees and diff the output:

    PYTHONPATH=src python scripts/cli_digest.py > after.txt
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from giideals.cli import main as cli_main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
MODELS = ("shift2", "absorb2", "loop1", "loops2", "funnel1", "funnel2")


def invocations(inputs: Path):
    """``(key, argv)`` pairs; ``{out}`` in an argument is replaced by the
    invocation's output directory."""
    nested = str(FIXTURES / "absorb2_nested_family.json")
    for name in MODELS:
        model = str(FIXTURES / f"{name}.json")
        yield f"validate:{name}", ["validate", model]
        for which in ("jf", "if"):
            yield f"compute-{which}:{name}", ["compute", which, model]
        for mode in ("t", "nt", "o"):
            yield f"check-{mode}:{name}", ["family", "check", model, nested, "--mode", mode]
        yield f"enumerate:{name}", ["enumerate", model]
        yield f"enumerate-count:{name}", ["enumerate", model, "--count-only"]
        yield f"enumerate-jobs2:{name}", ["enumerate", model, "--jobs", "2"]
        yield f"lattice:{name}", [
            "lattice", model, "--dot", "{out}/lat.dot", "--json", "{out}/lat.json"
        ]
        yield f"crosscheck:{name}", ["crosscheck", model]

    # the absorb2 enumeration needs exactly 45 candidates, at any --jobs
    absorb2 = str(FIXTURES / "absorb2.json")
    for budget in ("44", "45"):
        for jobs in ("1", "2"):
            yield f"count-budget{budget}-jobs{jobs}:absorb2", [
                "enumerate", absorb2, "--count-only",
                "--budget", budget, "--jobs", jobs,
            ]

    # the funnel2 relative enumeration needs 10 candidates above its I-family
    funnel2 = str(FIXTURES / "funnel2.json")
    bound = inputs / "funnel2_if.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        cli_main(["compute", "if", funnel2])
    bound.write_text(stdout.getvalue())
    for budget in ("9", "10"):
        for jobs in ("1", "2"):
            yield f"relative-budget{budget}-jobs{jobs}:funnel2", [
                "enumerate", funnel2, "--relative", str(bound),
                "--budget", budget, "--jobs", jobs,
            ]
    yield "lattice-relative:funnel2", [
        "lattice", funnel2, "--relative", str(bound),
        "--dot", "{out}/lat.dot", "--json", "{out}/lat.json",
    ]

    corpus = str(FIXTURES / "corpus_small.json")
    for jobs in ("1", "2"):
        yield f"corpus-jobs{jobs}", ["crosscheck", "--corpus", corpus, "--jobs", jobs]

    yield "random-kgraph", [
        "random", "--kind", "kgraph", "--rank", "2", "--vertices", "4", "--seed", "42"
    ]
    yield "random-dynsys", [
        "random", "--kind", "dynsys", "--rank", "2", "--vertices", "4", "--seed", "7"
    ]

    loop1 = str(FIXTURES / "loop1.json")
    yield "lattice-unwritable-dot", ["lattice", loop1, "--dot", "{out}/missing/x.dot"]
    yield "lattice-unwritable-json", ["lattice", loop1, "--json", "{out}/missing/x.json"]
    yield "lattice-unwritable-second", [
        "lattice", loop1, "--dot", "{out}/a.dot", "--json", "{out}/missing/a.json"
    ]
    yield "lattice-same-path", ["lattice", loop1, "--dot", "{out}/x", "--json", "{out}/x"]

    repeated = inputs / "repeated_kinds.json"
    repeated.write_text(json.dumps({
        "kinds": ["dynsys", "dynsys"], "exhaustive": True,
        "rank_min": 1, "rank_max": 1, "vertices_max": 2,
    }))
    yield "corpus-repeated-kinds", ["crosscheck", "--corpus", str(repeated)]

    past_ceiling = inputs / "past_ceiling.json"
    past_ceiling.write_text(json.dumps({
        "kinds": ["dynsys"], "exhaustive": True, "rank_min": 1, "rank_max": 20_000,
        "vertices_min": 1, "vertices_max": 1,
    }))
    yield "corpus-exhaustive-past-ceiling", ["crosscheck", "--corpus", str(past_ceiling)]

    # a large lattice: 9,816 families and 48,743 cover edges
    large = inputs / "kgraph_3_4_2.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        cli_main(["random", "--kind", "kgraph", "--rank", "3", "--vertices", "4",
                  "--seed", "2"])
    large.write_text(stdout.getvalue())
    yield "lattice-large:kgraph_3_4_2", [
        "lattice", str(large), "--dot", "{out}/lat.dot", "--json", "{out}/lat.json"
    ]


def files_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def run_one(key, argv, out: Path):
    argv = [arg.replace("{out}", str(out)) for arg in argv]
    stdout = io.StringIO()
    error = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli_main(argv)
        except Exception as exc:  # the console script exits 1 on an uncaught error
            code, error = 1, exc
    if error is not None:
        print(f"{key}: uncaught {type(error).__name__}: {error}", file=sys.stderr)
    return code, hashlib.sha256(stdout.getvalue().encode()).hexdigest()[:16]


def main():
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp) / "inputs"
        inputs.mkdir()
        for n, (key, argv) in enumerate(invocations(inputs)):
            out = Path(tmp) / f"out{n}"
            out.mkdir()
            code, out_digest = run_one(key, argv, out)
            print(f"{key} {code} {out_digest} {files_digest(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
