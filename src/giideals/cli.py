"""Command-line front door.

Structured output is JSON on stdout; human-readable notes go to stderr, so
scripts can parse stdout without ambiguity.  Vertex names, never indices,
appear in all input and output documents.

Exit codes: 0 success or check passed; 1 check failed (witness JSON on
stdout), discrepancies found, or an internal consistency error (two
engines disagree: a note on stderr, nothing on stdout); 2 invalid input;
3 budget exceeded; 141 (128 + SIGPIPE) stdout closed, full or its reader
gone (``| head``).  A failed note on stderr never changes the exit code.

Each command imports only the modules it uses: at module level this file
imports ``core`` and ``modelio``, and the handlers import ``families``,
``lattice``, ``corpus`` and ``crossval`` when they need them.  Every
command starts a fresh interpreter, so a module it does not load is
start-up time saved.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import os
import sys
import time
from functools import partial
from pathlib import Path

from .core import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    InternalConsistencyError,
    InvalidInputError,
    i_family,
    j_family,
)
from .modelio import (
    MODEL_KINDS,
    canonical_json,
    family_from_path,
    family_to_doc,
    load_model_path,
    model_fingerprint,
    read_json,
    write_text,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_BROKEN_PIPE = 141


class _StdoutGone(Exception):
    """stdout could not take the output: ``main`` exits 141."""


def _emit(doc=None, text: str = "") -> None:
    """One canonical JSON line on stdout, rendered with the int-string digit
    limit lifted (output numbers are computed, not read), or with no ``doc``
    the pre-rendered ``text``: argparse's help."""
    if doc is not None:
        limit = getattr(sys, "get_int_max_str_digits", int)()  # from 3.10.7
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            text = canonical_json(doc) + "\n"
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
    if not _write(sys.stdout, text):
        raise _StdoutGone


def _note(message: str) -> None:
    _write(sys.stderr, message + "\n")  # best effort: the exit code stands


def _write(stream, text: str) -> bool:
    """Write and flush ``text``, or point a failed stream at the null device,
    so the flush at interpreter exit raises nothing, and return False."""
    if stream is None:  # closed at start-up: only a flush succeeds
        return not text
    try:
        stream.write(text)
        stream.flush()
        return True
    except OSError:
        with open(os.devnull, "wb") as devnull:
            try:
                os.dup2(devnull.fileno(), stream.fileno())
            except OSError:  # io.StringIO has no file descriptor
                pass
        return False


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):  # help is stdout output, like any other
        _emit(text=self.format_help())

    def error(self, message):  # a usage error is a note, like any other
        _note(f"{self.format_usage()}{self.prog}: error: {message}")
        raise SystemExit(EXIT_INVALID)


def _positive_int(text: str) -> int:
    """``--jobs``, ``--budget``, ``--retries``: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"want an integer of at least 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="giideals",
        description="compute, check and enumerate the vertex-set families "
        "parametrising gauge-invariant ideals on finite models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a model document")
    p.set_defaults(handler=_cmd_validate)
    p.add_argument("model")

    p = sub.add_parser("compute", help="compute a canonical family")
    p.set_defaults(handler=_cmd_compute)
    p.add_argument("which", choices=["jf", "if"])
    p.add_argument("model")

    p = sub.add_parser("family", help="family operations")
    fam_sub = p.add_subparsers(dest="family_command", required=True)
    pc = fam_sub.add_parser("check", help="grade a family against a model")
    pc.set_defaults(handler=_cmd_family)
    pc.add_argument("model")
    pc.add_argument("family")
    pc.add_argument("--mode", choices=["t", "nt", "o", "rel"], required=True)
    pc.add_argument("--k", dest="k_family", help="lower-bound family for --mode rel")

    p = sub.add_parser("enumerate", help="enumerate families of a model")
    p.set_defaults(handler=_cmd_enumerate)
    p.add_argument("model")
    p.add_argument("--relative", help="lower-bound family file")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    p.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="the most worker processes a command may use; enumerate uses one",
    )

    p = sub.add_parser("lattice", help="build and export the family lattice")
    p.set_defaults(handler=_cmd_lattice)
    p.add_argument("model")
    p.add_argument("--dot", help="write DOT here")
    p.add_argument("--json", dest="json_path", help="write JSON here")
    p.add_argument("--relative", help="lower-bound family file")
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)

    p = sub.add_parser("crosscheck", help="run the verification harness")
    p.set_defaults(handler=_cmd_crosscheck)
    p.add_argument("model", nargs="?")
    p.add_argument("--corpus", help="corpus config JSON")
    p.add_argument("--jobs", type=_positive_int, default=1)

    p = sub.add_parser("random", help="generate a random model document")
    p.set_defaults(handler=_cmd_random)
    p.add_argument("--kind", choices=list(MODEL_KINDS), required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--max-mult", type=int, default=2,
        help="kgraph: largest entry of a drawn matrix, which derived models may "
        "exceed; dynsys: seeds the generator only",
    )
    p.add_argument("--strategy", choices=["derived", "rejection"], default="derived")
    p.add_argument("--retries", type=_positive_int, default=2000)

    return parser


def main(argv=None) -> int:
    try:
        return _main(argv)
    except _StdoutGone:
        return EXIT_BROKEN_PIPE


def _main(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # argparse's --help or a usage error
        return exc.code
    except InvalidInputError as exc:
        _note(f"error: {exc}")
        return EXIT_INVALID
    except BudgetExceededError as exc:
        _emit({"error": "budget-exceeded", "stats": exc.stats})
        _note(f"error: {exc}")
        return EXIT_BUDGET
    except InternalConsistencyError as exc:
        _note(f"internal consistency error (please report): {exc}")
        return EXIT_CHECK_FAILED


#: entry point under its interface name
run = main


def _cmd_validate(args) -> int:
    model = load_model_path(args.model)
    doc = {
        "valid": True,
        "kind": model.kind,
        "rank": model.rank,
        "vertices": len(model.vertex_names),
        "fingerprint": model_fingerprint(model),
    }
    if model.note:
        doc["note"] = model.note
    _emit(doc)
    return EXIT_OK


def _cmd_compute(args) -> int:
    model = load_model_path(args.model)
    fam = j_family(model) if args.which == "jf" else i_family(model)
    _emit(family_to_doc(model, fam))
    return EXIT_OK


def _cmd_family(args) -> int:
    from .families import is_nt_tuple, is_relative_o_family, is_t_family

    if args.mode == "rel" and not args.k_family:
        raise InvalidInputError("--mode rel requires --k <family file>")
    if args.mode != "rel" and args.k_family:
        raise InvalidInputError(f"--k applies only to --mode rel, not --mode {args.mode}")
    model = load_model_path(args.model)
    fam = family_from_path(model, args.family)
    if args.mode == "t":
        report = is_t_family(model, fam)
    elif args.mode == "nt":
        report = is_nt_tuple(model, fam)
    elif args.mode == "o":
        report = is_relative_o_family(model, fam, i_family(model))
    else:
        bound = family_from_path(model, args.k_family)
        report = is_relative_o_family(model, fam, bound)
    _emit(report.to_doc())
    return EXIT_OK if report.verdict else EXIT_CHECK_FAILED


def _run_enumeration(model, relative_path, budget, count_only=False):
    """The T-families, or those above the bound in ``relative_path``, or
    with ``count_only`` just their number, counted as the walk yields them;
    a budget exit reports only the budget."""
    from .families import enumerate_relative_o, enumerate_t_families, iter_t_families

    lower = family_from_path(model, relative_path) if relative_path else None
    try:
        if count_only:
            return sum(1 for _ in iter_t_families(model, lower, budget))
        if lower is None:
            return enumerate_t_families(model, budget)
        return enumerate_relative_o(model, lower, budget)
    except BudgetExceededError as exc:
        raise BudgetExceededError(str(exc), {"budget": budget}) from None


def _cmd_enumerate(args) -> int:
    model = load_model_path(args.model)
    if args.count_only:
        _emit(_run_enumeration(model, args.relative, args.budget, count_only=True))
    else:
        _emit(_run_enumeration(model, args.relative, args.budget).to_doc(model))
    return EXIT_OK


def _cmd_lattice(args) -> int:
    from .lattice import build_lattice, export_dot, export_json

    paths = [Path(path).resolve() for path in (args.dot, args.json_path) if path]
    if len(set(paths)) < len(paths):
        raise InvalidInputError("--dot and --json name the same file")
    inputs = {Path(path).resolve() for path in (args.model, args.relative) if path}
    if inputs & set(paths):
        raise InvalidInputError("--dot or --json names an input file")
    model = load_model_path(args.model)
    result = _run_enumeration(model, args.relative, args.budget)
    lat = build_lattice(model, result)
    outputs = [
        (path, export(lat))
        for path, export in ((args.dot, export_dot), (args.json_path, export_json))
        if path
    ]
    # an unwritable path is invalid input, and an exit-2 run writes nothing
    written = []
    try:
        for path, text in outputs:
            write_text(path, text)
            written.append(path)
    except InvalidInputError:
        for path in written:
            Path(path).unlink(missing_ok=True)
        raise
    for path in written:
        _note(f"wrote {path}")
    _emit(
        {
            "nodes": len(lat.nodes),
            "cover_edges": len(lat.cover_edges),
            "bottom": lat.bottom,
            "top": lat.top,
        }
    )
    return EXIT_OK


def _cmd_crosscheck(args) -> int:
    from .corpus import CorpusSpec, iter_corpus_models

    if bool(args.model) == bool(args.corpus):
        raise InvalidInputError("give a model file or --corpus, not both or neither")
    if args.model:
        spec = CorpusSpec()
        pairs = [(load_model_path(args.model), None)]
    else:
        spec = CorpusSpec.from_doc(read_json(args.corpus))
        pairs = iter_corpus_models(spec)

    # the results come in corpus order under any --jobs, so the first model
    # in corpus order to raise (a budget exit) is the one reported, and the
    # stable sort prints the reports of equal models in corpus order, each
    # model's in candidate order
    task = partial(_crosscheck_model, spec.candidate_ceiling, spec.candidate_samples)
    models = candidates = 0
    report_docs = []
    for docs, count in _map_in_order(task, pairs, args.jobs):
        models += 1
        candidates += count
        report_docs += docs
    report_docs.sort(key=lambda doc: (doc["fingerprint"], doc["claim"]))
    for doc in report_docs:
        _emit(doc)
    _note(
        f"crosscheck: {models} model(s), {candidates} candidate families, "
        f"{len(report_docs)} discrepancy report(s)"
    )
    return EXIT_OK if not report_docs else EXIT_CHECK_FAILED


#: a batch is sized to take a worker about ``_BATCH_S`` s, at most ``_BATCH_MAX`` items
_BATCH_S, _BATCH_MAX = 0.01, 128


def _map_in_order(task, items, jobs):
    """``map(task, items)`` on up to ``jobs`` worker processes, yielding in
    the order of ``items``.  Consecutive items go to a worker as one batch:
    one item until a batch has come back, then as many as the finished
    batches ran in ``_BATCH_S`` of worker time, so a quick task does not pay
    a round trip of its own.  At most ``4 * jobs`` batches are out at once,
    which bounds how far ahead items are drawn.  One job, or a single item,
    starts no pool.  A raising task raises here, in its batch's turn, and
    the batches not yet started are cancelled."""
    items = iter(items)
    window = list(itertools.islice(items, 4 * jobs)) if jobs > 1 else []
    if len(window) < 2:
        yield from map(task, itertools.chain(window, items))
        return
    from concurrent.futures import ProcessPoolExecutor  # slow to import

    run = partial(_run_batch, task)
    done, seconds = 0, 0.0  # items back, and the worker time they took
    with ProcessPoolExecutor(min(jobs, len(window))) as pool:
        futures = collections.deque(pool.submit(run, [item]) for item in window)
        try:
            while futures:
                results, elapsed = futures.popleft().result()
                done, seconds = done + len(results), seconds + elapsed
                size = int(done * _BATCH_S / seconds) if seconds else _BATCH_MAX
                if batch := list(itertools.islice(items, max(1, min(size, _BATCH_MAX)))):
                    futures.append(pool.submit(run, batch))
                yield from results
        finally:
            for future in futures:
                future.cancel()


def _run_batch(task, batch):
    """``task`` on each item of ``batch``, and the seconds that took."""
    start = time.perf_counter()
    return [task(item) for item in batch], time.perf_counter() - start


def _crosscheck_model(ceiling, samples, pair):
    """Sweep and property-check one ``(model, seed)`` pair; returns its
    report documents and the sweep's candidate count."""
    from .crossval import property_suite, theorem_a_sweep

    stats: dict = {}
    reports = theorem_a_sweep(
        [pair], candidate_ceiling=ceiling, candidate_samples=samples, stats=stats
    )
    reports += property_suite([pair])
    return [r.to_doc() for r in reports], stats.get("candidates", 0)


def _cmd_random(args) -> int:
    from .corpus import random_model

    model = random_model(
        args.kind,
        args.rank,
        args.vertices,
        args.seed,
        max_mult=args.max_mult,
        strategy=args.strategy,
        retries=args.retries,
    )
    _emit(model.to_doc())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
