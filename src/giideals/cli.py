"""Command-line front door.

Structured output is JSON on stdout; human-readable notes go to stderr, so
scripts can parse stdout without ambiguity.  Vertex names, never indices,
appear in all input and output documents.

Exit codes: 0 success or check passed; 1 check failed (witness JSON on
stdout) or discrepancies found; 2 invalid input; 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor

from .core import (
    BudgetExceededError,
    InternalConsistencyError,
    InvalidInputError,
    i_family,
    j_family,
)
from .crossval import (
    CorpusSpec,
    iter_corpus_models,
    property_suite,
    random_model,
    theorem_a_sweep,
)
from .families import (
    DEFAULT_BUDGET,
    enumeration_result,
    is_nt_tuple,
    is_relative_o_family,
    is_t_family,
    iter_t_families,
)
from .lattice import build_lattice, export_dot, export_json
from .modelio import (
    canonical_json,
    family_from_path,
    family_to_doc,
    load_model_path,
    model_fingerprint,
    read_json,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3


def _emit(doc) -> None:
    print(canonical_json(doc))


def _note(message: str) -> None:
    print(message, file=sys.stderr)


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
    parser = argparse.ArgumentParser(
        prog="giideals",
        description="compute, check and enumerate the vertex-set families "
        "parametrising gauge-invariant ideals on finite models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a model document")
    p.add_argument("model")

    p = sub.add_parser("compute", help="compute a canonical family")
    p.add_argument("which", choices=["jf", "if"])
    p.add_argument("model")

    p = sub.add_parser("family", help="family operations")
    fam_sub = p.add_subparsers(dest="family_command", required=True)
    pc = fam_sub.add_parser("check", help="grade a family against a model")
    pc.add_argument("model")
    pc.add_argument("family")
    pc.add_argument("--mode", choices=["t", "nt", "o", "rel"], required=True)
    pc.add_argument("--k", dest="k_family", help="lower-bound family for --mode rel")

    p = sub.add_parser("enumerate", help="enumerate families of a model")
    p.add_argument("model")
    p.add_argument("--relative", help="lower-bound family file")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    p.add_argument("--jobs", type=_positive_int, default=1)

    p = sub.add_parser("lattice", help="build and export the family lattice")
    p.add_argument("model")
    p.add_argument("--dot", help="write DOT here")
    p.add_argument("--json", dest="json_path", help="write JSON here")
    p.add_argument("--relative", help="lower-bound family file")
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)

    p = sub.add_parser("crosscheck", help="run the verification harness")
    p.add_argument("model", nargs="?")
    p.add_argument("--corpus", help="corpus config JSON")
    p.add_argument("--jobs", type=_positive_int, default=1)

    p = sub.add_parser("random", help="generate a random model document")
    p.add_argument("--kind", choices=["kgraph", "dynsys"], required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-mult", type=int, default=2)
    p.add_argument("--strategy", choices=["derived", "rejection"], default="derived")
    p.add_argument("--retries", type=_positive_int, default=2000)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INVALID
    try:
        return _dispatch(args)
    except InvalidInputError as exc:
        _note(f"error: {exc}")
        return EXIT_INVALID
    except BudgetExceededError as exc:
        _emit({"error": "budget-exceeded", "stats": exc.stats})
        _note(f"error: {exc}")
        return EXIT_BUDGET
    except InternalConsistencyError as exc:
        _note(f"internal consistency error (please report): {exc}")
        return EXIT_INVALID


#: entry point under its interface name
run = main


def _dispatch(args) -> int:
    handler = {
        "validate": _cmd_validate,
        "compute": _cmd_compute,
        "family": _cmd_family,
        "enumerate": _cmd_enumerate,
        "lattice": _cmd_lattice,
        "crosscheck": _cmd_crosscheck,
        "random": _cmd_random,
    }[args.command]
    return handler(args)


def _cmd_validate(args) -> int:
    model = load_model_path(args.model)
    doc = {
        "valid": True,
        "kind": model.to_doc()["kind"],
        "rank": model.rank,
        "vertices": len(model.vertex_names),
        "fingerprint": model_fingerprint(model),
    }
    if getattr(model, "note", None):
        doc["note"] = model.note
    _emit(doc)
    return EXIT_OK


def _cmd_compute(args) -> int:
    model = load_model_path(args.model)
    fam = j_family(model) if args.which == "jf" else i_family(model)
    _emit(family_to_doc(model, fam))
    return EXIT_OK


def _cmd_family(args) -> int:
    model = load_model_path(args.model)
    fam = family_from_path(model, args.family)
    if args.mode == "t":
        report = is_t_family(model, fam)
    elif args.mode == "nt":
        report = is_nt_tuple(model, fam)
    elif args.mode == "o":
        report = is_relative_o_family(model, fam, i_family(model))
    else:
        if not args.k_family:
            raise InvalidInputError("--mode rel requires --k <family file>")
        bound = family_from_path(model, args.k_family)
        report = is_relative_o_family(model, fam, bound)
    _emit(report.to_doc())
    return EXIT_OK if report.verdict else EXIT_CHECK_FAILED


def _run_enumeration(model, relative_path, budget, jobs):
    lower = family_from_path(model, relative_path) if relative_path else None
    shared = (model, lower, budget)
    tops = range(1 << model.vertex_count)
    if jobs > 1:
        fams, stats = _parallel(_enum_worker, shared, tops, jobs)
    else:
        fams, stats = _enum_worker(shared, tops)
    if stats["candidates"] > budget:
        raise BudgetExceededError("enumeration budget exceeded", {"budget": budget})
    return enumeration_result(model, fams, lower, stats)


def _cmd_enumerate(args) -> int:
    model = load_model_path(args.model)
    result = _run_enumeration(model, args.relative, args.budget, args.jobs)
    if args.count_only:
        print(result.count)
    else:
        _emit(result.to_doc(model))
    return EXIT_OK


def _cmd_lattice(args) -> int:
    model = load_model_path(args.model)
    result = _run_enumeration(model, args.relative, args.budget, 1)
    lat = build_lattice(model, result)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(export_dot(lat))
        _note(f"wrote {args.dot}")
    if args.json_path:
        with open(args.json_path, "w") as fh:
            fh.write(export_json(lat))
        _note(f"wrote {args.json_path}")
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
    if bool(args.model) == bool(args.corpus):
        raise InvalidInputError("give a model file or --corpus, not both or neither")
    if args.model:
        spec = CorpusSpec()
        pairs = [(load_model_path(args.model), None)]
    else:
        spec = CorpusSpec.from_doc(read_json(args.corpus))
        pairs = list(iter_corpus_models(spec))

    limits = (spec.candidate_ceiling, spec.candidate_samples)
    if args.jobs > 1 and len(pairs) > 1:
        report_docs, stats = _parallel(_crosscheck_worker, limits, pairs, args.jobs)
    else:
        report_docs, stats = _crosscheck_worker(limits, pairs)

    report_docs.sort(key=lambda d: (d["fingerprint"], d["claim"]))
    for doc in report_docs:
        _emit(doc)
    _note(
        f"crosscheck: {stats['models']} model(s), "
        f"{stats['candidates']} candidate families, "
        f"{len(report_docs)} discrepancy report(s)"
    )
    return EXIT_OK if not report_docs else EXIT_CHECK_FAILED


def _crosscheck_worker(limits, pairs):
    """Sweep and property-check ``(model, seed)`` pairs; returns the report
    documents and the sweep's ``models``/``candidates`` counters."""
    ceiling, samples = limits
    stats: dict = {}
    reports = theorem_a_sweep(
        pairs, candidate_ceiling=ceiling, candidate_samples=samples, stats=stats
    )
    reports += property_suite(pairs)
    return [r.to_doc() for r in reports], stats


def _cmd_random(args) -> int:
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


# ---------------------------------------------------------------------------
# the parallel path
#
# ``crosscheck --corpus`` strides its models over the workers and
# ``enumerate`` strides the entries at the full direction set (a lazy
# ``range`` slice each); ``--jobs 1`` runs the same worker in-process.
# Workers receive the models themselves, so each pickle holds only input
# data.  Each command re-sorts the merged results canonically, so output
# does not depend on the schedule.  The enumeration budget is checked once,
# on the summed candidate count, which equals the serial count; the budget
# exit reports only the budget, since partial counters depend on the schedule.


def _parallel(worker, shared, items, jobs):
    """Run ``worker(shared, items[w::jobs])`` for each worker ``w`` in a
    process pool; concatenate the lists the workers return and sum their
    counters."""
    chunks = [chunk for chunk in (items[w::jobs] for w in range(jobs)) if chunk]
    out: list = []
    stats: dict = {}
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        for part, part_stats in pool.map(worker, [shared] * len(chunks), chunks):
            out.extend(part)
            for key, value in part_stats.items():
                stats[key] = stats.get(key, 0) + value
    return out, stats


def _enum_worker(shared, tops):
    """The families whose full-direction entry is in ``tops``, and the
    counters; past the budget none, so the check on the sum fails."""
    model, lower, budget = shared
    stats: dict = {}
    try:
        return list(iter_t_families(model, lower, budget, tops, stats)), stats
    except BudgetExceededError:
        return [], stats


if __name__ == "__main__":
    sys.exit(main())
