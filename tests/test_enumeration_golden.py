"""The enumerator's exact counters, pinned against a recorded file.

For each model (the fixtures, the first 40 random-leg models and every
50th exhaustive-leg model) and each of the T and the relative-above-
``i_family`` enumerations, the file records the count, a digest of the
families in the order ``iter_t_families`` yields them and in canonical
order, the ``candidates`` and ``found`` counters, and the budget boundary
at the exact candidate count ``c``: budget ``c - 1`` raises with the
recorded ``stats``, and budget ``c`` does not.

Re-record only for a change meant to move these numbers:

    PYTHONPATH=src python tests/test_enumeration_golden.py
"""

import hashlib
import json
from pathlib import Path

from giideals import fixtures
from giideals.core import BudgetExceededError, i_family
from giideals.corpus import EXHAUSTIVE_LEGS, builtin_random_models, iter_corpus_models
from giideals.families import enumeration_result, iter_t_families

FIXTURES = ("shift2", "absorb2", "loop1", "loops2", "funnel1", "funnel2")
GOLDEN = Path(__file__).resolve().parent / "golden" / "enumeration_counters.jsonl"


def golden_models():
    """``(key, model)`` pairs, in the file's order."""
    for name in FIXTURES:
        yield f"fixture:{name}", getattr(fixtures, name)()
    for idx, (model, _) in enumerate(builtin_random_models(40)):
        yield f"random:{idx}", model
    for leg, (_, spec) in enumerate(EXHAUSTIVE_LEGS):
        for idx, (model, _) in enumerate(iter_corpus_models(spec)):
            if idx % 50 == 0:
                yield f"exhaustive{leg}:{idx}", model


def _run(model, lower, **kwargs):
    """The families in yield order and the final ``stats``."""
    stats: dict = {}
    fams = list(iter_t_families(model, lower=lower, stats=stats, **kwargs))
    return fams, stats


def _digest(fams) -> str:
    text = "\n".join(" ".join(map(str, fam)) for fam in fams)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def counters(model, lower) -> dict:
    fams, stats = _run(model, lower)
    c = stats["candidates"]
    doc = {
        "count": len(fams),
        "digest": _digest(fams),
        "canonical_digest": _digest(enumeration_result(model, fams).families),
        "candidates": c,
        "found": stats["found"],
    }
    if c > 1:
        try:
            _run(model, lower, budget=c - 1)
        except BudgetExceededError as err:
            doc["over_budget_stats"] = err.stats
    _, at_budget = _run(model, lower, budget=c)
    doc["at_budget_candidates"] = at_budget["candidates"]
    return doc


def records():
    for key, model in golden_models():
        yield {
            "model": key,
            "T": counters(model, None),
            "relative": counters(model, i_family(model)),
        }


def test_enumeration_counters_match_the_recorded_file():
    recorded = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    assert [rec["model"] for rec in recorded] == [key for key, _ in golden_models()]
    for expected, rec in zip(recorded, records()):
        assert rec == expected
        for mode in ("T", "relative"):
            c = rec[mode]["candidates"]
            assert rec[mode]["at_budget_candidates"] == c
            if c > 1:
                assert rec[mode]["over_budget_stats"]["budget"] == c - 1


if __name__ == "__main__":
    lines = (json.dumps(rec, sort_keys=True) + "\n" for rec in records())
    GOLDEN.write_text("".join(lines))
