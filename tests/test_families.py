"""Family checks, enumeration, and the meet/join operations."""

import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given
import hypothesis.strategies as st

from giideals import (
    BudgetExceededError,
    InvalidInputError,
    enumerate_relative_o,
    enumerate_t_families,
    i_family,
    is_invariant,
    is_nt_tuple,
    is_partially_ordered,
    is_relative_o_family,
    is_t_family,
    j_family,
    join,
    meet,
)
from giideals.families import VIOLATIONS, family_sort_key, iter_t_families, t_closure
from giideals import fixtures, oracles
from giideals.corpus import random_model
from giideals.kgraph import KGraphSkeleton

from helpers import corpus_models, small_models


def all_empty(model):
    return (0,) * (1 << model.rank)


def all_full(model):
    return (model.full,) * (1 << model.rank)


# ---------------------------------------------------------------------------
# is_invariant / is_partially_ordered


def test_violated_conditions_come_from_the_documented_enum():
    model = fixtures.absorb2()
    nested = fixtures.absorb2_nested_family(model)
    seen = {
        is_invariant(fixtures.shift2(), j_family(fixtures.shift2())).violated_condition,
        is_partially_ordered(fixtures.loop1(), (1, 0)).violated_condition,
        is_t_family(model, nested).violated_condition,
        is_nt_tuple(model, nested).violated_condition,
        is_relative_o_family(
            fixtures.loop1(), (0, fixtures.loop1().full), all_full(fixtures.loop1())
        ).violated_condition,
    }
    assert seen <= set(VIOLATIONS)
    assert None not in seen


def test_invariant_shift2_annihilator_family_witness():
    model = fixtures.shift2()
    report = is_invariant(model, j_family(model))
    assert not report.verdict
    assert report.violated_condition == "invariance"
    assert report.witness == {"F": "1", "i": 2, "vertex": "v1"}


def test_invariant_trivial_and_canonical():
    for model in fixtures.all_models():
        assert is_invariant(model, all_empty(model)).verdict
        assert is_invariant(model, i_family(model)).verdict


def test_partially_ordered_examples():
    model = fixtures.absorb2()
    assert is_partially_ordered(model, i_family(model)).verdict

    loop = fixtures.loop1()
    report = is_partially_ordered(loop, (loop.full, 0))
    assert not report.verdict
    assert report.violated_condition == "partial_order"
    assert report.witness["F1"] == "" and report.witness["F2"] == "1"

    assert is_partially_ordered(model, all_full(model)).verdict


def test_partially_ordered_witness_names_vertices():
    report = is_partially_ordered(fixtures.funnel1(), (0b11, 0b10))
    assert not report.verdict
    assert report.witness == {"F1": "", "F2": "1", "vertices": ["u"]}


def test_partially_ordered_rejects_malformed_families():
    # too few entries for rank 2, and a vertex index the model lacks
    with pytest.raises(InvalidInputError):
        is_partially_ordered(fixtures.absorb2(), (0, 1))
    with pytest.raises(InvalidInputError):
        is_partially_ordered(fixtures.loop1(), (4, 0))


# ---------------------------------------------------------------------------
# is_t_family / is_nt_tuple


def test_t_family_extremes():
    for model in fixtures.all_models():
        assert is_t_family(model, all_empty(model)).verdict
        assert is_t_family(model, all_full(model)).verdict


def test_t_family_absorb2_nested_family_witness():
    model = fixtures.absorb2()
    report = is_t_family(model, fixtures.absorb2_nested_family(model))
    assert not report.verdict
    assert report.violated_condition == "t_equation"
    assert report.witness["F"] == "1" and report.witness["i"] == 2
    assert report.witness["difference"] == ["p"]


def test_nt_tuple_extremes_and_counterexample():
    for model in fixtures.all_models():
        assert is_nt_tuple(model, all_empty(model)).verdict
    model = fixtures.absorb2()
    report = is_nt_tuple(model, fixtures.absorb2_nested_family(model))
    assert not report.verdict
    assert report.violated_condition == "nt_condition_iv"
    assert report.conditions == {
        "i": "pass",
        "ii": "pass",
        "iii": "pass",
        "iv": "fail",
    }


def test_nt_tuple_marks_later_conditions_not_evaluated():
    model = fixtures.shift2()
    report = is_nt_tuple(model, j_family(model))
    assert not report.verdict
    assert report.violated_condition == "invariance"
    assert report.conditions["ii"] == "fail"
    assert report.conditions["iii"] == "not evaluated"
    assert report.conditions["iv"] == "not evaluated"


def test_canonical_family_is_nt_tuple_everywhere():
    for model in fixtures.all_models():
        assert is_nt_tuple(model, i_family(model)).verdict
        assert is_t_family(model, i_family(model)).verdict


# ---------------------------------------------------------------------------
# is_relative_o_family


def test_relative_o_examples():
    model = fixtures.absorb2()
    bound = i_family(model)
    assert is_relative_o_family(model, all_full(model), bound).verdict

    nested = fixtures.absorb2_nested_family(model)
    report = is_relative_o_family(model, nested, all_empty(model))
    assert not report.verdict
    assert report.violated_condition == "t_equation"

    assert is_relative_o_family(model, bound, bound).verdict


def test_relative_o_containment_witness():
    model = fixtures.loop1()
    # (empty, full) is a valid family but misses the lower bound (full, full)
    report = is_relative_o_family(model, (0, model.full), all_full(model))
    assert not report.verdict
    assert report.violated_condition == "containment"
    assert report.witness == {"F": "", "vertices": ["v"]}


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_above_a_bound_that_is_not_a_family():
    for model in fixtures.all_models():
        bound = j_family(model)
        above = [
            fam
            for fam in enumerate_t_families(model).families
            if all(k & ~s == 0 for k, s in zip(bound, fam))
        ]
        assert enumerate_relative_o(model, bound).families == tuple(above)
    # shift2's J-family is not a fixed-point family: at one entry the bound
    # escapes every viable candidate, and the search stops there instead of
    # spending a 13th candidate
    model = fixtures.shift2()
    assert not is_t_family(model, j_family(model)).verdict
    assert enumerate_relative_o(model, j_family(model)).stats["candidates"] == 12


def test_enumeration_counts_pinned():
    assert enumerate_t_families(fixtures.loops2()).count == 6
    assert enumerate_t_families(fixtures.funnel1()).count == 6
    assert enumerate_t_families(fixtures.loop1()).count == 3


def test_enumeration_matches_brute_filter_on_fixtures():
    for model in fixtures.all_models():
        assert (
            enumerate_t_families(model).families
            == oracles.t_families_by_filter(model)
        )


def test_enumeration_canonical_order_and_unique():
    for model in fixtures.all_models():
        result = enumerate_t_families(model)
        keys = list(map(family_sort_key(model), result.families))
        assert keys == sorted(keys)
        assert len(set(result.families)) == result.count


def test_relative_enumeration():
    loops2 = fixtures.loops2()
    assert enumerate_relative_o(loops2, all_full(loops2)).count == 1
    assert enumerate_relative_o(loops2, all_empty(loops2)).count == 6

    loop = fixtures.loop1()
    rel = enumerate_relative_o(loop, i_family(loop))
    # pinned by brute force: of the three families, two contain the bound
    brute = [
        fam
        for fam in oracles.t_families_by_filter(loop)
        if all(k & ~s == 0 for k, s in zip(i_family(loop), fam))
    ]
    assert rel.count == len(brute) == 2
    assert rel.families == tuple(brute)
    assert rel.mode == "O"
    assert enumerate_relative_o(loop, all_empty(loop)).mode == "relative_O"


def test_relative_enumeration_respects_bound():
    model = fixtures.absorb2()
    bound = i_family(model)
    for fam in enumerate_relative_o(model, bound).families:
        assert all(k & ~s == 0 for k, s in zip(bound, fam))
        assert is_t_family(model, fam).verdict


def test_enumeration_budget_error_carries_stats():
    with pytest.raises(BudgetExceededError) as err:
        enumerate_t_families(fixtures.funnel2(), budget=3)
    assert err.value.stats["budget"] == 3
    assert err.value.stats["candidates"] > 3


def test_iter_t_families_lazy_cap():
    model = fixtures.loops2()
    first = list(itertools.islice(iter_t_families(model), 2))
    assert len(first) == 2
    for fam in first:
        assert is_t_family(model, fam).verdict


def test_stats_are_current_between_yields():
    """A caller reading ``stats`` between yields sees the counters so far:
    ``found`` is the number of families yielded, and ``candidates`` is the
    least budget that reaches that family.  When the walk ends, both
    counters equal the recorded golden file's."""
    golden = Path(__file__).resolve().parent / "golden" / "enumeration_counters.jsonl"
    recorded = {
        rec["model"]: rec for rec in map(json.loads, golden.read_text().splitlines())
    }
    for name in ("shift2", "absorb2", "loops2", "funnel2"):
        model = getattr(fixtures, name)()
        for mode, lower in (("T", None), ("relative", i_family(model))):
            stats: dict = {}
            for k, _ in enumerate(iter_t_families(model, lower, stats=stats), 1):
                assert stats["found"] == k
                short = iter_t_families(model, lower, budget=stats["candidates"] - 1)
                with pytest.raises(BudgetExceededError):
                    list(itertools.islice(short, k))
            expected = recorded[f"fixture:{name}"][mode]
            assert stats == {
                "candidates": expected["candidates"], "found": expected["found"]
            }


def test_canonical_family_is_minimum_of_relative_enumeration():
    for model in fixtures.all_models():
        bound = i_family(model)
        rel = enumerate_relative_o(model, bound)
        assert bound in set(rel.families)
        for fam in rel.families:
            assert all(k & ~s == 0 for k, s in zip(bound, fam))


# ---------------------------------------------------------------------------
# meet / join


def test_meet_and_join_extremes():
    model = fixtures.funnel1()
    fams = enumerate_t_families(model).families
    bottom = all_empty(model)
    for fam in fams:
        assert meet(model, bottom, fam) == bottom
        assert join(model, bottom, fam) == fam


def test_meet_join_on_incomparable_pair():
    model = fixtures.loops2()
    fams = enumerate_t_families(model).families
    # the two single-step monotone families (0, V at one middle mask)
    v = model.full
    a = (0, v, 0, v)
    b = (0, 0, v, v)
    assert a in fams and b in fams
    assert meet(model, a, b) == (0, 0, 0, v)
    assert join(model, a, b) == (0, v, v, v)


def test_meet_of_enumerated_pairs_is_t_family():
    for model in (fixtures.funnel2(), fixtures.absorb2()):
        fams = enumerate_t_families(model).families
        for a, b in itertools.combinations(fams, 2):
            assert is_t_family(model, meet(model, a, b)).verdict


def test_meet_join_validate_inputs():
    model = fixtures.loop1()
    bad = (model.full, 0)  # not monotone, fails the equations
    with pytest.raises(InvalidInputError):
        meet(model, bad, bad)
    with pytest.raises(InvalidInputError):
        join(model, bad, bad)
    with pytest.raises(InvalidInputError):
        meet(model, (0,), (0, 0))


@given(small_models(max_rank=2, max_vertices=3), st.data())
def test_meet_of_valid_families_is_valid_sampled(model, data):
    fams = enumerate_t_families(model).families
    a = data.draw(st.sampled_from(fams))
    b = data.draw(st.sampled_from(fams))
    got = meet(model, a, b)
    assert got in set(fams)


def test_join_matches_upper_bound_oracle_on_fixtures():
    for model in (
        fixtures.loops2(), fixtures.funnel1(), fixtures.funnel2(), fixtures.absorb2()
    ):
        fams = enumerate_t_families(model).families
        for a, b in itertools.product(fams, repeat=2):
            assert join(model, a, b) == oracles.join_by_upper_bounds(model, a, b)


@given(small_models(max_rank=2, max_vertices=3), st.data())
def test_join_matches_upper_bound_oracle_sampled(model, data):
    fams = enumerate_t_families(model).families
    a = data.draw(st.sampled_from(fams))
    b = data.draw(st.sampled_from(fams))
    assert join(model, a, b) == oracles.join_by_upper_bounds(model, a, b)


def test_relative_families_match_hereditary_saturated_sets():
    # Raeburn-Sims-Yeend, Thm 5.2: on a locally convex model the families
    # above the I-family are in bijection, by their empty-set entry, with
    # the hereditary saturated vertex sets
    models = corpus_models()
    for s in range(600):
        r = random.Random(s)
        models.append(random_model("dynsys", r.randint(2, 3), r.randint(3, 5), s))
    assert len(models) == 2_243
    convex = failing = 0
    for model in models:
        fams = enumerate_relative_o(model, i_family(model)).families
        matches = sorted(f[0] for f in fams) == oracles.hereditary_saturated_sets(model)
        if oracles.is_locally_convex(model):
            assert matches
            convex += 1
        else:
            failing += not matches
    # the theorem needs local convexity: 370 of the 507 other models fail it
    assert (convex, failing) == (1_736, 370)


@given(small_models(max_rank=2, max_vertices=3), st.data())
def test_t_closure_is_least_family_above_arbitrary_input(model, data):
    nmasks = 1 << model.rank
    fam = tuple(data.draw(st.integers(0, model.full)) for _ in range(nmasks))
    closed = t_closure(model, fam)
    assert closed == oracles.join_by_upper_bounds(model, fam, fam)
    assert is_t_family(model, closed).verdict
    assert t_closure(model, closed) == closed


def four_cycles():
    """16 vertices in four directed 4-cycles, each cycle with an edge into
    the next: 69,905 families, enumerated in about a second."""
    adj = [[0] * 16 for _ in range(16)]
    for c in range(0, 16, 4):
        for k in range(4):
            adj[c + k][c + (k + 1) % 4] = 1
        if c < 12:
            adj[c][c + 4] = 1
    return KGraphSkeleton(tuple(f"v{i}" for i in range(16)), (adj,))


@pytest.mark.parametrize(
    "make",
    [four_cycles, lambda: random_model("dynsys", 2, 16, seed=0)],
    ids=["four-cycles", "dynsys-2-16"],
)
def test_public_closure_builds_no_tables(make):
    # join and t_closure read phi through rows that compute it, so on a
    # fresh 16-vertex model they build none of its 2**16-entry tables
    model = make()
    r = random.Random(3)
    x, y = (
        [1 << r.randrange(16) if r.random() < 0.5 else 0 for _ in range(1 << model.rank)]
        for _ in "xy"
    )
    a, b = t_closure(model, x), t_closure(model, y)
    got = join(model, a, b)
    assert a != got != b
    assert got == t_closure(model, [p | q for p, q in zip(x, y)])
    assert t_closure(model, got) == got
    assert model._phi_tables == {}
    if model.rank == 1:
        # the oracle enumerates a fresh twin of the model
        assert got == oracles.join_by_upper_bounds(make(), x, y)


@given(small_models(max_rank=2, max_vertices=2))
def test_enumeration_matches_brute_filter_sampled(model):
    assert enumerate_t_families(model).families == oracles.t_families_by_filter(model)


@given(small_models(max_rank=2, max_vertices=3), st.data())
def test_two_checks_agree_on_sampled_families(model, data):
    # the two characterisations select the same families, at the unit level
    nmasks = 1 << model.rank
    for _ in range(20):
        fam = tuple(data.draw(st.integers(0, model.full)) for _ in range(nmasks))
        assert is_t_family(model, fam).verdict == is_nt_tuple(model, fam).verdict
