"""Verification harness: sweeps, the rank-1 pair oracle, random models."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from giideals import (
    BudgetExceededError,
    CorpusSpec,
    InvalidInputError,
    enumerate_t_families,
    is_nt_tuple,
    is_t_family,
    iter_corpus_models,
    jf_of,
    katsura_oracle,
    property_suite,
    random_model,
    theorem_a_sweep,
)
from giideals.crossval import (
    EXHAUSTIVE_LEGS,
    SweepTables,
    _biased_candidates,
    builtin_random_models,
    sweep_model,
)
from giideals.modelio import canonical_json
from giideals import fixtures

from helpers import small_models


# ---------------------------------------------------------------------------
# the fast tables must agree with the public checkers


def test_sweep_tables_match_public_checkers_exhaustively():
    for model in fixtures.all_models():
        tables = SweepTables(model)
        size = 1 << model.vertex_count
        for fam in itertools.product(range(size), repeat=1 << model.rank):
            assert tables.t_verdict(fam) == is_t_family(model, fam).verdict
            assert tables.nt_verdict(fam) == is_nt_tuple(model, fam).verdict


@settings(max_examples=15)
@given(small_models(max_rank=2, max_vertices=3), st.data())
def test_sweep_tables_match_public_checkers_sampled(model, data):
    tables = SweepTables(model)
    nmasks = 1 << model.rank
    for _ in range(30):
        fam = tuple(
            data.draw(st.integers(0, model.full)) for _ in range(nmasks)
        )
        assert tables.t_verdict(fam) == is_t_family(model, fam).verdict
        assert tables.nt_verdict(fam) == is_nt_tuple(model, fam).verdict


def test_sweep_tables_match_public_checkers_at_rank_3():
    # the NT verdict tests its conditions in its own order; every exit of
    # is_nt_tuple, including acceptance, must be reached and agree
    exits = set()
    for kind in ("kgraph", "dynsys"):
        for seed in range(3):
            model = random_model(kind, 3, 3, seed)
            tables = SweepTables(model)
            for fam in _biased_candidates(random.Random(seed), 3, 3, 2000):
                nt = is_nt_tuple(model, fam)
                exits.add(nt.violated_condition)
                assert tables.t_verdict(fam) == is_t_family(model, fam).verdict
                assert tables.nt_verdict(fam) == nt.verdict
    assert exits == {
        "condition_i", "invariance", "partial_order", "nt_condition_iv", None
    }


# ---------------------------------------------------------------------------
# theorem sweep


def test_sweep_clean_on_fixtures():
    stats = {}
    reports = theorem_a_sweep(models=fixtures.all_models(), stats=stats)
    assert reports == []
    assert stats["models"] == 6


def test_relative_checks_agree_exhaustively_on_fixtures():
    # the relative verdicts through the public checkers, not the sweep tables
    from giideals import i_family, is_relative_o_family

    for model in fixtures.all_models():
        bound = i_family(model)
        size = 1 << model.vertex_count
        for fam in itertools.product(range(size), repeat=1 << model.rank):
            expected = (
                is_nt_tuple(model, fam).verdict
                and all(k & ~s == 0 for k, s in zip(bound, fam))
            )
            assert is_relative_o_family(model, fam, bound).verdict == expected


def test_sweep_self_test_detects_injected_fault():
    # corrupting a verdict must surface as a discrepancy; the relative claim
    # trips only for a family above the canonical bound: the top family, not
    # the all-empty one (absorb2's canonical family is not empty)
    from giideals import i_family

    model = fixtures.absorb2()
    bottom, top = (0,) * 4, (model.full,) * 4
    assert any(i_family(model))

    def corrupted_t(mdl, fam):
        verdict = is_t_family(mdl, fam).verdict
        return not verdict if tuple(fam) in (bottom, top) else verdict

    reports = theorem_a_sweep([model], t_check=corrupted_t)
    got = [(r.claim, r.datum["family"]) for r in reports]
    empty = {"": [], "1": [], "2": [], "1,2": []}
    full = {key: ["p", "q"] for key in empty}
    assert got == [
        ("nt_matches_t", empty),
        ("nt_matches_t", full),
        ("no_matches_o", full),
    ]
    assert all(r.datum["t_verdict"] is False for r in reports)
    assert all(r.fingerprint for r in reports)


def test_sweep_sampled_mode_is_deterministic():
    model = random_model("dynsys", 3, 4, seed=5)
    stats1, stats2 = {}, {}
    m1 = sweep_model(model, candidate_ceiling=100, candidate_samples=500,
                     rng_seed=9, stats=stats1)
    m2 = sweep_model(model, candidate_ceiling=100, candidate_samples=500,
                     rng_seed=9, stats=stats2)
    assert m1 == m2
    assert stats1 == stats2 == {"mode": "sampled", "candidates": 500}


def _biased_candidates_by_randrange(rng, n, k, count):
    # reference sampler: every draw through rng.randrange
    size = 1 << n
    nmasks = 1 << k
    for j in range(count):
        if j & 1:
            yield tuple(rng.randrange(size) for _ in range(nmasks))
            continue
        fam = [0] * nmasks
        for m in sorted(range(nmasks), key=lambda m: (m.bit_count(), m)):
            below = 0
            for i in range(k):
                if m >> i & 1:
                    below |= fam[m & ~(1 << i)]
            fam[m] = below | (rng.randrange(size) & rng.randrange(size))
        yield tuple(fam)


@pytest.mark.parametrize("seed", [0, 9, 20240501])
def test_sampler_draws_the_randrange_stream(seed):
    # replayable reports depend on the sampled stream staying the same
    for n in range(1, 6):
        for k in range(1, 4):
            got_rng, ref_rng = random.Random(seed), random.Random(seed)
            got = list(_biased_candidates(got_rng, n, k, 200))
            assert got == list(_biased_candidates_by_randrange(ref_rng, n, k, 200))
            assert got_rng.getstate() == ref_rng.getstate()


def test_models_beyond_the_table_limit_are_a_budget_exit():
    # the model is valid; only the subset tables do not fit
    model = random_model("dynsys", 1, 18, seed=1)
    for run in (sweep_model, lambda m: property_suite(models=[m])):
        with pytest.raises(BudgetExceededError) as info:
            run(model)
        assert info.value.stats == {"vertices": 18, "table_limit": 16}


# ---------------------------------------------------------------------------
# rank-1 pair oracle


def test_katsura_counts_pinned():
    assert katsura_oracle(fixtures.funnel1()).count == 6
    assert katsura_oracle(fixtures.loop1()).count == 3


def test_katsura_rejects_higher_rank():
    with pytest.raises(InvalidInputError):
        katsura_oracle(fixtures.funnel2())


def test_katsura_pair_rule_sanity():
    # the pair (empty, V) is accepted exactly when V sits inside the division
    # ideal of the empty set
    for model in (fixtures.funnel1(), fixtures.loop1()):
        fams = set(katsura_oracle(model).families)
        expected = jf_of(model, 0, 1) == model.full
        assert ((0, model.full) in fams) == expected


def test_katsura_equals_enumeration_on_fixtures_and_samples():
    models = [fixtures.funnel1(), fixtures.loop1()]
    models += [random_model("kgraph", 1, v, seed) for v in (2, 3, 4) for seed in (1, 2)]
    models += [random_model("dynsys", 1, v, seed) for v in (2, 3, 4) for seed in (3, 4)]
    models += [m for m, _ in builtin_random_models(count=80) if m.rank == 1]
    assert any(m.rank == 1 for m in models)
    for model in models:
        assert katsura_oracle(model).families == enumerate_t_families(model).families


def test_katsura_equals_enumeration_without_phi_tables():
    # above 12 vertices the enumerator computes phi per lookup instead of
    # reading the phi tables
    model = random_model("dynsys", 1, 13, seed=4)
    result = enumerate_t_families(model)
    assert result.count == 8192
    assert result.families == katsura_oracle(model).families


# ---------------------------------------------------------------------------
# property suite


def test_annihilator_absorption_instance_on_shift2():
    # one concrete absorption instance: one inverse-image step of the empty
    # entry meets the single-direction entry trivially
    from giideals import j_family

    model = fixtures.shift2()
    jf = j_family(model)
    step = model.phi(1, jf[0])
    assert step == model.set_of_names(["v2"])
    assert step & jf[0b01] == 0
    assert step & jf[0b01] & ~jf[0] == 0


def test_property_suite_clean_on_fixtures():
    stats = {}
    reports = property_suite(models=fixtures.all_models(), stats=stats)
    assert reports == []
    assert stats["families"] >= 3 + 6 + 6 + 6 + 12


def test_property_suite_clean_on_random_sample():
    models = builtin_random_models(count=20)
    assert property_suite(models=models) == []


# ---------------------------------------------------------------------------
# random models and corpora


def test_random_model_deterministic():
    a = random_model("kgraph", 2, 4, seed=42)
    b = random_model("kgraph", 2, 4, seed=42)
    assert canonical_json(a.to_doc()) == canonical_json(b.to_doc())
    c = random_model("kgraph", 2, 4, seed=43)
    assert canonical_json(c.to_doc()) != canonical_json(a.to_doc())


def test_random_models_pass_validation():
    # constructors run full validation; surviving construction is the check
    for seed in range(6):
        random_model("kgraph", 3, 4, seed=seed)
        random_model("dynsys", 3, 4, seed=seed)
        random_model("kgraph", 2, 3, seed=seed, strategy="rejection")
        random_model("dynsys", 2, 3, seed=seed, strategy="rejection")


def test_random_model_rejection_budget_zero():
    with pytest.raises(BudgetExceededError) as err:
        random_model("dynsys", 2, 3, seed=0, strategy="rejection", retries=0)
    assert err.value.stats == {"retries": 0}


def test_random_model_rejects_bad_arguments():
    with pytest.raises(InvalidInputError):
        random_model("frob", 1, 1, seed=0)
    with pytest.raises(InvalidInputError):
        random_model("kgraph", 0, 1, seed=0)
    with pytest.raises(InvalidInputError):
        random_model("kgraph", 1, 1, seed=0, strategy="maybe")


def test_corpus_spec_validation():
    with pytest.raises(InvalidInputError):
        CorpusSpec(kinds=("nope",))
    with pytest.raises(InvalidInputError):
        CorpusSpec(rank_min=2, rank_max=1)
    with pytest.raises(InvalidInputError):
        CorpusSpec(sample_count=0)
    spec = CorpusSpec.from_doc({"kinds": ["dynsys"], "sample_count": 3})
    assert spec.kinds == ("dynsys",)
    with pytest.raises(InvalidInputError):
        CorpusSpec.from_doc({"bogus": 1})


def test_corpus_spec_rejects_repeated_kinds():
    with pytest.raises(InvalidInputError, match="kinds repeat"):
        CorpusSpec(kinds=("dynsys", "dynsys"))
    with pytest.raises(InvalidInputError, match="kinds repeat"):
        CorpusSpec.from_doc({"kinds": ["kgraph", "dynsys", "kgraph"]})


def test_exhaustive_corpus_counts():
    spec = CorpusSpec(
        kinds=("dynsys",), rank_min=2, rank_max=2,
        vertices_min=1, vertices_max=3, exhaustive=True,
    )
    assert len(list(iter_corpus_models(spec))) == 685
    spec = CorpusSpec(
        kinds=("kgraph",), rank_min=2, rank_max=2,
        vertices_min=1, vertices_max=2, max_mult=2, exhaustive=True,
    )
    assert len(list(iter_corpus_models(spec))) == 752


def test_exhaustive_corpus_ceiling():
    spec = CorpusSpec(
        kinds=("kgraph",), rank_min=2, rank_max=2,
        vertices_min=3, vertices_max=3, max_mult=2,
        exhaustive=True, model_ceiling=1000,
    )
    with pytest.raises(BudgetExceededError):
        list(iter_corpus_models(spec))


def test_sampled_corpus_deterministic():
    spec = CorpusSpec(sample_count=5, seed=11, rank_max=2, vertices_max=3)
    docs1 = [canonical_json(m.to_doc()) for m, _ in iter_corpus_models(spec)]
    docs2 = [canonical_json(m.to_doc()) for m, _ in iter_corpus_models(spec)]
    assert docs1 == docs2
    assert len(docs1) == 5


def test_sweep_on_sampled_corpus_is_clean():
    spec = CorpusSpec(sample_count=8, seed=23, rank_max=2, vertices_max=3)
    assert theorem_a_sweep(
        iter_corpus_models(spec),
        candidate_ceiling=spec.candidate_ceiling,
        candidate_samples=spec.candidate_samples,
    ) == []


#: sha256 of each exhaustive leg's model documents, one canonical JSON line
#: per model in corpus order, as first recorded; any reorder or change of a
#: model, or of the commutation filter, changes the digest.
EXHAUSTIVE_LEG_DIGESTS = {
    "all commuting partial-map pairs on <= 3 points":
        (685, "1ef0c1f083c41275078f181ff0c05baa72558b656f4bb132bc3180af99f91e3f"),
    "all commuting matrix pairs (entries <= 2) on <= 2 vertices":
        (752, "d54a62eca14c3ff3c6f380d7709ca6aba4d3455e9e0a3595ecb1ca83562dab88"),
}


def test_exhaustive_legs_keep_their_order_and_documents():
    got = {}
    for name, spec in EXHAUSTIVE_LEGS:
        digest = hashlib.sha256()
        count = 0
        for model, seed in iter_corpus_models(spec):
            assert seed is None
            digest.update(canonical_json(model.to_doc()).encode() + b"\n")
            count += 1
        got[name] = (count, digest.hexdigest())
    assert got == EXHAUSTIVE_LEG_DIGESTS
