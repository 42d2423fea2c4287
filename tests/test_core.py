"""Operator calculus: frozen examples and lattice-theoretic invariants.

Expected values marked by hand derivation below were recomputed with the
independent oracles (tests at the bottom re-derive them); the literals are
frozen so regressions surface as value diffs, not just oracle disagreements.
"""

import pytest
from hypothesis import given
import hypothesis.strategies as st

from giideals import (
    InvalidInputError,
    i_family,
    inv_set,
    j_family,
    jf_of,
    ker_phi,
    largest_perp_invariant,
    lim_set,
    phi_n,
    xf_inverse,
)
from giideals import fixtures, oracles
from giideals.core import (
    canonical_masks,
    division_tables,
    free_directions,
    label_to_mask,
    mask_label,
    mask_of,
)

from helpers import model_and_subsets, names, small_models


@pytest.fixture(scope="module")
def shift2():
    return fixtures.shift2()


@pytest.fixture(scope="module")
def absorb2():
    return fixtures.absorb2()


@pytest.fixture(scope="module")
def funnel2():
    return fixtures.funnel2()


@pytest.fixture(scope="module")
def funnel1():
    return fixtures.funnel1()


def bits(model, *vertex_names):
    return model.set_of_names(vertex_names)


# ---------------------------------------------------------------------------
# mask helpers


def test_mask_roundtrip():
    assert mask_label(0) == ""
    assert mask_label(0b101) == "1,3"
    assert label_to_mask("1,3", 3) == 0b101
    assert label_to_mask("", 2) == 0
    assert canonical_masks(2) == (0, 1, 2, 3)
    assert canonical_masks(3)[:4] == (0, 1, 2, 4)


def test_mask_label_rejects_noncanonical():
    with pytest.raises(InvalidInputError):
        label_to_mask("2,1", 2)
    with pytest.raises(InvalidInputError):
        label_to_mask("1,1", 2)
    with pytest.raises(InvalidInputError):
        mask_of([5], 2)


# ---------------------------------------------------------------------------
# phi_n


def test_phi_n_absorb2_one_step(absorb2):
    assert names(absorb2, phi_n(absorb2, 0, (0, 1))) == {"p"}


def test_phi_n_zero_degree_is_identity(absorb2, funnel2):
    for model in (absorb2, funnel2):
        for h in range(model.full + 1):
            assert phi_n(model, h, (0, 0)) == h


def test_phi_n_absorb2_two_steps(absorb2):
    assert names(absorb2, phi_n(absorb2, 0, (0, 2))) == {"p"}


def test_phi_n_rejects_bad_inputs(absorb2):
    with pytest.raises(InvalidInputError):
        phi_n(absorb2, 1 << 5, (0, 0))
    with pytest.raises(InvalidInputError):
        phi_n(absorb2, 0, (1,))
    with pytest.raises(InvalidInputError):
        phi_n(absorb2, 0, (1, -1))


# ---------------------------------------------------------------------------
# ker_phi / j_family


def test_ker_phi_shift2(shift2):
    assert names(shift2, ker_phi(shift2, 1)) == {"v2"}


def test_ker_phi_loops_and_funnel(funnel2):
    assert ker_phi(fixtures.loops2(), 1) == 0
    assert ker_phi(funnel2, 2) == 0


def test_ker_phi_direction_out_of_range(shift2):
    with pytest.raises(InvalidInputError):
        ker_phi(shift2, 3)


def test_j_family_shift2(shift2):
    jf = j_family(shift2)
    assert names(shift2, jf[0b01]) == {"v1"}
    assert jf[0] == 0


def test_j_family_empty_entry_everywhere():
    for model in fixtures.all_models():
        assert j_family(model)[0] == 0


def test_j_family_absorb2(absorb2):
    assert names(absorb2, j_family(absorb2)[0b10]) == {"q"}


# ---------------------------------------------------------------------------
# largest_perp_invariant


def test_lpi_absorb2_full(absorb2):
    assert largest_perp_invariant(absorb2, absorb2.full, 0b01) == absorb2.full


def test_lpi_full_direction_set_is_vacuous():
    for model in fixtures.all_models():
        f = model.full_directions
        for k0 in range(model.full + 1):
            assert largest_perp_invariant(model, k0, f) == k0


def test_lpi_funnel2_empties(funnel2):
    assert largest_perp_invariant(funnel2, bits(funnel2, "u"), 0b01) == 0


def test_lpi_contained_and_invariant():
    for model in fixtures.all_models():
        for f in range(model.full_directions + 1):
            for k0 in range(model.full + 1):
                s = largest_perp_invariant(model, k0, f)
                assert s & ~k0 == 0
                for i in free_directions(model, f):
                    assert s & ~model.phi(i, s) == 0


def test_lpi_brute_force_maximality():
    for model in fixtures.all_models():
        for f in range(model.full_directions + 1):
            for k0 in range(model.full + 1):
                assert largest_perp_invariant(model, k0, f) == (
                    oracles.lpi_by_subset_search(model, k0, f)
                )


@given(model_and_subsets())
def test_lpi_bounded_intersection_oracle(mk):
    model, k0 = mk
    if model.vertex_count > 5:
        return
    for f in range(model.full_directions + 1):
        assert largest_perp_invariant(model, k0, f) == (
            oracles.lpi_by_bounded_intersection(model, k0, f)
        )


# ---------------------------------------------------------------------------
# i_family


def test_i_family_absorb2(absorb2):
    fam = i_family(absorb2)
    assert fam[0] == 0
    assert fam[0b01] == absorb2.full
    assert fam[0b11] == absorb2.full
    assert names(absorb2, fam[0b10]) == {"q"}


def test_i_family_empty_at_bottom_and_ordered():
    for model in fixtures.all_models():
        fam = i_family(model)
        assert fam[0] == 0
        for f1 in range(len(fam)):
            for f2 in range(len(fam)):
                if f1 & f2 == f1:
                    assert fam[f1] & ~fam[f2] == 0
        jf = j_family(model)
        for f in range(len(fam)):
            assert fam[f] & ~jf[f] == 0


# ---------------------------------------------------------------------------
# xf_inverse / jf_of


def test_xf_inverse_funnel2(funnel2):
    assert xf_inverse(funnel2, 0, 0b01) == 0


def test_xf_inverse_top_is_fixed():
    for model in fixtures.all_models():
        for f in range(1, model.full_directions + 1):
            assert xf_inverse(model, model.full, f) == model.full


def test_xf_inverse_absorb2_both_directions(absorb2):
    assert xf_inverse(absorb2, 0, 0b11) == 0


def test_xf_inverse_rejects_empty_f(absorb2):
    with pytest.raises(InvalidInputError):
        xf_inverse(absorb2, 0, 0)


def test_xf_matches_direct_degree_oracle():
    for model in fixtures.all_models():
        for f in range(1, model.full_directions + 1):
            for h in range(model.full + 1):
                assert xf_inverse(model, h, f) == oracles.xf_by_direct_degrees(
                    model, h, f
                )


def test_jf_of_funnel1(funnel1):
    assert jf_of(funnel1, 0, 0b1) == funnel1.full
    w = bits(funnel1, "w")
    assert jf_of(funnel1, w, 0b1) == w


def test_jf_of_top(absorb2):
    for f in range(1, absorb2.full_directions + 1):
        assert jf_of(absorb2, absorb2.full, f) == absorb2.full


def test_jf_of_rejects_empty_f(absorb2):
    with pytest.raises(InvalidInputError):
        jf_of(absorb2, 0, 0)


def test_recovery_for_positively_invariant_sets():
    # the inverse-image intersection and the division ideal split any
    # positively invariant set back out
    for model in fixtures.all_models():
        for h in range(model.full + 1):
            if any(
                h & ~model.phi(i, h) for i in range(1, model.rank + 1)
            ):
                continue
            for f in range(1, model.full_directions + 1):
                assert xf_inverse(model, h, f) & jf_of(model, h, f) == h


def assert_division_tables_match(model):
    xf, jf = division_tables(model)
    assert sorted(xf) == sorted(jf) == list(range(1, model.full_directions + 1))
    for f in range(1, model.full_directions + 1):
        for h in range(model.full + 1):
            assert xf[f][h] == xf_inverse(model, h, f)
            assert jf[f][h] == jf_of(model, h, f)


def test_division_tables_match_public_operators_on_fixtures():
    for model in fixtures.all_models():
        assert_division_tables_match(model)


@given(small_models(max_rank=3, max_vertices=4))
def test_division_tables_match_public_operators_sampled(model):
    assert_division_tables_match(model)


# ---------------------------------------------------------------------------
# inv_set / lim_set


def test_inv_set_absorb2_nested_family(absorb2):
    fam = fixtures.absorb2_nested_family(absorb2)
    assert names(absorb2, inv_set(absorb2, fam, 0b01)) == {"p"}


def test_inv_set_extremes(funnel2):
    all_v = (funnel2.full,) * 4
    assert inv_set(funnel2, all_v, 0b01) == funnel2.full
    assert inv_set(funnel2, (0, 0, 0, 0), 0b01) == 0


def test_inv_set_rejects_extreme_masks(absorb2):
    fam = (0, 0, 0, 0)
    with pytest.raises(InvalidInputError):
        inv_set(absorb2, fam, 0)
    with pytest.raises(InvalidInputError):
        inv_set(absorb2, fam, 0b11)


def test_lim_set_funnel2(funnel2):
    assert lim_set(funnel2, bits(funnel2, "w"), 0b01) == funnel2.full


def test_lim_set_top(absorb2):
    for f in (0b01, 0b10):
        assert lim_set(absorb2, absorb2.full, f) == absorb2.full


def test_lim_set_shift2_from_empty(shift2):
    # pinned by the bounded-degree oracle: the whole vertex set
    assert lim_set(shift2, 0, 0b01) == shift2.full
    assert oracles.lim_by_bounded_degrees(shift2, 0, 0b01) == shift2.full


def test_lim_set_rejects_extreme_masks(absorb2):
    with pytest.raises(InvalidInputError):
        lim_set(absorb2, 0, 0)
    with pytest.raises(InvalidInputError):
        lim_set(absorb2, 0, 0b11)


def test_lim_matches_bounded_degree_oracle_on_fixtures():
    for model in fixtures.all_models():
        for f in range(1, model.full_directions):
            for h in range(model.full + 1):
                assert lim_set(model, h, f) == oracles.lim_by_bounded_degrees(
                    model, h, f
                )


# ---------------------------------------------------------------------------
# operator invariants


def test_operator_laws_exhaustive_on_fixtures():
    for model in fixtures.all_models():
        dirs = range(1, model.rank + 1)
        for h in range(model.full + 1):
            for i in dirs:
                for j in dirs:
                    assert model.phi(i, model.phi(j, h)) == model.phi(
                        j, model.phi(i, h)
                    )
            for hp in range(model.full + 1):
                for i in dirs:
                    assert model.phi(i, h & hp) == model.phi(i, h) & model.phi(i, hp)
                    if h & ~hp == 0:
                        assert model.phi(i, h) & ~model.phi(i, hp) == 0


def test_operator_laws_exhaustive_on_midsize_models():
    # exhaustive over every subset on a few larger random models
    from giideals.crossval import random_model

    models = [
        random_model("kgraph", 2, 7, seed=1),
        random_model("dynsys", 2, 7, seed=2),
        random_model("kgraph", 3, 5, seed=3),
    ]
    for model in models:
        dirs = range(1, model.rank + 1)
        tables = {i: model.phi_table(i) for i in dirs}
        for h in range(model.full + 1):
            for i in dirs:
                for j in dirs:
                    assert tables[i][tables[j][h]] == tables[j][tables[i][h]]

    # intersection preservation, exhaustive over subset pairs on one model
    model = models[0]
    tables = {i: model.phi_table(i) for i in range(1, model.rank + 1)}
    for h in range(model.full + 1):
        for hp in range(model.full + 1):
            for i in range(1, model.rank + 1):
                assert tables[i][h & hp] == tables[i][h] & tables[i][hp]


@given(model_and_subsets(count=2))
def test_operator_laws_sampled(mhh):
    model, h, hp = mhh
    for i in range(1, model.rank + 1):
        for j in range(1, model.rank + 1):
            assert model.phi(i, model.phi(j, h)) == model.phi(j, model.phi(i, h))
        assert model.phi(i, h & hp) == model.phi(i, h) & model.phi(i, hp)


@given(
    model_and_subsets(),
    st.lists(st.integers(0, 2), min_size=3, max_size=6),
    st.lists(st.integers(0, 2), min_size=3, max_size=6),
)
def test_phi_n_degree_addition(mh, n_raw, m_raw):
    model, h = mh
    n = tuple(n_raw[: model.rank] + [0] * (model.rank - len(n_raw)))[: model.rank]
    m = tuple(m_raw[: model.rank] + [0] * (model.rank - len(m_raw)))[: model.rank]
    total = tuple(a + b for a, b in zip(n, m))
    assert phi_n(model, h, total) == phi_n(model, phi_n(model, h, m), n)


@given(small_models())
def test_phi_table_matches_phi(model):
    if model.vertex_count > 6:
        return
    for i in range(1, model.rank + 1):
        table = model.phi_table(i)
        for h in range(model.full + 1):
            assert table[h] == model.phi(i, h)


def test_ops_work_beyond_the_table_limit():
    # a 20-vertex cycle: too large for subset tables, fine for the operators
    from giideals.kgraph import KGraphSkeleton

    n = 20
    mat = [[1 if w == (v + 1) % n else 0 for w in range(n)] for v in range(n)]
    model = KGraphSkeleton(tuple(f"v{i}" for i in range(n)), (mat,))
    with pytest.raises(InvalidInputError):
        model.phi_table(1)
    assert ker_phi(model, 1) == 0
    assert j_family(model)[1] == model.full
    assert largest_perp_invariant(model, model.full, 0) == model.full
    assert largest_perp_invariant(model, model.full - 1, 0) == 0
    assert jf_of(model, 0, 1) == model.full
