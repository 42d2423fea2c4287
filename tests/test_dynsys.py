"""Partial-map backend: loading, strong commutation, the two fixtures."""

import pytest

from giideals import (
    InvalidInputError,
    i_family,
    is_invariant,
    is_nt_tuple,
    is_t_family,
    j_family,
    load_model,
)
from giideals.dynsys import PartialMapSystem
from giideals import fixtures

from helpers import cli_rejects, doc_file, names


def test_load_shift2():
    doc = {
        "kind": "dynsys",
        "rank": 2,
        "points": ["v1", "v2"],
        "maps": [{"v2": "v1"}, {"v2": "v1"}],
    }
    model = load_model(doc)
    assert model.images == ((None, 0), (None, 0))


def test_load_absorb2():
    model = load_model(fixtures.absorb2().to_doc())
    assert model.images == ((0, 1), (1, 1))


def test_load_null_means_undefined():
    model = load_model(
        {
            "kind": "dynsys",
            "rank": 1,
            "points": ["a", "b"],
            "maps": [{"a": "b", "b": None}],
        }
    )
    assert model.images == ((1, None),)


def test_load_rejects_commutation_violation():
    doc = {
        "kind": "dynsys",
        "rank": 2,
        "points": ["a", "b", "c"],
        "maps": [{"a": "b"}, {"a": "c", "b": "c"}],
    }
    with pytest.raises(InvalidInputError) as err:
        load_model(doc)
    message = str(err.value)
    assert "do not commute" in message and "'a'" in message


def test_commutation_message_quotes_only_point_names():
    # an undefined composite is the bare word; a point named "undefined"
    # keeps its quotes, so the two cannot be confused
    with pytest.raises(InvalidInputError) as err:
        PartialMapSystem(
            ["p", "undefined"], [{"p": "undefined", "undefined": "p"}, {"p": "p"}]
        )
    assert str(err.value) == (
        "maps 1 and 2 do not commute at point 'p': "
        "composites give 'undefined' vs undefined"
    )


def test_load_rejects_schema_violations():
    # the envelope checks both kinds share are tested in test_modelio
    with pytest.raises(InvalidInputError, match="sends 'a' to unknown point 'zz'"):
        load_model(
            {"kind": "dynsys", "rank": 1, "points": ["a"], "maps": [{"a": "zz"}]}
        )
    with pytest.raises(InvalidInputError, match="defined at unknown point 'zz'"):
        load_model(
            {"kind": "dynsys", "rank": 1, "points": ["a"], "maps": [{"zz": "a"}]}
        )


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"kind": "dynsys", "rank": 1, "points": ["a"], "maps": [["a"]]},
            "map 1 must be a point -> point mapping",
        ),
    ],
    ids=["map-not-a-mapping"],
)
def test_load_rejects_invalid_documents(capsys, tmp_path, doc, message):
    with pytest.raises(InvalidInputError, match=message):
        load_model(doc)
    assert message in cli_rejects(capsys, "validate", doc_file(tmp_path, doc))


def test_endo_inverse_shift2_kernel():
    model = fixtures.shift2()
    assert names(model, model.phi(1, 0)) == {"v2"}


def test_endo_inverse_absorb2():
    model = fixtures.absorb2()
    p = model.set_of_names(["p"])
    assert model.phi(2, p) == p
    assert model.phi(1, model.full) == model.full


def test_shift2_annihilator_family_not_invariant():
    # the end-to-end counterexample: the joint-kernel-annihilator family has
    # {v1} in direction-set {1} but direction 2 maps it out
    model = fixtures.shift2()
    jf = j_family(model)
    assert names(model, jf[0b01]) == {"v1"}
    v1 = model.set_of_names(["v1"])
    assert model.phi(2, v1) == model.set_of_names(["v2"])
    report = is_invariant(model, jf)
    assert not report.verdict
    assert report.witness == {"F": "1", "i": 2, "vertex": "v1"}


def test_absorb2_canonical_family_and_nested_family():
    model = fixtures.absorb2()
    fam = i_family(model)
    assert fam[0] == 0
    assert fam[0b01] == model.full and fam[0b11] == model.full
    nested = fixtures.absorb2_nested_family(model)
    assert all(a & ~b == 0 for a, b in zip(nested, fam))
    assert not is_t_family(model, nested).verdict
    assert not is_nt_tuple(model, nested).verdict


def test_operator_laws_small():
    for model in (fixtures.shift2(), fixtures.absorb2()):
        for h in range(model.full + 1):
            for i in (1, 2):
                for j in (1, 2):
                    assert model.phi(i, model.phi(j, h)) == model.phi(
                        j, model.phi(i, h)
                    )


def test_doc_roundtrip():
    model = fixtures.absorb2()
    assert load_model(model.to_doc()).to_doc() == model.to_doc()


def test_duplicate_point_names_rejected():
    with pytest.raises(InvalidInputError):
        PartialMapSystem(("a", "a"), ({},))
