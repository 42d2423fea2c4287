"""Document I/O: dispatch, family round trips, fingerprints."""

import json

import pytest

from giideals import InvalidInputError, load_model
from giideals.modelio import (
    canonical_json,
    family_from_doc,
    family_from_path,
    family_to_doc,
    fingerprint,
    load_model_path,
    model_fingerprint,
)
from giideals import fixtures

from helpers import cli_rejects, doc_file


def test_load_model_dispatch():
    assert load_model(fixtures.absorb2().to_doc()).rank == 2
    assert load_model(fixtures.funnel2().to_doc()).vertex_names == ("u", "w")


def test_load_model_rejects_unknown_kind():
    with pytest.raises(InvalidInputError):
        load_model({"kind": "widget"})
    with pytest.raises(InvalidInputError):
        load_model(["not", "an", "object"])


def test_family_roundtrip():
    model = fixtures.absorb2()
    fam = fixtures.absorb2_nested_family(model)
    doc = family_to_doc(model, fam)
    assert doc == {
        "rank": 2,
        "sets": {"": [], "1": [], "2": [], "1,2": ["p"]},
    }
    assert family_from_doc(model, doc) == fam


def test_family_doc_accepts_any_name_order():
    model = fixtures.absorb2()
    doc = {"rank": 2, "sets": {"": [], "1": ["q", "p"], "2": [], "1,2": []}}
    fam = family_from_doc(model, doc)
    assert fam[1] == model.full


def test_family_doc_rejections():
    model = fixtures.absorb2()
    with pytest.raises(InvalidInputError):
        family_from_doc(model, {"rank": 1, "sets": {"": [], "1": []}})
    with pytest.raises(InvalidInputError):
        family_from_doc(model, {"rank": 2, "sets": {"": []}})
    with pytest.raises(InvalidInputError):
        family_from_doc(
            model,
            {"rank": 2, "sets": {"": [], "1": ["zz"], "2": [], "1,2": []}},
        )
    with pytest.raises(InvalidInputError):
        family_from_doc(
            model,
            {"rank": 2, "sets": {"": [], "1": ["p", "p"], "2": [], "1,2": []}},
        )
    with pytest.raises(InvalidInputError):
        family_from_doc(
            model,
            {"rank": 2, "sets": {"": [], "2,1": [], "2": [], "1,2": []}},
        )
    with pytest.raises(InvalidInputError):
        family_from_doc(model, {"rank": 2})


@pytest.mark.parametrize(
    "doc, kind, message",
    [
        ({"rank": 2, "sets": []}, "family", '"sets" must map'),
        (
            {"rank": 2, "sets": {"": "p", "1": [], "2": [], "1,2": []}},
            "family",
            "entry '' must be a list of vertex names",
        ),
        ('{"kind": "dynsys",', "model", "is not valid JSON"),
    ],
    ids=["sets-not-an-object", "entry-not-a-list", "file-not-json"],
)
def test_invalid_documents_are_rejected(capsys, fixture_dir, tmp_path, doc, kind, message):
    path = doc_file(tmp_path, doc)
    if kind == "family":
        with pytest.raises(InvalidInputError, match=message):
            family_from_path(fixtures.absorb2(), path)
        argv = ["family", "check", str(fixture_dir / "absorb2.json"), path, "--mode", "t"]
    else:
        with pytest.raises(InvalidInputError, match=message):
            load_model_path(path)
        argv = ["validate", path]
    assert message in cli_rejects(capsys, *argv)


def test_canonical_json_is_sorted_and_compact():
    assert canonical_json({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'


def test_fingerprints_stable_and_distinct():
    a = model_fingerprint(fixtures.absorb2())
    assert a == model_fingerprint(fixtures.absorb2())
    assert a != model_fingerprint(fixtures.shift2())
    assert len(a) == 16
    assert fingerprint({"x": 1}) != fingerprint({"x": 2})


def test_serialized_sets_are_index_ordered():
    model = fixtures.funnel2()
    doc = family_to_doc(model, (model.full,) * 4)
    assert doc["sets"]["1,2"] == ["u", "w"]


FIXTURE_MODELS = {
    "shift2": fixtures.shift2,
    "absorb2": fixtures.absorb2,
    "loop1": fixtures.loop1,
    "loops2": fixtures.loops2,
    "funnel1": fixtures.funnel1,
    "funnel2": fixtures.funnel2,
}


@pytest.mark.parametrize("name", sorted(FIXTURE_MODELS))
def test_fixture_file_matches_constructor(fixture_dir, name):
    doc = json.loads((fixture_dir / f"{name}.json").read_text())
    assert doc == FIXTURE_MODELS[name]().to_doc()


def test_nested_family_file_matches_constructor(fixture_dir):
    doc = json.loads((fixture_dir / "absorb2_nested_family.json").read_text())
    model = fixtures.absorb2()
    assert doc == family_to_doc(model, fixtures.absorb2_nested_family())
