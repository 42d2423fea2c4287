"""Document I/O: model loading, family round trips, fingerprints."""

import json
import re

import pytest
from hypothesis import given
import hypothesis.strategies as st

from giideals import (
    EnumerationResult,
    InvalidInputError,
    build_lattice,
    enumerate_t_families,
    load_model,
    random_model,
)
from giideals.core import canonical_masks, mask_label
from giideals.modelio import (
    MODEL_KINDS,
    canonical_json,
    family_from_doc,
    family_from_path,
    family_to_doc,
    fingerprint,
    load_model_path,
    model_fingerprint,
)
from giideals import fixtures

from helpers import cli_rejects, doc_file, small_models


def test_load_model_dispatch():
    assert load_model(fixtures.absorb2().to_doc()).rank == 2
    assert load_model(fixtures.funnel2().to_doc()).vertex_names == ("u", "w")


def test_load_model_rejects_unknown_kind():
    with pytest.raises(InvalidInputError):
        load_model({"kind": "widget"})
    with pytest.raises(InvalidInputError, match="unknown model kind"):
        load_model({"kind": ["kgraph"]})
    with pytest.raises(InvalidInputError):
        load_model(["not", "an", "object"])


#: per kind: its names key, its per-direction key, one valid direction entry
#: over the single name "a", and the message for a malformed entry
KIND_KEYS = {
    "kgraph": ("vertices", "adjacency", [[1]], "malformed adjacency data"),
    "dynsys": ("points", "maps", {}, "map 1 must be a point -> point mapping"),
}

#: case -> (key, its new value or None to delete it, message); "names" and
#: "data" stand for the kind's keys
ENVELOPE_CASES = {
    "rank-true": ("rank", True, '"rank" must be an integer'),
    "rank-not-entries": ("rank", 2, '"{data}" must list one'),
    "names-not-a-list": ("names", "a", '"{names}" must be a list of names'),
    "names-not-strings": ("names", ["a", 1], '"{names}" must be a list of names'),
    "missing-key": ("data", None, "{kind} document missing '{data}'"),
    "data-not-a-list": ("data", {"1": None}, '"{data}" must list one'),
    "data-malformed": ("data", [5], "{malformed}"),
}


@pytest.mark.parametrize(
    "kind, case",
    [(kind, case) for kind in KIND_KEYS for case in ENVELOPE_CASES],
    ids=[f"{kind}-{case}" for kind in KIND_KEYS for case in ENVELOPE_CASES],
)
def test_model_envelope_is_checked_for_both_kinds(capsys, tmp_path, kind, case):
    names_key, data_key, entry, malformed = KIND_KEYS[kind]
    doc = {"kind": kind, "rank": 1, names_key: ["a"], data_key: [entry]}
    key, value, message = ENVELOPE_CASES[case]
    key = {"names": names_key, "data": data_key}.get(key, key)
    if value is None:
        del doc[key]
    else:
        doc[key] = value
    message = message.format(
        kind=kind, names=names_key, data=data_key, malformed=malformed
    )
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        load_model(doc)
    assert message in cli_rejects(capsys, "validate", doc_file(tmp_path, doc))


FIXTURE_MODELS = {
    "shift2": fixtures.shift2,
    "absorb2": fixtures.absorb2,
    "loop1": fixtures.loop1,
    "loops2": fixtures.loops2,
    "funnel1": fixtures.funnel1,
    "funnel2": fixtures.funnel2,
}


def assert_model_round_trip(model):
    doc = model.to_doc()
    assert doc["kind"] == model.kind
    assert MODEL_KINDS[model.kind] is type(model)
    back = load_model(doc)
    assert type(back) is type(model)
    assert back.to_doc() == doc
    assert back.deps == model.deps
    assert back.note == model.note


@given(small_models())
def test_model_documents_round_trip(model):
    assert_model_round_trip(model)


@pytest.mark.parametrize("name", sorted(FIXTURE_MODELS))
def test_fixture_documents_round_trip(name):
    assert_model_round_trip(FIXTURE_MODELS[name]())


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@given(data=st.data())
def test_family_documents_round_trip(rank, data):
    # from rank 3 on, canonical label order differs from mask order
    kind = data.draw(st.sampled_from(sorted(MODEL_KINDS)))
    vertices = data.draw(st.integers(1, 4))
    model = random_model(kind, rank, vertices, data.draw(st.integers(0, 1 << 20)))
    fam = tuple(data.draw(st.integers(0, model.full)) for _ in range(1 << rank))
    doc = family_to_doc(model, fam)
    assert list(doc["sets"]) == [mask_label(m) for m in canonical_masks(rank)]
    assert family_from_doc(model, doc) == fam


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
        ("[" * 100_000 + "]" * 100_000, "model", "nests too deeply to parse"),
    ],
    ids=["sets-not-an-object", "entry-not-a-list", "file-not-json", "file-too-deep"],
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


#: a bad last entry, after earlier families rendered every valid value:
#: (name, bad entry or None for a short family, message); ``full`` is 3
BAD_ENTRIES = [
    ("float", 1.0, "vertex set 1.0 does not fit a model with 2 vertices"),
    ("negative", -1, "vertex set -1 does not fit a model with 2 vertices"),
    ("out of range", 4, "vertex set 4 does not fit a model with 2 vertices"),
    ("length", None, "family must have 4 entries, got 3"),
]


@pytest.mark.parametrize("bad, message", [c[1:] for c in BAD_ENTRIES],
                         ids=[c[0] for c in BAD_ENTRIES])
@pytest.mark.parametrize("render", ["family_to_doc", "to_doc", "build_lattice"])
def test_each_vertex_set_rendered_once_is_still_checked_in_every_family(
    render, bad, message
):
    """The renderer checks each distinct vertex set once; an entry that is
    not an int, or a family of the wrong length, is checked in full even
    when an equal value was rendered before."""
    model = fixtures.funnel2()
    result = enumerate_t_families(model)
    assert {s for fam in result.families for s in fam} == {0, 1, 2, 3}
    last = result.families[-1]
    fam = last[:-1] if bad is None else last[:-1] + (bad,)
    families = result.families[:-1] + (fam,)
    calls = {
        "family_to_doc": lambda: [family_to_doc(model, f) for f in families],
        "to_doc": lambda: EnumerationResult(families, len(families), "T").to_doc(model),
        "build_lattice": lambda: build_lattice(
            model, EnumerationResult(families, len(families), "T")
        ),
    }
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        calls[render]()


def test_an_int_subclass_in_range_renders_as_its_value():
    model = fixtures.loops2()
    assert family_to_doc(model, (True,) * 4) == family_to_doc(model, (1,) * 4)


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


@pytest.mark.parametrize("name", sorted(FIXTURE_MODELS))
def test_fixture_file_matches_constructor(fixture_dir, name):
    doc = json.loads((fixture_dir / f"{name}.json").read_text())
    assert doc == FIXTURE_MODELS[name]().to_doc()


def test_nested_family_file_matches_constructor(fixture_dir):
    doc = json.loads((fixture_dir / "absorb2_nested_family.json").read_text())
    model = fixtures.absorb2()
    assert doc == family_to_doc(model, fixtures.absorb2_nested_family())
