"""The package's records: fields, defaults, equality, hashing, immutability,
copies and pickles."""

import copy
import pickle

import pytest

from giideals import (
    CheckReport,
    CorpusSpec,
    DiscrepancyReport,
    EnumerationResult,
    InvalidInputError,
    LatticeGraph,
    build_lattice,
    enumerate_t_families,
)
from giideals.crossval import DEFAULT_CANDIDATE_CEILING, DEFAULT_CANDIDATE_SAMPLES
from giideals import fixtures

#: each slotted record's fields, in constructor order
FIELDS = {
    EnumerationResult: ("families", "count", "mode", "stats"),
    LatticeGraph: ("rank", "vertex_names", "nodes", "cover_edges", "bottom", "top"),
    CorpusSpec: (
        "kinds", "rank_min", "rank_max", "vertices_min", "vertices_max", "max_mult",
        "seed", "sample_count", "exhaustive", "candidate_ceiling", "candidate_samples",
        "model_ceiling",
    ),
}


def values(record):
    return [getattr(record, f) for f in FIELDS[type(record)]]


def loops2_records():
    """``(record, equal twin)`` pairs of the slotted records; a twin differs
    only outside equality, or is built again from equal inputs."""
    model = fixtures.loops2()
    result = enumerate_t_families(model)
    lat = build_lattice(model, result)
    return [
        (result, EnumerationResult(result.families, result.count, result.mode, {"x": 1})),
        (lat, build_lattice(model, EnumerationResult(*values(result)))),
        (CorpusSpec(seed=3), CorpusSpec(seed=3)),
    ]


@pytest.mark.parametrize("pair", range(3), ids=["enumeration", "lattice", "corpus"])
def test_slotted_records_compare_hash_and_stay_frozen(pair):
    record, twin = loops2_records()[pair]
    assert record == twin and hash(record) == hash(twin)
    assert record is not twin and record != object()
    assert not hasattr(record, "__dict__")
    assert type(record).__slots__ == FIELDS[type(record)]
    field = FIELDS[type(record)][0]
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(record, field, None)
    with pytest.raises(AttributeError, match="cannot assign"):
        record.new_attribute = 1
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(record, field)
    for again in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert again == record and type(again) is type(record)
        assert values(again) == values(record)
    assert repr(record).startswith(f"{type(record).__name__}({field}=")


def test_equality_leaves_out_derived_fields():
    result, lat, _ = (record for record, _ in loops2_records())
    fewer = EnumerationResult(result.families[:-1], result.count - 1, result.mode)
    assert result != fewer
    assert result != EnumerationResult(result.families, result.count, "O")
    assert lat != LatticeGraph(*values(lat)[:-1], "x")
    assert CorpusSpec(seed=3) != CorpusSpec(seed=4)


def test_record_defaults():
    assert EnumerationResult((), 0, "T").stats == {}
    assert EnumerationResult((), 0, "T").stats is not EnumerationResult((), 0, "T").stats
    spec = CorpusSpec()
    assert values(spec) == [
        ("kgraph", "dynsys"), 1, 2, 1, 4, 2, 0, 50, False,
        DEFAULT_CANDIDATE_CEILING, DEFAULT_CANDIDATE_SAMPLES, 200_000,
    ]
    assert CorpusSpec.from_doc({}) == spec
    assert CheckReport(True) == CheckReport(True, None, None, None)
    assert DiscrepancyReport("f", "c", {}, {}).seed is None


def test_corpus_spec_validates_positional_fields():
    assert CorpusSpec(("dynsys",), 1, 3).rank_max == 3
    with pytest.raises(InvalidInputError, match="bounds are inverted"):
        CorpusSpec(("dynsys",), 2, 1)
    with pytest.raises(InvalidInputError, match="bounds must be positive"):
        CorpusSpec(("dynsys",), 0)


def test_report_documents_keep_their_keys():
    report = DiscrepancyReport("fp", "claim", {"kind": "dynsys"}, {"k": 1}, 7)
    assert report.to_doc() == {
        "fingerprint": "fp", "claim": "claim", "model": {"kind": "dynsys"},
        "datum": {"k": 1}, "seed": 7,
    }
    assert list(report.to_doc()) == ["fingerprint", "claim", "model", "datum", "seed"]
    assert CheckReport(False, "t_equation", {"F": ""}).to_doc() == {
        "verdict": False, "violated_condition": "t_equation", "witness": {"F": ""},
    }
    conditions = {"i": "pass"}
    assert CheckReport(True, conditions=conditions).to_doc()["conditions"] is conditions
    with pytest.raises(AttributeError):
        report.seed = 8
