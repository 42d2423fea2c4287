"""Skeleton backend: loading, validation, operators, matrix-power oracle."""

import pytest
from hypothesis import given
import hypothesis.strategies as st

from giideals import InvalidInputError, load_model, phi_n
from giideals.kgraph import KGraphSkeleton, SKELETON_NOTE
from giideals import fixtures, oracles

from helpers import names, small_models


def funnel2_doc():
    mat = [[0, 1], [0, 1]]
    return {
        "kind": "kgraph",
        "rank": 2,
        "vertices": ["u", "w"],
        "adjacency": [mat, [row[:] for row in mat]],
    }


def test_load_funnel2():
    model = load_model(funnel2_doc())
    assert model.rank == 2
    assert model.vertex_names == ("u", "w")
    assert model.note is None


def test_load_single_vertex_loops():
    model = load_model(
        {"kind": "kgraph", "rank": 2, "vertices": ["v"], "adjacency": [[[1]], [[1]]]}
    )
    assert model.vertex_count == 1


def test_load_rejects_noncommuting_pair():
    doc = {
        "kind": "kgraph",
        "rank": 2,
        "vertices": ["u", "w"],
        "adjacency": [[[0, 1], [0, 0]], [[0, 0], [1, 0]]],
    }
    with pytest.raises(InvalidInputError) as err:
        load_model(doc)
    message = str(err.value)
    # witnessing entry with both path counts
    assert "do not commute" in message
    assert "1" in message and "0" in message
    assert "'u'" in message


def test_load_rejects_negative_entry():
    doc = funnel2_doc()
    doc["adjacency"][0][0][0] = -1
    with pytest.raises(InvalidInputError):
        load_model(doc)


def test_load_rejects_bad_shapes_and_schema():
    # the envelope checks both kinds share are tested in test_modelio
    doc = funnel2_doc()
    doc["adjacency"][0] = [[0, 1]]
    with pytest.raises(InvalidInputError, match="matrix 1 is not 2x2"):
        load_model(doc)
    doc = funnel2_doc()
    doc["vertices"] = ["u", "u"]
    with pytest.raises(InvalidInputError, match="duplicate vertex names"):
        load_model(doc)


def test_load_rejects_oversized_vertex_set():
    n = 65
    mat = [[0] * n for _ in range(n)]
    doc = {
        "kind": "kgraph",
        "rank": 1,
        "vertices": [f"v{i}" for i in range(n)],
        "adjacency": [mat],
    }
    with pytest.raises(InvalidInputError):
        load_model(doc)


def test_rank3_models_flagged_as_skeleton_level():
    mat = [[1]]
    model = KGraphSkeleton(("v",), (mat, mat, mat))
    assert model.note == SKELETON_NOTE
    assert fixtures.funnel2().note is None


# the source vertices of the degree-i paths out of v: model.deps[i - 1][v]


def test_successors_funnel2():
    model = fixtures.funnel2()
    assert names(model, model.deps[0][model.vertex_index("u")]) == {"w"}
    assert names(model, model.deps[0][0]) == {"w"}
    with pytest.raises(InvalidInputError):
        model.vertex_index("zz")


def test_successors_loop():
    model = fixtures.loops2()
    assert names(model, model.deps[1][model.vertex_index("v")]) == {"v"}


def test_successors_source_row():
    model = KGraphSkeleton(("a", "b"), ([[0, 0], [1, 0]],))
    assert model.deps[0][model.vertex_index("a")] == 0


def test_phi_generator_funnel2():
    model = fixtures.funnel2()
    w = model.set_of_names(["w"])
    u = model.set_of_names(["u"])
    assert model.phi(1, w) == model.full
    assert model.phi(1, u) == 0
    assert model.phi(1, model.full) == model.full


def test_phi_of_empty_set_is_zero_rows():
    model = KGraphSkeleton(("a", "b", "c"), ([[0, 0, 0], [1, 0, 0], [0, 2, 0]],))
    assert names(model, model.phi(1, 0)) == {"a"}


@given(small_models(kinds=("kgraph",)), st.data())
def test_phi_n_matches_matrix_power_oracle(model, data):
    degree = tuple(
        data.draw(st.integers(0, 2), label=f"n{i}") for i in range(model.rank)
    )
    h = data.draw(st.integers(0, model.full), label="subset")
    assert phi_n(model, h, degree) == oracles.phi_n_by_matrix_powers(model, h, degree)


def test_multiplicities_do_not_change_operators():
    base = fixtures.funnel2()
    mat = [[0, 2], [0, 1]]
    scaled = KGraphSkeleton(("u", "w"), (mat, [row[:] for row in mat]))
    for i in (1, 2):
        assert [base.phi(i, h) for h in range(4)] == [
            scaled.phi(i, h) for h in range(4)
        ]


def test_doc_roundtrip():
    model = fixtures.funnel2()
    again = load_model(model.to_doc())
    assert again.to_doc() == model.to_doc()
