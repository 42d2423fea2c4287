"""The one model representation: dependency sets, the single ``_phi`` loop
over them, and pickled models."""

import pickle

import pytest
from hypothesis import given

from giideals import KGraphSkeleton, fixtures
from giideals.core import canonical_masks, direction_covers, free_directions

from helpers import small_models


def expected_deps(model):
    """Dependency sets read off the input data: the supports of the
    adjacency rows (kgraph), the preimages of the points (dynsys)."""
    n = model.vertex_count
    if isinstance(model, KGraphSkeleton):
        return tuple(
            tuple(sum(1 << w for w in range(n) if mat[v][w]) for v in range(n))
            for mat in model.adjacency
        )
    return tuple(
        tuple(sum(1 << w for w in range(n) if img[w] == v) for v in range(n))
        for img in model.images
    )


FIXTURES = ("shift2", "absorb2", "loop1", "loops2", "funnel1", "funnel2")


@pytest.mark.parametrize("name", FIXTURES)
def test_deps_match_the_input_data_on_fixtures(name):
    model = getattr(fixtures, name)()
    assert model.deps == expected_deps(model)


@given(small_models())
def test_deps_match_the_input_data(model):
    deps = expected_deps(model)
    assert model.deps == deps
    for i in range(1, model.rank + 1):
        for h in range(min(model.full + 1, 64)):
            want = sum(1 << v for v, d in enumerate(deps[i - 1]) if d & ~h == 0)
            assert model.phi(i, h) == want


def test_dynsys_deps_are_preimages():
    model = fixtures.absorb2()  # T_1 = identity, T_2 sends both points to q
    p, q = model.set_of_names(["p"]), model.set_of_names(["q"])
    assert model.deps == ((p, q), (0, p | q))


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_direction_covers_match_the_nested_loop(rank):
    model = KGraphSkeleton(("v",), [[[1]]] * rank)
    nested = [
        (f, i, f | (1 << (i - 1)))
        for f in canonical_masks(rank)
        for i in free_directions(model, f)
    ]
    assert list(direction_covers(rank)) == nested
    assert direction_covers(rank) is direction_covers(rank)


@pytest.mark.parametrize(
    "model",
    [fixtures.funnel2(), fixtures.absorb2()],
    ids=["kgraph", "dynsys"],
)
def test_pickled_model_round_trip(model):
    again = pickle.loads(pickle.dumps(model))
    assert type(again) is type(model)
    assert again.to_doc() == model.to_doc()
    assert again.deps == model.deps
    for i in range(1, model.rank + 1):
        assert again.phi_table(i) == model.phi_table(i)
