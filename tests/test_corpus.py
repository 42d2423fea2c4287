"""Model generation: the exhaustive corpus against a brute-force filter."""

import itertools

import pytest

from giideals import (
    CorpusSpec,
    InvalidInputError,
    KGraphSkeleton,
    PartialMapSystem,
    iter_corpus_models,
)


def singles_of(kind, v, max_mult):
    """Every single direction on ``v`` vertices, in the corpus's order:
    matrices by their flattened entries, partial maps by their image tuples
    (``None``, undefined, first)."""
    if kind == "kgraph":
        return [
            tuple(flat[r * v:(r + 1) * v] for r in range(v))
            for flat in itertools.product(range(max_mult + 1), repeat=v * v)
        ]
    return list(itertools.product((None, *range(v)), repeat=v))


def build(kind, names, chosen):
    if kind == "kgraph":
        return KGraphSkeleton(names, chosen)
    return PartialMapSystem(names, [
        {names[w]: names[t] for w, t in enumerate(img) if t is not None}
        for img in chosen
    ])


def brute_force(spec):
    """Rank by rank, then vertex count by vertex count, every ordered tuple
    of singles whose model builds: the constructor's validation, not the
    corpus's pair table, decides which tuples commute."""
    (kind,) = spec.kinds
    for rank in range(spec.rank_min, spec.rank_max + 1):
        for v in range(spec.vertices_min, spec.vertices_max + 1):
            names = tuple(f"v{i}" for i in range(v))
            for chosen in itertools.product(singles_of(kind, v, spec.max_mult), repeat=rank):
                try:
                    yield build(kind, names, chosen)
                except InvalidInputError:
                    continue


@pytest.mark.parametrize("kind, ranks, vertices, count", [
    ("dynsys", (2, 3), (1, 3), 685 + 4_803),
    ("kgraph", (2, 2), (1, 2), 752),
], ids=["dynsys-upto-3-points", "kgraph-upto-2-vertices"])
def test_the_pair_table_yields_exactly_the_tuples_that_build(kind, ranks, vertices, count):
    # a pair left out of the table, or a table that is not symmetric, drops
    # tuples; a tuple read past the table fails to build here
    spec = CorpusSpec(
        kinds=(kind,), rank_min=ranks[0], rank_max=ranks[1],
        vertices_min=vertices[0], vertices_max=vertices[1], max_mult=2,
        exhaustive=True, model_ceiling=10**6,
    )
    got = [model.to_doc() for model, _ in iter_corpus_models(spec)]
    assert len(got) == count
    assert got == [model.to_doc() for model in brute_force(spec)]
