"""Shared strategies and small utilities for the test suite."""

import json

import hypothesis.strategies as st

from giideals.corpus import random_model


@st.composite
def small_models(draw, kinds=("kgraph", "dynsys"), max_rank=3, max_vertices=5):
    kind = draw(st.sampled_from(kinds))
    rank = draw(st.integers(1, max_rank))
    vertices = draw(st.integers(1, max_vertices))
    seed = draw(st.integers(0, 1 << 20))
    return random_model(kind, rank, vertices, seed)


@st.composite
def model_and_subsets(draw, count=1, **kwargs):
    model = draw(small_models(**kwargs))
    subsets = tuple(draw(st.integers(0, model.full)) for _ in range(count))
    return (model,) + subsets


def names(model, subset):
    return set(model.names_of_set(subset))


def doc_file(tmp_path, doc):
    """Write ``doc`` (a JSON value, or raw text) to a file; returns its path."""
    path = tmp_path / "doc.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def cli_rejects(capsys, *argv):
    """Run the CLI in-process: it must exit 2 (invalid input) with nothing on
    stdout.  Returns stderr."""
    from giideals.cli import main

    code = main(list(argv))
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    return err


def corpus_models():
    """The shipped corpus, 1,643 models: the fixtures, both exhaustive legs
    (685 + 752 models) and the 200 seeded random models."""
    from giideals import fixtures
    from giideals.corpus import (
        EXHAUSTIVE_LEGS,
        builtin_random_models,
        iter_corpus_models,
    )

    models = list(fixtures.all_models())
    for _, spec in EXHAUSTIVE_LEGS:
        models.extend(m for m, _ in iter_corpus_models(spec))
    models.extend(m for m, _ in builtin_random_models())
    return models
