"""Lattice construction, transitive reduction, exports."""

import json
import re
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given

from giideals import (
    InternalConsistencyError,
    build_lattice,
    enumerate_relative_o,
    enumerate_t_families,
    export_dot,
    export_json,
)
from giideals.core import InvalidInputError, i_family
from giideals.families import EnumerationResult, t_closure
from giideals.kgraph import KGraphSkeleton
from giideals.lattice import _join_irreducibles
from giideals.modelio import canonical_json, family_to_doc, fingerprint, render_families
from giideals import fixtures, oracles
from giideals.corpus import builtin_random_models

from helpers import corpus_models, small_models

GOLDEN = Path(__file__).resolve().parent / "golden"


def le(a, b):
    return all(x & ~y == 0 for x, y in zip(a, b))


def test_loop1_chain():
    model = fixtures.loop1()
    lat = build_lattice(model, enumerate_t_families(model))
    assert len(lat.nodes) == 3
    assert len(lat.cover_edges) == 2
    assert lat.bottom != lat.top
    # a chain: 2 edges linking 3 nodes linearly
    ids = [nid for nid, _ in lat.nodes]
    assert set(lat.cover_edges) == {(ids[0], ids[1]), (ids[1], ids[2])}


def test_singleton_lattice():
    model = fixtures.loops2()
    only = (model.full,) * 4
    lat = build_lattice(model, EnumerationResult((only,), 1, "T"))
    assert len(lat.nodes) == 1
    assert lat.cover_edges == ()
    assert lat.bottom == lat.top


def test_loops2_six_node_shape():
    model = fixtures.loops2()
    lat = build_lattice(model, enumerate_t_families(model))
    assert len(lat.nodes) == 6
    assert len(lat.cover_edges) == 6


def assert_covers_match_naive_oracle(model, result):
    lat = build_lattice(model, result)
    fams = [fam for _, fam in lat.nodes]
    ids = [nid for nid, _ in lat.nodes]
    naive = [
        (ids[a], ids[b]) for a, b in oracles.transitive_reduction_naive(fams, le)
    ]
    assert list(lat.cover_edges) == naive


def assert_both_lattices_match_naive_oracle(model):
    # the T-lattice and its interval above the I-family
    assert_covers_match_naive_oracle(model, enumerate_t_families(model))
    assert_covers_match_naive_oracle(
        model, enumerate_relative_o(model, i_family(model))
    )


def test_reduction_matches_naive_oracle():
    for model in fixtures.all_models():
        assert_both_lattices_match_naive_oracle(model)


@given(small_models(max_rank=2, max_vertices=3))
def test_reduction_matches_naive_oracle_sampled(model):
    assert_both_lattices_match_naive_oracle(model)


def test_reduction_matches_naive_oracle_on_random_leg_model():
    model, _ = builtin_random_models(33)[32]
    result = enumerate_t_families(model)
    assert 100 <= result.count <= 200
    assert_covers_match_naive_oracle(model, result)


def assert_canonical_order_extends_containment(model):
    # build_lattice relies on this: no family lies strictly below an earlier one
    fams = enumerate_t_families(model).families
    for j, later in enumerate(fams):
        assert not any(le(later, earlier) for earlier in fams[:j])


def test_canonical_order_extends_containment():
    for model in fixtures.all_models():
        assert_canonical_order_extends_containment(model)


@given(small_models(max_rank=2, max_vertices=3))
def test_canonical_order_extends_containment_sampled(model):
    assert_canonical_order_extends_containment(model)


def test_cover_relation_irreflexive_acyclic():
    model = fixtures.funnel2()
    lat = build_lattice(model, enumerate_t_families(model))
    fam_of = dict(lat.nodes)
    for lo, hi in lat.cover_edges:
        assert lo != hi
        assert le(fam_of[lo], fam_of[hi]) and fam_of[lo] != fam_of[hi]


def test_meet_closure_violation_raises():
    model = fixtures.loops2()
    fams = list(enumerate_t_families(model).families)
    v = model.full
    a = (0, v, 0, v)
    b = (0, 0, v, v)
    broken = [f for f in fams if f != meet_pointwise(a, b)]
    assert a in broken and b in broken
    with pytest.raises(InternalConsistencyError):
        build_lattice(model, EnumerationResult(tuple(broken), len(broken), "T"))


def meet_pointwise(a, b):
    return tuple(x & y for x, y in zip(a, b))


def test_missing_family_in_meet_closed_set_raises():
    # loop1's chain without its middle family is still meet-closed, but no
    # interval of the T-family lattice: the bottom's cover is missing
    model = fixtures.loop1()
    bottom, middle, top = enumerate_t_families(model).families
    assert le(bottom, middle) and le(middle, top)
    with pytest.raises(InternalConsistencyError, match="not an interval"):
        build_lattice(model, EnumerationResult((bottom, top), 2, "T"))


def test_random_leg_model_37_lattice():
    # the largest lattice any test builds: 14,400 families
    model, _ = builtin_random_models(38)[37]
    lat = build_lattice(model, enumerate_t_families(model))
    assert (len(lat.nodes), len(lat.cover_edges)) == (14_400, 74_880)
    (first, bottom), (last, top) = lat.nodes[0], lat.nodes[-1]
    assert (lat.bottom, lat.top) == (first, last)
    assert bottom == (0,) * 8
    assert top == (model.full,) * 8


@cache
def corpus_enumerations():
    return [(m, enumerate_t_families(m).families) for m in corpus_models()]


def maximal(fams):
    return [x for x in fams if not any(x != y and le(x, y) for y in fams)]


def test_join_irreducibles_match_their_definition():
    # j is join-irreducible when exactly one maximal family lies strictly
    # below it, its one lower cover
    checked = 0
    for model, fams in corpus_enumerations():
        if len(fams) > 60:
            continue
        below = {x: [y for y in fams if y != x and le(y, x)] for x in fams}
        expected = {x for x in fams if len(maximal(below[x])) == 1}
        assert {j for j, _, _ in _join_irreducibles(model)} == expected
        checked += 1
    assert checked == 1_537


def test_an_atom_is_closed_only_where_no_closure_above_holds_it(monkeypatch):
    # each atom "v in H_m" starts from the closures of the atoms "v in
    # H_{m+i}" above it, which H_F <= H_{F+i} puts inside its own; where one
    # of them already holds v in H_m, that closure is the atom's, and the
    # Horn closure runs only for the other atoms
    from giideals import lattice

    calls = []
    close = lattice._close

    def counted(model, phi, fam):
        calls.append(fam)
        return close(model, phi, fam)

    monkeypatch.setattr(lattice, "_close", counted)
    held_somewhere = 0
    for model in [*fixtures.all_models(), *(m for m, _ in builtin_random_models(40))]:
        nmasks = 1 << model.rank
        closure = {
            (m, v): t_closure(model, [1 << v if f == m else 0 for f in range(nmasks)])
            for m in range(nmasks) for v in range(model.vertex_count)
        }
        held = sum(
            any(closure[m | 1 << k, v][m] >> v & 1 for k in range(model.rank) if not m >> k & 1)
            for m, v in closure
        )
        calls.clear()
        _join_irreducibles(model)
        assert len(calls) == len(closure) - held
        held_somewhere += held > 0
    assert held_somewhere == 21  # of the 46 models


def count_down_sets(poset) -> int:
    """Down-sets of a finite order, by ``ideals(P) = ideals(P - up(x)) +
    ideals(P - down(x))`` for any ``x`` in ``P``, memoised on bitmasks."""
    n = len(poset)
    ups = [sum(1 << b for b in range(n) if le(poset[a], poset[b])) for a in range(n)]
    downs = [sum(1 << b for b in range(n) if le(poset[b], poset[a])) for a in range(n)]

    @cache
    def ideals(rest: int) -> int:
        if not rest:
            return 1
        x = (rest & -rest).bit_length() - 1
        return ideals(rest & ~ups[x]) + ideals(rest & ~downs[x])

    return ideals((1 << n) - 1)


def test_birkhoff_count_of_down_sets():
    # the T-family lattice is distributive: its families correspond one to
    # one to the down-sets of its join-irreducibles
    sizes = []
    for model, fams in corpus_enumerations():
        irr = [j for j, _, _ in _join_irreducibles(model)]
        assert count_down_sets(irr) == len(fams)
        sizes.append(len(irr))
    assert len(sizes) == 1_643
    assert max(sizes) <= 26


def test_empty_enumeration_rejected():
    model = fixtures.loop1()
    with pytest.raises(InvalidInputError):
        build_lattice(model, EnumerationResult((), 0, "T"))


LOOP1_DOT = """\
digraph family_lattice {
  rankdir=BT;
  node [shape=box];
  "5f240718c5eebfba" [label="all-empty"];
  "e777030948359a38" [label="1:{v}"];
  "d1ba0156bf6eb730" [label="():{v} 1:{v}"];
  "5f240718c5eebfba" -> "e777030948359a38";
  "e777030948359a38" -> "d1ba0156bf6eb730";
}
"""


def test_dot_export_content_and_stability():
    model = fixtures.loop1()
    lat = build_lattice(model, enumerate_t_families(model))
    dot1 = export_dot(lat)
    dot2 = export_dot(build_lattice(model, enumerate_t_families(model)))
    assert dot1 == dot2
    assert dot1 == LOOP1_DOT


def test_rank3_lattice_golden():
    # rank 3 is the least rank where canonical direction-set order (by size,
    # then value) differs from numeric mask order: "3" sorts before "1,2"
    model = KGraphSkeleton(("v",), ([[1]],) * 3)
    lat = build_lattice(model, enumerate_t_families(model))
    assert (len(lat.nodes), len(lat.cover_edges)) == (20, 32)
    dot = export_dot(lat)
    assert dot == (GOLDEN / "rank3_loop.dot").read_text()
    assert '[label="3:{v} 1,2:{v} 1,3:{v} 2,3:{v} 1,2,3:{v}"]' in dot
    nodes = json.loads(export_json(lat))["nodes"]
    for (nid, fam), node in zip(lat.nodes, nodes):
        doc = family_to_doc(model, fam)
        assert node == {"id": nid, "family": doc["sets"]}
        assert nid == fingerprint(doc)
    assert hash(lat) == hash(build_lattice(model, enumerate_t_families(model)))


def test_dot_singleton_has_no_edges():
    model = fixtures.loops2()
    only = (model.full,) * 4
    dot = export_dot(build_lattice(model, EnumerationResult((only,), 1, "T")))
    assert "->" not in dot


def test_json_export_mirrors_fields():
    model = fixtures.loop1()
    lat = build_lattice(model, enumerate_t_families(model))
    text1 = export_json(lat)
    text2 = export_json(lat)
    assert text1 == text2
    doc = json.loads(text1)
    assert doc["rank"] == 1
    assert doc["vertices"] == ["v"]
    assert len(doc["nodes"]) == 3
    assert doc["bottom"] == lat.bottom and doc["top"] == lat.top
    assert [set(e) for e in doc["cover_edges"]] == [set(e) for e in lat.cover_edges]
    for node in doc["nodes"]:
        assert set(node["family"]) == {"", "1"}


def test_top_is_all_v_and_bottom_is_minimum():
    for model in fixtures.all_models():
        lat = build_lattice(model, enumerate_t_families(model))
        fam_of = dict(lat.nodes)
        top = fam_of[lat.top]
        assert all(s == model.full for s in top)
        bottom = fam_of[lat.bottom]
        for fam in fam_of.values():
            assert le(bottom, fam)


def test_family_of_lookup():
    model = fixtures.loop1()
    lat = build_lattice(model, enumerate_t_families(model))
    assert lat.family_of(lat.top) == (model.full, model.full)
    with pytest.raises(InvalidInputError):
        lat.family_of("nope")


def reference_doc(model, lattice):
    """The document ``export_json`` lays out, built as plain JSON values
    from the family documents."""
    return {
        "rank": lattice.rank,
        "vertices": list(lattice.vertex_names),
        "nodes": [
            {"id": nid, "family": family_to_doc(model, fam)["sets"]}
            for nid, fam in lattice.nodes
        ],
        "cover_edges": [[lo, hi] for lo, hi in lattice.cover_edges],
        "bottom": lattice.bottom,
        "top": lattice.top,
    }


# vertex names holding a quote, a backslash, a control character, non-ASCII
# text (one outside the BMP) and the empty string
ODD_NAMES = ('a"b', "c\\d", "e\x01\tf", "\u00e9\u2603", "\U0001d11e", "")


def export_lattices():
    """``(model, lattice)`` pairs whose exports the tests compare."""
    small = [
        m for m, _ in builtin_random_models(60) if enumerate_t_families(m).count <= 200
    ]
    assert len(small) >= 40
    models = list(fixtures.all_models()) + small[:40]
    models.append(KGraphSkeleton(ODD_NAMES[:2], ([[1, 0], [0, 1]],)))
    n = len(ODD_NAMES)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    models.append(KGraphSkeleton(ODD_NAMES, (identity,)))
    models.append(
        KGraphSkeleton(ODD_NAMES[2:5], ([[1, 1, 0], [0, 1, 0], [0, 0, 0]],) * 2)
    )
    pairs = [(m, build_lattice(m, enumerate_t_families(m))) for m in models]
    loops2 = fixtures.loops2()
    singleton = EnumerationResult(((loops2.full,) * 4,), 1, "T")
    pairs.append((loops2, build_lattice(loops2, singleton)))
    return pairs


def test_json_export_is_byte_identical_to_json_dumps():
    pairs = export_lattices()
    assert pairs[-1][1].cover_edges == ()
    assert '"cover_edges": [],' in export_json(pairs[-1][1])
    for model, lat in pairs:
        doc = reference_doc(model, lat)
        assert export_json(lat) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        families = [family_to_doc(model, fam) for _, fam in lat.nodes]
        for d in [doc, *families]:
            compact = json.dumps(d, sort_keys=True, separators=(",", ":"))
            assert canonical_json(d) == compact
        # node ids are the fingerprints of the family documents
        for (nid, _), family in zip(lat.nodes, families):
            assert nid == fingerprint(family)
        # the family documents of one rendering share no list of names
        docs = render_families(model, [fam for _, fam in lat.nodes])
        assert docs == [family["sets"] for family in families]
        lists = [id(names) for sets in docs for names in sets.values()]
        assert len(set(lists)) == len(lists)


DOT_LABEL = re.compile(r'^  "[0-9a-f]{16}" \[label="((?:[^"\\]|\\.)*)"\];$')


def test_dot_labels_escape_quotes_and_backslashes():
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    model = KGraphSkeleton(('a"b', "c\\d", "\u00e9"), (identity,))
    dot = export_dot(build_lattice(model, enumerate_t_families(model)))
    labels = [line for line in dot.splitlines() if "[label=" in line]
    assert labels and all(DOT_LABEL.match(line) for line in labels)
    assert '[label="():{a\\"b,c\\\\d,\u00e9} 1:{a\\"b,c\\\\d,\u00e9}"];' in dot


def dot_labels(model):
    lat = build_lattice(model, enumerate_t_families(model))
    labels = [
        DOT_LABEL.match(line).group(1)
        for line in export_dot(lat).splitlines()
        if "[label=" in line
    ]
    assert len(labels) == len(lat.nodes)
    return labels


def test_dot_labels_distinct_for_odd_vertex_names():
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    # joined bare, {a, b} and {"a,b"} would both read "1:{a,b}"
    labels = dot_labels(KGraphSkeleton(("a", "b", "a,b"), (identity,)))
    assert len(set(labels)) == len(labels) == 27
    assert "1:{a,b}" in labels and '1:{\\"a,b\\"}' in labels
    # bare names may hold a quote, but a leading one would mimic quoting
    labels = dot_labels(KGraphSkeleton(('"a', 'b"', "a,b"), (identity,)))
    assert len(set(labels)) == len(labels) == 27
    # empty and space-holding names are quoted too
    labels = dot_labels(KGraphSkeleton(("", "x y", "z"), (identity,)))
    assert '1:{\\"\\",\\"x y\\",z}' in labels
