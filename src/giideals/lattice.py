"""Family lattices: cover structure, DOT and JSON export.

Nodes are enumerated families.  Each node's family is rendered once, by
:func:`giideals.modelio.family_to_doc`: the node id is the fingerprint of
that document, so ids are stable across runs, and both exports read its
``sets``, whose keys are in canonical direction-set order.  Cover edges are
the transitive reduction of pointwise containment.  Exports are byte-stable
for a given input.

The JSON export lays out its one fixed document shape directly, string
leaves through the C encoder :func:`json.encoder.encode_basestring_ascii`,
and is byte-identical to ``json.dumps(doc, sort_keys=True, indent=2)``
(whose ``indent`` always takes the pure-Python encoder).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

from .core import (
    DirectionModel,
    IdealFamily,
    InternalConsistencyError,
    InvalidInputError,
)
from .families import EnumerationResult, family_sort_key
from .modelio import family_to_doc, fingerprint


@dataclass(frozen=True)
class LatticeGraph:
    """Hasse diagram of a family set, with payloads and extremes.

    ``sets`` holds, per node, the ``sets`` of its family document; the node
    id is the fingerprint of that document.  ``sets`` is derived from
    ``nodes``, so it takes no part in equality or hashing.
    """

    rank: int
    vertex_names: tuple[str, ...]
    nodes: tuple[tuple[str, IdealFamily], ...]  # (node id, family), canonical order
    cover_edges: tuple[tuple[str, str], ...]  # (lower id, upper id)
    bottom: str
    top: str
    sets: tuple[dict[str, list[str]], ...] = field(compare=False)

    def family_of(self, node_id: str) -> IdealFamily:
        for nid, fam in self.nodes:
            if nid == node_id:
                return fam
        raise InvalidInputError(f"unknown node id {node_id!r}")


def build_lattice(model: DirectionModel, result: EnumerationResult) -> LatticeGraph:
    """Cover structure of an enumeration, with meet-closure verified.

    A missing pairwise meet means a checker or enumerator bug, so it raises
    an internal-consistency error rather than an input error.

    Each family is packed into one int (the entry at mask ``m`` shifted by
    ``m * |V|``), so containment and meets are single int operations.  Every
    node gets bitmasks of its strict upper and lower bounds, by node index;
    ``b`` covers ``a`` iff ``b`` is above ``a`` and nothing is strictly
    between, i.e. ``up[a] & down[b] == 0``.
    """
    fams = list(result.families)
    if not fams:
        raise InvalidInputError("cannot build a lattice from an empty enumeration")
    fams.sort(key=lambda fam: family_sort_key(model, fam))
    width = model.vertex_count
    packed = [sum(s << (m * width) for m, s in enumerate(fam)) for fam in fams]
    packed_set = set(packed)
    if len(packed_set) != len(fams):
        raise InternalConsistencyError("duplicate families in enumeration result")

    up = [0] * len(fams)
    down = [0] * len(fams)
    for a_i, pa in enumerate(packed):
        for b_i in range(a_i + 1, len(fams)):
            m = pa & packed[b_i]
            if m not in packed_set:
                raise InternalConsistencyError(
                    "family set is not closed under pointwise intersection"
                )
            # canonical order extends containment: a later family is never
            # strictly below an earlier one, so only ``a <= b`` can hold
            if m == pa:
                up[a_i] |= 1 << b_i
                down[b_i] |= 1 << a_i

    docs = [family_to_doc(model, fam) for fam in fams]
    ids = [fingerprint(doc) for doc in docs]

    edges = []
    for a_i, above in enumerate(up):
        rest = above
        while rest:
            low = rest & -rest
            b_i = low.bit_length() - 1
            if above & down[b_i] == 0:
                edges.append((ids[a_i], ids[b_i]))
            rest ^= low

    bottoms = [i for i, below in enumerate(down) if not below]
    tops = [i for i, above in enumerate(up) if not above]
    if len(bottoms) != 1 or len(tops) != 1:
        raise InternalConsistencyError("family set has no unique bottom or top")
    top_fam = fams[tops[0]]
    if any(s != model.full for s in top_fam):
        raise InternalConsistencyError("top of the family set is not the all-V family")

    return LatticeGraph(
        rank=model.rank,
        vertex_names=model.vertex_names,
        nodes=tuple(zip(ids, fams)),
        cover_edges=tuple(edges),
        bottom=ids[bottoms[0]],
        top=ids[tops[0]],
        sets=tuple(doc["sets"] for doc in docs),
    )


def _node_label(sets: dict[str, list[str]]) -> str:
    """Compact family notation: nonempty entries as "F:{v,..}", "()" for the
    empty direction set; the all-empty family reads "all-empty".  Escaped
    for a quoted DOT string."""
    parts = [
        f"{label or '()'}:{{{','.join(names)}}}"
        for label, names in sets.items()
        if names
    ]
    text = " ".join(parts) if parts else "all-empty"
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _height(fam: IdealFamily) -> int:
    return sum(s.bit_count() for s in fam)


def export_dot(lattice: LatticeGraph) -> str:
    """Graphviz digraph, edges lower -> upper, rank hints by family height."""
    lines = ["digraph family_lattice {", "  rankdir=BT;", '  node [shape=box];']
    for (nid, _), sets in zip(lattice.nodes, lattice.sets):
        lines.append(f'  "{nid}" [label="{_node_label(sets)}"];')
    for lo, hi in lattice.cover_edges:
        lines.append(f'  "{lo}" -> "{hi}";')
    by_height: dict[int, list[str]] = {}
    for nid, fam in lattice.nodes:
        by_height.setdefault(_height(fam), []).append(nid)
    for h in sorted(by_height):
        if len(by_height[h]) > 1:
            row = "; ".join(f'"{nid}"' for nid in by_height[h])
            lines.append(f"  {{ rank=same; {row}; }}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _block(items, indent: str, brackets: str = "[]") -> str:
    """A JSON array (or, with ``"{}"``, object) of encoded items, one per
    line below ``indent``; the layout of ``json.dumps(..., indent=2)``."""
    inner = indent + "  "
    # an encoded item is never empty, so an empty body means no items
    body = (",\n" + inner).join(items)
    return f"{brackets[0]}\n{inner}{body}\n{indent}{brackets[1]}" if body else brackets


def _node(nid: str, sets: dict[str, list[str]]) -> str:
    """One ``nodes`` entry at its depth: ``family`` (keys sorted), ``id``."""
    family = [
        f"{_quote(label)}: {_block(map(_quote, names), '        ')}"
        for label, names in sorted(sets.items())
    ]
    family_text = _block(family, "      ", "{}")
    return f'{{\n      "family": {family_text},\n      "id": {_quote(nid)}\n    }}'


def export_json(lattice: LatticeGraph) -> str:
    """JSON mirror of the lattice fields, stable for a given input: keys
    sorted, two-space indent, ASCII only."""
    nodes = [_node(nid, sets) for (nid, _), sets in zip(lattice.nodes, lattice.sets)]
    edges = [_block([_quote(lo), _quote(hi)], "    ") for lo, hi in lattice.cover_edges]
    fields = [
        f'"bottom": {_quote(lattice.bottom)}',
        f'"cover_edges": {_block(edges, "  ")}',
        f'"nodes": {_block(nodes, "  ")}',
        f'"rank": {lattice.rank}',
        f'"top": {_quote(lattice.top)}',
        f'"vertices": {_block(map(_quote, lattice.vertex_names), "  ")}',
    ]
    return _block(fields, "", "{}") + "\n"
