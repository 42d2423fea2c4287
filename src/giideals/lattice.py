"""Family lattices: cover structure, DOT and JSON export.

Nodes are enumerated families; cover edges are the transitive reduction of
pointwise containment.  The T-families form a finite distributive lattice
(two closed ideals meet in their product, and the parametrisation is an
order isomorphism), so by Birkhoff's theorem each family ``x`` is fixed by
its down-set ``D(x)``, the join-irreducible families below it, and ``x``
is covered by exactly the families with down-set ``D(x) | j``, for each
``j`` outside ``D(x)`` whose strictly lower join-irreducibles lie in
``D(x)``.  Each join-irreducible is the closure, by
:func:`giideals.families.t_closure`, of a single atom "v in H_F"; the
atoms with closure ``c`` are its generators.  A family strictly below ``c``
holds no generator, and every other atom of ``c`` closes strictly below
``c``, so ``c`` minus its generators is the union of the families below
``c``: ``c`` is join-irreducible exactly when that remainder is a T-family,
which is then its one lower cover.  A T-family lies above ``j`` exactly
when it holds one generator of ``j``.  Atoms are closed supersets first,
each from the closures of the atoms "v in H_{F+i}" above it, which
``H_F <= H_{F+i}`` puts inside its own.  Canonical order extends
containment, so an interval's bottom is its first family and its top its
last.  A family set that is not an interval of the T-family lattice (a
repeated down-set, a first family not below every other, a last family
other than all-V, or a missing cover) raises
:class:`~giideals.core.InternalConsistencyError`: the enumeration, a
top-down greatest-fixed-point search, disagrees with the Horn closure.

A node id is the fingerprint of its family document
(:func:`giideals.modelio.family_ids`), so ids are stable across runs.  The
lattice keeps only the family ints, and each export renders its nodes from
them, each distinct (direction set, vertex set) entry once.  The JSON
export lays out its one document shape directly, string leaves through the
C encoder :func:`json.encoder.encode_basestring_ascii`, to the bytes of
``json.dumps(doc, sort_keys=True, indent=2)``: a node's ``family`` is the
``sets`` of its family document.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from operator import getitem, itemgetter

from .core import (
    DirectionModel,
    IdealFamily,
    InternalConsistencyError,
    InvalidInputError,
    _Record,
    _phi_lookup,
    canonical_masks,
    mask_label,
)
from .families import EnumerationResult, _close, family_sort_key, is_t_family
from .modelio import family_ids


class LatticeGraph(_Record):
    """Hasse diagram of a family set, with payloads and extremes.

    ``nodes`` holds ``(node id, family)`` pairs in canonical order and
    ``cover_edges`` ``(lower id, upper id)`` pairs.  A node id is the
    fingerprint of its family's document (:func:`giideals.modelio.family_ids`).
    """

    __slots__ = ("rank", "vertex_names", "nodes", "cover_edges", "bottom", "top")
    _compared = __slots__

    def __init__(
        self,
        rank: int,
        vertex_names: tuple[str, ...],
        nodes: tuple[tuple[str, IdealFamily], ...],
        cover_edges: tuple[tuple[str, str], ...],
        bottom: str,
        top: str,
    ):
        _Record.__init__(self, rank, vertex_names, nodes, cover_edges, bottom, top)

    def family_of(self, node_id: str) -> IdealFamily:
        for nid, fam in self.nodes:
            if nid == node_id:
                return fam
        raise InvalidInputError(f"unknown node id {node_id!r}")


def _join_irreducibles(model: DirectionModel) -> list[tuple[IdealFamily, int, int]]:
    """The join-irreducible T-families, each as ``(family, m, v)`` with one
    generating atom "v in H_m": the atom closures ``c`` whose remainder,
    ``c`` minus the atoms that close to ``c``, is itself a T-family."""
    nmasks = 1 << model.rank
    phi = _phi_lookup(model)
    closures: dict[tuple[int, int], IdealFamily] = {}
    # supersets first (a strict superset is a larger mask): by H_F <= H_{F+i}
    # the closure of (m, v) holds that of each (m + i, v), so starts from them
    for m in reversed(range(nmasks)):
        ups = [m | 1 << k for k in range(model.rank) if not m >> k & 1]
        for v in range(model.vertex_count):
            start = [0] * nmasks
            for up in ups:
                start = [a | b for a, b in zip(start, closures[up, v])]
            if not start[m] >> v & 1:  # else a closure above holding it is its own
                start[m] |= 1 << v
                start = _close(model, phi, start)
            closures[m, v] = tuple(start)
    gens: dict[IdealFamily, tuple[list[int], int, int]] = {}
    for (m, v), c in sorted(closures.items()):  # J's order: atoms by (m, v)
        g, _, _ = gens.setdefault(c, ([0] * nmasks, m, v))  # first generator kept
        g[m] |= 1 << v
    return [
        (c, m, v)
        for c, (g, m, v) in gens.items()
        if is_t_family(model, [s & ~t for s, t in zip(c, g)]).verdict
    ]


def build_lattice(model: DirectionModel, result: EnumerationResult) -> LatticeGraph:
    """Hasse diagram of an enumeration, checked to be an interval of the
    T-family lattice.

    ``x`` is covered by the families with down-set ``D(x) | j`` (``D(x)``:
    the join-irreducibles ``j <= x``, as a bitmask), one for each ``j``
    outside ``D(x)`` whose strictly lower join-irreducibles lie in ``D(x)``.
    Each ``j`` is an atom closure that is still a T-family less its
    generators (the atoms closing to ``j``); the families are T-families, so
    ``j <= x`` exactly when ``x`` holds the generator recorded with ``j``.
    Canonical order extends containment (where ``a < b`` first differ,
    ``a``'s entry is a proper subset, hence a smaller int), so the bottom is
    first and the top last.  An invalid family is invalid input, found
    first; a repeated down-set, a first family not below all, a last family
    other than all-V or a missing cover is an enumerator bug: an
    internal-consistency error, not an input error.
    """
    fams = result.families
    ids = family_ids(model, fams)  # checks every family first
    nodes = sorted(zip(map(family_sort_key(model), fams), ids, fams))
    if not nodes:
        raise InvalidInputError("cannot build a lattice from an empty enumeration")
    _, ids, fams = zip(*nodes)
    irr = _join_irreducibles(model)
    gens: list[list] = [[] for _ in fams[0]]  # at m: (bit of j, v) for each j at m
    for k, (_, m, v) in enumerate(irr):
        gens[m].append((1 << k, v))

    def downs_of(families) -> list[int]:
        # D(x) as a sum over direction sets; each distinct entry's bits found once
        cols = []
        for at, col in zip(gens, zip(*families)):
            bits = {s: sum(b for b, v in at if s >> v & 1) for s in set(col)}
            cols.append(map(bits.__getitem__, col))
        return list(map(sum, zip(*cols)))

    # (j, D(j)) for each join-irreducible j
    lower = [(1 << k, d) for k, d in enumerate(downs_of(j for j, _, _ in irr))]
    downs = downs_of(fams)
    index = {d: i for i, d in enumerate(downs)}
    # each j whose down-set leaves only j outside D(x) adds D(x) | j, or None
    ups = [[index.get(d | b) for b, dj in lower if dj & ~d == b] for d in downs]
    if (
        len(index) < len(fams)
        or any(downs[0] & ~d for d in downs)
        or any(s != model.full for s in fams[-1])
        or any(None in u for u in ups)
    ):
        raise InternalConsistencyError("family set is not an interval of T-families")

    # edges by lower node, then by canonical index of the upper node
    edges = [(ids[a], ids[b]) for a, u in enumerate(ups) for b in sorted(u)]
    return LatticeGraph(
        rank=model.rank,
        vertex_names=model.vertex_names,
        nodes=tuple(zip(ids, fams)),
        cover_edges=tuple(edges),
        bottom=ids[0],
        top=ids[-1],
    )


def _shown_name(name: str) -> str:
    """A vertex name as a label shows it: quoted, with ``\\`` and ``"``
    escaped, when it is empty, begins with ``"`` or holds ``,``, ``{``,
    ``}`` or a space, so distinct families never read alike."""
    if name and name[0] != '"' and set(name).isdisjoint(",{} "):
        return name
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _entry_texts(lattice: LatticeGraph, shown: list[str], render, entry, by_label=False):
    """A function from a node's family to its entries' texts, in canonical
    order or, ``by_label``, in label order: ``entry(label, text)``, ``text``
    the ``render`` of the ``shown`` names in the vertex set.  Each distinct
    vertex set and (direction set, vertex set) entry is rendered once."""
    labelled = [(mask_label(m), m) for m in canonical_masks(lattice.rank)]
    labelled = sorted(labelled) if by_label else labelled
    columns = [set(col) for col in zip(*(fam for _, fam in lattice.nodes))]
    sets = {
        s: render([n for v, n in enumerate(shown) if s >> v & 1])
        for s in set().union(*columns)
    }
    cols = [{s: entry(f, sets[s]) for s in columns[m]} for f, m in labelled]
    in_order = itemgetter(*(m for _, m in labelled))  # rank >= 1: a tuple
    return lambda fam: map(getitem, cols, in_order(fam))


def export_dot(lattice: LatticeGraph) -> str:
    """Graphviz digraph, edges lower -> upper, rank hints by family height.
    A node's label lists its nonempty entries, "F:{v,..}" with "()" for
    the empty direction set, or reads "all-empty", escaped for a quoted DOT
    string."""
    lines = ["digraph family_lattice {", "  rankdir=BT;", '  node [shape=box];']
    shown = [
        _shown_name(n).replace("\\", "\\\\").replace('"', '\\"')
        for n in lattice.vertex_names
    ]
    # an empty vertex set is left out of the label
    entries = _entry_texts(
        lattice, shown, ",".join, lambda f, text: text and f"{f or '()'}:{{{text}}}"
    )
    for nid, fam in lattice.nodes:
        label = " ".join(filter(None, entries(fam))) or "all-empty"
        lines.append(f'  "{nid}" [label="{label}"];')
    for lo, hi in lattice.cover_edges:
        lines.append(f'  "{lo}" -> "{hi}";')
    by_height: dict[int, list[str]] = {}
    for nid, fam in lattice.nodes:
        by_height.setdefault(sum(map(int.bit_count, fam)), []).append(nid)
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


def export_json(lattice: LatticeGraph) -> str:
    """JSON mirror of the lattice fields, stable for a given input: keys
    sorted, two-space indent, ASCII only; a node is its ``family``, the
    ``sets`` of its family document, and its ``id``."""
    entries = _entry_texts(
        lattice, list(map(_quote, lattice.vertex_names)),
        lambda names: _block(names, "        "), lambda f, block: f"{_quote(f)}: {block}",
        by_label=True,
    )
    quoted = {nid: _quote(nid) for nid, _ in lattice.nodes}
    nodes = [
        f'{{\n      "family": {_block(entries(fam), "      ", "{}")},'
        f'\n      "id": {quoted[nid]}\n    }}'
        for nid, fam in lattice.nodes
    ]
    edges = [_block([quoted[lo], quoted[hi]], "    ") for lo, hi in lattice.cover_edges]
    fields = [
        f'"bottom": {quoted[lattice.bottom]}',
        f'"cover_edges": {_block(edges, "  ")}',
        f'"nodes": {_block(nodes, "  ")}',
        f'"rank": {lattice.rank}',
        f'"top": {quoted[lattice.top]}',
        f'"vertices": {_block(map(_quote, lattice.vertex_names), "  ")}',
    ]
    return _block(fields, "", "{}") + "\n"
