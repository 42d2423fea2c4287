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

The nodes' families are rendered together, by
:func:`giideals.modelio.render_families`, each distinct vertex set once:
a node id is the fingerprint of its family document, so ids are stable
across runs, and both exports read its ``sets``, whose keys are in
canonical direction-set order.  Exports are byte-stable for a given input.

The JSON export lays out its one fixed document shape directly: string
leaves go through the C encoder :func:`json.encoder.encode_basestring_ascii`,
each node id and each distinct family entry once per export.  The text is
``json.dumps(doc, sort_keys=True, indent=2)``, byte for byte (whose
``indent`` always takes the pure-Python encoder).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

from .core import (
    DirectionModel,
    IdealFamily,
    InternalConsistencyError,
    InvalidInputError,
    _phi_lookup,
)
from .families import EnumerationResult, _close, family_sort_key, is_t_family
from .modelio import render_families


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
    first and the top last.  A repeated down-set, a first family not below
    all, a last family other than all-V or a missing cover is an enumerator
    bug: an internal-consistency error, not an input error.
    """
    fams = sorted(result.families, key=family_sort_key(model))
    if not fams:
        raise InvalidInputError("cannot build a lattice from an empty enumeration")
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

    sets, ids = render_families(model, fams, with_ids=True)
    # edges by lower node, then by canonical index of the upper node
    edges = [(ids[a], ids[b]) for a, u in enumerate(ups) for b in sorted(u)]
    return LatticeGraph(
        rank=model.rank,
        vertex_names=model.vertex_names,
        nodes=tuple(zip(ids, fams)),
        cover_edges=tuple(edges),
        bottom=ids[0],
        top=ids[-1],
        sets=tuple(sets),
    )


def _shown_name(name: str) -> str:
    """A vertex name as a label shows it: quoted, with ``\\`` and ``"``
    escaped, when it is empty, begins with ``"`` or holds ``,``, ``{``,
    ``}`` or a space, so distinct families never read alike."""
    if name and name[0] != '"' and set(name).isdisjoint(",{} "):
        return name
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _node_label(sets: dict[str, list[str]], quoted: dict[str, str]) -> str:
    """Compact family notation: nonempty entries as "F:{v,..}", "()" for the
    empty direction set, names in ``quoted`` replaced by their quoted form;
    the all-empty family reads "all-empty".  Escaped for a quoted DOT
    string."""
    if quoted:
        sets = {f: [quoted.get(n, n) for n in names] for f, names in sets.items()}
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
    # usually empty, and then labels join the names as they are
    quoted = {n: q for n in lattice.vertex_names if (q := _shown_name(n)) != n}
    for (nid, _), sets in zip(lattice.nodes, lattice.sets):
        lines.append(f'  "{nid}" [label="{_node_label(sets, quoted)}"];')
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


def _node(quoted_id: str, sets: dict[str, list[str]], entries: dict) -> str:
    """One ``nodes`` entry at its depth: ``family`` (keys sorted), quoted ``id``;
    each distinct ``label: names`` entry rendered once into ``entries``."""
    family = []
    for label, names in sorted(sets.items()):
        key = (label, *names)
        text = entries.get(key)
        if text is None:
            block = _block(map(_quote, names), "        ")
            text = entries[key] = f"{_quote(label)}: {block}"
        family.append(text)
    family_text = _block(family, "      ", "{}")
    return f'{{\n      "family": {family_text},\n      "id": {quoted_id}\n    }}'


def export_json(lattice: LatticeGraph) -> str:
    """JSON mirror of the lattice fields, stable for a given input: keys
    sorted, two-space indent, ASCII only."""
    entries: dict[tuple[str, ...], str] = {}
    quoted = {nid: _quote(nid) for nid, _ in lattice.nodes}
    nodes = [
        _node(quoted[nid], sets, entries)
        for (nid, _), sets in zip(lattice.nodes, lattice.sets)
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
