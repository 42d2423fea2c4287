"""Finite dynamical-system backend.

A model is ``rank`` pairwise-commuting partial self-maps of a finite point
set.  Each map ``T_i`` acts on the function algebra over the points by
composition on its domain and zero elsewhere, which is the general form of a
*-endomorphism of a finite commutative algebra in the chosen point basis.
The semigroup property over multi-indices is enforced by generator
commutation alone, since the free abelian monoid is determined by its
generators.  The model's ``deps`` are the preimages: ``deps[i - 1][v]`` is
the set of points that ``T_i`` sends to ``v``.

Commutation is checked in the strong pointwise sense: for every pair of
directions and every point, the two composites must be both undefined or
both defined with equal values.  ``_first_clash`` is that one test: validation
raises from it, and the exhaustive corpus enumeration in
:mod:`giideals.crossval` filters with it.
"""

from __future__ import annotations

from .core import DirectionModel, InvalidInputError, _is_int


class PartialMapSystem(DirectionModel):
    """Commuting partial self-maps of a finite point set.

    ``maps`` is one mapping per direction, sending a point name to its image
    name; absent or ``None`` entries mean the map is undefined there.
    """

    def __init__(self, points, maps):
        maps = tuple(maps)
        self._init_base(len(maps), points)
        n = self.vertex_count
        images: list[tuple[int | None, ...]] = []
        for i, m in enumerate(maps, start=1):
            if not isinstance(m, dict):
                raise InvalidInputError(f"map {i} must be a point -> point mapping")
            for key in m:
                if key not in self._index:
                    raise InvalidInputError(f"map {i} defined at unknown point {key!r}")
            row: list[int | None] = []
            for name in self.vertex_names:
                target = m.get(name)
                if target is None:
                    row.append(None)
                elif isinstance(target, str) and target in self._index:
                    row.append(self._index[target])
                else:
                    raise InvalidInputError(
                        f"map {i} sends {name!r} to unknown point {target!r}"
                    )
            images.append(tuple(row))
        self.images = tuple(images)
        _check_commuting(self.images, self.vertex_names)
        # preimages: deps[i-1][v] = {w : T_i(w) = v}
        self.deps = tuple(
            tuple(
                sum(1 << w for w in range(n) if img[w] == v) for v in range(n)
            )
            for img in self.images
        )
        self.note = None

    def to_doc(self) -> dict:
        maps = []
        for img in self.images:
            maps.append(
                {
                    self.vertex_names[w]: self.vertex_names[img[w]]
                    for w in range(self.vertex_count)
                    if img[w] is not None
                }
            )
        return {
            "kind": "dynsys",
            "rank": self.rank,
            "points": list(self.vertex_names),
            "maps": maps,
        }


def _first_clash(f, g):
    """The first point, in index order, where ``f . g`` and ``g . f`` differ,
    as ``(v, fg_v, gf_v)``; ``None`` when the maps commute.  ``f`` and ``g``
    are image tuples, ``None`` meaning undefined.
    """
    for v, (fv, gv) in enumerate(zip(f, g)):
        fg = None if gv is None else f[gv]
        gf = None if fv is None else g[fv]
        if fg != gf:
            return v, fg, gf
    return None


def _check_commuting(images, names) -> None:
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            clash = _first_clash(images[i], images[j])
            if clash is not None:
                v, ij, ji = (
                    "undefined" if w is None else repr(names[w]) for w in clash
                )
                raise InvalidInputError(
                    f"maps {i + 1} and {j + 1} do not commute at point "
                    f"{v}: composites give {ij} vs {ji}"
                )


def load_dynsys(doc) -> PartialMapSystem:
    """Build and validate a system from its JSON document."""
    if not isinstance(doc, dict) or doc.get("kind") != "dynsys":
        raise InvalidInputError('expected a document with "kind": "dynsys"')
    for key in ("rank", "points", "maps"):
        if key not in doc:
            raise InvalidInputError(f"dynsys document missing {key!r}")
    points = doc["points"]
    maps = doc["maps"]
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise InvalidInputError('"points" must be a list of names')
    if not _is_int(doc["rank"]):
        raise InvalidInputError('"rank" must be an integer')
    if not isinstance(maps, list) or len(maps) != doc["rank"]:
        raise InvalidInputError('"maps" must list one partial map per direction')
    return PartialMapSystem(points, maps)
