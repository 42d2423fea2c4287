"""Finite dynamical-system backend.

A model is ``rank`` pairwise-commuting partial self-maps of a finite point
set.  Each map ``T_i`` acts on the function algebra over the points by
composition on its domain and zero elsewhere, which is the general form of a
*-endomorphism of a finite commutative algebra in the chosen point basis.
The semigroup property over multi-indices is enforced by generator
commutation alone, since the free abelian monoid is determined by its
generators.  The model's ``deps`` are the preimages: ``deps[i - 1][v]`` is
the set of points that ``T_i`` sends to ``v``.  The document keys are
``points`` and ``maps``; the constructor checks each map's keys and
targets, and that the maps commute.

Commutation is checked in the strong pointwise sense: for every pair of
directions and every point, the two composites must be both undefined or
both defined with equal values.  ``_first_clash`` is that one test: validation
raises from it, and the exhaustive corpus enumeration in
:mod:`giideals.crossval` calls it once per unordered pair of candidate maps,
to build the pair table its tuples are read from.
"""

from __future__ import annotations

from .core import DirectionModel, InvalidInputError


class PartialMapSystem(DirectionModel):
    """Commuting partial self-maps of a finite point set.

    ``maps`` is one mapping per direction, sending a point name to its image
    name; absent or ``None`` entries mean the map is undefined there.
    """

    kind, names_key, entries_key, entry_noun = "dynsys", "points", "maps", "partial map"

    def __init__(self, points, maps):
        maps = tuple(maps)
        self._init_base(len(maps), points)
        n = self.vertex_count
        images: list[tuple[int | None, ...]] = []
        deps = []  # preimages: deps[i-1][v] = {w : T_i(w) = v}
        for i, m in enumerate(maps, start=1):
            if not isinstance(m, dict):
                raise InvalidInputError(f"map {i} must be a point -> point mapping")
            for key in m:
                if key not in self._index:
                    raise InvalidInputError(f"map {i} defined at unknown point {key!r}")
            row: list[int | None] = []
            preimages = [0] * n
            bit = 1
            for name in self.vertex_names:
                target = m.get(name)
                if target is None:
                    row.append(None)
                elif isinstance(target, str) and target in self._index:
                    t = self._index[target]
                    row.append(t)
                    preimages[t] |= bit
                else:
                    raise InvalidInputError(
                        f"map {i} sends {name!r} to unknown point {target!r}"
                    )
                bit <<= 1
            images.append(tuple(row))
            deps.append(tuple(preimages))
        self.images = tuple(images)
        _check_commuting(self.images, self.vertex_names)
        self.deps = tuple(deps)

    def _entries(self) -> list:
        return [_map_entry(self.vertex_names, img) for img in self.images]


def _map_entry(names, img):
    """The document entry of an image tuple: point name to image name."""
    return {names[w]: names[t] for w, t in enumerate(img) if t is not None}


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

