"""Finite higher-rank-graph backend.

A model is a coloured skeleton: ``rank`` pairwise-commuting nonnegative
integer adjacency matrices over one finite vertex set, entry ``M_i[v][w]``
counting the degree-``i`` paths with range ``v`` and source ``w``.  Only the
counts are stored, never factorisation data: every quantity the family
calculus needs depends on the per-vertex source sets alone, and those are
determined by the commuting matrices.

The model's ``deps`` are these source sets: ``deps[i - 1][v]`` is the
support of row ``v`` of ``M_i``.  Multiplicities larger than one are
accepted and kept for fidelity of the input, but only supports matter to
the inverse-image operators.  For rank three and above, commuting matrices
are accepted even though not every such tuple arises from an actual
coloured-graph factorisation; validation flags these as skeleton-level
models.

Duplicate vertex names are rejected (matrices are indexed positionally).
The document keys are ``vertices`` and ``adjacency``; the constructor
checks each matrix's shape and entries, and that the matrices commute.

This module owns the commutation test for matrices, ``_first_clash``.
Validation calls it on each pair of a model's matrices.  The exhaustive
corpus enumeration in :mod:`giideals.crossval` calls it once per unordered
pair of candidate matrices, to build the pair table its tuples are read
from.  The random-model generator there squares its seed matrix with
``_matmul``.
"""

from __future__ import annotations

from .core import DirectionModel, InvalidInputError, _is_int

SKELETON_NOTE = "skeleton-level model"


class KGraphSkeleton(DirectionModel):
    """Commuting adjacency matrices over a finite vertex set."""

    kind, names_key, entries_key, entry_noun = "kgraph", "vertices", "adjacency", "matrix"

    def __init__(self, vertices, adjacency):
        matrices = tuple(tuple(tuple(row) for row in mat) for mat in adjacency)
        self._init_base(len(matrices), vertices)
        n = self.vertex_count
        deps = []  # source supports: deps[i-1][v] = {w : M_i[v][w] > 0}
        for i, mat in enumerate(matrices, start=1):
            if len(mat) != n or any(len(row) != n for row in mat):
                raise InvalidInputError(
                    f"matrix {i} is not {n}x{n} for the given vertex list"
                )
            supports = []
            for row in mat:
                support, bit = 0, 1
                for x in row:
                    if not _is_int(x):
                        raise InvalidInputError(
                            f"matrix {i} has a non-integer entry {x!r}"
                        )
                    if x < 0:
                        raise InvalidInputError(
                            f"matrix {i} has a negative entry {x}"
                        )
                    if x:
                        support |= bit
                    bit <<= 1
                supports.append(support)
            deps.append(tuple(supports))
        _check_commuting(matrices, self.vertex_names)
        self.adjacency = matrices
        self.deps = tuple(deps)
        self.note = SKELETON_NOTE if self.rank >= 3 else None

    def _entries(self) -> list:
        return [[list(row) for row in mat] for mat in self.adjacency]


def _matmul(a, b):
    """The product ``a b`` of two square matrices given as rows."""
    n = len(a)
    return [
        [sum(a[v][x] * b[x][w] for x in range(n)) for w in range(n)]
        for v in range(n)
    ]


def _first_clash(a, b):
    """The first entry, in row-major order, where ``a b`` and ``b a`` differ,
    as ``(v, w, ab_vw, ba_vw)``; ``None`` when the matrices commute.  Entries
    are computed one at a time, so a clash stops before either full product.
    """
    n = len(a)
    for v in range(n):
        for w in range(n):
            ab = sum(a[v][x] * b[x][w] for x in range(n))
            ba = sum(b[v][x] * a[x][w] for x in range(n))
            if ab != ba:
                return v, w, ab, ba
    return None


def _check_commuting(matrices, names) -> None:
    for i in range(len(matrices)):
        for j in range(i + 1, len(matrices)):
            clash = _first_clash(matrices[i], matrices[j])
            if clash is not None:
                v, w, ij, ji = clash
                raise InvalidInputError(
                    f"matrices {i + 1} and {j + 1} do not commute: path counts "
                    f"from {names[v]!r} to {names[w]!r} are {ij} vs {ji}"
                )

