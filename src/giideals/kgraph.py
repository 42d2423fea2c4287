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
"""

from __future__ import annotations

from .core import DirectionModel, InvalidInputError, VertexSet, _is_int

SKELETON_NOTE = "skeleton-level model"


class KGraphSkeleton(DirectionModel):
    """Commuting adjacency matrices over a finite vertex set."""

    def __init__(self, vertices, adjacency):
        matrices = tuple(tuple(tuple(row) for row in mat) for mat in adjacency)
        self._init_base(len(matrices), vertices)
        n = self.vertex_count
        for i, mat in enumerate(matrices, start=1):
            if len(mat) != n or any(len(row) != n for row in mat):
                raise InvalidInputError(
                    f"matrix {i} is not {n}x{n} for the given vertex list"
                )
            for row in mat:
                for x in row:
                    if not _is_int(x):
                        raise InvalidInputError(
                            f"matrix {i} has a non-integer entry {x!r}"
                        )
                    if x < 0:
                        raise InvalidInputError(
                            f"matrix {i} has a negative entry {x}"
                        )
        _check_commuting(matrices, self.vertex_names)
        self.adjacency = matrices
        # source supports: deps[i-1][v] = {w : M_i[v][w] > 0}
        self.deps = tuple(
            tuple(
                sum(1 << w for w in range(n) if mat[v][w] > 0) for v in range(n)
            )
            for mat in matrices
        )
        self.note = SKELETON_NOTE if self.rank >= 3 else None

    def to_doc(self) -> dict:
        return {
            "kind": "kgraph",
            "rank": self.rank,
            "vertices": list(self.vertex_names),
            "adjacency": [[list(row) for row in mat] for mat in self.adjacency],
        }


def _check_commuting(matrices, names) -> None:
    n = len(names)

    def mul(a, b):
        return [
            [sum(a[v][x] * b[x][w] for x in range(n)) for w in range(n)]
            for v in range(n)
        ]

    for i in range(len(matrices)):
        for j in range(i + 1, len(matrices)):
            ij = mul(matrices[i], matrices[j])
            ji = mul(matrices[j], matrices[i])
            if ij != ji:
                v, w = next(
                    (v, w) for v in range(n) for w in range(n) if ij[v][w] != ji[v][w]
                )
                raise InvalidInputError(
                    f"matrices {i + 1} and {j + 1} do not commute: path counts "
                    f"from {names[v]!r} to {names[w]!r} are {ij[v][w]} vs {ji[v][w]}"
                )


def load_kgraph(doc) -> KGraphSkeleton:
    """Build and validate a skeleton from its JSON document."""
    if not isinstance(doc, dict) or doc.get("kind") != "kgraph":
        raise InvalidInputError('expected a document with "kind": "kgraph"')
    for key in ("rank", "vertices", "adjacency"):
        if key not in doc:
            raise InvalidInputError(f"kgraph document missing {key!r}")
    vertices = doc["vertices"]
    adjacency = doc["adjacency"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise InvalidInputError('"vertices" must be a list of names')
    if not _is_int(doc["rank"]):
        raise InvalidInputError('"rank" must be an integer')
    if not isinstance(adjacency, list) or len(adjacency) != doc["rank"]:
        raise InvalidInputError('"adjacency" must list one matrix per direction')
    try:
        model = KGraphSkeleton(vertices, adjacency)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, InvalidInputError):
            raise
        raise InvalidInputError(f"malformed adjacency data: {exc}") from None
    return model


def successors(model: KGraphSkeleton, v, i: int) -> VertexSet:
    """Source vertices of the degree-``i`` paths out of ``v``.

    ``v`` may be a vertex name or an index.
    """
    if isinstance(v, str):
        v = model.vertex_index(v)
    if not isinstance(v, int) or not 0 <= v < model.vertex_count:
        raise InvalidInputError(f"vertex index {v!r} out of range")
    if not 1 <= i <= model.rank:
        raise InvalidInputError(f"direction {i!r} out of range 1..{model.rank}")
    return model.deps[i - 1][v]
