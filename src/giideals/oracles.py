"""Independent brute-force and bounded oracles.

Everything here recomputes a quantity of the main code path by a different,
deliberately naive route.  The main implementations never call into this
module; it exists to be disagreed with.
"""

from __future__ import annotations

import itertools

from .core import (
    DirectionModel,
    IdealFamily,
    InvalidInputError,
    VertexSet,
    free_directions,
    phi_n,
    submasks,
)
from .dynsys import PartialMapSystem
from .kgraph import KGraphSkeleton


def lpi_by_bounded_intersection(
    model: DirectionModel, k0: VertexSet, f: int
) -> VertexSet:
    """Intersection of composite inverse images of ``k0`` over all degrees
    supported outside ``f`` with every coordinate at most ``|V|``.

    The per-coordinate bound suffices: the decreasing fixed-point iteration
    stabilises within ``|V|`` strict steps, and its stage ``m`` equals the
    intersection over degrees of total size at most ``m``.
    """
    free = free_directions(model, f)
    bound = model.vertex_count
    out = k0
    for exps in itertools.product(range(bound + 1), repeat=len(free)):
        degree = [0] * model.rank
        for i, e in zip(free, exps):
            degree[i - 1] = e
        out &= phi_n(model, k0, degree)
    return out


def lpi_by_subset_search(model: DirectionModel, k0: VertexSet, f: int) -> VertexSet:
    """Largest subset of ``k0`` closed under the free directions, found by
    checking every subset.  Exponential; keep to tiny models."""
    if model.vertex_count > 10:
        raise InvalidInputError("subset-search oracle limited to 10 vertices")
    free = free_directions(model, f)
    best = 0
    sub = k0
    while True:
        if all(sub & ~model.phi(i, sub) == 0 for i in free):
            # closed subsets are closed under union, so the maximum is unique
            best |= sub
        if sub == 0:
            return best
        sub = (sub - 1) & k0


def lim_by_bounded_degrees(model: DirectionModel, subset: VertexSet, f: int) -> VertexSet:
    """Direct eventual-containment test with bounded degrees.

    A vertex is accepted iff some degree ``n`` supported outside ``f`` with
    coordinates at most ``B = 2**|V|`` has the vertex inside every composite
    inverse image at degrees ``n <= m <= n + B`` (coordinatewise).  The box
    suffices because each direction acts as a function on the ``2**|V|``
    subsets, so orbits have preperiod plus period at most ``B``.
    """
    free = free_directions(model, f)
    b = 1 << model.vertex_count
    grid: dict[tuple[int, ...], int] = {(0,) * len(free): subset}

    def image_at(exps) -> int:
        got = grid.get(exps)
        if got is not None:
            return got
        for pos in range(len(exps)):
            if exps[pos]:
                prev = exps[:pos] + (exps[pos] - 1,) + exps[pos + 1 :]
                val = model.phi(free[pos], image_at(prev))
                grid[exps] = val
                return val
        raise AssertionError("unreachable")

    out = 0
    for start in itertools.product(range(b + 1), repeat=len(free)):
        acc = model.full
        for offset in itertools.product(range(b + 1), repeat=len(free)):
            exps = tuple(s + o for s, o in zip(start, offset))
            acc &= image_at(exps)
            if acc == 0:
                break
        out |= acc
        if out == model.full:
            break
    return out


def xf_by_direct_degrees(model: DirectionModel, subset: VertexSet, f: int) -> VertexSet:
    """Inverse-image intersection over nonzero 0/1 degrees, no sharing."""
    out = model.full
    for sub in submasks(f):
        if sub == 0:
            continue
        degree = [1 if sub >> (i - 1) & 1 else 0 for i in range(1, model.rank + 1)]
        out &= phi_n(model, subset, degree)
    return out


def t_families_by_filter(model: DirectionModel) -> tuple[IdealFamily, ...]:
    """Every family over the model graded by the public fixed-point check.

    Full sweep over all ``(2**|V|)**(2**rank)`` candidates; keep to tiny
    models.
    """
    from .families import family_sort_key, is_t_family

    nmasks = 1 << model.rank
    if (1 << model.vertex_count) ** nmasks > 1 << 22:
        raise InvalidInputError("brute-force family sweep too large")
    out = [
        fam
        for fam in itertools.product(range(1 << model.vertex_count), repeat=nmasks)
        if is_t_family(model, fam).verdict
    ]
    out.sort(key=family_sort_key(model))
    return tuple(out)


def join_by_upper_bounds(model: DirectionModel, a, b) -> IdealFamily:
    """Meet of every enumerated fixed-point family above ``a | b``.

    The enumerated set is meet-closed and contains the all-V family, so this
    is the least such family; for two valid families it is their join.  The
    arguments may be any families over the model; ``a == b`` gives the
    least fixed-point family above ``a``.
    """
    from .families import enumerate_t_families

    union = tuple(x | y for x, y in zip(a, b))
    uppers = [
        fam
        for fam in enumerate_t_families(model).families
        if all(u & ~s == 0 for u, s in zip(union, fam))
    ]
    out = uppers[0]
    for fam in uppers[1:]:
        out = tuple(x & y for x, y in zip(out, fam))
    return out


def phi_n_by_matrix_powers(
    model: KGraphSkeleton, subset: VertexSet, degree
) -> VertexSet:
    """Composite inverse image computed from the support of the matrix-power
    product instead of operator composition."""
    degree = tuple(degree)
    if len(degree) != model.rank:
        raise InvalidInputError("degree length must equal the rank")
    n = model.vertex_count

    def mul(a, b):
        return [
            [sum(a[v][x] * b[x][w] for x in range(n)) for w in range(n)]
            for v in range(n)
        ]

    prod = [[1 if v == w else 0 for w in range(n)] for v in range(n)]
    for i, e in enumerate(degree):
        for _ in range(e):
            prod = mul(prod, [list(row) for row in model.adjacency[i]])
    out = 0
    for v in range(n):
        reach = sum(1 << w for w in range(n) if prod[v][w] > 0)
        if reach & ~subset == 0:
            out |= 1 << v
    return out


def transitive_reduction_naive(families, le) -> list[tuple[int, int]]:
    """Cover pairs of a finite order by the cubic textbook loop."""
    m = len(families)
    edges = []
    for a in range(m):
        for b in range(m):
            if a == b or not le(families[a], families[b]):
                continue
            if any(
                c != a
                and c != b
                and le(families[a], families[c])
                and le(families[c], families[b])
                for c in range(m)
            ):
                continue
            edges.append((a, b))
    return edges


def _source_sets(model: DirectionModel) -> list[list[VertexSet]]:
    """``out[i - 1][v]``: the sources of the degree-``i`` edges with range
    ``v``, read off the input data, not the model's ``deps``: for a
    k-graph ``{w : M_i[v][w] > 0}``, for a dynamical system
    ``{w : T_i(w) = v}``."""
    n = model.vertex_count
    if isinstance(model, KGraphSkeleton):
        return [
            [sum(1 << w for w in range(n) if mat[v][w] > 0) for v in range(n)]
            for mat in model.adjacency
        ]
    if isinstance(model, PartialMapSystem):
        return [
            [sum(1 << w for w in range(n) if img[w] == v) for v in range(n)]
            for img in model.images
        ]
    raise InvalidInputError("source sets need a k-graph or a dynamical system")


def is_locally_convex(model: DirectionModel) -> bool:
    """Raeburn-Sims-Yeend local convexity: whenever ``v`` receives edges of
    two distinct degrees ``i`` and ``j``, every source of a degree-``i``
    edge at ``v`` receives a degree-``j`` edge."""
    src = _source_sets(model)
    vertices = range(model.vertex_count)
    return not any(
        src[i][v] and src[j][v] and src[i][v] >> w & 1 and not src[j][w]
        for i, j in itertools.permutations(range(model.rank), 2)
        for v in vertices
        for w in vertices
    )


def hereditary_saturated_sets(model: DirectionModel) -> list[VertexSet]:
    """Every hereditary saturated vertex set, ascending, by checking every
    subset.  Hereditary: ``v in H`` implies ``src_i(v) <= H``.  Saturated:
    ``v`` is in ``H`` when, for some ``i``, ``src_i(v)`` is nonempty and
    inside ``H``.  For a locally convex model these parametrise the
    gauge-invariant ideals of its Cuntz-Krieger algebra (Raeburn, Sims and
    Yeend, Proc. Edinb. Math. Soc. 46 (2003), Thm 5.2)."""
    src = _source_sets(model)
    vertices = range(model.vertex_count)
    return [
        h
        for h in range(model.full + 1)
        if all(not h >> v & 1 or s[v] & ~h == 0 for s in src for v in vertices)
        and all(h >> v & 1 or not s[v] or s[v] & ~h for s in src for v in vertices)
    ]
