"""Vertex-set calculus over finite direction models.

A *direction model* is a finite vertex set together with ``rank`` commuting
inverse-image operators, one per direction.  Subsets of the vertex set stand
for ideals of the function algebra over the vertices: every subset gives an
ideal, the annihilator of an ideal is the set complement, and all norm
conditions collapse to 0/1 membership tests.  The whole ideal arithmetic used
by the family checkers therefore reduces to bit operations.

Representation conventions, shared across the package:

* a vertex set is an ``int`` bitmask over vertex indices (bit ``v`` set means
  vertex ``v`` is a member);
* a set of directions ``F`` within ``{1, .., k}`` is an ``int`` bitmask with
  bit ``i - 1`` standing for direction ``i``;
* a multidegree is a tuple of ``k`` nonnegative ints;
* an ideal family is a tuple of ``2**k`` vertex sets indexed by direction
  mask (a total map from direction sets to vertex sets).

All operations are pure functions of immutable inputs.  A model never mutates
after construction (aside from idempotent caching of lookup tables), so it is
safe to share across concurrent workers.
"""

from __future__ import annotations

import functools
from typing import Iterator

#: Vertex sets are fixed-width bitmasks; larger models are rejected at load.
#: This is a desk-scale tool and every enumeration is exponential anyway.
MAX_VERTICES = 64

#: Tables over all 2**|V| subsets are only materialised below this size.
_TABLE_LIMIT = 16

#: Candidate evaluations allowed per enumeration before giving up.
DEFAULT_BUDGET = 2_000_000

VertexSet = int
SubsetMask = int
IdealFamily = tuple[int, ...]


class InvalidInputError(ValueError):
    """A document, argument or index failed validation."""


class BudgetExceededError(RuntimeError):
    """An enumeration, sampling or retry budget ran out, or a valid model is
    too large for subset tables (:meth:`DirectionModel.phi_table`, stats
    ``{"vertices": n, "table_limit": 16}``).

    ``stats`` carries partial-progress counters for diagnostics.
    """

    def __init__(self, message: str, stats: dict | None = None):
        super().__init__(message)
        self.stats = dict(stats or {})


class InternalConsistencyError(RuntimeError):
    """A structural invariant that should be unbreakable failed.

    Seeing this means a checker or enumerator bug, not bad user input.
    """


# ---------------------------------------------------------------------------
# direction-mask helpers


def mask_of(directions, rank: int) -> SubsetMask:
    """Bitmask for an iterable of 1-based direction indices."""
    out = 0
    for i in directions:
        if not 1 <= i <= rank:
            raise InvalidInputError(f"direction {i} out of range 1..{rank}")
        out |= 1 << (i - 1)
    return out


def mask_members(mask: SubsetMask) -> tuple[int, ...]:
    """1-based direction indices of a mask, ascending."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


@functools.cache
def mask_label(mask: SubsetMask) -> str:
    """Serialized form of a direction set: comma-joined sorted elements;
    memoised."""
    return ",".join(str(i) for i in mask_members(mask))


def label_to_mask(label: str, rank: int) -> SubsetMask:
    if label == "":
        return 0
    try:
        parts = [int(p) for p in label.split(",")]
    except ValueError:
        raise InvalidInputError(f"bad direction-set label {label!r}") from None
    if parts != sorted(set(parts)):
        raise InvalidInputError(f"direction-set label {label!r} not canonical")
    return mask_of(parts, rank)


@functools.cache
def canonical_masks(rank: int) -> tuple[SubsetMask, ...]:
    """All direction masks ordered by (popcount, numeric value); memoised."""
    return tuple(sorted(range(1 << rank), key=lambda m: (m.bit_count(), m)))


@functools.cache
def direction_covers(rank: int) -> tuple[tuple[SubsetMask, int, SubsetMask], ...]:
    """Every cover ``(f, i, f | 1 << (i - 1))`` of the direction-set lattice,
    ordered by ``f`` in canonical order, then by free direction ``i``
    ascending; memoised.  The checkers walk covers in this order, so their
    first witness is deterministic."""
    return tuple(
        (f, i, f | 1 << (i - 1))
        for f in canonical_masks(rank)
        for i in range(1, rank + 1)
        if not f >> (i - 1) & 1
    )


def submasks(mask: SubsetMask) -> Iterator[SubsetMask]:
    """All submasks of ``mask``, descending, ending with 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


# ---------------------------------------------------------------------------
# the model interface


class DirectionModel:
    """Finite vertex set with ``rank`` commuting inverse-image operators.

    Subclasses validate their input, set ``deps``, name their document format
    in the class attributes below and list its per-direction ``_entries``.
    ``deps[i - 1][v]`` is the vertex set that ``v``'s membership in
    ``phi(i, .)`` depends on, so that ``phi(i, H) = {v : deps[i - 1][v] <= H}``.
    Every such operator is monotone and preserves intersections; the
    subclasses must keep the operators commuting.  The test suite checks
    these invariants exhaustively on small instances:

    * monotone: ``H <= H'`` implies ``phi(i, H) <= phi(i, H')``;
    * intersection-preserving: ``phi(i, H & H') == phi(i, H) & phi(i, H')``;
    * commuting: ``phi(i, phi(j, H)) == phi(j, phi(i, H))``.
    """

    rank: int
    vertex_names: tuple[str, ...]
    vertex_count: int
    full: VertexSet  # the whole vertex set
    full_directions: SubsetMask  # all ``rank`` directions
    deps: tuple[tuple[VertexSet, ...], ...]
    kind: str  # the document's "kind"
    names_key: str  # the key listing the vertex names
    entries_key: str  # the key listing one entry per direction
    entry_noun: str  # what one direction's entry is called in messages
    note: str | None = None  # a caveat ``validate`` reports

    def _init_base(self, rank: int, vertex_names) -> None:
        names = tuple(str(n) for n in vertex_names)
        if rank < 1:
            raise InvalidInputError(f"rank must be >= 1, got {rank}")
        if not names:
            raise InvalidInputError("model needs at least one vertex")
        if len(names) > MAX_VERTICES:
            raise InvalidInputError(
                f"at most {MAX_VERTICES} vertices supported, got {len(names)}"
            )
        if len(set(names)) != len(names):
            dup = sorted(n for n in set(names) if names.count(n) > 1)
            raise InvalidInputError(f"duplicate vertex names: {dup}")
        self.rank = rank
        self.vertex_names = names
        self.vertex_count = len(names)
        self.full = (1 << len(names)) - 1
        self.full_directions = (1 << rank) - 1
        self._index = {n: v for v, n in enumerate(names)}
        self._phi_tables: dict[int, list[int]] = {}

    def vertex_index(self, name: str) -> int:
        if not isinstance(name, str) or name not in self._index:
            raise InvalidInputError(f"unknown vertex name {name!r}")
        return self._index[name]

    def set_of_names(self, names) -> VertexSet:
        out = 0
        for n in names:
            bit = 1 << self.vertex_index(n)
            if out & bit:
                raise InvalidInputError(f"vertex {n!r} listed twice")
            out |= bit
        return out

    def names_of_set(self, subset: VertexSet) -> tuple[str, ...]:
        """Members of a vertex set in canonical (index) order."""
        _check_subset(self, subset)
        return tuple(
            self.vertex_names[v] for v in range(self.vertex_count) if subset >> v & 1
        )

    def _phi(self, i: int, subset: VertexSet) -> VertexSet:
        """Inverse-image operator for direction ``i`` (1-based), unvalidated."""
        out = 0
        bit = 1
        for dep in self.deps[i - 1]:
            if dep & ~subset == 0:
                out |= bit
            bit <<= 1
        return out

    def phi(self, i: int, subset: VertexSet) -> VertexSet:
        _check_direction(self, i)
        _check_subset(self, subset)
        return self._phi(i, subset)

    def phi_table(self, i: int) -> list[int]:
        """Lookup table of ``phi(i, .)`` over every subset; cached.

        The one owner of the table limit: above 16 vertices it raises
        :class:`BudgetExceededError` with stats ``{"vertices": n,
        "table_limit": 16}`` (the model itself is valid).  Every subset table
        is built from these, so each stops the same way.
        """
        _check_direction(self, i)
        table = self._phi_tables.get(i)
        if table is None:
            n = self.vertex_count
            if n > _TABLE_LIMIT:
                raise BudgetExceededError(
                    f"subset tables limited to {_TABLE_LIMIT} vertices; "
                    f"model has {n}",
                    {"vertices": n, "table_limit": _TABLE_LIMIT},
                )
            table = [self._phi(i, h) for h in range(1 << n)]
            self._phi_tables[i] = table
        return table

    def to_doc(self) -> dict:
        """The model document :func:`giideals.modelio.load_model` reads."""
        return {
            "kind": self.kind,
            "rank": self.rank,
            self.names_key: list(self.vertex_names),
            self.entries_key: self._entries(),
        }


def _check_subset(model: DirectionModel, subset: int) -> None:
    if not isinstance(subset, int) or subset < 0 or subset > model.full:
        raise InvalidInputError(
            f"vertex set {subset!r} does not fit a model with "
            f"{model.vertex_count} vertices"
        )


def _check_direction(model: DirectionModel, i: int) -> None:
    if not isinstance(i, int) or not 1 <= i <= model.rank:
        raise InvalidInputError(f"direction {i!r} out of range 1..{model.rank}")


def _check_fmask(model, f: int, *, nonempty=False, proper=False) -> None:
    if not isinstance(f, int) or f < 0 or f > model.full_directions:
        raise InvalidInputError(f"direction set {f!r} out of range for rank {model.rank}")
    if nonempty and f == 0:
        raise InvalidInputError("direction set must be non-empty here")
    if proper and f == model.full_directions:
        raise InvalidInputError("direction set must be proper here")


def check_family(model: DirectionModel, family) -> IdealFamily:
    """Validate a family: total over all 2**rank masks, sets in range."""
    fam = tuple(family)
    if len(fam) != 1 << model.rank:
        raise InvalidInputError(
            f"family must have {1 << model.rank} entries, got {len(fam)}"
        )
    for subset in fam:
        _check_subset(model, subset)
    return fam


def _is_int(value) -> bool:
    """An ``int`` and not a ``bool``: JSON ``true`` loads as a ``bool``,
    which Python counts as the integer 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def free_directions(model: DirectionModel, f: SubsetMask) -> tuple[int, ...]:
    """1-based directions outside the direction set ``f``."""
    return tuple(i for i in range(1, model.rank + 1) if not f >> (i - 1) & 1)


class _PhiRow:
    """``row[s] == model._phi(i, s)`` without a table behind it."""

    __slots__ = ("model", "i")

    def __init__(self, model: DirectionModel, i: int):
        self.model = model
        self.i = i

    def __getitem__(self, subset: int) -> int:
        return self.model._phi(self.i, subset)


def _phi_lookup(model: DirectionModel) -> list:
    """Per-direction phi rows, indexed ``rows[i - 1][s] == phi(i, s)``.

    The rows are the model's cached phi tables wherever
    :meth:`DirectionModel.phi_table` builds them; where it refuses (its one
    table limit) each row is a thin :class:`_PhiRow` that computes ``_phi``
    per lookup, so callers index either kind the same way.
    """
    try:
        return [model.phi_table(i) for i in range(1, model.rank + 1)]
    except BudgetExceededError:
        return [_PhiRow(model, i) for i in range(1, model.rank + 1)]


def _gfp_meet(rows, k0: VertexSet) -> VertexSet:
    """Greatest subset of ``k0`` closed under every phi row (``row[s] ==
    phi(i, s)``): the greatest fixed point of ``S -> k0 & AND row[S]``."""
    s = k0
    while True:
        t = s
        for row in rows:
            t &= row[s]
        if t == s:
            return s
        s = t


def _lfp_join(rows, k0: VertexSet) -> VertexSet:
    """Least fixed point of ``S -> k0 | OR row[S]`` over phi rows."""
    s = k0
    while True:
        t = k0
        for row in rows:
            t |= row[s]
        if t == s:
            return s
        s = t


# ---------------------------------------------------------------------------
# the derived operators


def phi_n(model: DirectionModel, subset: VertexSet, degree) -> VertexSet:
    """Composite inverse image along a multidegree.

    Order of composition is irrelevant because the per-direction operators
    commute; the zero degree is the identity.
    """
    _check_subset(model, subset)
    degree = tuple(degree)
    if len(degree) != model.rank or any(e < 0 for e in degree):
        raise InvalidInputError(
            f"degree {degree!r} invalid for a rank-{model.rank} model"
        )
    out = subset
    for i, e in enumerate(degree, start=1):
        for _ in range(e):
            out = model._phi(i, out)
    return out


def ker_phi(model: DirectionModel, i: int) -> VertexSet:
    """Vertices killed by direction ``i``; equals the image of the empty set."""
    _check_direction(model, i)
    return model._phi(i, 0)


def j_family(model: DirectionModel) -> IdealFamily:
    """Joint-kernel-annihilator family.

    Entry at ``F`` is the complement of the vertices killed by every
    direction in ``F``; the empty direction set maps to the empty set.
    """
    kers = [ker_phi(model, i) for i in range(1, model.rank + 1)]
    full = model.full
    out = [0] * (1 << model.rank)
    for f in range(1, 1 << model.rank):
        joint = full
        for i in range(model.rank):
            if f >> i & 1:
                joint &= kers[i]
        out[f] = full & ~joint
    return tuple(out)


def largest_perp_invariant(
    model: DirectionModel, k0: VertexSet, f: SubsetMask
) -> VertexSet:
    """Greatest subset of ``k0`` closed under every direction outside ``f``.

    Greatest fixed point of the monotone map ``S -> k0 & AND_i phi(i, S)``
    over directions ``i`` outside ``f``; the decreasing iteration from ``k0``
    reaches it in at most ``|V|`` steps.  Equivalently, the intersection of
    all composite inverse images of ``k0`` along degrees supported outside
    ``f`` (the bounded-intersection oracle in :mod:`giideals.oracles` checks
    this equivalence on small models).  The loop is :func:`_gfp_meet`,
    shared with the sweep tables, here over rows that compute ``_phi``.
    """
    _check_subset(model, k0)
    _check_fmask(model, f)
    return _gfp_meet([_PhiRow(model, i) for i in free_directions(model, f)], k0)


def i_family(model: DirectionModel) -> IdealFamily:
    """Largest perpendicular-invariant restriction of :func:`j_family`.

    The partially ordered family whose quotient defines the canonical
    boundary relations; entry at the empty direction set is empty.
    """
    jf = j_family(model)
    return tuple(
        largest_perp_invariant(model, jf[f], f) for f in range(1 << model.rank)
    )


def xf_inverse(model: DirectionModel, subset: VertexSet, f: SubsetMask) -> VertexSet:
    """Intersection of inverse images over all nonzero 0/1 degrees inside ``f``.

    The one recurrence for it, since ``phi(i, .)`` preserves intersections:
    peel the lowest direction ``i`` off ``f``, leaving ``r``; then
    ``xf(f) = xf(r) & phi(i, h) & phi(i, xf(r))``, with ``xf(empty) = V``.
    :func:`division_tables` runs it over every subset; the naive subset
    composition lives in :func:`giideals.oracles.xf_by_direct_degrees`.
    """
    _check_subset(model, subset)
    _check_fmask(model, f, nonempty=True)
    out = model.full
    for i in reversed(mask_members(f)):
        out &= model._phi(i, subset) & model._phi(i, out)
    return out


def division_tables(
    model: DirectionModel,
) -> tuple[dict[SubsetMask, list[VertexSet]], dict[SubsetMask, list[VertexSet]]]:
    """Tables ``(xf, jf)`` of :func:`xf_inverse` and :func:`jf_of` over every
    subset, keyed by nonempty direction set: ``xf[f][h] == xf_inverse(model,
    h, f)`` and ``jf[f][h] == jf_of(model, h, f)``.

    The recurrence of :func:`xf_inverse` over every subset at once, each
    row built from its rest-mask's row.  Built from the phi tables, so a
    model above 16 vertices raises :class:`BudgetExceededError` from
    :meth:`DirectionModel.phi_table`.  Built per call, not cached on the
    model, so the tables live only as long as the caller holds them.
    """
    phis = [model.phi_table(i) for i in range(1, model.rank + 1)]
    size = 1 << model.vertex_count
    full = model.full
    xf: dict[SubsetMask, list[VertexSet]] = {}
    for f in canonical_masks(model.rank)[1:]:
        low = (f & -f).bit_length() - 1
        rest = f & ~(1 << low)
        pl = phis[low]
        if rest == 0:
            xf[f] = pl
        else:
            xr = xf[rest]
            xf[f] = [xr[h] & pl[h] & pl[xr[h]] for h in range(size)]
    jf = {f: [(~x & full) | h for h, x in enumerate(row)] for f, row in xf.items()}
    return xf, jf


def jf_of(model: DirectionModel, subset: VertexSet, f: SubsetMask) -> VertexSet:
    """Division ideal of a vertex set in the directions of ``f``.

    In the commutative setting a vertex divides ``subset`` against
    :func:`xf_inverse` exactly when it lies outside the inverse-image
    intersection or already inside ``subset``; point masses at distinct
    vertices multiply to zero.
    """
    return (model.full & ~xf_inverse(model, subset, f)) | subset


def inv_set(model: DirectionModel, family, f: SubsetMask) -> VertexSet:
    """Perpendicular-invariant core of the meet of all strict supersets of ``f``."""
    fam = check_family(model, family)
    _check_fmask(model, f, nonempty=True, proper=True)
    k0 = model.full
    for d in range(1 << model.rank):
        if d != f and d & f == f:
            k0 &= fam[d]
    return largest_perp_invariant(model, k0, f)


def lim_set(model: DirectionModel, subset: VertexSet, f: SubsetMask) -> VertexSet:
    """Vertices eventually always inside the inverse images of ``subset``.

    Contract: a vertex is in the result iff there is a degree ``n`` supported
    outside ``f`` such that the vertex lies in ``phi_n(subset, m)`` for every
    ``m >= n`` supported outside ``f``.

    Computed as the least fixed point of ``S -> K | OR_i phi(i, S)`` over the
    free directions, starting from ``K = largest_perp_invariant(subset, f)``.
    Why this is exact on a finite model: the operators preserve intersections
    and the subset lattice is finite, so ``phi_n(K, n)`` equals the
    intersection of ``phi_n(subset, m)`` over all ``m >= n`` supported
    outside ``f``; since ``K`` is closed under the free directions, the
    family ``phi_n(K, n)`` increases along the directed order of degrees, and
    its union -- the set described by the contract -- is what the iteration
    reaches.  The bounded-degree oracle in :mod:`giideals.oracles` checks the
    contract directly on small models.  Both loops (:func:`_gfp_meet`,
    :func:`_lfp_join`) are shared with the sweep tables.
    """
    _check_subset(model, subset)
    _check_fmask(model, f, nonempty=True, proper=True)
    rows = [_PhiRow(model, i) for i in free_directions(model, f)]
    return _lfp_join(rows, _gfp_meet(rows, subset))
