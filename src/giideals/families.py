"""Membership checks and enumeration for the parametrising families.

A family assigns one vertex set to every set of directions.  The checks
grade a family against the defining conditions of the two published
characterisations of gauge-invariant-ideal parameters (the per-direction
fixed-point equations on one side, the invariant/ordered/absorbing tuple
conditions on the other), plus the relative variants that pin a lower-bound
family.  Enumeration walks the direction-set lattice top-down, pruning with
greatest fixed points.  Joins go the other way: the equations split into
Horn rules, and the least family above a given one is their closure.

"Consists of ideals" is automatic here: under the subset duality every
vertex set is an ideal of the function algebra, so no check carries that
clause.  Witness reporting always returns the first violation in canonical
order (direction sets ordered by popcount then value) so that failures are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    BudgetExceededError,
    DirectionModel,
    IdealFamily,
    InternalConsistencyError,
    InvalidInputError,
    _gfp_meet,
    _phi_lookup,
    canonical_masks,
    check_family,
    direction_covers,
    i_family,
    inv_set,
    jf_of,
    largest_perp_invariant,
    lim_set,
    mask_label,
)
from .modelio import family_to_doc

#: Candidate evaluations allowed per enumeration before giving up.
DEFAULT_BUDGET = 2_000_000

VIOLATIONS = (
    "invariance",
    "partial_order",
    "condition_i",
    "t_equation",
    "nt_condition_iv",
    "containment",
)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a family check.

    ``verdict`` is true iff ``violated_condition`` is ``None``.  ``witness``
    locates the first violation in canonical order.  ``conditions`` is only
    populated by the tuple check and maps each of its numbered conditions to
    "pass", "fail" or "not evaluated".
    """

    verdict: bool
    violated_condition: str | None = None
    witness: dict | None = None
    conditions: dict[str, str] | None = None

    def to_doc(self) -> dict:
        doc = {
            "verdict": self.verdict,
            "violated_condition": self.violated_condition,
            "witness": self.witness,
        }
        if self.conditions is not None:
            doc["conditions"] = self.conditions
        return doc


@dataclass(frozen=True)
class EnumerationResult:
    """Canonically ordered, duplicate-free list of families."""

    families: tuple[IdealFamily, ...]
    count: int
    mode: str  # "T" | "O" | "relative_O"
    stats: dict = field(default_factory=dict, compare=False)

    def to_doc(self, model: DirectionModel) -> dict:
        return {
            "mode": self.mode,
            "count": self.count,
            "families": [family_to_doc(model, fam)["sets"] for fam in self.families],
        }


def family_sort_key(model: DirectionModel, fam: IdealFamily):
    """Concatenated-bitmask key; direction masks in canonical order."""
    return tuple(fam[m] for m in canonical_masks(model.rank))


def enumeration_result(
    model: DirectionModel,
    families,
    lower: IdealFamily | None = None,
    stats: dict | None = None,
) -> EnumerationResult:
    """The families sorted canonically.  Mode is "T" without a bound, "O"
    when the bound is the model's canonical family (so the result
    parametrises the boundary quotient), "relative_O" otherwise.  ``stats``
    is read after ``families`` is consumed, so it may be the generator's."""
    fams = sorted(families, key=lambda fam: family_sort_key(model, fam))
    if lower is None:
        mode = "T"
    else:
        mode = "O" if tuple(lower) == i_family(model) else "relative_O"
    return EnumerationResult(tuple(fams), len(fams), mode, stats or {})


# ---------------------------------------------------------------------------
# checks


def is_invariant(model: DirectionModel, family) -> CheckReport:
    """Every entry closed under every direction outside its index set.

    Checking the generator directions is enough: containment composes, so
    closure under each free generator gives closure under every degree
    supported outside the index set.
    """
    fam = check_family(model, family)
    for f, i, _ in direction_covers(model.rank):
        subset = fam[f]
        escaped = subset & ~model._phi(i, subset)
        if escaped:
            v = (escaped & -escaped).bit_length() - 1
            return CheckReport(
                False,
                "invariance",
                {"F": mask_label(f), "i": i, "vertex": model.vertex_names[v]},
            )
    return CheckReport(True)


def is_partially_ordered(family, model: DirectionModel | None = None) -> CheckReport:
    """Monotone over the direction-set lattice (checked on covers)."""
    fam = tuple(family)
    nmasks = len(fam)
    rank = nmasks.bit_length() - 1
    if nmasks != 1 << rank:
        raise InvalidInputError(f"family length {nmasks} is not a power of two")
    for f, _, up in direction_covers(rank):
        missing = fam[f] & ~fam[up]
        if missing:
            vertices = [v for v in range(missing.bit_length()) if missing >> v & 1]
            if model is not None:
                vertices = [model.vertex_names[v] for v in vertices]
            return CheckReport(
                False,
                "partial_order",
                {"F1": mask_label(f), "F2": mask_label(up), "vertices": vertices},
            )
    return CheckReport(True)


def is_t_family(model: DirectionModel, family) -> CheckReport:
    """Fixed point of the per-direction equations.

    For every proper direction set F and free direction i, the entry at F
    must equal the inverse image of itself intersected with the entry at
    F + i.
    """
    fam = check_family(model, family)
    for f, i, up in direction_covers(model.rank):
        subset = fam[f]
        rhs = model._phi(i, subset) & fam[up]
        if rhs != subset:
            return CheckReport(
                False,
                "t_equation",
                {
                    "F": mask_label(f),
                    "i": i,
                    "difference": list(model.names_of_set(rhs ^ subset)),
                },
            )
    return CheckReport(True)


def is_nt_tuple(model: DirectionModel, family) -> CheckReport:
    """The invariant/ordered/absorbing tuple characterisation.

    Conditions, evaluated in order with the first failure reported:

    i.   every nonempty entry lies inside the division ideal of the empty
         entry for its direction set;
    ii.  the family is invariant;
    iii. the family is partially ordered;
    iv.  for every proper nonempty F, the triple meet of the invariant core
         of the division ideal, the invariant core of the strict-superset
         meet, and the eventual-containment set of the entry at F, lies
         inside the entry at F.

    Condition iv is evaluated only when i-iii hold (its eventual-containment
    simplification presupposes invariance); the report marks it
    "not evaluated" otherwise.
    """
    fam = check_family(model, family)
    conditions = {"i": "not evaluated", "ii": "not evaluated",
                  "iii": "not evaluated", "iv": "not evaluated"}

    def fail(cond_key, violated, witness):
        conditions[cond_key] = "fail"
        return CheckReport(False, violated, witness, dict(conditions))

    h0 = fam[0]
    for f in canonical_masks(model.rank):
        if f == 0:
            continue
        outside = fam[f] & ~jf_of(model, h0, f)
        if outside:
            return fail(
                "i",
                "condition_i",
                {"F": mask_label(f), "vertices": list(model.names_of_set(outside))},
            )
    conditions["i"] = "pass"

    inv = is_invariant(model, fam)
    if not inv.verdict:
        return fail("ii", "invariance", inv.witness)
    conditions["ii"] = "pass"

    po = is_partially_ordered(fam, model)
    if not po.verdict:
        return fail("iii", "partial_order", po.witness)
    conditions["iii"] = "pass"

    for f in canonical_masks(model.rank):
        if f == 0 or f == model.full_directions:
            continue
        bound = largest_perp_invariant(model, jf_of(model, h0, f), f)
        absorbed = bound & inv_set(model, fam, f) & lim_set(model, fam[f], f)
        outside = absorbed & ~fam[f]
        if outside:
            return fail(
                "iv",
                "nt_condition_iv",
                {"F": mask_label(f), "vertices": list(model.names_of_set(outside))},
            )
    conditions["iv"] = "pass"
    return CheckReport(True, conditions=dict(conditions))


def is_relative_o_family(model: DirectionModel, family, k_family) -> CheckReport:
    """A fixed-point family containing the given lower-bound family."""
    fam = check_family(model, family)
    bound = check_family(model, k_family)
    t_report = is_t_family(model, fam)
    if not t_report.verdict:
        return t_report
    for f in canonical_masks(model.rank):
        missing = bound[f] & ~fam[f]
        if missing:
            return CheckReport(
                False,
                "containment",
                {"F": mask_label(f), "vertices": list(model.names_of_set(missing))},
            )
    return CheckReport(True)


# ---------------------------------------------------------------------------
# enumeration


def iter_t_families(
    model: DirectionModel,
    lower: IdealFamily | None = None,
    budget: int | None = DEFAULT_BUDGET,
    top_choices=None,
    stats: dict | None = None,
):
    """Lazily yield the families satisfying the per-direction equations.

    Walks direction sets from the full set down to the empty set.  Given the
    chosen entries at every strict superset, the viable entries at F are
    fixed points of the monotone map
    ``S -> AND_i (phi(i, S) & chosen[F + i])`` over free directions i, all of
    which lie below its greatest fixed point; subsets of the gfp are tried
    and kept when they satisfy each per-direction equation.  Every completed
    family is verified against the per-direction equations again before
    being yielded.

    ``lower`` restricts the search to families containing it.  ``budget``
    bounds the number of candidate evaluations.  ``top_choices`` is any
    iterable of entries at the full direction set, such as a slice of
    ``range(1 << n)`` (the default); each top spends one candidate, so the
    counts of disjoint slices add up.  ``stats`` (if given) accumulates
    the counters.
    """
    phi = _phi_lookup(model)
    rank = model.rank
    nmasks = 1 << rank
    full_dirs = nmasks - 1
    equations = [(f, phi[i - 1], up) for f, i, up in direction_covers(rank)]
    covers_of: list[list] = [[] for _ in range(nmasks)]
    for f, p, up in equations:
        covers_of[f].append((p, up))
    if lower is not None:
        lower = check_family(model, lower)
    if stats is None:
        stats = {}
    stats.setdefault("candidates", 0)
    stats.setdefault("found", 0)

    masks_desc = sorted(range(nmasks), key=lambda m: (-m.bit_count(), m))
    tops = range(1 << model.vertex_count) if top_choices is None else top_choices
    chosen = [0] * nmasks

    def spend():
        stats["candidates"] += 1
        if budget is not None and stats["candidates"] > budget:
            raise BudgetExceededError(
                "enumeration budget exceeded", dict(stats, budget=budget)
            )

    def candidates(f):
        lb = lower[f] if lower is not None else 0
        if f == full_dirs:
            for s in tops:
                spend()
                if lb & ~s == 0:
                    yield s
            return
        uppers = [(p, chosen[up]) for p, up in covers_of[f]]
        # greatest fixed point of the pruning map: the greatest subset of
        # the upper entries' meet that every free phi row keeps
        meet_up = model.full
        for _, upper in uppers:
            meet_up &= upper
        g = _gfp_meet([p for p, _ in uppers], meet_up)
        if lb & ~g:
            return
        loose = g & ~lb
        sub = loose
        while True:
            s = lb | sub
            spend()
            if all(p[s] & upper == s for p, upper in uppers):
                yield s
            if sub == 0:
                return
            sub = (sub - 1) & loose

    def descend(idx):
        if idx == nmasks:
            fam = tuple(chosen)
            if all(p[fam[f]] & fam[fi] == fam[f] for f, p, fi in equations):
                stats["found"] += 1
                yield fam
            return
        f = masks_desc[idx]
        for s in candidates(f):
            chosen[f] = s
            yield from descend(idx + 1)

    yield from descend(0)


def enumerate_t_families(
    model: DirectionModel, budget: int | None = DEFAULT_BUDGET
) -> EnumerationResult:
    """All families satisfying the per-direction equations, canonical order."""
    stats: dict = {}
    return enumeration_result(
        model, iter_t_families(model, budget=budget, stats=stats), stats=stats
    )


def enumerate_relative_o(
    model: DirectionModel, k_family, budget: int | None = DEFAULT_BUDGET
) -> EnumerationResult:
    """All fixed-point families containing ``k_family``, canonical order,
    with the mode :func:`enumeration_result` names."""
    bound = check_family(model, k_family)
    stats: dict = {}
    fams = iter_t_families(model, lower=bound, budget=budget, stats=stats)
    return enumeration_result(model, fams, bound, stats)


# ---------------------------------------------------------------------------
# lattice operations


def meet(f1, f2, model: DirectionModel | None = None) -> IdealFamily:
    """Pointwise intersection.

    The fixed-point equations intersect (the operators preserve
    intersections), so the meet of two valid families is again one; when a
    model is supplied both inputs and the output are checked.
    """
    a, b = tuple(f1), tuple(f2)
    if len(a) != len(b):
        raise InvalidInputError("families have different lengths")
    out = tuple(x & y for x, y in zip(a, b))
    if model is not None:
        for fam, who in ((a, "left"), (b, "right")):
            if not is_t_family(model, fam).verdict:
                raise InvalidInputError(f"{who} argument is not a valid family")
        if not is_t_family(model, out).verdict:
            raise InternalConsistencyError("meet of two valid families failed the check")
    return out


def t_closure(model: DirectionModel, family) -> IdealFamily:
    """Least family satisfying the per-direction equations above ``family``.

    Each equation ``H_F = phi(i, H_F) & H_{F+i}`` splits into three Horn
    rules over the atoms "vertex v lies in the entry at F":

    * ``H_F <= H_{F+i}``;
    * ``v in H_F`` implies ``dep_i(v) <= H_F``;
    * ``phi(i, H_F) & H_{F+i} <= H_F``;

    where ``phi(i, H) = {v : dep_i(v) <= H}`` and ``dep_i`` is
    ``model.deps[i - 1]``.  The rules only ever add vertices, so iterating
    them to a fixed point gives the least closed family, the all-V family
    being closed.
    """
    fam = list(check_family(model, family))
    steps = [
        (f, up, i, model.deps[i - 1]) for f, i, up in direction_covers(model.rank)
    ]
    changed = True
    while changed:
        changed = False
        for f, up, i, dep in steps:
            s = fam[f]
            t = s
            for v in range(s.bit_length()):
                if s >> v & 1:
                    t |= dep[v]
            t |= model._phi(i, t) & fam[up]
            if t != s:
                fam[f] = t
                changed = True
            if t & ~fam[up]:
                fam[up] |= t
                changed = True
    return tuple(fam)


def join(model: DirectionModel, f1, f2) -> IdealFamily:
    """Least family above both arguments.

    The closure (:func:`t_closure`) of the pointwise union: the family set
    is meet-closed and contains the all-V family, so the least upper bound
    is the least fixed point above the union.  No enumeration is involved,
    so there is no budget.  Both inputs and the output are checked.
    """
    a = check_family(model, f1)
    b = check_family(model, f2)
    for fam, who in ((a, "left"), (b, "right")):
        if not is_t_family(model, fam).verdict:
            raise InvalidInputError(f"{who} argument is not a valid family")
    out = t_closure(model, tuple(x | y for x, y in zip(a, b)))
    if not is_t_family(model, out).verdict:
        raise InternalConsistencyError("closure of the union failed the check")
    return out
