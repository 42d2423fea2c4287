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

from operator import itemgetter
from typing import NamedTuple

from .core import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    DirectionModel,
    IdealFamily,
    InternalConsistencyError,
    InvalidInputError,
    _PhiRow,
    _Record,
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
    submasks,
)
from .modelio import render_families

VIOLATIONS = (
    "invariance",
    "partial_order",
    "condition_i",
    "t_equation",
    "nt_condition_iv",
    "containment",
)


class CheckReport(NamedTuple):
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


class EnumerationResult(_Record):
    """Canonically ordered, duplicate-free list of families.  ``mode`` is
    "T", "O" or "relative_O"; ``stats`` (a new dict by default) takes no
    part in equality or hashing."""

    __slots__ = ("families", "count", "mode", "stats")
    _compared = ("families", "count", "mode")

    def __init__(
        self,
        families: tuple[IdealFamily, ...],
        count: int,
        mode: str,
        stats: dict | None = None,
    ):
        _Record.__init__(self, families, count, mode, {} if stats is None else stats)

    def to_doc(self, model: DirectionModel) -> dict:
        return {
            "mode": self.mode,
            "count": self.count,
            "families": render_families(model, self.families)[0],
        }


def family_sort_key(model: DirectionModel):
    """Canonical order's sort key for the model's families: the entries as
    one tuple, direction masks in canonical order (at least two masks, so
    always a tuple)."""
    return itemgetter(*canonical_masks(model.rank))


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
    fams = sorted(families, key=family_sort_key(model))
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


def is_partially_ordered(model: DirectionModel, family) -> CheckReport:
    """Monotone over the direction-set lattice (checked on covers)."""
    fam = check_family(model, family)
    for f, _, up in direction_covers(model.rank):
        missing = fam[f] & ~fam[up]
        if missing:
            return CheckReport(
                False,
                "partial_order",
                {
                    "F1": mask_label(f),
                    "F2": mask_label(up),
                    "vertices": list(model.names_of_set(missing)),
                },
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

    po = is_partially_ordered(model, fam)
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
    budget: int = DEFAULT_BUDGET,
    stats: dict | None = None,
):
    """Lazily yield the families satisfying the per-direction equations.

    One candidate loop over an explicit stack walks the direction sets from
    the full set down to the empty set, one frame per direction set, so no
    rank recurses.  Given the chosen entries at every strict superset, the
    viable entries at F are fixed points of the monotone map
    ``S -> AND_i (phi(i, S) & chosen[F + i])`` over free directions i, all
    of which lie below its greatest fixed point: F's frame tries the gfp's
    subsets above ``lower[F]``, and each that satisfies every equation at F
    pushes the next direction set's frame.  The full set's frame tries
    every vertex subset, skipping those not above ``lower``.  At the empty
    set a kept candidate completes a family, which is yielded: each
    equation was checked in its direction set's frame, against upper
    entries that stay fixed while that frame is live.

    ``lower`` restricts the search to families containing it (``None``
    means the all-empty family).  ``budget`` is a positive int bounding the
    number of candidate evaluations: each candidate is counted as it is
    tried, and the one that takes the count past ``budget`` raises.
    ``stats`` (if given) accumulates the ``candidates`` and ``found``
    counters, written before each yield, before the raise and at the end.
    """
    phi = _phi_lookup(model)
    nmasks = 1 << model.rank
    covers_of: list[list] = [[] for _ in range(nmasks)]
    for f, i, up in direction_covers(model.rank):
        covers_of[f].append((phi[i - 1], up))
    lower = (0,) * nmasks if lower is None else check_family(model, lower)
    stats = {} if stats is None else stats
    candidates = stats.setdefault("candidates", 0)
    found = stats.setdefault("found", 0)

    masks_desc = sorted(range(nmasks), key=lambda m: (-m.bit_count(), m))
    chosen = [0] * nmasks
    # frames: (direction set, bound, base, untried candidates, (row, upper) pairs)
    stack = [(nmasks - 1, lower[-1], 0, iter(range(1 << model.vertex_count)), ())]
    while stack:
        f, lb, base, untried, uppers = stack[-1]
        for sub in untried:
            s = base | sub
            candidates += 1
            if candidates > budget:
                stats["candidates"], stats["found"] = candidates, found
                raise BudgetExceededError(
                    f"enumeration tried more than {budget} candidates",
                    dict(stats, budget=budget),
                )
            if lb & ~s:
                continue
            for p, upper in uppers:
                if p[s] & upper != s:
                    break
            else:
                chosen[f] = s
                if f:
                    f = masks_desc[len(stack)]
                    lb = lower[f]
                    uppers = [(p, chosen[up]) for p, up in covers_of[f]]
                    # the pruning map's gfp: below the meet of the upper entries
                    meet_up = model.full
                    for _, upper in uppers:
                        meet_up &= upper
                    g = _gfp_meet([p for p, _ in uppers], meet_up)
                    untried = () if lb & ~g else submasks(g & ~lb)
                    stack.append((f, lb, lb, untried, uppers))
                    break
                found += 1
                stats["candidates"], stats["found"] = candidates, found
                yield tuple(chosen)
        else:
            stack.pop()
    stats["candidates"], stats["found"] = candidates, found


def enumerate_t_families(
    model: DirectionModel, budget: int = DEFAULT_BUDGET
) -> EnumerationResult:
    """All families satisfying the per-direction equations, canonical order."""
    stats: dict = {}
    return enumeration_result(
        model, iter_t_families(model, budget=budget, stats=stats), stats=stats
    )


def enumerate_relative_o(
    model: DirectionModel, k_family, budget: int = DEFAULT_BUDGET
) -> EnumerationResult:
    """All fixed-point families containing ``k_family``, canonical order,
    with the mode :func:`enumeration_result` names."""
    bound = check_family(model, k_family)
    stats: dict = {}
    fams = iter_t_families(model, lower=bound, budget=budget, stats=stats)
    return enumeration_result(model, fams, bound, stats)


# ---------------------------------------------------------------------------
# lattice operations


def meet(model: DirectionModel, f1, f2) -> IdealFamily:
    """Greatest family below both arguments: the pointwise intersection.

    The fixed-point equations intersect (the operators preserve
    intersections), so the meet of two valid families is again one.  Both
    inputs and the output are checked.
    """
    a = check_family(model, f1)
    b = check_family(model, f2)
    for fam, who in ((a, "left"), (b, "right")):
        if not is_t_family(model, fam).verdict:
            raise InvalidInputError(f"{who} argument is not a valid family")
    out = tuple(x & y for x, y in zip(a, b))
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
    being closed.  Rows that compute ``phi`` stand in for its tables, so
    the closure builds none.
    """
    rows = [_PhiRow(model, i) for i in range(1, model.rank + 1)]
    return _close(model, rows, list(check_family(model, family)))


def _close(model: DirectionModel, phi, fam: list[int]) -> IdealFamily:
    """:func:`t_closure`'s fixed-point loop on a checked family, in place,
    over phi rows ``phi[i - 1][s] == phi(i, s)``."""
    steps = [
        (f, up, phi[i - 1], model.deps[i - 1])
        for f, i, up in direction_covers(model.rank)
    ]
    changed = True
    while changed:
        changed = False
        for f, up, row, dep in steps:
            s = fam[f]
            t = s
            for v in range(s.bit_length()):
                if s >> v & 1:
                    t |= dep[v]
            t |= row[t] & fam[up]
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
