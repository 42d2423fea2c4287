"""Verification harness: corpus sweeps comparing the two family
characterisations, the rank-1 pair oracle, and the supporting property suite.

The sweep compares the per-direction fixed-point check against the
invariant/ordered/absorbing tuple check on every candidate family of a model
(or a seeded, monotone-biased sample once the candidate space passes the
exhaustive ceiling).  Expected discrepancies: none, ever; any report is a
counterexample worth a bug ticket.

Sweeps run on table-driven re-implementations of both checks for speed; the
test suite pins those tables to the public checkers exhaustively on small
models, so the fast path cannot drift silently.  The division tables
(:func:`giideals.core.division_tables`) also serve the property suite.
Both verdicts walk :func:`giideals.core.direction_covers`: conditions (ii)
and (iii) of the tuple check are the subset half of the fixed-point
equation on each cover, the paper's direct route.  So the sweep decides
both verdicts in one pass per candidate (:meth:`SweepTables.mismatches`):
a failed subset half on one cover breaks the equation and (ii)/(iii) at
once, so both verdicts are False and nothing else needs reading; an
exhaustive sweep skips the blocks of candidates that the first cover so
refutes (:meth:`SweepTables.exhaustive_candidates`).  A sampled model,
swept with no ``t_check``, takes the same pass a chunk of candidates at a
time, one byte lane per candidate and 7-bit plane of its vertex sets
(:meth:`SweepTables.lane_verdicts`).
Condition (iv) reads the covers too: it is reached only when every subset
half holds, so the family is monotone and the meet of its entries over the
strict supersets of ``F`` is the meet over the covers ``F + i``.  The
per-verdict methods ``t_verdict`` and ``nt_verdict`` are the reference the
tests pin that pass to; ``nt_verdict`` keeps the definition's
strict-superset meet.  The verdicts are booleans, so the order of their
conditions is free; the witness order belongs to
:func:`giideals.families.is_nt_tuple`.

Both the sweep and the property suite need tables over every vertex subset,
so they stop at models of at most 16 vertices: the first
:meth:`~giideals.core.DirectionModel.phi_table` call of a larger model
raises :class:`BudgetExceededError` (a budget exit, code 3 in the CLI), not
an input error, since the model itself is valid.

Both take ``models`` as bare models or ``(model, seed)`` pairs; a corpus
enters through :func:`iter_corpus_models`, and its candidate limits through
the sweep's keyword arguments.  The relative claim's lower bound (the
canonical family) is computed lazily, only for a model whose sweep found a
mismatch.  Commutation belongs to the backends: the exhaustive corpus
tests pairs of single directions with the same first-clash predicates
(``kgraph._first_clash``, ``dynsys._first_clash``) that validation raises
from, each unordered pair once, into a table its tuples are read from.
"""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple

from .core import (
    _Record,
    _gfp_meet,
    _is_int,
    _lfp_join,
    BudgetExceededError,
    DirectionModel,
    InvalidInputError,
    MAX_VERTICES,
    canonical_masks,
    direction_covers,
    division_tables,
    free_directions,
    i_family,
    j_family,
    jf_of,
    submasks,
)
from .dynsys import PartialMapSystem, _first_clash as _map_clash, _map_entry
from .families import (
    EnumerationResult,
    enumeration_result,
    is_invariant,
    is_partially_ordered,
    iter_t_families,
)
from .kgraph import KGraphSkeleton, _first_clash as _matrix_clash, _matmul
from .modelio import MODEL_KINDS, family_to_doc, fingerprint

#: Candidate-space size above which sweeps sample instead of exhausting.
DEFAULT_CANDIDATE_CEILING = 1 << 24
DEFAULT_CANDIDATE_SAMPLES = 20_000

#: Mismatches recorded per model before a sweep stops looking.
REPORT_CAP = 50

#: Drawn values per chunk of the sampled sweep's candidates, which bounds
#: its buffers, and the fewest candidate pairs a chunk holds, which
#: amortises its per-entry big-int steps at high rank (where a pair alone
#: takes thousands of values).
_SAMPLER_CHUNK_VALUES = 1 << 13
_SAMPLER_MIN_PAIRS = 16

#: Bytes with bit 7 set: a plane byte whose word the sampler rejects.
_REJECTED = bytes(range(128, 256))

#: Enumerated fixed-point families the property suite checks per model.
FAMILY_CAP = 400


class CorpusSpec(_Record):
    """Description of a model corpus, either exhaustive within bounds or a
    seeded random sample.  The constructor validates the fields."""

    __slots__ = _compared = (
        "kinds", "rank_min", "rank_max", "vertices_min", "vertices_max",
        "max_mult", "seed", "sample_count", "exhaustive", "candidate_ceiling",
        "candidate_samples", "model_ceiling",
    )

    def __init__(
        self,
        kinds: tuple[str, ...] = tuple(MODEL_KINDS),
        rank_min: int = 1,
        rank_max: int = 2,
        vertices_min: int = 1,
        vertices_max: int = 4,
        max_mult: int = 2,
        seed: int = 0,
        sample_count: int = 50,
        exhaustive: bool = False,
        candidate_ceiling: int = DEFAULT_CANDIDATE_CEILING,
        candidate_samples: int = DEFAULT_CANDIDATE_SAMPLES,
        model_ceiling: int = 200_000,
    ):
        _Record.__init__(
            self, kinds, rank_min, rank_max, vertices_min, vertices_max,
            max_mult, seed, sample_count, exhaustive, candidate_ceiling,
            candidate_samples, model_ceiling,
        )
        for kind in self.kinds:
            if kind not in MODEL_KINDS:
                raise InvalidInputError(f"unknown corpus kind {kind!r}")
        if not self.kinds:
            raise InvalidInputError("corpus needs at least one kind")
        if len(set(self.kinds)) != len(self.kinds):
            raise InvalidInputError(f"corpus kinds repeat: {list(self.kinds)}")
        bounds = (
            self.rank_min, self.rank_max, self.vertices_min, self.vertices_max,
            self.max_mult, self.sample_count, self.candidate_ceiling,
            self.candidate_samples, self.model_ceiling,
        )
        if any(b < 1 for b in bounds):
            raise InvalidInputError("corpus bounds must be positive")
        if self.rank_min > self.rank_max or self.vertices_min > self.vertices_max:
            raise InvalidInputError("corpus bounds are inverted")
        if self.vertices_max > MAX_VERTICES:
            raise InvalidInputError(f"at most {MAX_VERTICES} vertices supported")

    @classmethod
    def from_doc(cls, doc: dict) -> "CorpusSpec":
        if not isinstance(doc, dict):
            raise InvalidInputError("corpus config must be a JSON object")
        unknown = set(doc).difference(cls.__slots__)
        if unknown:
            raise InvalidInputError(f"unknown corpus config keys: {sorted(unknown)}")
        for key, value in doc.items():
            if key == "kinds":
                ok = isinstance(value, list) and all(isinstance(k, str) for k in value)
            elif key == "exhaustive":
                ok = isinstance(value, bool)
            else:  # every other field is an integer
                ok = _is_int(value)
            if not ok:
                raise InvalidInputError(
                    f"corpus config {key!r} has the wrong type: {value!r}"
                )
        kwargs = dict(doc)
        if "kinds" in kwargs:
            kwargs["kinds"] = tuple(kwargs["kinds"])
        return cls(**kwargs)


class DiscrepancyReport(NamedTuple):
    """A claimed-impossible event, replayable from the embedded model
    document (and generator seed, when the model was randomly drawn)."""

    fingerprint: str
    claim: str
    model: dict
    datum: dict
    seed: int | None = None

    def to_doc(self) -> dict:
        return self._asdict()


def _reporter(model: DirectionModel, seed: int | None, reports: list):
    """``report(claim, datum, family=None)`` appends a
    :class:`DiscrepancyReport` on ``model`` to ``reports``; a ``family`` goes
    into the datum as its ``"family"`` document sets.  The model document and
    its fingerprint are built on the first report, so a model without
    discrepancies (the expected case) builds neither."""
    rendered: list = []

    def report(claim: str, datum: dict, family=None) -> None:
        if family is not None:
            datum = {"family": family_to_doc(model, family)["sets"], **datum}
        if not rendered:
            doc = model.to_doc()
            rendered.extend((fingerprint(doc), doc))
        fp, doc = rendered
        reports.append(DiscrepancyReport(fp, claim, doc, datum, seed))

    return report


def _mix(*parts: int) -> int:
    h = 0x345678
    for p in parts:
        h = (h * 1000003 + (int(p) & 0xFFFFFFFF)) & 0xFFFFFFFFFFFFFFFF
    return h


# ---------------------------------------------------------------------------
# random models


def random_model(
    kind: str,
    rank: int,
    vertices: int,
    seed: int,
    max_mult: int = 2,
    strategy: str = "derived",
    retries: int = 2000,
) -> DirectionModel:
    """Deterministic random model.

    ``derived`` draws one random seed structure and takes polynomials of a
    matrix (kgraph) or powers of a partial map (dynsys), so commutation is
    guaranteed.  ``rejection`` draws the directions independently and retries
    until they commute or the retry budget runs out.  ``max_mult`` bounds the
    entries of drawn matrices, not of the derived ``c0 I + c1 B + c2 B^2``
    in a drawn ``B``; for dynsys it only seeds the generator.
    """
    if kind not in MODEL_KINDS:
        raise InvalidInputError(f"unknown model kind {kind!r}")
    if strategy not in ("derived", "rejection"):
        raise InvalidInputError(f"unknown strategy {strategy!r}")
    if rank < 1 or vertices < 1 or max_mult < 1:
        raise InvalidInputError("rank, vertices and max_mult must be positive")
    if vertices > MAX_VERTICES:
        raise InvalidInputError(
            f"at most {MAX_VERTICES} vertices supported, got {vertices}"
        )
    tag = 11 if kind == "kgraph" else 13
    rng = random.Random(_mix(tag, rank, vertices, seed, max_mult))
    if kind == "kgraph":
        names = tuple(f"v{i}" for i in range(vertices))
        if strategy == "derived":
            return KGraphSkeleton(names, _poly_matrices(rng, rank, vertices, max_mult))
        return _reject_until(
            lambda: KGraphSkeleton(names, _indep_matrices(rng, rank, vertices, max_mult)),
            retries,
        )
    names = tuple(f"p{i}" for i in range(vertices))
    if strategy == "derived":
        return PartialMapSystem(names, _power_maps(rng, rank, names))
    return _reject_until(
        lambda: PartialMapSystem(names, _indep_maps(rng, rank, names)), retries
    )


def _reject_until(make, retries: int):
    for attempt in range(retries):
        try:
            return make()
        except InvalidInputError:
            continue
    raise BudgetExceededError(
        "rejection sampling exhausted its retry budget", {"retries": retries}
    )


def _random_matrix(rng, n, max_mult):
    return [
        [rng.randint(1, max_mult) if rng.randrange(100) < 45 else 0 for _ in range(n)]
        for _ in range(n)
    ]


def _poly_matrices(rng, rank, n, max_mult):
    base = _random_matrix(rng, n, max_mult)
    sq = _matmul(base, base)
    eye = [[1 if v == w else 0 for w in range(n)] for v in range(n)]
    mats = []
    for _ in range(rank):
        while True:
            c0, c1, c2 = (rng.randrange(3) for _ in range(3))
            if c0 or c1 or c2:
                break
        mats.append(
            [
                [c0 * eye[v][w] + c1 * base[v][w] + c2 * sq[v][w] for w in range(n)]
                for v in range(n)
            ]
        )
    return mats


def _indep_matrices(rng, rank, n, max_mult):
    return [_random_matrix(rng, n, max_mult) for _ in range(rank)]


def _random_partial_map(rng, names):
    return {
        name: rng.choice(names)
        for name in names
        if rng.randrange(100) < 70
    }


def _power_maps(rng, rank, names):
    base = _random_partial_map(rng, names)
    maps = []
    for _ in range(rank):
        power = {name: name for name in names}  # exponent 0: identity
        for _ in range(rng.randrange(4)):
            power = {
                name: base[target]
                for name, target in power.items()
                if target in base
            }
        maps.append(power)
    return maps


def _indep_maps(rng, rank, names):
    return [_random_partial_map(rng, names) for _ in range(rank)]


# ---------------------------------------------------------------------------
# corpus enumeration


def _all_matrices(n, max_entry):
    cells = itertools.product(range(max_entry + 1), repeat=n * n)
    for flat in cells:
        yield tuple(tuple(flat[v * n : (v + 1) * n]) for v in range(n))


def _all_partial_maps(n):
    """Every partial self-map of ``n`` points as an image tuple, ``None``
    meaning undefined (listed first, as the smallest image)."""
    return itertools.product((None, *range(n)), repeat=n)


def iter_corpus_models(spec: CorpusSpec):
    """Yield ``(model, seed_or_none)`` pairs described by the spec.

    Exhaustive corpora enumerate every pairwise-commuting direction tuple
    within bounds; the implied single-direction count is checked against the
    model ceiling first, since the tuple count is exponential in the rank.
    The count stops at its first partial sum past the ceiling, and counts
    each power as at most ``model_ceiling + 1`` (:func:`_capped_power`).
    That sum is the ``implied_models`` the budget error reports: a number
    past the ceiling and at most twice it plus one, not the full count.  So
    a huge ``rank_max`` costs about ``log2(model_ceiling)`` steps.  It also
    bounds the pair table of :func:`_iter_all_models`, the one caller of the
    backends' ``_first_clash`` here.  The corpus is lazy, so a caller that
    streams it (``crosscheck --corpus``) never holds it whole.
    """
    ceiling = spec.model_ceiling
    if spec.exhaustive:
        implied = 0
        for kind in spec.kinds:
            for v in range(spec.vertices_min, spec.vertices_max + 1):
                singles = (
                    _capped_power(spec.max_mult + 1, v * v, ceiling)
                    if kind == "kgraph"
                    else _capped_power(v + 1, v, ceiling)
                )
                power = _capped_power(singles, spec.rank_min, ceiling)
                for _ in range(spec.rank_min, spec.rank_max + 1):
                    implied += power
                    if implied > ceiling:
                        raise BudgetExceededError(
                            "exhaustive corpus too large",
                            {"implied_models": implied, "model_ceiling": ceiling},
                        )
                    power = min(power * singles, ceiling + 1)
        for kind in spec.kinds:
            for model in _iter_all_models(kind, spec):
                yield model, None
        return
    if spec.sample_count > ceiling:
        raise BudgetExceededError(
            "sampled corpus too large",
            {"implied_models": spec.sample_count, "model_ceiling": ceiling},
        )
    for idx in range(spec.sample_count):
        rng = random.Random(_mix(spec.seed, idx, 3))
        kind = sorted(spec.kinds)[rng.randrange(len(spec.kinds))]
        rank = rng.randint(spec.rank_min, spec.rank_max)
        v = rng.randint(spec.vertices_min, spec.vertices_max)
        seed = _mix(spec.seed, idx, 17)
        yield random_model(kind, rank, v, seed, spec.max_mult), seed


def _capped_power(base, exp, cap):
    """``min(base ** exp, cap + 1)`` for ``base >= 2``, in at most
    ``cap.bit_length() + 1`` multiplications."""
    power = 1
    for _ in range(exp):
        power *= base
        if power > cap:
            return cap + 1
    return power


def _iter_all_models(kind, spec):
    """Every pairwise-commuting direction tuple of ``kind`` within the
    spec's bounds, rank by rank and then by vertex count, each cell's tuples
    in lexicographic order of the indices of their singles (all matrices
    with entries at most ``max_mult``, or all partial maps).  A single may
    repeat, since it commutes with itself.

    Commutation is symmetric, so each vertex count tests each unordered pair
    of its singles once, with the backend's ``_first_clash``, in its first
    cell of rank 2 or more (:func:`_commuting_table`); a rank-1 cell builds
    no table.  With rank 2 or more in range, the ceiling check of
    :func:`iter_corpus_models` bounds the table by the ceiling.
    """
    if kind == "kgraph":
        clash, build = _matrix_clash, KGraphSkeleton
        make_singles = lambda v: _all_matrices(v, spec.max_mult)  # noqa: E731
    else:
        clash, make_singles = _map_clash, _all_partial_maps
        build = lambda names, chosen: PartialMapSystem(  # noqa: E731
            names, [_map_entry(names, img) for img in chosen]
        )
    cells: dict = {}  # vertex count -> [singles, commuting table or None]
    for rank in range(spec.rank_min, spec.rank_max + 1):
        for v in range(spec.vertices_min, spec.vertices_max + 1):
            cell = cells.setdefault(v, [list(make_singles(v)), None])
            if rank > 1 and cell[1] is None:
                cell[1] = _commuting_table(cell[0], clash)
            names = tuple(f"v{i}" for i in range(v))
            for chosen in _commuting_tuples(*cell, rank):
                yield build(names, chosen)


def _commuting_tuples(singles, commute, rank):
    """Every ``rank``-tuple of pairwise-commuting singles, in lexicographic
    order of their indices; ``commute`` is :func:`_commuting_table` of the
    singles, read only above rank 1."""

    def rec(chosen, allowed):
        # allowed: the ascending indices of the singles that commute with
        # every chosen one
        for j in allowed:
            picked = chosen + (singles[j],)
            if len(picked) == rank:
                yield picked
            else:
                partners = commute[j]
                yield from rec(picked, [k for k in allowed if partners >> k & 1])

    return rec((), range(len(singles)))


def _commuting_table(singles, clash):
    """Per single, the bitmask of the singles that commute with it (itself
    included), from one ``clash`` call per unordered pair."""
    commute = [1 << i for i in range(len(singles))]
    for i, a in enumerate(singles):
        for j in range(i + 1, len(singles)):
            if clash(a, singles[j]) is None:
                commute[i] |= 1 << j
                commute[j] |= 1 << i
    return commute


# ---------------------------------------------------------------------------
# fast table-driven verdicts


class SweepTables:
    """Per-model lookup tables and the two family verdicts they drive.

    Everything is precomputed per model over all subsets, so each verdict is
    a handful of list lookups and bit tests; sweeps over millions of
    candidate families stay cheap.  The division tables come from
    :func:`giideals.core.division_tables`; the ``lpi``/``lim`` tables run the
    fixed-point loops of ``largest_perp_invariant``/``lim_set`` on phi tables.

    Both verdicts walk the covers of :func:`giideals.core.direction_covers`.
    The T verdict asks ``phi(i, H_F) & H_{F+i} == H_F`` on each cover; the
    NT verdict asks only the subset half, ``H_F <= phi(i, H_F) & H_{F+i}``,
    which is conditions (ii) (invariance) and (iii) (partial order)
    together, the paper's direct route between the two.  It then checks
    (i) and (iv).  The verdicts are booleans, so the order of their
    conditions is free; the first-witness order belongs to
    :func:`giideals.families.is_nt_tuple`.

    :meth:`mismatches`, the sweep's per-candidate kernel, decides both
    verdicts in one pass over the covers: the failed subset half of the
    equation on a cover decides both, since it fails T and (ii)/(iii)
    alike; :meth:`exhaustive_candidates` skips the blocks the first cover
    refutes.  Condition (iv) meets over the covers of ``F`` (``ups``), not
    all strict supersets, so no table here grows as 4^rank.
    :meth:`lane_verdicts` asks the same questions of a whole chunk of
    sampled candidates at once, one byte lane per candidate and plane, and
    :meth:`lane_mismatches` turns its answers into the same records.
    :meth:`t_verdict` and :meth:`nt_verdict` decide one verdict each, as
    the definition reads; they are the reference implementation the tests
    pin both kernels to.
    """

    def __init__(self, model: DirectionModel):
        k = model.rank
        self.full = model.full
        self.nmasks = 1 << k
        full_dirs = self.nmasks - 1
        phis = [model.phi_table(i) for i in range(1, k + 1)]
        self.phis = phis

        canon = canonical_masks(k)
        self.t_triples = [(f, i - 1, up) for f, i, up in direction_covers(k)]
        self.ups = {
            f: [fi for _, _, fi in covers]
            for f, covers in itertools.groupby(self.t_triples, key=lambda c: c[0])
        }
        self.nonzero_masks = [f for f in canon if f]
        self.proper_masks = [f for f in canon if 0 < f < full_dirs]

        self.xf, self.jf = division_tables(model)
        self.planes = _planes(model.vertex_count)  # of the lane kernel

        self.lpi: dict[int, list[int]] = {}
        self.lim: dict[int, list[int]] = {}
        for f in self.proper_masks:
            rows = [phis[i - 1] for i in free_directions(model, f)]
            lpi = [_gfp_meet(rows, k0) for k0 in range(1 << model.vertex_count)]
            self.lpi[f] = lpi
            self.lim[f] = [_lfp_join(rows, k0) for k0 in lpi]

    def t_verdict(self, fam) -> bool:
        phis = self.phis
        for f, i0, fi in self.t_triples:
            h = fam[f]
            if phis[i0][h] & fam[fi] != h:
                return False
        return True

    def nt_verdict(self, fam) -> bool:
        phis = self.phis
        for f, i0, fi in self.t_triples:
            h = fam[f]
            if h & ~(phis[i0][h] & fam[fi]):
                return False
        jf = self.jf
        h0 = fam[0]
        for f in self.nonzero_masks:
            if fam[f] & ~jf[f][h0]:
                return False
        for f in self.proper_masks:
            k0 = self.full
            for d in submasks((self.nmasks - 1) & ~f):
                if d:
                    k0 &= fam[f | d]
            lhs = self.lpi[f][jf[f][h0]] & self.lpi[f][k0] & self.lim[f][fam[f]]
            if lhs & ~fam[f]:
                return False
        return True

    def exhaustive_candidates(self):
        """Every candidate in ``itertools.product`` order but the blocks
        whose leading ``(H_0, H_1)`` fail the first cover's subset half ``H_0
        <= phi(1, H_0) & H_1``: all ``size ** (nmasks - 2)`` fail T and NT."""
        hs = range(self.full + 1)
        row0, tails = self.phis[0], [hs] * (self.nmasks - 2)
        return itertools.chain.from_iterable(
            itertools.product((h0,), [h1 for h1 in hs if not h0 & ~(row0[h0] & h1)], *tails)
            for h0 in hs
        )

    def mismatches(self, candidates, t_check=None) -> list[dict]:
        """The candidates on which the two verdicts differ, as records
        ``{"family": fam, "t": t, "nt": nt}`` in candidate order, at most
        :data:`REPORT_CAP` of them.

        One pass over the covers decides both verdicts.  ``x = phi(i, H_F)
        & H_{F+i}`` is computed once per cover: T fails where ``x != H_F``,
        and where ``H_F`` is not inside ``x`` the subset half fails too, so
        both verdicts are False and the candidate is done; the first cover
        is tested before the loop, on its bound phi row.  Only a candidate
        that passes every subset half goes on to (i) and (iv),
        which reads the covers ``F + i`` and one ``lpi`` lookup.  Under a
        ``t_check(fam)``, which supplies ``t``, no cover settles a candidate
        and the kernel does not run: each takes ``t_check(fam)`` and the
        reference :meth:`nt_verdict`, in candidate order.  The sweep runs the
        kernel on :meth:`exhaustive_candidates`, :meth:`lane_mismatches` on
        sampled.
        """
        if t_check is not None:
            records = (
                {"family": fam, "t": t, "nt": nt} for fam in candidates
                if (t := t_check(fam)) != (nt := self.nt_verdict(fam))
            )
            return list(itertools.islice(records, REPORT_CAP))
        phis, jf, ups, full = self.phis, self.jf, self.ups, self.full
        (f0, d0, up0), *triples = self.t_triples
        row0 = phis[d0]
        cond_i = [(f, jf[f]) for f in self.nonzero_masks]
        cond_iv = [
            (f, ups[f], jf[f], self.lpi[f], self.lim[f]) for f in self.proper_masks
        ]
        found: list[dict] = []
        for fam in candidates:
            h = fam[f0]
            x = row0[h] & fam[up0]
            if h & ~x:
                continue  # the first subset half fails: both verdicts False
            t = x == h
            for f, i0, fi in triples:
                h = fam[f]
                x = phis[i0][h] & fam[fi]
                if x != h:
                    t = False
                    if h & ~x:
                        nt = False
                        break
            else:
                # (ii) and (iii) hold; conditions (i) and (iv) decide NT
                nt = True
                h0 = fam[0]
                for f, jf_row in cond_i:
                    if fam[f] & ~jf_row[h0]:
                        nt = False
                        break
                else:
                    # (iv) meets over the covers F + i, not every strict
                    # superset: every subset half holds, so the family is
                    # monotone and the two meets agree; and lpi preserves
                    # meets (each phi(i, .) preserves intersections), so
                    # lpi(jf & k0) is lpi(jf) & lpi(k0) in one lookup
                    for f, covers, jf_row, lpi, lim in cond_iv:
                        k0 = full
                        for fi in covers:
                            k0 &= fam[fi]
                        h = fam[f]
                        if lpi[jf_row[h0] & k0] & lim[h] & ~h:
                            nt = False
                            break
            if t != nt:
                found.append({"family": fam, "t": t, "nt": nt})
                if len(found) >= REPORT_CAP:
                    break
        return found

    def lane_verdicts(self, chunks):
        """Both verdicts on chunks of candidates, one byte lane per
        candidate.  ``chunks`` yields per chunk one byte sequence per entry,
        ``H_F`` of each candidate in candidate order, its 7-bit planes back
        to back (:func:`_sampled_lanes`).  Yields per chunk ``(entries,
        t_fails, nt_fails)``: in ``t_fails`` bit 7 of byte lane ``j`` is set
        where candidate ``j`` fails T, in ``nt_fails`` where it fails NT.

        Every row read here preserves meets, so a lookup is the AND over the
        planes of their translates (:func:`_plane_table`); ``jf``, which
        does not, is ``~xf | H_0``.  The rest is big-int AND, OR and XOR,
        and no value reaches bit 7.  Per lane it asks what
        :meth:`mismatches` asks: ``x = phi(i, H_F) & H_{F+i}`` on each
        cover, T failing where ``x != H_F`` and the subset half where ``H_F
        & ~x``; then (i), and (iv) over the covers ``F + i`` with the one
        lookup ``lpi[jf & k0]``.  (i) and (iv) change NT only where every
        subset half holds, the lanes on which :meth:`mismatches` reaches
        them.  The planes are ORed into one byte per candidate, nonzero
        where ``(v + 0x7F) & 0x80`` is set.
        """
        p = len(self.planes)
        covers = [(f, _plane_table(self.phis[i0]), fi) for f, i0, fi in self.t_triples]
        cond_i = [(f, _plane_table(self.xf[f])) for f in self.nonzero_masks]
        cond_iv = [
            (f, self.ups[f], _plane_table(self.lpi[f]), _plane_table(self.lim[f]))
            for f in self.proper_masks
        ]
        for entries in chunks:
            size = len(entries[0]) // p
            low = int.from_bytes(b"\x7f" * size, "little")
            top = int.from_bytes(b"\x80" * size, "little")
            h = [int.from_bytes(lane, "little") for lane in entries]
            t_bad = nt_bad = 0
            for f, phi, fi in covers:
                x = _plane_lookup(phi, entries[f], size) & h[fi]
                t_bad |= x ^ h[f]
                nt_bad |= h[f] & ~x
            jf_h0 = {}
            for f, xf in cond_i:
                jf_h0[f] = j = ~_plane_lookup(xf, entries[0], size) | h[0]
                nt_bad |= h[f] & ~j
            for f, ups_f, lpi, lim in cond_iv:
                k0 = jf_h0[f]
                for fi in ups_f:
                    k0 &= h[fi]
                core = _plane_lookup(lpi, k0.to_bytes(p * size, "little"), size)
                nt_bad |= core & _plane_lookup(lim, entries[f], size) & ~h[f]
            for q in range(1, p):
                t_bad |= t_bad >> 8 * size * q
                nt_bad |= nt_bad >> 8 * size * q
            yield entries, (t_bad + low) & top, (nt_bad + low) & top

    def lane_mismatches(self, chunks) -> list[dict]:
        """The records of :meth:`mismatches` for the candidates of
        :meth:`lane_verdicts`, in candidate order, at most
        :data:`REPORT_CAP` of them."""
        found: list[dict] = []
        for entries, t_fails, nt_fails in self.lane_verdicts(chunks):
            differ = t_fails ^ nt_fails
            if not differ:
                continue
            fams = _lane_candidates(entries, self.planes)
            lanes = differ.to_bytes(len(fams), "little")
            t_lanes = t_fails.to_bytes(len(fams), "little")
            j = lanes.find(0x80)
            while j >= 0:
                t = not t_lanes[j]
                found.append({"family": fams[j], "t": t, "nt": not t})
                if len(found) >= REPORT_CAP:
                    return found
                j = lanes.find(0x80, j + 1)
        return found


def _planes(n):
    """The 7-bit planes of ``n``-bit vertex sets, top plane first, as
    ``(shift, mask)``: plane ``q`` of ``v`` is ``v >> shift & mask``."""
    return [(max(d, 0), 0x7F >> max(-d, 0)) for d in range(n - 7, -7, -7)]


def _plane_table(row):
    """``table[q][r][b]``: plane ``r`` of ``row[v]``, where ``v`` holds ``b``
    in plane ``q`` and is full in the others.  ``v`` is the meet of those
    sets, so if ``row`` preserves meets, it is exact for every ``v``."""
    full = len(row) - 1
    planes = _planes(full.bit_length())
    table = []
    for shift, mask in planes:
        ys = [row[b << shift | full & ~(mask << shift)] for b in range(mask + 1)]
        table.append([bytes(y >> s & m for y in ys).ljust(256, b"\0") for s, m in planes])
    return table


def _plane_lookup(table, lane, size):
    """A :func:`_plane_table`'s row on a lane of ``size`` candidates, as an
    int laid out as the lane: the AND over ``q`` of plane ``q``'s translates."""
    y = -1
    for q, tables in enumerate(table):
        plane = lane[q * size:(q + 1) * size]
        y &= int.from_bytes(b"".join([plane.translate(t) for t in tables]), "little")
    return y


def _lane_candidates(entries, planes):
    """The candidates of a chunk of :func:`_sampled_lanes`, as tuples."""
    size = len(entries[0]) // len(planes)
    values = [lane[-size:] for lane in entries]  # the last plane, at shift 0
    for q, (shift, _) in enumerate(planes[:-1]):
        for m, lane in enumerate(entries):
            values[m] = [v | b << shift for v, b in zip(values[m], lane[q * size:])]
    return list(zip(*values))


def _sampled_lanes(rng, n, k, count):
    """Seeded candidate families, chunk by chunk, as per-entry lanes:
    alternately draws forced monotone over the direction-set lattice (a
    necessary condition for both characterisations, so uniform sampling
    alone would almost never hit a valid family) and uniform draws.  Yields
    ``count`` candidates over its chunks; each chunk is a list of ``2**k``
    lanes, entry ``m``'s values across the chunk's candidates in candidate
    order (monotone draws at even positions, uniform draws at odd ones).  A
    lane is a ``bytearray``: the values' :func:`_planes` back to back, top
    first, a byte per value, as :meth:`SweepTables.lane_verdicts` reads
    them.  Chunk sizes are worked out as the chunks are drawn, so even
    ``count = 10**9`` yields its first chunk at once.

    Every value is one ``rng.randrange(2**n)``, taken in this order: per
    monotone candidate two draws ``r, r2`` per direction set in canonical
    order, with ``fam[m]`` the union over the submasks ``s`` of ``m`` of
    ``r_s & r2_s``; per uniform candidate one draw per direction set.  So
    sampled sweeps stay replayable from their seed.

    The draws are taken in bulk.  ``randrange(2**n)`` is ``getrandbits(n +
    1)`` redrawn while it reaches ``2**n``, and for ``n + 1 <= 32`` each
    ``getrandbits(n + 1)`` is the top ``n + 1`` bits of one 32-bit word of
    the generator: a word gives the value under its top bit, and is
    rejected when that bit is set.  ``getrandbits(32 * m)`` is the next
    ``m`` words, least significant first.  The sweep's tables stop models at
    16 vertices, which keeps ``n + 1 <= 32``.  Candidates come in chunks of
    :data:`_SAMPLER_CHUNK_VALUES` values or :data:`_SAMPLER_MIN_PAIRS`
    pairs, whichever is more; each chunk draws exactly the
    words its values take, so the generator ends in the same state as
    after the draws one by one.  An iterator left unfinished has drawn to
    the end of its current chunk.
    """
    nmasks = 1 << k
    stride = 3 * nmasks  # a pair: r, r2 per monotone entry, then uniform ones
    covers = [
        (m, [m & ~(1 << i) for i in range(k) if m >> i & 1])
        for m in canonical_masks(k)
    ]
    pairs = max(_SAMPLER_MIN_PAIRS, _SAMPLER_CHUNK_VALUES // stride)
    pairs = max(1, min(pairs, (count + 1) // 2))

    p = len(_planes(n))
    # the last plane's translate drops the bits below the value
    shifts = [None] * (p - 1) + [bytes(b >> 7 * p - n for b in range(256))]
    if n > 7:  # planes after the first shift their bits under the reject bit
        top_bit, below_top = (  # one mask per 4-byte word of the largest draw
            int.from_bytes(w.to_bytes(4, "little") * pairs * stride, "little")
            for w in (0x80000000, 0x7F000000)
        )

    def draw(total):
        # the top byte of a word is its reject bit over the value's top 7
        # bits; plane q shifts the next 7 bits under the same reject bit, so
        # one translate per plane drops the rejected words and the planes
        # stay aligned
        kept = [bytearray() for _ in shifts]
        while missing := total - len(kept[0]):
            x = rng.getrandbits(32 * missing)
            for q, (plane, shift) in enumerate(zip(kept, shifts)):
                z = x << 7 * q & below_top | x & top_bit if q else x
                plane += z.to_bytes(4 * missing, "little")[3::4].translate(shift, _REJECTED)
        return kept

    def chunk(size):
        # ``size`` candidates: each strided slice is one entry's draws across
        # the chunk's pairs in one plane, and the lane-wise big-int AND and
        # OR build the monotone entries for all pairs and planes at once;
        # each entry's monotone and uniform values then interleave per plane
        monotone = (size + 1) // 2
        kept = draw(size // 2 * stride + size % 2 * 2 * nmasks)
        fam = [0] * nmasks
        for t, (m, lower) in enumerate(covers):
            r = int.from_bytes(b"".join([v[2 * t::stride] for v in kept]), "little")
            r &= int.from_bytes(b"".join([v[2 * t + 1::stride] for v in kept]), "little")
            for low in lower:
                r |= fam[low]
            fam[m] = r
        entries = []
        for m, f in enumerate(fam):
            drawn = f.to_bytes(p * monotone, "little")
            lane = bytearray(p * size)
            for q, v in enumerate(kept):
                lane[q * size:(q + 1) * size:2] = drawn[q * monotone:(q + 1) * monotone]
                lane[q * size + 1:(q + 1) * size:2] = v[2 * nmasks + m::stride]
            entries.append(lane)
        return entries

    step = 2 * pairs
    return map(chunk, (min(step, count - start) for start in range(0, count, step)))


def _biased_candidates(rng, n, k, count):
    """The candidates of :func:`_sampled_lanes` as an iterator of ``count``
    tuples of ints, in candidate order: the form the ``t_check`` route of
    :meth:`SweepTables.mismatches` and the tests read."""
    planes = _planes(n)
    return itertools.chain.from_iterable(
        _lane_candidates(entries, planes) for entries in _sampled_lanes(rng, n, k, count)
    )


def sweep_model(
    model: DirectionModel,
    *,
    candidate_ceiling: int = DEFAULT_CANDIDATE_CEILING,
    candidate_samples: int = DEFAULT_CANDIDATE_SAMPLES,
    rng_seed: int = 0,
    t_check=None,
    stats: dict | None = None,
) -> list[dict]:
    """Compare the two verdicts on every candidate family of one model.

    Returns up to :data:`REPORT_CAP` mismatch records ``{"family": fam,
    "t": t_verdict, "nt": nt_verdict}`` in candidate order, where ``fam`` is
    the candidate family as a tuple of bitmasks.  Both verdicts come from
    one pass per candidate of :meth:`SweepTables.mismatches`, on
    :meth:`SweepTables.exhaustive_candidates` (the blocks that the first
    cover refutes fail both, so they are skipped), except on a sampled
    model with no ``t_check``: there :meth:`SweepTables.lane_mismatches`
    decides each chunk of :func:`_sampled_lanes` at once, one byte lane per
    candidate and 7-bit plane, with the same records.  ``t_check(model,
    fam)`` overrides the fixed-point verdict (the harness self-test's
    injected fault): called once per candidate of the whole product or
    sample, in order, beside the reference NT verdict, it runs no kernel.
    ``stats`` receives ``mode`` (``"exhaustive"`` or ``"sampled"``) and
    ``candidates``: the model's candidate space or sample count, which it
    keeps even when the sweep stops at the :data:`REPORT_CAP`-th mismatch.
    Models above 16 vertices raise :class:`BudgetExceededError` with stats
    ``{"vertices": n, "table_limit": 16}`` from their first phi table.
    """
    tables = SweepTables(model)
    n = model.vertex_count
    size = 1 << n
    space = size ** tables.nmasks
    by_lanes = space > candidate_ceiling and t_check is None
    if space <= candidate_ceiling:
        mode = "exhaustive"
        candidates = (
            tables.exhaustive_candidates() if t_check is None
            else itertools.product(range(size), repeat=tables.nmasks)
        )
        checked = space
    else:
        mode = "sampled"
        sampler = _sampled_lanes if by_lanes else _biased_candidates
        candidates = sampler(random.Random(rng_seed), n, model.rank, candidate_samples)
        checked = candidate_samples
    if by_lanes:
        mismatches = tables.lane_mismatches(candidates)
    else:
        mismatches = tables.mismatches(
            candidates, (lambda fam: t_check(model, fam)) if t_check else None
        )
    if stats is not None:
        stats["mode"] = mode
        stats["candidates"] = checked
    return mismatches


def _model_seed_pairs(models):
    """``(model, seed)`` pairs from a list of bare models or such pairs."""
    for item in models:
        yield item if isinstance(item, tuple) else (item, None)


def theorem_a_sweep(
    models,
    *,
    t_check=None,
    candidate_ceiling: int = DEFAULT_CANDIDATE_CEILING,
    candidate_samples: int = DEFAULT_CANDIDATE_SAMPLES,
    stats: dict | None = None,
) -> list[DiscrepancyReport]:
    """Sweep models comparing the fixed-point and tuple characterisations.

    ``models`` holds bare models or ``(model, seed)`` pairs; a seed drives
    the sampled mode and goes into the model's reports.  For every model and
    candidate family, the per-direction fixed-point verdict must equal the
    tuple verdict (claim ``nt_matches_t``); a mismatching family that
    contains the canonical family is also a mismatch of the relative
    verdicts with that lower bound (claim ``no_matches_o``).  The bound,
    :func:`giideals.core.i_family`, is computed only for a model with
    mismatches.  Returns one report per claim and mismatch (expected: none).
    ``stats`` receives ``models`` and ``candidates``, the sum of each
    model's candidate space or sample count (see :func:`sweep_model`), also
    for a model whose sweep stopped at the :data:`REPORT_CAP`-th mismatch.
    """
    reports: list[DiscrepancyReport] = []
    total = {"models": 0, "candidates": 0}
    for model, seed in _model_seed_pairs(models):
        per_model: dict = {}
        mismatches = sweep_model(
            model,
            candidate_ceiling=candidate_ceiling,
            candidate_samples=candidate_samples,
            rng_seed=seed if seed is not None else 0,
            t_check=t_check,
            stats=per_model,
        )
        total["models"] += 1
        total["candidates"] += per_model.get("candidates", 0)
        if not mismatches:
            continue
        report = _reporter(model, seed, reports)
        bound = i_family(model)
        for mism in mismatches:
            fam = mism["family"]
            datum = {"t_verdict": mism["t"], "nt_verdict": mism["nt"]}
            report("nt_matches_t", datum, fam)
            if all(i & ~h == 0 for i, h in zip(bound, fam)):
                report("no_matches_o", datum, fam)
    if stats is not None:
        stats.update(total)
    return reports


# ---------------------------------------------------------------------------
# rank-1 degeneration


def katsura_oracle(model: DirectionModel) -> EnumerationResult:
    """Enumerate rank-1 families by the classic pair rule.

    Pairs ``(H0, H1)`` with ``H0`` positively invariant and
    ``H0 <= H1 <= jf_of(H0)``.  Contract: identical to the rank-1
    fixed-point enumeration.  (The compactness side condition in the classic
    rule is automatic here: the models are proper, so it is not encoded.)
    """
    if model.rank != 1:
        raise InvalidInputError("the pair oracle requires a rank-1 model")
    full = model.full
    pairs = []
    for h0 in range(full + 1):
        if h0 & ~model.phi(1, h0):
            continue
        for sub in submasks(jf_of(model, h0, 1) & ~h0):
            pairs.append((h0, h0 | sub))
    return enumeration_result(model, pairs)


# ---------------------------------------------------------------------------
# property suite


def property_suite(models, *, stats: dict | None = None) -> list[DiscrepancyReport]:
    """Evaluate the supporting inclusions on every model of ``models`` (bare
    models or ``(model, seed)`` pairs, as for :func:`theorem_a_sweep`).

    Claims checked (violations reported, expected none):

    * ``j_passdown``: the joint-kernel-annihilator family absorbs one
      inverse-image step against its covers;
    * ``t_family_invariant`` / ``t_family_partially_ordered`` /
      ``t_family_inside_division_bound``: every enumerated fixed-point
      family (up to :data:`FAMILY_CAP` per model) is invariant, monotone, and
      sits inside the division ideal of its empty entry;
    * ``positively_invariant_recovery``: for every positively invariant
      vertex set, the inverse-image intersection and the division ideal
      intersect back to the set itself.

    The inclusions are read off the phi and division tables
    (:func:`giideals.core.division_tables`), while invariance and monotonicity
    go through the public checkers.  Like :func:`sweep_model`, models above
    16 vertices raise :class:`BudgetExceededError` with stats
    ``{"vertices": n, "table_limit": 16}``.
    """
    reports: list[DiscrepancyReport] = []
    counters = {"models": 0, "families": 0, "invariant_sets": 0}

    for model, seed in _model_seed_pairs(models):
        counters["models"] += 1
        report = _reporter(model, seed, reports)
        phis = [model.phi_table(i) for i in range(1, model.rank + 1)]
        xf_table, jf_table = division_tables(model)
        jf = j_family(model)
        for f, i, up in direction_covers(model.rank):
            lhs = phis[i - 1][jf[f]] & jf[up]
            if lhs & ~jf[f]:
                report(
                    "j_passdown",
                    {"F": f, "i": i, "escaped": list(model.names_of_set(lhs & ~jf[f]))},
                )

        for fam in itertools.islice(
            iter_t_families(model), FAMILY_CAP
        ):
            counters["families"] += 1
            if not is_invariant(model, fam).verdict:
                report("t_family_invariant", {}, fam)
            if not is_partially_ordered(model, fam).verdict:
                report("t_family_partially_ordered", {}, fam)
            for f in range(1, 1 << model.rank):
                if fam[f] & ~jf_table[f][fam[0]]:
                    report("t_family_inside_division_bound", {"F": f}, fam)

        recovery = [
            (f, xf_table[f], jf_table[f]) for f in range(1, 1 << model.rank)
        ]
        for h in range(model.full + 1):
            if any(h & ~p[h] for p in phis):
                continue
            counters["invariant_sets"] += 1
            for f, xf_row, jf_row in recovery:
                if xf_row[h] & jf_row[h] != h:
                    report(
                        "positively_invariant_recovery",
                        {"H": list(model.names_of_set(h)), "F": f},
                    )

    if stats is not None:
        stats.update(counters)
    return reports


# ---------------------------------------------------------------------------
# the shipped corpus


#: (kind, rank, vertices) cycle for the random leg of the shipped corpus.
#: Spans the bound grid while keeping per-model exhaustive candidate spaces
#: at or below 2**20; rank-3 models with 4+ vertices exercise the sampled
#: regime instead.
RANDOM_SCHEDULE = (
    ("kgraph", 1, 2), ("dynsys", 1, 3), ("kgraph", 1, 4), ("dynsys", 1, 5),
    ("kgraph", 2, 2), ("dynsys", 2, 2), ("kgraph", 2, 3), ("dynsys", 2, 3),
    ("kgraph", 2, 4), ("dynsys", 2, 4), ("kgraph", 2, 3), ("dynsys", 2, 4),
    ("kgraph", 2, 5), ("dynsys", 2, 5),
    ("kgraph", 3, 2), ("dynsys", 3, 2),
    ("kgraph", 3, 4), ("dynsys", 3, 4), ("kgraph", 3, 5), ("dynsys", 3, 5),
)

BUILTIN_SEED = 20240501

#: The exhaustive legs of the shipped corpus as ``(description, spec)``
#: pairs: every commuting pair of partial maps on at most 3 points (685
#: models) and every commuting pair of adjacency matrices with entries at
#: most 2 on at most 2 vertices (752 models).
EXHAUSTIVE_LEGS = (
    (
        "all commuting partial-map pairs on <= 3 points",
        CorpusSpec(
            kinds=("dynsys",), rank_min=2, rank_max=2,
            vertices_min=1, vertices_max=3, exhaustive=True,
        ),
    ),
    (
        "all commuting matrix pairs (entries <= 2) on <= 2 vertices",
        CorpusSpec(
            kinds=("kgraph",), rank_min=2, rank_max=2,
            vertices_min=1, vertices_max=2, max_mult=2, exhaustive=True,
        ),
    ),
)


def builtin_random_models(count: int = 200, seed: int = BUILTIN_SEED):
    """The seeded random leg of the shipped corpus."""
    out = []
    for idx in range(count):
        kind, rank, v = RANDOM_SCHEDULE[idx % len(RANDOM_SCHEDULE)]
        model_seed = _mix(seed, idx)
        strategy = "rejection" if rank <= 2 and v <= 3 and idx % 5 == 2 else "derived"
        out.append(
            (random_model(kind, rank, v, model_seed, strategy=strategy), model_seed)
        )
    return out
