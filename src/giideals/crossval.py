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
once, so both verdicts are False and nothing else needs reading.
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
filters direction tuples with the same first-clash predicates
(``kgraph._first_clash``, ``dynsys._first_clash``) that validation raises
from.
"""

from __future__ import annotations

import itertools
import random
import sys
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
    a huge ``rank_max`` costs about ``log2(model_ceiling)`` steps.
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
            for rank in range(spec.rank_min, spec.rank_max + 1):
                for v in range(spec.vertices_min, spec.vertices_max + 1):
                    yield from (
                        (m, None) for m in _iter_all_models(kind, rank, v, spec.max_mult)
                    )
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


def _iter_all_models(kind, rank, v, max_mult):
    names = tuple(f"v{i}" for i in range(v))
    if kind == "kgraph":
        singles = list(_all_matrices(v, max_mult))
        clash = _matrix_clash
        build = lambda chosen: KGraphSkeleton(names, chosen)  # noqa: E731
    else:
        singles = list(_all_partial_maps(v))
        clash = _map_clash
        build = lambda chosen: PartialMapSystem(  # noqa: E731
            names, [_map_entry(names, img) for img in chosen]
        )

    def rec(chosen):
        if len(chosen) == rank:
            yield build(list(chosen))
            return
        for single in singles:
            if all(clash(single, prev) is None for prev in chosen):
                yield from rec(chosen + (single,))

    yield from rec(())


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

    :meth:`mismatches`, the sweep's kernel, decides both verdicts in one
    pass over the covers: the failed subset half of the equation on a cover
    decides both, since it fails T and (ii)/(iii) alike.  Its condition (iv)
    meets over the covers of ``F``, not all strict supersets, so no table
    here grows as 4^rank.  :meth:`t_verdict` and :meth:`nt_verdict` decide
    one verdict each, as the definition reads; they are the reference
    implementation the tests pin the kernel to.
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
        self.nonzero_masks = [f for f in canon if f]
        self.proper_masks = [f for f in canon if 0 < f < full_dirs]

        _, self.jf = division_tables(model)

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

    def mismatches(self, candidates, t_check=None) -> list[dict]:
        """The candidates on which the two verdicts differ, as records
        ``{"family": fam, "t": t, "nt": nt}`` in candidate order, at most
        :data:`REPORT_CAP` of them.

        One pass over the covers decides both verdicts.  ``x = phi(i, H_F)
        & H_{F+i}`` is computed once per cover: T fails where ``x != H_F``,
        and where ``H_F`` is not inside ``x`` the subset half fails too, so
        both verdicts are False and the candidate is done.  Only a candidate
        that passes every subset half goes on to conditions (i) and (iv).
        Condition (iv) reads the covers ``F + i`` and one ``lpi`` lookup;
        the comment at that step says why that is exact.  ``t_check(fam)``,
        when given, supplies ``t`` instead of the tables; it is called once
        per candidate, in candidate order.
        """
        phis, triples, jf = self.phis, self.t_triples, self.jf
        full = self.full
        cond_i = [(f, jf[f]) for f in self.nonzero_masks]
        ups = {
            f: [fi for _, _, fi in covers]
            for f, covers in itertools.groupby(triples, key=lambda c: c[0])
        }
        cond_iv = [
            (f, ups[f], jf[f], self.lpi[f], self.lim[f]) for f in self.proper_masks
        ]
        found: list[dict] = []
        for fam in candidates:
            t = True
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
            if t_check is not None:
                t = t_check(fam)
            if t != nt:
                found.append({"family": fam, "t": t, "nt": nt})
                if len(found) >= REPORT_CAP:
                    break
        return found


def _biased_candidates(rng, n, k, count):
    """Seeded candidate families: alternately draws forced monotone over the
    direction-set lattice (a necessary condition for both characterisations,
    so uniform sampling alone would almost never hit a valid family) and
    uniform draws.  Returns an iterator of ``count`` tuples.

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
    pairs, whichever is more; each chunk draws exactly the words its values
    take, so the generator ends in the same state as
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

    planes = range((n + 6) // 7)  # 7-bit planes of the n value bits
    # a chunk's values as unsigned ints: a byte for one plane, else 4 bytes
    code, width = ("B", 1) if n <= 7 else ("I", 4)

    def lanes(word, size=4):
        # ``word`` in each ``size``-byte lane of the largest draw
        lane = word.to_bytes(size, "little")
        return int.from_bytes(lane * pairs * stride, "little")

    if n > 7:  # planes after the first shift their bits under the reject bit
        top_bit, below_top = lanes(0x80000000), lanes(0x7F000000)
    # plane q of the buffer's lanes, moved to its value bits
    joins = [
        (8 * width - 1 - q - n, lanes((0x7F << n) >> 7 + 7 * q, width))
        for q in planes
    ]

    def draw(total):
        # the top byte of a word is its reject bit over the value's top 7
        # bits; plane q shifts the next 7 bits under the same reject bit, so
        # one translate per plane drops the rejected words and the planes
        # stay aligned
        kept = [bytearray() for _ in planes]
        while missing := total - len(kept[0]):
            x = rng.getrandbits(32 * missing)
            for q, plane in enumerate(kept):
                z = x << 7 * q & below_top | x & top_bit if q else x
                plane += z.to_bytes(4 * missing, "little")[3::4].translate(
                    None, _REJECTED
                )
        buf = bytearray(width * total)
        for q, plane in enumerate(kept):
            buf[width - 1 - q::width] = plane
        u = int.from_bytes(buf, "little")
        v = 0
        for shift, mask in joins:
            v |= u >> shift & mask
        values = memoryview(v.to_bytes(width * total, sys.byteorder)).cast(code)
        # big-endian bytes of v list its lanes last to first
        return values if sys.byteorder == "little" else values[::-1]

    def chunk(size):
        # ``size`` candidates, monotone first: each strided slice is one
        # entry's draws across the chunk's pairs, and the lane-wise big-int
        # AND and OR build the monotone entries for all pairs at once (byte
        # order is immaterial to them)
        monotone = (size + 1) // 2
        values = draw(size // 2 * stride + size % 2 * 2 * nmasks)
        fam = [0] * nmasks
        for t, (m, lower) in enumerate(covers):
            r = int.from_bytes(values[2 * t::stride], "little")
            r &= int.from_bytes(values[2 * t + 1::stride], "little")
            for low in lower:
                r |= fam[low]
            fam[m] = r
        raw = (f.to_bytes(width * monotone, "little") for f in fam)
        out = [None] * size
        out[0::2] = zip(*(memoryview(b).cast(code) for b in raw))
        out[1::2] = zip(*(values[2 * nmasks + m::stride] for m in range(nmasks)))
        return out

    step = 2 * pairs
    sizes = [min(step, count - start) for start in range(0, count, step)]
    return itertools.chain.from_iterable(map(chunk, sizes))


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
    the candidate family as a tuple of bitmasks; both verdicts come from
    one pass of :meth:`SweepTables.mismatches`.  ``t_check(model, fam)``
    overrides the fixed-point verdict (used by the harness self-test to
    prove the sweep can see an injected fault) and is called once per
    candidate.  ``stats`` receives ``mode`` (``"exhaustive"`` or
    ``"sampled"``) and ``candidates``: the model's candidate space or sample
    count, which it keeps even when the sweep stops at the
    :data:`REPORT_CAP`-th mismatch.  Models above 16 vertices raise
    :class:`BudgetExceededError` with stats ``{"vertices": n,
    "table_limit": 16}`` from their first phi table.
    """
    tables = SweepTables(model)
    size = 1 << model.vertex_count
    space = size ** tables.nmasks
    if space <= candidate_ceiling:
        mode = "exhaustive"
        candidates = itertools.product(range(size), repeat=tables.nmasks)
        checked = space
    else:
        mode = "sampled"
        candidates = _biased_candidates(
            random.Random(rng_seed), model.vertex_count, model.rank, candidate_samples
        )
        checked = candidate_samples
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
