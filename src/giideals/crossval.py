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
once, so both verdicts are False and nothing else needs reading.  An
exhaustive sweep never builds most such candidates: it draws each ``H_F``
from its domain, the sets (ii) leaves it, and ``H_1`` above ``H_0``
(:meth:`SweepTables.exhaustive_candidates`).  A sampled model,
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
enters through :func:`giideals.corpus.iter_corpus_models`, and its
candidate limits through the sweep's keyword arguments.  The relative
claim's lower bound (the canonical family) is computed lazily, only for a
model whose sweep found a mismatch.  Model generation, the shipped corpus
among it, lives in :mod:`giideals.corpus`; this module decides verdicts.
"""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple

from .core import (
    _gfp_meet,
    _lfp_join,
    DirectionModel,
    InvalidInputError,
    canonical_masks,
    direction_covers,
    division_tables,
    free_directions,
    i_family,
    j_family,
    jf_of,
    submasks,
)
from .corpus import DEFAULT_CANDIDATE_CEILING, DEFAULT_CANDIDATE_SAMPLES
from .families import (
    EnumerationResult,
    enumeration_result,
    is_invariant,
    is_partially_ordered,
    iter_t_families,
)
from .modelio import family_to_doc, fingerprint

# Re-exported for the benchmark in perfbench/, which reads these names here
# until it imports them from giideals.corpus.
from .corpus import (  # noqa: F401
    CorpusSpec, RANDOM_SCHEDULE, builtin_random_models, iter_corpus_models, random_model,
)

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
    alike; :meth:`exhaustive_candidates` builds no candidate with an entry
    off its :meth:`domains` or ``H_1`` not above ``H_0``, which all so fail.
    Condition (iv) meets over the covers of ``F`` (``ups``), not all strict
    supersets, so no table here grows as 4^rank.
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

    def domains(self) -> list[list[int]]:
        """Per entry ``H_F``, ascending, the sets ``h <= phi(i, h)`` for each
        direction ``i`` outside ``F``: for a proper ``F``, the sets ``lpi[F]``
        fixes.  Off its domain ``H_F`` fails (ii), so T and NT, on a cover."""
        hs, phis = range(self.full + 1), list(enumerate(self.phis))
        outside = [[row for i, row in phis if not f >> i & 1] for f in range(self.nmasks)]
        return [[h for h in hs if not any(h & ~row[h] for row in rows)] for rows in outside]

    def exhaustive_candidates(self):
        """The candidates in ``itertools.product`` order with every entry in
        its :meth:`domains` and ``H_1 >= H_0``, which on ``H_0``'s domain is
        (iii) on the first cover; each of the others fails T and NT."""
        d = self.domains()
        return itertools.chain.from_iterable(
            itertools.product((h0,), [h1 for h1 in d[1] if not h0 & ~h1], *d[2:])
            for h0 in d[0]
        )

    def mismatches(self, candidates, t_check=None) -> list[dict]:
        """The candidates on which the two verdicts differ, as records
        ``{"family": fam, "t": t, "nt": nt}`` in candidate order, at most
        :data:`REPORT_CAP` of them.

        One pass over the covers decides both verdicts.  ``x = phi(i, H_F)
        & H_{F+i}`` is computed once per cover: T fails where ``x != H_F``,
        and where ``H_F`` is not inside ``x`` the subset half fails too, so
        both verdicts are False and the candidate is done.  Only a candidate
        that passes every subset half goes on to (i) and (iv), which reads
        the covers ``F + i`` and one ``lpi`` lookup.  Under a
        ``t_check(fam)``, which supplies ``t``, no cover settles a candidate
        and the kernel does not run: each takes ``t_check(fam)`` and the
        reference :meth:`nt_verdict`, in candidate order.  The sweep runs the
        kernel on :meth:`exhaustive_candidates`, where only (iii) can fail a
        subset half, and :meth:`lane_mismatches` on sampled candidates.
        """
        if t_check is not None:
            records = (
                {"family": fam, "t": t, "nt": nt} for fam in candidates
                if (t := t_check(fam)) != (nt := self.nt_verdict(fam))
            )
            return list(itertools.islice(records, REPORT_CAP))
        phis, jf, ups, full = self.phis, self.jf, self.ups, self.full
        triples = self.t_triples
        cond_i = [(f, jf[f]) for f in self.nonzero_masks]
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
    :meth:`SweepTables.exhaustive_candidates` (a candidate with an entry off
    its domain, or ``H_1`` not above ``H_0``, fails both and is never
    built), except on a sampled model with no ``t_check``: there
    :meth:`SweepTables.lane_mismatches` decides each chunk of
    :func:`_sampled_lanes` at once, one byte lane per candidate and 7-bit
    plane, with the same records.  ``t_check(model, fam)`` overrides the
    fixed-point verdict (the harness self-test's injected fault): called
    once per candidate of the whole product or sample, in order, beside the
    reference NT verdict, it runs no kernel.
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
