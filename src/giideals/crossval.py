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
equation on each cover, the paper's direct route.  The verdicts are
booleans, so the order of their conditions is free; the witness order
belongs to :func:`giideals.families.is_nt_tuple`.

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
from dataclasses import dataclass

from .core import (
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
)
from .dynsys import PartialMapSystem, _first_clash as _map_clash
from .families import (
    EnumerationResult,
    enumeration_result,
    is_invariant,
    is_partially_ordered,
    iter_t_families,
)
from .kgraph import KGraphSkeleton, _first_clash as _matrix_clash, _matmul
from .modelio import family_to_doc, fingerprint

#: Candidate-space size above which sweeps sample instead of exhausting.
DEFAULT_CANDIDATE_CEILING = 1 << 24
DEFAULT_CANDIDATE_SAMPLES = 20_000

#: Mismatches recorded per model before a sweep stops looking.
REPORT_CAP = 50

#: Enumerated fixed-point families the property suite checks per model.
FAMILY_CAP = 400


@dataclass(frozen=True)
class CorpusSpec:
    """Description of a model corpus, either exhaustive within bounds or a
    seeded random sample."""

    kinds: tuple[str, ...] = ("kgraph", "dynsys")
    rank_min: int = 1
    rank_max: int = 2
    vertices_min: int = 1
    vertices_max: int = 4
    max_mult: int = 2
    seed: int = 0
    sample_count: int = 50
    exhaustive: bool = False
    candidate_ceiling: int = DEFAULT_CANDIDATE_CEILING
    candidate_samples: int = DEFAULT_CANDIDATE_SAMPLES
    model_ceiling: int = 200_000

    def __post_init__(self):
        for kind in self.kinds:
            if kind not in ("kgraph", "dynsys"):
                raise InvalidInputError(f"unknown corpus kind {kind!r}")
        if not self.kinds:
            raise InvalidInputError("corpus needs at least one kind")
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
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = set(doc) - known
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


@dataclass(frozen=True)
class DiscrepancyReport:
    """A claimed-impossible event, replayable from the embedded model
    document (and generator seed, when the model was randomly drawn)."""

    fingerprint: str
    claim: str
    model: dict
    datum: dict
    seed: int | None = None

    def to_doc(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "claim": self.claim,
            "model": self.model,
            "datum": self.datum,
            "seed": self.seed,
        }


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
    until they commute or the retry budget runs out.
    """
    if kind not in ("kgraph", "dynsys"):
        raise InvalidInputError(f"unknown model kind {kind!r}")
    if strategy not in ("derived", "rejection"):
        raise InvalidInputError(f"unknown strategy {strategy!r}")
    if rank < 1 or vertices < 1 or vertices > MAX_VERTICES or max_mult < 1:
        raise InvalidInputError("rank, vertices and max_mult must be positive")
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


def _map_tuple_to_dict(names, img):
    return {names[w]: names[t] for w, t in enumerate(img) if t is not None}


def iter_corpus_models(spec: CorpusSpec):
    """Yield ``(model, seed_or_none)`` pairs described by the spec.

    Exhaustive corpora enumerate every pairwise-commuting direction tuple
    within bounds; the implied single-direction count is checked against the
    model ceiling first, since the tuple count is exponential in the rank.
    """
    if spec.exhaustive:
        implied = 0
        for kind in spec.kinds:
            for v in range(spec.vertices_min, spec.vertices_max + 1):
                singles = (
                    (spec.max_mult + 1) ** (v * v)
                    if kind == "kgraph"
                    else (v + 1) ** v
                )
                for rank in range(spec.rank_min, spec.rank_max + 1):
                    implied += singles**rank
        if implied > spec.model_ceiling:
            raise BudgetExceededError(
                "exhaustive corpus too large",
                {"implied_models": implied, "model_ceiling": spec.model_ceiling},
            )
        for kind in spec.kinds:
            for rank in range(spec.rank_min, spec.rank_max + 1):
                for v in range(spec.vertices_min, spec.vertices_max + 1):
                    yield from (
                        (m, None) for m in _iter_all_models(kind, rank, v, spec.max_mult)
                    )
        return
    for idx in range(spec.sample_count):
        rng = random.Random(_mix(spec.seed, idx, 3))
        kind = sorted(spec.kinds)[rng.randrange(len(spec.kinds))]
        rank = rng.randint(spec.rank_min, spec.rank_max)
        v = rng.randint(spec.vertices_min, spec.vertices_max)
        seed = _mix(spec.seed, idx, 17)
        yield random_model(kind, rank, v, seed, spec.max_mult), seed


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
            names, [_map_tuple_to_dict(names, img) for img in chosen]
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
        self.strict_sups = {
            f: [d for d in range(self.nmasks) if d != f and d & f == f]
            for f in self.proper_masks
        }

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
            for d in self.strict_sups[f]:
                k0 &= fam[d]
            lhs = self.lpi[f][jf[f][h0]] & self.lpi[f][k0] & self.lim[f][fam[f]]
            if lhs & ~fam[f]:
                return False
        return True


def _biased_candidates(rng, n, k, count):
    """Seeded candidate families: alternately uniform draws and draws forced
    monotone over the direction-set lattice (a necessary condition for both
    characterisations, so uniform sampling alone would almost never hit a
    valid family).

    Each draw is ``rng.randrange(2**n)`` written out: ``n + 1`` random bits,
    redrawn while they reach ``2**n``.  That is the stream ``randrange``
    itself consumes, so sampled sweeps stay replayable from their seed.
    """
    size = 1 << n
    bits = n + 1
    getrandbits = rng.getrandbits
    nmasks = 1 << k
    covers = [
        (m, [m & ~(1 << i) for i in range(k) if m >> i & 1])
        for m in canonical_masks(k)
    ]
    for j in range(count):
        fam = [0] * nmasks
        if j & 1:
            for m in range(nmasks):
                r = getrandbits(bits)
                while r >= size:
                    r = getrandbits(bits)
                fam[m] = r
            yield tuple(fam)
            continue
        for m, lower in covers:
            below = 0
            for low in lower:
                below |= fam[low]
            r = getrandbits(bits)
            while r >= size:
                r = getrandbits(bits)
            r2 = getrandbits(bits)
            while r2 >= size:
                r2 = getrandbits(bits)
            fam[m] = below | (r & r2)
        yield tuple(fam)


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
    the candidate family as a tuple of bitmasks.  ``t_check`` overrides the
    fixed-point verdict (used by the harness self-test to prove the sweep
    can see an injected fault).  Models above 16 vertices raise
    :class:`BudgetExceededError` with stats ``{"vertices": n,
    "table_limit": 16}`` from their first phi table.
    """
    tables = SweepTables(model)
    tv = (lambda fam: t_check(model, fam)) if t_check else tables.t_verdict
    nv = tables.nt_verdict
    size = 1 << model.vertex_count
    space = size ** tables.nmasks
    mismatches: list[dict] = []
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
    for fam in candidates:
        a = tv(fam)
        b = nv(fam)
        if a != b:
            mismatches.append({"family": fam, "t": a, "nt": b})
            if len(mismatches) >= REPORT_CAP:
                break
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
        bound = jf_of(model, h0, 1)
        loose = bound & ~h0
        sub = loose
        while True:
            pairs.append((h0, h0 | sub))
            if sub == 0:
                break
            sub = (sub - 1) & loose
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
            if not is_partially_ordered(fam, model).verdict:
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
