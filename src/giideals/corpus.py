"""Model generation: seeded random models and the corpora the harness sweeps.

:func:`random_model` draws one deterministic model, derived (polynomials of
one matrix, powers of one partial map, so the directions commute) or by
rejection.  :func:`iter_corpus_models` draws a :class:`CorpusSpec`'s corpus
lazily: every pairwise-commuting direction tuple within bounds, or a seeded
random sample.  The shipped corpus is ``EXHAUSTIVE_LEGS`` and the random leg
of :func:`builtin_random_models`.  The verdicts belong to
:mod:`giideals.crossval`; this module builds no phi table.  Commutation
belongs to the backends: the exhaustive corpus tests each unordered pair of
single directions once with the ``_first_clash`` that validation raises
from (``kgraph._first_clash``, ``dynsys._first_clash``), into a table its
tuples are read from.
"""

from __future__ import annotations

import itertools
import random

from .core import (
    _Record,
    _is_int,
    BudgetExceededError,
    DirectionModel,
    InvalidInputError,
    MAX_VERTICES,
)
from .dynsys import PartialMapSystem, _first_clash as _map_clash, _map_entry
from .kgraph import KGraphSkeleton, _first_clash as _matrix_clash, _matmul
from .modelio import MODEL_KINDS

#: Candidate-space size above which sweeps sample instead of exhausting.
DEFAULT_CANDIDATE_CEILING = 1 << 24
DEFAULT_CANDIDATE_SAMPLES = 20_000


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
