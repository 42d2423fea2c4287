"""Verification harness: sweeps, the rank-1 pair oracle, random models."""

import copy
import hashlib
import itertools
import random
import time
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from giideals import (
    BudgetExceededError,
    CorpusSpec,
    InvalidInputError,
    KGraphSkeleton,
    PartialMapSystem,
    enumerate_t_families,
    is_nt_tuple,
    is_t_family,
    iter_corpus_models,
    jf_of,
    katsura_oracle,
    property_suite,
    random_model,
    theorem_a_sweep,
)
from giideals.crossval import (
    DEFAULT_CANDIDATE_CEILING,
    DEFAULT_CANDIDATE_SAMPLES,
    EXHAUSTIVE_LEGS,
    REPORT_CAP,
    SweepTables,
    _SAMPLER_CHUNK_VALUES,
    _SAMPLER_MIN_PAIRS,
    _biased_candidates,
    _sampled_lanes,
    builtin_random_models,
    sweep_model,
)
from giideals.modelio import canonical_json, load_model, model_fingerprint
from giideals import crossval, dynsys, fixtures, kgraph

from helpers import cli_rejects, doc_file, small_models


# ---------------------------------------------------------------------------
# the fast tables must agree with the public checkers


def nt_failing(tables):
    # a copy of the tables with the same phi rows, so the same T, on which
    # NT fails on every family but the rank-1 all-empty one: all-empty jf
    # rows fail (i) wherever an H_F with F != 0 is nonempty, and constant
    # full lpi and lim rows fail (iv) wherever a proper F's H_F is not the
    # whole vertex set (a constant row preserves meets, as the kernel's one
    # lpi lookup needs)
    failing = copy.copy(tables)
    failing.jf = {f: [0] * len(row) for f, row in tables.jf.items()}
    failing.lpi = {f: [tables.full] * len(row) for f, row in tables.lpi.items()}
    failing.lim = {f: [tables.full] * len(row) for f, row in tables.lim.items()}
    return failing


def assert_kernel_decides(tables, failing, fam):
    # the fused kernel decides (t, nt) as the two reference methods do.  With
    # no t_check it reports the pair exactly when the two differ.  On the
    # nt_failing copy the references report (True, False) exactly where t
    # holds, so the kernel's record there pins its own t, and with the first
    # assert its own nt: a spurious both-False exit on a (True, True)
    # candidate fails there.  No table fails NT on the rank-1 all-empty
    # family, which is (True, True) on any tables.  With t fixed to True and
    # then to False, the t_check route's one record reveals the reference nt
    # beside it (that route does not run the kernel)
    t, nt = tables.t_verdict(fam), tables.nt_verdict(fam)
    assert tables.mismatches([fam]) == (
        [] if t == nt else [{"family": fam, "t": t, "nt": nt}]
    )
    assert not failing.nt_verdict(fam) or fam == (0, 0)
    assert failing.mismatches([fam]) == reference_records(failing, [fam])
    assert tables.mismatches([fam], lambda f: True) == (
        [] if nt else [{"family": fam, "t": True, "nt": False}]
    )
    assert tables.mismatches([fam], lambda f: False) == (
        [{"family": fam, "t": False, "nt": True}] if nt else []
    )


def test_sweep_tables_match_public_checkers_exhaustively():
    for model in fixtures.all_models():
        tables = SweepTables(model)
        failing = nt_failing(tables)
        size = 1 << model.vertex_count
        for fam in itertools.product(range(size), repeat=1 << model.rank):
            assert tables.t_verdict(fam) == is_t_family(model, fam).verdict
            assert tables.nt_verdict(fam) == is_nt_tuple(model, fam).verdict
            assert_kernel_decides(tables, failing, fam)


@settings(max_examples=15)
@given(small_models(max_rank=2, max_vertices=3), st.data())
def test_sweep_tables_match_public_checkers_sampled(model, data):
    tables = SweepTables(model)
    failing = nt_failing(tables)
    nmasks = 1 << model.rank
    for _ in range(30):
        fam = tuple(
            data.draw(st.integers(0, model.full)) for _ in range(nmasks)
        )
        assert tables.t_verdict(fam) == is_t_family(model, fam).verdict
        assert tables.nt_verdict(fam) == is_nt_tuple(model, fam).verdict
        assert_kernel_decides(tables, failing, fam)


def test_sweep_tables_match_public_checkers_at_ranks_3_and_4():
    # the NT verdict tests its conditions in its own order; every exit of
    # is_nt_tuple, including acceptance, must be reached and agree.  The
    # kernel meets over the covers of F for condition (iv), the reference
    # over every strict superset: at rank 4 a one-direction F has 3 covers
    # but 7 strict supersets, so rank-4 candidates must reach (iv) too
    exits = {3: set(), 4: set()}
    for rank, seeds, count in ((3, range(3), 2000), (4, range(2), 1000)):
        for kind in ("kgraph", "dynsys"):
            for seed in seeds:
                model = random_model(kind, rank, 3, seed)
                tables = SweepTables(model)
                failing = nt_failing(tables)
                for fam in _biased_candidates(random.Random(seed), 3, rank, count):
                    nt = is_nt_tuple(model, fam)
                    exits[rank].add(nt.violated_condition)
                    assert tables.t_verdict(fam) == is_t_family(model, fam).verdict
                    assert tables.nt_verdict(fam) == nt.verdict
                    assert_kernel_decides(tables, failing, fam)
    every_exit = {
        "condition_i", "invariance", "partial_order", "nt_condition_iv", None
    }
    assert exits == {3: every_exit, 4: every_exit}


# ---------------------------------------------------------------------------
# theorem sweep


def test_sweep_clean_on_fixtures():
    stats = {}
    reports = theorem_a_sweep(models=fixtures.all_models(), stats=stats)
    assert reports == []
    assert stats["models"] == 6


def test_relative_checks_agree_exhaustively_on_fixtures():
    # the relative verdicts through the public checkers, not the sweep tables
    from giideals import i_family, is_relative_o_family

    for model in fixtures.all_models():
        bound = i_family(model)
        size = 1 << model.vertex_count
        for fam in itertools.product(range(size), repeat=1 << model.rank):
            expected = (
                is_nt_tuple(model, fam).verdict
                and all(k & ~s == 0 for k, s in zip(bound, fam))
            )
            assert is_relative_o_family(model, fam, bound).verdict == expected


def test_sweep_self_test_detects_injected_fault(monkeypatch):
    # corrupting a verdict must surface as a discrepancy; the relative claim
    # trips only for a family above the canonical bound: the top family, not
    # the all-empty one (absorb2's canonical family is not empty)
    from giideals import i_family

    model = fixtures.absorb2()
    bottom, top = (0,) * 4, (model.full,) * 4
    assert any(i_family(model))

    def corrupted_t(mdl, fam):
        verdict = is_t_family(mdl, fam).verdict
        return not verdict if tuple(fam) in (bottom, top) else verdict

    reports = theorem_a_sweep([model], t_check=corrupted_t)
    got = [(r.claim, r.datum["family"]) for r in reports]
    empty = {"": [], "1": [], "2": [], "1,2": []}
    full = {key: ["p", "q"] for key in empty}
    assert got == [
        ("nt_matches_t", empty),
        ("nt_matches_t", full),
        ("no_matches_o", full),
    ]
    assert all(r.datum["t_verdict"] is False for r in reports)
    assert all(r.fingerprint for r in reports)

    # a t_check sweep takes NT from the reference method, not the kernel; a
    # fault in the kernel's own tables surfaces with no t_check.  With every
    # jf row empty, (i) fails each T family with a nonempty H_F, F != 0
    class FaultyTables(SweepTables):
        def __init__(self, model):
            super().__init__(model)
            self.jf = {f: [0] * len(row) for f, row in self.jf.items()}

    monkeypatch.setattr(crossval, "SweepTables", FaultyTables)
    reports = [r for r in theorem_a_sweep([model]) if r.claim == "nt_matches_t"]
    assert reports
    assert all(r.datum["t_verdict"] is True for r in reports)
    assert full in [r.datum["family"] for r in reports]


def test_sweep_stops_at_report_cap():
    # every candidate that fails the tuple check mismatches a constant-true
    # fixed-point verdict; the sweep keeps the first REPORT_CAP of them
    model = fixtures.absorb2()
    size = 1 << model.vertex_count
    candidates = itertools.product(range(size), repeat=1 << model.rank)
    first = itertools.islice(
        (fam for fam in candidates if not is_nt_tuple(model, fam).verdict), 51
    )
    expected = [{"family": fam, "t": True, "nt": False} for fam in first]
    assert REPORT_CAP == 50 and len(expected) == 51
    assert sweep_model(model, t_check=lambda m, fam: True) == expected[:50]


def reference_records(tables, candidates):
    # every record of the two reference methods, with no REPORT_CAP cut
    return [
        {"family": fam, "t": t, "nt": nt} for fam in candidates
        if (t := tables.t_verdict(fam)) != (nt := tables.nt_verdict(fam))
    ]


def kernel_records(tables, candidates):
    # the kernel's records, one candidate at a time, so none is cut off
    return [r for fam in candidates for r in tables.mismatches([fam])]


def with_xf(tables, corrupt):
    # the tables with each xf row corrupted and jf rebuilt from it as
    # division_tables defines it, jf = ~xf | h: the lane kernel reads xf,
    # the per-candidate kernel and the references jf, and all see one fault
    tables.xf = {f: corrupt(row) for f, row in tables.xf.items()}
    tables.jf = {
        f: [(~x & tables.full) | h for h, x in enumerate(row)] for f, row in tables.xf.items()
    }
    return tables


def gains_top_vertex(model):
    # an xf fault that preserves meets: jf drops the top vertex from every
    # set without it
    return lambda row: [x | (model.full + 1 >> 1) for x in row]


@pytest.mark.parametrize("table, corrupt", [
    ("xf", lambda model, row: [0] * len(row)),  # jf full: (i) always holds
    ("xf", lambda model, row: gains_top_vertex(model)(row)),  # jf drops a vertex
    ("lim", lambda model, row: [model.full] * len(row)),                   # (iv) decides
    ("phis", lambda model, row: [model.full] * len(row)),  # the first cover settles less
    ("phis", lambda model, row: [0] * len(row)),           # the first cover settles more
], ids=["jf-full", "jf-drops-a-vertex", "lim-full", "phi1-full", "phi1-empty"])
def test_sweep_matches_the_reference_verdicts_on_faulty_tables(monkeypatch, table, corrupt):
    # without t_check the sweep decides T from its own tables; on corrupted
    # division (xf, and jf rebuilt from it) or eventual-containment rows, or
    # a corrupted phi row of direction 1 (the first cover's, which decides
    # the blocks the sweep skips and which the kernel tests before its cover
    # loop), NT disagrees with T, and the sweep must report exactly what the
    # two reference methods decide on the same tables, every record of them
    # once REPORT_CAP is lifted.  lpi is
    # never corrupted (it is built from the true phi rows): the kernel's one
    # lookup lpi[jf & k0] equals the reference's lpi[jf] & lpi[k0] only on a
    # true lpi table
    import giideals.crossval as crossval

    class FaultyTables(SweepTables):
        def __init__(self, model):
            super().__init__(model)
            if table == "phis":
                self.phis = [corrupt(model, self.phis[0]), *self.phis[1:]]
            elif table == "xf":
                with_xf(self, lambda row: corrupt(model, row))
            else:
                rows = getattr(self, table)
                setattr(self, table, {f: corrupt(model, row) for f, row in rows.items()})

    monkeypatch.setattr(crossval, "SweepTables", FaultyTables)
    model = random_model("dynsys", 2, 4, seed=2)
    tables = FaultyTables(model)
    size = 1 << model.vertex_count
    space = list(itertools.product(range(size), repeat=1 << model.rank))
    reference = reference_records(tables, space)
    assert len(reference) > REPORT_CAP
    expected = reference[:REPORT_CAP]
    assert sweep_model(model) == expected
    with monkeypatch.context() as patch:
        patch.setattr(crossval, "REPORT_CAP", len(space))
        assert sweep_model(model) == reference
    assert kernel_records(tables, space) == reference
    if table == "phis":
        # the faulty row moves the first cover's exit: a full row makes it
        # fire on fewer candidates than the true row, an empty one on more
        true_row = SweepTables(model).phis[0]
        moved = [
            bool(h & ~(true_row[h] & h1)) - bool(h & ~(tables.phis[0][h] & h1))
            for h in range(size) for h1 in range(size)
        ]
        assert set(moved) == ({0, 1} if tables.phis[0][0] else {0, -1})

    # the lane kernel on the same candidates as byte lanes, in chunks of
    # 100, gives the same records; so it does on the mismatching families
    # alone, one chunk in which every lane differs
    def lanes(fams):
        return [bytes(fam[m] for fam in fams) for m in range(1 << model.rank)]

    chunks = (lanes(space[i:i + 100]) for i in range(0, len(space), 100))
    assert tables.lane_mismatches(chunks) == expected
    assert tables.lane_mismatches([lanes([r["family"] for r in reference])]) == expected

    # a t_check supplying the same verdicts gives the same records and is
    # called once per candidate up to the cut
    calls = []

    def counted(mdl, fam):
        calls.append(fam)
        return tables.t_verdict(fam)

    stats = {}
    assert sweep_model(model, t_check=counted, stats=stats) == expected
    assert calls == space[:len(calls)]
    assert calls[-1] == expected[-1]["family"]
    assert stats == {"mode": "exhaustive", "candidates": size ** 4}

    # no cover settles a candidate under a t_check, which may say T where
    # the tables say no: one that flips the reference nt on every 2000th
    # call mismatches fewer than REPORT_CAP times, so it sees the whole
    # space, once per candidate, in itertools.product order
    calls.clear()

    def flipping(mdl, fam):
        calls.append(fam)
        return tables.nt_verdict(fam) != (len(calls) % 2000 == 0)

    flipped = space[1999::2000]
    assert 0 < len(flipped) < REPORT_CAP
    assert sweep_model(model, t_check=flipping) == [
        {"family": fam, "t": not nt, "nt": nt}
        for fam in flipped for nt in [tables.nt_verdict(fam)]
    ]
    assert calls == space

    # sampled models: byte lanes at 4, 5 and 7 vertices (one plane) and at
    # 8 (two); the same records in candidate order, cut at REPORT_CAP
    # in the second chunk (4 vertices) or the first (7 vertices) where a
    # model has more
    lengths = []
    for rank, n, seed in ((3, 4, 1), (3, 5, 2), (3, 7, 3), (2, 8, 3)):
        model = random_model("dynsys", rank, n, seed=seed)
        tables = FaultyTables(model)
        sample = list(_biased_candidates(random.Random(seed), n, rank, 3000))
        expected = tables.mismatches(sample)
        assert expected == list(itertools.islice(
            (
                {"family": fam, "t": t, "nt": nt} for fam in sample
                if (t := tables.t_verdict(fam)) != (nt := tables.nt_verdict(fam))
            ),
            REPORT_CAP,
        ))
        stats = {}
        assert sweep_model(model, candidate_samples=3000, rng_seed=seed, stats=stats) == expected
        assert stats == {"mode": "sampled", "candidates": 3000}
        calls.clear()
        assert sweep_model(
            model, candidate_samples=3000, rng_seed=seed, t_check=counted
        ) == expected
        assert calls == sample[:len(calls)]
        lengths.append(len(expected))
    assert sum(lengths) > 0


@pytest.mark.parametrize("kind, rank, n, seed", [
    ("dynsys", 1, 6, 3), ("kgraph", 3, 2, 5),
], ids=["rank-1", "rank-3"])
def test_the_kernel_matches_the_references_on_a_whole_space(monkeypatch, kind, rank, n, seed):
    # a rank-1 space has no cover after the first, so the exit and the
    # conditions (i) and (iv) decide every candidate; the rank-3 space
    # (65,536 candidates at 2 vertices) walks 11 more covers.  On the true
    # tables and on tables whose jf rows drop a vertex (so T and NT differ),
    # the kernel's records equal the references', whole and one candidate
    # at a time, and so do the sweep's, which skips the blocks that the
    # first cover refutes, with REPORT_CAP lifted
    class DropsAVertex(SweepTables):
        def __init__(self, model):
            super().__init__(model)
            drop = ~(model.full + 1 >> 1)
            self.jf = {f: [h & drop for h in row] for f, row in self.jf.items()}

    model = random_model(kind, rank, n, seed=seed)
    space = list(itertools.product(range(1 << n), repeat=1 << rank))
    assert len(space) == (4096 if rank == 1 else 65536)
    lengths = []
    for cls in (SweepTables, DropsAVertex):
        tabs = cls(model)
        reference = reference_records(tabs, space)
        assert tabs.mismatches(space) == reference[:REPORT_CAP]
        assert kernel_records(tabs, space) == reference
        with monkeypatch.context() as patch:
            patch.setattr(crossval, "SweepTables", cls)
            patch.setattr(crossval, "REPORT_CAP", len(space))
            assert sweep_model(model) == reference
        lengths.append(len(reference))
    assert lengths[0] == 0 < lengths[1]


@pytest.mark.parametrize("model", [
    pytest.param(lambda: random_model("dynsys", 1, 6, seed=3), id="rank-1"),
    pytest.param(fixtures.absorb2, id="absorb2"),
    pytest.param(lambda: random_model("kgraph", 3, 2, seed=5), id="rank-3"),
])
def test_the_kernel_sees_only_the_blocks_the_first_cover_leaves(monkeypatch, model):
    # an exhaustive sweep with no t_check hands the kernel exactly the
    # candidates whose first subset half, H_0 <= phi(1, H_0) & H_1, holds,
    # in itertools.product order: at rank 1 the blocks are single
    # candidates, at rank 3 each holds 4**6.  Every skipped candidate fails
    # T and NT, so the records are the references' on the whole space, and
    # the stats still count the whole space
    seen = []

    class Seeing(SweepTables):
        def mismatches(self, candidates, t_check=None):
            candidates = list(candidates)
            seen.extend(candidates)
            return super().mismatches(candidates, t_check)

    model = model()
    tables = SweepTables(model)
    space = list(itertools.product(range(tables.full + 1), repeat=tables.nmasks))
    row0 = tables.phis[0]
    kept = [fam for fam in space if not fam[0] & ~(row0[fam[0]] & fam[1])]
    assert 0 < len(kept) < len(space)
    monkeypatch.setattr(crossval, "SweepTables", Seeing)
    stats = {}
    assert sweep_model(model, stats=stats) == reference_records(tables, space)[:REPORT_CAP]
    assert seen == kept
    assert stats == {"mode": "exhaustive", "candidates": len(space)}
    skipped = set(space) - set(kept)
    assert not any(tables.t_verdict(fam) or tables.nt_verdict(fam) for fam in skipped)


def plane_bits(n):
    # the bit widths of the 7-bit planes of an n-bit value, top plane first:
    # only the last may be narrower
    return [7] * ((n - 1) // 7) + [n - 7 * ((n - 1) // 7)]


def plane_lane(values, n):
    # values as one lane of 7-bit planes back to back, top plane first
    lane, below = b"", n
    for bits in plane_bits(n):
        below -= bits
        lane += bytes(v >> below & (1 << bits) - 1 for v in values)
    return lane


def plane_values(lane, n):
    # the values of a lane of 7-bit planes, top plane first
    widths = plane_bits(n)
    size = len(lane) // len(widths)
    values = [0] * size
    for q, bits in enumerate(widths):
        values = [v << bits | b for v, b in zip(values, lane[q * size:(q + 1) * size])]
    return values


def assert_lanes_decide(tables, chunks):
    # every lane's two verdicts equal the reference methods' on its
    # candidate, and a failing lane reads 0x80, a passing one 0
    n = tables.full.bit_length()
    count = 0
    for entries, t_fails, nt_fails in tables.lane_verdicts(chunks):
        entries = [plane_values(lane, n) for lane in entries]
        size = len(entries[0])
        t_lanes, nt_lanes = t_fails.to_bytes(size, "little"), nt_fails.to_bytes(size, "little")
        assert set(t_lanes + nt_lanes) <= {0, 0x80}
        assert t_fails >> 8 * size == nt_fails >> 8 * size == 0
        for fam, t_lane, nt_lane in zip(zip(*entries), t_lanes, nt_lanes):
            assert (tables.t_verdict(fam), tables.nt_verdict(fam)) == (not t_lane, not nt_lane)
        count += size
    return count


def test_lane_verdicts_match_the_reference_on_the_sampled_random_leg():
    # every candidate of the random leg's 8 sampled models, which the sweep
    # decides in byte lanes (4 or 5 vertices, one plane, no t_check)
    models = [
        (model, seed) for model, seed in builtin_random_models(40)
        if (1 << model.vertex_count) ** (1 << model.rank) > DEFAULT_CANDIDATE_CEILING
    ]
    assert len(models) == 8
    for model, seed in models:
        assert model.vertex_count in (4, 5)
        chunks = _sampled_lanes(
            random.Random(seed), model.vertex_count, model.rank, DEFAULT_CANDIDATE_SAMPLES
        )
        assert assert_lanes_decide(SweepTables(model), chunks) == DEFAULT_CANDIDATE_SAMPLES


@pytest.mark.parametrize("kind, rank, n, seed", [
    ("dynsys", 3, 4, 1), ("kgraph", 4, 3, 2),
], ids=["rank-3", "rank-4"])
def test_lane_verdicts_on_every_chunk_shape(kind, rank, n, seed):
    # no candidate, one (a lone monotone draw), an odd count, and one past a
    # chunk (a full chunk, then a one-candidate one), on tables whose xf
    # rows gain a vertex, so jf drops it and the verdicts disagree; lpi is
    # not corrupted (see the faulty-tables test)
    model = random_model(kind, rank, n, seed=seed)
    tables = with_xf(SweepTables(model), gains_top_vertex(model))
    chunk = 2 * max(_SAMPLER_MIN_PAIRS, _SAMPLER_CHUNK_VALUES // (3 << rank))
    found = []
    for count in (0, 1, 7, chunk + 1):
        sizes = [len(entries[0]) for entries in _sampled_lanes(random.Random(seed), n, rank, count)]
        assert sizes == ([chunk, 1] if count > chunk else [count] if count else [])
        lanes = _sampled_lanes(random.Random(seed), n, rank, count)
        assert assert_lanes_decide(tables, lanes) == count
        sample = list(_biased_candidates(random.Random(seed), n, rank, count))
        lanes = _sampled_lanes(random.Random(seed), n, rank, count)
        found.append(tables.lane_mismatches(lanes))
        assert found[-1] == tables.mismatches(sample)
    assert found[-1]


#: Models of two and three 7-bit planes, each with T-families among its
#: first sampled candidates, so that a fault shows as mismatches.
PLANE_MODELS = [("dynsys", 2, 8, 1), ("dynsys", 2, 12, 2), ("kgraph", 2, 16, 1)]


def table_rows(tables):
    # every row the lane kernel reads: phi, xf, lpi and lim
    return [*tables.phis, *tables.xf.values(), *tables.lpi.values(), *tables.lim.values()]


def meet_models():
    yield from fixtures.all_models()
    for _, spec in EXHAUSTIVE_LEGS:
        yield from (model for model, _ in iter_corpus_models(spec))
    yield from (model for model, _ in builtin_random_models(40))


def test_every_table_row_preserves_meets_and_fixes_the_vertex_set():
    # the fact the lane kernel's plane lookups rest on: on every pair of
    # subsets of the fixtures, the exhaustive legs and the first 40
    # random-leg models, and on random pairs at 8-16 vertices
    rows = 0
    for model in meet_models():
        subsets = range(model.full + 1)
        for row in table_rows(SweepTables(model)):
            assert row[model.full] == model.full
            assert all(row[a & b] == row[a] & row[b] for a in subsets for b in subsets)
            rows += 1
    rng = random.Random(6)
    for kind, rank, n, seed in [*PLANE_MODELS, ("dynsys", 2, 16, 4), ("kgraph", 3, 12, 1)]:
        model = random_model(kind, rank, n, seed=seed)
        for row in table_rows(SweepTables(model)):
            assert row[model.full] == model.full
            for _ in range(300):
                a, b = rng.getrandbits(n), rng.getrandbits(n)
                assert row[a & b] == row[a] & row[b]
            rows += 1
    assert rows > 10_000


@pytest.mark.parametrize("kind, rank, n, seed", [
    ("dynsys", 3, 5, 1), ("kgraph", 3, 7, 2), *PLANE_MODELS, ("dynsys", 2, 16, 4),
], ids=lambda v: str(v))
def test_the_plane_factored_lookup_equals_the_row_on_every_subset(kind, rank, n, seed):
    model = random_model(kind, rank, n, seed=seed)
    tables = SweepTables(model)
    size = 1 << n
    lane = plane_lane(range(size), n)
    for row in table_rows(tables):
        got = crossval._plane_lookup(crossval._plane_table(row), lane, size)
        assert plane_values(got.to_bytes(len(lane), "little"), n) == row


@pytest.mark.parametrize("kind, rank, n, seed", PLANE_MODELS, ids=["8", "12", "16"])
def test_lane_verdicts_match_the_reference_on_two_and_three_planes(kind, rank, n, seed):
    # on the true tables, and on tables whose xf rows gain the top and the
    # bottom vertex (jf drops them; the two lie in different planes) or
    # whose lim rows are full: each lane's verdicts equal the references',
    # a fault shows as mismatches, and the lane records are the
    # per-candidate kernel's
    model = random_model(kind, rank, n, seed=seed)
    tables = SweepTables(model)
    ends = model.full + 1 >> 1 | 1
    lim_full = copy.copy(tables)
    lim_full.lim = {f: [model.full] * len(row) for f, row in tables.lim.items()}
    sample = list(_biased_candidates(random.Random(seed), n, rank, 2000))
    found = []
    for tabs in (tables, with_xf(copy.copy(tables), lambda row: [x | ends for x in row]), lim_full):
        assert assert_lanes_decide(tabs, _sampled_lanes(random.Random(seed), n, rank, 2000)) == 2000
        records = tabs.lane_mismatches(_sampled_lanes(random.Random(seed), n, rank, 2000))
        assert records == tabs.mismatches(sample)
        found.append(len(records))
    assert found[0] == 0 < found[1] and 0 < found[2]


def test_the_first_sampled_candidate_comes_before_the_chunk_sizes_are_listed():
    # a corpus may ask for 10**9 samples per model: about 1.5 million chunks
    # at rank 3, sized one at a time as they are drawn, not listed up front
    # (a list of 1.5 million sizes holds about 12 MB)
    for sampler in (_biased_candidates, _sampled_lanes):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            first = next(sampler(random.Random(0), 4, 3, 10**9))
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first
        assert elapsed < 0.1
        assert peak < 1 << 20


def test_sweep_sampled_mode_is_deterministic():
    model = random_model("dynsys", 3, 4, seed=5)
    stats1, stats2 = {}, {}
    m1 = sweep_model(model, candidate_ceiling=100, candidate_samples=500,
                     rng_seed=9, stats=stats1)
    m2 = sweep_model(model, candidate_ceiling=100, candidate_samples=500,
                     rng_seed=9, stats=stats2)
    assert m1 == m2
    assert stats1 == stats2 == {"mode": "sampled", "candidates": 500}


def _biased_candidates_by_randrange(rng, n, k, count):
    # reference sampler: every draw through rng.randrange
    size = 1 << n
    nmasks = 1 << k
    for j in range(count):
        if j & 1:
            yield tuple(rng.randrange(size) for _ in range(nmasks))
            continue
        fam = [0] * nmasks
        for m in sorted(range(nmasks), key=lambda m: (m.bit_count(), m)):
            below = 0
            for i in range(k):
                if m >> i & 1:
                    below |= fam[m & ~(1 << i)]
            fam[m] = below | (rng.randrange(size) & rng.randrange(size))
        yield tuple(fam)


@pytest.mark.parametrize("seed", [0, 9, 20240501])
def test_sampler_draws_the_randrange_stream(seed):
    # replayable reports depend on the sampled stream staying the same: every
    # vertex count up to the table limit (one to three 7-bit planes), ranks
    # 1-4, where a chunk is _SAMPLER_CHUNK_VALUES values, and rank 8, where
    # it is _SAMPLER_MIN_PAIRS pairs; counts up to one past a chunk
    for n in range(1, 17):
        for k in (1, 2, 3, 4, 8):
            pairs = max(_SAMPLER_MIN_PAIRS, _SAMPLER_CHUNK_VALUES // (3 << k))
            chunk = 2 * pairs
            for count in (0, 1, 2, 3, 2 * n + 1, chunk + 1):
                got_rng, ref_rng = random.Random(seed), random.Random(seed)
                got = list(_biased_candidates(got_rng, n, k, count))
                assert got == list(_biased_candidates_by_randrange(ref_rng, n, k, count))
                assert got_rng.getstate() == ref_rng.getstate()
            # a sampler left unfinished yields a prefix of its full stream;
            # got holds the first chunk + 1 candidates
            longer = _biased_candidates(random.Random(seed), n, k, 3 * chunk)
            assert list(itertools.islice(longer, chunk + 1)) == got


def test_sampled_sweeps_check_the_randrange_stream():
    # the sweep checks exactly the reference sampler's candidates, in order:
    # with T forced either way its records are the candidates whose NT
    # verdict differs, up to the cap.  The sampled models of the random leg
    # have 4 or 5 vertices (one plane); the 8-vertex model takes two
    models = [
        (model, seed) for model, seed in builtin_random_models(40)
        if (1 << model.vertex_count) ** (1 << model.rank) > DEFAULT_CANDIDATE_CEILING
    ]
    assert len(models) == 8
    models.append((random_model("dynsys", 2, 8, seed=3), 3))
    lengths = set()
    for model, seed in models:
        tables = SweepTables(model)
        for t in (True, False):
            stats = {}
            got = sweep_model(model, rng_seed=seed, t_check=lambda m, f: t, stats=stats)
            assert stats == {"mode": "sampled", "candidates": DEFAULT_CANDIDATE_SAMPLES}
            candidates = _biased_candidates_by_randrange(
                random.Random(seed), model.vertex_count, model.rank,
                DEFAULT_CANDIDATE_SAMPLES,
            )
            records = (
                {"family": fam, "t": t, "nt": nt}
                for fam in candidates if (nt := tables.nt_verdict(fam)) != t
            )
            assert got == list(itertools.islice(records, REPORT_CAP))
            lengths.add(len(got))
    assert REPORT_CAP in lengths and len(lengths) > 1


def test_models_beyond_the_table_limit_are_a_budget_exit():
    # the model is valid; only the subset tables do not fit
    model = random_model("dynsys", 1, 18, seed=1)
    for run in (sweep_model, lambda m: property_suite(models=[m])):
        with pytest.raises(BudgetExceededError) as info:
            run(model)
        assert info.value.stats == {"vertices": 18, "table_limit": 16}


# ---------------------------------------------------------------------------
# rank-1 pair oracle


def test_katsura_counts_pinned():
    assert katsura_oracle(fixtures.funnel1()).count == 6
    assert katsura_oracle(fixtures.loop1()).count == 3


def test_katsura_rejects_higher_rank():
    with pytest.raises(InvalidInputError):
        katsura_oracle(fixtures.funnel2())


def test_katsura_pair_rule_sanity():
    # the pair (empty, V) is accepted exactly when V sits inside the division
    # ideal of the empty set
    for model in (fixtures.funnel1(), fixtures.loop1()):
        fams = set(katsura_oracle(model).families)
        expected = jf_of(model, 0, 1) == model.full
        assert ((0, model.full) in fams) == expected


def test_katsura_equals_enumeration_on_fixtures_and_samples():
    models = [fixtures.funnel1(), fixtures.loop1()]
    models += [random_model("kgraph", 1, v, seed) for v in (2, 3, 4) for seed in (1, 2)]
    models += [random_model("dynsys", 1, v, seed) for v in (2, 3, 4) for seed in (3, 4)]
    models += [m for m, _ in builtin_random_models(count=80) if m.rank == 1]
    assert any(m.rank == 1 for m in models)
    for model in models:
        assert katsura_oracle(model).families == enumerate_t_families(model).families


def test_katsura_equals_enumeration_without_phi_tables():
    # above the 16-vertex table limit the enumerator computes phi per lookup
    # instead of reading the phi tables
    from giideals.core import _PhiRow, _phi_lookup

    model = random_model("kgraph", 1, 17, seed=0)
    assert isinstance(_phi_lookup(model)[0], _PhiRow)
    result = enumerate_t_families(model)
    assert result.count == 131073
    assert result.families == katsura_oracle(model).families


# ---------------------------------------------------------------------------
# property suite


def test_annihilator_absorption_instance_on_shift2():
    # one concrete absorption instance: one inverse-image step of the empty
    # entry meets the single-direction entry trivially
    from giideals import j_family

    model = fixtures.shift2()
    jf = j_family(model)
    step = model.phi(1, jf[0])
    assert step == model.set_of_names(["v2"])
    assert step & jf[0b01] == 0
    assert step & jf[0b01] & ~jf[0] == 0


def test_property_suite_clean_on_fixtures():
    stats = {}
    reports = property_suite(models=fixtures.all_models(), stats=stats)
    assert reports == []
    assert stats["families"] >= 3 + 6 + 6 + 6 + 12


def test_property_suite_detects_injected_faults(monkeypatch):
    # corrupting what the suite reads must fire each claim that reads it,
    # and every report must replay from its model document
    from giideals import crossval
    from giideals.core import division_tables

    model = fixtures.shift2()
    failing = lambda m, fam: SimpleNamespace(verdict=False)  # noqa: E731

    def no_division_ideals(m):
        xf, jf = division_tables(m)
        return xf, {f: [0] * len(row) for f, row in jf.items()}

    faults = [
        # v2 is killed by direction 1 but kept out of the empty entry
        ("j_family", lambda m: (0,) + (m.full,) * 3, {"j_passdown"}),
        ("is_invariant", failing, {"t_family_invariant"}),
        ("is_partially_ordered", failing, {"t_family_partially_ordered"}),
        (
            "division_tables",
            no_division_ideals,
            {"t_family_inside_division_bound", "positively_invariant_recovery"},
        ),
    ]
    for name, fake, claims in faults:
        with monkeypatch.context() as patch:
            patch.setattr(crossval, name, fake)
            reports = property_suite(models=[model])
        assert {r.claim for r in reports} == claims, name
        for r in reports:
            assert model_fingerprint(load_model(r.model)) == r.fingerprint


def test_property_suite_clean_on_random_sample():
    models = builtin_random_models(count=20)
    assert property_suite(models=models) == []


# ---------------------------------------------------------------------------
# random models and corpora


def test_random_model_deterministic():
    a = random_model("kgraph", 2, 4, seed=42)
    b = random_model("kgraph", 2, 4, seed=42)
    assert canonical_json(a.to_doc()) == canonical_json(b.to_doc())
    c = random_model("kgraph", 2, 4, seed=43)
    assert canonical_json(c.to_doc()) != canonical_json(a.to_doc())


def test_random_models_pass_validation():
    # constructors run full validation; surviving construction is the check
    for seed in range(6):
        random_model("kgraph", 3, 4, seed=seed)
        random_model("dynsys", 3, 4, seed=seed)
        random_model("kgraph", 2, 3, seed=seed, strategy="rejection")
        random_model("dynsys", 2, 3, seed=seed, strategy="rejection")


def test_random_model_rejection_budget_zero():
    with pytest.raises(BudgetExceededError) as err:
        random_model("dynsys", 2, 3, seed=0, strategy="rejection", retries=0)
    assert err.value.stats == {"retries": 0}


def test_random_model_rejects_bad_arguments():
    with pytest.raises(InvalidInputError):
        random_model("frob", 1, 1, seed=0)
    with pytest.raises(InvalidInputError):
        random_model("kgraph", 0, 1, seed=0)
    with pytest.raises(InvalidInputError):
        random_model("kgraph", 1, 1, seed=0, strategy="maybe")


def test_corpus_spec_validation():
    with pytest.raises(InvalidInputError):
        CorpusSpec(kinds=("nope",))
    with pytest.raises(InvalidInputError):
        CorpusSpec(rank_min=2, rank_max=1)
    with pytest.raises(InvalidInputError):
        CorpusSpec(sample_count=0)
    spec = CorpusSpec.from_doc({"kinds": ["dynsys"], "sample_count": 3})
    assert spec.kinds == ("dynsys",)
    with pytest.raises(InvalidInputError):
        CorpusSpec.from_doc({"bogus": 1})


def test_corpus_spec_rejects_repeated_kinds():
    with pytest.raises(InvalidInputError, match="kinds repeat"):
        CorpusSpec(kinds=("dynsys", "dynsys"))
    with pytest.raises(InvalidInputError, match="kinds repeat"):
        CorpusSpec.from_doc({"kinds": ["kgraph", "dynsys", "kgraph"]})


@pytest.mark.parametrize(
    "config, message",
    [
        ({"kinds": []}, "corpus needs at least one kind"),
        ({"vertices_max": 65}, "at most 64 vertices supported"),
        ([], "corpus config must be a JSON object"),
    ],
    ids=["no-kinds", "too-many-vertices", "config-not-an-object"],
)
def test_invalid_corpus_configs_are_rejected(capsys, tmp_path, config, message):
    with pytest.raises(InvalidInputError, match=message):
        CorpusSpec.from_doc(config)
    assert message in cli_rejects(capsys, "crosscheck", "--corpus", doc_file(tmp_path, config))


def test_exhaustive_corpus_counts():
    spec = CorpusSpec(
        kinds=("dynsys",), rank_min=2, rank_max=2,
        vertices_min=1, vertices_max=3, exhaustive=True,
    )
    assert len(list(iter_corpus_models(spec))) == 685
    spec = CorpusSpec(
        kinds=("kgraph",), rank_min=2, rank_max=2,
        vertices_min=1, vertices_max=2, max_mult=2, exhaustive=True,
    )
    assert len(list(iter_corpus_models(spec))) == 752


def test_exhaustive_corpus_ceiling():
    spec = CorpusSpec(
        kinds=("kgraph",), rank_min=2, rank_max=2,
        vertices_min=3, vertices_max=3, max_mult=2,
        exhaustive=True, model_ceiling=1000,
    )
    with pytest.raises(BudgetExceededError):
        list(iter_corpus_models(spec))


def test_sampled_corpus_ceiling_is_checked_before_any_draw(monkeypatch):
    spec = CorpusSpec(kinds=("dynsys",), sample_count=11, model_ceiling=10)

    def no_draw(*args, **kwargs):
        raise AssertionError("a model was drawn past the ceiling")

    with monkeypatch.context() as patch:
        patch.setattr(crossval, "random_model", no_draw)
        with pytest.raises(BudgetExceededError) as info:
            next(iter_corpus_models(spec))
    assert info.value.stats == {"implied_models": 11, "model_ceiling": 10}
    at_ceiling = CorpusSpec(kinds=("dynsys",), sample_count=10, model_ceiling=10)
    assert len(list(iter_corpus_models(at_ceiling))) == 10


def test_sampled_corpus_deterministic():
    spec = CorpusSpec(sample_count=5, seed=11, rank_max=2, vertices_max=3)
    docs1 = [canonical_json(m.to_doc()) for m, _ in iter_corpus_models(spec)]
    docs2 = [canonical_json(m.to_doc()) for m, _ in iter_corpus_models(spec)]
    assert docs1 == docs2
    assert len(docs1) == 5


def test_sweep_on_sampled_corpus_is_clean():
    spec = CorpusSpec(sample_count=8, seed=23, rank_max=2, vertices_max=3)
    assert theorem_a_sweep(
        iter_corpus_models(spec),
        candidate_ceiling=spec.candidate_ceiling,
        candidate_samples=spec.candidate_samples,
    ) == []


#: sha256 of each exhaustive leg's model documents, one canonical JSON line
#: per model in corpus order, as first recorded; any reorder or change of a
#: model, or of the commutation filter, changes the digest.
EXHAUSTIVE_LEG_DIGESTS = {
    "all commuting partial-map pairs on <= 3 points":
        (685, "1ef0c1f083c41275078f181ff0c05baa72558b656f4bb132bc3180af99f91e3f"),
    "all commuting matrix pairs (entries <= 2) on <= 2 vertices":
        (752, "d54a62eca14c3ff3c6f380d7709ca6aba4d3455e9e0a3595ecb1ca83562dab88"),
}


def test_exhaustive_legs_keep_their_order_and_documents():
    got = {}
    for name, spec in EXHAUSTIVE_LEGS:
        digest = hashlib.sha256()
        count = 0
        for model, seed in iter_corpus_models(spec):
            assert seed is None
            digest.update(canonical_json(model.to_doc()).encode() + b"\n")
            count += 1
        got[name] = (count, digest.hexdigest())
    assert got == EXHAUSTIVE_LEG_DIGESTS


def reference_models(kind, ranks, vertex_counts, max_mult=2):
    """The exhaustive corpus by its first filter: rank by rank, then vertex
    count by vertex count, the product over singles in order, keeping a
    tuple when ``_first_clash`` finds each single commuting with every one
    chosen before it."""
    for rank in ranks:
        for v in vertex_counts:
            names = tuple(f"v{i}" for i in range(v))
            if kind == "kgraph":
                singles = [
                    tuple(flat[r * v:(r + 1) * v] for r in range(v))
                    for flat in itertools.product(range(max_mult + 1), repeat=v * v)
                ]
                clash = kgraph._first_clash

                def build(chosen):
                    return KGraphSkeleton(names, chosen)
            else:
                singles = list(itertools.product((None, *range(v)), repeat=v))
                clash = dynsys._first_clash

                def build(chosen):
                    return PartialMapSystem(names, [
                        {names[w]: names[t] for w, t in enumerate(img) if t is not None}
                        for img in chosen
                    ])

            def rec(chosen):
                if len(chosen) == rank:
                    yield build(chosen)
                    return
                for single in singles:
                    if all(clash(single, prev) is None for prev in chosen):
                        yield from rec(chosen + (single,))

            yield from rec(())


@pytest.mark.parametrize(
    "kind, ranks, vertices, count",
    [
        ("dynsys", (1, 2, 3), (1, 2, 3), 5_563),
        ("kgraph", (1, 2, 3), (1, 2), 6_560),
        ("dynsys", (2,), (4,), 13_741),
    ],
    ids=["dynsys-upto-3-points", "kgraph-upto-2-vertices", "dynsys-4-point-pairs"],
)
def test_exhaustive_corpus_matches_the_reference_filter(kind, ranks, vertices, count):
    """The commuting-pair table yields the same models in the same order as
    the reference filter, over every cell of the ranges; a later rank reuses
    the table its vertex count built first."""
    spec = CorpusSpec(
        kinds=(kind,), rank_min=ranks[0], rank_max=ranks[-1],
        vertices_min=vertices[0], vertices_max=vertices[-1], max_mult=2,
        exhaustive=True, model_ceiling=10**6,
    )
    got = [m.to_doc() for m, _ in iter_corpus_models(spec)]
    assert len(got) == count
    assert got == [m.to_doc() for m in reference_models(kind, ranks, vertices)]


def test_a_rank_1_corpus_tests_no_pair(monkeypatch):
    """Rank 1 needs no commutation test: 19,683 matrices on 3 vertices with
    entries <= 2 would be 1.9e8 ordered pairs, minutes of work."""
    def no_clash(a, b):
        raise AssertionError("a rank-1 corpus tested a pair")

    monkeypatch.setattr(crossval, "_matrix_clash", no_clash)
    spec = CorpusSpec(
        kinds=("kgraph",), rank_min=1, rank_max=1,
        vertices_min=3, vertices_max=3, max_mult=2, exhaustive=True,
    )
    start = time.perf_counter()
    assert sum(1 for _ in iter_corpus_models(spec)) == 3 ** 9
    assert time.perf_counter() - start < 30
