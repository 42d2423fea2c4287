"""End-to-end CLI behaviour: grammar, exit codes, determinism, schemas."""

import json

import pytest

from giideals.cli import main
from giideals.cli import run as cli_run


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_alias_is_the_entry_point():
    assert cli_run is main


def fx(fixture_dir, name):
    return str(fixture_dir / name)


def test_family_check_t_mode_witness(capsys, fixture_dir):
    code, out, _ = run(
        capsys,
        "family", "check",
        fx(fixture_dir, "absorb2.json"),
        fx(fixture_dir, "absorb2_nested_family.json"),
        "--mode", "t",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] is False
    assert doc["witness"]["F"] == "1"
    assert doc["witness"]["i"] == 2


def test_family_check_nt_and_o_modes(capsys, fixture_dir):
    for mode in ("nt", "o"):
        code, out, _ = run(
            capsys,
            "family", "check",
            fx(fixture_dir, "absorb2.json"),
            fx(fixture_dir, "absorb2_nested_family.json"),
            "--mode", mode,
        )
        assert code == 1
        assert json.loads(out)["verdict"] is False


def test_family_check_rel_requires_bound(capsys, fixture_dir):
    code, _, err = run(
        capsys,
        "family", "check",
        fx(fixture_dir, "absorb2.json"),
        fx(fixture_dir, "absorb2_nested_family.json"),
        "--mode", "rel",
    )
    assert code == 2
    assert "requires" in err


def test_family_check_rel_mode_passes(capsys, fixture_dir):
    code, out, _ = run(
        capsys,
        "family", "check",
        fx(fixture_dir, "absorb2.json"),
        fx(fixture_dir, "absorb2_nested_family.json"),
        "--mode", "rel",
        "--k", fx(fixture_dir, "absorb2_nested_family.json"),
    )
    # nested family fails the fixed-point equations regardless of the bound
    assert code == 1
    assert json.loads(out)["violated_condition"] == "t_equation"


def test_compute_if_absorb2_exact_output(capsys, fixture_dir):
    code, out, _ = run(capsys, "compute", "if", fx(fixture_dir, "absorb2.json"))
    assert code == 0
    assert out.strip() == (
        '{"rank":2,"sets":{"":[],"1":["p","q"],"1,2":["p","q"],"2":["q"]}}'
    )


def test_compute_jf_shift2(capsys, fixture_dir):
    code, out, _ = run(capsys, "compute", "jf", fx(fixture_dir, "shift2.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["sets"]["1"] == ["v1"]
    assert doc["sets"][""] == []


def test_enumerate_count_only(capsys, fixture_dir):
    code, out, _ = run(
        capsys, "enumerate", fx(fixture_dir, "loops2.json"), "--count-only"
    )
    assert code == 0
    assert out.strip() == "6"


def test_enumerate_full_document(capsys, fixture_dir):
    code, out, _ = run(capsys, "enumerate", fx(fixture_dir, "loop1.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "T"
    assert doc["count"] == 3
    assert doc["families"][0] == {"": [], "1": []}


def test_enumerate_relative(capsys, fixture_dir, tmp_path):
    bound = tmp_path / "bound.json"
    bound.write_text(
        json.dumps({"rank": 1, "sets": {"": [], "1": ["v"]}})
    )
    code, out, _ = run(
        capsys,
        "enumerate", fx(fixture_dir, "loop1.json"),
        "--relative", str(bound), "--count-only",
    )
    assert code == 0
    assert out.strip() == "2"


def test_enumerate_budget_exceeded(capsys, fixture_dir):
    code, out, _ = run(
        capsys, "enumerate", fx(fixture_dir, "funnel2.json"), "--budget", "2"
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["error"] == "budget-exceeded"
    assert doc["stats"]["budget"] == 2


def test_validate_and_fingerprint(capsys, fixture_dir):
    code, out, _ = run(capsys, "validate", fx(fixture_dir, "funnel2.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is True and doc["rank"] == 2 and doc["vertices"] == 2


def test_validate_missing_file(capsys):
    code, out, err = run(capsys, "validate", "no-such-file.json")
    assert code == 2
    assert out == ""
    assert "error" in err


def test_validate_bad_document(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "kgraph", "rank": 1, "vertices": ["v"]}))
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "missing" in err


def test_validate_rank3_note(capsys, tmp_path):
    doc = {
        "kind": "kgraph",
        "rank": 3,
        "vertices": ["v"],
        "adjacency": [[[1]], [[1]], [[1]]],
    }
    path = tmp_path / "r3.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert json.loads(out)["note"] == "skeleton-level model"


def test_unknown_flag_exits_2_with_usage(capsys, fixture_dir):
    code, _, err = run(
        capsys, "enumerate", fx(fixture_dir, "loop1.json"), "--frobnicate"
    )
    assert code == 2
    assert "usage" in err.lower()


def test_unknown_subcommand_exits_2(capsys):
    code, _, err = run(capsys, "bogus")
    assert code == 2
    assert "usage" in err.lower()


def test_lattice_writes_files(capsys, fixture_dir, tmp_path):
    dot = tmp_path / "lat.dot"
    js = tmp_path / "lat.json"
    code, out, _ = run(
        capsys,
        "lattice", fx(fixture_dir, "loop1.json"),
        "--dot", str(dot), "--json", str(js),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["nodes"] == 3 and summary["cover_edges"] == 2
    assert dot.read_text().startswith("digraph")
    lat_doc = json.loads(js.read_text())
    assert lat_doc["bottom"] == summary["bottom"]


@pytest.mark.parametrize("flag", ["--dot", "--json"])
def test_lattice_unwritable_output_is_invalid_input(capsys, fixture_dir, tmp_path, flag):
    target = tmp_path / "missing" / "out"
    code, out, err = run(
        capsys, "lattice", fx(fixture_dir, "loop1.json"), flag, str(target)
    )
    assert code == 2
    assert out == ""
    assert "cannot write" in err
    assert not target.exists()


def test_lattice_failed_second_write_leaves_no_file(capsys, fixture_dir, tmp_path):
    dot = tmp_path / "a.dot"
    code, out, err = run(
        capsys,
        "lattice", fx(fixture_dir, "loop1.json"),
        "--dot", str(dot), "--json", str(tmp_path / "missing" / "a.json"),
    )
    assert code == 2
    assert out == ""
    assert "cannot write" in err
    assert list(tmp_path.iterdir()) == []


def test_lattice_same_output_path_is_invalid_input(capsys, fixture_dir, tmp_path):
    (tmp_path / "sub").mkdir()
    code, out, err = run(
        capsys,
        "lattice", fx(fixture_dir, "loop1.json"),
        "--dot", str(tmp_path / "x"), "--json", str(tmp_path / "sub" / ".." / "x"),
    )
    assert code == 2
    assert out == ""
    assert "same file" in err
    assert list(tmp_path.iterdir()) == [tmp_path / "sub"]


def test_random_too_many_vertices_message(capsys):
    code, out, err = run(
        capsys, "random", "--kind", "kgraph", "--rank", "2", "--vertices", "65",
        "--seed", "1",
    )
    assert code == 2
    assert out == ""
    assert "at most 64 vertices supported, got 65" in err
    assert "positive" not in err


def test_crosscheck_single_model(capsys, fixture_dir):
    code, out, err = run(capsys, "crosscheck", fx(fixture_dir, "absorb2.json"))
    assert code == 0
    assert out == ""
    assert "0 discrepancy report(s)" in err


def test_crosscheck_corpus(capsys, fixture_dir):
    code, out, err = run(
        capsys, "crosscheck", "--corpus", fx(fixture_dir, "corpus_small.json")
    )
    assert code == 0
    assert out == ""
    assert "45 model(s)" in err


def test_crosscheck_needs_exactly_one_source(capsys, fixture_dir):
    code, _, err = run(capsys, "crosscheck")
    assert code == 2
    code, _, err = run(
        capsys,
        "crosscheck", fx(fixture_dir, "absorb2.json"),
        "--corpus", fx(fixture_dir, "corpus_small.json"),
    )
    assert code == 2


def test_random_deterministic_stdout(capsys):
    args = ["random", "--kind", "dynsys", "--rank", "2", "--vertices", "4",
            "--seed", "7"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["kind"] == "dynsys" and len(doc["points"]) == 4


def test_random_rejection_budget_zero(capsys):
    # a nonpositive retry count is invalid input under either strategy, not
    # a budget exit: no model was tried
    for strategy in ("rejection", "derived"):
        for retries in ("0", "-3"):
            code, out, err = run(
                capsys,
                "random", "--kind", "kgraph", "--rank", "2", "--vertices", "2",
                "--seed", "1", "--strategy", strategy, "--retries", retries,
            )
            assert code == 2
            assert out == ""
            assert "--retries" in err


def test_identical_invocations_byte_identical(capsys, fixture_dir):
    args = ["enumerate", fx(fixture_dir, "funnel2.json")]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_jobs_do_not_change_output(capsys, fixture_dir):
    base = ["enumerate", fx(fixture_dir, "funnel2.json")]
    _, out1, _ = run(capsys, *base)
    _, out2, _ = run(capsys, *base, "--jobs", "2")
    assert out1 == out2


def test_jobs_share_one_enumeration_budget(capsys, tmp_path):
    # the model needs 402 candidates in all, fewer than 300 per worker
    code, doc, _ = run(
        capsys, "random", "--kind", "kgraph", "--rank", "2", "--vertices", "5",
        "--seed", "7",
    )
    assert code == 0
    model = tmp_path / "model.json"
    model.write_text(doc)
    base = ["enumerate", str(model)]
    outs, budget_outs = [], []
    for jobs in ("1", "2"):
        code, out, _ = run(capsys, *base, "--budget", "300", "--jobs", jobs)
        assert code == 3
        assert json.loads(out)["error"] == "budget-exceeded"
        budget_outs.append(out)
        code, out, _ = run(capsys, *base, "--jobs", jobs)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert budget_outs[0] == budget_outs[1]


def test_jobs_share_the_relative_enumeration_budget(capsys, fixture_dir, tmp_path):
    # funnel2 above its canonical family needs 10 candidates in all; tops
    # below the bound count too, whichever worker draws them
    model = fx(fixture_dir, "funnel2.json")
    code, doc, _ = run(capsys, "compute", "if", model)
    assert code == 0
    bound = tmp_path / "if.json"
    bound.write_text(doc)
    base = ["enumerate", model, "--relative", str(bound)]
    for budget, want in (("9", 3), ("10", 0)):
        outs = set()
        for jobs in ("1", "2", "3"):
            code, out, _ = run(capsys, *base, "--budget", budget, "--jobs", jobs)
            assert code == want
            outs.add(out)
        assert len(outs) == 1
    assert json.loads(out)["mode"] == "O"
    assert json.loads(out)["count"] == 2


def test_jobs_budget_exit_identical_on_21_vertices(capsys, tmp_path):
    # 2**21 tops: the budget runs out long before the workers' slices do
    code, doc, _ = run(
        capsys, "random", "--kind", "dynsys", "--rank", "1", "--vertices", "21",
        "--seed", "1",
    )
    assert code == 0
    model = tmp_path / "model.json"
    model.write_text(doc)
    outs = []
    for jobs in ("1", "2"):
        code, out, _ = run(
            capsys, "enumerate", str(model), "--budget", "1000", "--jobs", jobs
        )
        assert code == 3
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0]) == {
        "error": "budget-exceeded",
        "stats": {"budget": 1000},
    }


def test_jobs_relative_enumeration_identical(capsys, fixture_dir, tmp_path):
    bound = tmp_path / "bound.json"
    bound.write_text(
        json.dumps(
            {"rank": 2, "sets": {"": [], "1": ["v"], "2": ["v"], "1,2": ["v"]}}
        )
    )
    base = [
        "enumerate", fx(fixture_dir, "loops2.json"), "--relative", str(bound)
    ]
    _, out1, _ = run(capsys, *base)
    _, out2, _ = run(capsys, *base, "--jobs", "3")
    assert out1 == out2
    assert json.loads(out1)["count"] == 2


def test_jobs_enumeration_above_a_bound_that_is_not_a_family(capsys, fixture_dir, tmp_path):
    model = fx(fixture_dir, "shift2.json")
    code, jf_doc, _ = run(capsys, "compute", "jf", model)
    assert code == 0
    bound = tmp_path / "jf.json"
    bound.write_text(jf_doc)
    base = ["enumerate", model, "--relative", str(bound)]
    code1, out1, _ = run(capsys, *base, "--jobs", "1")
    code2, out2, _ = run(capsys, *base, "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["count"] >= 1


def test_crosscheck_discrepancies_exit_1(capsys, fixture_dir, monkeypatch):
    # a fixed-point verdict that always says no mismatches every valid
    # family; each report is one canonical JSON line on stdout
    import giideals.cli
    from giideals.crossval import theorem_a_sweep
    from giideals.modelio import canonical_json

    def faulty_sweep(pairs, **kwargs):
        return theorem_a_sweep(pairs, t_check=lambda m, fam: False, **kwargs)

    monkeypatch.setattr(giideals.cli, "theorem_a_sweep", faulty_sweep)
    code, out, err = run(capsys, "crosscheck", fx(fixture_dir, "absorb2.json"))
    assert code == 1
    docs = [json.loads(line) for line in out.splitlines()]
    assert docs and [canonical_json(d) for d in docs] == out.splitlines()
    keys = [(d["fingerprint"], d["claim"]) for d in docs]
    assert keys == sorted(keys)
    assert {d["claim"] for d in docs} == {"nt_matches_t", "no_matches_o"}
    assert f"{len(docs)} discrepancy report(s)" in err


def test_crosscheck_beyond_the_table_limit_is_a_budget_exit(capsys, tmp_path):
    # a valid 18-vertex model: validate accepts it, so crosscheck must not
    # call it invalid input; the sweep tables stop at 16 vertices
    code, out, _ = run(
        capsys,
        "random", "--kind", "dynsys", "--rank", "1", "--vertices", "18",
        "--seed", "1",
    )
    assert code == 0
    path = tmp_path / "big.json"
    path.write_text(out)
    assert run(capsys, "validate", str(path))[0] == 0
    code, out, _ = run(capsys, "crosscheck", str(path))
    assert code == 3
    assert json.loads(out) == {
        "error": "budget-exceeded",
        "stats": {"vertices": 18, "table_limit": 16},
    }

    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({
        "kinds": ["dynsys"], "rank_min": 1, "rank_max": 1,
        "vertices_min": 17, "vertices_max": 17, "sample_count": 2,
    }))
    code, out, _ = run(capsys, "crosscheck", "--corpus", str(corpus), "--jobs", "2")
    assert code == 3
    assert json.loads(out)["stats"] == {"vertices": 17, "table_limit": 16}


def test_jobs_crosscheck_deterministic(capsys, fixture_dir):
    args = ["crosscheck", "--corpus", fx(fixture_dir, "corpus_small.json")]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args, "--jobs", "2")
    assert out1 == out2


@pytest.mark.parametrize("jobs", ["0", "-2", "x"])
@pytest.mark.parametrize(
    "command", [["enumerate", "--count-only"], ["crosscheck"]], ids=lambda c: c[0]
)
def test_nonpositive_jobs_is_invalid_input(capsys, fixture_dir, command, jobs):
    code, out, err = run(
        capsys, command[0], fx(fixture_dir, "loop1.json"), *command[1:], "--jobs", jobs
    )
    assert code == 2
    assert out == ""
    assert "--jobs" in err


@pytest.mark.parametrize("budget", ["0", "-1"])
@pytest.mark.parametrize("command", ["enumerate", "lattice"])
def test_nonpositive_budget_is_invalid_input(capsys, fixture_dir, command, budget):
    # not a budget exit: no candidate was tried against an invalid budget
    code, out, err = run(
        capsys, command, fx(fixture_dir, "loop1.json"), "--budget", budget
    )
    assert code == 2
    assert out == ""
    assert "--budget" in err


def test_witness_replays_through_library(capsys, fixture_dir):
    # a failing check's witness, fed back through the library, must
    # reproduce the violation
    from giideals import label_to_mask, load_model_path
    from giideals.modelio import family_from_path

    model = load_model_path(fx(fixture_dir, "absorb2.json"))
    fam = family_from_path(model, fx(fixture_dir, "absorb2_nested_family.json"))
    _, out, _ = run(
        capsys,
        "family", "check",
        fx(fixture_dir, "absorb2.json"),
        fx(fixture_dir, "absorb2_nested_family.json"),
        "--mode", "t",
    )
    witness = json.loads(out)["witness"]
    f = label_to_mask(witness["F"], model.rank)
    i = witness["i"]
    lhs = fam[f]
    rhs = model.phi(i, fam[f]) & fam[f | (1 << (i - 1))]
    assert lhs != rhs
    assert set(model.names_of_set(lhs ^ rhs)) == set(witness["difference"])


def test_family_file_validation(capsys, fixture_dir, tmp_path):
    bad = tmp_path / "fam.json"
    bad.write_text(json.dumps({"rank": 2, "sets": {"": []}}))
    code, _, err = run(
        capsys,
        "family", "check", fx(fixture_dir, "absorb2.json"), str(bad),
        "--mode", "t",
    )
    assert code == 2
    assert "keys mismatch" in err


@pytest.mark.parametrize("target", [["q"], {"x": 1}], ids=["list", "object"])
def test_validate_rejects_a_non_string_map_target(capsys, tmp_path, target):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(
        {"kind": "dynsys", "rank": 1, "points": ["p", "q"], "maps": [{"p": target}]}
    ))
    code, out, err = run(capsys, "validate", str(model))
    assert code == 2
    assert out == ""
    assert "unknown point" in err


def test_family_check_rejects_a_non_string_vertex_name(capsys, fixture_dir, tmp_path):
    bad = tmp_path / "fam.json"
    bad.write_text(json.dumps({"rank": 2, "sets": {"": [["p"]], "1": [], "2": [], "1,2": []}}))
    code, out, err = run(
        capsys,
        "family", "check", fx(fixture_dir, "absorb2.json"), str(bad),
        "--mode", "t",
    )
    assert code == 2
    assert out == ""
    assert "unknown vertex name" in err


@pytest.mark.parametrize(
    "config",
    [{"rank_min": "1"}, {"kinds": 5}, {"exhaustive": "no"}],
    ids=["string-bound", "number-kinds", "string-exhaustive"],
)
def test_corpus_config_fields_are_type_checked(capsys, tmp_path, config):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(config))
    code, out, err = run(capsys, "crosscheck", "--corpus", str(corpus))
    assert code == 2
    assert out == ""
    assert "wrong type" in err


def test_corpus_with_repeated_kinds_is_invalid_input(capsys, tmp_path):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({
        "kinds": ["dynsys", "dynsys"], "exhaustive": True,
        "rank_min": 1, "rank_max": 1, "vertices_max": 2,
    }))
    code, out, err = run(capsys, "crosscheck", "--corpus", str(corpus))
    assert code == 2
    assert out == ""
    assert "kinds repeat" in err


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "kgraph", "rank": True, "vertices": ["a"], "adjacency": [[[1]]]},
        {"kind": "kgraph", "rank": 1, "vertices": ["a"], "adjacency": [[[1.5]]]},
        {"kind": "kgraph", "rank": 1, "vertices": ["a"], "adjacency": [[["1"]]]},
        {"kind": "kgraph", "rank": 1, "vertices": ["a"], "adjacency": [[[True]]]},
        {"kind": "dynsys", "rank": True, "points": ["p"], "maps": [{}]},
        {"rank": True, "sets": {"": [], "1": []}},
    ],
    ids=[
        "kgraph-rank-true", "entry-float", "entry-string", "entry-true",
        "dynsys-rank-true", "family-rank-true",
    ],
)
def test_non_integer_numbers_are_invalid_input(capsys, fixture_dir, tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    if "kind" in doc:
        argv = ["validate", str(path)]
    else:
        model = fx(fixture_dir, "loop1.json")
        argv = ["family", "check", model, str(path), "--mode", "t"]
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert out == ""
