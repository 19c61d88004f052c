import json

import pytest

from contagion_control.cli import main


@pytest.fixture
def quad_spec(tmp_path):
    path = tmp_path / "quad.json"
    path.write_text(json.dumps(
        {"kind": "explicit", "entries": [[2, 2, 0, 0.2], [2, 2, 2, 0.8]]}
    ))
    return str(path)


class TestSolve:
    def test_solution_json(self, quad_spec, tmp_path, capsys):
        out = tmp_path / "sol.json"
        code = main(["solve", "--distribution", quad_spec, "--cost", "10.0",
                     "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["end_fraction"] == pytest.approx(0.25, abs=1e-9)
        assert doc["objective"] == pytest.approx(0.25, abs=1e-9)
        assert doc["policy"]["thresholds"] == {}

    def test_singular_policy_round_trip(self, quad_spec, capsys):
        code = main(["solve", "--distribution", quad_spec, "--cost", "1.5"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["branch"] == "stage_b:j=2"
        assert "2,2" in doc["policy"]["singular"]

    def test_bad_distribution_file(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert main(["solve", "--distribution", missing, "--cost", "1.0"]) == 2


class TestSimulate:
    def test_run_with_trace(self, quad_spec, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code = main(["simulate", "--distribution", quad_spec, "--n", "100",
                     "--policy", "none", "--seed", "3", "--trace", str(trace)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 100 and doc["m"] == 200
        lines = trace.read_text().splitlines()
        assert lines[0] == "k,D,IT,D_minus"
        assert len(lines) == 1 + doc["T"]
        assert lines[-1].endswith(",0")

    def test_optimal_policy_runs(self, quad_spec, capsys):
        code = main(["simulate", "--distribution", quad_spec, "--n", "200",
                     "--policy", "optimal", "--cost", "0.5", "--seed", "1"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["interventions"] > 0

    def test_solve_output_feeds_simulate(self, quad_spec, tmp_path, capsys):
        sol_path = tmp_path / "sol.json"
        assert main(["solve", "--distribution", quad_spec, "--cost", "1.5",
                     "--output", str(sol_path)]) == 0
        code = main(["simulate", "--distribution", quad_spec, "--n", "500",
                     "--policy", str(sol_path), "--seed", "2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["interventions"] > 0

    def test_infeasible_counts_exit_code(self, tmp_path):
        spec = tmp_path / "odd.json"
        spec.write_text(json.dumps(
            {"kind": "explicit", "entries": [[2, 1, 0, 0.5], [0, 1, 0, 0.5]]}
        ))
        code = main(["simulate", "--distribution", str(spec), "--n", "3"])
        assert code == 3


class TestStudyAndCompare:
    def _config(self, tmp_path):
        cfg = {
            "distribution": {"kind": "explicit",
                             "entries": [[2, 2, 0, 0.2], [2, 2, 2, 0.8]]},
            "sizes": [50, 100],
            "runs": 4,
            "policies": ["none", "complete"],
            "cost": 0.5,
            "seed": 9,
        }
        path = tmp_path / "study.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_study_writes_outputs(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        outdir = tmp_path / "out"
        code = main(["study", "--config", cfg, "--outdir", str(outdir)])
        assert code == 0
        head = capsys.readouterr().out.splitlines()[0]
        assert head == "n,policy,variable,mean,sd,q1,median,q3,iqr,theory_p,theory_Pn"
        assert (outdir / "study_stats.csv").exists()

    def test_study_without_outdir_is_config_error(self, tmp_path):
        assert main(["study", "--config", self._config(tmp_path)]) == 2

    def test_compare(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        outdir = tmp_path / "cmp"
        code = main(["compare", "--config", cfg, "--outdir", str(outdir)])
        assert code == 0
        assert "complete" in capsys.readouterr().out
        assert (outdir / "comparison.csv").exists()

    def test_solved_table_in_study_and_compare(self, quad_spec, tmp_path, capsys):
        assert main(["solve", "--distribution", quad_spec, "--cost", "1.5"]) == 0
        table = json.loads(capsys.readouterr().out)["policy"]
        cfg = json.loads(open(self._config(tmp_path)).read())
        cfg.update(policies=["optimal", table], cost=1.5)
        path = tmp_path / "table.json"
        path.write_text(json.dumps(cfg))
        for command in ("study", "compare"):
            assert main([command, "--config", str(path), "--outdir", str(tmp_path / command)]) == 0
        assert "table: defaults=" in capsys.readouterr().out

    def test_single_size_study(self, tmp_path, capsys):
        cfg = json.loads(open(self._config(tmp_path)).read())
        cfg["sizes"] = [50]
        path = tmp_path / "one.json"
        path.write_text(json.dumps(cfg))
        outdir = tmp_path / "one"
        assert main(["study", "--config", str(path), "--outdir", str(outdir)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 2 * 3
        assert len(list(outdir.iterdir())) == 3 + 2 * 3 * 3

    def test_garbage_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["study", "--config", str(path)]) == 2


ZIPF = {"kind": "zipf_copula", "xi": 0.5, "a1": 0.8, "a2": 0.7, "rho": 0.9, "max_deg": 4}
QUAD = {"kind": "explicit", "entries": [[2, 2, 0, 0.2], [2, 2, 2, 0.8]]}
NO_LINKS = {"kind": "explicit", "entries": [[0, 0, 0, 1.0]]}
HALF_MASS = {"kind": "explicit", "entries": [[2, 2, 0, 0.1], [2, 2, 2, 0.4]]}
DEGREE_1031 = {"kind": "explicit", "entries": [[1031, 1031, 0, 0.2], [1031, 1031, 1031, 0.8]]}


@pytest.mark.parametrize("case,distribution,extra,policy", [
    ("cost nan", QUAD, ["solve", "--cost", "nan"], None),
    ("cost inf", QUAD, ["solve", "--cost", "inf"], None),
    ("non-numeric xi", {**ZIPF, "xi": "half"}, ["solve", "--cost", "0.5"], None),
    ("non-numeric explicit entry", {"kind": "explicit", "entries": [[2, 2, "x", 1.0]]},
     ["solve", "--cost", "0.5"], None),
    ("short explicit entry", {"kind": "explicit", "entries": [[2, 2, 1.0]]},
     ["solve", "--cost", "0.5"], None),
    ("degree_range without lo", QUAD, ["simulate", "--n", "50"],
     {"kind": "degree_range", "hi": 2}),
    ("degree_range without hi", QUAD, ["simulate", "--n", "50"],
     {"kind": "degree_range", "lo": 1}),
    ("threshold key with a letter", QUAD, ["simulate", "--n", "50"],
     {"kind": "threshold_table", "thresholds": {"2,2,x": 0.1}}),
    ("threshold key of the wrong length", QUAD, ["simulate", "--n", "50"],
     {"kind": "threshold_table", "singular": {"2,2,2": 0.1}}),
    # study rows: `extra` is the command and the fields that override a valid config
    ("duplicate policy names", QUAD, ["study", {"policies": ["none", {"kind": "none"}]}], None),
    ("study cost nan", QUAD, ["compare", {"cost": "nan"}], None),
    ("non-numeric runs", QUAD, ["study", {"runs": "x"}], None),
    ("threshold nan", QUAD, ["simulate", "--n", "50"],
     {"kind": "threshold_table", "thresholds": {"2,2,2": "nan"}}),
    ("threshold above 1", QUAD, ["simulate", "--n", "50"],
     {"kind": "threshold_table", "thresholds": {"2,2,2": 1.5}}),
    ("table start rising with the cushion",
     {"kind": "explicit", "entries": [[2, 2, 0, 0.2], [2, 2, 1, 0.8]]},
     ["study", {"policies": ["none", {"kind": "threshold_table", "thresholds": {"2,2,1": 0.0},
                                      "singular": {"2,2": 0.1}}]}], None),
    ("explicit mass nan under solve",
     {"kind": "explicit", "entries": [[2, 2, 0, 0.2], [2, 2, 2, "nan"]]},
     ["solve", "--cost", "0.5"], None),
    ("explicit mass nan under simulate",
     {"kind": "explicit", "entries": [[2, 2, 0, 0.2], [2, 2, 2, "nan"]]},
     ["simulate", "--n", "50"], None),
    ("zipf exponent nan", {**ZIPF, "a1": "nan"}, ["solve", "--cost", "0.5"], None),
    # fractions where an integer belongs are rejected, not truncated
    ("fractional max_deg", {**ZIPF, "max_deg": 4.9}, ["solve", "--cost", "0.5"], None),
    ("fractional explicit entry", {"kind": "explicit", "entries": [[2.7, 2.2, 0, 0.2],
                                                                 [2, 2, 2, 0.8]]},
     ["solve", "--cost", "0.5"], None),
    ("fractional runs", QUAD, ["study", {"runs": 2.9}], None),
    ("fractional sizes", QUAD, ["study", {"sizes": [100.5, 200]}], None),
    ("fractional degree_range", QUAD, ["simulate", "--n", "50"],
     {"kind": "degree_range", "lo": 1.7, "hi": 2.2}),
    # output paths that cannot be written; {tmp} is the test's directory
    ("trace into a missing directory", QUAD,
     ["simulate", "--n", "50", "--trace", "{tmp}/missing/trace.csv"], None),
    ("solve output into a missing directory", QUAD,
     ["solve", "--cost", "0.5", "--output", "{tmp}/missing/sol.json"], None),
    ("study outdir under a regular file", QUAD, ["study", {}, "--outdir", "{tmp}/dist.json/out"],
     None),
    ("max_deg above the cap", {**ZIPF, "max_deg": 201}, ["solve", "--cost", "0.5"], None),
    ("study with no sizes", QUAD, ["study", {"sizes": []}], None),
    ("compare with no sizes", QUAD, ["compare", {"sizes": []}], None),
    # a config that is not a JSON object: `extra` holds the whole document
    ("study config that is a JSON array", QUAD, ["study", [QUAD]], None),
    ("compare config that is a JSON array", QUAD, ["compare", [QUAD]], None),
    # mean degree 0: no links, so no limits to solve or compare
    ("mean degree 0 from a zero mass", {"kind": "explicit", "entries": [[2, 2, 0, 0.0]]},
     ["solve", "--cost", "0.5"], None),
    ("mean degree 0 from no entries", {"kind": "explicit", "entries": []},
     ["solve", "--cost", "0.5"], None),
    ("mean degree 0 from degree-0 nodes", NO_LINKS, ["solve", "--cost", "0.5"], None),
    ("study with mean degree 0", NO_LINKS, ["study", {}], None),
    ("compare with mean degree 0", NO_LINKS, ["compare", {}], None),
    # numpy's SeedSequence takes no negative seed
    ("negative seed under simulate", QUAD, ["simulate", "--n", "50", "--seed", "-1"], None),
    ("negative seed under study", QUAD, ["study", {"seed": -1}], None),
    ("negative seed under compare", QUAD, ["compare", {"seed": -1}], None),
    # a population needs the masses of all its nodes
    ("total mass 0 under simulate", {"kind": "explicit", "entries": [[2, 2, 0, 0.0]]},
     ["simulate", "--n", "50"], None),
    ("total mass one half under simulate", HALF_MASS, ["simulate", "--n", "100"], None),
    # simulate checks the cost under every policy, not only where it solves
    *[(f"simulate {policy} cost {cost}", QUAD,
       ["simulate", "--n", "50", "--policy", policy, "--cost", cost], None)
      for policy in ("none", "complete") for cost in ("-1", "0", "nan", "inf")],
    # a JSON array field given a scalar or a string is not iterated
    ("explicit entries that are not an array", {"kind": "explicit", "entries": 5},
     ["simulate", "--n", "50"], None),
    ("study policies that are a string", QUAD, ["study", {"policies": "optimal"}], None),
    ("study sizes that are a string", QUAD, ["study", {"sizes": "abc"}], None),
    # a JSON boolean is not an integer
    ("boolean degree_range bound", QUAD, ["simulate", "--n", "50"],
     {"kind": "degree_range", "lo": True, "hi": 3}),
    # a policy name is a CSV cell and part of a file name: refused before any run
    ("study policy name that is a number", QUAD,
     ["study", {"policies": ["none", {"kind": "none", "name": 5}]}], None),
    ("study policy name with a comma", QUAD,
     ["study", {"policies": ["none", {"kind": "complete", "name": "a,b"}]}], None),
    ("study policy name with a slash", QUAD,
     ["study", {"policies": ["none", {"kind": "complete", "name": "a/b"}]}], None),
    ("study policy name that is empty", QUAD,
     ["study", {"policies": ["none", {"kind": "complete", "name": ""}]}], None),
    ("compare policy name that is a number", QUAD,
     ["compare", {"policies": ["none", {"kind": "none", "name": 5}]}], None),
    # sizes below 1 are refused before any solve or run
    ("compare with a negative size", QUAD, ["compare", {"sizes": [-5, 10]}], None),
    ("study with a negative size", QUAD, ["study", {"sizes": [-5, 10]}], None),
    ("study with a size of 0", QUAD, ["study", {"sizes": [0, 10]}], None),
    ("degree_range with lo above hi", QUAD, ["simulate", "--n", "50"],
     {"kind": "degree_range", "lo": 3, "hi": 1}),
    ("degree_range with a negative lo", QUAD, ["simulate", "--n", "50"],
     {"kind": "degree_range", "lo": -1, "hi": 2}),
    ("explicit class with a negative index",
     {"kind": "explicit", "entries": [[2, 2, -1, 0.2], [2, 2, 2, 0.8]]},
     ["solve", "--cost", "0.5"], None),
    ("unknown policy kind", QUAD, ["simulate", "--n", "50"], {"kind": "foo"}),
    ("threshold_table thresholds that are not an object", QUAD, ["simulate", "--n", "50"],
     {"kind": "threshold_table", "thresholds": [0.1]}),
    # a field set to None is left out of the config
    ("study config with no distribution", QUAD, ["study", {"distribution": None}], None),
    # a JSON boolean is not a number
    ("boolean study cost", QUAD, ["study", {"cost": True}], None),
    ("boolean zipf exponent", {**ZIPF, "a1": True}, ["solve", "--cost", "0.5"], None),
    ("boolean explicit mass",
     {"kind": "explicit", "entries": [[2, 2, 0, 0.2], [2, 2, 2, 0.8], [2, 2, 1, False]]},
     ["solve", "--cost", "0.5"], None),
    ("boolean threshold", QUAD, ["simulate", "--n", "50"],
     {"kind": "threshold_table", "thresholds": {"2,2,2": True}}),
    # C(i - 1, k) of an in-degree above 1030 exceeds the largest float
    ("solve on in-degree 1031", DEGREE_1031, ["solve", "--cost", "0.5"], None),
    ("study on in-degree 1031", DEGREE_1031, ["study", {}], None),
    ("compare on in-degree 1031", DEGREE_1031, ["compare", {}], None),
    ("simulate optimal on in-degree 1031", DEGREE_1031,
     ["simulate", "--n", "50", "--policy", "optimal"], None),
    ("study with no policies", QUAD, ["study", {"policies": []}], None),
    # the copula's quadrature loses marginal mass this close to rho = 1
    ("zipf rho too close to 1", {**ZIPF, "rho": 0.9999}, ["solve", "--cost", "0.5"], None),
    # a misspelt or unknown key is refused, not ignored
    ("study config key typo", QUAD, ["study", {"run": 4}], None),
    ("compare config key typo", QUAD, ["compare", {"polices": ["none", "complete"]}], None),
    ("explicit spec without entries", {"kind": "explicit"}, ["solve", "--cost", "0.5"], None),
    ("explicit spec with an unknown key", {**QUAD, "name": "quad"}, ["simulate", "--n", "50"],
     None),
    ("zipf spec with an unknown key", {**ZIPF, "maxdeg": 4}, ["solve", "--cost", "0.5"], None),
])
def test_bad_input_is_a_one_line_config_error(case, distribution, extra, policy, tmp_path, capsys):
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps(distribution))
    argv = [extra[0], "--distribution", str(dist), *extra[1:]]
    if extra[0] in ("study", "compare"):
        cfg = tmp_path / "study.json"
        doc = extra[1]
        if isinstance(doc, dict):
            doc = {"distribution": distribution, "sizes": [50, 100], "runs": 2,
                   "policies": ["none", "complete"], **doc}
            doc = {key: value for key, value in doc.items() if value is not None}
        cfg.write_text(json.dumps(doc))
        argv = [extra[0], "--config", str(cfg), "--outdir", str(tmp_path / "out"), *extra[2:]]
    if policy is not None:
        pol = tmp_path / "policy.json"
        pol.write_text(json.dumps(policy))
        argv += ["--policy", str(pol)]
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert main(argv) == 2, case
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), (case, err)


def test_no_intervention_runs_above_the_in_degree_limit(tmp_path, capsys):
    # the simulator needs no binomial sums: only the limits stop at 1030
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps(DEGREE_1031))
    assert main(["simulate", "--distribution", str(dist), "--n", "50", "--policy", "none"]) == 0
    assert json.loads(capsys.readouterr().out)["defaults"] == 10


@pytest.mark.parametrize("field,value,message", [
    ("cost", True, "error: study config field 'cost' must be a number, got true"),
    ("runs", None, "error: study config field 'runs' must be an integer, got null"),
])
def test_refusal_spells_the_json_value(field, value, message, tmp_path, capsys):
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({"distribution": QUAD, "sizes": [50], field: value}))
    assert main(["study", "--config", str(cfg), "--outdir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.strip() == message


@pytest.mark.parametrize("entries,mass", [([[2, 2, 0, 0.0]], "0.0"),
                                          (HALF_MASS["entries"], "0.5")])
def test_sub_unit_mass_names_the_total(entries, mass, tmp_path, capsys):
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps({"kind": "explicit", "entries": entries}))
    assert main(["simulate", "--distribution", str(dist), "--n", "100"]) == 2
    assert f"error: total mass {mass} is below 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "study", "compare"])
def test_population_too_large_for_memory_is_one_error_line(command, monkeypatch, tmp_path,
                                                           capsys):
    # the first per-node arrays, built on the population's first run, raise
    # as they would on 10^11 nodes; nothing large is allocated
    from contagion_control import cascade

    def no_memory(nodes, pop):
        raise MemoryError

    monkeypatch.setattr(cascade._Nodes, "__init__", no_memory)
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps(QUAD))
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({"distribution": QUAD, "sizes": [50, 10**11], "runs": 2,
                               "policies": ["none", "complete"]}))
    if command == "simulate":
        argv = ["simulate", "--distribution", str(dist), "--n", str(10**11)]
    else:
        argv = [command, "--config", str(cfg), "--outdir", str(tmp_path / "out")]
    assert main(argv) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: the population does not fit in memory; choose a smaller n"]


def test_unknown_study_key_is_named_with_the_accepted_keys(tmp_path, capsys):
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({"distribution": QUAD, "run": 4}))
    assert main(["study", "--config", str(cfg), "--outdir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.strip() == (
        'error: study config has unknown key "run"; accepted keys: '
        'cost, distribution, outdir, policies, runs, seed, sizes')
    assert not (tmp_path / "out").exists()
