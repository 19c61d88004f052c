
import math

import pytest

from contagion_control import (
    JointDistribution,
    ParameterError,
    extract_policy,
    powerlaw_fit,
    solve_op,
)
from contagion_control.experiments import (
    StudyConfig,
    Summary,
    compare_policies,
    normalize_policy_spec,
    run_study,
    samples_csv,
    spec_policy,
    stats_csv,
    table_spec,
    theory_limits,
)


@pytest.fixture
def tiny_cfg(quadratic_dist):
    return StudyConfig(
        distribution=quadratic_dist,
        sizes=(50, 100),
        runs=8,
        policies=("none", "complete"),
        cost=0.5,
        master_seed=5,
    )


class TestPolicySpecs:
    def test_shorthands(self):
        assert normalize_policy_spec("alternative") == {
            "kind": "degree_range", "lo": 8, "hi": 10, "name": "alternative",
        }
        assert normalize_policy_spec("none")["kind"] == "none"

    def test_bad_specs(self):
        with pytest.raises(ParameterError):
            normalize_policy_spec("bogus")
        with pytest.raises(ParameterError):
            normalize_policy_spec({"lo": 1})
        with pytest.raises(ParameterError, match="integers"):
            normalize_policy_spec({"kind": "degree_range", "lo": 1.7, "hi": 2.2})

    def test_band_named_by_its_parsed_bounds(self):
        spec = normalize_policy_spec({"kind": "degree_range", "lo": 2.0, "hi": "3"})
        assert spec["name"] == "degree_2_3"

    @pytest.mark.parametrize("fixture,cost", [
        ("quadratic_dist", 1.5),  # a singular entry
        ("quadratic_dist", 10.0),  # an empty table
        ("experiment_dist", 0.5),
    ])
    def test_table_spec_round_trip(self, fixture, cost, request):
        p = request.getfixturevalue(fixture)
        policy = extract_policy(solve_op(p, cost), p, cost)
        assert spec_policy(table_spec(policy)) == policy


class TestTheoryLimits:
    def test_none_matches_fixed_point(self, quadratic_dist):
        limits = theory_limits(quadratic_dist, normalize_policy_spec("none"), 0.5)
        assert limits["default_fraction"] == pytest.approx(0.25, abs=1e-10)
        assert limits["time_fraction"] == pytest.approx(0.25, abs=1e-10)
        assert limits["intervention_fraction"] == 0.0

    def test_complete_keeps_initial_defaults(self, quadratic_dist):
        limits = theory_limits(quadratic_dist, normalize_policy_spec("complete"), 0.5)
        assert limits["default_fraction"] == pytest.approx(0.2, abs=1e-12)

    def test_optimal_beats_none(self, quadratic_dist):
        opt = theory_limits(quadratic_dist, normalize_policy_spec("optimal"), 0.5)
        none = theory_limits(quadratic_dist, normalize_policy_spec("none"), 0.5)
        obj_opt = 0.5 * opt["intervention_fraction"] + opt["default_fraction"]
        obj_none = 0.5 * none["intervention_fraction"] + none["default_fraction"]
        assert obj_opt <= obj_none + 1e-12


class TestRunStudy:
    def test_no_defaults_all_zero(self):
        p = JointDistribution({(2, 2, 2): 1.0})
        cfg = StudyConfig(distribution=p, sizes=(20, 40), runs=4,
                          policies=("none", "complete"), cost=0.5, master_seed=1)
        res = run_study(cfg)
        for key, cell in res.stats.items():
            for var, s in cell.items():
                assert s.mean == 0.0 and s.sd == 0.0
        for lims in res.theory_p.values():
            assert all(v == pytest.approx(0.0, abs=1e-12) for v in lims.values())

    def test_determinism(self, tiny_cfg):
        res1 = run_study(tiny_cfg)
        res2 = run_study(tiny_cfg)
        assert stats_csv(res1) == stats_csv(res2)
        assert samples_csv(res1) == samples_csv(res2)

    def test_csv_schema(self, tiny_cfg):
        res = run_study(tiny_cfg)
        lines = stats_csv(res).splitlines()
        assert lines[0] == "n,policy,variable,mean,sd,q1,median,q3,iqr,theory_p,theory_Pn"
        assert len(lines) == 1 + 2 * 2 * 3  # sizes * policies * variables
        assert samples_csv(res).splitlines()[0] == \
            "n,policy,run,intervention_fraction,default_fraction,time_fraction"

    def test_summary_stderr_is_sd_over_root_n(self):
        summary = Summary.of([1.0, 2.0, 4.0, 7.0])
        assert summary.stderr() == pytest.approx(summary.sd / 2.0, rel=1e-15)
        assert summary.sd == pytest.approx(math.sqrt(7.0), rel=1e-15)

    def test_output_files(self, tiny_cfg, tmp_path):
        cfg = StudyConfig(
            distribution=tiny_cfg.distribution, sizes=tiny_cfg.sizes, runs=tiny_cfg.runs,
            policies=tiny_cfg.policies, cost=tiny_cfg.cost, master_seed=tiny_cfg.master_seed,
            outdir=tmp_path,
        )
        res = run_study(cfg)
        names = {f.name for f in res.files}
        assert {"study_stats.csv", "study_samples.csv", "dispersion_fits.csv"} <= names
        assert any(name.startswith("box_meansd_") for name in names)
        assert any(name.startswith("dispersion_") for name in names)
        for f in res.files:
            assert f.exists() and f.stat().st_size > 0

    def test_single_size_writes_every_file(self, quadratic_dist, tmp_path):
        # no dispersion fit takes one size, but every table and chart is written
        cfg = StudyConfig(distribution=quadratic_dist, sizes=(50,), runs=4,
                          policies=("none", "complete"), cost=0.5, master_seed=3,
                          outdir=tmp_path)
        res = run_study(cfg)
        assert res.fits == {}
        assert len(res.files) == 3 + 2 * 3 * 3  # CSVs + policies * variables * charts
        assert sorted(f.name for f in tmp_path.iterdir()) == sorted(f.name for f in res.files)

    def test_zero_dispersion_cells_dropped_from_fits(self):
        # complete aid on this population is deterministic: sd == 0, no fit
        p = JointDistribution({(1, 1, 0): 0.5, (1, 1, 1): 0.5})
        cfg = StudyConfig(distribution=p, sizes=(20, 40), runs=4,
                          policies=("complete",), cost=0.5, master_seed=2)
        res = run_study(cfg)
        assert ("complete", "default_fraction", "sd") not in res.fits

    def test_config_validation(self, quadratic_dist):
        with pytest.raises(ParameterError):
            StudyConfig(distribution=quadratic_dist, sizes=(100, 100), runs=4)
        with pytest.raises(ParameterError):
            StudyConfig(distribution=quadratic_dist, sizes=(50, 100), runs=1)
        with pytest.raises(ParameterError, match="distinct"):
            StudyConfig(distribution=quadratic_dist, policies=("none", {"kind": "none"}))
        for cost in (float("nan"), float("inf"), 0.0):
            with pytest.raises(ParameterError):
                StudyConfig(distribution=quadratic_dist, cost=cost)
        dist = {"kind": "explicit", "entries": [[1, 1, 0, 1.0]]}
        for field, value in (("runs", "x"), ("runs", 2.9), ("sizes", [100.5, 200]),
                             ("seed", 7.5)):
            with pytest.raises(ParameterError):
                StudyConfig.from_json({"distribution": dist, field: value})
        # a string or a number is not iterated as an array
        for field, value in (("policies", "optimal"), ("sizes", "abc"), ("sizes", 100)):
            with pytest.raises(ParameterError, match=f"'{field}' must be an array"):
                StudyConfig.from_json({"distribution": dist, field: value})

    def test_empty_policy_list_is_refused(self, quadratic_dist):
        with pytest.raises(ParameterError, match="policies must not be empty"):
            StudyConfig(distribution=quadratic_dist, policies=())
        with pytest.raises(ParameterError, match="policies must not be empty"):
            StudyConfig.from_json({"distribution": {"kind": "explicit",
                                                    "entries": [[1, 1, 0, 1.0]]},
                                   "policies": []})

    @pytest.mark.parametrize("doc,message", [
        ({"cost": True}, "study config field 'cost' must be a number, got true"),
        ({"runs": None}, "study config field 'runs' must be an integer, got null"),
        ({"sizes": [100, 2.5]}, "study config field 'sizes' entry must be an integer, got 2.5"),
        ({"outdir": 7}, "study config field 'outdir' must be a string, got 7"),
        ({"distribution": None}, "distribution spec must be an object, got null"),
        ({"policies": ["none", {"kind": "degree_range", "lo": 1, "hi": False}]},
         r"degree_range bound 'hi' \(degrees are integers\) must be an integer, got false"),
        ({"policies": ["none", {"kind": "degree_range", "hi": 2}]},
         "degree_range policy needs 'lo'"),
        ({"policies": [7]}, "policy spec must be an object, got 7"),
        ({"policies": ["none", {"kind": "threshold_table", "thresholds": {"2,x": 0.1}}]},
         r"threshold_table 'thresholds' key \"2,x\": each part must be an integer, got \"x\""),
        # a misspelt field is refused, not left at its default
        ({"run": 4}, 'study config has unknown key "run"; accepted keys: '
                     'cost, distribution, outdir, policies, runs, seed, sizes$'),
        ({"distribution": {"kind": "explicit", "entries": [[1, 1, 0, 1.0]], "mass": 1.0}},
         'explicit spec has unknown key "mass"'),
    ])
    def test_json_refusals_name_the_field_and_spell_json(self, doc, message):
        doc = {"distribution": {"kind": "explicit", "entries": [[1, 1, 0, 1.0]]}, **doc}
        with pytest.raises(ParameterError, match=message):
            StudyConfig.from_json(doc)

    def test_json_config_without_a_distribution(self):
        with pytest.raises(ParameterError, match="study config needs 'distribution'"):
            StudyConfig.from_json({"sizes": [100]})
        with pytest.raises(ParameterError, match="study config must be an object, got"):
            StudyConfig.from_json([1])

    def test_policy_names_are_safe_file_and_csv_words(self, quadratic_dist):
        # every built-in name passes
        table = {"kind": "threshold_table", "thresholds": {"2,2,2": 0.1}}
        cfg = StudyConfig(distribution=quadratic_dist, policies=(
            "none", "complete", "optimal", "alternative", {"kind": "degree_range", "lo": 1,
                                                          "hi": 2}, table))
        assert [spec["name"] for spec in cfg.policies] == [
            "none", "complete", "optimal", "alternative", "degree_1_2", "table"]
        StudyConfig(distribution=quadratic_dist, policies=({"kind": "none", "name": "a-1.b_C"},))
        # a number, a comma (a CSV column), a slash (a path) or nothing is refused
        for name in (5, None, "a,b", "a/b", "", "a b"):
            with pytest.raises(ParameterError, match="policy names must be words"):
                StudyConfig(distribution=quadratic_dist,
                            policies=("none", {"kind": "complete", "name": name}))

    def test_json_omitted_fields_keep_the_defaults(self):
        cfg = StudyConfig.from_json({"distribution": {"kind": "explicit",
                                                      "entries": [[1, 1, 0, 1.0]]}})
        assert cfg == StudyConfig(distribution=cfg.distribution)
        cfg = StudyConfig.from_json({"distribution": {"kind": "explicit",
                                                      "entries": [[1, 1, 0, 1.0]]},
                                     "sizes": [10.0, 20], "runs": "3", "seed": 4})
        assert (cfg.sizes, cfg.runs, cfg.master_seed) == ((10, 20), 3, 4)


class TestExplicitTable:
    @pytest.mark.parametrize("fixture,cost,sizes", [
        ("quadratic_dist", 1.5, (50, 100)),  # singular branch stage_b:j=2
        ("experiment_dist", 0.5, (625,)),
    ])
    def test_solved_table_has_the_optimal_limits(self, fixture, cost, sizes, request):
        p = request.getfixturevalue(fixture)
        table = table_spec(extract_policy(solve_op(p, cost), p, cost))
        cfg = StudyConfig(distribution=p, sizes=sizes, runs=2,
                          policies=("optimal", table), cost=cost, master_seed=4)
        res = run_study(cfg)
        for var, want in res.theory_p["optimal"].items():
            assert res.theory_p["table"][var] == pytest.approx(want, abs=1e-9)
        rows = {r.policy: r for r in compare_policies(cfg, res)}
        assert rows["table"].objective == pytest.approx(rows["optimal"].objective, abs=1e-9)


class TestPowerlawFit:
    def test_exact_half_slope(self):
        xs = [625, 1296, 2401, 4096, 6561, 10000]
        ys = [3.0 * x ** -0.5 for x in xs]
        slope, intercept = powerlaw_fit(xs, ys)
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert 10 ** intercept == pytest.approx(3.0, rel=1e-10)

    def test_constant_series(self):
        slope, _ = powerlaw_fit([10, 100, 1000], [2.0, 2.0, 2.0])
        assert slope == pytest.approx(0.0, abs=1e-14)

    def test_two_points_interpolate(self):
        import math
        slope, _ = powerlaw_fit([10, 1000], [4.0, 1.0])
        assert slope == pytest.approx(math.log10(0.25) / 2, abs=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(ParameterError):
            powerlaw_fit([1, 2], [1.0, 0.0])


class TestComparePolicies:
    def test_optimal_never_worse_than_none(self, quadratic_dist):
        cfg = StudyConfig(distribution=quadratic_dist, sizes=(50, 100), runs=4,
                          policies=("none", "optimal"), cost=0.5, master_seed=3)
        rows = {r.policy: r for r in compare_policies(cfg)}
        assert rows["optimal"].objective <= rows["none"].objective + 1e-12
        assert rows["none"].defaults_prevented == pytest.approx(0.0, abs=1e-12)
        assert rows["optimal"].defaults_prevented >= -1e-12

    def test_identical_policies_zero_difference(self, quadratic_dist):
        cfg = StudyConfig(distribution=quadratic_dist, sizes=(50, 100), runs=4,
                          policies=("none", {"kind": "none", "name": "none_again"}),
                          cost=0.5, master_seed=3)
        rows = compare_policies(cfg)
        assert rows[0].defaults_limit == rows[1].defaults_limit
        assert rows[0].aid_cost == rows[1].aid_cost

    def test_requires_two_policies(self, quadratic_dist):
        cfg = StudyConfig(distribution=quadratic_dist, sizes=(50, 100), runs=4,
                          policies=("none",), cost=0.5, master_seed=3)
        with pytest.raises(ParameterError):
            compare_policies(cfg)

    def test_largest_size_alone_gives_the_full_study_rows(self, quadratic_dist, monkeypatch):
        from contagion_control import experiments

        cfg = StudyConfig(distribution=quadratic_dist, sizes=(50, 100, 150), runs=5,
                          policies=("none", "optimal", "complete"), cost=0.5, master_seed=9)
        want = compare_policies(cfg, run_study(cfg))
        calls = []
        real = experiments.run

        def counted(pop, *args, **kwargs):
            calls.append(pop.n)
            return real(pop, *args, **kwargs)

        monkeypatch.setattr(experiments, "run", counted)
        assert compare_policies(cfg) == want
        # only the largest size's cells are run, once per (policy, run)
        assert calls == [150] * (cfg.runs * len(cfg.policies))

    def test_study_limits_are_read_not_recomputed(self, quadratic_dist, monkeypatch):
        from contagion_control import experiments

        cfg = StudyConfig(distribution=quadratic_dist, sizes=(50, 100), runs=3,
                          policies=("optimal", "alternative"), cost=0.5, master_seed=2)
        study = run_study(cfg)
        kinds, real = [], experiments.theory_limits

        def counted(p, spec, cost):
            kinds.append(spec["kind"])
            return real(p, spec, cost)

        monkeypatch.setattr(experiments, "theory_limits", counted)
        rows = compare_policies(cfg, study)
        # only the no-intervention baseline is new work
        assert kinds == ["none"]
        for r in rows:
            assert r.defaults_limit == study.theory_p[r.policy]["default_fraction"]
            assert r.aid_limit == study.theory_p[r.policy]["intervention_fraction"]

    def test_no_aid_baseline_is_read_from_the_study(self, quadratic_dist, monkeypatch):
        import contagion_control.asymptotics as asy

        cfg = StudyConfig(distribution=quadratic_dist, sizes=(50, 100), runs=3,
                          policies=("none", "optimal"), cost=0.5, master_seed=2)
        study = run_study(cfg)
        calls, real = [], asy.smallest_fixed_point
        monkeypatch.setattr(asy, "smallest_fixed_point",
                            lambda f: calls.append(1) or real(f))
        rows = compare_policies(cfg, study)
        # the study holds the `none` limits: no fixed point is searched again
        assert calls == []
        assert rows[0].defaults_prevented == 0.0

    def test_baseline_is_of_kind_none_not_named_none(self, quadratic_dist):
        cfg = StudyConfig(distribution=quadratic_dist, sizes=(50, 100), runs=3,
                          policies=({"kind": "complete", "name": "none"}, "optimal"),
                          cost=0.5, master_seed=2)
        rows = {r.policy: r for r in compare_policies(cfg, run_study(cfg))}
        base = theory_limits(quadratic_dist, normalize_policy_spec("none"), 0.5)
        complete = rows["none"]
        assert complete.defaults_prevented == base["default_fraction"] - complete.defaults_limit
        assert complete.defaults_prevented > 0.0

    def test_writes_reports(self, quadratic_dist, tmp_path):
        cfg = StudyConfig(distribution=quadratic_dist, sizes=(50,), runs=4,
                          policies=("none", "complete"), cost=0.5, master_seed=3,
                          outdir=tmp_path)
        compare_policies(cfg)
        assert (tmp_path / "comparison.csv").exists()
        assert (tmp_path / "comparison.svg").exists()
