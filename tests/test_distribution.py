import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import contagion_control

from contagion_control import (
    ConstructionError,
    EmpiricalCounts,
    InterventionPolicy,
    JointDistribution,
    ParameterError,
    build_zipf_copula,
    distribution_from_spec,
    empirical_counts,
    forced_policy_limits,
)
from contagion_control.distribution import (
    MAX_COPULA_DEGREE,
    copula_cuts,
    gaussian_copula_cells,
    parse_array,
    parse_float,
    parse_int,
    parse_object,
    zipf_weights,
)

from conftest import make_rng
from helpers import build_zipf_copula_ndtri, ndtri_cuts, sample_zipf_copula, truncation_index


class TestBuildZipfCopula:
    def test_initial_default_cells(self):
        p = build_zipf_copula(0.5, 0.8, 0.7, 0.9, 10)
        for i in range(1, 11):
            assert p.mass(i, i, 0) == pytest.approx(0.05, abs=1e-15)

    def test_zero_correlation_factorizes(self):
        p = build_zipf_copula(0.3, 0.8, 0.7, 0.0, 6)
        w_deg = zipf_weights(0.8, 6)
        w_eq = zipf_weights(0.7, 6)
        for i in range(1, 7):
            for c in range(1, 7):
                expected = 0.7 * w_deg[i - 1] * w_eq[c - 1]
                assert p.mass(i, i, c) == pytest.approx(expected, abs=1e-9)

    # up to |rho| = 0.997 the quadrature keeps both marginals within the 1e-9 check
    @pytest.mark.parametrize("rho", [-0.5, 0.0, 0.9, -0.997, 0.997])
    def test_marginals_preserved(self, rho):
        p = build_zipf_copula(0.5, 0.8, 0.7, rho, 10)
        w_deg = zipf_weights(0.8, 10)
        w_eq = zipf_weights(0.7, 10)
        for i in range(1, 11):
            liquid = sum(p.mass(i, i, c) for c in range(1, 11))
            assert abs(liquid - 0.5 * w_deg[i - 1]) < 1e-9
        for c in range(1, 11):
            liquid = sum(p.mass(i, i, c) for i in range(1, 11))
            assert abs(liquid - 0.5 * w_eq[c - 1]) < 1e-9

    def test_steep_marginal_skips_empty_segments(self):
        # equity exponent 60: every cumulative mass past c = 1 rounds to 1, so
        # the upper cut points coincide and their segments hold no panel
        p = build_zipf_copula(0.5, 0.8, 60.0, 0.9, 10)
        w_deg, w_eq = zipf_weights(0.8, 10), zipf_weights(60.0, 10)
        for k in range(1, 11):
            assert abs(sum(p.mass(k, k, c) for c in range(1, 11)) - 0.5 * w_deg[k - 1]) < 1e-9
            assert abs(sum(p.mass(i, i, k) for i in range(1, 11)) - 0.5 * w_eq[k - 1]) < 1e-9

    def test_invulnerable_mass_is_stored(self):
        p = build_zipf_copula(0.5, 0.8, 0.7, 0.9, 10)
        inv = sum(m for (i, j, c), m in p.entries.items() if c > i)
        assert inv > 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(xi=1.0), dict(xi=-0.1), dict(a1=0.0), dict(a2=-1.0),
            dict(rho=1.0), dict(rho=-1.0), dict(max_deg=0),
            # just above the cap: refused before the copula grid is allocated
            dict(max_deg=MAX_COPULA_DEGREE + 1),
        ],
    )
    def test_parameter_validation(self, kwargs):
        args = dict(xi=0.5, a1=0.8, a2=0.7, rho=0.9, max_deg=10)
        args.update(kwargs)
        with pytest.raises(ParameterError):
            build_zipf_copula(**args)

    @pytest.mark.parametrize("rho", [1.0, -1.0, 1.5])
    def test_cells_need_a_correlation_inside_the_unit_interval(self, rho):
        # `build_zipf_copula` checks rho first; the cells check it again
        marg = np.array([0.5, 0.5])
        with pytest.raises(ParameterError, match="copula correlation"):
            gaussian_copula_cells(marg, marg, rho)

    @pytest.mark.parametrize("rho", [0.998, 0.999, 0.9999, -0.999999])
    def test_correlation_that_loses_marginal_mass_is_refused(self, rho):
        # the quadrature misses a marginal by 2.7e-9 at 0.998 and by 0.06 at 0.9999
        with pytest.raises(ParameterError, match=f"copula correlation {rho} .* misses a marginal"):
            build_zipf_copula(0.5, 0.8, 0.7, rho, 10)


class TestStdlibQuantile:
    """The copula's cut points come from the standard library's inverse normal
    CDF; scipy's `ndtri` is the reference."""

    @pytest.mark.parametrize("max_deg", [1, 2, 10, 200])
    def test_cut_points_match_ndtri(self, max_deg):
        for exponent in np.linspace(0.05, 3.0, 30):
            w = zipf_weights(float(exponent), max_deg)
            np.testing.assert_allclose(copula_cuts(w), ndtri_cuts(w), rtol=2e-15, atol=0)

    def test_masses_match_ndtri_build(self):
        p = build_zipf_copula(0.5, 0.8, 0.7, 0.9, 10)
        ref = build_zipf_copula_ndtri(0.5, 0.8, 0.7, 0.9, 10)
        assert p.entries.keys() == ref.entries.keys()
        for key, mass in ref.entries.items():
            assert p.entries[key] == pytest.approx(mass, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [625, 3125, 10**4, 10**5])
    def test_counts_match_ndtri_build(self, n):
        p = build_zipf_copula(0.5, 0.8, 0.7, 0.9, 10)
        ref = build_zipf_copula_ndtri(0.5, 0.8, 0.7, 0.9, 10)
        assert empirical_counts(p, n).counts == empirical_counts(ref, n).counts

    def test_package_runs_without_scipy(self):
        script = textwrap.dedent("""
            import sys
            sys.modules["scipy"] = None  # any scipy import now raises ImportError
            import contagion_control
            import contagion_control.cli
            from contagion_control import build_zipf_copula, solve_op
            sol = solve_op(build_zipf_copula(0.5, 0.8, 0.7, 0.9, 10), 0.5)
            assert sol.branch, sol
            loaded = [m for m, mod in sys.modules.items()
                      if m.split(".")[0] == "scipy" and mod is not None]
            assert not loaded, loaded
        """)
        src = str(Path(contagion_control.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestMeanDegree:
    def test_single_class(self, quadratic_dist):
        assert quadratic_dist.lam == 2.0

    def test_one_regular(self, one_regular_dist):
        assert one_regular_dist.lam == 1.0

    def test_unbalanced_rejected(self):
        with pytest.raises(ParameterError):
            JointDistribution({(2, 1, 0): 0.5, (1, 1, 0): 0.5})

    def test_copula_mean_against_sampling(self):
        # independent route: Monte Carlo draws of the same construction
        p = build_zipf_copula(0.5, 0.8, 0.7, 0.9, 10)
        lam = p.lam
        deg, _eq = sample_zipf_copula(0.5, 0.8, 0.7, 0.9, 10, 200_000, make_rng(8, 1))
        est = deg.mean()
        se = deg.std(ddof=1) / math.sqrt(len(deg))
        assert abs(est - lam) < 3 * se


    def test_entries_are_read_only(self):
        # the limits are built from the entries once and kept on the object:
        # a changed entry would keep serving the old limits, so none can change
        p = JointDistribution({(2, 2, 0): 0.2, (2, 2, 2): 0.8})
        assert forced_policy_limits(p, InterventionPolicy.none()) == (0.25, True, 0.25, 0.0)
        with pytest.raises(TypeError):
            p.entries[(2, 2, 0)] = 0.5
        fresh = JointDistribution({(2, 2, 0): 0.5, (2, 2, 2): 0.5})
        assert forced_policy_limits(fresh, InterventionPolicy.none()) == (1.0, True, 1.0, 0.0)

    def test_entries_are_a_copy(self):
        entries = {(2, 2, 0): 0.2, (2, 2, 2): 0.8}
        p = JointDistribution(entries)
        entries[(2, 2, 0)] = 0.5
        assert p.entries == {(2, 2, 0): 0.2, (2, 2, 2): 0.8}


class TestEmpiricalCounts:
    def test_exact_rounding(self, quadratic_dist):
        counts = empirical_counts(quadratic_dist, 10)
        assert counts.counts == {(2, 2, 0): 2, (2, 2, 2): 8}
        assert counts.m == 20

    def test_largest_remainder(self):
        p = JointDistribution({(1, 1, 0): 0.33, (1, 1, 1): 0.33, (1, 1, 2): 0.34})
        counts = empirical_counts(p, 10)
        assert counts.counts == {(1, 1, 0): 3, (1, 1, 1): 3, (1, 1, 2): 4}

    def test_counts_sum_to_n_and_balance(self, experiment_dist):
        for n in (625, 1296, 10000):
            counts = empirical_counts(experiment_dist, n)
            assert sum(counts.counts.values()) == n
            m_in = sum(i * v for (i, _j, _c), v in counts.counts.items())
            m_out = sum(j * v for (_i, j, _c), v in counts.counts.items())
            assert m_in == m_out

    def test_apportionment_error_bound(self, experiment_dist):
        n = 625
        counts = empirical_counts(experiment_dist, n)
        n_classes = len(experiment_dist.entries)
        for key, mass in experiment_dist.entries.items():
            got = counts.counts.get(key, 0) / n
            assert abs(got - mass) <= n_classes / n

    def test_mean_degree_converges(self, experiment_dist):
        lam = experiment_dist.lam
        errs = [
            abs(empirical_counts(experiment_dist, n).m / n - lam)
            for n in (5**4, 6**4, 7**4, 8**4, 9**4, 10**4)
        ]
        assert errs[-1] < errs[0]
        assert errs[-1] < 1e-3

    def test_rebalance_mixed_degrees(self):
        # largest-remainder repair at n=6 leaves stub totals 5 vs 6; the greedy
        # pass moves one node across classes to even them out
        p = JointDistribution({(2, 1, 0): 0.25, (0, 1, 0): 0.25, (1, 1, 1): 0.5})
        counts = empirical_counts(p, 6)
        assert counts.counts == {(2, 1, 0): 2, (0, 1, 0): 2, (1, 1, 1): 2}
        assert counts.m == 6

    def test_infeasible_balance_named(self):
        # sum of in-stubs is always even here, but n = 3 forces three out-stubs
        p = JointDistribution({(2, 1, 0): 0.5, (0, 1, 0): 0.5})
        with pytest.raises(ConstructionError, match="deficit"):
            empirical_counts(p, 3)

    def test_n_validation(self, quadratic_dist):
        with pytest.raises(ParameterError):
            empirical_counts(quadratic_dist, 0)

    @pytest.mark.parametrize("n,counts,match", [
        (3, {(1, 1, 0): 1, (1, 1, 1): 1}, "counts sum to 2, expected n=3"),
        (2, {(2, 1, 0): 1, (1, 1, 1): 1}, "stub totals unbalanced: in=3 out=2"),
    ])
    def test_counts_validation(self, n, counts, match):
        with pytest.raises(ParameterError, match=match):
            EmpiricalCounts(n=n, counts=counts)

    def test_total_mass_below_one_is_named(self):
        # the limits accept a sub-unit mass; a population of n nodes does not
        p = JointDistribution({(2, 2, 0): 0.1, (2, 2, 2): 0.4})
        with pytest.raises(ParameterError, match="total mass 0.5"):
            empirical_counts(p, 100)
        counts = empirical_counts(JointDistribution({(2, 2, 0): 0.2, (2, 2, 2): 0.8 - 5e-10}), 10)
        assert counts.counts == {(2, 2, 0): 2, (2, 2, 2): 8}

    @settings(max_examples=300, deadline=None)
    @given(
        classes=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 5),
                                   st.floats(0.01, 1.0)), min_size=1, max_size=6),
        n=st.integers(1, 400),
    )
    def test_sums_to_n_and_balances_or_refuses(self, classes, n):
        """Random balanced distributions: the counts sum to n with equal stub
        totals, or the construction is refused with ConstructionError."""
        weights = {}
        for i, j, c, w in classes:
            weights[(i, j, c)] = weights.get((i, j, c), 0.0) + w
        gap = sum((i - j) * w for (i, j, _c), w in weights.items())
        if gap:  # one in- or out-degree-one class evens the means
            key = (0, 1, 0) if gap > 0 else (1, 0, 0)
            weights[key] = weights.get(key, 0.0) + abs(gap)
        total = sum(weights.values())
        p = JointDistribution({key: w / total for key, w in weights.items()})
        try:
            counts = empirical_counts(p, n)
        except ConstructionError:
            return
        assert sum(counts.counts.values()) == n
        assert all(v > 0 for v in counts.counts.values())
        m_in = sum(i * v for (i, _j, _c), v in counts.counts.items())
        assert m_in == sum(j * v for (_i, j, _c), v in counts.counts.items())


class TestTruncationIndex:
    def test_bounded_support(self, experiment_dist):
        assert truncation_index(experiment_dist, 1e-6) == 11

    def test_large_tolerance(self, quadratic_dist):
        assert truncation_index(quadratic_dist, quadratic_dist.lam + 0.1) == 0

    def test_matches_brute_force_scan(self):
        # geometric-tail synthetic distribution
        entries = {(k, k, 0): 0.5 ** k for k in range(1, 16)}
        entries[(1, 1, 1)] = 1.0 - sum(entries.values())
        p = JointDistribution(entries)
        for eps in (0.5, 0.1, 0.01, 1e-4):
            got = truncation_index(p, eps)

            def tail(mcut, which):
                return sum(
                    (i if which == 0 else j) * m
                    for (i, j, _c), m in p.entries.items() if max(i, j) >= mcut
                )

            ok = [m for m in range(0, 20) if tail(m, 0) < eps and tail(m, 1) < eps]
            assert got == min(ok)

    def test_eps_validation(self, quadratic_dist):
        with pytest.raises(ParameterError):
            truncation_index(quadratic_dist, 0.0)


class TestJsonSpecs:
    def test_zipf_copula_spec(self):
        spec = {"kind": "zipf_copula", "xi": 0.5, "a1": 0.8, "a2": 0.7, "rho": 0.9, "max_deg": 10}
        p = distribution_from_spec(spec)
        assert p.mass(1, 1, 0) == pytest.approx(0.05)

    def test_explicit_spec(self):
        p = distribution_from_spec(
            {"kind": "explicit", "entries": [[2, 2, 0, 0.2], [2, 2, 2, 0.8]]}
        )
        assert p.lam == 2.0
        # integral numbers of any JSON type are integers
        assert distribution_from_spec(
            {"kind": "explicit", "entries": [[2.0, "2", 0, 0.2], [2, 2, 2, 0.8]]}
        ).entries == p.entries

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "nope"},
            {"kind": "zipf_copula", "xi": 0.5},
            {"kind": "explicit", "entries": [[1, 1, 0]]},
            "not a dict",
            # fractions are not truncated to integers
            {"kind": "zipf_copula", "xi": 0.5, "a1": 0.8, "a2": 0.7, "rho": 0.9, "max_deg": 4.9},
            {"kind": "explicit", "entries": [[2.7, 2.2, 0, 0.2]]},
            # entries must be an array, and a boolean is not an integer
            {"kind": "explicit", "entries": 5},
            {"kind": "explicit", "entries": [[True, 1, 0, 1.0]]},
            # entries are required, and no key is ignored
            {"kind": "explicit"},
            {"kind": "explicit", "entries": [[1, 1, 0, 1.0]], "name": "one"},
        ],
    )
    def test_bad_specs(self, spec):
        with pytest.raises(ParameterError):
            distribution_from_spec(spec)

    @pytest.mark.parametrize("spec,message", [
        # the refusal names the inner field, not the whole entry
        ({"kind": "explicit", "entries": [[2.7, 2, 0, 0.2]]},
         "degree or equity must be an integer, got 2.7"),
        ({"kind": "explicit", "entries": [[2, 2, 0, True]]}, "mass must be a number, got true"),
        ({"kind": "explicit", "entries": [[2, 2, None, 0.5]]},
         "degree or equity must be an integer, got null"),
        ({"kind": "explicit", "entries": [[2, 2, 1.0]]},
         r"explicit entry must be \[i, j, c, mass\], got \[2, 2, 1.0\]"),
        ({"kind": "explicit", "entries": "abc"}, 'explicit entries must be an array, got "abc"'),
        ({"kind": "zipf_copula", "xi": 0.5, "a1": 0.8, "a2": 0.7, "rho": "high", "max_deg": 4},
         'rho must be a number, got "high"'),
        ({"kind": "zipf_copula", "xi": 0.5}, "zipf_copula spec needs 'a1'"),
        ({"kind": "nope"}, 'unknown distribution kind "nope"'),
        ([1, 2], r"distribution spec must be an object, got \[1, 2\]"),
        # every kind takes its own keys and no other
        ({"kind": "explicit"}, "explicit spec needs 'entries'"),
        ({"kind": "explicit", "entries": [[1, 1, 0, 1.0]], "entry": [[1, 1, 0, 1.0]]},
         'explicit spec has unknown key "entry"; accepted keys: entries, kind$'),
        ({"kind": "zipf_copula", "xi": 0.5, "a1": 0.8, "a2": 0.7, "rho": 0.9, "max_deg": 4,
          "max_degree": 4},
         'zipf_copula spec has unknown key "max_degree"; '
         'accepted keys: a1, a2, kind, max_deg, rho, xi$'),
    ])
    def test_refusals_name_the_field_and_spell_json(self, spec, message):
        with pytest.raises(ParameterError, match=message):
            distribution_from_spec(spec)

    def test_readers(self):
        assert parse_int("7", "n") == 7 and parse_float("nan", "x") != parse_float("nan", "x")
        assert parse_array([1], "a") == [1] and parse_object({"k": 1}, "o", "k") == {"k": 1}
        assert parse_object({"k": 1, "m": 2}, "o", "k", optional=("m", "n")) == {"k": 1, "m": 2}
        with pytest.raises(ParameterError, match='o has unknown key "x"; accepted keys: k, m$'):
            parse_object({"k": 1, "x": 2}, "o", "k", optional=("m",))
        for reader, value, message in (
                (parse_int, True, "n must be an integer, got true"),
                (parse_float, None, "n must be a number, got null"),
                (parse_float, 10 ** 400, "n must be a number, got 1000"),
                (parse_array, "ab", 'n must be an array, got "ab"'),
                (parse_object, [], r"n must be an object, got \[\]")):
            with pytest.raises(ParameterError, match=message):
                reader(value, "n")
        with pytest.raises(ParameterError, match="n needs 'k': {}"):
            parse_object({}, "n", "k")
        # a value JSON cannot write is spelled by its repr
        with pytest.raises(ParameterError, match="x must be an integer, got <object object at "):
            parse_int(object(), "x")


class TestValidation:
    def test_negative_mass(self):
        with pytest.raises(ParameterError):
            JointDistribution({(1, 1, 0): -0.1, (1, 1, 1): 1.1})

    def test_mass_above_one(self):
        with pytest.raises(ParameterError):
            JointDistribution({(1, 1, 0): 0.6, (1, 1, 1): 0.6})

    def test_max_degree(self, mixed_dist):
        assert mixed_dist.max_degree == 2
