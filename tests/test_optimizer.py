import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contagion_control import (
    ConstructionError,
    InterventionPolicy,
    JointDistribution,
    ParameterError,
    asymptotic_prediction,
    default_fraction,
    default_outflow,
    empirical_counts,
    extract_policy,
    instantiate,
    run,
    smallest_fixed_point,
    solve_op,
    solve_stage_a,
    solve_stage_b,
)
from contagion_control.asymptotics import forced_policy_limits
from contagion_control.optimizer import OPSolution

from conftest import make_rng
from test_class_pack import distributions


def no_aid_objective(p):
    y, _stable = smallest_fixed_point(lambda y: default_outflow(p, y))
    return default_fraction(p, y)


def forced_objective(p, cost, policy):
    _y, _stable, defaults, aid = forced_policy_limits(p, policy)
    return cost * aid + defaults


def quiet_solve(p, cost):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # unstable minimizers are fine here
        return solve_op(p, cost)


class TestStageA:
    def test_high_cost_recovers_uncontrolled_fixed_point(self, quadratic_dist):
        roots = solve_stage_a(quadratic_dist, 10.0)
        match = [r for r in roots if abs(r.end_fraction - 0.25) < 1e-9]
        assert match
        sol = match[0]
        assert sol.multiplier == pytest.approx(-1 / 3, abs=1e-9)
        assert max(abs(r) for r in sol.residuals) < 1e-9
        assert sol.objective == pytest.approx(0.25, abs=1e-9)

    def test_no_initial_defaults_root_at_zero(self):
        p = JointDistribution({(2, 2, 2): 0.7, (1, 1, 1): 0.3})
        roots = solve_stage_a(p, 0.5)
        assert any(abs(r.end_fraction) < 1e-9 for r in roots)
        zero = min(roots, key=lambda r: r.end_fraction)
        assert zero.objective == pytest.approx(0.0, abs=1e-12)

    def test_finds_a_multiplier_above_eight(self):
        # the former Newton found this root; a [-8, 8] box of v would miss it
        p = JointDistribution({(1, 4, 1): 0.2774117539825786, (4, 1, 3): 0.2774117539825786,
                               (2, 3, 1): 0.2225882460174214, (3, 2, 3): 0.2225882460174214})
        roots = solve_stage_a(p, 0.8515710569418187)
        assert any(r.end_fraction == pytest.approx(0.9384458353811467, abs=1e-10)
                   and r.multiplier == pytest.approx(22.135868540426856, abs=1e-10)
                   for r in roots)

    def test_candidate_at_a_jump_of_the_outflow(self, quadratic_dist):
        # at cost 5/3 the outflow jumps at the root (1/4, -1/3), where
        # cost + 2 v - 1 = 0: no plane fits the lattice there, so its cells
        # only halve, as pure subdivision does.  The first of the three
        # finished cells, whose best corner stage A keeps, lies beside the jump,
        # 1.27e-13 from it in v
        from subdivision_reference import solve_stage_a as subdivision_stage_a

        (sol,) = solve_stage_a(quadratic_dist, 5 / 3)
        assert repr(sol) == repr(subdivision_stage_a(quadratic_dist, 5 / 3)[0])
        assert abs(sol.end_fraction - 0.25) <= 1e-13
        assert abs(sol.multiplier + 1 / 3) <= 1.3e-13
        assert max(map(abs, sol.residuals)) <= 1e-13

    def test_cells_along_a_jump_stay_bounded(self, monkeypatch):
        # at cost 2 the outflow jumps across v = -1, where the first residual
        # vanishes for every y: each cell on that line straddles both residuals,
        # and without a bound their number would double at every level
        import contagion_control.optimizer as opt

        sizes, real = [], opt.program_residuals

        def counted(p, cost, y, *args):
            sizes.append(np.size(y))
            return real(p, cost, y, *args)

        monkeypatch.setattr(opt, "program_residuals", counted)
        opt.solve_stage_a(JointDistribution({(1, 1, 1): 0.5, (1, 1, 0): 0.5}), 2.0)
        assert max(sizes) <= 9 * 20 * 80 and len(sizes) < 100

    def test_two_levels_per_residual_call(self, experiment_dist, monkeypatch):
        import contagion_control.optimizer as opt

        calls, real = [], opt.program_residuals
        monkeypatch.setattr(opt, "program_residuals",
                            lambda *args: calls.append(1) or real(*args))
        assert opt.solve_stage_a(experiment_dist, 0.5)
        assert len(calls) <= 25  # one level per call took 42

    def test_residual_calls_of_a_solve(self, experiment_dist, monkeypatch):
        # the first grid in the 9 of 80 multiplier columns that can hold a root
        # of the first equation, 6 lattice calls (the cell straddled by both
        # residuals with its 5 edge neighbours straddled by one, none of which
        # straddles again, a zoom box with two straddling sub-cells, those two,
        # and 3 more zoom boxes; 20 lattice calls of halving alone), the
        # finished cells read from the call that evaluated their corners, and
        # one call of the candidate builder; stage B skips every out-degree,
        # and y = 1 is infeasible
        import contagion_control.optimizer as opt

        sizes, real = [], opt.program_residuals

        def counted(p, cost, y, *args):
            sizes.append(np.size(y))
            return real(p, cost, y, *args)

        monkeypatch.setattr(opt, "program_residuals", counted)
        opt.solve_op(JointDistribution(dict(experiment_dist.entries)), 0.5)
        assert (len(sizes), sizes[0], sum(sizes), sizes[-1]) == (8, 21 * 9, 490, 1)

    @pytest.mark.parametrize("cost", [9.0, 20.0])
    def test_zero_root_with_a_multiplier_beyond_eight(self, cost):
        # no node starts defaulted, so y = 0 is feasible, with v = -cost:
        # H(0, v) - lam v = max(-cost, v - 1) - v
        sol = solve_op(JointDistribution({(1, 1, 1): 1.0}), cost)
        assert sol.branch == "stage_a"
        assert sol.end_fraction == 0.0 and sol.objective == 0.0
        assert sol.multiplier == pytest.approx(-cost, abs=1e-10)
        assert max(abs(r) for r in sol.residuals) <= 1e-12

    def test_root_behind_a_dip_of_the_first_residual(self):
        # the first residual's contour crosses into the first-grid cell
        # y in [0.55, 0.6], v in [-0.5095, -0.4610] through its edge at
        # v = -0.4610 and back, where the outflow residual changes sign: no
        # corner of the cell straddles the first residual, and the only root
        # of the program is inside it
        p = JointDistribution({
            (2, 4, 2): 0.023465703971119134, (4, 2, 1): 0.023465703971119134,
            (2, 0, 1): 0.1588447653429603, (0, 2, 1): 0.1588447653429603,
            (2, 0, 2): 0.3176895306859206, (0, 2, 0): 0.3176895306859206,
        })
        sol = solve_op(p, 0.703125)
        assert sol.branch == "stage_a" and sol.stable
        assert (sol.end_fraction, sol.multiplier) == pytest.approx((0.582458, -0.461669), abs=1e-6)
        assert max(abs(r) for r in sol.residuals) < 1e-12

    def test_all_roots_feasible(self, experiment_dist):
        for sol in solve_stage_a(experiment_dist, 0.5):
            assert max(abs(r) for r in sol.residuals) < 1e-9
            assert 0.0 <= sol.end_fraction <= 1.0


def stage_b_roots(p, cost, j):
    """The stage-B candidates of singular out-degree j."""
    return [sol for sol in solve_stage_b(p, cost) if sol.branch == f"stage_b:j={j}"]


class TestStageB:
    def test_quadratic_singular_root_exact(self, quadratic_dist):
        # worked by hand: H(y, v) = lam v gives y = (K-1)/(1.6 K); the outflow
        # equation then pins z through 0.2 + 0.8 z^2 = y
        roots = stage_b_roots(quadratic_dist, 1.5, 2)
        assert roots
        sol = roots[0]
        assert sol.end_fraction == pytest.approx(5 / 24, abs=1e-10)
        assert sol.singular_start == pytest.approx(math.sqrt(1 / 96), abs=1e-10)
        assert sol.objective == pytest.approx(
            1.5 * 0.8 * ((5 / 24) ** 2 - 1 / 96) + 0.2 + 0.8 / 96, abs=1e-10
        )

    def test_bounds_and_residuals(self, quadratic_dist, experiment_dist):
        for p, cost in ((quadratic_dist, 1.5), (experiment_dist, 0.5)):
            for sol in solve_stage_b(p, cost):
                assert 0.0 <= sol.singular_start <= sol.end_fraction <= 1.0
                assert max(abs(r) for r in sol.residuals) < 1e-9

    def test_out_degrees_without_a_root_are_not_scanned(self, experiment_dist, monkeypatch):
        # lam v_j lies outside the range of H(., v_j) for every out-degree
        import contagion_control.optimizer as opt

        calls, real = [], opt.terminal_hamiltonian
        monkeypatch.setattr(opt, "terminal_hamiltonian",
                            lambda *args: calls.append(1) or real(*args))
        assert opt.solve_stage_b(experiment_dist, 0.5) == [] and not calls

    def test_boundary_cost_collapses_to_uncontrolled(self, quadratic_dist):
        # at cost 5/3 the singular start meets the horizon at the uncontrolled
        # fixed point: z = y = 1/4
        roots = stage_b_roots(quadratic_dist, 5 / 3, 2)
        assert roots
        sol = roots[0]
        assert sol.end_fraction == pytest.approx(0.25, abs=1e-8)
        assert sol.singular_start == pytest.approx(0.25, abs=1e-8)
        assert sol.objective == pytest.approx(0.25, abs=1e-9)


class TestSolveOp:
    def test_cheap_aid_saves_everyone_else(self, quadratic_dist):
        sol = solve_op(quadratic_dist, 0.001)
        assert sol.defaults == pytest.approx(0.2, abs=5e-3)
        assert sol.objective <= no_aid_objective(quadratic_dist)

    def test_expensive_aid_does_nothing(self, quadratic_dist):
        sol = solve_op(quadratic_dist, 10.0)
        assert sol.end_fraction == pytest.approx(0.25, abs=1e-9)
        assert sol.interventions == pytest.approx(0.0, abs=1e-12)
        assert sol.objective == pytest.approx(no_aid_objective(quadratic_dist), abs=1e-9)

    def test_singular_minimizer(self, quadratic_dist):
        sol = solve_op(quadratic_dist, 1.5)
        assert sol.branch == "stage_b:j=2"
        assert sol.objective == pytest.approx(0.2479166666666667, abs=1e-10)

    @pytest.mark.parametrize("cost", [0.05, 0.5, 1.5, 5.0])
    def test_objective_sandwich(self, cost, quadratic_dist, mixed_dist, experiment_dist):
        for p in (quadratic_dist, mixed_dist, experiment_dist):
            sol = solve_op(p, cost)
            assert max(abs(r) for r in sol.residuals) < 1e-9
            assert sol.objective <= no_aid_objective(p) + 1e-9
            assert sol.objective <= forced_objective(p, cost, InterventionPolicy.complete()) + 1e-9
            assert sol.objective == pytest.approx(
                cost * sol.interventions + sol.defaults, abs=1e-12
            )

    @settings(max_examples=40, deadline=None)
    @given(p=distributions(), cost=st.floats(0.05, 3.0))
    def test_no_worse_than_no_aid_or_full_aid_on_drawn_distributions(self, p, cost):
        fixed = min(forced_objective(p, cost, policy)
                    for policy in (InterventionPolicy.none(), InterventionPolicy.complete()))
        assert quiet_solve(p, cost).objective <= fixed + 1e-9

    def test_tie_label_does_not_depend_on_stage_a_order(self, monkeypatch):
        # at cost 5/3 stage A and stage B both find (1/4, -1/3); which of stage
        # A's duplicate roots, 7e-14 below or 2e-14 above y = 1/4, it keeps
        # depends on the order of its roots, and the tie goes to stage B's
        # exact root whatever that order
        import contagion_control.optimizer as opt

        real, kept = opt._root_candidates, set()

        def permuted(p, cost, roots, branch, singular_j=None):
            if branch != "stage_a":
                return real(p, cost, roots, branch, singular_j)
            out = real(p, cost, roots[list(order)], branch, singular_j)
            kept.update(sol.end_fraction for sol in out)
            return out

        monkeypatch.setattr(opt, "_root_candidates", permuted)
        for order in itertools.permutations(range(3)):
            sol = opt.solve_op(JointDistribution({(2, 2, 0): 0.2, (2, 2, 2): 0.8}), 5 / 3)
            assert (sol.branch, sol.end_fraction, sol.multiplier) == (
                "stage_b:j=2", 0.25, (1 - 5 / 3) / 2)
        assert len(kept) == 2

    def test_total_default_boundary(self, one_regular_dist):
        sol = solve_op(one_regular_dist, 50.0)
        assert sol.end_fraction == 1.0
        assert sol.objective == pytest.approx(1.0, abs=1e-9)

    def test_unstable_minimizer_warns(self, monkeypatch):
        # force instability to exercise the warning path
        p = JointDistribution({(2, 2, 0): 0.2, (2, 2, 2): 0.8})
        import contagion_control.optimizer as opt

        real = opt._make_solution

        def unstable(*args, **kwargs):
            sol = real(*args, **kwargs)
            return OPSolution(**{**sol.__dict__, "stable": False})

        monkeypatch.setattr(opt, "_make_solution", unstable)
        with pytest.warns(RuntimeWarning, match="unstable"):
            opt.solve_op(p, 10.0)


class TestSolveCache:
    """solve_op stores its solution on the distribution object, by float(cost)."""

    @pytest.fixture
    def solves(self, monkeypatch):
        """The (distribution, cost) of every solve that reached stage A."""
        import contagion_control.optimizer as opt

        seen, real = [], opt.solve_stage_a

        def counted(p, cost):
            seen.append((p, cost))
            return real(p, cost)

        monkeypatch.setattr(opt, "solve_stage_a", counted)
        return seen

    def test_repeat_returns_the_stored_solution(self, quadratic_dist, solves):
        sol = solve_op(quadratic_dist, 1.5)
        assert solve_op(quadratic_dist, 1.5) is sol
        assert solve_op(quadratic_dist, np.float64(1.5)) is sol
        assert len(solves) == 1

    def test_another_cost_or_object_solves_afresh(self, quadratic_dist, solves):
        sol = solve_op(quadratic_dist, 1.5)
        other_cost = solve_op(quadratic_dist, 0.5)
        twin = JointDistribution(dict(quadratic_dist.entries))
        other_object = solve_op(twin, 1.5)
        assert len(solves) == 3 and other_cost is not sol and other_object is not sol
        assert other_object == sol

    def test_unstable_stored_minimizer_warns_again(self, monkeypatch, solves):
        import contagion_control.optimizer as opt

        real = opt._make_solution
        monkeypatch.setattr(opt, "_make_solution", lambda *args: OPSolution(
            **{**real(*args).__dict__, "stable": False}))
        p = JointDistribution({(2, 2, 0): 0.2, (2, 2, 2): 0.8})
        with pytest.warns(RuntimeWarning, match="unstable"):
            sol = opt.solve_op(p, 10.0)
        with pytest.warns(RuntimeWarning, match="unstable"):
            assert opt.solve_op(p, 10.0) is sol
        assert len(solves) == 1

    def test_no_aid_fixed_point_is_found_once_per_object(self, quadratic_dist, monkeypatch):
        # the solver finds no fixed point: the no-aid one is a stage-A root;
        # the no-aid policy's limits search theirs on every call, as nothing
        # keeps a fixed point between calls
        import contagion_control.asymptotics as asy
        from contagion_control.experiments import normalize_policy_spec, theory_limits

        calls, real = [], asy.smallest_fixed_point
        monkeypatch.setattr(asy, "smallest_fixed_point",
                            lambda f: calls.append(1) or real(f))
        twin = JointDistribution(dict(quadratic_dist.entries))
        for cost in (0.5, 1.5, 5.0):
            solve_op(quadratic_dist, cost)
        solve_op(twin, 1.5)
        assert not calls
        for p in (quadratic_dist, quadratic_dist, twin):
            theory_limits(p, normalize_policy_spec("none"), 0.5)
        assert len(calls) == 3

    def test_a_failure_is_not_stored(self, quadratic_dist, monkeypatch):
        import contagion_control.optimizer as opt

        for name in ("solve_stage_a", "solve_stage_b", "_boundary_candidates"):
            monkeypatch.setattr(opt, name, lambda p, cost: [])
        with pytest.raises(ConstructionError, match="no feasible candidate"):
            opt.solve_op(quadratic_dist, 1.5)
        monkeypatch.undo()
        assert opt.solve_op(quadratic_dist, 1.5).branch == "stage_b:j=2"

    def test_solutions_are_kept_on_the_class_pack(self, quadratic_dist):
        from contagion_control.asymptotics import _pack

        sol = solve_op(quadratic_dist, 1.5)
        assert _pack(quadratic_dist).solutions == {1.5: sol}


class TestInDegreeLimit:
    """C(i - 1, k) of an in-degree above 1030 exceeds the largest float."""

    def test_largest_in_degree_solves(self):
        p = JointDistribution({(1030, 1030, 0): 0.2, (1030, 1030, 1030): 0.8})
        sol = solve_op(p, 0.5)
        assert sol.stable and sol.end_fraction == pytest.approx(0.2, abs=1e-9)

    def test_larger_vulnerable_class_is_refused_by_name(self):
        p = JointDistribution({(1031, 1031, 0): 0.2, (1031, 1031, 1031): 0.8})
        with pytest.raises(ParameterError, match=r"class \(1031, 1031, 1031\) has in-degree 1031"):
            solve_op(p, 0.5)
        with pytest.raises(ParameterError, match="1031"):
            forced_policy_limits(p, InterventionPolicy.none())

    def test_defaulted_or_invulnerable_classes_have_no_limit(self):
        # only vulnerable classes enter the binomial sums
        p = JointDistribution({(2000, 2000, 0): 0.1, (1500, 1500, 1501): 0.1,
                               (2, 2, 2): 0.8})
        y, stable, defaults, _aid = forced_policy_limits(p, InterventionPolicy.none())
        assert stable and defaults >= 0.1


# about 30 costs from cheap aid to aid that never pays, across the branch switches
COSTS = np.linspace(0.05, 3.0, 30).tolist()


@pytest.fixture(scope="module", params=["experiment", "quadratic"])
def cost_sweep(request):
    """(p, costs, solutions): each fixture solved once at every cost."""
    if request.param == "experiment":
        p = request.getfixturevalue("experiment_dist")
    else:
        p = JointDistribution({(2, 2, 0): 0.2, (2, 2, 2): 0.8})
    return p, COSTS, [quiet_solve(p, cost) for cost in COSTS]


class TestCostMonotonicity:
    """The paper's structural claim: the optimal policy is monotone in the cost."""

    def test_no_start_time_falls_as_the_cost_rises(self, cost_sweep):
        p, costs, sols = cost_sweep
        keys = [(i, j, c) for i, j in p.vulnerable_pairs() for c in range(1, i + 1)]
        starts = []
        for cost, sol in zip(costs, sols):
            policy = extract_policy(sol, p, cost)
            starts.append([math.inf if (x := policy.start(*key)) is None else x for key in keys])
        for cost, before, after in zip(costs[1:], starts, starts[1:]):
            fell = [key for key, x, later in zip(keys, before, after) if later < x]
            assert not fell, (cost, fell)

    def test_value_is_nondecreasing_and_concave_in_the_cost(self, cost_sweep):
        # V(cost) is a minimum over policies of functions affine in the cost
        _p, costs, sols = cost_sweep
        values = [sol.objective for sol in sols]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-12
        for (c0, c1, c2), (v0, v1, v2) in zip(zip(costs, costs[1:], costs[2:]),
                                              zip(values, values[1:], values[2:])):
            assert v1 >= ((c2 - c1) * v0 + (c1 - c0) * v2) / (c2 - c0) - 1e-12, c1


class TestExtractPolicy:
    def test_never_classes_are_absent(self, quadratic_dist):
        sol = solve_op(quadratic_dist, 10.0)  # nothing is worth aiding
        policy = extract_policy(sol, quadratic_dist, 10.0)
        assert policy.thresholds == {} and policy.singular == {}

    def test_immediate_classes_present_at_zero(self, quadratic_dist):
        sol = solve_op(quadratic_dist, 0.5)
        policy = extract_policy(sol, quadratic_dist, 0.5)
        assert policy.thresholds[(2, 2, 2)] == 0.0

    def test_singular_entry(self, quadratic_dist):
        sol = solve_op(quadratic_dist, 1.5)
        policy = extract_policy(sol, quadratic_dist, 1.5)
        assert (2, 2) in policy.singular
        assert policy.singular[(2, 2)] == pytest.approx(math.sqrt(1 / 96), abs=1e-10)
        # the non-singular cushion levels of that pair are never aided
        assert (2, 2, 2) not in policy.thresholds

    def test_thresholds_below_horizon_and_monotone(self, experiment_dist):
        sol = solve_op(experiment_dist, 0.5)
        policy = extract_policy(sol, experiment_dist, 0.5)
        y = sol.end_fraction
        for (i, j, c), x in policy.thresholds.items():
            assert 0.0 <= x < y
        for (i, j) in {(i, j) for (i, j, _c) in policy.thresholds}:
            xs = [
                policy.thresholds.get((i, j, c), y) for c in range(1, i + 1)
                if not ((i, j) in policy.singular and c == i)
            ]
            assert all(a >= b - 1e-12 for a, b in zip(xs, xs[1:]))

    @settings(max_examples=40, deadline=None)
    @given(p=distributions(), cost=st.floats(0.05, 3.0))
    def test_starts_do_not_rise_with_the_cushion_on_drawn_distributions(self, p, cost):
        policy = extract_policy(quiet_solve(p, cost), p, cost)
        for i, j in p.vulnerable_pairs():
            starts = [policy.start(i, j, c) for c in range(1, i + 1)]
            starts = [math.inf if x is None else x for x in starts]  # None: never aided
            assert all(later <= x for x, later in zip(starts, starts[1:])), (i, j, starts)


class TestPrediction:
    def test_uncontrolled_quadratic(self, quadratic_dist):
        sol = solve_op(quadratic_dist, 10.0)
        defaults, aid, horizon = asymptotic_prediction(sol, quadratic_dist, 10.0)
        assert (defaults, aid, horizon) == pytest.approx((0.25, 0.0, 0.25), abs=1e-9)

    def test_total_default_case(self, one_regular_dist):
        sol = solve_op(one_regular_dist, 50.0)
        defaults, _aid, horizon = asymptotic_prediction(sol, one_regular_dist, 50.0)
        assert defaults == 1.0 and horizon == 1.0

    def test_aided_sink_survives_at_y_equal_one(self):
        # every link is revealed (y = 1), yet the vulnerable sink is aided at
        # its only loss: half the nodes default, not all of them
        p = JointDistribution({(0, 1, 0): 0.5, (1, 0, 1): 0.5})
        sol = solve_op(p, 0.5)
        assert sol.branch == "boundary:y=1"
        prediction = asymptotic_prediction(sol, p, 0.5)
        assert prediction == pytest.approx((0.5, 0.5, 1.0), abs=1e-12)
        policy = extract_policy(sol, p, 0.5)
        y, _stable, defaults, aid = forced_policy_limits(p, policy)
        assert (defaults, aid, y) == pytest.approx(prediction, abs=1e-12)
        pop = instantiate(empirical_counts(p, 1000))
        out = run(pop, policy, make_rng(902, 0))
        assert (out.defaults, out.interventions, out.T) == (500, 500, 500)

    def test_unstable_refusal(self, quadratic_dist):
        sol = solve_op(quadratic_dist, 0.5)
        broken = OPSolution(**{**sol.__dict__, "stable": False, "end_fraction": 0.5})
        with pytest.raises(ParameterError, match="unstable"):
            asymptotic_prediction(broken, quadratic_dist, 0.5)


class TestSinkNodes:
    """Vulnerable classes with zero out-degree: rescue pays, nothing propagates."""

    @pytest.fixture
    def sink_dist(self):
        return JointDistribution({(2, 0, 1): 0.3, (0, 2, 0): 0.3, (1, 1, 1): 0.4})

    def test_cheap_aid_is_deterministic_at_finite_n(self, sink_dist):
        # every reveal hits a distance-one node (sources have no in-stubs), so
        # complete aid pins all three outcomes exactly
        sol = solve_op(sink_dist, 0.3)
        assert sol.objective == pytest.approx(0.48, abs=1e-12)
        n = 1000
        counts = empirical_counts(sink_dist, n)
        pop = instantiate(counts)
        policy = extract_policy(sol, sink_dist, 0.3)
        for seed in range(5):
            out = run(pop, policy, make_rng(901, seed))
            assert out.defaults == 300
            assert out.interventions == out.T == 600

    def test_partial_aid_still_monotone(self, sink_dist):
        sol = solve_op(sink_dist, 0.8)
        policy = extract_policy(sol, sink_dist, 0.8)
        # the richer cushion of the sink class starts strictly earlier
        assert policy.thresholds[(2, 0, 2)] < policy.thresholds[(2, 0, 1)] < sol.end_fraction
        assert max(abs(r) for r in sol.residuals) < 1e-9

    def test_expensive_aid_burns_everything(self, sink_dist):
        sol = solve_op(sink_dist, 2.0)
        assert sol.end_fraction == 1.0
        assert sol.objective == pytest.approx(1.0, abs=1e-12)


class TestSimulationConsistency:
    def test_singular_policy_at_scale(self, quadratic_dist):
        """Finite-n check of the singular solution: aid on the cushion-two class
        from the scaled step z onward reproduces (defaults, aid, horizon)."""
        cost = 1.5
        n = 10_000
        counts = empirical_counts(quadratic_dist, n)
        pop = instantiate(counts)
        pn = counts.to_distribution()
        sol = solve_op(pn, cost)
        assert sol.branch == "stage_b:j=2"
        policy = extract_policy(sol, pn, cost)
        theory = asymptotic_prediction(sol, pn, cost)
        samples = {"d": [], "it": [], "t": []}
        n_runs = 60
        for ri in range(n_runs):
            out = run(pop, policy, make_rng(1001, ri))
            samples["d"].append(out.defaults / n)
            samples["it"].append(out.interventions / n)
            samples["t"].append(out.T / pop.m)
        for key, target in zip(("d", "it", "t"), theory):
            arr = np.asarray(samples[key])
            se = arr.std(ddof=1) / math.sqrt(n_runs)
            assert abs(arr.mean() - target) <= 3 * se + 1e-12, (key, arr.mean(), target)
