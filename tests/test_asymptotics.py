import math

import numpy as np
import pytest

from contagion_control import (
    InterventionPolicy,
    JointDistribution,
    ParameterError,
    default_fraction,
    default_outflow,
    default_outflow_controlled,
    propagate,
    smallest_fixed_point,
    terminal_hamiltonian,
    trajectory_at,
)
from contagion_control.asymptotics import (
    forced_policy_limits,
    initial_trajectory,
    program_residuals,
)
from contagion_control.optimizer import _candidates, extract_policy, solve_op

import scalar_limits as scalar
from conftest import make_rng
from helpers import (
    default_fraction_at,
    default_fraction_controlled,
    hidden_pool_scaled,
    intervention_start,
    intervention_volume,
)


def random_fixture(rng, max_deg=5):
    """Balanced random distribution plus a random start-time table."""
    n_classes = rng.integers(2, 5)
    entries = {}
    d0 = int(rng.integers(1, max_deg + 1))
    entries[(d0, d0, int(rng.integers(1, d0 + 1)))] = float(rng.uniform(0.1, 0.4))
    for _ in range(n_classes):
        d = int(rng.integers(1, max_deg + 1))
        c = int(rng.integers(0, d + 2))  # occasionally defaulted or invulnerable
        entries[(d, d, c)] = entries.get((d, d, c), 0.0) + float(rng.uniform(0.05, 0.4))
    total = sum(entries.values())
    entries = {k: v / total for k, v in entries.items()}
    p = JointDistribution(entries)
    starts = {}
    for (i, j, c) in {(i, j, c) for (i, j, c) in entries if 1 <= c <= i}:
        for cc in range(1, i + 1):
            starts[(i, j, cc)] = float(rng.uniform(0.0, 1.0))
    return p, InterventionPolicy.table(starts)


class TestPropagate:
    def test_identity_at_zero_elapsed(self, quadratic_dist):
        traj = initial_trajectory(quadratic_dist)
        out = propagate(traj, 0.0, {})
        assert out.s == traj.s

    def test_binomial_form_from_origin(self, quadratic_dist):
        # from the all-fresh start, all controls off:
        # s(i,j,c,l) = p * C(i,l) * (1 - tau/lam)^(i-l) * (tau/lam)^l
        traj = propagate(initial_trajectory(quadratic_dist), 1.0, {})
        assert traj.value(2, 2, 2, 1) == pytest.approx(0.4, abs=1e-14)
        assert traj.value(2, 2, 2, 0) == pytest.approx(0.8 * 0.25, abs=1e-14)

    def test_binomial_form_any_controls(self, quadratic_dist):
        # the same holds for l <= c - 2 whatever the controls do
        on = {(2, 2, 1): 1, (2, 2, 2): 1}
        traj = propagate(initial_trajectory(quadratic_dist), 0.5, on)
        tau_frac = 0.25
        expected = 0.8 * (1 - tau_frac) ** 2
        assert traj.value(2, 2, 2, 0) == pytest.approx(expected, abs=1e-14)

    def test_aid_accumulates_rescued_mass(self):
        p = JointDistribution({(1, 1, 1): 1.0})
        traj = propagate(initial_trajectory(p), 0.5, {(1, 1, 1): 1})
        assert traj.value(1, 1, 2, 1) == pytest.approx(0.5, abs=1e-14)

    def test_no_aid_means_no_rescued_mass(self, quadratic_dist):
        traj = propagate(initial_trajectory(quadratic_dist), 1.3, {})
        assert traj.value(2, 2, 3, 2) == 0.0

    def test_unaided_cushion_between_aided_ones(self):
        # in-degree 3 at tau = lam / 2: from fresh, l ~ Bin(3, 1/2).  Cushions 1
        # and 3 are aided, 2 is not.  Cushion-1 mass climbs to (2, 1) at one
        # loss and defaults at two or three, where it must pass cushion 2;
        # cushion-3 mass climbs to (4, 3) at three losses.
        p = JointDistribution({(3, 3, 1): 0.5, (3, 3, 3): 0.5})
        traj = propagate(initial_trajectory(p), 1.5, {(3, 3, 1): 1, (3, 3, 3): 1})
        want = {(1, 0): 1 / 16, (2, 0): 0.0, (2, 1): 3 / 16,
                (3, 0): 1 / 16, (3, 1): 3 / 16, (3, 2): 3 / 16, (4, 3): 1 / 16}
        assert {key[2:]: mass for key, mass in traj.s.items()} == pytest.approx(want, abs=1e-15)

    def test_domain_errors(self, quadratic_dist):
        traj = initial_trajectory(quadratic_dist)
        with pytest.raises(ParameterError):
            propagate(traj, 2.0, {})
        with pytest.raises(ParameterError):
            propagate(propagate(traj, 1.0, {}), 0.5, {})

    @pytest.mark.parametrize("tau", [-0.1, 2.0, 2.5])
    def test_trajectory_at_outside_the_horizon(self, quadratic_dist, tau):
        # the closed form holds on [0, lam), lam = 2 here
        with pytest.raises(ParameterError, match="outside"):
            trajectory_at(quadratic_dist, InterventionPolicy.none(), tau)


class TestRk4Oracle:
    def test_agrees_with_closed_form(self):
        rng = make_rng(99)
        for _ in range(5):
            p, policy = random_fixture(rng)
            tau = float(rng.uniform(0.3, 0.95)) * p.lam
            exact = trajectory_at(p, policy, tau)
            numeric = scalar.integrate_rk4(p, policy, tau, h=1e-3 * p.lam)
            sup = max(abs(exact.s[k] - numeric.s[k]) for k in exact.s)
            assert sup < 1e-8

    def test_agrees_with_closed_form_up_to_in_degree_8(self):
        rng = make_rng(8)
        degrees = set()
        for _ in range(3):
            p, policy = random_fixture(rng, max_deg=8)
            degrees |= {i for (i, _j, _c) in p.entries}
            tau = float(rng.uniform(0.3, 0.95)) * p.lam
            exact = trajectory_at(p, policy, tau)
            numeric = scalar.integrate_rk4(p, policy, tau, h=1e-3 * p.lam)
            assert numeric.s.keys() == exact.s.keys()
            assert max(abs(exact.s[k] - numeric.s[k]) for k in exact.s) < 1e-8
        assert max(degrees) == 8

    def test_order_four(self, quadratic_dist):
        policy = InterventionPolicy.table({(2, 2, 1): 0.2, (2, 2, 2): 0.6})
        tau = 0.95 * quadratic_dist.lam
        exact = trajectory_at(quadratic_dist, policy, tau)

        def err(h):
            num = scalar.integrate_rk4(quadratic_dist, policy, tau, h)
            return max(abs(exact.s[k] - num.s[k]) for k in exact.s)

        e1, e2 = err(2e-3), err(1e-3)
        assert 8 < e1 / e2 < 32

    def test_domain_guards(self, quadratic_dist):
        policy = InterventionPolicy.none()
        with pytest.raises(ParameterError):
            scalar.integrate_rk4(quadratic_dist, policy, 0.99 * quadratic_dist.lam, 1e-3)
        with pytest.raises(ParameterError):
            scalar.integrate_rk4(quadratic_dist, policy, 1.0, h=0.1)


class TestUncontrolledLimits:
    def test_quadratic_outflow(self, quadratic_dist):
        assert default_outflow(quadratic_dist, 0.25) == pytest.approx(0.25, abs=1e-15)
        assert default_outflow(quadratic_dist, 0.0) == pytest.approx(0.2)

    def test_outflow_at_zero_is_defaulted_flow(self, mixed_dist):
        expected = sum(
            j * m for (i, j, c), m in mixed_dist.entries.items() if c == 0
        ) / mixed_dist.lam
        assert default_outflow(mixed_dist, 0.0) == pytest.approx(expected)

    def test_outflow_at_one_with_no_invulnerable(self, quadratic_dist):
        assert default_outflow(quadratic_dist, 1.0) == pytest.approx(1.0)

    def test_fixed_point_quadratic(self, quadratic_dist):
        y, stable = smallest_fixed_point(lambda y: default_outflow(quadratic_dist, y))
        assert y == pytest.approx(0.25, abs=1e-10)
        assert stable
        assert default_fraction(quadratic_dist, y) == pytest.approx(0.25, abs=1e-10)

    def test_fixed_point_total_default(self, one_regular_dist):
        y, _stable = smallest_fixed_point(lambda y: default_outflow(one_regular_dist, y))
        assert y == 1.0

    def test_fixed_point_zero(self):
        p = JointDistribution({(2, 2, 2): 1.0})
        y, stable = smallest_fixed_point(lambda y: default_outflow(p, y))
        assert y == 0.0 and stable


class TestInterventionStart:
    def test_branch_one_forced(self):
        # cost + v*j - 1 = 0.1 >= 0: never worth starting early
        for (i, c, y) in [(3, 1, 0.2), (5, 4, 0.9), (2, 2, 0.0)]:
            assert intervention_start(i, 2, c, 0.5, 0.3, y) == y

    def test_interior_value(self):
        # v*j - 1 = -0.6, i=3, c=2, y=0.5: start = 1 - 0.5 * 0.5/0.4 = 0.375
        v = (1 - 0.6) / 2
        assert 2 * v - 1 == pytest.approx(-0.6)
        assert intervention_start(3, 2, 2, 0.5, v, 0.5) == pytest.approx(0.375)

    def test_immediate_branch(self):
        # v*j - 1 = -1.5, i=3, c=1, y=0.8: window test 1 < 0.5 fails -> start at 0
        v = (1 - 1.5) / 2
        assert 2 * v - 1 == pytest.approx(-1.5)
        assert intervention_start(3, 2, 1, 0.5, v, 0.8) == 0.0

    def test_zero_horizon_with_negative_coefficient(self):
        assert intervention_start(3, 2, 1, 0.5, -2.0, 0.0) == 0.0

    def test_never_exceeds_horizon(self):
        rng = make_rng(5)
        for _ in range(500):
            i = int(rng.integers(1, 8))
            c = int(rng.integers(1, i + 1))
            j = int(rng.integers(0, 8))
            cost = float(rng.uniform(0.05, 3.0))
            v = float(rng.uniform(-3, 3))
            y = float(rng.uniform(0.0, 1.0))
            x = intervention_start(i, j, c, cost, v, y)
            assert x <= y + 1e-12
            assert x >= 0.0

    def test_decreasing_in_cushion(self):
        # richer cushions start earlier (interior branch)
        cost, v, y, i, j = 0.5, -0.6, 0.6, 6, 2
        xs = [intervention_start(i, j, c, cost, v, y) for c in range(1, i + 1)]
        assert all(a >= b - 1e-12 for a, b in zip(xs, xs[1:]))
        interior = [x for x in xs if 0.0 < x < y]
        assert all(a > b for a, b in zip(interior, interior[1:]))


class TestControlledLimits:
    def test_reduces_to_uncontrolled_when_aid_never_pays(self, quadratic_dist):
        # v large: every class sits in the never branch
        for y in (0.1, 0.4, 0.9):
            assert default_outflow_controlled(quadratic_dist, 0.5, y, 5.0, y) == \
                pytest.approx(default_outflow(quadratic_dist, y), abs=1e-14)
            assert default_fraction_controlled(quadratic_dist, 0.5, y, 5.0, y) == \
                pytest.approx(default_fraction(quadratic_dist, y), abs=1e-14)

    def test_very_negative_multiplier_floors_outflow(self, quadratic_dist):
        # all classes aided from the start: only initial defaulters flow
        base = default_outflow(quadratic_dist, 0.0)
        for y in (0.2, 0.6, 0.95):
            got = default_outflow_controlled(quadratic_dist, 0.5, y, -1e6, 0.0)
            assert got == pytest.approx(base, abs=1e-12)

    def test_singular_term_vanishes_at_z_equal_y(self, quadratic_dist):
        v = (1 - 1.5) / 2  # singular at j = 2 for cost 1.5
        with_z = default_outflow_controlled(quadratic_dist, 1.5, 0.3, v, 0.3, singular_j=2)
        base = default_outflow_controlled(quadratic_dist, 1.5, 0.3, 5.0, 0.3)
        assert with_z == pytest.approx(base, abs=1e-14)

    def test_singular_class_starts_at_z_when_coefficient_rounds_below_zero(self):
        # (1 - 0.1) / 3 * 3 rounds so that cost + v j - 1 < 0, where the start
        # formula alone aids class (3, 3, 3) from 0; as a singular class it
        # must start at z all the same
        p = JointDistribution({(3, 3, 0): 0.2, (3, 3, 3): 0.8})
        cost, y, z = 0.1, 0.5, 0.2
        v = (1 - cost) / 3
        assert cost + 3 * v - 1 < 0
        assert default_outflow_controlled(p, cost, y, v, z, 3) == \
            pytest.approx((0.6 + 2.4 * z**3) / p.lam, abs=1e-15)
        assert default_fraction_controlled(p, cost, y, v, z, 3) == \
            pytest.approx(0.2 + 0.8 * z**3, abs=1e-15)
        assert intervention_volume(p, cost, y, v, z, 3) == \
            pytest.approx(0.8 * (y**3 - z**3), abs=1e-15)

    def test_aid_volume_zero_cases(self, quadratic_dist):
        assert intervention_volume(quadratic_dist, 0.5, 0.0, -0.3, 0.0) == 0.0
        # never-start policy: the aid window is empty
        assert intervention_volume(quadratic_dist, 0.5, 0.5, 5.0, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_aid_volume_direct_sum(self, quadratic_dist):
        # immediate aid on the c=2 class: one unit per reveal from the second on
        got = intervention_volume(quadratic_dist, 0.5, 0.2, -1e6, 0.2)
        assert got == pytest.approx(0.8 * 0.2 ** 2, abs=1e-12)

    def test_hamiltonian_zero_at_origin_without_unit_cushion(self, quadratic_dist):
        # no c=1 mass: every bracket needs at least one revealed link
        assert terminal_hamiltonian(quadratic_dist, 0.5, 0.0, -0.3) == 0.0

    def test_hamiltonian_unit_cushion_at_origin(self):
        # with c=1 mass the origin value is the aid coefficient times i*p(i,j,1)
        p = JointDistribution({(2, 2, 1): 0.5, (2, 2, 0): 0.5})
        v = -0.4
        expected = max(-0.5, 2 * v - 1) * 2 * 0.5
        assert terminal_hamiltonian(p, 0.5, 0.0, v) == pytest.approx(expected)

    def test_dominance_over_uncontrolled(self, experiment_dist):
        rng = make_rng(31)
        for _ in range(200):
            y = float(rng.uniform(0, 1))
            v = float(rng.uniform(-2, 2))
            z = float(rng.uniform(0, y))
            k = float(rng.uniform(0.05, 2.0))
            assert default_outflow(experiment_dist, y) >= \
                default_outflow_controlled(experiment_dist, k, y, v, z) - 1e-12
            assert default_fraction(experiment_dist, y) >= \
                default_fraction_controlled(experiment_dist, k, y, v, z) - 1e-12

    def test_monotone_in_horizon(self, experiment_dist):
        for v, z in ((-0.5, 0.0), (0.2, 0.1), (-1.5, 0.3)):
            ys = np.linspace(max(z, 0.0), 1.0, 40)
            vals = [default_outflow_controlled(experiment_dist, 0.5, y, v, z) for y in ys]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_outflow_bounded(self, experiment_dist):
        for y in np.linspace(0, 1, 21):
            val = default_outflow(experiment_dist, float(y))
            assert -1e-12 <= val <= 1.0 + 1e-12

    def test_vectorized_matches_scalar(self, experiment_dist):
        rng = make_rng(13)
        for _ in range(100):
            y = float(rng.uniform(0.01, 0.99))
            v = float(rng.uniform(-2, 2))
            z = float(rng.uniform(0, y))
            k = float(rng.uniform(0.05, 2.5))
            r1, r2 = program_residuals(experiment_dist, k, y, v, z)
            lam = experiment_dist.lam
            r1_ref = (1 - y) * (scalar.terminal_hamiltonian(experiment_dist, k, y, v) - lam * v)
            r2_ref = scalar.default_outflow_controlled(experiment_dist, k, y, v, z) - y
            assert r1 == pytest.approx(r1_ref, abs=1e-12)
            assert r2 == pytest.approx(r2_ref, abs=1e-12)


class TestSingularAidVolume:
    def test_quadrature_oracle(self, quadratic_dist):
        """The singular term enters the aid volume positively.

        Independent route: integrate the aid rate
        sum (i - c + 1) s(i,j,c,c-1) u / (lam - t) over [0, lam*y] using the
        closed-form trajectories under the same schedule.
        """
        cost = 1.5
        y, z = 5 / 24, math.sqrt(1 / 96)
        v = (1 - cost) / 2
        formula = intervention_volume(quadratic_dist, cost, y, v, z, singular_j=2)

        candidate, = _candidates(quadratic_dist, cost, [(y, v, z)], "stage_b:j=2", 2)
        policy = extract_policy(candidate, quadratic_dist, cost)
        lam = quadratic_dist.lam
        tau_end = lam * y
        nodes, weights = np.polynomial.legendre.leggauss(60)

        def rate(tau):
            traj = trajectory_at(quadratic_dist, policy, tau)
            tot = 0.0
            for (i, j, c, l), val in traj.s.items():
                if l == c - 1 and c <= i:
                    start = policy.start(i, j, c)
                    if start is not None and tau >= lam * start - 1e-12 and start < y:
                        tot += (i - c + 1) * val / (lam - tau)
            return tot

        legs = sorted({lam * z, tau_end})
        total, prev = 0.0, 0.0
        for end in legs:
            half = 0.5 * (end - prev)
            mid = 0.5 * (end + prev)
            total += half * sum(w * rate(mid + half * t) for t, w in zip(nodes, weights))
            prev = end
        assert formula == pytest.approx(total, abs=1e-9)
        assert formula > 0.0

    def test_aid_window_identity(self, quadratic_dist):
        # the singular contribution equals the general window sum started at z
        cost = 1.5
        v = (1 - cost) / 2
        y, z = 0.4, 0.15
        vol = intervention_volume(quadratic_dist, cost, y, v, z, singular_j=2)
        # by hand: only class (2,2,2) is vulnerable; singular -> p * (y^2 - z^2)
        assert vol == pytest.approx(0.8 * (y**2 - z**2), abs=1e-14)


class TestTrajectoryConsistency:
    def test_pool_zero_at_solution_horizon(self, quadratic_dist):
        """The hidden-pool deficit hits zero exactly at the program's horizon,
        and the trajectory's default share equals the program's."""
        for cost in (0.5, 1.5, 10.0):
            sol = solve_op(quadratic_dist, cost)
            y = sol.end_fraction
            policy = extract_policy(sol, quadratic_dist, cost)
            traj = trajectory_at(quadratic_dist, policy, quadratic_dist.lam * y)
            assert hidden_pool_scaled(traj, quadratic_dist) == pytest.approx(0.0, abs=1e-9)
            assert default_fraction_at(traj, quadratic_dist) == pytest.approx(
                sol.defaults, abs=1e-9
            )


class TestForcedPolicies:
    def test_never_matches_uncontrolled(self, quadratic_dist):
        y, stable, defaults, aid = forced_policy_limits(quadratic_dist, InterventionPolicy.none())
        assert (y, defaults, aid) == pytest.approx((0.25, 0.25, 0.0), abs=1e-10)
        assert stable

    def test_always_keeps_only_initial_defaults(self, experiment_dist):
        _y, _stable, defaults, aid = forced_policy_limits(
            experiment_dist, InterventionPolicy.complete()
        )
        assert defaults == pytest.approx(0.5, abs=1e-10)
        assert aid > 0.0

    def test_hand_tables_match_trajectory(self):
        """Tables whose starts fall with the cushion: the closed-form limits
        agree with the state trajectory, which follows every cushion."""
        cases = [
            (JointDistribution({(2, 2, 0): 0.2, (2, 2, 1): 0.8}),
             InterventionPolicy.table({(2, 2, 1): 0.1}, {(2, 2): 0.0})),
            (JointDistribution({(3, 3, 0): 0.2, (3, 3, 1): 0.3, (3, 3, 2): 0.3, (2, 2, 1): 0.2}),
             InterventionPolicy.table({(3, 3, 1): 0.3, (3, 3, 2): 0.15, (3, 3, 3): 0.05,
                                       (2, 2, 1): 0.2, (2, 2, 2): 0.2})),
        ]
        for p, policy in cases:
            y, stable, defaults, aid = forced_policy_limits(p, policy)
            assert stable and 0.0 < y < 1.0 and aid > 0.0
            traj = trajectory_at(p, policy, p.lam * y)
            assert hidden_pool_scaled(traj, p) == pytest.approx(0.0, abs=1e-9)
            assert default_fraction_at(traj, p) == pytest.approx(defaults, abs=1e-9)

    def test_start_rising_with_cushion_rejected(self, quadratic_dist):
        """An aided node moves up one cushion; a later start there (or none)
        breaks the closed form, so the limits refuse it."""
        p = JointDistribution({(2, 2, 0): 0.2, (2, 2, 1): 0.8})
        for policy in (InterventionPolicy.table({(2, 2, 1): 0.0}, {(2, 2): 0.1}),
                       InterventionPolicy.table({(2, 2, 1): 0.0})):
            with pytest.raises(ParameterError, match="later"):
                forced_policy_limits(p, policy)
            # quadratic_dist starts every node at cushion 2, so cushion 1 is never used
            forced_policy_limits(quadratic_dist, policy)

    def test_binom_tail_edges(self):
        assert scalar.binom_tail(3, 0.5, 0) == 1.0
        assert scalar.binom_tail(3, 0.5, 4) == 0.0
        assert scalar.binom_tail(3, 0.0, 1) == 0.0
        assert scalar.binom_tail(3, 1.0, 3) == 1.0
        assert scalar.binom_tail(4, 0.3, 2) == pytest.approx(
            sum(math.comb(4, m) * 0.3**m * 0.7 ** (4 - m) for m in (2, 3, 4))
        )
