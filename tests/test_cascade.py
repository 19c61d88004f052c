import math
from fractions import Fraction

import numpy as np
import pytest

from contagion_control import (
    ContagionState,
    EmpiricalCounts,
    EnumerationLimitError,
    InterventionPolicy,
    ParameterError,
    exact_expectation,
    instantiate,
    run,
    step,
)
from contagion_control.cascade import run_via_steps

from conftest import make_rng


def pop_of(counts: dict, n=None) -> "NodePopulation":
    n = n if n is not None else sum(counts.values())
    return instantiate(EmpiricalCounts(n=n, counts=counts))


@pytest.fixture
def cycle3():
    """One defaulted node, two one-loss survivors, all 1-regular."""
    return pop_of({(1, 1, 0): 1, (1, 1, 1): 2})


class TestStep:
    def test_defaulted_target_only_advances_counters(self):
        # two initially defaulted 1-regular nodes: every reveal hits a dead node
        pop = pop_of({(1, 1, 0): 2})
        state = ContagionState(pop, InterventionPolicy.none())
        agg0 = state.aggregate()
        step(state, make_rng(0))
        assert state.k == 1
        assert sum(state.l) == 1
        assert state.defaults == 2
        assert state.aggregate() == agg0

    def test_distance_two_target_moves_one_level(self):
        # the only live node has two units of equity: first reveal cannot kill it
        pop = pop_of({(2, 2, 0) : 1, (2, 2, 2): 1})
        state = ContagionState(pop, InterventionPolicy.none())
        while True:
            state_before = dict(state.aggregate())
            step(state, make_rng(state.k))
            if state.l[1] == 1:
                break
            if state.done:
                pytest.skip("cascade died on self-loops before touching the live node")
        assert state.c[1] == 2 and not state.dead[1]
        assert state.aggregate()[(2, 2, 2, 1)] == 1
        assert state_before.get((2, 2, 2, 0), 0) == 1

    def test_intervention_rescues_to_invulnerable(self):
        # c = i node at distance one: aid moves it to (i, j, i+1, i)
        pop = pop_of({(1, 1, 0): 1, (1, 1, 1): 2})
        state = ContagionState(pop, InterventionPolicy.complete())
        rng = make_rng(3)
        while not state.done:
            step(state, rng)
        assert state.defaults == 1
        rescued = state.aggregate().get((1, 1, 2, 1), 0)
        assert rescued == state.interventions

    def test_step_after_termination_errors(self):
        pop = pop_of({(1, 1, 1): 2})
        state = ContagionState(pop, InterventionPolicy.none())
        assert state.done
        with pytest.raises(ParameterError):
            step(state, make_rng(0))


class TestRun:
    def test_no_initial_defaults(self):
        pop = pop_of({(2, 2, 1): 4, (1, 1, 2): 2})
        out = run(pop, InterventionPolicy.none(), make_rng(0))
        assert (out.T, out.interventions, out.defaults) == (0, 0, 0)

    def test_cycle_mean(self, cycle3):
        # defaults = cycle length through the dead node; exact mean is 2
        rng = make_rng(21)
        total = 0
        trials = 10_000
        vals = []
        for _ in range(trials):
            out = run(cycle3, InterventionPolicy.none(), rng)
            vals.append(out.defaults)
        mean = np.mean(vals)
        se = np.std(vals, ddof=1) / math.sqrt(trials)
        assert abs(mean - 2.0) < 3 * se

    def test_complete_blocks_all_contagion(self, cycle3):
        for seed in range(25):
            out = run(cycle3, InterventionPolicy.complete(), make_rng(seed))
            assert out.defaults == 1

    def test_complete_on_bigger_population(self):
        pop = pop_of({(2, 2, 0): 3, (2, 2, 1): 7, (2, 2, 2): 5})
        for seed in range(10):
            out = run(pop, InterventionPolicy.complete(), make_rng(100 + seed))
            assert out.defaults == 3
            assert out.T == 6  # only the initial defaulters' out-links reveal

    def test_threshold_table_scaling(self):
        # start fraction x: aid begins at step m * x of the realized population
        pop = pop_of({(1, 1, 0): 5, (1, 1, 1): 5})
        immediate = InterventionPolicy.table({(1, 1, 1): 0.0})
        for seed in range(10):
            out = run(pop, immediate, make_rng(30 + seed))
            assert out.defaults == 5
        never = InterventionPolicy.table({})
        out_never = run(pop, never, make_rng(31))
        baseline = run(pop, InterventionPolicy.none(), make_rng(31))
        assert out_never.interventions == 0
        assert out_never.defaults == baseline.defaults

    def test_trace_columns(self, cycle3):
        out = run(cycle3, InterventionPolicy.none(), make_rng(2), trace=True)
        assert len(out.trace) == out.T
        ks = [row[0] for row in out.trace]
        assert ks == list(range(1, out.T + 1))
        assert out.trace[-1][3] == 0  # hidden pool empty at the end

    def test_snapshots(self):
        pop = pop_of({(2, 2, 0): 2, (2, 2, 2): 8})
        out = run(pop, InterventionPolicy.none(), make_rng(4), snapshot_times=(0.0, 0.2, 5.0))
        assert out.snapshots[0.0] == {(2, 2, 2, 0): 8}
        assert set(out.snapshots) == {0.0, 0.2, 5.0}

    def test_objective_reproducible(self, cycle3):
        out = run(cycle3, InterventionPolicy.complete(), make_rng(9))
        assert out.objective(0.5) == 0.5 * out.interventions / 3 + out.defaults / 3


class TestInvariants:
    @pytest.mark.parametrize("policy", [
        InterventionPolicy.none(),
        InterventionPolicy.complete(),
        InterventionPolicy.degree_range(2, 2),
        InterventionPolicy.table({(2, 2, 1): 0.1, (2, 2, 2): 0.0, (1, 1, 1): 0.5}),
    ])
    def test_stepwise_invariants(self, policy):
        pop = pop_of({(2, 2, 0): 2, (2, 2, 1): 3, (2, 2, 2): 3, (1, 1, 1): 4, (1, 1, 0): 2})
        vulnerable0 = sum(1 for (i, _j, c) in pop.nodes if 0 < c <= i)
        state = ContagionState(pop, policy)
        rng = make_rng(11)
        prev_defaults, prev_aid = state.defaults, 0
        while not state.done:
            step(state, rng)
            agg = state.aggregate()
            dead_vulnerable = sum(
                1 for v, (i, _j, c0) in enumerate(pop.nodes)
                if 0 < c0 <= i and state.dead[v]
            )
            assert sum(agg.values()) + dead_vulnerable == vulnerable0
            assert state.hidden_out == state.hidden_out_recomputed()
            assert sum(state.l) == state.k
            assert state.defaults >= prev_defaults
            assert state.interventions >= prev_aid
            assert state.interventions <= state.k
            prev_defaults, prev_aid = state.defaults, state.interventions
        assert state.k <= pop.m


class TestExactExpectation:
    def test_cycle3_exact(self, cycle3):
        e_d, e_it, e_t = exact_expectation(cycle3, InterventionPolicy.none())
        assert e_d == 2 and e_it == 0 and e_t == 2

    def test_cycle3_complete(self, cycle3):
        e_d, e_it, e_t = exact_expectation(cycle3, InterventionPolicy.complete())
        assert e_d == 1
        assert e_it == Fraction(2, 3)
        assert e_t == 1

    def test_no_defaults(self):
        pop = pop_of({(1, 1, 1): 3})
        assert exact_expectation(pop, InterventionPolicy.none()) == (0, 0, 0)

    def test_refusal_above_limit(self):
        pop = pop_of({(1, 1, 1): 11})
        with pytest.raises(EnumerationLimitError):
            exact_expectation(pop, InterventionPolicy.none())

    @pytest.mark.parametrize("counts,policy", [
        ({(1, 1, 0): 1, (1, 1, 1): 2}, InterventionPolicy.none()),
        ({(2, 2, 0): 1, (2, 2, 2): 2}, InterventionPolicy.none()),
        ({(2, 2, 0): 1, (2, 2, 2): 2}, InterventionPolicy.complete()),
        ({(2, 2, 0): 1, (2, 2, 1): 1, (1, 1, 1): 2}, InterventionPolicy.degree_range(2, 2)),
        # step-indexed policy: aid switches on halfway through the reveal budget
        ({(2, 2, 0): 1, (2, 2, 2): 2}, InterventionPolicy.table({(2, 2, 2): 0.5, (2, 2, 3): 0.0})),
    ])
    def test_monte_carlo_agrees(self, counts, policy):
        pop = pop_of(counts)
        e_d, e_it, e_t = exact_expectation(pop, policy)
        rng = make_rng(77)
        trials = 10_000
        samples = {"d": [], "it": [], "t": []}
        for _ in range(trials):
            out = run(pop, policy, rng)
            samples["d"].append(out.defaults)
            samples["it"].append(out.interventions)
            samples["t"].append(out.T)
        for key, exact in (("d", e_d), ("it", e_it), ("t", e_t)):
            arr = np.asarray(samples[key], dtype=float)
            se = arr.std(ddof=1) / math.sqrt(trials)
            assert abs(arr.mean() - float(exact)) <= 3 * se + 1e-12

    def test_step_runner_agrees_with_oracle(self, cycle3):
        rng = make_rng(123)
        vals = [run_via_steps(cycle3, InterventionPolicy.none(), rng).defaults
                for _ in range(4000)]
        se = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert abs(np.mean(vals) - 2.0) < 3 * se + 1e-12


class TestTrajectoryConvergence:
    def test_scaled_state_approaches_closed_form(self, experiment_dist):
        """Scaled state counts track the deterministic trajectories, and the
        sup-distance shrinks as the network grows."""
        from contagion_control import empirical_counts, trajectory_at
        from contagion_control import instantiate as make_pop

        lam = experiment_dist.lam
        taus = [0.1 * lam, 0.3 * lam, 0.5 * lam]
        sup_dist = []
        for n in (625, 2401, 10000):
            counts = empirical_counts(experiment_dist, n)
            pop = make_pop(counts)
            # average a few runs to damp the O(n^-1/2) noise
            dists = []
            for seed in range(3):
                out = run(pop, InterventionPolicy.none(), make_rng(400, n, seed),
                          snapshot_times=taus)
                worst = 0.0
                for tau, agg in out.snapshots.items():
                    ref = trajectory_at(experiment_dist, InterventionPolicy.none(), tau)
                    keys = set(ref.s) | set(agg)
                    for key in keys:
                        worst = max(worst, abs(agg.get(key, 0) / n - ref.s.get(key, 0.0)))
                dists.append(worst)
            sup_dist.append(np.mean(dists))
        assert sup_dist[-1] < sup_dist[0]
        assert sup_dist[-1] < 0.01


class TestOnePolicyType:
    """`start` is the one dispatch point: every policy equals its explicit table."""

    MIXED = {(2, 1, 1): 0.3, (1, 2, 1): 0.3, (1, 1, 0): 0.2, (2, 2, 2): 0.1, (1, 1, 5): 0.1}

    @staticmethod
    def _tables(p):
        pairs = {(i, j) for (i, j, c) in p.entries if 1 <= c <= i}
        every = [(i, j, c) for i, j in pairs for c in range(1, i + 1)]
        return [
            (InterventionPolicy.none(), InterventionPolicy.table({})),
            (InterventionPolicy.complete(), InterventionPolicy.table({k: 0.0 for k in every})),
            (InterventionPolicy.degree_range(2, 2),
             InterventionPolicy.table({k: 0.0 for k in every if k[0] == 2})),
        ]

    def test_same_runs_limits_and_trajectories(self):
        from contagion_control import (
            JointDistribution, empirical_counts, forced_policy_limits, trajectory_at,
        )

        p = JointDistribution(self.MIXED)
        pop = instantiate(empirical_counts(p, 200))
        for named, table in self._tables(p):
            for seed in range(5):
                a = run(pop, named, make_rng(60, seed))
                b = run(pop, table, make_rng(60, seed))
                assert (a.T, a.interventions, a.defaults) == (b.T, b.interventions, b.defaults)
            assert forced_policy_limits(p, named) == forced_policy_limits(p, table)
            for tau in (0.2 * p.lam, 0.7 * p.lam):
                assert trajectory_at(p, named, tau).s == trajectory_at(p, table, tau).s

    def test_start_values(self):
        band = InterventionPolicy.degree_range(2, 3)
        assert (band.start(2, 5, 1), band.start(4, 1, 1)) == (0.0, None)
        table = InterventionPolicy.table({(2, 2, 2): 0.4, (2, 2, 1): 0.1}, {(2, 2): 0.3})
        assert (table.start(2, 2, 1), table.start(2, 2, 2), table.start(3, 3, 3)) == (0.1, 0.3, None)
        assert InterventionPolicy.none().start(1, 1, 1) is None
        assert InterventionPolicy.complete().start(1, 1, 1) == 0.0

    @pytest.mark.parametrize("start", [float("nan"), float("inf"), 1.5, -0.1])
    def test_table_rejects_start_outside_unit_interval(self, start):
        with pytest.raises(ParameterError):
            InterventionPolicy.table({(1, 1, 1): start})
        with pytest.raises(ParameterError):
            InterventionPolicy.table({}, {(1, 1): start})
        with pytest.raises(ParameterError):
            InterventionPolicy(kind="threshold_table", thresholds={(1, 1, 1): start})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            InterventionPolicy(kind="sometimes")
