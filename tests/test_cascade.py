import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from contagion_control import (
    EmpiricalCounts,
    InterventionPolicy,
    NodePopulation,
    ParameterError,
    instantiate,
    run,
)
from contagion_control import cascade
from contagion_control.cascade import _Passage

from conftest import make_rng
from exact_oracle import EnumerationLimitError, exact_expectation
from step_chain import run_steps


def pop_of(counts: dict, n=None) -> "NodePopulation":
    n = n if n is not None else sum(counts.values())
    return instantiate(EmpiricalCounts(n=n, counts=counts))


@pytest.fixture
def cycle3():
    """One defaulted node, two one-loss survivors, all 1-regular."""
    return pop_of({(1, 1, 0): 1, (1, 1, 1): 2})


def full_replay_state(pop, rng):
    """The state of `rng` after every block of the population's draw order:
    where `run` leaves it, whenever its run stops."""
    if any(j for (_i, j, c) in pop.nodes if c == 0):
        for _ in range(-(-pop.m // 4096)):
            rng.random(4096)
    return rng.bit_generator.state


def every_step(pop):
    """Snapshot times that land on steps 0..m, one each."""
    return [(k + 0.5) / pop.n for k in range(pop.m + 1)]


class TestStep:
    def test_defaulted_target_only_advances_counters(self):
        # two initially defaulted 1-regular nodes: every reveal hits a dead node
        pop = pop_of({(1, 1, 0): 2})
        out = run(pop, InterventionPolicy.none(), make_rng(0), every_step(pop), trace=True)
        assert out.trace == [(1, 2, 0, 1), (2, 2, 0, 0)]
        assert all(agg == {} for agg in out.snapshots.values())

    def test_distance_two_target_moves_one_level(self):
        # the only live node has two units of equity: its first loss cannot kill it
        pop = pop_of({(2, 2, 0): 1, (2, 2, 2): 1})
        touched = 0
        for seed in range(10):
            out = run(pop, InterventionPolicy.none(), make_rng(seed), every_step(pop))
            aggs = [out.snapshots[t] for t in sorted(out.snapshots)]
            hit = [k for k, agg in enumerate(aggs) if agg.get((2, 2, 2, 1))]
            if hit:
                touched += 1
                assert aggs[hit[0]] == {(2, 2, 2, 1): 1}
                assert aggs[hit[0] - 1] == {(2, 2, 2, 0): 1}
        assert touched > 0

    def test_intervention_rescues_to_invulnerable(self):
        # c = i node at distance one: aid moves it to (i, j, i+1, i)
        pop = pop_of({(1, 1, 0): 1, (1, 1, 1): 2})
        out = run(pop, InterventionPolicy.complete(), make_rng(3), snapshot_times=(10.0,))
        assert out.defaults == 1
        assert out.snapshots[10.0].get((1, 1, 2, 1), 0) == out.interventions


class TestRun:
    def test_no_initial_defaults(self):
        pop = pop_of({(2, 2, 1): 4, (1, 1, 2): 2})
        rng = make_rng(0)
        out = run(pop, InterventionPolicy.none(), rng)
        assert (out.T, out.interventions, out.defaults) == (0, 0, 0)
        assert rng.random() == make_rng(0).random()  # no draw was made

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
        vulnerable = [(i, j) for (i, j, c) in pop.nodes if 0 < c <= i]
        initial = sum(1 for (_i, _j, c) in pop.nodes if c == 0)
        out_stubs0 = sum(j for (_i, j, c) in pop.nodes if c == 0)
        out = run(pop, policy, make_rng(11), every_step(pop), trace=True)
        aggs = [out.snapshots[t] for t in sorted(out.snapshots)]
        prev_defaults, prev_aid = initial, 0
        for k, defaults, aid, hidden in out.trace:
            agg = aggs[k]
            # vulnerable nodes are live or defaulted
            assert sum(agg.values()) + defaults - initial == len(vulnerable)
            # the hidden pool is the defaulted out-stubs minus the steps taken
            live_out = sum(j * v for (_i, j, _c, _l), v in agg.items())
            assert hidden == out_stubs0 + sum(j for (_i, j) in vulnerable) - live_out - k
            # a live node's losses are below its cushion and sum to at most k
            assert all(l < c for (_i, _j, c, l) in agg)
            assert sum(l * v for (_i, _j, _c, l), v in agg.items()) <= k
            assert defaults >= prev_defaults and aid >= prev_aid
            assert aid <= k
            prev_defaults, prev_aid = defaults, aid
        assert out.T <= pop.m


@st.composite
def populations(draw, stubs=None):
    """Small balanced populations with a defaulted class (mostly with out-links);
    classes may repeat apart, be invulnerable (c > i) or have out-degree zero.
    Given `stubs`, a strategy for a stub count, every class count is scaled
    so that the population has at most that many in- and out-stubs."""
    seed = st.tuples(st.integers(0, 3), st.integers(0, 3), st.just(0), st.integers(1, 3))
    other = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 4), st.integers(1, 4))
    classes = draw(st.permutations([draw(seed), *draw(st.lists(other, max_size=5))]))
    if stubs is not None:
        most = max(sum(i * count for i, _j, _c, count in classes),
                   sum(j * count for _i, j, _c, count in classes), 1)
        scale = max(draw(stubs) // most, 1)
        classes = [(i, j, c, count * scale) for i, j, c, count in classes]
    runs = [((i, j, c), count) for i, j, c, count in classes]
    gap = sum((i - j) * count for (i, j, _c), count in runs)
    if gap:
        runs.append(((max(-gap, 0), max(gap, 0), draw(st.integers(0, 3))), 1))
    return NodePopulation(runs=tuple(runs))


@st.composite
def policies(draw, pop):
    """Any policy kind; table start times lie anywhere in [0, 1], often on a
    grid of half steps, so that cuts fall both on and between steps."""
    kind = draw(st.sampled_from(["none", "complete", "degree_range", "threshold_table"]))
    if kind == "none":
        return InterventionPolicy.none()
    if kind == "complete":
        return InterventionPolicy.complete()
    if kind == "degree_range":
        lo = draw(st.integers(0, 3))
        return InterventionPolicy.degree_range(lo, draw(st.integers(lo, 4)))
    keys = sorted({(i, j, c) for (i, j, _c) in pop.nodes for c in range(1, i + 1)})
    pairs = sorted({(i, j) for (i, j, _c) in keys})
    grid = 2 * max(pop.m, 1)
    starts = st.one_of(st.floats(0.0, 1.0), st.integers(0, grid).map(lambda h: h / grid))
    return InterventionPolicy.table(
        draw(st.dictionaries(st.sampled_from(keys), starts) if keys else st.just({})),
        draw(st.dictionaries(st.sampled_from(pairs), starts) if pairs else st.just({})),
    )


class TestOneRunner:
    """`run` reproduces the per-step chain driven by an identically seeded generator."""

    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_run_equals_the_step_chain(self, data):
        pop = data.draw(populations())
        policy = data.draw(policies(pop))
        seed = data.draw(st.integers(0, 2**32 - 1))
        times = [-1.0, *every_step(pop), 1e3]
        rng_a, rng_b = make_rng(seed), make_rng(seed)
        out = run(pop, policy, rng_a, times, trace=True)
        assert out == run_steps(pop, policy, rng_b, times, trace=True)
        assert rng_a.random() == rng_b.random()  # m <= 4096: the same blocks drawn
        # terminal defaults plus live nodes, vulnerable or not, make up the population
        invulnerable = sum(1 for (i, _j, c) in pop.nodes if c > i)
        assert out.defaults + sum(out.snapshots[1e3].values()) + invulnerable == pop.n

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_cutoffs_over_every_node(self, data):
        # each node's row of the cut table that `run` is served, losses r =
        # 0..max i: -1 below its cushion c0, ceil(m * start) where its class
        # is aided at loss r (1 <= r <= i), and m, never, elsewhere, so an
        # invulnerable class (c0 > i) is never aided; a second run is served
        # the same table
        pop = data.draw(populations())
        policy = data.draw(policies(pop))
        served = []

        class Served(_Passage):
            def __init__(self, *args):
                super().__init__(*args)
                served.append((self.table, self.place.copy()))

        with mock.patch.object(cascade, "_Passage", Served):
            run(pop, policy, make_rng(0))
            run(pop, policy, make_rng(1))
        width = max(i for (i, _j, _c) in pop.nodes) + 1

        def cut(i, j, c0, r):
            if r < c0:
                return -1
            start = policy.start(i, j, r) if 1 <= r <= i else None
            return pop.m if start is None else math.ceil(pop.m * start)

        (table, place), (again, place_again) = served
        assert again is table and np.array_equal(place_again, place)
        rows = table[place[:, None] + np.arange(width)]
        assert rows.tolist() == [[cut(i, j, c0, r) for r in range(width)]
                                 for (i, j, c0) in pop.nodes]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_runs_share_what_is_built_once(self, data):
        # one population under several policies, interleaved, and one policy
        # on two populations of different m, alternately: each run equals the
        # step chain, one generator carried through all the runs of each
        pop, other = data.draw(populations()), data.draw(populations())
        assume(pop.m != other.m)
        several = [data.draw(policies(pop)) for _ in range(3)]
        plan = [(pop, several[k]) for k in data.draw(st.lists(st.integers(0, 2), max_size=6))]
        plan += [(p, several[0]) for p in (pop, other, pop, other)]
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng_a, rng_b = make_rng(seed), make_rng(seed)
        for p, policy in plan:
            times = [-1.0, *every_step(p), 1e3]
            out = run(p, policy, rng_a, times, trace=True)
            assert out == run_steps(p, policy, rng_b, times, trace=True)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_the_cut_table_is_built_once(self, monkeypatch):
        calls = []
        start = InterventionPolicy.start

        def counted(policy, *args):
            calls.append(args)
            return start(policy, *args)

        monkeypatch.setattr(InterventionPolicy, "start", counted)
        pop = pop_of({(2, 2, 0): 2, (2, 2, 1): 3, (3, 1, 2): 3, (1, 3, 1): 3})
        asked = []
        for runs in (1, 5):
            policy = InterventionPolicy.table({(2, 2, 1): 0.1, (3, 1, 3): 0.4})
            for seed in range(runs):
                run(pop, policy, make_rng(seed))
            asked.append(len(calls))
            calls.clear()
        # once per loss r = 1..i of each pair (i, j): 2 + 3 + 1, whatever the runs
        assert asked == [6, 6]

    def test_a_policy_cannot_change_after_its_cut_table_is_kept(self):
        # the runner keeps a policy's cut table from its first run on a
        # population, so the policy's tables are read-only copies
        pop = pop_of({(1, 1, 0): 100, (1, 1, 1): 200})
        built = {}
        policy = InterventionPolicy.table(built)
        first = run(pop, policy, make_rng(1))
        with pytest.raises(TypeError):
            policy.thresholds[(1, 1, 1)] = 0.0
        with pytest.raises(TypeError):
            policy.singular[(1, 1)] = 0.0
        built[(1, 1, 1)] = 0.0
        assert policy.start(1, 1, 1) is None and first.interventions == 0
        again = run(pop, policy, make_rng(1))
        assert (again.defaults, again.interventions) == (first.defaults, 0)
        # another table is another policy, with its own cut table
        fresh = run(pop, InterventionPolicy.table(built), make_rng(1))
        assert fresh.interventions > 0 and fresh.defaults < first.defaults
        assert InterventionPolicy.table(built) == InterventionPolicy.table({(1, 1, 1): 0.0})

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_run_over_several_draw_blocks(self, data):
        # two or three blocks of the draw order, so the run stops at T inside
        # the order and leaves the generator after all of its blocks
        pop = data.draw(populations(stubs=st.integers(4096 + 100, 3 * 4096)))
        assume(4096 < pop.m <= 3 * 4096)
        policy = data.draw(policies(pop))
        seed = data.draw(st.integers(0, 2**32 - 1))
        times = (-1.0, 0.0, 0.5, 1.0, 1.7, 1e3)
        rng = make_rng(seed)
        out = run(pop, policy, rng, times, trace=True)
        assert out == run_steps(pop, policy, make_rng(seed), times, trace=True)
        assert rng.bit_generator.state == full_replay_state(pop, make_rng(seed))

    @pytest.mark.parametrize("policy,seed,T", [
        # a stored table whose runs end near the first block's end
        ("table", 42, 4094), ("table", 214, 4095), ("table", 221, 4096),
        ("table", 103, 4097), ("table", 248, 4098),
        # complete aid: T is the out-degree of the initial defaults
        ("complete", 0, 4095), ("complete", 0, 4096), ("complete", 0, 8192),
    ])
    def test_stop_at_a_block_end(self, policy, seed, T):
        if policy == "table":
            pop = pop_of({(2, 2, 0): 500, (2, 2, 1): 1000, (3, 3, 2): 1000, (2, 2, 2): 1000})
            policy = InterventionPolicy.table({(2, 2, 1): 0.3, (3, 3, 2): 0.5, (3, 3, 3): 0.2})
        else:
            pop = pop_of({(1, 1, 0): T, (1, 1, 1): 3000})
            policy = InterventionPolicy.complete()
        times = (0.0, 1.0, 1e3)
        rng = make_rng(seed)
        out = run(pop, policy, rng, times, trace=True)
        assert out.T == T
        assert out == run_steps(pop, policy, make_rng(seed), times, trace=True)
        assert rng.bit_generator.state == full_replay_state(pop, make_rng(seed))

    @pytest.mark.parametrize("name", ["none", "complete", "alternative", "optimal"])
    def test_across_draw_blocks(self, experiment_dist, name):
        from contagion_control import empirical_counts
        from contagion_control.experiments import normalize_policy_spec, simulation_policy

        counts = empirical_counts(experiment_dist, 10_000)
        pop = instantiate(counts)
        assert pop.m > 4096 * 9
        policy = simulation_policy(counts.to_distribution(), normalize_policy_spec(name), 0.5)
        times = (0.0, 0.3, 1.0, 2.5, 100.0)
        for seed in range(3):
            rng = make_rng(81, seed)
            out = run(pop, policy, rng, times, trace=True)
            assert out == run_steps(pop, policy, make_rng(81, seed), times, trace=True)
            assert rng.bit_generator.state == full_replay_state(pop, make_rng(81, seed))


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
        vals = [run_steps(cycle3, InterventionPolicy.none(), rng).defaults
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

    @pytest.mark.parametrize("lo, hi", [(5, 1), (-3, 2), (-3, -3)])
    def test_bad_degree_band_rejected_by_the_constructor(self, lo, hi):
        # the constructor checks the band, not only the factory: none of these ever aids
        with pytest.raises(ParameterError, match=rf"bad degree range \[{lo}, {hi}\]"):
            InterventionPolicy(kind="degree_range", degree_lo=lo, degree_hi=hi)
        with pytest.raises(ParameterError, match=rf"bad degree range \[{lo}, {hi}\]"):
            InterventionPolicy.degree_range(lo, hi)

    @pytest.mark.parametrize("thresholds, singular", [
        ({(1, 1): 0.5}, {}),              # a pair where a triple belongs: never aids
        ({(1, 1, 1, 1): 0.5}, {}),
        ({}, {(1, 1, 1): 0.2}),           # a triple where a pair belongs: never aids
        ({}, {1: 0.2}),
    ])
    def test_table_keys_must_be_class_tuples(self, thresholds, singular):
        with pytest.raises(ParameterError, match="class key"):
            InterventionPolicy.table(thresholds, singular)
