"""The paper's policy claims, tested against policy space with no solver.

`forced_policy_limits` scores any monotone start-time table (start times
that do not rise with the cushion) by its own fixed point, so the solver's
objective can be checked against tables it never built.  The draws are
seeded, shaped like `test_class_pack.distributions()`: one to three classes
of in- and out-degree up to 4, each with a mirror of the same mass.
"""

import math
import warnings

import numpy as np
import pytest

from contagion_control import JointDistribution, extract_policy, solve_op
from contagion_control.asymptotics import forced_policy_limits
from contagion_control.cascade import InterventionPolicy
from contagion_control.errors import ConstructionError

from conftest import make_rng

DRAWS = 40
TABLES = 20  # per draw: half random monotone tables, half perturbed solver tables


def _draw_distribution(rng) -> JointDistribution:
    entries = {}
    for k in range(int(rng.integers(1, 4))):
        i, j = int(rng.integers(1, 5)), int(rng.integers(0, 5))
        c = int(rng.integers(1, i + 1)) if k == 0 else int(rng.integers(0, i + 2))
        c_mirror = int(rng.integers(0, j + 2))
        mass = rng.uniform(0.05, 1.0)
        for key in ((i, j, c), (j, i, c_mirror)):
            entries[key] = entries.get(key, 0.0) + mass
    total = sum(entries.values())
    return JointDistribution({key: m / total for key, m in entries.items()})


@pytest.fixture(scope="module")
def solved_draws():
    """(p, cost, solution) for DRAWS seeded draws whose solution is stable or
    at y = 1, where the limits are the solution's own."""
    rng = make_rng(101)
    out = []
    while len(out) < DRAWS:
        p, cost = _draw_distribution(rng), float(rng.uniform(0.05, 3.0))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                sol = solve_op(p, cost)
        except ConstructionError:
            continue
        if sol.stable or sol.end_fraction >= 1.0 - 1e-12:
            out.append((p, cost, sol))
    return out


def _table(starts) -> InterventionPolicy:
    """The table of per-pair start lists (cushions 1..i, inf for never)."""
    return InterventionPolicy.table({(i, j, c): x for (i, j), xs in starts.items()
                                     for c, x in enumerate(xs, 1) if x < math.inf})


def _random_starts(p, rng):
    """Per vulnerable pair: a first aided cushion, then non-increasing uniform
    starts from it up (the cushions below it are never aided)."""
    starts = {}
    for i, j in p.vulnerable_pairs():
        first = int(rng.integers(1, i + 2))  # i + 1: never aided
        aided = np.sort(rng.uniform(0.0, 1.0, i + 1 - first))[::-1]
        starts[i, j] = [math.inf] * (first - 1) + aided.tolist()
    return starts


def _perturbed_starts(p, policy, rng):
    """The policy's starts jittered by up to 0.05, one cushion of a pair
    toggled between never and aided now and then, and made monotone again:
    a start may not exceed the one below it."""
    starts = {}
    for i, j in p.vulnerable_pairs():
        xs = [math.inf if (x := policy.start(i, j, c)) is None else x for c in range(1, i + 1)]
        xs = [x if x == math.inf else min(max(x + rng.uniform(-0.05, 0.05), 0.0), 1.0)
              for x in xs]
        if rng.uniform() < 0.3:
            c = int(rng.integers(0, i))
            xs[c] = float(rng.uniform()) if xs[c] == math.inf else math.inf
        starts[i, j] = np.minimum.accumulate(xs).tolist()
    return starts


def _forced_objective(p, cost, policy):
    _y, _stable, defaults, aid = forced_policy_limits(p, policy)
    return cost * aid + defaults


def test_no_monotone_table_beats_the_solver(solved_draws):
    """Optimality among policies: no table of either family scores more than
    1e-9 below the solver's objective."""
    rng = make_rng(102)
    for p, cost, sol in solved_draws:
        policy = extract_policy(sol, p, cost)
        for k in range(TABLES):
            starts = _random_starts(p, rng) if k % 2 else _perturbed_starts(p, policy, rng)
            score = _forced_objective(p, cost, _table(starts))
            assert score >= sol.objective - 1e-9, (p.entries, cost, starts)


@pytest.mark.parametrize("cost", [0.05, 0.5, 1.5])
def test_no_perturbed_table_beats_the_solver_on_the_experiment(experiment_dist, cost):
    sol = solve_op(experiment_dist, cost)
    policy = extract_policy(sol, experiment_dist, cost)
    rng = make_rng(103, int(100 * cost))
    for _ in range(TABLES):
        starts = _perturbed_starts(experiment_dist, policy, rng)
        score = _forced_objective(experiment_dist, cost, _table(starts))
        assert score >= sol.objective - 1e-9, (cost, starts)


def test_more_connected_classes_are_aided_no_later(solved_draws):
    """Connectivity: at a fixed distance from default i - c, no start time of
    the extracted table rises with the out-degree j ("never" read as +inf).

    The claim is tested in the form that holds: through `extract_policy`, on
    the support (the vulnerable pairs of p, cushions 1..i).  The raw start
    formula, `_optimal_starts`, can rise with j where the multiplier v is
    positive, so it is not the object of the claim.
    """
    for p, cost, sol in solved_draws:
        policy = extract_policy(sol, p, cost)
        by_distance = {}
        for i, j in p.vulnerable_pairs():
            for c in range(1, i + 1):
                x = policy.start(i, j, c)
                by_distance.setdefault(i - c, []).append((j, math.inf if x is None else x))
        for n, starts in by_distance.items():
            for j, x in starts:
                for j2, x2 in starts:
                    assert j2 <= j or x2 <= x, (p.entries, cost, n, starts)
