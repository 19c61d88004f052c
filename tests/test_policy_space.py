"""The paper's policy claims, tested against policy space with no solver.

`forced_policy_limits` scores any monotone start-time table (start times
that do not rise with the cushion) by its own fixed point, so the solver's
objective can be checked against tables it never built.  The draws are
seeded, shaped like `test_class_pack.distributions()`: one to three classes
of in- and out-degree up to 4, each with a mirror of the same mass; the end
draws add a vanishing defaulted or invulnerable share to such a draw.
"""

import math
import warnings

import numpy as np
import pytest

from contagion_control import JointDistribution, extract_policy, solve_op
from contagion_control.asymptotics import forced_policy_limits
from contagion_control.cascade import InterventionPolicy
from contagion_control.errors import ConstructionError, ParameterError

from conftest import make_rng
from test_batched_solver import SINK

DRAWS = 40
TABLES = 20  # per draw: half random monotone tables, half perturbed solver tables
END_DRAWS = 150  # draws with a vanishing defaulted or invulnerable share


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
    """(p, cost, solution) for DRAWS seeded draws whose solution is stable (y = 1
    is by definition), where the limits are the solution's own."""
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
        if sol.stable:
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


def _descend(p, cost, first):
    """Coordinate descent over the start time of every cushion of every
    vulnerable pair, in {never, 0, 0.1, ..., 1}, from all starts at first: at
    most two sweeps, each keeping a coordinate's best value in turn.  Tables
    `forced_policy_limits` refuses (starts rising with the cushion) are
    skipped.  Returns the best objective seen."""
    grid = [math.inf, *np.linspace(0.0, 1.0, 11).tolist()]
    starts = {pair: [first] * pair[0] for pair in p.vulnerable_pairs()}
    best = _forced_objective(p, cost, _table(starts))
    for _sweep in range(2):
        moved = False
        for pair, c in [(pair, c) for pair in starts for c in range(pair[0])]:
            for x in grid:
                trial = {**starts, pair: starts[pair][:c] + [x] + starts[pair][c + 1:]}
                try:
                    score = _forced_objective(p, cost, _table(trial))
                except ParameterError:
                    continue
                if score < best:
                    best, starts, moved = score, trial, True
        if not moved:
            break
    return best


@pytest.mark.parametrize("name, cost", [
    *((name, cost) for name in ("quadratic_dist", "mixed_dist", "sink") for cost in (0.05, 0.5, 1.5)),
    ("experiment_dist", 0.5),
])
def test_coordinate_descent_does_not_beat_the_solver(name, cost, request):
    """Optimality against a search that never sees the program: coordinate
    descent from no aid and from full aid ends no more than 1e-9 below the
    solver's objective."""
    p = JointDistribution(SINK) if name == "sink" else request.getfixturevalue(name)
    sol = solve_op(p, cost)
    for first in (math.inf, 0.0):
        assert _descend(p, cost, first) >= sol.objective - 1e-9, (name, cost, first)


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


def _end_distribution(rng) -> JointDistribution:
    """A balanced all-vulnerable draw (one to three classes with in- and
    out-degree 1..4, each with a vulnerable mirror) plus a defaulted class
    (i, i, 0) and an invulnerable class (i, i, i + 1).  The defaulted share is
    log-uniform in [1e-15, 1e-6] in 70% of draws, else uniform in [0.05, 0.4];
    the invulnerable share is log-uniform in [1e-15, 1e-6] in half of the
    draws and wherever the defaulted share is not, else absent."""
    entries = {}
    for _ in range(int(rng.integers(1, 4))):
        i, j = (int(d) for d in rng.integers(1, 5, size=2))
        c, c_mirror = int(rng.integers(1, i + 1)), int(rng.integers(1, j + 1))
        mass = rng.uniform(0.05, 1.0)
        for key in ((i, j, c), (j, i, c_mirror)):
            entries[key] = entries.get(key, 0.0) + mass
    total = sum(entries.values())
    entries = {key: m / total for key, m in entries.items()}
    tiny_default = rng.uniform() < 0.7
    shares = {False: 10.0 ** rng.uniform(-15, -6) if tiny_default else rng.uniform(0.05, 0.4)}
    if rng.uniform() < 0.5 or not tiny_default:
        shares[True] = 10.0 ** rng.uniform(-15, -6)
    for invulnerable, share in shares.items():
        i = int(rng.integers(1, 5))
        key = (i, i, i + 1 if invulnerable else 0)
        entries = {k: m * (1.0 - share) for k, m in entries.items()}
        entries[key] = entries.get(key, 0.0) + share
    return JointDistribution(entries)


def test_tiny_defaulted_and_invulnerable_shares_do_not_beat_the_solver():
    """The ends of [0, 1]: a vanishing initial default share (y near 0) and an
    out-degree share that is invulnerable by a hair (y near 1).  solve_op
    never raises there, and neither no aid, full aid nor the extracted table
    scores more than 1e-9 below its objective."""
    rng = make_rng(104)
    for _ in range(END_DRAWS):
        p, cost = _end_distribution(rng), 10.0 ** rng.uniform(-1.5, 1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sol = solve_op(p, cost)
        for policy in (InterventionPolicy.none(), InterventionPolicy.complete(),
                       extract_policy(sol, p, cost)):
            assert _forced_objective(p, cost, policy) >= sol.objective - 1e-9, (p.entries, cost)
