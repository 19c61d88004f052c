"""Every terminal limit of the class pack against the class-by-class oracles.

The package evaluates the outflow, the defaulted share, the aid volume and
the Hamiltonian as batched class sums at a start vector x.  On random small
distributions (in-degree at most 4, with defaulted, vulnerable and
invulnerable classes, and in- and out-degrees that differ) each limit must
equal the scalar forms of `scalar_limits` to 1e-12 under the three kinds of
start vector: the optimal policy's at random (cost, y, v, z), with and without
a singular out-degree; a degree band; and a solved `extract_policy` table.
The table extracted from a solution must also reproduce the solution's own
prediction.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contagion_control import (
    InterventionPolicy,
    JointDistribution,
    ParameterError,
    asymptotic_prediction,
    controlled_limits,
    extract_policy,
    forced_policy_limits,
    solve_op,
    terminal_hamiltonian,
)
from contagion_control.asymptotics import _pack

import scalar_limits as scalar

TOL = 1e-12


@st.composite
def distributions(draw):
    """Balanced distributions: each drawn class (i, j, c) comes with a mirror
    (j, i, c') of the same mass; c runs over 0 (defaulted) to i + 1
    (invulnerable).  The first class is vulnerable."""
    entries = {}
    for k in range(draw(st.integers(1, 3))):
        i, j = draw(st.integers(1, 4)), draw(st.integers(0, 4))
        c = draw(st.integers(1, i)) if k == 0 else draw(st.integers(0, i + 1))
        c_mirror = draw(st.integers(0, j + 1))
        mass = draw(st.floats(0.05, 1.0))
        for key in ((i, j, c), (j, i, c_mirror)):
            entries[key] = entries.get(key, 0.0) + mass
    total = sum(entries.values())
    return JointDistribution({key: m / total for key, m in entries.items()})


def _out_degrees(p):
    return sorted({j for (_i, j, _c) in p.entries if j > 0})


@settings(max_examples=40, deadline=None)
@given(p=distributions(), cost=st.floats(0.05, 3.0), y=st.floats(0.0, 1.0),
       v=st.floats(-3.0, 3.0), share=st.floats(0.0, 1.0), data=st.data())
def test_optimal_starts_match_the_oracle(p, cost, y, v, share, data):
    z = share * y
    # and on the singular plane of a drawn out-degree, where the solver's stage B evaluates
    j = data.draw(st.sampled_from(_out_degrees(p)))
    for v in (v, (1.0 - cost) / j):
        flow, dflt, aid = controlled_limits(p, cost, y, v, z)
        assert flow == pytest.approx(
            scalar.default_outflow_controlled(p, cost, y, v, z), abs=TOL)
        assert dflt == pytest.approx(
            scalar.default_fraction_controlled(p, cost, y, v, z), abs=TOL)
        assert aid == pytest.approx(scalar.intervention_volume(p, cost, y, v, z), abs=TOL)
        assert terminal_hamiltonian(p, cost, y, v) == pytest.approx(
            scalar.terminal_hamiltonian(p, cost, y, v), abs=TOL)


@settings(max_examples=40, deadline=None)
@given(p=distributions(), cost=st.floats(0.05, 3.0), y=st.floats(0.0, 1.0),
       v=st.floats(-10.0, 10.0))
def test_hamiltonian_stays_in_its_range(p, cost, y, v):
    # stage B skips an out-degree j whose lam v_j lies outside H(., v_j)'s range
    vs = np.array([v] + [(1.0 - cost) / j for j in _out_degrees(p)])
    lo, hi = _pack(p).hamiltonian_range(cost, vs)
    ham = terminal_hamiltonian(p, cost, np.full(len(vs), y), vs)
    assert np.all(lo - TOL <= ham) and np.all(ham <= hi + TOL)


def _tangent(p, policy, y):
    """Whether the forced outflow is tangent to the diagonal at y, where
    rounding of 1e-16 moves the crossing by 1e-8."""
    lo, hi = max(0.0, y - 1e-6), min(1.0, y + 1e-6)
    flow = scalar.forced_outflow(p, policy, np.array([lo, hi]))
    return (flow[1] - flow[0]) / (hi - lo) >= 1.0 - 1e-3


def _assert_same_forced_limits(p, policy):
    y, stable, defaults, aid = forced_policy_limits(p, policy)
    y_ref, stable_ref, _defaults, _aid = scalar.forced_policy_limits(p, policy)
    assert stable == stable_ref
    # both take the first crossing of outflow and diagonal on one grid
    assert y == pytest.approx(y_ref, abs=1e-7 if _tangent(p, policy, y) else TOL)
    assert (defaults, aid) == pytest.approx(scalar.forced_limits_at(p, policy, y), abs=TOL)


@settings(max_examples=25, deadline=None)
@given(p=distributions(), lo=st.integers(0, 4), width=st.integers(0, 4))
def test_degree_band_matches_the_oracle(p, lo, width):
    _assert_same_forced_limits(p, InterventionPolicy.degree_range(lo, lo + width))


@settings(max_examples=10, deadline=None)
@given(p=distributions(), cost=st.floats(0.05, 3.0))
def test_solved_table_matches_the_oracle(p, cost):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # unstable minimizers are fine here
        sol = solve_op(p, cost)
    _assert_same_forced_limits(p, extract_policy(sol, p, cost))


@settings(max_examples=40, deadline=None)
@given(p=distributions(), cost=st.floats(0.05, 3.0))
# every link revealed (y = 1), yet the aided sink class survives
@example(p=JointDistribution({(0, 1, 0): 0.5, (1, 0, 1): 0.5}), cost=0.5)
def test_solved_table_reproduces_the_prediction(p, cost):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        sol = solve_op(p, cost)
    try:
        prediction = asymptotic_prediction(sol, p, cost)
    except ParameterError:
        return  # an unstable minimizer makes no prediction
    policy = extract_policy(sol, p, cost)
    y, _stable, defaults, aid = forced_policy_limits(p, policy)
    tol = 1e-7 if _tangent(p, policy, y) else 1e-9
    assert (defaults, aid, y) == pytest.approx(prediction, abs=tol)


def _blockwise_y_sums(pk, y):
    """`_ClassPack.y_sums` with its Bernstein table summed the long way: one
    block of in-degree groups added to the next, from q = 0 up."""
    width, groups = pk.y_shape
    ypow = np.cumprod(np.vstack([np.ones_like(y)] + [y] * (width - 1)), axis=0)
    opow = np.cumprod(np.vstack([np.ones_like(y)] + [1.0 - y] * (width - 1)), axis=0)
    tails = ypow[pk.y_m] * opow[pk.y_e] * pk.y_binom
    for q in range(1, width):
        tails[q * groups:(q + 1) * groups] += tails[(q - 1) * groups:q * groups]
    return tails[pk.y_index]


@settings(max_examples=25, deadline=None)
@given(p=distributions(), y=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=7))
def test_y_sums_equal_the_blockwise_sum(p, y):
    y = np.array(y)
    assert _pack(p).y_sums(y).tobytes() == _blockwise_y_sums(_pack(p), y).tobytes()


@pytest.mark.parametrize("points", [1, 7, 512])
def test_y_sums_equal_the_blockwise_sum_on_the_experiment(experiment_dist, points):
    y = np.linspace(0.0, 1.0, points)
    pk = _pack(experiment_dist)
    assert pk.y_sums(y).tobytes() == _blockwise_y_sums(pk, y).tobytes()
