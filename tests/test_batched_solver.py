"""The batched solver against scalar references.

Stage A's sign-change subdivision, the array residuals, the candidate
builder and the blocked fixed-point scan must reproduce what
one-point-at-a-time code finds.  The references below are the scalar forms:
a damped Newton run per start (stage A's former method), scalar residual
calls, candidates built from one kernel call per value, the class-by-class
limits of `scalar_limits`, and a point-by-point grid scan
(`bisection_reference`).  Stage B's scan for y and solve for z must find the
candidates of the former method, a scalar Newton in (y, z) from a grid of
starts per out-degree; it rests on the first residual not involving z.  What
the solver skips by a bound (stage A's root-free multiplier columns, the
fixed-point scan's cleared blocks) must change nothing, bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contagion_control import (
    InterventionPolicy,
    JointDistribution,
    controlled_limits,
    default_outflow,
    default_outflow_controlled,
    smallest_fixed_point,
)
from contagion_control.asymptotics import _ClassPack, _fixed_outflow, _pack, program_residuals
from contagion_control import optimizer as opt

import scalar_limits as scalar
from bisection_reference import scalar_fixed_point
from conftest import make_rng
from test_class_pack import _out_degrees, distributions

SINK = {(2, 0, 1): 0.3, (0, 2, 0): 0.3, (1, 1, 1): 0.4}
NO_INITIAL_DEFAULTS = {(2, 2, 2): 0.7, (1, 1, 1): 0.3}

# every (fixture, cost) pair that tests/test_optimizer.py solves
OPTIMIZER_CASES = (
    [("quadratic_dist", k) for k in (0.001, 0.05, 0.5, 1.5, 5 / 3, 5.0, 10.0)]
    + [("mixed_dist", k) for k in (0.05, 0.5, 1.5, 5.0)]
    + [("experiment_dist", k) for k in (0.05, 0.5, 1.5, 5.0)]
    + [("one_regular_dist", 50.0)]
    + [("sink", k) for k in (0.3, 0.8, 2.0)]
    + [("no_initial_defaults", 0.5)]
)


def _newton(fun, x0, max_iter=80, tol=1e-12):
    """Scalar damped Newton with central-difference Jacobians; None when it stalls."""
    x = np.asarray(x0, dtype=float)
    f = np.asarray(fun(x), dtype=float)
    if not np.all(np.isfinite(f)):
        return None
    for _ in range(max_iter):
        norm = np.max(np.abs(f))
        if norm < tol:
            return x
        jac = np.empty((len(x), len(x)))
        for k in range(len(x)):
            hk = 1e-6 * max(1.0, abs(x[k]))
            e = np.zeros(len(x))
            e[k] = hk
            f_hi = np.asarray(fun(x + e), dtype=float)
            f_lo = np.asarray(fun(x - e), dtype=float)
            jac[:, k] = (f_hi - f_lo) / (2.0 * hk)
        try:
            dx = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(dx)):
            return None
        step = 1.0
        improved = False
        for _ in range(45):
            xn = x + step * dx
            fn = np.asarray(fun(xn), dtype=float)
            if np.all(np.isfinite(fn)) and np.max(np.abs(fn)) < norm:
                x, f = xn, fn
                improved = True
                break
            step *= 0.5
        if not improved:
            return x if np.max(np.abs(f)) < 1e-9 else None
    return x if np.max(np.abs(f)) < 1e-9 else None


def _scalar_roots(fun, starts):
    """Newton from each start in turn, as an (S, 2) array, NaN where a start fails."""
    out = np.full((len(starts), 2), np.nan)
    for k, x0 in enumerate(starts):
        sol = _newton(fun, x0)
        if sol is not None:
            out[k] = sol
    return out


def _dist(name, request):
    if name == "sink":
        return JointDistribution(SINK)
    if name == "no_initial_defaults":
        return JointDistribution(NO_INITIAL_DEFAULTS)
    return request.getfixturevalue(name)


def _assert_same_candidates(got, want, fields):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.branch == b.branch
        for name in fields:
            assert getattr(a, name) == pytest.approx(getattr(b, name), abs=1e-10), name


def _newton_stage_b(p, cost):
    """Stage B by scalar Newton in (y, z), with v = (1 - cost) / j pinned,
    from 5 end fractions x 3 shares of y for z per out-degree j; the
    candidates of each j in turn, in ascending j."""
    starts = [(y0, share * y0) for y0 in opt._STAGE_B_Y_STARTS for share in opt._STAGE_B_Z_SHARES]
    out = []
    for j in _out_degrees(p):
        v = (1.0 - cost) / j
        roots = _scalar_roots(lambda x: program_residuals(p, cost, x[0], v, x[1], j), starts)
        out += opt._root_candidates(p, cost, np.insert(roots, 1, v, axis=1), f"stage_b:j={j}", j)
    return out


_FIELDS = ("end_fraction", "multiplier", "singular_start", "objective")


# where the outflow jumps at a root (quadratic at 5/3: v = -1/3, where
# cost + 2 v - 1 = 0), the Newton stops short of it; the exact root instead
_EXACT_STAGE_A = {("quadratic_dist", 5 / 3): (0.25, -1 / 3, 0.25)}


# stage A's candidates against the Newton it replaced, a scalar Newton from
# 10 end fractions x 13 multipliers (the test keeps its former name)
@pytest.mark.parametrize("name,cost", OPTIMIZER_CASES)
def test_lockstep_candidates_match_scalar_newton(name, cost, request):
    p = _dist(name, request)
    starts = [(y0, v0) for y0 in opt._STAGE_A_Y_STARTS for v0 in opt._STAGE_A_V_STARTS]
    ref_a = _scalar_roots(lambda x: program_residuals(p, cost, x[0], x[1], x[0]), starts)
    want = [sol if max(map(abs, sol.residuals)) <= 1e-12
            else opt._candidates(p, cost, [_EXACT_STAGE_A[name, cost]], "stage_a")[0]
            for sol in opt._root_candidates(p, cost, ref_a[:, [0, 1, 0]], "stage_a")]
    _assert_same_candidates(opt.solve_stage_a(p, cost), want, _FIELDS)


# stage B solves every out-degree at once; the reference solves them one by one
@pytest.mark.parametrize("name,cost", OPTIMIZER_CASES)
def test_stage_b_batch_equals_per_out_degree_calls(name, cost, request):
    p = _dist(name, request)
    _assert_same_candidates(opt.solve_stage_b(p, cost), _newton_stage_b(p, cost), _FIELDS)


@settings(max_examples=15, deadline=None)
@given(p=distributions(), cost=st.floats(0.05, 3.0))
def test_stage_b_batch_equals_per_out_degree_calls_on_drawn_distributions(p, cost):
    _assert_same_candidates(opt.solve_stage_b(p, cost), _newton_stage_b(p, cost), _FIELDS)


def _assert_first_residual_ignores_z(p, cost, rng, count=64):
    y = rng.uniform(0.0, 1.0, count)
    v = rng.uniform(-3.0, 3.0, count)
    degrees = _out_degrees(p)
    # half the points on the singular plane of an out-degree of p
    v[count // 2:] = (1.0 - cost) / rng.choice(degrees, count - count // 2)
    want = program_residuals(p, cost, y, v, y)[0].tobytes()
    for sj in [None, *degrees, rng.choice(degrees, count)]:
        for z in (np.zeros(count), y * rng.uniform(0.0, 1.0, count), y):
            assert program_residuals(p, cost, y, v, z, sj)[0].tobytes() == want, sj


def test_first_residual_ignores_z_and_singular_out_degree(experiment_dist):
    # stage B scans y alone: the singular rows have c = i, where tail(i-1, x, c) = 0
    for cost in (0.05, 0.5, 1.5):
        _assert_first_residual_ignores_z(experiment_dist, cost, make_rng(80, int(100 * cost)))


@settings(max_examples=25, deadline=None)
@given(p=distributions(), cost=st.floats(0.05, 3.0), seed=st.integers(0, 2**32 - 1))
def test_first_residual_ignores_z_on_drawn_distributions(p, cost, seed):
    if _out_degrees(p):
        _assert_first_residual_ignores_z(p, cost, make_rng(81, seed))


def test_per_point_singular_out_degrees_equal_scalar_calls(experiment_dist):
    rng = make_rng(79)
    count, cost = 700, 0.5  # more than one evaluation batch
    y = rng.uniform(0.0, 1.0, count)
    z = y * rng.uniform(0.0, 1.0, count)
    sj = rng.integers(1, 11, count)
    # stage B's points: v on the singular plane of the point's own out-degree,
    # and a few off every plane
    v = (1.0 - cost) / sj
    v[:50] = rng.uniform(-3.0, 3.0, 50)
    r1, r2 = program_residuals(experiment_dist, cost, y, v, z, sj)
    assert r1.shape == r2.shape == (count,)
    for k in range(count):
        s1, s2 = program_residuals(experiment_dist, cost, y[k], v[k], z[k], int(sj[k]))
        assert abs(r1[k] - s1) <= 1e-13 and abs(r2[k] - s2) <= 1e-13
    f1, f2 = program_residuals(experiment_dist, cost, y, v, z, sj.astype(float))
    assert r1.tobytes() == f1.tobytes() and r2.tobytes() == f2.tobytes()


@pytest.mark.parametrize("singular_j", [None, 1, 4, 10])
def test_array_residuals_equal_scalar_calls(experiment_dist, singular_j):
    rng = make_rng(77, 0 if singular_j is None else singular_j)
    count = 700  # more than one evaluation batch
    y = rng.uniform(-0.1, 1.1, count)
    v = rng.uniform(-3.0, 3.0, count)
    z = rng.uniform(-0.1, 1.0, count)
    # a few points on the singular plane of out-degree 3, found by tolerance
    v[:5] = (1.0 - 0.5) / 3
    r1, r2 = program_residuals(experiment_dist, 0.5, y, v, z, singular_j)
    assert r1.shape == r2.shape == (count,)
    for k in range(count):
        s1, s2 = program_residuals(experiment_dist, 0.5, y[k], v[k], z[k], singular_j)
        assert isinstance(s1, float) and isinstance(s2, float)
        assert abs(r1[k] - s1) <= 1e-13 and abs(r2[k] - s2) <= 1e-13


@pytest.mark.parametrize("singular_j", [None, 2, 7])
def test_array_residuals_match_per_class_forms(experiment_dist, singular_j):
    rng = make_rng(78, 0 if singular_j is None else singular_j)
    y = rng.uniform(0.01, 0.99, 60)
    v = rng.uniform(-2.0, 2.0, 60)
    z = y * rng.uniform(0.0, 1.0, 60)
    cost, lam = 0.7, experiment_dist.lam
    r1, r2 = program_residuals(experiment_dist, cost, y, v, z, singular_j)
    for k in range(len(y)):
        h = scalar.terminal_hamiltonian(experiment_dist, cost, y[k], v[k])
        flow = scalar.default_outflow_controlled(experiment_dist, cost, y[k], v[k], z[k],
                                                 singular_j)
        assert r1[k] == pytest.approx((1 - y[k]) * (h - lam * v[k]), abs=1e-12)
        assert r2[k] == pytest.approx(flow - y[k], abs=1e-12)


def test_scalar_inputs_broadcast_against_arrays(quadratic_dist):
    ys = np.array([0.1, 0.2, 0.3])
    r1, r2 = program_residuals(quadratic_dist, 1.5, ys, -0.25, 0.05, 2)
    for k, y in enumerate(ys):
        assert (r1[k], r2[k]) == pytest.approx(
            program_residuals(quadratic_dist, 1.5, float(y), -0.25, 0.05, 2), abs=1e-15)


@pytest.mark.parametrize("case", ["zero", "interior", "interior_late", "none"])
def test_blocked_scan_equals_scalar_scan(case, quadratic_dist, experiment_dist):
    f = {
        # g(0) <= 0: nothing defaulted at the start
        "zero": lambda y: default_outflow(JointDistribution({(2, 2, 2): 1.0}), y),
        "interior": lambda y: default_outflow(quadratic_dist, y),
        # the crossing lies several blocks into the grid
        "interior_late": lambda y: default_outflow(experiment_dist, y),
        # f stays above the diagonal: no crossing, y* = 1
        "none": lambda y: 0.5 + 0.5 * y * y + 1e-3,
    }[case]
    got = smallest_fixed_point(f)
    want = scalar_fixed_point(f)
    assert got == want
    if case == "none":
        assert got[0] == 1.0
    if case == "zero":
        assert got[0] == 0.0


def test_multiplier_scan_finds_the_quadratic_root(quadratic_dist):
    # at the uncontrolled fixed point y = 1/4 with cost 10 the multiplier is -1/3
    roots = opt._solve_multiplier_at(quadratic_dist, 10.0, 0.25)
    assert any(math.isclose(v, -1 / 3, abs_tol=1e-9) for v in roots)
    lam = quadratic_dist.lam
    for v in roots:
        assert abs(scalar.terminal_hamiltonian(quadratic_dist, 10.0, 0.25, v) - lam * v) < 1e-9


@settings(max_examples=30, deadline=None)
@given(p=distributions(), cost=st.floats(0.05, 3.0))
def test_stage_a_skips_only_columns_without_a_root(p, cost):
    # with the range of H unbounded, the first grid evaluates every column
    got = opt.solve_stage_a(p, cost)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_ClassPack, "hamiltonian_range",
                   lambda self, cost, v: (np.full(len(v), -np.inf), np.full(len(v), np.inf)))
        want = opt.solve_stage_a(p, cost)
    assert repr(got) == repr(want)


@settings(max_examples=10, deadline=None)
@given(p=distributions(), band_lo=st.integers(0, 4), band_width=st.integers(0, 4))
def test_fixed_point_with_cleared_blocks_equals_the_scalar_scan(p, band_lo, band_width):
    pk = _pack(p)
    for policy in (InterventionPolicy.none(), InterventionPolicy.complete(),
                   InterventionPolicy.degree_range(band_lo, band_lo + band_width)):
        first = pk.start_column(policy)
        f = lambda y: _fixed_outflow(pk, first, y)  # noqa: E731
        assert smallest_fixed_point(f) == scalar_fixed_point(f)


def test_fixed_point_scan_skips_cleared_blocks(quadratic_dist):
    # the 64 block ends, the one block (0.234375, 0.25] that can cross, where
    # f(1/4) = 1/4 exactly, and the two slope probes
    sizes = []

    def f(y):
        sizes.append(np.size(y))
        return default_outflow(quadratic_dist, y)

    assert smallest_fixed_point(f) == (0.25, True)
    assert sizes == [64, 64, 2]


@pytest.mark.parametrize("entries", [{(3, 3, 2): 1.0}, {(2, 2, 2): 0.5, (2, 2, 1): 0.5}])
def test_few_class_values_do_not_depend_on_the_batch(entries):
    # with one or two vulnerable classes, numpy rounded x ** c by one routine
    # for a point alone and by another for several; both residuals and the
    # limits differed in the last place
    p = JointDistribution(entries)
    y = np.array([0.6465164817403619, 0.6843481270337324, 0.3])
    v = np.array([1.4747417730027044, -0.896327256974051, -0.2])
    z = 0.5 * y
    batch = controlled_limits(p, 0.7, y, v, z) + program_residuals(p, 0.7, y, v, z)
    for k in range(len(y)):
        at = (0.7, y[k], v[k], z[k])
        assert [float(b[k]) for b in batch] == list(controlled_limits(p, *at)
                                                    + program_residuals(p, *at))


def _per_point_candidate(p, cost, y, v, z, branch, singular_j):
    """The candidate at one point, one kernel call per value and per slope
    probe, unfiltered."""
    res = program_residuals(p, cost, y, v, z, singular_j)
    _flow, dflt, aid = controlled_limits(p, cost, y, v, z, singular_j)
    lo, hi = max(0.0, y - 1e-6), min(1.0, y + 1e-6)
    slope = (default_outflow_controlled(p, cost, hi, v, z, singular_j)
             - default_outflow_controlled(p, cost, lo, v, z, singular_j)) / (hi - lo)
    return opt.OPSolution(
        end_fraction=y, multiplier=v, singular_start=z, objective=cost * aid + dflt,
        interventions=aid, defaults=dflt, stable=bool(slope < 1.0 - 1e-9) or y >= 1.0 - 1e-12,
        branch=branch, residuals=res, singular_j=singular_j)


@settings(max_examples=25, deadline=None)
@given(p=distributions(), cost=st.floats(0.05, 3.0), seed=st.integers(0, 2**32 - 1))
def test_candidate_builder_equals_per_point_candidates(p, cost, seed):
    rng = make_rng(82, seed)
    count = 12
    y = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, count - 2)])
    v = rng.uniform(-3.0, 3.0, count)
    z = y * rng.uniform(0.0, 1.0, count)
    degrees = _out_degrees(p)
    cases = [(None, v, "stage_a")]
    if degrees:  # stage B's points: v on the singular plane of one out-degree
        j = int(rng.choice(degrees))
        cases.append((j, np.full(count, (1.0 - cost) / j), f"stage_b:j={j}"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(opt, "_RESIDUAL_TOL", np.inf)  # every point with finite residuals counts
        for sj, vs, branch in cases:
            points = list(zip(y.tolist(), vs.tolist(), z.tolist()))
            want = [sol for sol in (_per_point_candidate(p, cost, *point, branch, sj)
                                    for point in points)
                    if sol.feasible and math.isfinite(sol.objective)]
            assert repr(opt._candidates(p, cost, points, branch, sj)) == repr(want)
