"""The shared root scan against the one-midpoint loop of `bisection_reference`.

`asymptotics.bisect` evaluates per call the midpoints along each bracket's
secant-predicted path and keeps the levels up to the first the real values
send the other way, so `bisect`, `_scan_roots` and the fixed-point search
that scans through it must return bitwise what the loop that evaluates one
midpoint per call returns, and every call must advance every live bracket by
at least one of the loop's levels: on random monotone and non-monotone
functions, on brackets that reach adjacent floats long before 80 halvings or
that reach the 80-halving cap, with exact zeros at midpoints, NaN values,
ulp-level noise near the root and steps that the secant mispredicts.  A fixed point
found so is the smallest float of its crossing with outflow <= y: the
outflow minus y is <= 0 there and > 0 at the float below, unless it is 0.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contagion_control import (
    InterventionPolicy, JointDistribution, default_outflow, forced_policy_limits,
    smallest_fixed_point,
)
from contagion_control.asymptotics import (
    _BISECT_POINTS, _fixed_outflow, _pack, _scan_roots, bisect,
)

from bisection_reference import bisect_loop, scalar_fixed_point, scan_roots
from test_class_pack import distributions

unit = st.floats(0.0, 1.0)


@st.composite
def scan_problems(draw):
    """(g, lo, hi, grid): per row, a product of one (monotone) or three (not
    monotone) linear factors on [lo, hi], some of them a few hundred floats
    wide; a root may sit exactly on a midpoint of the bisection tree, and g
    may be NaN above a cut."""
    grid = draw(st.integers(1, 30))
    rows = draw(st.integers(1, 4))
    lo, hi, roots, sign, nan_above = [], [], [], [], []
    for _ in range(rows):
        a = draw(st.floats(-4.0, 4.0))
        if draw(st.booleans()):
            b = a + draw(st.floats(1e-3, 8.0))
        else:  # a few hundred floats wide: adjacent after about ten halvings
            b = a + draw(st.integers(1, 600)) * np.spacing(a)
        if b <= a:
            b = np.nextafter(a, np.inf)
        rs = [a + draw(unit) * (b - a) for _ in range(draw(st.sampled_from([1, 3])))]
        if draw(st.booleans()):  # a root on a midpoint, a few levels into a cell
            cell = np.linspace(a, b, grid + 1)
            k = draw(st.integers(0, grid - 1))
            left, right = cell[k], cell[k + 1]
            for go_left in draw(st.lists(st.booleans(), min_size=1, max_size=8)):
                mid = 0.5 * (left + right)
                left, right = (left, mid) if go_left else (mid, right)
            rs[0] = 0.5 * (left + right)
        lo.append(a)
        hi.append(b)
        roots.append(rs + [a - 1.0] * (3 - len(rs)))  # padding factors stay positive
        sign.append(draw(st.sampled_from([-1.0, 1.0])))
        nan_above.append(a + draw(unit) * (b - a) if draw(st.booleans()) else np.inf)
    roots, sign, nan_above = np.array(roots), np.array(sign), np.array(nan_above)

    def g(r, x):
        val = sign[r] * (x - roots[r, 0]) * (x - roots[r, 1]) * (x - roots[r, 2])
        return np.where(x > nan_above[r], np.nan, val)

    return g, np.array(lo), np.array(hi), grid


@settings(max_examples=150, deadline=None)
@given(problem=scan_problems())
def test_scan_roots_equal_the_one_midpoint_loop(problem):
    g, lo, hi, grid = problem
    rows, roots = _scan_roots(g, lo, hi, grid)
    want_rows, want_roots = scan_roots(g, lo, hi, grid)
    assert rows.tolist() == want_rows.tolist()
    assert roots.tobytes() == want_roots.tobytes()


@settings(max_examples=60, deadline=None)
@given(problem=scan_problems())
def test_a_bound_that_keeps_every_span_changes_nothing(problem):
    # the coarse points come from the bound, the rest from g: the same
    # lattice, the same brackets, bitwise the same roots
    g, lo, hi, grid = problem

    def keep_all(rows, xs):
        vals = g(np.repeat(rows, xs.shape[1]), xs.ravel()).reshape(xs.shape)
        return vals, np.zeros(xs.shape), np.zeros(xs.shape), np.inf

    rows, roots = _scan_roots(g, lo, hi, grid, bound=keep_all)
    want_rows, want_roots = scan_roots(g, lo, hi, grid)
    assert rows.tolist() == want_rows.tolist()
    assert roots.tobytes() == want_roots.tobytes()


def _clear_all(seen):
    def bound(rows, xs):
        # g = u - w with u = 2x + 1 and w = x: each span's lower bound is above 0
        seen.append(xs.shape)
        return xs + 1.0, 2.0 * xs + 1.0, xs, 0.0

    return bound


def test_a_bound_that_clears_every_span_evaluates_only_its_points():
    g, calls = _counting(lambda _r, x: x + 1.0)
    seen = []
    assert _scan_roots(g, 0.0, 1.0, bound=_clear_all(seen))[1].size == 0
    assert seen == [(1, 26)] and calls == []


@pytest.mark.parametrize("grid,coarse", [
    # every s-th point and the last, s the largest power of two with s^2 <= grid
    (4096, 65), (1, 2), (3, 4), (4, 3), (63, 17), (64, 9),
])
def test_the_coarse_points_are_every_stride_th_and_the_last(grid, coarse):
    seen = []
    _scan_roots(lambda _r, x: x + 1.0, 0.0, 1.0, grid, bound=_clear_all(seen))
    assert seen == [(1, coarse)]


@st.composite
def bound_problems(draw):
    """(g, u, w, lo, hi, grid, margin): per row, u and w rise along the
    lattice by integer steps, with ties, flat stretches and exact zeros of
    g = u - w, and between lattice points run on the line of their cell,
    clamped to its end values, so both rise over every span and each bound
    holds in floating point at any margin >= 0."""
    grid = draw(st.integers(1, 80))
    rows = draw(st.integers(1, 3))
    lo = np.array([draw(st.floats(-2.0, 2.0)) for _ in range(rows)])
    hi = lo + np.array([draw(st.floats(1e-3, 4.0)) for _ in range(rows)])
    steps = st.lists(st.sampled_from([0, 0, 0, 1, 2, 5]), min_size=grid, max_size=grid)
    knots = [np.array([np.cumsum([draw(st.integers(-40, 40))] + draw(steps)) for _ in range(rows)],
                      dtype=float) for _part in "uw"]
    xs = np.linspace(lo, hi, grid + 1, axis=1)

    def rising(knot):
        def at(r, x):
            k = np.clip(np.array([np.searchsorted(xs[i], xi, side="right") - 1
                                  for i, xi in zip(np.broadcast_to(r, np.shape(x)), x)],
                                 dtype=int), 0, grid - 1)
            a, b = knot[r, k], knot[r, k + 1]
            t = (x - xs[r, k]) / (xs[r, k + 1] - xs[r, k])
            return np.clip(a + (b - a) * t, a, b)
        return at

    u, w = (rising(knot) for knot in knots)
    return (lambda r, x: u(r, x) - w(r, x)), u, w, lo, hi, grid, draw(
        st.sampled_from([0.0, 1e-12, 0.5, 3.0]))


@settings(max_examples=150, deadline=None)
@given(problem=bound_problems())
def test_a_bound_from_rising_parts_changes_nothing(problem):
    # the spans the parts clear hold no sign change and no zero: the bounded
    # scan keeps bitwise the full scan's rows and roots
    g, u, w, lo, hi, grid, margin = problem

    def parts(rows, xs):
        r = np.repeat(rows, xs.shape[1])
        return tuple(f(r, xs.ravel()).reshape(xs.shape) for f in (g, u, w)) + (margin,)

    rows, roots = _scan_roots(g, lo, hi, grid, bound=parts)
    want_rows, want_roots = _scan_roots(g, lo, hi, grid)
    assert rows.tolist() == want_rows.tolist()
    assert roots.tobytes() == want_roots.tobytes()


def test_values_whose_products_underflow_still_bisect():
    # (x - 0.3) * 1e-200: the product of two values is below the smallest
    # float, so a product test saw no sign change; signs are compared instead
    tiny = _scan_roots(lambda _r, x: (x - 0.3) * 1e-200, 0.0, 1.0, grid=10)
    small = _scan_roots(lambda _r, x: (x - 0.3) * 1e-100, 0.0, 1.0, grid=10)
    assert tiny[0].tolist() == small[0].tolist() == [0]
    assert tiny[1].tobytes() == small[1].tobytes() and tiny[1][0] == 0.3
    want = scan_roots(lambda _r, x: (x - 0.3) * 1e-200, 0.0, 1.0, grid=10)
    assert tiny[1].tobytes() == want[1].tobytes()


KINDS = ("linear", "noise", "step", "step_at_end", "nan", "cap")


@st.composite
def bracket_problems(draw):
    """(g, lo, hi, g_lo, g_hi, kinds) for `bisect` itself, one kind per bracket:
    a linear g, whose secant is right but for rounding; the same plus a few
    ulps of noise, a fixed function of x's bits, that flips the sign at random
    near the root; a sign step, where the secant through -1 and 1 is the
    midpoint; a step just below the upper end, where the secant keeps the left
    half at every level and the loop the right, so it mispredicts every
    level but where rounding moves it; a linear g that is NaN on a random
    stretch; and a root within 1e-20 of 0 on a bracket about 1 wide, which
    needs more than 80 halvings.
    The root may sit exactly on a midpoint a few levels in.  Brackets
    without strictly opposite end signs are dropped, as `_scan_roots` drops
    them."""
    kinds, lo, hi, roots, nans = [], [], [], [], []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(KINDS))
        if kind == "cap":
            a, b = -draw(st.floats(1e-3, 4.0)), draw(st.floats(1e-3, 4.0))
            root = draw(st.floats(-1e-20, 1e-20))
        else:
            a = draw(st.floats(-4.0, 4.0))
            b = a + (draw(st.floats(1e-3, 8.0)) if draw(st.booleans())
                     else draw(st.integers(1, 600)) * np.spacing(a))
            b = max(b, np.nextafter(a, np.inf))
            root = b if kind == "step_at_end" else a + draw(unit) * (b - a)
        if kind not in ("step_at_end", "cap") and draw(st.booleans()):
            left, right = a, b
            for go_left in draw(st.lists(st.booleans(), min_size=1, max_size=8)):
                mid = 0.5 * (left + right)
                left, right = (left, mid) if go_left else (mid, right)
            root = 0.5 * (left + right)
        cut = sorted(a + draw(unit) * (b - a) for _ in range(2))
        kinds.append(kind)
        lo.append(a)
        hi.append(b)
        roots.append(root)
        nans.append(cut if kind == "nan" else [np.inf, np.inf])
    kinds, roots, nans = np.array(kinds), np.array(roots), np.array(nans)
    sign = np.where(np.array([draw(st.booleans()) for _ in kinds]), 1.0, -1.0)

    def g(at, x):
        k = kinds[at]
        val = x - roots[at]
        bits = (x.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(61)
        val = np.where(k == "noise", val + (bits - 3.5) * 4.0 * np.spacing(roots[at]), val)
        step = np.where(x < roots[at], -1.0, 1.0)
        val = np.where(np.isin(k, ("step", "step_at_end")), step, val)
        val = np.where((nans[at, 0] < x) & (x < nans[at, 1]), np.nan, val)
        return sign[at] * val

    lo, hi = np.array(lo), np.array(hi)
    every = np.arange(len(lo))
    keep = g(every, lo) * g(every, hi) < 0.0
    lo, hi = lo[keep], hi[keep]
    kinds, roots, nans, sign = kinds[keep], roots[keep], nans[keep], sign[keep]
    every = np.arange(len(lo))
    return g, lo, hi, g(every, lo), g(every, hi), kinds


def _nan_then_zero():
    """g = 0.75 - x on [0, 1], NaN on (0.25, 0.6): the first midpoint, 0.5,
    is NaN, and the second, 0.75, an exact zero above a NaN lower end."""
    def g(_at, x):
        return np.where((0.25 < x) & (x < 0.6), np.nan, 0.75 - x)

    lo, hi = np.array([0.0]), np.array([1.0])
    return g, lo, hi, g(0, lo), g(0, hi), np.array(["nan"])


@settings(max_examples=300, deadline=None)
@given(problem=bracket_problems())
@example(problem=_nan_then_zero())
def test_bisect_equals_the_one_midpoint_loop_and_advances_every_call(problem):
    g, lo, hi, g_lo, g_hi, kinds = problem
    calls = []

    def counted(at, x):
        calls.append((np.array(at), np.array(x)))
        return g(at, x)

    roots = bisect(counted, lo, hi, g_lo, g_hi)
    want, mids = bisect_loop(g, lo, hi, g_lo, g_hi)
    assert roots.tobytes() == want.tobytes()
    # the loop's midpoints, one list per bracket, are the levels kept: each
    # call evaluates every live bracket from its next one, and the points
    # after a call's kept levels are off the loop's path
    done = [0] * len(lo)
    for at, x in calls:
        live = [k for k in range(len(lo)) if done[k] < len(mids[k])]
        assert sorted(set(at.tolist())) == live
        assert len(x) <= max(_BISECT_POINTS, len(live))
        for k in live:
            path, ahead = x[at == k].tolist(), mids[k][done[k]:]
            kept = next((n for n, (m, w) in enumerate(zip(path, ahead)) if m != w),
                        min(len(path), len(ahead)))
            assert kept >= 1
            done[k] += kept
    assert done == [len(m) for m in mids]
    assert all(len(m) == 80 for m, kind in zip(mids, kinds) if kind == "cap")


@settings(max_examples=15, deadline=None)
@given(p=distributions(), band_lo=st.integers(0, 4), band_width=st.integers(0, 4))
def test_fixed_point_of_the_pack_outflow_equals_the_scalar_scan(p, band_lo, band_width):
    f = lambda y: default_outflow(p, y)  # noqa: E731
    assert smallest_fixed_point(f) == scalar_fixed_point(f)
    pk = _pack(p)
    first = pk.start_column(InterventionPolicy.degree_range(band_lo, band_lo + band_width))
    f = lambda y: _fixed_outflow(pk, first, y)  # noqa: E731
    assert smallest_fixed_point(f) == scalar_fixed_point(f)


@settings(max_examples=30, deadline=None)
@given(p=distributions(), band_lo=st.integers(0, 4), band_width=st.integers(0, 4))
# under no aid y* = 0.7478127473431346, where outflow - y is -1.1e-16: the
# float below has +1.1e-16 and the float above exactly 0, beyond the last
# bracket, so y* is the root although a neighbour is an exact zero
@example(p=JointDistribution({(2, 4, 1): 0.2248576897144599, (4, 2, 1): 0.2248576897144599,
                              (1, 2, 2): 0.2248576897144599, (2, 1, 1): 0.2248576897144599,
                              (1, 0, 0): 0.05028462057108022, (0, 1, 0): 0.05028462057108022}),
         band_lo=0, band_width=0)
def test_fixed_point_is_a_root_to_the_float(p, band_lo, band_width):
    pk = _pack(p)
    for policy in (InterventionPolicy.none(), InterventionPolicy.complete(),
                   InterventionPolicy.degree_range(band_lo, band_lo + band_width)):
        first = pk.start_column(policy)
        g = lambda y: _fixed_outflow(pk, first, y) - y  # noqa: E731
        y = smallest_fixed_point(lambda y: _fixed_outflow(pk, first, y))[0]
        if not 1e-12 < y < 1.0:
            continue
        # the smallest float of the crossing: g <= 0 there, and > 0 at the
        # float below unless g is 0 at y itself
        at = g(y)
        assert at <= 0.0
        assert at == 0.0 or g(np.nextafter(y, 0.0)) > 0.0


def test_an_exact_zero_at_the_bracket_end_is_the_root():
    # the last bracket's midpoint rounds down to 0.33333333333333326, where
    # outflow - y is 5.6e-17; at its upper end it is exactly 0
    p = JointDistribution({(1, 2, 1): 0.5, (2, 1, 0): 0.5})
    y = forced_policy_limits(p, InterventionPolicy.complete())[0]
    pk = _pack(p)
    assert y == 0.3333333333333333
    assert _fixed_outflow(pk, pk.start_column(InterventionPolicy.complete()), y) - y == 0.0


def test_an_exact_zero_above_a_nan_is_the_root():
    # the zero at 0.75 becomes the upper end; were it the lower end, every
    # later halving would keep the left half and return the float above it
    g, lo, hi, g_lo, g_hi, _kinds = _nan_then_zero()
    assert bisect(g, lo, hi, g_lo, g_hi).tolist() == [0.75]
    assert bisect_loop(g, lo, hi, g_lo, g_hi)[0].tolist() == [0.75]


def _counting(f):
    calls = []

    def counted(*args):
        calls.append(np.size(args[-1]))
        return f(*args)

    return counted, calls


def test_one_bracket_follows_the_secant_in_one_call():
    # g is linear, so the secant through the bracket's ends predicts every
    # side: the grid's 5 points, then one call of the 52 halvings down to
    # adjacent floats near 1/3
    g, calls = _counting(lambda _r, x: x - 1.0 / 3.0)
    rows, roots = _scan_roots(g, 0.0, 1.0, grid=4)
    assert rows.tolist() == [0] and abs(roots[0] - 1.0 / 3.0) < 1e-15
    assert calls == [5, 52]
    f, calls = _counting(lambda y: 0.3 + 0.5 * y)
    assert smallest_fixed_point(f) == scalar_fixed_point(lambda y: 0.3 + 0.5 * y)
    # the 65 ends of the 64-cell spans, the 63 inner points of each of the
    # three spans that may hold the crossing, then the 41 halvings from
    # 1/4096 to adjacent floats near 0.6 in one call, one more where the last
    # side went against the secant's rounding, and the slope test's 2 points
    assert calls == [65, 189, 41, 1, 2]


def test_a_fixed_point_below_zero_is_zero():
    # f(0) < 0: y = 0 already has f(y) <= y, though g = f - y first crosses
    # 0 at y = 0.1
    def f(y):
        return np.minimum(1.0, 2 * np.asarray(y) - 0.1)

    assert smallest_fixed_point(f) == scalar_fixed_point(f) == (0.0, False)


def test_a_step_the_secant_always_mispredicts_costs_one_call_a_halving():
    # on [0, 1] the secant through -1 and 1 is each bracket's midpoint, so it
    # keeps the left half while the loop keeps the right: each call keeps one
    # level, as many calls as the one-midpoint loop makes
    def g(_at, x):
        return np.where(x < 1.0, -1.0, 1.0)

    counted, calls = _counting(g)
    root = bisect(counted, [0.0], [1.0], [-1.0], [1.0])
    want, mids = bisect_loop(g, [0.0], [1.0], [-1.0], [1.0])
    assert root.tobytes() == want.tobytes() and root[0] == 1.0
    assert len(calls) == len(mids[0]) == 53


def test_many_brackets_share_a_call():
    # 60 brackets: 60 * (2^1 - 1) <= 64 < 60 * (2^2 - 1), so one level per call
    centers = (np.arange(60) + 0.37) / 60  # no root on a grid point

    def g(_r, x):
        val = np.ones_like(x)
        for c in centers:
            val = val * (x - c)
        return val

    counted, calls = _counting(g)
    rows, roots = _scan_roots(counted, 0.0, 1.0, grid=400)
    want_rows, want_roots = scan_roots(g, 0.0, 1.0, grid=400)
    assert len(roots) == 60 and roots.tobytes() == want_roots.tobytes()
    assert calls[1] == 60 and len(calls) < 81
