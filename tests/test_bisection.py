"""The shared bisection against the one-midpoint loops of `bisection_reference`.

`asymptotics.bisect` evaluates several levels of every bracket's bisection
tree per call and then walks them with the caller's rules, so the solver's
root scan and the fixed-point search must return bitwise what the loops that
evaluate one midpoint per call return: on random monotone and non-monotone
functions, on brackets that reach adjacent floats long before 80 halvings,
with exact zeros at midpoints and with NaN values.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from contagion_control import InterventionPolicy, default_outflow, smallest_fixed_point
from contagion_control.asymptotics import _fixed_outflow, _pack, bisect
from contagion_control.optimizer import _scan_roots

from bisection_reference import bisect_fixed_point, scalar_fixed_point, scan_roots
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


@settings(max_examples=100, deadline=None)
@given(shift=unit, slope=st.floats(0.1, 10.0), wiggle=st.floats(0.0, 50.0),
       nan_above=st.one_of(st.just(2.0), unit), lo=unit, width=st.floats(1e-9, 1.0),
       tol=st.sampled_from([1e-12, 1e-9, 1e-6]))
def test_fixed_point_rule_equals_the_one_midpoint_loop(shift, slope, wiggle, nan_above,
                                                       lo, width, tol):
    # falling for wiggle 0, not monotone for larger wiggle; NaN counts as <= 0
    def g(x):
        val = slope * (shift - x) + wiggle * (x - shift) * (x - 0.3) * (x - 0.7)
        return np.where(x > nan_above, np.nan, val)

    hi = lo + width
    _lo, got, _g = bisect(lambda _b, x: g(x), [lo], [hi], [np.nan],
                          keep_left=lambda _g_lo, g_mid: ~(g_mid > 0.0),
                          settled=lambda a, b, _mid: b - a <= tol)
    assert got[0] == bisect_fixed_point(lambda x: float(g(x)), lo, hi, tol)


@settings(max_examples=15, deadline=None)
@given(p=distributions(), band_lo=st.integers(0, 4), band_width=st.integers(0, 4))
def test_fixed_point_of_the_pack_outflow_equals_the_scalar_scan(p, band_lo, band_width):
    f = lambda y: default_outflow(p, y)  # noqa: E731
    assert smallest_fixed_point(f) == scalar_fixed_point(f)
    pk = _pack(p)
    first = pk.start_column(InterventionPolicy.degree_range(band_lo, band_lo + band_width))
    f = lambda y: _fixed_outflow(pk, first, y)  # noqa: E731
    assert smallest_fixed_point(f) == scalar_fixed_point(f)


def _counting(f):
    calls = []

    def counted(*args):
        calls.append(np.size(args[-1]))
        return f(*args)

    return counted, calls


def test_one_bracket_bisects_six_levels_per_call():
    # 63 <= 64 points per call: the tree's first six levels
    g, calls = _counting(lambda _r, x: x - 1.0 / 3.0)
    rows, roots = _scan_roots(g, 0.0, 1.0, grid=4)
    assert rows.tolist() == [0] and abs(roots[0] - 1.0 / 3.0) < 1e-15
    assert calls[0] == 5 and set(calls[1:]) == {63}
    # a one-midpoint loop needs about 50 halvings to reach adjacent floats
    assert len(calls) <= 1 + 10
    f, calls = _counting(lambda y: 0.3 + 0.5 * y)
    assert smallest_fixed_point(f) == scalar_fixed_point(lambda y: 0.3 + 0.5 * y)
    # scan, bisection and slope test: 28 halvings from 1/4096 to 1e-12 in 5 calls
    assert calls.count(63) == 5


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
