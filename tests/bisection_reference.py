"""The one-midpoint bisection loops, kept as the references that
`asymptotics.bisect` must match bitwise.

`scan_roots` is the solver's root scan with one call of g per halving:
every bracket halves 80 times, keeping the half whose ends' values have a
product <= 0.  `scalar_fixed_point` is `smallest_fixed_point` one point at a
time: a grid scan, then one call of f per halving until the bracket is at
most `tol` wide, and the slope test.
"""

import numpy as np


def scan_roots(g, lo, hi, grid=400):
    """Every root of g on each row's [lo, hi]: (rows, roots), as
    `optimizer._scan_roots` returns them."""
    lo, hi = np.broadcast_arrays(np.atleast_1d(lo), hi)
    xs = np.linspace(lo, hi, grid + 1, axis=1)
    rows = np.repeat(np.arange(len(lo)), grid + 1)
    vals = g(rows, xs.ravel()).reshape(xs.shape)
    roots = np.where(vals == 0.0, xs, np.nan)
    r, k = np.nonzero(vals[:, :-1] * vals[:, 1:] < 0.0)
    a, b, g_a = xs[r, k], xs[r, k + 1], vals[r, k]
    for _ in range(80 if r.size else 0):
        mid = 0.5 * (a + b)
        g_mid = g(r, mid)
        left = g_a * g_mid <= 0.0
        b = np.where(left, mid, b)
        a, g_a = np.where(left, a, mid), np.where(left, g_a, g_mid)
    roots[r, k] = 0.5 * (a + b)
    r, k = np.nonzero(~np.isnan(roots))
    return r, roots[r, k]


def bisect_fixed_point(g, lo, hi, tol=1e-12):
    """The upper end of [lo, hi] after halving it, one call of g per
    halving, until it is at most tol wide; g(lo) > 0 >= g(hi)."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def scalar_fixed_point(f, grid=4096, tol=1e-12):
    """(y*, stable) of `smallest_fixed_point`, point by point."""
    def g(y):
        return f(y) - y

    y_star = None
    if g(0.0) <= 0.0:
        y_star = 0.0
    else:
        prev_y = 0.0
        for k in range(1, grid + 1):
            y = k / grid
            gy = g(y)
            if gy <= 0.0:
                y_star = bisect_fixed_point(g, y if gy == 0.0 else prev_y, y, tol)
                break
            prev_y = y
        if y_star is None:
            y_star = 1.0
    lo_pt, hi_pt = max(0.0, y_star - 1e-6), min(1.0, y_star + 1e-6)
    deriv = (f(hi_pt) - f(lo_pt)) / (hi_pt - lo_pt) if hi_pt > lo_pt else float("inf")
    return y_star, bool(deriv < 1.0 - 1e-9)
