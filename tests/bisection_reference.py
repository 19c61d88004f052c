"""The one-midpoint bisection loop, kept as the reference that
`asymptotics.bisect` must match bitwise.

`bisect_loop` halves every bracket 80 times, one call of g per halving,
keeping the left half where g(mid) is 0 or the signs of g at its ends have
a product <= 0 (else a NaN keeps the right half); its root is the last
bracket's upper end, the first float at which g is 0 or has left the sign
of g(lo).  Signs are compared, never multiplied, so values whose product
underflows still bisect.  `scan_roots` is the package's root scan,
`asymptotics._scan_roots`, with `bisect_loop` for `asymptotics.bisect`.
`scalar_fixed_point` is
`smallest_fixed_point` one point at a time: a grid scan for the first point
with f(y) <= y, then `scan_roots` on the one grid cell before it, and the
slope test.
"""

import numpy as np


def scan_roots(g, lo, hi, grid=400):
    """Every root of g on each row's [lo, hi]: (rows, roots), as
    `asymptotics._scan_roots` returns them: each exact zero of the grid, and
    the upper end of each sign-change cell's last bracket."""
    lo, hi = np.broadcast_arrays(np.atleast_1d(lo), hi)
    xs = np.linspace(lo, hi, grid + 1, axis=1)
    rows = np.repeat(np.arange(len(lo)), grid + 1)
    vals = g(rows, xs.ravel()).reshape(xs.shape)
    roots = np.where(vals == 0.0, xs, np.nan)
    sign = np.sign(vals)  # NaN for a NaN value, which brackets nothing
    r, k = np.nonzero(sign[:, :-1] * sign[:, 1:] < 0.0)
    roots[r, k] = bisect_loop(lambda at, mid: g(r[at], mid), xs[r, k], xs[r, k + 1],
                              vals[r, k], vals[r, k + 1])[0]
    r, k = np.nonzero(~np.isnan(roots))
    return r, roots[r, k]


def bisect_loop(g, lo, hi, g_lo, g_hi):
    """(roots, mids) of the brackets [lo, hi] after 80 halvings, one
    midpoint per bracket per call `g(brackets, points)`; the roots are the
    last brackets' upper ends, and mids[k] lists the midpoints bracket k
    halves at before the first that equals an end of its bracket, from where
    the halvings leave its upper end in place."""
    a, b, g_a = (np.array(x, dtype=float) for x in (lo, hi, g_lo))
    at = np.arange(len(a))
    mids, moving = [[] for _ in at], np.ones(len(a), dtype=bool)
    for _ in range(80 if at.size else 0):
        mid = 0.5 * (a + b)
        moving &= (mid != a) & (mid != b)
        for k in at[moving]:
            mids[k].append(mid[k])
        g_mid = g(at, mid)
        left = (g_mid == 0.0) | (np.sign(g_a) * np.sign(g_mid) <= 0.0)
        b = np.where(left, mid, b)
        a, g_a = np.where(left, a, mid), np.where(left, g_a, g_mid)
    return b, mids


def scalar_fixed_point(f, grid=4096):
    """(y*, stable) of `smallest_fixed_point`, point by point: the first grid
    point k / grid where g = f - y is <= 0, if g is 0 there or k = 0, else
    the root `scan_roots` bisects in the cell before it; then the slope test."""
    def g(y):
        return f(y) - y

    y_star = 1.0
    for k in range(grid + 1):
        y = k / grid
        gy = g(y)
        if gy <= 0.0:
            y_star = y if gy == 0.0 or k == 0 else float(
                scan_roots(lambda _r, x: g(x), (k - 1) / grid, y, grid=1)[1][0])
            break
    lo_pt, hi_pt = max(0.0, y_star - 1e-6), min(1.0, y_star + 1e-6)
    deriv = (f(hi_pt) - f(lo_pt)) / (hi_pt - lo_pt) if hi_pt > lo_pt else float("inf")
    return y_star, bool(deriv < 1.0 - 1e-9)
