"""Deterministic limits of the scaled contagion process.

State masses s_tau^{i,j,c,l} track, per network class, the fraction of nodes
that started vulnerable and currently sit at equity-plus-aid c with l revealed
in-links.  The index set per (i, j) is {0 <= l < c <= i} plus the rescued state
(i+1, i).  On any interval where the controls are constant the ODEs have an
explicit solution, which `propagate` evaluates by one rule per (i, j) pair: a
node at (q, r) ends the interval with l >= r losses with binomial weight
C(i-r, l-r) (1-theta)^(l-r) theta^(i-l), theta = (lam - tau2) / (lam - tau)
the chance that a hidden in-link stays hidden; it stays at (q, l) if l < q,
climbs to (l+1, l) if its cushions q..l are all aided, and has defaulted
otherwise.  `trajectory_at` chains the
rule between a policy's switch times.  The test suite integrates the same
ODEs by RK4 from its own state list, controls and switch times.

Every terminal limit is a sum over the network classes (i, j, c) of binomial
tails at the class's aid start time x, a fraction of the links revealed.  Only
x depends on the policy:

- no aid: x = y, the terminal revealed-link fraction (`default_outflow`,
  `default_fraction`); the process ends at the smallest fixed point of the
  outflow;
- the optimal threshold policy: x = `_optimal_starts`(cost, v, y), and x = z
  on the singular classes (`singular_rows`: c = i with an aid coefficient
  that vanishes to 1e-12 max(1, |1 - cost|)), whose start is a free
  variable; v alone decides which classes they are (`controlled_limits`,
  `default_outflow_controlled`, `terminal_hamiltonian` and
  `program_residuals`, the solver's two equations);
- fixed start times: x = min(policy.start(i, j, c), y), or y where the policy
  never aids (`forced_policy_limits`).

`_ClassPack` is the only code that sums over classes: for a start array it
gives the default outflow, the defaulted share and the aid volume, and the
Hamiltonian H(y, v) of the terminal stationarity equation H = lam * v, with
its range over y and, from per-class bounds, over each span of y
(`_hamiltonian_cells`).
`is_stable` is the one stability test of a fixed point.  `_scan_roots` is the
one root scan of an equation in one variable, for `smallest_fixed_point` and
the solver alike, and `bisect`, behind it, the one bisection.  The
class-by-class scalar forms of these sums are kept in the test suite
(`tests/scalar_limits.py`) as independent oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import nan
from typing import Callable

import numpy as np

from .cascade import InterventionPolicy
from .distribution import JointDistribution
from .errors import ParameterError

StateKey = tuple[int, int, int, int]  # (i, j, c, l)
ClassKey = tuple[int, int, int]

_SINGULAR_TOL = 1e-12
MAX_IN_DEGREE = 1030  # above it C(i - 1, k) exceeds the largest float: C(1030, 515) ~ 2.9e308
# the fixed-point scan's grid k / _SCAN_GRID and block size, and points per
# residual batch, which bounds the temporaries to a few MB
_SCAN_GRID = 4096
_SCAN_BLOCK = 64
_RESIDUAL_BATCH = 512
# most points per call of the function that `bisect` bisects
_BISECT_POINTS = 64
# a bounded `_scan_roots` evaluates every _SCAN_STRIDE-th lattice point first
_SCAN_STRIDE = 16
_SLOPE_STEP = 1e-6  # half-width of `is_stable`'s central slope


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """State masses anchored at scaled time tau (in [0, lam))."""

    tau: float
    lam: float
    s: dict[StateKey, float]

    def value(self, i: int, j: int, c: int, l: int) -> float:
        return self.s.get((i, j, c, l), 0.0)


def initial_trajectory(p: JointDistribution) -> Trajectory:
    """All mass fresh (no link revealed) at tau = 0.

    Aid lifts a node's cushion, so every pair carrying vulnerable mass tracks
    every state {0 <= l < c <= i} and the rescued state (i + 1, i), not just
    the supported cushions.
    """
    s: dict[StateKey, float] = {}
    for i, j in p.vulnerable_pairs():
        for c in range(1, i + 1):
            for l in range(c):
                s[(i, j, c, l)] = p.mass(i, j, c) if l == 0 else 0.0
        s[(i, j, i + 1, i)] = 0.0
    return Trajectory(tau=0.0, lam=p.lam, s=s)


def _binomials(d: int) -> tuple[float, ...]:
    """C(d, k) for k = 0..d: one exact integer row, each entry rounded once."""
    return tuple(map(float, accumulate(range(d), lambda b, k: b * (d - k) // (k + 1),
                                       initial=1)))


@lru_cache(maxsize=None)
def _link_binomials(i: int) -> np.ndarray:
    """C(i - r, l - r) at [r, l], and 0 below the diagonal."""
    return np.array([(0.0,) * r + _binomials(i - r) for r in range(i + 1)])


def propagate(traj: Trajectory, tau2: float, controls: dict[ClassKey, int]) -> Trajectory:
    """Closed-form solution over [traj.tau, tau2] with constant controls.

    `controls[(i, j, c)] = 1` means every class-(i, j, c) node one loss from
    default is aided throughout the interval.  Exact for constant controls; the
    trajectory caller is responsible for splitting at control switch times.

    One rule per (i, j) pair.  Each of the i - r hidden in-links of a node at
    (q, r) stays hidden w.p. theta = (lam - tau2) / (lam - traj.tau), so the
    node ends with l >= r losses w.p. K[r, l] = C(i-r, l-r) (1-theta)^(l-r)
    theta^(i-l), and reach = s @ K.  It stays at (q, l) if l < q.  If l >= q
    it was one loss from default at every cushion q..l: aided at all of
    them it climbs to (l + 1, l), else it has defaulted.  So
    out[(c, l)] = reach[c, l] + [c = l + 1] * sum of reach[q, l] over the q
    whose cushions q..l are all aided.
    """
    if tau2 < traj.tau:
        raise ParameterError(f"cannot propagate backwards: {tau2} < {traj.tau}")
    if tau2 >= traj.lam:
        raise ParameterError(f"target time {tau2} is not below the mean degree {traj.lam}")
    if tau2 == traj.tau:
        return traj
    theta = (traj.lam - tau2) / (traj.lam - traj.tau)
    pairs: dict[tuple[int, int], list[StateKey]] = {}
    for key in traj.s:
        pairs.setdefault(key[:2], []).append(key)
    out: dict[StateKey, float] = {}
    for (i, j), keys in pairs.items():
        at = tuple(np.array(keys)[:, 2:].T)  # the keys' (c, l)
        s = np.zeros((i + 2, i + 1))  # s[q, r]: cushion q, r revealed in-links
        s[at] = [traj.s[key] for key in keys]
        r = np.arange(i + 1)
        gap = np.maximum(r - r[:, None], 0)  # l - r, where C(i - r, l - r) is nonzero
        reach = s @ (_link_binomials(i) * (1.0 - theta) ** gap * theta ** (i - r))
        for l in range(i + 1):
            q = l  # down from l while the cushions q..l are all aided
            while q >= 1 and controls.get((i, j, q), 0):
                reach[l + 1, l] += reach[q, l]
                q -= 1
        out.update(zip(keys, reach[at].tolist()))
    return Trajectory(tau=tau2, lam=traj.lam, s=out)


# ---------------------------------------------------------------------------
# piecewise evaluation under a policy's start times
# ---------------------------------------------------------------------------

def _control_keys(p: JointDistribution) -> list[ClassKey]:
    return [(i, j, c) for i, j in p.vulnerable_pairs() for c in range(1, i + 1)]


def trajectory_at(p: JointDistribution, policy: InterventionPolicy, tau: float) -> Trajectory:
    """Closed-form state at scaled time tau under a policy's start times.

    `propagate` runs between the switch times lam * start, with each class's
    control on from its switch time (to 1e-12) on.
    """
    if not 0.0 <= tau < p.lam:
        raise ParameterError(f"time {tau} outside [0, lam={p.lam})")
    switch = {key: p.lam * x for key in _control_keys(p)
              if (x := policy.start(*key)) is not None}
    traj = initial_trajectory(p)
    for t_next in sorted({t for t in switch.values() if 0.0 < t < tau}) + [tau]:
        controls = {key: int(traj.tau >= t - 1e-12) for key, t in switch.items()}
        traj = propagate(traj, t_next, controls)
    return traj


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------

def smallest_fixed_point(f: Callable[[np.ndarray], np.ndarray]) -> tuple[float, bool]:
    """Smallest y in [0, 1] with f(y) <= y, and whether f `is_stable` there.

    Assumes f continuous and increasing with f(1) <= 1, so y = 1 is always a
    fallback fixed point; f must accept an ndarray.  The grid k / _SCAN_GRID
    runs in blocks [a, b] of _SCAN_BLOCK cells, and one call evaluates f at
    every a, y = 0 among them.  As f increases, a block with f(a) - b > 1e-12
    cannot hold the crossing.  The others go in order to `_scan_roots`, which
    scans g = f(y) - y at the block's grid points and bisects to adjacent
    floats; the first root of the first block that holds one is y*.
    """
    starts = np.arange(0, _SCAN_GRID, _SCAN_BLOCK)
    ends = np.minimum(starts + _SCAN_BLOCK, _SCAN_GRID)
    f_a = np.asarray(f(starts / _SCAN_GRID), dtype=float)
    y_star = 0.0 if f_a[0] <= 0.0 else 1.0
    crossing = ~(f_a - ends / _SCAN_GRID > 1e-12) & (f_a[0] > 0.0)
    for a, b in zip(starts[crossing].tolist(), ends[crossing].tolist()):
        roots = _scan_roots(lambda _r, ys: f(ys) - ys, a / _SCAN_GRID, b / _SCAN_GRID, b - a)[1]
        if roots.size:
            y_star = float(roots[0])
            break
    return y_star, bool(is_stable(f, [y_star])[0])


def _scan_roots(g, lo, hi, grid=400, bound=None):
    """Every root of g on each row's [lo, hi]: (rows, roots), sorted by row,
    then root.

    The package's one root scan in one variable.  `g(rows, xs)` evaluates each
    row's function at equal-length arrays in one batch; lo and hi broadcast to
    one entry per row.  A scan of grid + 1 evenly spaced points takes every
    exact zero and brackets every cell whose ends have strictly opposite
    signs; a NaN brackets nothing.  All brackets of all rows then go to one
    `bisect`, whose calls of g follow each bracket's secant, so a cell where g
    is close to linear costs about one call whatever the number of rows.
    A bracket's root is the upper end `bisect` returns: g is 0 there or of
    the other sign than at the cell's lower end.

    With a `bound`, the scan goes coarse first.  `bound(rows, xs)` gets every
    _SCAN_STRIDE-th point of the lattice and its last, one row of xs per row,
    and returns g there and a lower and an upper bound of g over each span
    between neighbouring points (rows x points - 1).  A span whose bounds
    are both above 0 or both below 0 holds no root and no sign change; g is
    evaluated at the inner lattice points of the other spans only.  The
    points evaluated are the lattice's own, so the roots are those of the
    full scan wherever the bound holds.
    """
    lo, hi = np.broadcast_arrays(np.atleast_1d(lo), hi)
    xs = np.linspace(lo, hi, grid + 1, axis=1)
    if bound is None:
        vals = g(np.repeat(np.arange(len(lo)), grid + 1), xs.ravel()).reshape(xs.shape)
    else:
        coarse = np.append(np.arange(0, grid, _SCAN_STRIDE), grid)
        vals = np.full(xs.shape, np.nan)
        vals[:, coarse], low, high = bound(np.arange(len(lo)), xs[:, coarse])
        inner = np.repeat(~((low > 0.0) | (high < 0.0)), np.diff(coarse), axis=1)
        inner[:, coarse[:-1]] = False
        r, k = np.nonzero(inner)
        if len(r):
            vals[r, k] = g(r, xs[r, k])
    roots = np.where(vals == 0.0, xs, np.nan)
    a, b = vals[:, :-1], vals[:, 1:]
    r, k = np.nonzero((a < 0.0) & (b > 0.0) | (a > 0.0) & (b < 0.0))
    roots[r, k] = bisect(lambda at, mid: g(r[at], mid), xs[r, k], xs[r, k + 1],
                         vals[r, k], vals[r, k + 1])
    r, k = np.nonzero(~np.isnan(roots))
    return r, roots[r, k]


def bisect(g, lo, hi, g_lo, g_hi):
    """Bisect the brackets [lo, hi] together, along a predicted path.

    The one bisection of the package, behind `_scan_roots`, on brackets with
    g of strictly opposite signs at the ends.  A bracket halves as a
    one-midpoint loop would: at mid = 0.5 * (lo + hi) it keeps [lo, mid]
    where g(mid) is 0 or of the other sign than g(lo), else [mid, hi].
    Signs are compared, not multiplied, so values whose product underflows
    to 0 still bisect.  It stops once mid equals one of its ends, as every
    further halving leaves the upper end in place (about 50 halvings from a
    grid cell), or after 80 halvings.

    Each call `g(brackets, points)` evaluates, per live bracket, the
    midpoints the loop would visit if g were the secant through the
    bracket's end values: up to _BISECT_POINTS // brackets levels, at least
    one, and no further than the loop's own stop.  The walk then halves with
    the real values and keeps every level up to and including the first whose
    side differs from the secant's.  Each kept midpoint is 0.5 * (lo + hi)
    of the loop's own bracket and each side is read from the real g, so the
    last brackets are the loop's, provided g's value at a point does not
    depend on the batch it is evaluated in.  A lone bracket on which g is
    linear takes one call; elsewhere the secant through ends that close in
    on the root predicts ever further, and a g that defeats it at every level
    costs a call per halving.  Each bracket's root is its last upper end:
    there g is 0 or of the other sign than g(lo), and at the last lower end
    of g(lo)'s sign or NaN.

    The paths and the walk run on Python floats, the same IEEE doubles as
    numpy's: a call walks at most max(_BISECT_POINTS, brackets) points, and
    the package bisects one or two brackets at a time, where numpy's
    per-operation cost would dominate.
    """
    ends = [list(e) for e in zip(*(np.asarray(x, dtype=float).tolist()
                                   for x in (lo, hi, g_lo, g_hi)))]
    halvings = [0] * len(ends)
    live = list(range(len(ends)))
    while live:
        live = [k for k in live
                if halvings[k] < 80 and 0.5 * (ends[k][0] + ends[k][1]) not in ends[k][:2]]
        if not live:
            break
        depth = max(1, _BISECT_POINTS // len(live))
        paths = [_secant_path(*ends[k], min(depth, 80 - halvings[k])) for k in live]
        mids = [mid for path in paths for mid, _left in path]
        vals = np.asarray(g(np.repeat(live, [len(path) for path in paths]), np.array(mids)),
                          dtype=float).tolist()
        at = 0
        for k, path in zip(live, paths):
            a, b, g_a, g_b = ends[k]
            for (mid, guess), g_mid in zip(path, vals[at:at + len(path)]):
                halvings[k] += 1
                left = g_mid == 0.0 or g_a >= 0.0 >= g_mid or g_a <= 0.0 <= g_mid
                if left:
                    b, g_b = mid, g_mid
                else:
                    a, g_a = mid, g_mid
                if left != guess:
                    break  # the rest of the path bisects another bracket
            ends[k] = [a, b, g_a, g_b]
            at += len(path)
    return np.array([b for _a, b, _g_a, _g_b in ends])


def _secant_path(a, b, g_a, g_b, levels):
    """(mid, keeps [a, mid]) of the loop's next halvings of [a, b] where g is
    the secant through (a, g_a) and (b, g_b): `levels` of them, or fewer where
    a midpoint reaches an end of its bracket."""
    # the secant keeps the left half where its root x lies left of mid or on it
    x = a + (b - a) * (g_a / (g_a - g_b)) if g_a != g_b else nan
    path = []
    for _ in range(levels):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        left = x <= mid
        path.append((mid, left))
        if left:
            b = mid
        else:
            a = mid
    return path


def _slope_probes(y) -> np.ndarray:
    """`is_stable`'s points: every y - h, then every y + h, clamped to [0, 1]."""
    y = np.ravel(y).astype(float)
    return np.concatenate([np.maximum(0.0, y - _SLOPE_STEP), np.minimum(1.0, y + _SLOPE_STEP)])


def is_stable(f: Callable[[np.ndarray], np.ndarray], y):
    """Whether the fixed point y of f is stable: the central slope of f over
    [y - h, y + h] (h = _SLOPE_STEP), clamped to [0, 1], is below 1 - 1e-9.

    The one stability test, for `smallest_fixed_point` and the solver's
    candidates.  y is a 1-D array, and the result a bool array, one per point;
    f is called once, at the array `_slope_probes(y)`.
    """
    probes = _slope_probes(y)
    (lo, hi), (f_lo, f_hi) = np.split(probes, 2), np.split(np.asarray(f(probes), float), 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(hi > lo, (f_hi - f_lo) / (hi - lo), np.inf) < 1.0 - 1e-9


# ---------------------------------------------------------------------------
# start times of the optimal policy
# ---------------------------------------------------------------------------

def _optimal_starts(i, j, c, cost: float, v, y):
    """Scaled aid start of classes (i, j, c), 1 <= c <= i, at (v, y); arrays broadcast.

    Three regimes: the class is not worth aiding (start = end), aid starts
    mid-process (interior formula), or aid starts immediately (start = 0).
    The boundary case sits in the immediate regime (strict inequality).
    """
    v, y = np.asarray(v, dtype=float), np.asarray(y, dtype=float)
    vj = j * v
    w = cost + vj - 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        denom = (i - c + 1.0) * cost + vj - 1.0
        interior = 1.0 - (1.0 - y) * ((i - c) * cost) / denom
        # a subnormal y can make cost * y zero: w / 0 is then -inf, the immediate regime
        interior_regime = (c < i + w / (cost * y)) & (y > 0.0)
    x = np.where(interior_regime & (denom > 1e-300), interior, 0.0)
    return np.where(w >= 0.0, y, x)


def singular_rows(i, j, c, cost: float, v):
    """Mask of the singular classes, whose aid start is the free variable z.

    A class is singular when c = i and its aid coefficient vanishes,
    |j v - 1 + cost| <= 1e-12 max(1, |1 - cost|).  The band scales with
    |1 - cost| so that stage B's v = (1 - cost) / j, rounded, marks out-degree
    j at every cost; another out-degree falls in it only if |1 - cost| <=
    1e-12 j, as at cost = 1 (v = 0), where every out-degree is singular.
    Arguments broadcast elementwise.
    """
    band = _SINGULAR_TOL * max(1.0, abs(1.0 - cost))
    return (np.abs(j * v - 1.0 + cost) <= band) & (c == i)


# ---------------------------------------------------------------------------
# the class sums
# ---------------------------------------------------------------------------

class _ClassPack:
    """Per-distribution arrays for batched evaluation of every terminal limit.

    Rows are the vulnerable classes (1 <= c <= i); defaulted classes (c = 0)
    add the constants j * mass to the outflow and mass to the defaults, and
    nothing to the aid or the Hamiltonian.  A policy enters only through its
    start array x (classes x points, x <= y), so every limit is one of
    `outflow`, `limits`, `hamiltonian` or `residuals` at some x.  Batched
    arrays are classes x points, so a run of rows is one contiguous block.
    The rows are sorted by the window length n = i - c, so the rows with
    n >= a are the suffix starting at `first[a]`.  The tails are kept in
    Bernstein form and evaluated with running products (one power, x^c, per
    class), never as monomial expansions, which lose accuracy as i grows:

        tail(i-1, x, c) = x^c sum_{a<n} C(i-1, c+a) x^a (1-x)^(n-1-a)
        tail(i, x, c)   = tail(i-1, x, c) + C(i-1, c-1) x^c (1-x)^n

    The y-bracket tail(i-1, y, c-1) shares y across classes: one table of
    Bernstein terms per in-degree, summed from the top.  Every limit divides
    by the mean degree lam, so a distribution with lam <= 0 (no links) is a
    ParameterError here, as is a vulnerable class of in-degree above
    MAX_IN_DEGREE.  `solutions` holds `solve_op`'s solutions of p by cost.
    """

    def __init__(self, p: JointDistribution):
        if not p.lam > 0.0:
            raise ParameterError(f"mean degree must be positive, got {p.lam}: "
                                 f"a network without links has no contagion limits")
        rows = sorted((r for r in p.vulnerable_items() if r[2] >= 1),
                      key=lambda r: r[0] - r[2])
        for i, j, c, _m in rows:
            if i > MAX_IN_DEGREE:
                raise ParameterError(f"class {(i, j, c)} has in-degree {i}: the limits take "
                                     f"vulnerable in-degrees up to {MAX_IN_DEGREE}")
        self.lam = p.lam
        self.defaulted_flow = sum(j * mass for (_i, j, c, mass) in p.vulnerable_items()
                                  if c == 0)
        self.defaulted_mass = sum(mass for (_i, _j, c, mass) in p.vulnerable_items() if c == 0)
        self.keys = [(i, j, c) for (i, j, c, _m) in rows]

        self.i = _column([r[0] for r in rows])
        self.j = _column([r[1] for r in rows])
        self.c = _column([r[2] for r in rows])
        self.mass = _column([r[3] for r in rows])
        self.jmass = self.j * self.mass
        self.imass = self.i * self.mass
        # start column of the no-aid policy: every class waits for the horizon
        self.never = np.full_like(self.c, np.inf)
        self.solutions: dict = {}
        i, c = self.i[:, 0].astype(int), self.c[:, 0].astype(int)
        n = i - c
        self.max_n = int(n.max(initial=0))
        self.first = np.searchsorted(n, np.arange(self.max_n + 2), side="left")
        # C(d, k) at [g, k] for the g-th degree d = i - 1 present, 0 for k > d
        degrees = np.array(sorted(set(i.tolist())), dtype=int) - 1
        groups, width = len(degrees), int(degrees.max(initial=0)) + 1
        binom = np.zeros((groups, width))
        for g, d in enumerate(degrees.tolist()):
            binom[g, :d + 1] = _binomials(d)
        at = np.searchsorted(degrees, i - 1)
        # coefficient a of the Horner sum only reaches the rows with n > a
        self.window = [binom[at[lo:], c[lo:] + a].reshape(-1, 1)
                       for a, lo in enumerate(self.first[1:-1].tolist())]
        self.edge = binom[at, c - 1].reshape(-1, 1)
        # y-side table, row q * G + g for in-degree group g of degree d:
        # C(d, q) y^(d-q) (1-y)^q, zero for q > d.  Summed over q <= n it is
        # tail(d, y, d - n) = tail(i-1, y, c-1) for d = i - 1, n = i - c.
        q = np.arange(width)[:, None]
        self.y_m = np.where(q <= degrees, degrees - q, 0).ravel()
        self.y_e = np.where(q <= degrees, q, 0).ravel()
        self.y_binom = binom.T.reshape(-1, 1)
        self.y_shape = (width, groups)
        self.y_index = n * groups + at

    def start_column(self, policy: InterventionPolicy) -> np.ndarray:
        """policy.start per row (inf where it never aids); x = min(column, y)."""
        return _column([np.inf if (x := policy.start(*key)) is None else x
                        for key in self.keys])

    def starts(self, cost: float, v, y: np.ndarray, z) -> np.ndarray:
        """Start times x (classes x points) of the optimal policy.

        `_optimal_starts` on every row, except that the `singular_rows` start
        at z.
        """
        x = _optimal_starts(self.i, self.j, self.c, cost, v, y)
        # the classes with c = i lead the rows (n = 0)
        top = slice(0, self.first[1])
        sing = singular_rows(self.i[top], self.j[top], self.c[top], cost, v)
        if sing.any():
            x[top] = np.where(sing, z, x[top])
        return x

    def x_sums(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(tail(i, x, c), tail(i-1, x, c)) per class and point, by nested Horner
        steps; x is classes x points.  numpy picks its routine for x ** c by
        the operands' layout: with c repeated into a whole array, not broadcast
        along the points, it is the same for any batch."""
        first, s = self.first, 1.0 - x
        acc = np.zeros(x.shape)
        edge = np.ones(x.shape)  # becomes (1-x)^n
        power = np.ones((x.shape[0] - first[1], x.shape[1]))  # x^a on the rows with n > a
        for a in range(self.max_n):
            lo = first[a + 1]
            if a:
                power = power[lo - first[a]:] * x[lo:]
            acc[lo:] += self.window[a] * power
            acc[first[a + 2]:] *= s[first[a + 2]:]
            edge[lo:] *= s[lo:]
        xc = x ** np.repeat(self.c, x.shape[1], axis=1)
        ham = xc * acc
        return ham + xc * self.edge * edge, ham

    def y_sums(self, y: np.ndarray) -> np.ndarray:
        """tail(i-1, y, c-1) per class and point."""
        width, groups = self.y_shape
        ypow, opow = powers = np.ones((2, width, len(y)))
        ypow[1:] = y
        opow[1:] = 1.0 - y
        np.cumprod(powers, axis=1, out=powers)
        # summed from q = 0 up, one block of groups at a time: np.cumsum along
        # the first axis gives the same bits but runs 10x slower on a chunk
        tails = (ypow[self.y_m] * opow[self.y_e] * self.y_binom).reshape(width, groups, len(y))
        for q in range(1, width):
            tails[q] += tails[q - 1]
        return tails.reshape(width * groups, len(y))[self.y_index]

    def _flow(self, tail_x: np.ndarray) -> np.ndarray:
        return (_class_sum(self.jmass * tail_x) + self.defaulted_flow) / self.lam

    def outflow(self, x: np.ndarray) -> np.ndarray:
        """Scaled out-link flow of the default set per point; a class defaults
        when c of its i in-links are revealed before its start x."""
        return self._flow(self.x_sums(x)[0])

    def limits(self, x: np.ndarray, y: np.ndarray, coef=None) -> tuple[np.ndarray, ...]:
        """(outflow, defaults, aid) per point for start times x <= y, and with
        coef, `_coef` at the points' multipliers, also H(y, v) as `hamiltonian`
        gives it, from the same tails.

        Of a node's i in-links, M ~ Bin(i, y) are revealed by y and N of them
        before x.  Aid in the window [x, y] gives (M - c + 1)^+ units when
        N < c, that is (M - c + 1)^+ - (N - c + 1)^+ - (M - N) 1{N >= c}, and
        E(B - c + 1)^+ = i q tail(i-1, q, c-1) - (c-1) tail(i, q, c) for
        B ~ Bin(i, q), while E(M - N) 1{N >= c} = i (y - x) tail(i-1, x, c).
        Collected, with x (tail(i-1, x, c-1) - tail(i-1, x, c)) = tail(i, x, c)
        - tail(i-1, x, c), the y-bracket of the Hamiltonian reappears.
        """
        tail_x, ham_x = self.x_sums(x)
        tail_y = self.x_sums(np.broadcast_to(y, x.shape))[0]
        bracket = self.y_sums(y) - ham_x
        window = self.i * (y * bracket - (tail_x - ham_x)) - (self.c - 1.0) * (tail_y - tail_x)
        defaults = _class_sum(self.mass * tail_x) + self.defaulted_mass
        out = self._flow(tail_x), defaults, _class_sum(self.mass * window)
        return out if coef is None else out + (_class_sum(coef * bracket),)

    def _coef(self, cost: float, v) -> np.ndarray:
        return np.maximum(-cost, self.j * v - 1.0) * self.imass

    def hamiltonian(self, cost: float, v, y: np.ndarray, ham_x: np.ndarray) -> np.ndarray:
        """H(y, v) per point, from tail(i-1, x, c) at the optimal starts x."""
        return _class_sum(self._coef(cost, v) * (self.y_sums(y) - ham_x))

    def hamiltonian_range(self, cost: float, v) -> tuple[np.ndarray, np.ndarray]:
        """Bounds on H(y, v) over every y, per multiplier v: each class's bracket
        tail(i-1, y, c-1) - tail(i-1, x, c) lies in [0, 1] for 0 <= x <= y."""
        coef = self._coef(cost, v)
        return _class_sum(np.minimum(coef, 0.0)), _class_sum(np.maximum(coef, 0.0))

    def hamiltonian_parts(self, cost: float, v, y: np.ndarray) -> tuple[np.ndarray, ...]:
        """(H, U, W) per point: H(y, v) as `hamiltonian` at the optimal starts
        x(y, v) with z = y, and the class sums U of coef+ T1 - coef- T2 and W
        of coef+ T2 - coef- T1, so that H = U - W, both rising with y; coef+-
        are the positive and negative parts of each class's coefficient and
        T1 = tail(i-1, y, c-1), T2 = tail(i-1, x, c) the tails of its bracket."""
        tail_y, tail_x = self.y_sums(y), self.x_sums(self.starts(cost, v, y, y))[1]
        coef = self._coef(cost, v)
        pos, neg = np.maximum(coef, 0.0), np.minimum(coef, 0.0)
        return (_class_sum(coef * (tail_y - tail_x)), _class_sum(pos * tail_y - neg * tail_x),
                _class_sum(pos * tail_x - neg * tail_y))

    def residuals(self, cost: float, y: np.ndarray, v, z) -> tuple[np.ndarray, np.ndarray]:
        """Both residuals at the points y; v and z are numbers or arrays like y."""
        tail_x, ham_x = self.x_sums(self.starts(cost, v, y, z))
        return self.equations(y, v, self.hamiltonian(cost, v, y, ham_x), self._flow(tail_x))

    def equations(self, y, v, ham, flow) -> tuple[np.ndarray, np.ndarray]:
        """The two program residuals, (1-y)(H - lam v) and outflow - y."""
        return (1.0 - y) * (ham - self.lam * v), flow - y


def _column(values) -> np.ndarray:
    return np.array(values, dtype=float).reshape(-1, 1)


def _class_sum(a: np.ndarray) -> np.ndarray:
    """Sum over classes (axis 0), in the same order for every batch size."""
    return np.ascontiguousarray(a.T).sum(axis=1)


def _pack(p: JointDistribution) -> _ClassPack:
    try:
        return p._class_pack  # type: ignore[attr-defined]
    except AttributeError:
        pack = _ClassPack(p)
        object.__setattr__(p, "_class_pack", pack)
        return pack


def _over_points(fn, *args):
    """fn(*args) over points, in chunks of _RESIDUAL_BATCH points.

    The args are floats or 1-D arrays that broadcast together.  `fn` returns a
    tuple of per-point arrays; the result is that tuple, of floats if every
    input is.  Up to _RESIDUAL_BATCH points are one call of fn, whose arrays
    are the result as they are.
    """
    scalar = all(np.ndim(a) == 0 for a in args)
    args = [np.asarray(a, dtype=float).reshape(-1) for a in args]
    if any(a.shape != args[0].shape for a in args):
        args = np.broadcast_arrays(*args)
    if len(args[0]) <= _RESIDUAL_BATCH:
        cols = fn(*args)
    else:
        cols = tuple(np.concatenate(col) for col in zip(*(
            fn(*(a[s:s + _RESIDUAL_BATCH] for a in args))
            for s in range(0, len(args[0]), _RESIDUAL_BATCH))))
    if scalar:
        return tuple(float(col[0]) for col in cols)
    return cols


def _fixed_outflow(pk: _ClassPack, first: np.ndarray, y):
    """Outflow at y for start times x = min(first, y); first is a start column
    that does not depend on y (inf where a class is never aided)."""
    return _over_points(lambda y: (pk.outflow(np.minimum(first, y)),), y)[0]


def _fixed_limits(pk: _ClassPack, first: np.ndarray, y):
    """(outflow, defaults, aid) at y for start times x = min(first, y)."""
    return _over_points(lambda y: pk.limits(np.minimum(first, y), y), y)


# ---------------------------------------------------------------------------
# limits: each picks the start array x and evaluates the pack
# ---------------------------------------------------------------------------

def default_outflow(p: JointDistribution, y):
    """Scaled out-degree of the default set when an in-link end defaults w.p. y.

    No aid (x = y).  Elementwise for an ndarray y, as `smallest_fixed_point`
    requires.
    """
    pk = _pack(p)
    return _fixed_outflow(pk, pk.never, y)


def default_fraction(p: JointDistribution, y):
    """Defaulted node share at link-default probability y, no interventions."""
    pk = _pack(p)
    return _fixed_limits(pk, pk.never, y)[1]


def controlled_limits(p: JointDistribution, cost: float, y, v, z):
    """(outflow, defaults, aid) under the optimal threshold policy at (y, v, z).

    The singular classes start at z: their aid is p(i,j,i) * (y^i - z^i),
    exactly the mass whose last in-stub is revealed inside [z, y].
    """
    pk = _pack(p)
    return _over_points(
        lambda y, v, z: pk.limits(pk.starts(cost, v, y, z), y), y, v, z)


def _residuals_and_limits(p: JointDistribution, cost: float, y, v, z):
    """(first residual, second residual, outflow, defaults, aid) per point:
    `program_residuals` and `controlled_limits` bit for bit, from one
    evaluation of the tails at the optimal starts."""
    pk = _pack(p)

    def values(y, v, z):
        flow, dflt, aid, ham = pk.limits(pk.starts(cost, v, y, z), y, pk._coef(cost, v))
        return *pk.equations(y, v, ham, flow), flow, dflt, aid

    return _over_points(values, y, v, z)


def default_outflow_controlled(p: JointDistribution, cost: float, y, v, z):
    """Out-link flow of the default set under the threshold policy: the first
    of `controlled_limits`, bit for bit, without the other two."""
    pk = _pack(p)
    return _over_points(lambda y, v, z: (pk.outflow(pk.starts(cost, v, y, z)),), y, v, z)[0]


def terminal_hamiltonian(p: JointDistribution, cost: float, y, v):
    """Left side of the terminal stationarity equation H(y, v) = lam * v."""
    pk = _pack(p)

    def ham(y, v):
        # the singular rows have c = i, where tail(i-1, x, c) = 0 whatever x
        return (pk.hamiltonian(cost, v, y, pk.x_sums(pk.starts(cost, v, y, y))[1]),)

    return _over_points(ham, y, v)[0]


def _hamiltonian_cells(p: JointDistribution, cost: float, y: np.ndarray, v: np.ndarray):
    """(H, low, high): H(y, v) at the points y (rows x points, ascending along
    each row) of one multiplier v per row, bitwise `terminal_hamiltonian`'s,
    and a lower and an upper bound of H over each span between neighbouring
    points (rows x points - 1).

    On a span [y0, y1] each class's start x(y) does not decrease in y, and
    both tails of its bracket rise with their argument.  Its coefficient
    does not depend on y, so H = U - W with U and W of `hamiltonian_parts`
    both rising in y, and H lies in [U(y0) - W(y1), U(y1) - W(y0)].  The
    bounds hold in exact arithmetic; the caller allows for rounding.
    """
    pk = _pack(p)
    ham, u, w = (part.reshape(y.shape) for part in _over_points(
        lambda y, v: pk.hamiltonian_parts(cost, v, y), y.ravel(), np.repeat(v, y.shape[1])))
    return ham, u[:, :-1] - w[:, 1:], u[:, 1:] - w[:, :-1]


def program_residuals(p: JointDistribution, cost: float, y, v, z):
    """((1-y)(H - lam v), controlled outflow - y): the two program equations.

    The solver's evaluation of both equations, but for the candidate
    builder's, which takes them from `_residuals_and_limits`.  Takes scalar
    or array inputs: y, v and z are numbers or equal-length 1-D arrays (a
    number broadcasts against arrays).  Numbers give a pair of floats, arrays
    a pair of arrays, evaluated in chunks of _RESIDUAL_BATCH points.
    """
    pk = _pack(p)
    return _over_points(lambda y, v, z: pk.residuals(cost, y, v, z), y, v, z)


# ---------------------------------------------------------------------------
# limits under fixed start times (never / always / degree band / table)
# ---------------------------------------------------------------------------

def _check_keeps_aiding(p: JointDistribution, policy: InterventionPolicy) -> None:
    """Reject start times that rise with the cushion on a class of p.

    A node of initial cushion c0 passes through cushions c0..i as it is aided;
    wherever the policy aids at cushion c, it must aid at c + 1 no later.
    """
    for i, j, c0, _mass in p.vulnerable_items():
        if c0 == 0:
            continue  # defaulted from the start, never aided
        for c in range(c0, i):
            x, x_next = policy.start(i, j, c), policy.start(i, j, c + 1)
            if x is not None and (x_next is None or x_next > x):
                later = "never" if x_next is None else x_next
                raise ParameterError(
                    f"class {(i, j, c + 1)} is aided from {later}, later than {(i, j, c)} "
                    f"from {x}: a node aided once must be aided at every later loss "
                    f"for the limits to hold"
                )


def forced_policy_limits(
    p: JointDistribution, policy: InterventionPolicy
) -> tuple[float, bool, float, float]:
    """(y*, stable, defaults limit, interventions limit) under fixed start times.

    A class aided from scaled time x on defaults when c of its in-links are
    revealed before min(x, y); a class the policy never aids uses y itself.
    That holds when a node, once aided, is aided at every later loss: aid
    moves it from cushion c to c + 1, so the start time may not rise with the
    cushion (see `_check_keeps_aiding`).  Covers every policy whose start
    times do not depend on the horizon: the no-aid, full-aid and degree-band
    policies and explicit threshold tables, whose limits follow the same
    fixed-point structure as the optimal one.  Each call searches its fixed
    point with `smallest_fixed_point`, as nothing keeps one between calls.
    """
    _check_keeps_aiding(p, policy)
    pk = _pack(p)
    first = pk.start_column(policy)
    y_star, stable = smallest_fixed_point(lambda y: _fixed_outflow(pk, first, y))
    _flow, defaults, aid = _fixed_limits(pk, first, y_star)
    return y_star, stable, defaults, aid
