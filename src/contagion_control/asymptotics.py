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
  on the singular classes (`singular_rows`: c = i with a vanishing aid
  coefficient), whose start is a free variable (`controlled_limits`,
  `default_outflow_controlled`, `terminal_hamiltonian` and
  `program_residuals`, the solver's two equations);
- fixed start times: x = min(policy.start(i, j, c), y), or y where the policy
  never aids (`forced_policy_limits`).

`_ClassPack` is the only code that sums over classes: for a start array it
gives the default outflow, the defaulted share and the aid volume, and the
Hamiltonian H(y, v) of the terminal stationarity equation H = lam * v, with
its range over y.
`is_stable` is the one stability test of a fixed point, and `bisect` the one
bisection.  The class-by-class scalar forms of these sums are kept in the test
suite (`tests/scalar_limits.py`) as independent oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Callable

import numpy as np

from .cascade import InterventionPolicy
from .distribution import JointDistribution
from .errors import ParameterError

StateKey = tuple[int, int, int, int]  # (i, j, c, l)
ClassKey = tuple[int, int, int]

_SINGULAR_TOL = 1e-12
MAX_IN_DEGREE = 1030  # above it C(i - 1, k) exceeds the largest float: C(1030, 515) ~ 2.9e308
# the fixed-point scan's grid k / _SCAN_GRID, bracket width and block size,
# and points per residual batch, which bounds the temporaries to a few MB
_SCAN_GRID = 4096
_SCAN_TOL = 1e-12
_SCAN_BLOCK = 64
_RESIDUAL_BATCH = 512
# most points per call of the function that `bisect` bisects
_BISECT_POINTS = 64
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


@lru_cache(maxsize=None)
def _link_binomials(i: int) -> np.ndarray:
    """C(i - r, l - r) at [r, l], and 0 below the diagonal."""
    return np.array([[comb(i - r, l - r) if l >= r else 0 for l in range(i + 1)]
                     for r in range(i + 1)], dtype=float)


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
    """Smallest y in [0, 1] with f(y) = y, and whether f `is_stable` there.

    Scans the grid k / _SCAN_GRID for the first sign change of f(y) - y, then
    bisects it with `bisect` to a bracket at most _SCAN_TOL wide.  Assumes
    f continuous and increasing with f(1) <= 1, so y = 1 is always a fallback
    fixed point; f must accept an ndarray.  The grid runs in blocks (a, b] of
    _SCAN_BLOCK points, and one call evaluates f at every a, y = 0 among them.
    As f increases, a block with f(a) - b > 1e-12 cannot hold the crossing;
    the scan evaluates the others in order, one call each, until one crosses.
    """
    starts = np.arange(0, _SCAN_GRID, _SCAN_BLOCK)
    ends = np.minimum(starts + _SCAN_BLOCK, _SCAN_GRID)
    f_a = np.asarray(f(starts / _SCAN_GRID), dtype=float)
    y_star = 0.0 if f_a[0] <= 0.0 else 1.0
    crossing = ~(f_a - ends / _SCAN_GRID > 1e-12) & (f_a[0] > 0.0)
    for a, b in zip(starts[crossing].tolist(), ends[crossing].tolist()):
        ys = np.arange(a + 1, b + 1) / _SCAN_GRID
        gs = np.asarray(f(ys), dtype=float) - ys
        below = np.flatnonzero(gs <= 0.0)
        if below.size:
            k = below[0]
            hi = float(ys[k])
            lo = hi if gs[k] == 0.0 else (a + k) / _SCAN_GRID  # the last point with g > 0
            _lo, hi, _g = bisect(lambda _b, mid: f(mid) - mid, [lo], [hi], [np.nan],
                                 keep_left=lambda _g_lo, g_mid: ~(g_mid > 0.0),
                                 settled=lambda lo, hi, _mid: hi - lo <= _SCAN_TOL)
            y_star = float(hi[0])
            break
    return y_star, bool(is_stable(f, [y_star])[0])


def bisect(g, lo, hi, g_lo, keep_left, settled, levels=np.inf):
    """Bisect the brackets [lo, hi] together, several levels per call of g.

    The one bisection of the package, for `smallest_fixed_point` and the
    solver's root scans.  A bracket halves as a one-midpoint loop would: at
    mid = 0.5 * (lo + hi) it stops for good if `settled(lo, hi, mid)`, else it
    keeps [lo, mid] if `keep_left(g_lo, g(mid))` and otherwise [mid, hi],
    with g_lo = g(mid); at most `levels` halvings in all.  Each call
    `g(brackets, points)` evaluates the 2^d - 1 midpoints of the next d levels
    of every unsettled bracket's bisection tree, each computed as the loop
    would compute it, with d the largest depth that keeps brackets * (2^d - 1)
    <= _BISECT_POINTS, and at least 1.  The walk through those levels then
    takes each bracket's own path.  So (lo, hi, g_lo), returned as arrays,
    are the loop's, provided g's value at a point does not depend on the
    batch it is evaluated in.
    """
    lo, hi, g_lo = (np.array(x, dtype=float) for x in (lo, hi, g_lo))
    live = np.arange(len(lo))
    done = 0
    while done < levels:
        live = live[~settled(lo[live], hi[live], 0.5 * (lo[live] + hi[live]))]
        if not live.size:
            break
        d = min(max((_BISECT_POINTS // live.size + 1).bit_length() - 1, 1), levels - done)
        # the tree in breadth-first order: level l holds 2^l midpoints
        a, b, tree = lo[live, None], hi[live, None], []
        for _ in range(d):
            mid = 0.5 * (a + b)
            tree.append(mid)
            a = np.stack((a, mid), axis=2).reshape(len(live), -1)
            b = np.stack((mid, b), axis=2).reshape(len(live), -1)
        tree = np.concatenate(tree, axis=1)
        vals = np.asarray(g(np.repeat(live, tree.shape[1]), tree.ravel()),
                          dtype=float).reshape(tree.shape)
        rows, node = np.arange(len(live)), np.zeros(len(live), dtype=int)
        a, b, g_a = lo[live], hi[live], g_lo[live]
        walking = np.ones(len(live), dtype=bool)
        for level in range(d):
            col = (1 << level) - 1 + node
            mid, g_mid = tree[rows, col], vals[rows, col]
            walking &= ~settled(a, b, mid)
            left = keep_left(g_a, g_mid)
            right = walking & ~left
            b = np.where(walking & left, mid, b)
            a, g_a = np.where(right, mid, a), np.where(right, g_mid, g_a)
            node = 2 * node + ~left
        lo[live], hi[live], g_lo[live] = a, b, g_a
        done += d
    return lo, hi, g_lo


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
    denom = (i - c + 1.0) * cost + vj - 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        interior = 1.0 - (1.0 - y) * ((i - c) * cost) / denom
        # a subnormal y can make cost * y zero: w / 0 is then -inf, the immediate regime
        interior_regime = (c < i + w / (cost * y)) & (y > 0.0)
    x = np.where(interior_regime & (denom > 1e-300), interior, 0.0)
    return np.where(w >= 0.0, y, x)


def singular_rows(i, j, c, cost: float, v, singular_j: int | None):
    """Mask of the singular classes, whose aid start is the free variable z.

    A class is singular when c = i and its aid coefficient vanishes,
    |j v - 1 + cost| <= 1e-12, or when its out-degree is `singular_j` (stage B
    pins v = (1 - cost) / j, where the rounded coefficient may miss zero).
    Arguments broadcast elementwise, `singular_j` too (a per-point array in
    stage B's batch); None or NaN equals no out-degree, so it marks none.
    """
    return ((np.abs(j * v - 1.0 + cost) <= _SINGULAR_TOL) | (j == singular_j)) & (c == i)


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
        n = [i - c for (i, _j, c, _m) in rows]
        self.max_n = max(n, default=0)
        self.first = np.searchsorted(n, np.arange(self.max_n + 2), side="left")
        # coefficient a of the Horner sum only reaches the rows with n > a
        self.window = [_column([comb(i - 1, c + a) for (i, _j, c, _m) in rows[self.first[a + 1]:]])
                       for a in range(self.max_n)]
        self.edge = _column([comb(i - 1, c - 1) for (i, _j, c, _m) in rows])
        # y-side table, row q * G + g for in-degree group g of degree d:
        # C(d, q) y^(d-q) (1-y)^q, zero for q > d.  Summed over q <= n it is
        # tail(d, y, d - n) = tail(i-1, y, c-1) for d = i - 1, n = i - c.
        degrees = sorted({i - 1 for (i, _j, _c, _m) in rows})
        groups, width = len(degrees), max(degrees, default=0) + 1
        self.y_m = np.zeros(width * groups, dtype=int)
        self.y_e = np.zeros(width * groups, dtype=int)
        self.y_binom = np.zeros((width * groups, 1))
        for g, d in enumerate(degrees):
            for q in range(d + 1):
                r = q * groups + g
                self.y_m[r], self.y_e[r], self.y_binom[r] = d - q, q, comb(d, q)
        self.y_shape = (width, groups)
        group = {d: g for g, d in enumerate(degrees)}
        self.y_index = np.array([(i - c) * groups + group[i - 1] for (i, _j, c, _m) in rows],
                                dtype=int)

    def start_column(self, policy: InterventionPolicy) -> np.ndarray:
        """policy.start per row (inf where it never aids); x = min(column, y)."""
        return _column([np.inf if (x := policy.start(*key)) is None else x
                        for key in self.keys])

    def starts(self, cost: float, v, y: np.ndarray, z, singular_j: int | None) -> np.ndarray:
        """Start times x (classes x points) of the optimal policy.

        `_optimal_starts` on every row, except that the `singular_rows` start
        at z.
        """
        x = _optimal_starts(self.i, self.j, self.c, cost, v, y)
        # the classes with c = i lead the rows (n = 0)
        top = slice(0, self.first[1])
        sing = singular_rows(self.i[top], self.j[top], self.c[top], cost, v, singular_j)
        if sing.any():
            x[top] = np.where(sing, z, x[top])
        return x

    def x_sums(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(tail(i, x, c), tail(i-1, x, c)) per class and point, by nested Horner
        steps.  numpy picks its routine for x ** c by the operands' layout: with
        c a whole array, not broadcast along the points, it is the same for
        any batch."""
        first, s = self.first, 1.0 - x
        acc = np.zeros_like(x)
        edge = np.ones_like(x)  # becomes (1-x)^n
        power = np.ones_like(x[first[1]:])  # x^a on the rows with n > a
        for a in range(self.max_n):
            lo = first[a + 1]
            if a:
                power = power[lo - first[a]:] * x[lo:]
            acc[lo:] += self.window[a] * power
            acc[first[a + 2]:] *= s[first[a + 2]:]
            edge[lo:] *= s[lo:]
        xc = x ** np.broadcast_to(self.c, x.shape).copy()
        ham = xc * acc
        return ham + xc * self.edge * edge, ham

    def y_sums(self, y: np.ndarray) -> np.ndarray:
        """tail(i-1, y, c-1) per class and point."""
        width, groups = self.y_shape
        ypow = np.ones((width, len(y)))
        opow = np.ones((width, len(y)))
        ypow[1:] = y
        opow[1:] = 1.0 - y
        np.cumprod(ypow, axis=0, out=ypow)
        np.cumprod(opow, axis=0, out=opow)
        tails = ypow[self.y_m] * opow[self.y_e] * self.y_binom
        for q in range(1, width):
            tails[q * groups:(q + 1) * groups] += tails[(q - 1) * groups:q * groups]
        return tails[self.y_index]

    def _flow(self, tail_x: np.ndarray) -> np.ndarray:
        return (_class_sum(self.jmass * tail_x) + self.defaulted_flow) / self.lam

    def outflow(self, x: np.ndarray) -> np.ndarray:
        """Scaled out-link flow of the default set per point; a class defaults
        when c of its i in-links are revealed before its start x."""
        return self._flow(self.x_sums(x)[0])

    def limits(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(outflow, defaults, aid) per point for start times x <= y.

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
        window = (self.i * (y * (self.y_sums(y) - ham_x) - (tail_x - ham_x))
                  - (self.c - 1.0) * (tail_y - tail_x))
        defaults = _class_sum(self.mass * tail_x) + self.defaulted_mass
        return self._flow(tail_x), defaults, _class_sum(self.mass * window)

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

    def residuals(self, cost: float, y: np.ndarray, v, z,
                  singular_j: int | None) -> tuple[np.ndarray, np.ndarray]:
        """Both residuals at the points y; v, z and singular_j are numbers or arrays like y."""
        tail_x, ham_x = self.x_sums(self.starts(cost, v, y, z, singular_j))
        ham = self.hamiltonian(cost, v, y, ham_x)
        return (1.0 - y) * (ham - self.lam * v), self._flow(tail_x) - y


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


def _over_points(fn, y, *args):
    """fn(y, *args) over points, in chunks of _RESIDUAL_BATCH points.

    y and args are floats or equal-length 1-D arrays; y sets the batch, and a
    float arg stays a float, so the per-class terms that depend on it alone
    (stage B pins v) are computed once per chunk.  `fn` returns a tuple of
    per-point arrays; the result is that tuple, of floats if every input is.
    """
    y, *args = (np.asarray(a, dtype=float) for a in (y, *args))
    scalar = y.ndim == 0 and all(a.ndim == 0 for a in args)
    n = np.broadcast_shapes(y.shape, *(a.shape for a in args), (1,))[0]
    y = np.broadcast_to(y, (n,))

    def chunk(a, s):
        return a[s:s + _RESIDUAL_BATCH] if a.ndim else a

    parts = [fn(chunk(y, s), *(chunk(a, s) for a in args))
             for s in range(0, max(n, 1), _RESIDUAL_BATCH)]
    cols = tuple(np.concatenate(col) for col in zip(*parts))
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


def controlled_limits(
    p: JointDistribution, cost: float, y, v, z, singular_j: int | None = None,
):
    """(outflow, defaults, aid) under the optimal threshold policy at (y, v, z).

    The singular classes start at z: their aid is p(i,j,i) * (y^i - z^i),
    exactly the mass whose last in-stub is revealed inside [z, y].
    """
    pk = _pack(p)
    return _over_points(
        lambda y, v, z: pk.limits(pk.starts(cost, v, y, z, singular_j), y), y, v, z)


def default_outflow_controlled(
    p: JointDistribution, cost: float, y, v, z, singular_j: int | None = None,
):
    """Out-link flow of the default set under the threshold policy."""
    return controlled_limits(p, cost, y, v, z, singular_j)[0]


def terminal_hamiltonian(p: JointDistribution, cost: float, y, v):
    """Left side of the terminal stationarity equation H(y, v) = lam * v."""
    pk = _pack(p)

    def ham(y, v):
        # the singular rows have c = i, where tail(i-1, x, c) = 0 whatever x
        return (pk.hamiltonian(cost, v, y, pk.x_sums(pk.starts(cost, v, y, y, None))[1]),)

    return _over_points(ham, y, v)[0]


def program_residuals(
    p: JointDistribution, cost: float, y, v, z, singular_j: int | None = None,
):
    """((1-y)(H - lam v), controlled outflow - y): the two program equations.

    The solver's only evaluation of both equations.  Takes scalar or array
    inputs: y, v, z and `singular_j` are numbers (None for no singular
    out-degree) or equal-length 1-D arrays (a number broadcasts against
    arrays), so each point can carry its own singular out-degree.  Numbers
    give a pair of floats, arrays a pair of arrays, evaluated in chunks of
    _RESIDUAL_BATCH points.
    """
    pk = _pack(p)
    # a None singular_j chunks as NaN, which `singular_rows` reads as None
    return _over_points(
        lambda y, v, z, sj: pk.residuals(cost, y, v, z, sj), y, v, z, singular_j)


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
