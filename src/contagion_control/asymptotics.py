"""Deterministic limits of the scaled contagion process.

State masses s_tau^{i,j,c,l} track, per network class, the fraction of nodes
that started vulnerable and currently sit at equity-plus-aid c with l revealed
in-links.  The index set per (i, j) is {0 <= l < c <= i} plus the rescued state
(i+1, i).  On any interval where the control vector is constant the system of
ODEs has an explicit solution (mixtures of binomial terms in the elapsed-time
variable), which `propagate` evaluates; `integrate_rk4` integrates the same
ODEs numerically and exists purely as a cross-check oracle.

The terminal objects are plain functions of (y, v, z):

- default_outflow / default_fraction: out-link flow and node share of the
  default set when nobody intervenes; the process ends at the smallest fixed
  point of the outflow.
- intervention_start: the scaled time from which a class is worth aiding,
  given the terminal fraction y, the multiplier v and the unit cost.
- controlled counterparts (default_outflow_controlled, ...): the same limits
  under the threshold policy, including the singular classes whose start z is
  a free variable.
- terminal_hamiltonian: left side of the terminal stationarity equation
  H(y, v) = lam * v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb
from typing import Callable

import numpy as np

from .cascade import InterventionPolicy
from .distribution import JointDistribution
from .errors import ParameterError

StateKey = tuple[int, int, int, int]  # (i, j, c, l)
ClassKey = tuple[int, int, int]

_SINGULAR_TOL = 1e-12
# grid points per call of the fixed-point scan, and points per residual batch;
# both bound the temporaries to a few MB
_SCAN_BLOCK = 512
_RESIDUAL_BATCH = 512


# ---------------------------------------------------------------------------
# tail probabilities (exact coefficients; supports are small)
# ---------------------------------------------------------------------------

_COMB_ROWS: dict[int, tuple[int, ...]] = {}


def _comb_row(i: int) -> tuple[int, ...]:
    row = _COMB_ROWS.get(i)
    if row is None:
        row = tuple(comb(i, m) for m in range(i + 1))
        _COMB_ROWS[i] = row
    return row


def binom_tail(i: int, x: float, c: int) -> float:
    """P(Bin(i, x) >= c), evaluated as the defining polynomial in x.

    Elementwise for an ndarray x (no in-place updates, so no aliasing).
    """
    if c <= 0:
        return 1.0
    if c > i:
        return 0.0
    row = _comb_row(i)
    one = 1.0 - x
    pows_x = [1.0] * (i + 1)
    acc = 1.0
    for m in range(1, i + 1):
        acc = acc * x
        pows_x[m] = acc
    tot = 0.0
    po = 1.0
    for m in range(i, c - 1, -1):
        tot = tot + row[m] * pows_x[m] * po
        po = po * one
    return tot


def _interventions_per_class(i: int, c: int, x: float, y: float) -> float:
    """Expected aid units per node of a class intervened on [x, y].

    Of i in-stubs, n are revealed before the start x (the node must survive:
    n < c), another m - n inside the window, i - m never; every window
    revelation at distance one is aided, giving m - c + 1 units.
    """
    yx = y - x
    if yx < 0.0:
        yx = 0.0
    one_m_y = 1.0 - y
    total = 0.0
    for m in range(c, i + 1):
        for n in range(0, c):
            coeff = (m - c + 1) * comb(i, m) * comb(m, n)
            total += coeff * x**n * yx ** (m - n) * one_m_y ** (i - m)
    return total


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


def state_space(p: JointDistribution) -> list[StateKey]:
    """All trackable states for (i, j) pairs carrying vulnerable mass.

    Interventions can push mass into equity levels with zero initial mass, so
    every c in 1..i is present, not just the supported ones.
    """
    keys: list[StateKey] = []
    pairs = sorted(
        {(i, j) for (i, j, c) in p.entries if 1 <= c <= i and p.entries[(i, j, c)] > 0}
    )
    for i, j in pairs:
        for c in range(1, i + 1):
            for l in range(0, c):
                keys.append((i, j, c, l))
        keys.append((i, j, i + 1, i))
    return keys


def initial_trajectory(p: JointDistribution) -> Trajectory:
    s = {}
    for key in state_space(p):
        i, j, c, l = key
        s[key] = p.mass(i, j, c) if (l == 0 and c <= i) else 0.0
    return Trajectory(tau=0.0, lam=p.lam, s=s)


def propagate(traj: Trajectory, tau2: float, controls: dict[ClassKey, int]) -> Trajectory:
    """Closed-form solution over [traj.tau, tau2] with constant controls.

    `controls[(i, j, c)] = 1` means every class-(i, j, c) node one loss from
    default is aided throughout the interval.  Exact for constant controls; the
    trajectory caller is responsible for splitting at control switch times.
    """
    if tau2 < traj.tau:
        raise ParameterError(f"cannot propagate backwards: {tau2} < {traj.tau}")
    if tau2 >= traj.lam:
        raise ParameterError(f"target time {tau2} is not below the mean degree {traj.lam}")
    if tau2 == traj.tau:
        return traj
    lam = traj.lam
    theta = (lam - tau2) / (lam - traj.tau)
    s1 = traj.s
    out: dict[StateKey, float] = {}

    pairs = sorted({(i, j) for (i, j, _c, _l) in s1})
    for i, j in pairs:
        def b(cc: int) -> int:
            return controls.get((i, j, cc), 0)

        def bprod(q: int, hi: int) -> float:
            # controls are 0/1, so the product is an all-on indicator;
            # the empty product (q > hi) is 1
            for k in range(q, hi + 1):
                if not b(k):
                    return 0.0
            return 1.0

        for c in range(1, i + 1):
            for l in range(0, c - 1):
                acc = 0.0
                for r in range(0, l + 1):
                    acc += s1.get((i, j, c, r), 0.0) * comb(i - r, l - r) * (1 - theta) ** (l - r)
                out[(i, j, c, l)] = theta ** (i - l) * acc
            # distance-one state (c, c-1): sources (q, r) climb to c through aid
            acc = 0.0
            for r in range(0, c):
                for q in range(r + 1, c + 1):
                    if bprod(q, c - 1) == 0.0:
                        continue
                    acc += s1.get((i, j, q, r), 0.0) * comb(i - r, c - 1 - r) * (1 - theta) ** (c - 1 - r)
            out[(i, j, c, c - 1)] = theta ** (i - c + 1) * acc
        acc = s1.get((i, j, i + 1, i), 0.0)
        for r in range(0, i):
            for q in range(r + 1, i + 1):
                if bprod(q, i) == 0.0:
                    continue
                acc += s1.get((i, j, q, r), 0.0) * (1 - theta) ** (i - r)
        out[(i, j, i + 1, i)] = acc

    return Trajectory(tau=tau2, lam=lam, s=out)


# ---------------------------------------------------------------------------
# piecewise evaluation under a policy's start times
# ---------------------------------------------------------------------------

def _starts(policy: InterventionPolicy, keys: list[ClassKey]) -> dict[ClassKey, float]:
    """Scaled start times of the classes in `keys` that the policy ever aids."""
    return {key: x for key in keys if (x := policy.start(*key)) is not None}


def _controls_at(starts: dict[ClassKey, float], tau: float, lam: float) -> dict[ClassKey, int]:
    return {key: 1 if tau >= lam * x - 1e-12 else 0 for key, x in starts.items()}


def _control_keys(p: JointDistribution) -> list[ClassKey]:
    keys = []
    for i, j in {(i, j) for (i, j, c) in p.entries if 1 <= c <= i and p.entries[(i, j, c)] > 0}:
        keys.extend((i, j, c) for c in range(1, i + 1))
    return sorted(keys)


def _switch_times(starts: dict[ClassKey, float], lam: float, tau: float) -> list[float]:
    return sorted({t for x in starts.values() if 0.0 < (t := lam * x) < tau})


def trajectory_at(p: JointDistribution, policy: InterventionPolicy, tau: float) -> Trajectory:
    """Closed-form state at scaled time tau under a policy's start times."""
    if not 0.0 <= tau < p.lam:
        raise ParameterError(f"time {tau} outside [0, lam={p.lam})")
    starts = _starts(policy, _control_keys(p))
    traj = initial_trajectory(p)
    for t_next in _switch_times(starts, p.lam, tau) + [tau]:
        traj = propagate(traj, t_next, _controls_at(starts, traj.tau, p.lam))
    return traj


def integrate_rk4(
    p: JointDistribution, policy: InterventionPolicy, tau: float, h: float
) -> Trajectory:
    """Fixed-step RK4 integration of the state ODEs; numerical oracle only.

    Restarts at every control switch so each leg has constant controls.  The
    blow-up at tau = lam caps the domain at 0.95 * lam.
    """
    lam = p.lam
    if tau > 0.95 * lam + 1e-12:
        raise ParameterError(f"time {tau} too close to the singular point lam={lam}")
    if h > 1e-3 * lam * (1 + 1e-9):
        raise ParameterError(f"step {h} too coarse; need h <= 1e-3 * lam")
    starts = _starts(policy, _control_keys(p))
    states = state_space(p)
    idx = {key: r for r, key in enumerate(states)}
    vec = np.zeros(len(states))
    for key, val in initial_trajectory(p).s.items():
        vec[idx[key]] = val

    def matrix(controls: dict[ClassKey, int]) -> np.ndarray:
        mat = np.zeros((len(states), len(states)))
        for (i, j, c, l) in states:
            row = idx[(i, j, c, l)]
            mat[row, row] -= i - l
            src = (i, j, c, l - 1)
            if l >= 1 and src in idx:
                mat[row, idx[src]] += i - l + 1
            if l == c - 1 and c >= 2 and controls.get((i, j, c - 1), 0):
                mat[row, idx[(i, j, c - 1, c - 2)]] += i - l + 1
        return mat

    prev = 0.0
    for t_next in _switch_times(starts, lam, tau) + [tau]:
        if t_next <= prev:
            continue
        mat = matrix(_controls_at(starts, prev, lam))
        n_steps = max(1, int(math.ceil((t_next - prev) / h)))
        hh = (t_next - prev) / n_steps
        t = prev
        for _ in range(n_steps):
            k1 = mat @ vec / (lam - t)
            k2 = mat @ (vec + 0.5 * hh * k1) / (lam - (t + 0.5 * hh))
            k3 = mat @ (vec + 0.5 * hh * k2) / (lam - (t + 0.5 * hh))
            k4 = mat @ (vec + hh * k3) / (lam - (t + hh))
            vec = vec + (hh / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += hh
        prev = t_next

    return Trajectory(tau=tau, lam=lam, s={key: float(vec[idx[key]]) for key in states})


def default_fraction_at(traj: Trajectory, p: JointDistribution) -> float:
    """Scaled defaulted count implied by the trajectory."""
    vulnerable = sum(m for (i, _j, c), m in p.entries.items() if c <= i)
    return vulnerable - sum(traj.s.values())


def hidden_pool_scaled(traj: Trajectory, p: JointDistribution) -> float:
    """Scaled unrevealed out-links of the default set; termination is its first zero."""
    total = sum(j * m for (i, j, c), m in p.entries.items() if c <= i)
    live = sum(j * v for (i, j, _c, _l), v in traj.s.items())
    return total - live - traj.tau


# ---------------------------------------------------------------------------
# no-intervention limits
# ---------------------------------------------------------------------------

def default_outflow(p: JointDistribution, y):
    """Scaled out-degree of the default set when an in-link end defaults w.p. y.

    Elementwise for an ndarray y, as `smallest_fixed_point` requires.
    """
    tot = 0.0
    for i, j, c, mass in p.vulnerable_items():
        tot += j * mass * binom_tail(i, y, c)
    return tot / p.lam


def default_fraction(p: JointDistribution, y: float) -> float:
    """Defaulted node share at link-default probability y, no interventions."""
    return sum(mass * binom_tail(i, y, c) for i, _j, c, mass in p.vulnerable_items())


def smallest_fixed_point(
    f: Callable[[np.ndarray], np.ndarray], grid: int = 4096, tol: float = 1e-12
) -> tuple[float, bool]:
    """Smallest y in [0, 1] with f(y) = y, and whether f'(y) < 1 there.

    Scans the grid k / grid for the first sign change of f(y) - y, then
    bisects.  `f` must accept an ndarray of points (and a float): the scan
    evaluates it on blocks of up to _SCAN_BLOCK grid points per call and stops
    at the first block that crosses zero.  Assumes f continuous and increasing
    with f(1) <= 1, so y = 1 is always a fallback fixed point.
    """
    def g(y: float) -> float:
        return f(y) - y

    y_star = None
    if g(0.0) <= 0.0:
        y_star = 0.0
    else:
        lo = 0.0  # the last grid point seen with g > 0
        for k0 in range(1, grid + 1, _SCAN_BLOCK):
            ys = np.arange(k0, min(k0 + _SCAN_BLOCK, grid + 1)) / grid
            gs = np.asarray(f(ys), dtype=float) - ys
            below = np.flatnonzero(gs <= 0.0)
            if below.size == 0:
                lo = float(ys[-1])
                continue
            k = below[0]
            if k > 0:
                lo = float(ys[k - 1])
            hi = float(ys[k])
            if gs[k] == 0.0:
                lo = hi
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                if g(mid) > 0.0:
                    lo = mid
                else:
                    hi = mid
            y_star = hi
            break
        if y_star is None:
            y_star = 1.0

    h = 1e-6
    lo_pt = max(0.0, y_star - h)
    hi_pt = min(1.0, y_star + h)
    deriv = (f(hi_pt) - f(lo_pt)) / (hi_pt - lo_pt) if hi_pt > lo_pt else float("inf")
    return y_star, bool(deriv < 1.0 - 1e-9)


# ---------------------------------------------------------------------------
# controlled limits
# ---------------------------------------------------------------------------

def intervention_start(
    i: int, j: int, c: int, cost: float, multiplier: float, end_fraction: float
) -> float:
    """Scaled start time of aid for class (i, j, c); equals the horizon when aid never pays.

    Three regimes: the class is not worth aiding (start = end), aid starts
    mid-process (interior formula), or aid starts immediately (start = 0).
    The boundary case sits in the immediate regime (strict inequality).
    """
    K, v, y = cost, multiplier, end_fraction
    w = K + v * j - 1.0
    if w >= 0.0 or c == 0:
        return y
    if c >= 1 and y > 0.0 and c < i + w / (K * y):
        denom = (i - c + 1) * K + v * j - 1.0
        if denom <= 1e-300:
            return 0.0
        return 1.0 - (1.0 - y) * ((i - c) * K) / denom
    return 0.0


def singular_out_degrees(
    p: JointDistribution, cost: float, multiplier: float, singular_j: int | None = None
) -> set[int]:
    """Out-degrees j whose aid coefficient vanishes (v*j - 1 == -cost).

    `singular_j` pins the degree exactly when the caller constructed v as
    (1 - cost) / j; otherwise detection is by a 1e-12 tolerance.
    """
    js = {j for (_i, j, _c) in p.entries}
    out = {j for j in js if abs(multiplier * j - 1.0 + cost) <= _SINGULAR_TOL}
    if singular_j is not None and singular_j in js:
        out.add(singular_j)
    return out


def _singular_correction(p: JointDistribution, y: float, z: float,
                         sing: set[int], weight_by_j: bool) -> float:
    tot = 0.0
    for i, j, c, mass in p.vulnerable_items():
        if c == i and j in sing:
            tot += (j if weight_by_j else 1) * mass * (y**i - z**i)
    return tot


def default_outflow_controlled(
    p: JointDistribution, cost: float, y: float, v: float, z: float,
    singular_j: int | None = None,
) -> float:
    """Out-link flow of the default set under the threshold policy."""
    sing = singular_out_degrees(p, cost, v, singular_j)
    tot = 0.0
    for i, j, c, mass in p.vulnerable_items():
        x = intervention_start(i, j, c, cost, v, y)
        tot += j * mass * binom_tail(i, x, c)
    tot -= _singular_correction(p, y, z, sing, weight_by_j=True)
    return tot / p.lam


def default_fraction_controlled(
    p: JointDistribution, cost: float, y: float, v: float, z: float,
    singular_j: int | None = None,
) -> float:
    """Defaulted node share under the threshold policy."""
    sing = singular_out_degrees(p, cost, v, singular_j)
    tot = 0.0
    for i, j, c, mass in p.vulnerable_items():
        x = intervention_start(i, j, c, cost, v, y)
        tot += mass * binom_tail(i, x, c)
    tot -= _singular_correction(p, y, z, sing, weight_by_j=False)
    return tot


def intervention_volume(
    p: JointDistribution, cost: float, y: float, v: float, z: float,
    singular_j: int | None = None,
) -> float:
    """Scaled count of aid units under the threshold policy.

    Singular classes contribute p(i,j,i) * (y^i - z^i): exactly the mass whose
    last in-stub is revealed inside the window [z, y].  (That equals the
    general window sum evaluated with start z, and is what the intervention
    rate integrates to; it enters with a positive sign.)
    """
    sing = singular_out_degrees(p, cost, v, singular_j)
    tot = 0.0
    for i, j, c, mass in p.vulnerable_items():
        if c >= 1:
            x = intervention_start(i, j, c, cost, v, y)
            tot += mass * _interventions_per_class(i, c, x, y)
    tot += _singular_correction(p, y, z, sing, weight_by_j=False)
    return tot


class _ClassPack:
    """Per-distribution arrays for batched evaluation of the program equations.

    Rows are the vulnerable classes (1 <= c <= i); defaulted classes (c = 0)
    add the constant j * mass to the outflow and nothing to the Hamiltonian.
    Batched arrays are classes x points, so a run of rows is one contiguous
    block.  The rows are sorted by the window length n = i - c, so the rows
    with n >= a are the suffix starting at `first[a]`.  The tails are kept in
    Bernstein form and evaluated with running products (one power, x^c, per
    class), never as monomial expansions, which lose accuracy as i grows:

        tail(i-1, x, c) = x^c sum_{a<n} C(i-1, c+a) x^a (1-x)^(n-1-a)
        tail(i, x, c)   = tail(i-1, x, c) + C(i-1, c-1) x^c (1-x)^n

    The y-bracket tail(i-1, y, c-1) shares y across classes: one table of
    Bernstein terms per in-degree, summed from the top.
    """

    def __init__(self, p: JointDistribution):
        rows = sorted((r for r in p.vulnerable_items() if r[2] >= 1),
                      key=lambda r: r[0] - r[2])
        self.lam = p.lam
        self.defaulted_flow = sum(j * mass for (_i, j, c, mass) in p.vulnerable_items()
                                  if c == 0)

        def column(values):
            return np.array(values, dtype=float).reshape(-1, 1)

        self.i = column([r[0] for r in rows])
        self.j = column([r[1] for r in rows])
        self.c = column([r[2] for r in rows])
        mass = np.array([r[3] for r in rows], dtype=float)
        self.jmass = self.j * mass[:, None]
        self.imass = self.i * mass[:, None]
        n = [i - c for (i, _j, c, _m) in rows]
        self.max_n = max(n, default=0)
        self.first = np.searchsorted(n, np.arange(self.max_n + 2), side="left")
        # coefficient a of the Horner sum only reaches the rows with n > a
        self.window = [column([comb(i - 1, c + a) for (i, _j, c, _m) in rows[self.first[a + 1]:]])
                       for a in range(self.max_n)]
        self.edge = column([comb(i - 1, c - 1) for (i, _j, c, _m) in rows])
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

    def starts(self, cost: float, v, y: np.ndarray) -> np.ndarray:
        """Start times x (classes x points) of `intervention_start`, batched."""
        vj = self.j * v
        w = cost + vj - 1.0
        denom = (self.i - self.c + 1.0) * cost + vj - 1.0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            interior = 1.0 - (1.0 - y) * ((self.i - self.c) * cost) / denom
            cond2 = (self.c < self.i + w / (cost * y)) & (y > 0.0)
        x = np.where(cond2 & (denom > 1e-300), interior, 0.0)
        return np.where(w >= 0.0, y, x)

    def x_sums(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(tail(i, x, c), tail(i-1, x, c)) per class and point, by nested Horner steps."""
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
        xc = x ** self.c
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

    def residuals(self, cost: float, y: np.ndarray, v, z,
                  singular_j: int | None) -> tuple[np.ndarray, np.ndarray]:
        """Both residuals at the points y; v and z are floats or arrays like y."""
        x = self.starts(cost, v, y)
        tail_x, ham_x = self.x_sums(x)
        flow = self.jmass * tail_x
        # the classes with c = i lead the rows (n = 0)
        rows = slice(0, self.first[1])
        sing = np.abs(self.j[rows] * v - 1.0 + cost) <= _SINGULAR_TOL
        if singular_j is not None:
            sing |= self.j[rows] == singular_j
        if sing.any():
            i = self.i[rows]
            flow[rows] -= self.jmass[rows] * np.where(sing, y ** i - z ** i, 0.0)
        coef = np.maximum(-cost, self.j * v - 1.0) * self.imass
        ham = _class_sum(coef * (self.y_sums(y) - ham_x))
        flow = (_class_sum(flow) + self.defaulted_flow) / self.lam
        return (1.0 - y) * (ham - self.lam * v), flow - y


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


def program_residuals(
    p: JointDistribution, cost: float, y, v, z, singular_j: int | None = None,
):
    """((1-y)(H - lam v), controlled outflow - y): the two program equations.

    The solver's only evaluation of both equations; `terminal_hamiltonian`
    and `default_outflow_controlled` compute the same quantities class by
    class and serve as its oracles.  Takes scalar or array inputs: y, v and z
    are floats or equal-length 1-D arrays (a float broadcasts against arrays).
    Floats give a pair of floats, arrays a pair of arrays, evaluated in
    chunks of _RESIDUAL_BATCH points.
    """
    pk = _pack(p)
    y, v, z = (np.asarray(a, dtype=float) for a in (y, v, z))
    scalar = y.ndim == v.ndim == z.ndim == 0
    # y sets the batch; a float v or z stays a float, so the per-class terms
    # that depend on v alone (stage B pins v) are computed once per call
    n = np.broadcast_shapes(y.shape, v.shape, z.shape, (1,))[0]
    y = np.broadcast_to(y, (n,))

    def chunk(a, s):
        return a[s:s + _RESIDUAL_BATCH] if a.ndim else a

    parts = [pk.residuals(cost, chunk(y, s), chunk(v, s), chunk(z, s), singular_j)
             for s in range(0, max(n, 1), _RESIDUAL_BATCH)]
    r1, r2 = (np.concatenate(col) for col in zip(*parts))
    if scalar:
        return float(r1[0]), float(r2[0])
    return r1, r2


def terminal_hamiltonian(p: JointDistribution, cost: float, y: float, v: float) -> float:
    """Left side of the terminal stationarity equation H(y, v) = lam * v."""
    tot = 0.0
    for i, j, c, mass in p.vulnerable_items():
        if c >= 1:
            x = intervention_start(i, j, c, cost, v, y)
            bracket = binom_tail(i - 1, y, c - 1) - binom_tail(i - 1, x, c)
            tot += max(-cost, v * j - 1.0) * i * mass * bracket
    return tot


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
    fixed-point structure as the optimal one.  The fixed-point scan passes y
    as an ndarray, so starts clamp elementwise.
    """
    _check_keeps_aiding(p, policy)
    classes = [(i, j, c, mass, policy.start(i, j, c)) for i, j, c, mass in p.vulnerable_items()]

    def start(x, y):
        return y if x is None else np.minimum(x, y)

    def outflow(y):
        tot = 0.0
        for i, j, c, mass, x in classes:
            tot += j * mass * binom_tail(i, start(x, y), c)
        return tot / p.lam

    y_star, stable = smallest_fixed_point(outflow)
    defaults = sum(mass * binom_tail(i, start(x, y_star), c) for i, _j, c, mass, x in classes)
    aid = sum(
        mass * _interventions_per_class(i, c, start(x, y_star), y_star)
        for i, _j, c, mass, x in classes if c >= 1
    )
    return y_star, stable, float(defaults), float(aid)
