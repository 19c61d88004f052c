"""Class-by-class forms of the terminal limits: independent test oracles.

The package evaluates every terminal limit as one batched sum over the
classes of a distribution (`asymptotics._ClassPack`).  The functions here
compute the same quantities one class at a time, from the defining
polynomials: P(Bin(i, x) >= c) term by term, the aid window as its double
sum over the links revealed before and inside [x, y], and the singular
classes as an explicit correction p(i,j,i) * (y^i - z^i) on top of the
regular start times, which come from the scalar three-regime formula.  The
singular out-degrees are detected here too, by the package's rule written
out again (`singular_out_degrees`), so of the package only
`smallest_fixed_point` is shared.  `integrate_rk4` integrates the state ODEs
numerically, an oracle for the closed-form trajectories: it derives the
vulnerable pairs, the state list, the initial masses, the start times, the
controls on each leg and the switch times itself from `p.entries`, `p.mass`
and `policy.start`, and uses the package's `Trajectory` only to hold its
result.  Tests compare the package against them; nothing in the package
calls them.
"""

from __future__ import annotations

import math
from math import comb

import numpy as np

from contagion_control.asymptotics import Trajectory, smallest_fixed_point
from contagion_control.cascade import InterventionPolicy
from contagion_control.distribution import JointDistribution
from contagion_control.errors import ParameterError


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
    if c >= 1 and K * y > 0.0 and c < i + w / (K * y):
        denom = (i - c + 1) * K + v * j - 1.0
        if denom <= 1e-300:
            return 0.0
        return 1.0 - (1.0 - y) * ((i - c) * K) / denom
    return 0.0


def singular_out_degrees(p: JointDistribution, cost: float, v: float) -> set[int]:
    """Out-degrees j whose aid coefficient v j - 1 + cost vanishes, to
    1e-12 max(1, |1 - cost|): wide enough for v = (1 - cost) / j, rounded."""
    band = 1e-12 * max(1.0, abs(1.0 - cost))
    return {j for (_i, j, _c) in p.entries if abs(v * j - 1.0 + cost) <= band}


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


def _regular_start(i, j, c, cost, v, y, sing):
    """`intervention_start`, except that a singular class (c = i, j in `sing`)
    waits for y: its own start z enters through `_singular_correction`."""
    if c == i and j in sing:
        return y
    return intervention_start(i, j, c, cost, v, y)


def _singular_correction(p: JointDistribution, y: float, z: float,
                         sing: set[int], weight_by_j: bool) -> float:
    tot = 0.0
    for i, j, c, mass in p.vulnerable_items():
        if c == i and j in sing:
            tot += (j if weight_by_j else 1) * mass * (y**i - z**i)
    return tot


def default_outflow_controlled(
    p: JointDistribution, cost: float, y: float, v: float, z: float,
) -> float:
    """Out-link flow of the default set under the threshold policy."""
    sing = singular_out_degrees(p, cost, v)
    tot = 0.0
    for i, j, c, mass in p.vulnerable_items():
        x = _regular_start(i, j, c, cost, v, y, sing)
        tot += j * mass * binom_tail(i, x, c)
    tot -= _singular_correction(p, y, z, sing, weight_by_j=True)
    return tot / p.lam


def default_fraction_controlled(
    p: JointDistribution, cost: float, y: float, v: float, z: float,
) -> float:
    """Defaulted node share under the threshold policy."""
    sing = singular_out_degrees(p, cost, v)
    tot = 0.0
    for i, j, c, mass in p.vulnerable_items():
        x = _regular_start(i, j, c, cost, v, y, sing)
        tot += mass * binom_tail(i, x, c)
    tot -= _singular_correction(p, y, z, sing, weight_by_j=False)
    return tot


def intervention_volume(
    p: JointDistribution, cost: float, y: float, v: float, z: float,
) -> float:
    """Scaled count of aid units under the threshold policy.

    Singular classes contribute p(i,j,i) * (y^i - z^i): exactly the mass whose
    last in-stub is revealed inside the window [z, y].  (That equals the
    general window sum evaluated with start z, and is what the intervention
    rate integrates to; it enters with a positive sign.)
    """
    sing = singular_out_degrees(p, cost, v)
    tot = 0.0
    for i, j, c, mass in p.vulnerable_items():
        if c >= 1:
            x = _regular_start(i, j, c, cost, v, y, sing)
            tot += mass * _interventions_per_class(i, c, x, y)
    tot += _singular_correction(p, y, z, sing, weight_by_j=False)
    return tot


def terminal_hamiltonian(p: JointDistribution, cost: float, y: float, v: float) -> float:
    """Left side of the terminal stationarity equation H(y, v) = lam * v."""
    tot = 0.0
    for i, j, c, mass in p.vulnerable_items():
        if c >= 1:
            x = intervention_start(i, j, c, cost, v, y)
            bracket = binom_tail(i - 1, y, c - 1) - binom_tail(i - 1, x, c)
            tot += max(-cost, v * j - 1.0) * i * mass * bracket
    return tot


def _start(x, y):
    # a class aided from x starts at min(x, y), a class never aided at y
    return y if x is None else np.minimum(x, y)


def forced_outflow(p: JointDistribution, policy: InterventionPolicy, y):
    """Outflow at y under fixed start times; elementwise for an ndarray y."""
    tot = 0.0
    for i, j, c, mass in p.vulnerable_items():
        tot += j * mass * binom_tail(i, _start(policy.start(i, j, c), y), c)
    return tot / p.lam


def forced_limits_at(p: JointDistribution, policy: InterventionPolicy,
                     y: float) -> tuple[float, float]:
    """(defaults, aid) at y under fixed start times."""
    classes = [(i, c, mass, _start(policy.start(i, j, c), y))
               for i, j, c, mass in p.vulnerable_items()]
    defaults = sum(mass * binom_tail(i, x, c) for i, c, mass, x in classes)
    aid = sum(mass * _interventions_per_class(i, c, x, y)
              for i, c, mass, x in classes if c >= 1)
    return float(defaults), float(aid)


def forced_policy_limits(
    p: JointDistribution, policy: InterventionPolicy
) -> tuple[float, bool, float, float]:
    """(y*, stable, defaults limit, interventions limit) under fixed start times.

    The smallest fixed point of `forced_outflow` and the limits there.  They
    hold when a node, once aided, is aided at every later loss (the package
    checks this in `_check_keeps_aiding`; this form does not, so pass only
    tables that keep aiding).
    """
    y_star, stable = smallest_fixed_point(lambda y: forced_outflow(p, policy, y))
    return (y_star, stable, *forced_limits_at(p, policy, y_star))


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
    pairs = sorted({(i, j) for (i, j, c), m in p.entries.items() if 1 <= c <= i and m > 0})
    # cushions 1..i at every loss count below them, and the rescued (i + 1, i)
    states = [(i, j, c, l) for i, j in pairs for c in range(1, i + 2) for l in range(c)
              if c <= i or l == i]
    idx = {key: r for r, key in enumerate(states)}
    vec = np.array([p.mass(i, j, c) if l == 0 and c <= i else 0.0 for i, j, c, l in states])
    start_at = {(i, j, c): lam * x for i, j in pairs for c in range(1, i + 1)
                if (x := policy.start(i, j, c)) is not None}

    def matrix(aided: set) -> np.ndarray:
        mat = np.zeros((len(states), len(states)))
        for (i, j, c, l) in states:
            row = idx[(i, j, c, l)]
            mat[row, row] -= i - l
            src = (i, j, c, l - 1)
            if l >= 1 and src in idx:
                mat[row, idx[src]] += i - l + 1
            if l == c - 1 and c >= 2 and (i, j, c - 1) in aided:
                mat[row, idx[(i, j, c - 1, c - 2)]] += i - l + 1
        return mat

    prev = 0.0
    for t_next in sorted({t for t in start_at.values() if 0.0 < t < tau}) + [tau]:
        if t_next <= prev:
            continue
        mat = matrix({key for key, t in start_at.items() if prev >= t - 1e-12})
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
