"""Solve the regulator's asymptotic program and extract finite-n policies.

The program minimizes cost * aid + defaults over (y, v, z) subject to the
terminal stationarity equation (1 - y) * H(y, v) = lam * v * (1 - y) and the
fixed-point equation "controlled outflow at y equals y", with the per-class
start times x(y, v) pinned by the three-branch formula and 0 <= z <= y <= 1.

Solving is staged: stage A sets z = y (no singular class) and solves for
(y, v); stage B fixes v = (1 - cost) / j for every out-degree j in the support,
making that degree's cushion-equals-in-degree class singular, and solves for
(y, z).  Each stage is one lockstep Newton batch (`_lockstep_newton`): stage
B's starts of every out-degree run together, each point carrying its own v
and singular out-degree into `program_residuals`.  The reported solution is
the feasible candidate with the smallest objective; boundary candidates y = 0
(nothing to reveal) and y = 1 (everything burns) join the comparison when
feasible.  Every candidate passes one builder, `_candidates`, and is stable by
`asymptotics.is_stable`; the singular classes, in the equations and in
`extract_policy`, are `asymptotics.singular_rows`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .asymptotics import (
    _control_keys,
    _optimal_starts,
    controlled_limits,
    default_outflow,
    default_outflow_controlled,
    is_stable,
    program_residuals,
    singular_rows,
    smallest_fixed_point,
    terminal_hamiltonian,  # noqa: F401  (re-exported: looked up as optimizer.terminal_hamiltonian)
)
from .cascade import InterventionPolicy
from .distribution import JointDistribution
from .errors import ConstructionError, ParameterError

_RESIDUAL_TOL = 1e-9
_DEDUP_TOL = 1e-8

_STAGE_A_Y_STARTS = [round(0.05 + 0.1 * k, 2) for k in range(10)]
_STAGE_A_V_STARTS = [0.0, 1e-3, -1e-3, 1e-2, -1e-2, 0.1, -0.1, 0.3, -0.3, 1.0, -1.0, 3.0, -3.0]
_STAGE_B_Y_STARTS = [0.1, 0.3, 0.5, 0.7, 0.9]
_STAGE_B_Z_SHARES = [0.05, 0.5, 0.95]
_STAGE_A_STARTS = [(y0, v0) for y0 in _STAGE_A_Y_STARTS for v0 in _STAGE_A_V_STARTS]
_STAGE_B_STARTS = [(y0, share * y0) for y0 in _STAGE_B_Y_STARTS for share in _STAGE_B_Z_SHARES]


@dataclass(frozen=True)
class OPSolution:
    """A feasible candidate of the program, with its objective decomposition."""

    end_fraction: float      # y: terminal revealed-link fraction, also T/m limit
    multiplier: float        # v: terminal-constraint multiplier
    singular_start: float    # z: aid start of the singular classes (= y if none)
    objective: float         # cost * interventions + defaults
    interventions: float     # scaled aid volume
    defaults: float          # scaled defaulted-node fraction
    stable: bool             # controlled outflow has slope < 1 at y (or y = 1)
    branch: str              # "stage_a" | "stage_b:j=.." | "boundary:.."
    residuals: tuple[float, float]
    singular_j: int | None = None

    @property
    def feasible(self) -> bool:
        return max(abs(self.residuals[0]), abs(self.residuals[1])) < _RESIDUAL_TOL


def _make_solution(p, cost, y, v, z, branch, singular_j) -> OPSolution:
    res = program_residuals(p, cost, y, v, z, singular_j)
    _flow, dflt, aid = controlled_limits(p, cost, y, v, z, singular_j)
    stable = (is_stable(lambda y: default_outflow_controlled(p, cost, y, v, z, singular_j), y)
              or y >= 1.0 - 1e-12)
    return OPSolution(
        end_fraction=y, multiplier=v, singular_start=z,
        objective=cost * aid + dflt, interventions=aid, defaults=dflt,
        stable=stable, branch=branch, residuals=res, singular_j=singular_j,
    )


def _solve_2x2(a, b, c, d, r0, r1):
    """Solutions of [[a, b], [c, d]] x = (r0, r1), by LU with partial pivoting.

    The closed form of a 2x2 `np.linalg.solve`, batched; rows whose pivot
    vanishes (an exactly singular system) come back as NaN.
    """
    swap = np.abs(c) > np.abs(a)
    p, q, rp = np.where(swap, c, a), np.where(swap, d, b), np.where(swap, r1, r0)
    s, t, rs = np.where(swap, a, c), np.where(swap, b, d), np.where(swap, r0, r1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        l = s / p
        u = t - l * q
        x1 = (rs - l * rp) / u
        x0 = (rp - q * x1) / p
    singular = (p == 0.0) | (u == 0.0)
    return np.where(singular, np.nan, x0), np.where(singular, np.nan, x1)


def _lockstep_newton(fun, starts, max_iter=80, tol=1e-12):
    """Damped Newton from every start at once; (S, 2) roots, NaN where a start fails.

    `fun(a, b, k)` evaluates both residuals at equal-length arrays of points;
    k holds the index in `starts` of each point's start, so per-start
    constants (stage B's pinned v and singular out-degree) come along with
    the points, and stage A ignores it.  Starts never mix, so a start's path
    does not depend on the others in the batch.  Each start follows the
    scalar rules: stop below `tol`; central-difference Jacobian with h = 1e-6
    * max(1, |x|); full step, else the first of 44 halvings that strictly
    lowers the max-norm; a start that cannot improve
    (or whose step is singular or non-finite) ends there, as a root only if
    its norm is below 1e-9, as after `max_iter` iterations.  The residual
    pieces are smooth between start-time branch switches but only continuous
    across them, so numerical differencing plus backtracking is robust here.
    One iteration makes one batched call for all Jacobian points, one for all
    full steps and, when some full step fails, one for all their halvings.
    """
    def residuals(pts, k):
        r0, r1 = fun(pts[:, 0], pts[:, 1], k)
        return np.stack([r0, r1], axis=1)

    x = np.array(starts, dtype=float)
    f = residuals(x, np.arange(len(x)))
    roots = np.full_like(x, np.nan)
    active = np.flatnonzero(np.isfinite(f).all(axis=1))
    halvings = 0.5 ** np.arange(1, 45)

    def settle(idx, norm):
        # a start that stops short of `tol` counts only below 1e-9
        ok = norm < 1e-9
        roots[idx[ok]] = x[idx[ok]]

    for _ in range(max_iter):
        norm = np.abs(f[active]).max(axis=1)
        done = norm < tol
        roots[active[done]] = x[active[done]]
        active, norm = active[~done], norm[~done]
        if not active.size:
            break
        xa, fa = x[active], f[active]
        h = 1e-6 * np.maximum(1.0, np.abs(xa))
        n = len(active)
        pts = np.repeat(xa[None], 4, axis=0)
        pts[0, :, 0] += h[:, 0]
        pts[1, :, 0] -= h[:, 0]
        pts[2, :, 1] += h[:, 1]
        pts[3, :, 1] -= h[:, 1]
        fp = residuals(pts.reshape(4 * n, 2), np.tile(active, 4)).reshape(4, n, 2)
        d0 = (fp[0] - fp[1]) / (2.0 * h[:, :1])
        d1 = (fp[2] - fp[3]) / (2.0 * h[:, 1:])
        dx = np.stack(_solve_2x2(d0[:, 0], d1[:, 0], d0[:, 1], d1[:, 1],
                                 -fa[:, 0], -fa[:, 1]), axis=1)
        ok = np.isfinite(dx).all(axis=1)
        active, xa, dx, norm = active[ok], xa[ok], dx[ok], norm[ok]
        if not active.size:
            break
        xn = xa + dx
        fn = residuals(xn, active)
        better = np.isfinite(fn).all(axis=1) & (np.abs(fn).max(axis=1) < norm)
        x[active[better]], f[active[better]] = xn[better], fn[better]
        miss = ~better
        if miss.any():
            sub, norm_sub = active[miss], norm[miss]
            xs = xa[miss][:, None, :] + halvings[None, :, None] * dx[miss][:, None, :]
            fs = residuals(xs.reshape(-1, 2), np.repeat(sub, len(halvings))).reshape(xs.shape)
            good = np.isfinite(fs).all(axis=2) & (np.abs(fs).max(axis=2) < norm_sub[:, None])
            found = good.any(axis=1)
            k = good.argmax(axis=1)[found]
            x[sub[found]], f[sub[found]] = xs[found, k], fs[found, k]
            # no halving helps: the start ends where it stands
            settle(sub[~found], norm_sub[~found])
            active = np.setdiff1d(active, sub[~found])
    else:  # max_iter iterations without emptying `active`
        settle(active, np.abs(f[active]).max(axis=1))
    return roots


def _check_cost(cost: float) -> None:
    if not (math.isfinite(cost) and cost > 0):
        raise ParameterError(f"intervention cost must be positive and finite, got {cost}")


def _candidates(p, cost, points, branch, singular_j=None) -> list[OPSolution]:
    """The candidate builder: solutions at the points (y, v, z) that solve both
    program equations, with a finite objective (a NaN one would empty
    solve_op's tie set).  Newton roots and boundary points all pass here."""
    sols = (_make_solution(p, cost, y, v, z, branch, singular_j) for y, v, z in points)
    return [s for s in sols if s.feasible and math.isfinite(s.objective)]


def _root_candidates(p, cost, roots, branch, singular_j=None) -> list[OPSolution]:
    """The candidates at Newton roots, rows (y, v, z), sorted by (y, v, z).

    Failed starts (NaN) are dropped and repeats skipped in start order.  y ~ 1
    makes the first equation vacuous, so a root counts only in 0 <= z <= y <=
    1 - 1e-9 (1e-9 of slack at 0 and y), clamped into it; y = 1 is a boundary.
    """
    seen, points = [], []
    for y, v, z in roots.tolist():
        if math.isnan(y) or any(max(abs(y - a), abs(v - b), abs(z - c)) <= _DEDUP_TOL
                                for a, b, c in seen):
            continue
        seen.append((y, v, z))
        if -1e-9 <= y <= 1.0 - 1e-9 and -1e-9 <= z <= y + 1e-9:
            y = max(y, 0.0)
            points.append((y, v, min(max(z, 0.0), y)))
    return sorted(_candidates(p, cost, points, branch, singular_j),
                  key=lambda s: (s.end_fraction, s.multiplier, s.singular_start))


def solve_stage_a(p: JointDistribution, cost: float) -> list[OPSolution]:
    """Roots of the two terminal equations with z = y, from a grid of starts."""
    _check_cost(cost)
    roots = _lockstep_newton(lambda y, v, _k: program_residuals(p, cost, y, v, y),
                             _STAGE_A_STARTS)
    return _root_candidates(p, cost, roots[:, [0, 1, 0]], "stage_a")


def solve_stage_b(p: JointDistribution, cost: float, j: int | None = None) -> list[OPSolution]:
    """Roots with v pinned to (1 - cost) / j, unknowns (y, z), same equations.

    `j = None` takes every out-degree j > 0 of the support, an int j that
    one.  The 15 starts of every out-degree run as one lockstep batch, each
    carrying its own v and singular out-degree; the roots split back by
    out-degree, and the candidates come in ascending j, as one call per
    out-degree would give them.
    """
    _check_cost(cost)
    support = sorted({jj for (_i, jj, _c) in p.entries if jj > 0})
    if j is not None:
        if j <= 0:
            raise ParameterError(f"singular out-degree must be positive, got {j}")
        if j not in support:
            raise ParameterError(f"out-degree {j} not in the support")
        support = [j]
    if not support:
        return []
    sj = np.repeat(support, len(_STAGE_B_STARTS))
    v = (1.0 - cost) / sj
    roots = _lockstep_newton(lambda y, z, k: program_residuals(p, cost, y, v[k], z, sj[k]),
                             _STAGE_B_STARTS * len(support))
    per_j = np.split(np.insert(roots, 1, v, axis=1), len(support))
    return [sol for jj, r in zip(support, per_j)
            for sol in _root_candidates(p, cost, r, f"stage_b:j={jj}", jj)]


def _solve_multiplier_at(p, cost, y, v_lo=-8.0, v_hi=8.0, grid=400):
    """All v with H(y, v) = lam * v for a fixed y < 1, by scan plus bisection.

    The sign of H - lam v is that of the first program residual, (1 - y)
    times it; the grid is one batched call and the brackets bisect together.
    """
    def g(vs):
        return program_residuals(p, cost, y, vs, y)[0]

    vs = np.linspace(v_lo, v_hi, grid + 1)
    vals = g(vs)
    exact = np.flatnonzero(vals[:-1] == 0.0)
    brackets = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
    lo, hi, g_lo = vs[brackets], vs[brackets + 1], vals[brackets]
    for _ in range(80 if brackets.size else 0):
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        left = g_lo * g_mid <= 0.0
        hi = np.where(left, mid, hi)
        lo, g_lo = np.where(left, lo, mid), np.where(left, g_lo, g_mid)
    found = dict(zip(exact.tolist(), vs[exact].tolist()))
    found.update(zip(brackets.tolist(), (0.5 * (lo + hi)).tolist()))
    return [found[k] for k in sorted(found)]


def _boundary_candidates(p: JointDistribution, cost: float) -> list[OPSolution]:
    out = []
    # y = 0 is feasible only when no out-links start hidden (no defaulted mass
    # flows); the first multiplier that solves the program is enough
    if default_outflow(p, 0.0) <= 1e-14:
        points = [(0.0, v, 0.0) for v in _solve_multiplier_at(p, cost, 0.0)]
        out += _candidates(p, cost, points, "boundary:y=0")[:1]
    # y = 1 is feasible only when all out-degree mass is vulnerable-or-defaulted
    out_mass = sum(j * m for (i, j, c), m in p.entries.items() if c <= i)
    support_j = sorted({j for (_i, j, _c) in p.entries if j > 0})
    if abs(out_mass - p.lam) <= 1e-12 and support_j:
        v_b = (1.0 - cost) / support_j[0] if cost < 1.0 else 0.0
        out += _candidates(p, cost, [(1.0, v_b, 1.0)], "boundary:y=1")
    # no-intervention polish: the uncontrolled fixed point with its multiplier
    y_ni, _stable = smallest_fixed_point(lambda y: default_outflow(p, y))
    if y_ni < 1.0:
        points = [(y_ni, v, y_ni) for v in _solve_multiplier_at(p, cost, y_ni)]
        out += _candidates(p, cost, points, "stage_a")
    return out


def solve_op(p: JointDistribution, cost: float) -> OPSolution:
    """Best feasible candidate across both stages and the boundaries.

    Ties within 1e-9 of the minimum objective prefer stable candidates, then
    the smallest y (mirroring the smallest-fixed-point convention).  If every
    candidate is unstable with y < 1, the minimizer is still returned but a
    warning notes that the asymptotic guarantees do not apply.
    """
    _check_cost(cost)
    candidates = solve_stage_a(p, cost) + solve_stage_b(p, cost)
    candidates.extend(_boundary_candidates(p, cost))
    if not candidates:
        raise ConstructionError("no feasible candidate found for the program")
    best_obj = min(c.objective for c in candidates)
    near = [c for c in candidates if c.objective <= best_obj + 1e-9]
    near.sort(key=lambda c: (not c.stable, c.end_fraction))
    best = near[0]
    if not best.stable and best.end_fraction < 1.0:
        warnings.warn(
            "program minimizer is an unstable fixed point; asymptotic "
            "predictions are not guaranteed", RuntimeWarning,
        )
    return best


def extract_policy(sol: OPSolution, p: JointDistribution, cost: float) -> InterventionPolicy:
    """Finite-n threshold policy implied by a solution.

    Classes whose start time equals the horizon are omitted: they are never
    aided (a literal step cutoff at the horizon would fire during the random
    overshoot of the terminal step).  Start times are scale-free fractions; the
    simulator multiplies by the population's realized n * mean degree.
    """
    y, v, z = sol.end_fraction, sol.multiplier, sol.singular_start
    keys = _control_keys(p)
    i, j, c = np.array(keys, dtype=int).reshape(-1, 3).T
    starts = _optimal_starts(i, j, c, cost, v, y).tolist()
    sing = singular_rows(i, j, c, cost, v, sol.singular_j).tolist()
    thresholds = {key: min(max(x, 0.0), 1.0)
                  for key, x, s in zip(keys, starts, sing) if not s and x < y - 1e-12}
    singular = {key[:2]: max(0.0, z)
                for key, s in zip(keys, sing) if s and z < y - 1e-12}
    return InterventionPolicy.table(thresholds, singular)


def asymptotic_prediction(
    sol: OPSolution, p: JointDistribution, cost: float
) -> tuple[float, float, float]:
    """(defaults/n, aid/n, T/m) limits under the solution's policy.

    Only valid at a stable fixed point or at y = 1, where every link is
    revealed and the limits are the solution's own: a node the policy aids
    through its last loss survives even then.
    """
    y = sol.end_fraction
    if not sol.stable and y < 1.0 - 1e-12:
        raise ParameterError(
            f"prediction refused: y={y:.6f} is an unstable fixed point "
            f"(branch {sol.branch}); limits are not guaranteed"
        )
    return sol.defaults, sol.interventions, y
