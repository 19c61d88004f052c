"""Solve the regulator's asymptotic program and extract finite-n policies.

The program minimizes cost * aid + defaults over (y, v, z) subject to the
terminal stationarity equation (1 - y) * H(y, v) = lam * v * (1 - y) and the
fixed-point equation "controlled outflow at y equals y", with the per-class
start times x(y, v) pinned by the three-branch formula and 0 <= z <= y <= 1.

Solving is staged: stage A sets z = y (no singular class) and solves for
(y, v) by one lockstep Newton batch (`_lockstep_newton`).  Stage B fixes v =
(1 - cost) / j for every out-degree j in the support, making that degree's
cushion-equals-in-degree class singular with free start z.  The singular
classes have c = i, where tail(i - 1, x, i) = 0 whatever their start x, so
H(y, v) does not involve z: stationarity fixes y alone, and the outflow
equation, which involves z only through the singular classes' z^i terms,
rises with z.  Stage B is therefore a scan for y and then a monotone solve for
z in [0, y], both by `_scan_roots` over every out-degree at once; its brackets
go to `asymptotics.bisect`, which evaluates several bisection levels per
residual call and finds the roots of the one-midpoint loop.  The
reported solution is the feasible candidate with the smallest objective;
boundary candidates y = 0 (nothing to reveal) and y = 1 (everything burns)
join the comparison when feasible.  Every candidate passes one builder,
`_candidates`, and is stable by `asymptotics.is_stable`; the singular
classes, in the equations and in `extract_policy`, are
`asymptotics.singular_rows`.  `solve_op` stores its solution on the
distribution object, one per cost, so a study that needs the limits and the
table of one realized distribution solves it once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .asymptotics import (
    _control_keys,
    _optimal_starts,
    bisect,
    controlled_limits,
    default_outflow,
    default_outflow_controlled,
    is_stable,
    program_residuals,
    singular_rows,
    smallest_fixed_point,
    terminal_hamiltonian,
)
from .cascade import InterventionPolicy
from .distribution import JointDistribution
from .errors import ConstructionError, ParameterError

_RESIDUAL_TOL = 1e-9
_DEDUP_TOL = 1e-8

_STAGE_A_Y_STARTS = [round(0.05 + 0.1 * k, 2) for k in range(10)]
_STAGE_A_V_STARTS = [0.0, 1e-3, -1e-3, 1e-2, -1e-2, 0.1, -0.1, 0.3, -0.3, 1.0, -1.0, 3.0, -3.0]
# stage B's former Newton grid, 5 end fractions x 3 shares of y for z per
# out-degree: the benchmark self-test checks the tracer's start count against
# it, and the tests run it as the scalar Newton reference of `solve_stage_b`
_STAGE_B_Y_STARTS = [0.1, 0.3, 0.5, 0.7, 0.9]
_STAGE_B_Z_SHARES = [0.05, 0.5, 0.95]
_STAGE_A_STARTS = [(y0, v0) for y0 in _STAGE_A_Y_STARTS for v0 in _STAGE_A_V_STARTS]


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

    `fun(a, b)` evaluates both residuals at equal-length arrays of points
    (stage A's (y, v)).  Starts never mix, so a start's path does not depend
    on the others in the batch.  Each start follows the
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
    def residuals(pts):
        r0, r1 = fun(pts[:, 0], pts[:, 1])
        return np.stack([r0, r1], axis=1)

    x = np.array(starts, dtype=float)
    f = residuals(x)
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
        fp = residuals(pts.reshape(4 * n, 2)).reshape(4, n, 2)
        d0 = (fp[0] - fp[1]) / (2.0 * h[:, :1])
        d1 = (fp[2] - fp[3]) / (2.0 * h[:, 1:])
        dx = np.stack(_solve_2x2(d0[:, 0], d1[:, 0], d0[:, 1], d1[:, 1],
                                 -fa[:, 0], -fa[:, 1]), axis=1)
        ok = np.isfinite(dx).all(axis=1)
        active, xa, dx, norm = active[ok], xa[ok], dx[ok], norm[ok]
        if not active.size:
            break
        xn = xa + dx
        fn = residuals(xn)
        better = np.isfinite(fn).all(axis=1) & (np.abs(fn).max(axis=1) < norm)
        x[active[better]], f[active[better]] = xn[better], fn[better]
        miss = ~better
        if miss.any():
            sub, norm_sub = active[miss], norm[miss]
            xs = xa[miss][:, None, :] + halvings[None, :, None] * dx[miss][:, None, :]
            fs = residuals(xs.reshape(-1, 2)).reshape(xs.shape)
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
    roots = _lockstep_newton(lambda y, v: program_residuals(p, cost, y, v, y),
                             _STAGE_A_STARTS)
    return _root_candidates(p, cost, roots[:, [0, 1, 0]], "stage_a")


def _scan_roots(g, lo, hi, grid=400):
    """Every root of g on each row's [lo, hi]: (rows, roots), sorted by row,
    then root.

    `g(rows, xs)` evaluates each row's function at equal-length arrays in one
    batch; lo and hi broadcast to one entry per row.  A scan of grid + 1
    evenly spaced points takes every exact zero and brackets every cell whose
    ends have strictly opposite signs.  All brackets then go to `bisect`, which
    evaluates several levels per call of g: at most 80 halvings, each keeping
    [lo, mid] where g(lo) g(mid) <= 0 and [mid, hi] otherwise, and the root is
    the last midpoint.  A bracket stops once its midpoint equals one of its
    ends, as every further halving leaves that midpoint in place; that is
    after about 50 halvings.
    """
    lo, hi = np.broadcast_arrays(np.atleast_1d(lo), hi)
    xs = np.linspace(lo, hi, grid + 1, axis=1)
    rows = np.repeat(np.arange(len(lo)), grid + 1)
    vals = g(rows, xs.ravel()).reshape(xs.shape)
    roots = np.where(vals == 0.0, xs, np.nan)
    r, k = np.nonzero(vals[:, :-1] * vals[:, 1:] < 0.0)
    a, b, _g_a = bisect(lambda at, mid: g(r[at], mid), xs[r, k], xs[r, k + 1], vals[r, k],
                        keep_left=lambda g_a, g_mid: g_a * g_mid <= 0.0,
                        settled=lambda a, b, mid: (mid == a) | (mid == b), levels=80)
    roots[r, k] = 0.5 * (a + b)
    r, k = np.nonzero(~np.isnan(roots))
    return r, roots[r, k]


def solve_stage_b(p: JointDistribution, cost: float) -> list[OPSolution]:
    """The singular branch: v = (1 - cost) / j for every out-degree j > 0 of
    the support, unknowns (y, z), same equations; candidates in ascending j.

    H does not involve z, so y solves H(y, v_j) = lam v_j alone: a scan over
    y in [0, 1] (not of the (1 - y)-scaled residual, which vanishes at the
    grid point y = 1 and would hide a root in the last cell).  The outflow
    rises with z, so each y < 1 - 1e-9 has one z in [0, y] or none (outflow
    above y at z = 0, or below it at z = y); where z moves nothing, z = 0.
    """
    _check_cost(cost)
    support = np.array(sorted({j for (_i, j, _c) in p.entries if j > 0}), dtype=int)
    if not support.size:
        return []
    v = (1.0 - cost) / support
    row, y = _scan_roots(lambda r, ys: terminal_hamiltonian(p, cost, ys, v[r]) - p.lam * v[r],
                         np.zeros(len(support)), 1.0)
    row, y = row[y < 1.0 - 1e-9], y[y < 1.0 - 1e-9]
    at, z = _scan_roots(
        lambda r, zs: program_residuals(p, cost, y[r], v[row[r]], zs, support[row[r]])[1],
        0.0, y, grid=1)
    # both ends of [0, y] are roots only where z moves nothing: keep z = 0
    at, first = np.unique(at, return_index=True)
    row = row[at]
    roots = np.stack([y[at], v[row], z[first]], axis=1)
    return [sol for k, j in enumerate(support.tolist())
            for sol in _root_candidates(p, cost, roots[row == k], f"stage_b:j={j}", j)]


def _solve_multiplier_at(p, cost, y):
    """All v in [-8, 8] with H(y, v) = lam * v for a fixed y < 1.

    The sign of H - lam v is that of the first program residual, (1 - y)
    times it, which `_scan_roots` scans and bisects.
    """
    return _scan_roots(lambda _r, vs: program_residuals(p, cost, y, vs, y)[0],
                       -8.0, 8.0)[1].tolist()


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
    warning notes that the asymptotic guarantees do not apply.  The solution
    is stored on p by float(cost), as the class pack is: a repeat call returns
    the same object (and warns again), and a failed solve stores nothing.
    """
    _check_cost(cost)
    if "_solutions" not in p.__dict__:
        object.__setattr__(p, "_solutions", {})
    best = p._solutions.get(float(cost))  # type: ignore[attr-defined]
    if best is None:
        candidates = solve_stage_a(p, cost) + solve_stage_b(p, cost)
        candidates.extend(_boundary_candidates(p, cost))
        if not candidates:
            raise ConstructionError("no feasible candidate found for the program")
        best_obj = min(c.objective for c in candidates)
        near = [c for c in candidates if c.objective <= best_obj + 1e-9]
        near.sort(key=lambda c: (not c.stable, c.end_fraction))
        best = p._solutions[float(cost)] = near[0]  # type: ignore[attr-defined]
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
