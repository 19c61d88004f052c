"""Solve the regulator's asymptotic program and extract finite-n policies.

The program minimizes cost * aid + defaults over (y, v, z) subject to the
terminal stationarity equation (1 - y) * H(y, v) = lam * v * (1 - y) and the
fixed-point equation "controlled outflow at y equals y", with the per-class
start times x(y, v) pinned by the three-branch formula and 0 <= z <= y <= 1.

Solving is staged, no stage takes a derivative, and each evaluates the
program only where a root can be.  Stage A sets z = y (no singular class) and
finds (y, v) by sign-change subdivision of a (y, v) box, one batched residual
call per two levels, in the multiplier columns where lam v meets the range of
H.  Stage B fixes v = (1 - cost) / j for every out-degree j in the support,
making that degree's cushion-equals-in-degree class singular with free start
z.  The singular classes have c = i, where tail(i - 1, x, i) = 0 whatever
their start x, so H(y, v) does not involve z: stationarity fixes y alone, and
the outflow equation, which involves z only through the singular classes' z^i
terms, rises with z.  Stage B is therefore a scan for y and then a monotone
solve for z in [0, y], both by `_scan_roots` over every out-degree where lam v
lies in the range of H; its brackets go to `asymptotics.bisect`.  The
candidates are stage A's (y = 0, nothing to reveal, among them), stage B's
and the boundary y = 1 (everything burns) when feasible; the no-aid fixed
point is a stage-A root.  They all pass one builder, `_candidates`, and are
stable by `asymptotics.is_stable`; the singular classes, in the equations and
in `extract_policy`, are `asymptotics.singular_rows`.  `solve_op` keeps the
best and stores it on the distribution object, one per cost, so a study that
needs the limits and the table of one realized distribution solves it once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .asymptotics import (
    _control_keys,
    _optimal_starts,
    _pack,
    _slope_probes,
    bisect,
    controlled_limits,
    default_outflow,
    default_outflow_controlled,  # noqa: F401  (the benchmark's tracer wraps this name)
    is_stable,
    program_residuals,
    singular_rows,
    smallest_fixed_point,  # noqa: F401  (the benchmark's tracer wraps this name)
    terminal_hamiltonian,
)
from .cascade import InterventionPolicy
from .distribution import JointDistribution
from .errors import ConstructionError, ParameterError

_RESIDUAL_TOL = 1e-9
_DEDUP_TOL = 1e-8
# the branch a tie goes to, first to last: the boundary's y is exact, stage B
# bisects y to adjacent floats, stage A stops at cells 1e-13 wide
_BRANCH_ORDER = ("boundary", "stage_b", "stage_a")

# stage A: the first grid's corners in y and in u (v = tan(pi u / 2)), the width
# of a finished cell, and the most cells one call subdivides (25 points each)
_STAGE_A_GRID = (21, 81)
_STAGE_A_WIDTH = 1e-13
_STAGE_A_CAP = 9 * 20 * 80 // 25
# the stages' former Newton grids, stage A's 10 end fractions x 13 multipliers
# and stage B's 5 end fractions x 3 shares of y for z per out-degree: the
# benchmark self-test checks the tracer's start counts against them, and the
# tests run them as the scalar Newton references of both stages
_STAGE_A_Y_STARTS = [round(0.05 + 0.1 * k, 2) for k in range(10)]
_STAGE_A_V_STARTS = [0.0, 1e-3, -1e-3, 1e-2, -1e-2, 0.1, -0.1, 0.3, -0.3, 1.0, -1.0, 3.0, -3.0]
_STAGE_B_Y_STARTS = [0.1, 0.3, 0.5, 0.7, 0.9]
_STAGE_B_Z_SHARES = [0.05, 0.5, 0.95]


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


def _make_solution(cost, branch, singular_j, y, v, z, residuals, defaults, aid, stable):
    return OPSolution(
        end_fraction=y, multiplier=v, singular_start=z,
        objective=cost * aid + defaults, interventions=aid, defaults=defaults,
        stable=stable, branch=branch, residuals=residuals, singular_j=singular_j,
    )


def _check_cost(cost: float) -> None:
    if not (math.isfinite(cost) and cost > 0):
        raise ParameterError(f"intervention cost must be positive and finite, got {cost}")


def _candidates(p, cost, points, branch, singular_j=None) -> list[OPSolution]:
    """The candidate builder: solutions at the points (y, v, z) that solve both
    program equations, with a finite objective (a NaN one would empty
    solve_op's tie set).  The stages' roots and boundary points all pass here.
    One `program_residuals` call evaluates every point, and one
    `controlled_limits` call every point and its two `is_stable` probes: a
    point's values do not depend on its batch."""
    if not points:
        return []
    points = np.array(points, dtype=float)
    y, v, z = points.T
    res = np.stack(program_residuals(p, cost, y, v, z, singular_j), axis=1)
    flow, dflt, aid = controlled_limits(p, cost, np.concatenate([y, _slope_probes(y)]),
                                        np.tile(v, 3), np.tile(z, 3), singular_j)
    n = len(y)
    stable = is_stable(lambda _probes: flow[n:], y) | (y >= 1.0 - 1e-12)
    sols = (_make_solution(cost, branch, singular_j, *point, tuple(r), d, a, s)
            for point, r, d, a, s in zip(points.tolist(), res.tolist(), dflt[:n].tolist(),
                                         aid[:n].tolist(), stable.tolist()))
    return [s for s in sols if s.feasible and math.isfinite(s.objective)]


def _root_candidates(p, cost, roots, branch, singular_j=None) -> list[OPSolution]:
    """The candidates at roots, rows (y, v, z), sorted by (y, v, z).

    NaN rows are dropped and repeats skipped in row order.  y ~ 1
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


def _straddles(corners):
    """Cells where each residual is <= 0 at one corner and >= 0 at another;
    corners is (..., 4, 2), and a NaN corner keeps nothing."""
    return ((corners.min(axis=-2) <= 0.0) & (corners.max(axis=-2) >= 0.0)).all(axis=-1)


def _corners(f):
    """The (..., 4, 2) corners of every cell of a (..., rows, columns, 2) grid."""
    return np.stack([f[..., :-1, :-1, :], f[..., :-1, 1:, :], f[..., 1:, :-1, :],
                     f[..., 1:, 1:, :]], axis=-2)


def _quarters(lo, hi):
    """Two levels of halving of each side [lo, hi]: a (sides, 5) lattice, sub-side
    k from lattice[k] to lattice[k + 1].  A side halves while wider than
    _STAGE_A_WIDTH with its midpoint strictly inside, else the midpoint is hi."""
    def halve(lo, hi):
        mid = 0.5 * (lo + hi)
        return np.where((hi - lo > _STAGE_A_WIDTH) & (lo < mid) & (mid < hi), mid, hi)

    mid = halve(lo, hi)
    return np.stack([lo, halve(lo, mid), mid, halve(mid, hi), hi], axis=1)


def solve_stage_a(p: JointDistribution, cost: float) -> list[OPSolution]:
    """Roots of the two terminal equations with z = y, by sign-change subdivision.

    Both residuals are evaluated on a corner grid of 21 values of y in
    [0, 1 - 1e-9] by 81 multipliers v = tan(pi u / 2), u in [-(1 - 1e-6),
    1 - 1e-6], except where no cell can hold a root: the bounds of H over y
    (`hamiltonian_range`) rise with v, as lam v does, so no column [v, v']
    with lam v' below the lower bound at v, or lam v above the upper bound at
    v', by more than stage B's 1e-9, solves the first equation.  Its corners
    stay NaN, which `_straddles` never keeps.  Each kept cell gets a 5 x 5
    lattice, two levels of halving, all in one batched call; the 4 x 4
    sub-cells that straddle are the next call's cells, until each side is
    1e-13 wide; a side too narrow to halve in floating point stays whole.  A
    finished cell reports its corner of smallest max-norm residual, as the
    call that made it evaluated them.  A call subdivides at most _STAGE_A_CAP
    cells, those nearest a root by their corners: more only arise where the
    roots are not isolated, as along a jump of the outflow on which the first
    residual vanishes.  The corner test misses a root whose residual contour
    enters and leaves a cell through the same edge.

    y = 0 belongs to stage A alone: where no out-links start hidden
    (default_outflow(p, 0) <= 1e-14), its candidates are the multipliers of
    `_solve_multiplier_at`, and the subdivision's roots within 1e-9 of y = 0
    are dropped.
    """
    _check_cost(cost)

    def residuals(y, v):
        r = program_residuals(p, cost, y.ravel(), v.ravel(), y.ravel())
        return np.stack(r, axis=-1).reshape(*y.shape, 2)

    ys = np.linspace(0.0, 1.0 - 1e-9, _STAGE_A_GRID[0])
    vs = np.tan(0.5 * np.pi * np.linspace(-(1.0 - 1e-6), 1.0 - 1e-6, _STAGE_A_GRID[1]))
    lo, hi = _pack(p).hamiltonian_range(cost, vs)
    live = (p.lam * vs[1:] >= lo[:-1] - 1e-9) & (p.lam * vs[:-1] <= hi[1:] + 1e-9)
    cols = np.append(live, False) | np.insert(live, 0, False)
    grid = np.full((len(ys), len(vs), 2), np.nan)
    grid[:, cols] = residuals(*np.meshgrid(ys, vs[cols], indexing="ij"))
    corners = _corners(grid)
    r, c = np.nonzero(_straddles(corners))
    cells, held, found = (ys[r], ys[r + 1], vs[c], vs[c + 1]), corners[r, c], []
    while len(held) > 0:
        if len(held) > _STAGE_A_CAP:  # keep the cells nearest a root
            near = np.argsort(np.abs(held).max(axis=-1).min(axis=-1), kind="stable")
            cells, held = [side[near[:_STAGE_A_CAP]] for side in cells], held[near[:_STAGE_A_CAP]]
        ly, lv = _quarters(*cells[:2]), _quarters(*cells[2:])
        done = (ly[:, 1] == ly[:, 4]) & (lv[:, 1] == lv[:, 4])
        best = np.abs(held[done]).max(axis=-1).argmin(axis=1)
        found.append(np.stack([ly[done, best // 2 * 4], lv[done, best % 2 * 4]], axis=1))
        ly, lv = ly[~done], lv[~done]
        if not len(ly):
            break
        corners = _corners(residuals(*np.broadcast_arrays(ly[:, :, None], lv[:, None, :])))
        keep = ((ly[:, 1:] > ly[:, :-1])[:, :, None] & (lv[:, 1:] > lv[:, :-1])[:, None, :]
                & _straddles(corners))
        # in the order of two one-level passes: second child, first child, cell
        a2, b2, a1, b1, k = np.nonzero(keep.reshape(-1, 2, 2, 2, 2).transpose(2, 4, 1, 3, 0))
        a, b = 2 * a1 + a2, 2 * b1 + b2
        cells, held = (ly[k, a], ly[k, a + 1], lv[k, b], lv[k, b + 1]), corners[k, a, b]
    roots = np.concatenate([np.empty((0, 2))] + found)
    roots = roots[roots[:, 0] > 1e-9]
    if default_outflow(p, 0.0) <= 1e-14:
        at_zero = [(0.0, v) for v in _solve_multiplier_at(p, cost, 0.0)]
        roots = np.concatenate([np.reshape(at_zero, (-1, 2)), roots])
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
    An out-degree whose lam v_j lies more than 1e-9 outside the range of
    H(., v_j) (`hamiltonian_range`) has no root and is not scanned.
    """
    _check_cost(cost)
    support = np.array(sorted({j for (_i, j, _c) in p.entries if j > 0}), dtype=int)
    v = (1.0 - cost) / support
    lo, hi = _pack(p).hamiltonian_range(cost, v)
    support, v = (a[(lo - 1e-9 <= p.lam * v) & (p.lam * v <= hi + 1e-9)] for a in (support, v))
    if not support.size:
        return []
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
    """All v with H(y, v) = lam * v for a fixed y < 1, scanned as v = tan(pi u / 2)
    over 401 points u in [-(1 - 1e-6), 1 - 1e-6], the first grid's map of stage A.

    The sign of H - lam v is that of the first program residual, (1 - y)
    times it, which `_scan_roots` scans and bisects in u.
    """
    us = _scan_roots(lambda _r, u: program_residuals(p, cost, y, np.tan(0.5 * np.pi * u), y)[0],
                     -(1.0 - 1e-6), 1.0 - 1e-6)[1]
    return np.tan(0.5 * np.pi * us).tolist()


def _boundary_candidates(p: JointDistribution, cost: float) -> list[OPSolution]:
    """y = 1, feasible only when all out-degree mass is vulnerable-or-defaulted."""
    out_mass = sum(j * m for (i, j, c), m in p.entries.items() if c <= i)
    support_j = sorted({j for (_i, j, _c) in p.entries if j > 0})
    if abs(out_mass - p.lam) > 1e-12 or not support_j:
        return []
    v_b = (1.0 - cost) / support_j[0] if cost < 1.0 else 0.0
    return _candidates(p, cost, [(1.0, v_b, 1.0)], "boundary:y=1")


def solve_op(p: JointDistribution, cost: float) -> OPSolution:
    """Best feasible candidate across both stages and the boundaries.

    Ties within 1e-9 of the minimum objective prefer stable candidates, then
    the smallest y (mirroring the smallest-fixed-point convention), with y
    within _DEDUP_TOL a tie broken by _BRANCH_ORDER: one point found by two
    branches gets one label.  If every candidate is unstable with y < 1, the
    minimizer is still returned but a warning notes that the asymptotic
    guarantees do not apply.  The solution
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
        ties = [c for c in near if c.stable == near[0].stable
                and c.end_fraction <= near[0].end_fraction + _DEDUP_TOL]
        best = p._solutions[float(cost)] = min(  # type: ignore[attr-defined]
            ties, key=lambda c: _BRANCH_ORDER.index(c.branch.split(":")[0]))
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
