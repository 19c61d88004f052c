"""Solve the regulator's asymptotic program and extract finite-n policies.

The program minimizes cost * aid + defaults over (y, v, z) subject to the
terminal stationarity equation (1 - y) * H(y, v) = lam * v * (1 - y) and the
fixed-point equation "controlled outflow at y equals y", with the per-class
start times x(y, v) pinned by the three-branch formula and 0 <= z <= y <= 1.

Solving is staged, no stage evaluates a derivative, and each evaluates the
program only where a root can be.  Stage A sets z = y (no singular class) and
finds (y, v) by sign-change subdivision of a (y, v) box that zooms on isolated
roots, in the multiplier columns where lam v meets the range of H.  Stage B
fixes v = (1 - cost) / j for every out-degree j in the support, making that
degree's cushion-equals-in-degree class singular with free start z.  The
singular classes have c = i, where tail(i - 1, x, i) = 0 whatever their
start x, so H(y, v) does not involve z: stationarity fixes y alone, and
the outflow equation, which involves z only through the singular classes' z^i
terms, rises with z.  Stage B is therefore a scan for y and then a monotone
solve for z in [0, y], both by `_scan_roots` over every out-degree where lam v
lies in the range of H; its brackets go to `asymptotics.bisect`.  The
candidates are stage A's (y = 0, nothing to reveal, among them), stage B's
and the boundary y = 1 (everything burns) when feasible; the no-aid fixed
point is a stage-A root.  They all pass one builder, `_candidates`, and are
stable by `asymptotics.is_stable`; the singular classes, in the equations and
in `extract_policy`, are `asymptotics.singular_rows`.  `solve_op` keeps the
best and stores it on the distribution's class pack, one per cost, so a study
that needs the limits and the table of one realized distribution solves it once.
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
_STAGE_A_ZOOM, _STAGE_A_CONDITION = 2.0, 4.0  # see solve_stage_a
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

    Repeats are skipped in row order.  y ~ 1 makes the first equation vacuous,
    so a root counts only in 0 <= z <= y <= 1 - 1e-9 (1e-9 of slack at 0 and
    y), clamped into it; y = 1 is a boundary.
    """
    seen, points = [], []
    for y, v, z in roots.tolist():
        if any(max(abs(y - a), abs(v - b), abs(z - c)) <= _DEDUP_TOL for a, b, c in seen):
            continue
        seen.append((y, v, z))
        if -1e-9 <= y <= 1.0 - 1e-9 and -1e-9 <= z <= y + 1e-9:
            y = max(y, 0.0)
            points.append((y, v, min(max(z, 0.0), y)))
    return sorted(_candidates(p, cost, points, branch, singular_j),
                  key=lambda s: (s.end_fraction, s.multiplier, s.singular_start))


def _straddling(corners):
    """Per cell and residual (..., 2), whether the residual is <= 0 at one
    corner and >= 0 at another; corners is (..., 4, 2), and a NaN corner
    keeps nothing."""
    a, b, c, d = np.moveaxis(corners, -2, 0)  # pairwise: a min over that axis is 10x slower
    lo, hi = np.minimum(np.minimum(a, b), np.minimum(c, d)), np.maximum(np.maximum(a, b), c)
    return (lo <= 0.0) & (np.maximum(hi, d) >= 0.0)


def _straddles(corners):
    """Cells where both residuals straddle."""
    return _straddling(corners).all(axis=-1)


def _first_cells(corners):
    """(rows, columns) of the first grid's cells to subdivide: each straddles
    one residual, and the other in it or in a cell that shares an edge with
    it.  A cell straddled by both is kept by its corners alone; the edge
    neighbour also keeps a cell that the other residual's contour enters and
    leaves through that shared edge, where no corner of the cell sees it."""
    each = _straddling(corners)
    near = each.copy()
    near[1:] |= each[:-1]
    near[:-1] |= each[1:]
    near[:, 1:] |= each[:, :-1]
    near[:, :-1] |= each[:, 1:]
    return np.nonzero(each.any(axis=-1) & near.all(axis=-1))


def _corners(f):
    """The (..., 4, 2) corners of every cell of a (..., rows, columns, 2) grid."""
    return np.stack([f[..., :-1, :-1, :], f[..., :-1, 1:, :], f[..., 1:, :-1, :],
                     f[..., 1:, 1:, :]], axis=-2)


def _quarters(lo, hi):
    """Two levels of halving of each side [lo, hi]: a (..., 5) lattice, sub-side
    k from lattice[k] to lattice[k + 1].  A side halves while wider than
    _STAGE_A_WIDTH with its midpoint strictly inside, else the midpoint is hi."""
    def halve(lo, hi):
        mid = 0.5 * (lo + hi)
        return np.where((hi - lo > _STAGE_A_WIDTH) & (lo < mid) & (mid < hi), mid, hi)

    mid = halve(lo, hi)
    return np.stack([lo, halve(lo, mid), mid, halve(mid, hi), hi], axis=-1)


def _zoom_box(ly, lv, f, sub):
    """Each cell's zoom box (y, y', v, v') in its straddling sub-cell sub, from its
    lattice (ly, lv) and values f, as `solve_stage_a` says; sub where none."""
    with np.errstate(all="ignore"):
        centre = np.stack([ly.mean(axis=1), lv.mean(axis=1)], axis=1)
        dy, dv = ly - centre[:, :1], lv - centre[:, 1:]
        x = np.stack(np.broadcast_arrays(1.0, dy[:, :, None], dv[:, None, :]), 3).reshape(-1, 25, 3)
        xt, f = x.transpose(0, 2, 1), f.reshape(-1, 25, 2)
        coef = xt @ f / (xt * xt).sum(axis=2)[:, :, None]  # (cells, 3, 2), the columns orthogonal
        misfit = np.abs(x @ coef - f).max(axis=1)
        (m0, m1), (a0, a1), (b0, b1) = coef.transpose(1, 2, 0)
        inv = np.array([[b1, -b0], [-a1, a0]]) / (a0 * b1 - a1 * b0)  # (2, 2, cells)
        cond = np.abs(inv[:, 0]) * (abs(a0) + abs(b0)) + np.abs(inv[:, 1]) * (abs(a1) + abs(b1))
        root = centre - (inv[:, 0] * m0 + inv[:, 1] * m1).T
        w = _STAGE_A_ZOOM * (np.abs(inv[:, 0]) * misfit[:, 0] + np.abs(inv[:, 1]) * misfit[:, 1]).T
        w = np.maximum(w, np.maximum(1e-2 * w.max(axis=1, keepdims=True), _STAGE_A_WIDTH))
        lo, hi = sub[:, 0::2], sub[:, 1::2]
        mid = np.minimum(np.maximum(root, lo + w), hi - w)
        box = np.stack([np.maximum(mid - w, lo), np.minimum(mid + w, hi)], axis=-1).reshape(-1, 4)
        ok = (cond.max(axis=0) <= _STAGE_A_CONDITION) & (box[:, 1::2] > box[:, 0::2]).all(axis=1)
    return np.where(ok[:, None], box, sub)


def solve_stage_a(p: JointDistribution, cost: float) -> list[OPSolution]:
    """Roots of the two terminal equations with z = y, by sign-change subdivision.

    Both residuals are evaluated on a corner grid of 21 values of y in
    [0, 1 - 1e-9] by 81 multipliers v = tan(pi u / 2), u in
    [-(1 - 1e-6), 1 - 1e-6], except in the columns [v, v'] where lam v' lies
    below the lower bound of H (`hamiltonian_range`, rising with v as lam v
    does) at v, or lam v above its upper bound at v', by more than stage B's
    1e-9: their corners stay NaN, which `_straddles` never keeps.  The first
    grid keeps the cells of `_first_cells`: those straddled by both
    residuals, and those straddled by one whose edge neighbour the other
    straddles, as that residual's contour may dip into the cell across their
    shared edge unseen by its corners.
    Each kept cell gets a 5 x 5 lattice, two levels of halving, all in one
    batched call; the 4 x 4 sub-cells that straddle are the next call's cells,
    until each side is 1e-13 wide; a side too narrow to halve in floating
    point stays whole.  A finished cell reports its corner of smallest
    max-norm residual, as the call that made it evaluated them.  A call
    subdivides at most _STAGE_A_CAP cells, those nearest a root by their
    corners: more only arise where the roots are not isolated, as along a jump
    of the outflow on which the first residual vanishes.  The corner test
    still misses a root whose residual contour enters and leaves a later,
    finer cell through the same edge, or a first-grid cell whose neighbours do
    not straddle that residual.  Where exactly one sub-cell straddles, the
    next call zooms: it evaluates a box in it centred on the root of the
    residuals' least-squares planes, with half-widths _STAGE_A_ZOOM times the
    planes' misfit carried through their inverse, at least 1e-13 and 1e-2 of
    the other side; a box that holds no straddling sub-cell returns to that
    sub-cell, which then only halves.  Planes whose condition, the row sums of
    |inverse| |slopes|, exceeds _STAGE_A_CONDITION do not zoom: a 1e-13 cell
    pins no such root.

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
    r, c = _first_cells(corners)
    # per cell: sides, the sub-cell of a zoom box (else the cell), its corners, only halves
    cells = back = np.stack([ys[r], ys[r + 1], vs[c], vs[c + 1]], axis=1)
    held, plain, found = corners[r, c], np.zeros(len(r), bool), []
    while len(cells):
        if len(cells) > _STAGE_A_CAP:  # keep the cells nearest a root
            near = np.argsort(np.abs(held).max(-1).min(-1), kind="stable")[:_STAGE_A_CAP]
            cells, back, held, plain = cells[near], back[near], held[near], plain[near]
        ly, lv = _quarters(cells[:, 0::2], cells[:, 1::2]).transpose(1, 0, 2)
        done = (ly[:, 1] == ly[:, 4]) & (lv[:, 1] == lv[:, 4])
        best = np.abs(held[done]).max(axis=-1).argmin(axis=1)
        found.append(np.stack([ly[done, best // 2 * 4], lv[done, best % 2 * 4]], axis=1))
        cells, back, held, plain, ly, lv = (a[~done] for a in (cells, back, held, plain, ly, lv))
        if not len(ly):
            break
        f = residuals(*np.broadcast_arrays(ly[:, :, None], lv[:, None, :]))
        corners = _corners(f)
        keep = ((ly[:, 1:] > ly[:, :-1])[:, :, None] & (lv[:, 1:] > lv[:, :-1])[:, None, :]
                & _straddles(corners))
        # in the order of two one-level passes: second child, first child, cell
        a2, b2, a1, b1, k = np.nonzero(keep.reshape(-1, 2, 2, 2, 2).transpose(2, 4, 1, 3, 0))
        a, b = 2 * a1 + a2, 2 * b1 + b2
        sub = np.stack([ly[k, a], ly[k, a + 1], lv[k, b], lv[k, b + 1]], axis=1)
        one, nxt = np.flatnonzero(((keep.sum(axis=(1, 2)) == 1) & ~plain)[k]), sub.copy()
        if len(one):
            nxt[one] = _zoom_box(ly[k[one]], lv[k[one]], f[k[one]], sub[one])
        miss = (cells != back).any(axis=1) & ~keep.any(axis=(1, 2))  # zoom boxes that missed
        cells, back, held, plain = (np.concatenate(pair) for pair in zip(
            (nxt, sub, corners[k, a, b], plain[k]),
            (back[miss], back[miss], held[miss], np.ones(miss.sum(), bool))))
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
    guarantees do not apply.  The solution is stored on p's class pack,
    `_pack(p).solutions`, by float(cost): a repeat call returns the same
    object (and warns again), and a failed solve stores nothing.
    """
    _check_cost(cost)
    solutions = _pack(p).solutions
    best = solutions.get(float(cost))
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
        best = solutions[float(cost)] = min(
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
