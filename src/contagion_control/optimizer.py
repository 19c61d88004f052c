"""Solve the regulator's asymptotic program and extract finite-n policies.

The program minimizes cost * aid + defaults over (y, v, z) subject to the
terminal stationarity equation (1 - y) * H(y, v) = lam * v * (1 - y) and the
fixed-point equation "controlled outflow at y equals y", with the per-class
start times x(y, v) pinned by the three-branch formula and 0 <= z <= y <= 1.

Solving is staged, no stage evaluates a derivative, and each evaluates the
program only where a root can be.  A vulnerable class with c = i starts at 0
below the plane v = (1 - cost) / j of its out-degree j, at y above it and at a
free z on it, so the outflow jumps on these planes (`_planes`) alone.  Stage A
sets z = y and finds (y, v) by sign-change subdivision of a (y, v) box that
zooms on isolated roots, in the multiplier columns where lam v meets the range
of H, on a grid that stops at each plane.  Stage B fixes v on each plane.  Its
singular classes have tail(i - 1, x, i) = 0 whatever x, so H(y, v) does not
involve z: stationarity fixes y alone, and the outflow rises with z, through
their z^i terms.  Stage B is therefore, on every plane where lam v lies in
the range of H, a scan of H - lam v for y and then a monotone solve of the
controlled outflow (`default_outflow_controlled`) minus y for z in [0, y].
The scan for y evaluates H only in the spans of y where per-class bounds
(`asymptotics._hamiltonian_cells`) let it meet lam v.  Both go to
`asymptotics._scan_roots`, the package's one root scan in one variable, as
does stage A's multiplier scan at y = 0; each evaluates the one function it
roots, not both program equations.  The candidates are stage A's
(y = 0, nothing to reveal, among them), stage B's and the boundary y = 1
(everything burns) when feasible; the no-aid fixed point is a stage-A root.
They all pass one builder, `_candidates`, and are stable by
`asymptotics.is_stable`; the singular classes, in the equations and in
`extract_policy`, are `asymptotics.singular_rows`.  `solve_op` keeps the
best and stores it on the distribution's class pack, one per cost, so a study
that needs the limits and the table of one realized distribution solves it once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .asymptotics import (
    _SINGULAR_TOL,
    _control_keys,
    _hamiltonian_cells,
    _optimal_starts,
    _pack,
    _residuals_and_limits,
    _scan_roots,
    _slope_probes,
    default_outflow_controlled,
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

    @property
    def feasible(self) -> bool:
        return max(abs(self.residuals[0]), abs(self.residuals[1])) < _RESIDUAL_TOL


def _check_cost(cost: float) -> None:
    if not (math.isfinite(cost) and cost > 0):
        raise ParameterError(f"intervention cost must be positive and finite, got {cost}")


def _candidates(p, cost, points, branch) -> list[OPSolution]:
    """The candidate builder: solutions at the points, a list of (y, v, z), that
    solve both program equations, with a finite objective (a NaN one would
    empty solve_op's tie set).  The stages' roots and boundary points all pass here.
    One `_residuals_and_limits` call evaluates both residuals and the limits
    at every point and the outflow at its two `is_stable` probes: a point's
    values do not depend on its batch."""
    if not points:
        return []
    n = len(points)
    y, v, z = np.array(points * 3, dtype=float).T.copy()
    y[n:] = _slope_probes(y[:n])
    res1, res2, flow, dflt, aid = _residuals_and_limits(p, cost, y, v, z)
    stable = is_stable(lambda _probes: flow[n:], y[:n]) | (y[:n] > 1.0 - _RESIDUAL_TOL)
    sols = (OPSolution(end_fraction=yk, multiplier=vk, singular_start=zk,
                       objective=cost * a + d, interventions=a, defaults=d, stable=s,
                       branch=branch, residuals=(r1, r2))
            for yk, vk, zk, r1, r2, d, a, s in zip(
                *(col[:n].tolist() for col in (y, v, z, res1, res2, dflt, aid)), stable.tolist()))
    return [s for s in sols if s.feasible and math.isfinite(s.objective)]


def _root_candidates(p, cost, roots, branch) -> list[OPSolution]:
    """The candidates at roots, rows (y, v, z), sorted by (y, v, z).

    Repeats are skipped in row order.  y ~ 1 makes the first equation vacuous,
    so a root counts only in 0 <= z <= y <= 1 - _RESIDUAL_TOL (as much slack
    at 0 and y), clamped into it; y = 1 is a boundary.
    """
    seen, points = [], []
    for y, v, z in roots.tolist():
        if any(max(abs(y - a), abs(v - b), abs(z - c)) <= _DEDUP_TOL for a, b, c in seen):
            continue
        seen.append((y, v, z))
        if -_RESIDUAL_TOL <= y <= 1.0 - _RESIDUAL_TOL and -_RESIDUAL_TOL <= z <= y + _RESIDUAL_TOL:
            y = max(y, 0.0)
            points.append((y, v, min(max(z, 0.0), y)))
    return sorted(_candidates(p, cost, points, branch),
                  key=lambda s: (s.end_fraction, s.multiplier, s.singular_start))


def _straddling(f):
    """Per residual and cell of a (2, ..., rows, columns) grid of residual
    values, whether the residual is <= 0 at one corner of the cell and >= 0 at
    another; a NaN corner keeps nothing."""
    a, b, c, d = f[..., :-1, :-1], f[..., :-1, 1:], f[..., 1:, :-1], f[..., 1:, 1:]
    lo = np.minimum(np.minimum(a, b), np.minimum(c, d))
    return (lo <= 0.0) & (np.maximum(np.maximum(a, b), np.maximum(c, d)) >= 0.0)


def _first_cells(each):
    """(rows, columns) of the first grid's cells to subdivide, from `_straddling`
    on it: each straddles one residual, and the other in it or in a cell that
    shares an edge with it.  A cell straddled by both is kept by its corners
    alone; the edge neighbour also keeps a cell that the other residual's
    contour enters and leaves through that shared edge, where no corner of the
    cell sees it."""
    near = each.copy()
    near[:, 1:] |= each[:, :-1]
    near[:, :-1] |= each[:, 1:]
    near[:, :, 1:] |= each[:, :, :-1]
    near[:, :, :-1] |= each[:, :, 1:]
    return np.nonzero((each[0] | each[1]) & near[0] & near[1])


def _mesh(y, v):
    """The (2, ..., n, m) points (y, v) of the grids with sides y (..., n) and
    v (..., m)."""
    mesh = np.empty((2, *y.shape, v.shape[-1]))
    mesh[0] = y[..., None]
    mesh[1] = v[..., None, :]
    return mesh


def _halve(lo, hi):
    mid = 0.5 * (lo + hi)
    return np.where((hi - lo > _STAGE_A_WIDTH) & (lo < mid) & (mid < hi), mid, hi)


def _quarters(lo, hi):
    """Two levels of halving of each side [lo, hi]: a (..., 5) lattice, sub-side
    k from lattice[k] to lattice[k + 1].  A side halves while wider than
    _STAGE_A_WIDTH with its midpoint strictly inside, else the midpoint is hi."""
    lattice = np.empty((*lo.shape, 5))
    lattice[..., 0], lattice[..., 4] = lo, hi
    lattice[..., 2] = _halve(lo, hi)
    lattice[..., 1::2] = _halve(lattice[..., 0:3:2], lattice[..., 2::2])
    return lattice


def _zoom_box(lattice, f, sub):
    """Each cell's zoom box (y, y', v, v') in its straddling sub-cell sub, from
    its lattice (2 x cells x 5) and values f (2 x cells x 5 x 5), as
    `solve_stage_a` says; sub where none.  Columns are cells."""
    with np.errstate(all="ignore"):
        centre = lattice.mean(axis=2)
        d = lattice - centre[:, :, None]
        x = np.empty((lattice.shape[1], 5, 5, 3))
        x[..., 0], x[..., 1], x[..., 2] = 1.0, d[0, :, :, None], d[1, :, None, :]
        x = x.reshape(-1, 25, 3)
        xt, f = x.transpose(0, 2, 1), np.ascontiguousarray(f.reshape(2, -1, 25).transpose(1, 2, 0))
        coef = xt @ f / (xt * xt).sum(axis=2)[:, :, None]  # (cells, 3, 2), the columns orthogonal
        misfit = np.abs(x @ coef - f).max(axis=1)
        (m0, m1), (a0, a1), (b0, b1) = coef.transpose(1, 2, 0)
        inv = np.array([[b1, -b0], [-a1, a0]]) / (a0 * b1 - a1 * b0)  # (2, 2, cells)
        size = np.abs(inv)
        cond = size[:, 0] * (abs(a0) + abs(b0)) + size[:, 1] * (abs(a1) + abs(b1))
        root = centre - (inv[:, 0] * m0 + inv[:, 1] * m1)
        w = _STAGE_A_ZOOM * (size[:, 0] * misfit[:, 0] + size[:, 1] * misfit[:, 1])
        w = np.maximum(w, np.maximum(1e-2 * w.max(axis=0), _STAGE_A_WIDTH))
        lo, hi = sub[0::2], sub[1::2]
        mid = np.minimum(np.maximum(root, lo + w), hi - w)
        box = np.empty_like(sub)
        box[0::2], box[1::2] = np.maximum(mid - w, lo), np.minimum(mid + w, hi)
        ok = (cond.max(axis=0) <= _STAGE_A_CONDITION) & (box[1::2] > box[0::2]).all(axis=0)
    return np.where(ok, box, sub)


def _planes(p: JointDistribution, cost: float):
    """(j, v): the out-degrees j > 0 of the vulnerable classes with c = i and
    positive mass, ascending, and their planes v = (1 - cost) / j."""
    j = np.array(sorted({j for (i, j, c), m in p.entries.items()
                         if 0 < c == i and j > 0 and m > 0}), dtype=int)
    return j, (1.0 - cost) / j


def _first_grid(p, cost, residuals):
    """Stage A's first grid, as `solve_stage_a` says: its sides ys and vs, both
    residuals on its mesh from `residuals(mesh)` (2 x ys x vs, NaN in the
    columns it skips), and the columns of cells in a sliver."""
    ys = np.linspace(0.0, 1.0 - _RESIDUAL_TOL, _STAGE_A_GRID[0])
    vs = np.tan(0.5 * np.pi * np.linspace(-(1.0 - 1e-6), 1.0 - 1e-6, _STAGE_A_GRID[1]))
    j, top = _planes(p, cost)
    low = top - 2.0 * _SINGULAR_TOL * max(1.0, abs(1.0 - cost)) / j  # the slivers [low, top]
    vs = np.unique(np.concatenate([vs, np.clip(np.concatenate([low, top]), vs[0], vs[-1])]))
    vs = vs[~((low[:, None] < vs) & (vs < top[:, None])).any(axis=0)]
    dead = (vs[:-1, None] == low).any(axis=1)
    lo, hi = _pack(p).hamiltonian_range(cost, vs)
    live = (p.lam * vs[1:] >= lo[:-1] - 1e-9) & (p.lam * vs[:-1] <= hi[1:] + 1e-9) & ~dead
    cols = np.concatenate([live, [False]]) | np.concatenate([[False], live])
    grid = np.full((2, len(ys), len(vs)), np.nan)
    grid[:, :, cols] = residuals(_mesh(ys, vs[cols]))
    return ys, vs, grid, dead


def solve_stage_a(p: JointDistribution, cost: float) -> list[OPSolution]:
    """Roots of the two terminal equations with z = y, by sign-change subdivision.

    Both residuals are evaluated on a corner grid of 21 values of y in
    [0, 1 - 1e-9] by 81 multipliers v = tan(pi u / 2), u in
    [-(1 - 1e-6), 1 - 1e-6], except in the columns [v, v'] where lam v' lies
    below the lower bound of H (`hamiltonian_range`, rising with v as lam v
    does) at v, or lam v above its upper bound at v', by more than stage B's
    1e-9: their corners stay NaN, which `_straddling` never keeps.  At each
    plane v_j of `_planes`, with `singular_rows`' band 1e-12 max(1, |1 - cost|),
    the grid has a column at either end of the sliver [v_j - 2 band / j, v_j],
    none inside, and NaN corners in it: no cell spans a jump of the outflow,
    and the sliver is stage B's.  The first grid keeps the cells of
    `_first_cells`: those straddled by both residuals, and those straddled by
    one whose edge neighbour the other straddles, as that residual's contour
    may dip into the cell across their shared edge unseen by its corners.
    Each kept cell gets a 5 x 5 lattice, two levels of halving, all in one
    batched call; the 4 x 4 sub-cells that straddle are the next call's cells,
    in the order of two one-level passes, until each side is 1e-13 wide; a
    side too narrow to halve in floating point stays whole.  A cell carries
    the max-norm residual at its corners, from the call that made it, and a
    finished cell reports its corner where that is smallest.  A call
    subdivides at most _STAGE_A_CAP cells, those nearest a root by their
    corners: more only arise where the contours of the residuals run nearly
    tangent, and many cells straddle both.  The corner test
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

    y = 0 belongs to stage A alone.  Its line is degenerate only where the
    initially defaulted nodes hold no out-links (defaulted_flow / lam <= 1e-14):
    there its candidates are the multipliers of `_solve_multiplier_at`, and
    the subdivision's roots within _RESIDUAL_TOL of y = 0 are dropped.
    """
    _check_cost(cost)

    def residuals(mesh):
        y, v = mesh.reshape(2, -1)
        return np.array(program_residuals(p, cost, y, v, y)).reshape(mesh.shape)

    ys, vs, grid, dead = _first_grid(p, cost, residuals)
    each = _straddling(grid)
    each[:, :, dead] = False
    r, c = _first_cells(each)
    # per cell, a column: its sides, the sub-cell of a zoom box (else the cell),
    # the max-norm residual at its corners, and whether it only halves
    cells = back = np.array([ys[r], ys[r + 1], vs[c], vs[c + 1]])
    held = np.abs(grid).max(axis=0)[[r, r, r + 1, r + 1], [c, c + 1, c, c + 1]]
    plain, found = np.zeros(len(r), bool), []
    while len(plain):
        if len(plain) > _STAGE_A_CAP:  # keep the cells nearest a root
            near = np.argsort(held.min(axis=0), kind="stable")[:_STAGE_A_CAP]
            cells, back, held, plain = cells[:, near], back[:, near], held[:, near], plain[near]
        lattice = _quarters(cells[0::2], cells[1::2])  # (2, cells, 5): y, v
        done = (lattice[:, :, 1] == lattice[:, :, 4]).all(axis=0)
        if done.any():
            at, best = np.flatnonzero(done), held[:, done].argmin(axis=0)
            found.append(np.stack([cells[best // 2, at], cells[2 + best % 2, at]], axis=1))
            cells, back, held, plain = (a[..., ~done] for a in (cells, back, held, plain))
            lattice = lattice[:, ~done]
            if not len(plain):
                break
        mesh = _mesh(lattice[0], lattice[1])
        f = residuals(mesh)
        grow = lattice[..., 1:] > lattice[..., :-1]
        both = _straddling(f)
        keep = grow[0, :, :, None] & grow[1, :, None, :] & both[0] & both[1]
        # in the order of two one-level passes: second child, first child, cell
        a2, b2, a1, b1, k = np.nonzero(keep.reshape(-1, 2, 2, 2, 2).transpose(2, 4, 1, 3, 0))
        # the lattice points at the corners (y, v), (y, v'), (y', v), (y', v')
        corners = 25 * k + 5 * (2 * a1 + a2) + 2 * b1 + b2 + np.array([[0], [1], [5], [6]])
        sub = mesh.reshape(2, -1)[[[0], [0], [1], [1]], corners[[0, 2, 0, 1]]]
        count = np.bincount(k, minlength=len(plain))
        one, nxt = np.flatnonzero((count[k] == 1) & ~plain[k]), sub.copy()
        if len(one):
            nxt[:, one] = _zoom_box(lattice[:, k[one]], f[:, k[one]], sub[:, one])
        state = nxt, sub, np.abs(f).max(axis=0).ravel()[corners], plain[k]
        miss = (count == 0) & (cells != back).any(axis=0)  # zoom boxes that missed
        if miss.any():
            state = [np.concatenate(pair, axis=-1) for pair in zip(
                state, (back[:, miss], back[:, miss], held[:, miss], np.ones(miss.sum(), bool)))]
        cells, back, held, plain = state
    roots = np.concatenate([np.empty((0, 2))] + found)
    if _pack(p).defaulted_flow / p.lam <= 1e-14:
        at_zero = [(0.0, v) for v in _solve_multiplier_at(p, cost, 0.0)]
        roots = np.concatenate([np.reshape(at_zero, (-1, 2)), roots[roots[:, 0] > _RESIDUAL_TOL]])
    return _root_candidates(p, cost, roots[:, [0, 1, 0]], "stage_a")


def solve_stage_b(p: JointDistribution, cost: float) -> list[OPSolution]:
    """The singular branch: v on each plane (j, v_j) of `_planes`, unknowns
    (y, z), same equations; candidates in ascending j.  Off these planes no
    class is singular and z moves nothing, so their roots are stage A's.

    H does not involve z, so y solves H(y, v_j) = lam v_j alone: a scan over
    y in [0, 1] (not of the (1 - y)-scaled residual, which vanishes at the
    grid point y = 1 and would hide a root in the last cell).  The outflow
    rises with z, so each y < 1 - 1e-9 has one z in [0, y] or none (outflow
    above y at z = 0, or below it at z = y); where z moves nothing, z = 0.
    Both scans go to `_scan_roots`: the first roots `terminal_hamiltonian`
    - lam v_j, the second `default_outflow_controlled` - y, with one bracket,
    [0, y], per y.  An out-degree whose lam v_j lies more than 1e-9 outside
    the range of H(., v_j) (`hamiltonian_range`) has no root and is not
    scanned.  On the others the scan for y is bounded: it evaluates H at
    every 16th point of its 401-point lattice first, with `_hamiltonian_cells`'
    bounds of H over each span between them, and skips a span where lam v_j
    lies more than 1e-9 max(1, sum |coef|) outside them: the plane test's
    margin, grown with the rounding of H's sums where the coefficients are
    large.  Only the inner points of the other spans are evaluated, so the
    brackets and roots are those of the full lattice.
    """
    _check_cost(cost)
    support, v = _planes(p, cost)
    lo, hi = _pack(p).hamiltonian_range(cost, v)
    scanned = (lo - 1e-9 <= p.lam * v) & (p.lam * v <= hi + 1e-9)
    support, v, margin = support[scanned], v[scanned], 1e-9 * np.maximum(1.0, hi - lo)[scanned]
    if not support.size:
        return []

    def spans(r, ys):
        ham, low, high = _hamiltonian_cells(p, cost, ys, v[r])
        target = p.lam * v[r, None]
        return ham - target, low - target - margin[r, None], high - target + margin[r, None]

    row, y = _scan_roots(lambda r, ys: terminal_hamiltonian(p, cost, ys, v[r]) - p.lam * v[r],
                         np.zeros(len(support)), 1.0, bound=spans)
    row, y = row[y < 1.0 - _RESIDUAL_TOL], y[y < 1.0 - _RESIDUAL_TOL]
    at, z = _scan_roots(
        lambda r, zs: default_outflow_controlled(p, cost, y[r], v[row[r]], zs) - y[r],
        0.0, y, grid=1)
    # both ends of [0, y] are roots only where z moves nothing: keep z = 0
    at, first = np.unique(at, return_index=True)
    row = row[at]
    roots = np.stack([y[at], v[row], z[first]], axis=1)
    return [sol for k, j in enumerate(support.tolist())
            for sol in _root_candidates(p, cost, roots[row == k], f"stage_b:j={j}")]


def _solve_multiplier_at(p, cost, y):
    """All v with H(y, v) = lam * v for a fixed y < 1, scanned as v = tan(pi u / 2)
    over 401 points u in [-(1 - 1e-6), 1 - 1e-6], the first grid's map of stage A.

    `_scan_roots` scans and bisects H - lam v in u, from `terminal_hamiltonian`
    alone: for y < 1 it has the sign of the first program residual,
    (1 - y)(H - lam v), and at y = 0 the same value.
    """
    def excess(_rows, u):
        v = np.tan(0.5 * np.pi * u)
        return terminal_hamiltonian(p, cost, y, v) - p.lam * v

    us = _scan_roots(excess, -(1.0 - 1e-6), 1.0 - 1e-6)[1]
    return np.tan(0.5 * np.pi * us).tolist()


def _boundary_candidates(p: JointDistribution, cost: float) -> list[OPSolution]:
    """y = 1, every link revealed: a candidate when the vulnerable and defaulted
    classes hold all but _RESIDUAL_TOL of the out-degree mass lam."""
    out_mass = sum(j * m for (i, j, c), m in p.entries.items() if c <= i)
    support_j = sorted({j for (_i, j, _c) in p.entries if j > 0})
    if out_mass < p.lam * (1.0 - _RESIDUAL_TOL) or not support_j:
        return []
    v_b = (1.0 - cost) / support_j[0] if cost < 1.0 else 0.0
    return _candidates(p, cost, [(1.0, v_b, 1.0)], "boundary:y=1")


def solve_op(p: JointDistribution, cost: float) -> OPSolution:
    """Best feasible candidate across both stages and the boundaries.

    Ties within 1e-9 of the minimum objective prefer stable candidates, then
    the smallest y (mirroring the smallest-fixed-point convention), with y
    within _DEDUP_TOL a tie broken by _BRANCH_ORDER: one point found by two
    branches gets one label.  An unstable minimizer (y = 1 is stable by
    definition) is still returned, with a warning that the asymptotic
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
    if not best.stable:
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
    sing = singular_rows(i, j, c, cost, v).tolist()
    thresholds = {key: min(max(x, 0.0), 1.0)
                  for key, x, s in zip(keys, starts, sing) if not s and x < y - 1e-12}
    singular = {key[:2]: max(0.0, z)
                for key, s in zip(keys, sing) if s and z < y - 1e-12}
    return InterventionPolicy.table(thresholds, singular)


def asymptotic_prediction(
    sol: OPSolution, p: JointDistribution, cost: float
) -> tuple[float, float, float]:
    """(defaults/n, aid/n, T/m) limits under the solution's policy.

    Only valid at a stable solution; y = 1 is stable by definition, as every
    link is revealed and the limits are the solution's own: a node the policy
    aids through its last loss survives even then.
    """
    if not sol.stable:
        raise ParameterError(f"prediction refused: y={sol.end_fraction:.6f} is an unstable fixed "
                             f"point (branch {sol.branch}); limits are not guaranteed")
    return sol.defaults, sol.interventions, sol.end_fraction
