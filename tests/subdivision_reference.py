"""Stage A by pure sign-change subdivision, kept as the reference that
`optimizer.solve_stage_a` must match.

Every kept cell gets a 5 x 5 lattice, two levels of halving, and each of its
straddling 4 x 4 sub-cells is a cell of the next call, until it is 1e-13 wide
in y and in v: about 20 lattice calls to an isolated root, where the solver
zooms on a plane fit of the lattice instead.  The first grid (`_first_grid`,
with its skipped multiplier columns and its stops at the outflow's jumps), the
cap, the finish and the y = 0 candidates are the solver's own.  The corner
tests, the choice of the first grid's cells and the halving are kept here in
their first form, one (..., 4, 2) array of corner values per cell, so that
the solver's own forms of them are checked against these.
"""

import numpy as np

from contagion_control.asymptotics import _pack, program_residuals
from contagion_control.optimizer import (
    _RESIDUAL_TOL,
    _STAGE_A_CAP,
    _STAGE_A_WIDTH,
    _check_cost,
    _first_grid,
    _root_candidates,
    _solve_multiplier_at,
)


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
    it."""
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


def solve_stage_a(p, cost):
    """The stage-A candidates of `optimizer.solve_stage_a`, one halving
    subdivision per kept cell."""
    _check_cost(cost)

    def residuals(y, v):
        r = program_residuals(p, cost, y.ravel(), v.ravel(), y.ravel())
        return np.stack(r, axis=-1).reshape(*y.shape, 2)

    # the solver's first grid holds both residuals on a leading axis
    ys, vs, grid, dead = _first_grid(p, cost, lambda mesh: np.moveaxis(residuals(*mesh), -1, 0))
    corners = _corners(np.moveaxis(grid, 0, -1))
    corners[:, dead] = np.nan
    r, c = _first_cells(corners)
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
    if _pack(p).defaulted_flow / p.lam <= 1e-14:
        at_zero = [(0.0, v) for v in _solve_multiplier_at(p, cost, 0.0)]
        roots = np.concatenate([np.reshape(at_zero, (-1, 2)), roots[roots[:, 0] > _RESIDUAL_TOL]])
    return _root_candidates(p, cost, roots[:, [0, 1, 0]], "stage_a")
