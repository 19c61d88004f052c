"""Stage A by pure sign-change subdivision, kept as the reference that
`optimizer.solve_stage_a` must match.

Every kept cell gets a 5 x 5 lattice, two levels of halving, and each of its
straddling 4 x 4 sub-cells is a cell of the next call, until it is 1e-13 wide
in y and in v: about 20 lattice calls to an isolated root, where the solver
zooms on a plane fit of the lattice instead.  The first grid, the skipped
multiplier columns, the cap, the finish and the y = 0 candidates are the
solver's own.
"""

import numpy as np

from contagion_control.asymptotics import _pack, default_outflow, program_residuals
from contagion_control.optimizer import (
    _STAGE_A_CAP,
    _STAGE_A_GRID,
    _check_cost,
    _corners,
    _first_cells,
    _quarters,
    _root_candidates,
    _solve_multiplier_at,
    _straddles,
)


def solve_stage_a(p, cost):
    """The stage-A candidates of `optimizer.solve_stage_a`, one halving
    subdivision per kept cell."""
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
