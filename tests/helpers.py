"""Helpers that only the tests call.

Trajectory bookkeeping (the defaulted share and the hidden pool implied by
the closed-form state masses), single limits of the optimal policy read from
the package's kernels, an independent Monte Carlo route to the Zipf copula,
the Zipf copula built with scipy's `ndtri` as its quantile, the copula's
cells summed over the whole quadrature grid at once, and the degree
truncation index of a distribution.  Nothing in the package calls them.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
from scipy.special import ndtr, ndtri

from contagion_control import JointDistribution, ParameterError, build_zipf_copula
from contagion_control import distribution
from contagion_control.asymptotics import Trajectory, _optimal_starts, controlled_limits
from contagion_control.distribution import (
    _gauss_legendre_panels, copula_cuts, zipf_weights)


def default_fraction_at(traj: Trajectory, p: JointDistribution) -> float:
    """Scaled defaulted count implied by the trajectory."""
    vulnerable = sum(m for (i, _j, c), m in p.entries.items() if c <= i)
    return vulnerable - sum(traj.s.values())


def hidden_pool_scaled(traj: Trajectory, p: JointDistribution) -> float:
    """Scaled unrevealed out-links of the default set; termination is its first zero."""
    total = sum(j * m for (i, j, c), m in p.entries.items() if c <= i)
    live = sum(j * v for (i, j, _c, _l), v in traj.s.items())
    return total - live - traj.tau


def intervention_start(i, j, c, cost, multiplier, end_fraction):
    """Scaled start time of aid for class (i, j, c) under the optimal policy;
    the horizon when aid never pays, and for a defaulted class (c = 0)."""
    if c == 0:
        return end_fraction
    return float(_optimal_starts(i, j, c, cost, multiplier, end_fraction))


def default_fraction_controlled(p, cost, y, v, z):
    """Defaulted node share under the optimal policy at (y, v, z)."""
    return controlled_limits(p, cost, y, v, z)[1]


def intervention_volume(p, cost, y, v, z):
    """Scaled count of aid units under the optimal policy at (y, v, z)."""
    return controlled_limits(p, cost, y, v, z)[2]


def sample_zipf_copula(
    xi: float, a1: float, a2: float, rho: float, max_deg: int, size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo draws of (degree, equity) from the `build_zipf_copula`
    construction.

    Sampling route (normal draws mapped through the marginal quantiles), kept
    independent of the quadrature in `gaussian_copula_cells` so the two can
    cross-check each other.
    """
    defaults = rng.random(size) < xi
    deg = np.empty(size, dtype=int)
    eq = np.zeros(size, dtype=int)
    n_def = int(defaults.sum())
    deg[defaults] = rng.integers(1, max_deg + 1, size=n_def)
    n_liq = size - n_def
    cov = [[1.0, rho], [rho, 1.0]]
    zz = rng.multivariate_normal([0.0, 0.0], cov, size=n_liq)
    u, v = ndtr(zz[:, 0]), ndtr(zz[:, 1])
    cum1 = np.cumsum(zipf_weights(a1, max_deg))
    cum2 = np.cumsum(zipf_weights(a2, max_deg))
    deg[~defaults] = np.searchsorted(cum1, u, side="right") + 1
    eq[~defaults] = np.searchsorted(cum2, v, side="right") + 1
    np.clip(deg, 1, max_deg, out=deg)
    np.clip(eq, 0, max_deg, out=eq)
    return deg, eq


def ndtri_cuts(marg: np.ndarray) -> np.ndarray:
    """Copula cut points of one axis from scipy's `ndtri`, clipped to +-8.5."""
    cum = np.concatenate([[0.0], np.cumsum(marg)])
    cum[-1] = 1.0
    return np.clip(ndtri(np.clip(cum, 1e-300, 1.0)), -8.5, 8.5)


def build_zipf_copula_ndtri(
    xi: float, a1: float, a2: float, rho: float, max_deg: int
) -> JointDistribution:
    """`build_zipf_copula` with `ndtri_cuts` in place of `copula_cuts`."""
    with mock.patch.object(distribution, "copula_cuts", ndtri_cuts):
        return build_zipf_copula(xi, a1, a2, rho, max_deg)


def whole_grid_copula_cells(marg_row: np.ndarray, marg_col: np.ndarray, rho: float) -> np.ndarray:
    """`gaussian_copula_cells` in one piece: the density on the whole quadrature
    grid, added into the cells by one `np.add.at`, in the grid's C order."""
    xs, wx, seg_x = _gauss_legendre_panels(copula_cuts(marg_row))
    ys, wy, seg_y = _gauss_legendre_panels(copula_cuts(marg_col))
    one_m_r2 = 1.0 - rho * rho
    norm = 1.0 / (2.0 * math.pi * math.sqrt(one_m_r2))
    X, Y = xs[:, None], ys[None, :]
    dens = norm * np.exp(-(X * X - 2.0 * rho * X * Y + Y * Y) / (2.0 * one_m_r2))
    cells = np.zeros((len(marg_row), len(marg_col)))
    np.add.at(cells, (seg_x[:, None], seg_y[None, :]), (wx[:, None] * wy[None, :]) * dens)
    return cells


def truncation_index(p: JointDistribution, eps: float) -> int:
    """Smallest M with both degree-weighted tail masses over {max(i,j) >= M} below eps."""
    if eps <= 0:
        raise ParameterError(f"tolerance must be positive, got {eps}")
    for m_cut in range(0, p.max_degree + 2):
        tail_i = sum(i * m for (i, j, _c), m in p.entries.items() if max(i, j) >= m_cut)
        tail_j = sum(j * m for (i, j, _c), m in p.entries.items() if max(i, j) >= m_cut)
        if tail_i < eps and tail_j < eps:
            return m_cut
    return p.max_degree + 1
