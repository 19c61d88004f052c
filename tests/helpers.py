"""Helpers that only the tests call.

Trajectory bookkeeping (the defaulted share and the hidden pool implied by
the closed-form state masses), an independent Monte Carlo route to the Zipf
copula, and the degree truncation index of a distribution.  Nothing in the
package calls them.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

from contagion_control import JointDistribution, ParameterError
from contagion_control.asymptotics import Trajectory
from contagion_control.distribution import zipf_weights


def default_fraction_at(traj: Trajectory, p: JointDistribution) -> float:
    """Scaled defaulted count implied by the trajectory."""
    vulnerable = sum(m for (i, _j, c), m in p.entries.items() if c <= i)
    return vulnerable - sum(traj.s.values())


def hidden_pool_scaled(traj: Trajectory, p: JointDistribution) -> float:
    """Scaled unrevealed out-links of the default set; termination is its first zero."""
    total = sum(j * m for (i, j, c), m in p.entries.items() if c <= i)
    live = sum(j * v for (i, j, _c, _l), v in traj.s.items())
    return total - live - traj.tau


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
