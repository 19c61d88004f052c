"""Joint (in-degree, out-degree, initial equity) distributions.

A network class is a triple (i, j, c): a node with in-degree i owes nothing to
its debtors but can lose up to i loans, has j loans outstanding to creditors,
and starts with equity c (the number of lost loans it survives).  c = 0 means
defaulted at time zero, 0 < c <= i means vulnerable, c > i means invulnerable.
Invulnerable classes are stored explicitly: they never default but their stubs
absorb links during contagion, so they count toward the mean degree.

Conventions:
- masses are nonnegative and sum to at most 1 (up to float slack);
- the in- and out-degree means must agree to 1e-12, their common value is the
  mean degree `lam`;
- support is finite (a max degree is recorded).
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .errors import ConstructionError, ParameterError

ClassKey = tuple[int, int, int]  # (in_degree, out_degree, initial_equity)

_BALANCE_TOL = 1e-12
_MASS_SLACK = 1e-9
# Standard-normal mass beyond +-8.5 is ~1e-17; quantile rectangles are clipped there.
_NORMAL_CLIP = 8.5
_NORMAL_QUANTILE = NormalDist().inv_cdf
# Copula quadrature: Gauss-Legendre panels of at most this width and order.
_PANEL_WIDTH = 0.5
_PANEL_ORDER = 12
# The copula's quadrature grid has about (12 max_deg)^2 points: at 200 a build
# takes about half a second and 170 MB, and the grid grows with the square.
MAX_COPULA_DEGREE = 200


@dataclass(frozen=True)
class JointDistribution:
    """Limiting class probabilities p(i, j, c) with mean degree `lam`."""

    entries: dict[ClassKey, float]
    lam: float = field(init=False)

    def __post_init__(self):
        in_mean = 0.0
        out_mean = 0.0
        total = 0.0
        for (i, j, c), mass in self.entries.items():
            if i < 0 or j < 0 or c < 0:
                raise ParameterError(f"negative index in class {(i, j, c)}")
            if not (math.isfinite(mass) and mass >= 0):
                raise ParameterError(f"mass must be finite and nonnegative, got {mass} "
                                     f"for class {(i, j, c)}")
            in_mean += i * mass
            out_mean += j * mass
            total += mass
        if total > 1.0 + _MASS_SLACK:
            raise ParameterError(f"total mass {total} exceeds 1")
        if abs(in_mean - out_mean) > _BALANCE_TOL:
            raise ParameterError(
                f"in/out degree means differ: {in_mean} vs {out_mean} "
                f"(|diff| > {_BALANCE_TOL})"
            )
        object.__setattr__(self, "lam", in_mean)
        vuln = tuple(
            (i, j, c, m) for (i, j, c), m in sorted(self.entries.items()) if c <= i
        )
        object.__setattr__(self, "_vulnerable", vuln)

    @property
    def max_degree(self) -> int:
        return max((max(i, j) for (i, j, _c) in self.entries), default=0)

    def mass(self, i: int, j: int, c: int) -> float:
        return self.entries.get((i, j, c), 0.0)

    def vulnerable_items(self) -> tuple[tuple[int, int, int, float], ...]:
        """(i, j, c, mass) for classes with c <= i (defaulted or vulnerable), sorted."""
        return self._vulnerable  # type: ignore[attr-defined]

    def vulnerable_pairs(self) -> list[tuple[int, int]]:
        """Sorted (i, j) pairs carrying vulnerable mass (some 1 <= c <= i with mass > 0).

        Aid lifts a node's cushion, so every cushion 1..i of such a pair can
        hold mass later on.
        """
        return sorted({(i, j) for (i, j, c), m in self.entries.items() if 1 <= c <= i and m > 0})


@dataclass(frozen=True)
class EmpiricalCounts:
    """Finite-n node counts per class; `m` is the common stub total per side."""

    n: int
    counts: dict[ClassKey, int]
    m: int = field(init=False)

    def __post_init__(self):
        total = sum(self.counts.values())
        if total != self.n:
            raise ParameterError(f"counts sum to {total}, expected n={self.n}")
        m_in = sum(i * cnt for (i, _j, _c), cnt in self.counts.items())
        m_out = sum(j * cnt for (_i, j, _c), cnt in self.counts.items())
        if m_in != m_out:
            raise ParameterError(f"stub totals unbalanced: in={m_in} out={m_out}")
        object.__setattr__(self, "m", m_in)

    def to_distribution(self) -> JointDistribution:
        """The empirical distribution P_n = counts / n."""
        return JointDistribution({k: cnt / self.n for k, cnt in self.counts.items() if cnt})


def zipf_weights(exponent: float, max_val: int) -> np.ndarray:
    """Normalized masses k^-(1+exponent) on {1..max_val}."""
    ks = np.arange(1, max_val + 1, dtype=float)
    w = ks ** -(1.0 + exponent)
    return w / w.sum()


def _gauss_legendre_panels(edges: np.ndarray):
    """Composite Gauss-Legendre nodes/weights over [edges[0], edges[-1]].

    Each inter-edge segment is split into panels of width <= _PANEL_WIDTH so
    the bivariate normal density is resolved to ~1e-14 regardless of segment size.
    Returns (nodes, weights, segment_of_node).
    """
    ref_x, ref_w = np.polynomial.legendre.leggauss(_PANEL_ORDER)
    nodes, weights, seg_ids = [], [], []
    for s in range(len(edges) - 1):
        a, b = edges[s], edges[s + 1]
        if b <= a:
            continue
        n_panels = max(1, int(math.ceil((b - a) / _PANEL_WIDTH)))
        bounds = np.linspace(a, b, n_panels + 1)
        for q in range(n_panels):
            lo, hi = bounds[q], bounds[q + 1]
            half = 0.5 * (hi - lo)
            nodes.append(0.5 * (hi + lo) + half * ref_x)
            weights.append(half * ref_w)
            seg_ids.append(np.full(_PANEL_ORDER, s, dtype=int))
    return np.concatenate(nodes), np.concatenate(weights), np.concatenate(seg_ids)


def copula_cuts(marg: np.ndarray) -> np.ndarray:
    """Cut points of one copula axis: standard-normal quantiles of 0 and of the
    cumulative masses of `marg` (the last set to 1), clipped to +-_NORMAL_CLIP."""
    cum = np.concatenate([[0.0], np.cumsum(marg)])
    cum[-1] = 1.0
    return np.array([-_NORMAL_CLIP if q <= 0.0 else _NORMAL_CLIP if q >= 1.0
                     else min(max(_NORMAL_QUANTILE(q), -_NORMAL_CLIP), _NORMAL_CLIP)
                     for q in cum.tolist()])


def gaussian_copula_cells(marg_row: np.ndarray, marg_col: np.ndarray, rho: float) -> np.ndarray:
    """Cell masses of a Gaussian copula over two discrete marginals.

    Cells are quantile rectangles: the standard-normal plane is cut at the
    inverse normal CDF of the marginal cumulative masses, and the bivariate
    normal density with correlation rho is integrated over each rectangle by
    composite Gauss-Legendre quadrature.  Near |rho| = 1 the density is too
    narrow for the panels, so a row or column sum that misses its marginal by
    more than 1e-9 is a ParameterError naming rho (|rho| <= 0.997 passes).
    The quantile is the standard library's `NormalDist().inv_cdf` (Wichura's
    AS241, accurate to about 1e-16); cut points are clipped to +-8.5, and
    cumulative masses p <= 0 and p >= 1, where the quantile is infinite, map
    straight to -8.5 and +8.5.
    """
    if not -1.0 < rho < 1.0:
        raise ParameterError(f"copula correlation must lie in (-1, 1), got {rho}")

    tr, tc = copula_cuts(marg_row), copula_cuts(marg_col)
    xs, wx, seg_x = _gauss_legendre_panels(tr)
    ys, wy, seg_y = _gauss_legendre_panels(tc)

    one_m_r2 = 1.0 - rho * rho
    norm = 1.0 / (2.0 * math.pi * math.sqrt(one_m_r2))
    X = xs[:, None]
    Y = ys[None, :]
    dens = norm * np.exp(-(X * X - 2.0 * rho * X * Y + Y * Y) / (2.0 * one_m_r2))
    contrib = (wx[:, None] * wy[None, :]) * dens

    cells = np.zeros((len(marg_row), len(marg_col)))
    np.add.at(cells, (seg_x[:, None], seg_y[None, :]), contrib)
    miss = max(np.abs(cells.sum(axis=1) - marg_row).max(),
               np.abs(cells.sum(axis=0) - marg_col).max())
    if miss > 1e-9:
        raise ParameterError(f"copula correlation {rho} is too close to +-1: the quadrature "
                             f"misses a marginal by {miss:.2g} (above 1e-9)")
    return cells


def build_zipf_copula(
    xi: float, a1: float, a2: float, rho: float, max_deg: int
) -> JointDistribution:
    """Experiment-style distribution: i = j, uniform initial defaults, copula-coupled equity.

    A fraction xi of nodes defaults at time zero, spread uniformly over degrees
    1..max_deg.  The remaining liquid mass gets a joint (degree, equity) law on
    {1..max_deg}^2 from a Gaussian copula with correlation rho over two Zipf
    marginals with exponents a1 (degree) and a2 (equity).  Equity above the
    degree is retained as invulnerable mass.  max_deg is capped at
    MAX_COPULA_DEGREE (200), checked before anything is allocated.
    """
    if not 0.0 <= xi < 1.0:
        raise ParameterError(f"initial default fraction must be in [0, 1), got {xi}")
    if not all(math.isfinite(a) and a > 0 for a in (a1, a2)):
        raise ParameterError(f"Zipf exponents must be positive and finite, got ({a1}, {a2})")
    if not -1.0 < rho < 1.0:
        raise ParameterError(f"correlation must lie in (-1, 1), got {rho}")
    if not 1 <= max_deg <= MAX_COPULA_DEGREE:
        raise ParameterError(
            f"max degree must be in [1, {MAX_COPULA_DEGREE}] (the copula grid grows "
            f"with its square), got {max_deg}")

    cells = gaussian_copula_cells(zipf_weights(a1, max_deg), zipf_weights(a2, max_deg), rho)
    entries: dict[ClassKey, float] = {}
    for i in range(1, max_deg + 1):
        entries[(i, i, 0)] = xi / max_deg
        for c in range(1, max_deg + 1):
            mass = (1.0 - xi) * cells[i - 1, c - 1]
            if mass > 0.0:
                entries[(i, i, c)] = mass
    return JointDistribution(entries)


def empirical_counts(p: JointDistribution, n: int) -> EmpiricalCounts:
    """Round n*p to integer node counts, repaired so the counts sum to n.

    Starts from plain rounding, then applies a largest-remainder correction:
    deficits go to the classes most under-rounded, surpluses are taken from the
    most over-rounded.  For i != j supports a greedy node-swap pass then
    restores stub balance; if it cannot, a ConstructionError names the deficit.
    """
    if n < 1:
        raise ParameterError(f"population size must be >= 1, got {n}")
    total = sum(p.entries.values())
    if total < 1.0 - _MASS_SLACK:
        raise ParameterError(f"total mass {total} is below 1: a population needs a "
                             f"distribution of all its nodes")
    keys = sorted(p.entries)
    targets = {k: n * p.entries[k] for k in keys}
    counts = {k: int(round(targets[k])) for k in keys}
    deficit = n - sum(counts.values())
    if deficit != 0:
        # remainder = how much the class is still owed relative to its target
        order = sorted(keys, key=lambda k: (-(targets[k] - counts[k]), k))
        if deficit > 0:
            for k in order[:deficit]:
                counts[k] += 1
        else:
            takeable = [k for k in reversed(order) if counts[k] > 0]
            for k in takeable[:-deficit]:
                counts[k] -= 1
    counts = {k: v for k, v in counts.items() if v > 0}

    m_in = sum(i * v for (i, _j, _c), v in counts.items())
    m_out = sum(j * v for (_i, j, _c), v in counts.items())
    if m_in != m_out:
        counts = _rebalance_stubs(counts, m_in - m_out)
    return EmpiricalCounts(n=n, counts=counts)


def _rebalance_stubs(counts: dict[ClassKey, int], imbalance: int) -> dict[ClassKey, int]:
    """Greedy node moves between classes until sum(i*count) == sum(j*count).

    Moving one node from class a to class b changes the imbalance by
    (i_b - i_a) - (j_b - j_a); only moves that shrink |imbalance| are taken,
    largest classes first.  Used only when the support has i != j classes.
    """
    counts = dict(counts)
    keys = sorted(counts)
    for _ in range(10000):
        if imbalance == 0:
            return counts
        best = None
        for a in keys:
            if counts.get(a, 0) <= 0:
                continue
            for b in keys:
                if a == b:
                    continue
                delta = (b[0] - a[0]) - (b[1] - a[1])
                new_imb = imbalance + delta
                if abs(new_imb) < abs(imbalance):
                    score = (abs(new_imb), -counts[a])
                    if best is None or score < best[0]:
                        best = (score, a, b, new_imb)
        if best is None:
            break
        _, a, b, imbalance = best
        counts[a] -= 1
        counts[b] = counts.get(b, 0) + 1
        if counts[a] == 0:
            del counts[a]
    raise ConstructionError(
        f"cannot balance stub totals: residual in-out deficit of {imbalance} stubs"
    )


def _spell(value) -> str:
    """A value as JSON writes it (true, null, "x"), or its repr where JSON cannot."""
    try:
        return json.dumps(value)
    except (TypeError, ValueError):
        return repr(value)


def parse_int(value, what: str) -> int:
    """The one integer reader of JSON inputs: ints, integral floats and integer
    strings pass; a fraction such as 4.9 or a boolean is refused, not rounded.
    Every reader's refusal is a ParameterError naming `what`, value `_spell`ed."""
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
    elif not isinstance(value, bool):
        try:
            return int(value) if isinstance(value, str) else operator.index(value)
        except (TypeError, ValueError):
            pass
    raise ParameterError(f"{what} must be an integer, got {_spell(value)}")


def parse_float(value, what: str) -> float:
    """The one number reader of JSON inputs: `float(value)` of a number or a
    numeric string ("nan" too); a boolean, null or anything else is refused."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ParameterError(f"{what} must be a number, got {_spell(value)}")


def parse_array(value, what: str):
    """The one array reader of JSON inputs: a list or tuple, returned as it is;
    a string or a number is refused, not iterated."""
    if isinstance(value, (list, tuple)):
        return value
    raise ParameterError(f"{what} must be an array, got {_spell(value)}")


def parse_object(value, what: str, *required: str) -> dict:
    """The one object reader of JSON inputs: a dict holding every `required`
    key, returned as it is; else refused, naming the first missing key."""
    if not isinstance(value, dict):
        raise ParameterError(f"{what} must be an object, got {_spell(value)}")
    for key in required:
        if key not in value:
            raise ParameterError(f"{what} needs {key!r}: {_spell(value)}")
    return value


def distribution_from_spec(spec: dict) -> JointDistribution:
    """Build a distribution from its JSON form.

    Schemas:
      {"kind": "zipf_copula", "xi":, "a1":, "a2":, "rho":, "max_deg":}
      {"kind": "explicit", "entries": [[i, j, c, mass], ...]}
    A zipf_copula max_deg above MAX_COPULA_DEGREE (200) is a ParameterError.
    """
    kind = parse_object(spec, "distribution spec", "kind")["kind"]
    if kind == "zipf_copula":
        parse_object(spec, "zipf_copula spec", "xi", "a1", "a2", "rho", "max_deg")
        return build_zipf_copula(*(parse_float(spec[k], k) for k in ("xi", "a1", "a2", "rho")),
                                 max_deg=parse_int(spec["max_deg"], "max_deg"))
    if kind == "explicit":
        entries = {}
        for row in parse_array(spec.get("entries", []), "explicit entries"):
            if len(parse_array(row, "explicit entry")) != 4:
                raise ParameterError(f"explicit entry must be [i, j, c, mass], got {_spell(row)}")
            key = tuple(parse_int(k, "degree or equity") for k in row[:3])
            entries[key] = entries.get(key, 0.0) + parse_float(row[3], "mass")
        return JointDistribution(entries)
    raise ParameterError(f"unknown distribution kind {_spell(kind)}")
