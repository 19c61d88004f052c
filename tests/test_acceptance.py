"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Tolerances are fixed here, not tuned at runtime.
"""

import math
import time

import numpy as np
import pytest

from contagion_control import (
    EmpiricalCounts,
    InterventionPolicy,
    JointDistribution,
    build_zipf_copula,
    default_fraction,
    default_outflow,
    empirical_counts,
    extract_policy,
    instantiate,
    run,
    smallest_fixed_point,
    solve_op,
    trajectory_at,
)
from contagion_control.asymptotics import forced_policy_limits
from contagion_control.experiments import StudyConfig, normalize_policy_spec, run_study, theory_limits
from contagion_control.optimizer import asymptotic_prediction

import scalar_limits as scalar
from conftest import make_rng
from exact_oracle import exact_expectation
from test_asymptotics import random_fixture


def _report(criterion: str, ok: bool, detail: str):
    print(f"\n[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def experiment_dist():
    return build_zipf_copula(0.5, 0.8, 0.7, 0.9, 10)


# -----------------------------------------------------------------------------
# 1. closed-form trajectories match RK4 integration on random fixtures
# -----------------------------------------------------------------------------

def test_criterion_1_ode_equivalence():
    t0 = time.time()
    rng = make_rng(2024)
    worst = 0.0
    for _ in range(20):
        p, policy = random_fixture(rng, max_deg=5)
        tau = float(rng.uniform(0.2, 0.95)) * p.lam
        exact = trajectory_at(p, policy, tau)
        numeric = scalar.integrate_rk4(p, policy, tau, h=1e-3 * p.lam)
        worst = max(worst, max(abs(exact.s[k] - numeric.s[k]) for k in exact.s))
    elapsed = time.time() - t0
    _report(
        "criterion 1: ODE equivalence",
        worst < 1e-8 and elapsed < 60,
        f"sup-norm {worst:.3e} over 20 fixtures (tol 1e-8), {elapsed:.1f}s",
    )


# -----------------------------------------------------------------------------
# 2. Monte Carlo agrees with the exact enumeration oracle on every m <= 6 fixture
# -----------------------------------------------------------------------------

def test_criterion_2_exact_oracle_agreement():
    t0 = time.time()
    fixtures = [
        ({(1, 1, 0): 1, (1, 1, 1): 2}, InterventionPolicy.none()),
        ({(1, 1, 0): 1, (1, 1, 1): 2}, InterventionPolicy.complete()),
        ({(2, 2, 0): 1, (2, 2, 2): 2}, InterventionPolicy.none()),
        ({(2, 2, 0): 1, (2, 2, 1): 1, (1, 1, 1): 2}, InterventionPolicy.degree_range(2, 2)),
        ({(2, 2, 0): 1, (2, 2, 2): 2}, InterventionPolicy.table({(2, 2, 2): 0.5, (2, 2, 3): 0.0})),
        ({(3, 3, 0): 1, (1, 1, 1): 3}, InterventionPolicy.none()),
    ]
    trials = 10_000
    checks = []
    for counts, policy in fixtures:
        pop = instantiate(EmpiricalCounts(n=sum(counts.values()), counts=counts))
        assert pop.m <= 6
        e_d, e_it, e_t = exact_expectation(pop, policy)
        rng = make_rng(555, pop.m, len(policy.thresholds))
        samples = np.empty((trials, 3))
        for t in range(trials):
            out = run(pop, policy, rng)
            samples[t] = (out.defaults, out.interventions, out.T)
        for col, exact in enumerate((e_d, e_it, e_t)):
            mean = samples[:, col].mean()
            se = samples[:, col].std(ddof=1) / math.sqrt(trials)
            checks.append(abs(mean - float(exact)) <= 3 * se + 1e-12)

    cycle = instantiate(EmpiricalCounts(n=3, counts={(1, 1, 0): 1, (1, 1, 1): 2}))
    e_d, _e_it, _e_t = exact_expectation(cycle, InterventionPolicy.none())
    exact_two = e_d == 2  # exact rational equality
    elapsed = time.time() - t0
    _report(
        "criterion 2: exact-oracle agreement",
        all(checks) and exact_two and elapsed < 60,
        f"{sum(checks)}/{len(checks)} moment checks in 3 SE; cycle fixture E[D]={e_d} "
        f"(exact); {elapsed:.1f}s",
    )


# -----------------------------------------------------------------------------
# 3. analytic fixed point of the quadratic fixture
# -----------------------------------------------------------------------------

def test_criterion_3_analytic_fixed_point():
    p = JointDistribution({(2, 2, 0): 0.2, (2, 2, 2): 0.8})
    y, stable = smallest_fixed_point(lambda y: default_outflow(p, y))
    j_val = default_fraction(p, y)
    ok = abs(y - 0.25) < 1e-10 and abs(j_val - 0.25) < 1e-10 and stable
    _report(
        "criterion 3: analytic fixed point",
        ok,
        f"y*={y:.12f}, defaults={j_val:.12f} (targets 0.25 to 1e-10, stable)",
    )


# -----------------------------------------------------------------------------
# 4. program feasibility, optimality sandwich, and the dense grid-scan oracle
# -----------------------------------------------------------------------------

def _oracle_candidates_stage_a(p, cost, y_grid, v_lo, v_hi, v_points):
    """(y, v, z=y) points satisfying both program equations, by scan + bisection."""
    lam = p.lam
    vs = np.linspace(v_lo, v_hi, v_points)

    def ham_gap(y, v):
        return scalar.terminal_hamiltonian(p, cost, y, v) - lam * v

    def v_roots(y):
        vals = [ham_gap(y, v) for v in vs]
        roots = []
        for k in range(len(vs) - 1):
            if vals[k] == 0.0:
                roots.append(vs[k])
            elif vals[k] * vals[k + 1] < 0.0:
                lo, hi = vs[k], vs[k + 1]
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    if ham_gap(y, lo) * ham_gap(y, mid) <= 0:
                        hi = mid
                    else:
                        lo = mid
                roots.append(0.5 * (lo + hi))
        return roots

    def outflow_gap(y, v):
        return scalar.default_outflow_controlled(p, cost, y, v, y) - y

    found = []
    prev = [(v, outflow_gap(y_grid[0], v)) for v in v_roots(y_grid[0])]
    for y_prev, y_next in zip(y_grid, y_grid[1:]):
        cur = [(v, outflow_gap(y_next, v)) for v in v_roots(y_next)]
        for v0, g0 in prev:
            # follow the closest multiplier branch
            near = [(v1, g1) for v1, g1 in cur if abs(v1 - v0) < 0.1]
            if not near:
                continue
            v1, g1 = min(near, key=lambda t: abs(t[0] - v0))
            if g0 == 0.0:
                found.append((y_prev, v0))
            if g0 * g1 < 0.0:
                lo, hi, v_lo_branch = y_prev, y_next, v0
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    roots_mid = v_roots(mid)
                    if not roots_mid:
                        break
                    v_mid = min(roots_mid, key=lambda v: abs(v - v_lo_branch))
                    if outflow_gap(lo, v_lo_branch) * outflow_gap(mid, v_mid) <= 0:
                        hi = mid
                    else:
                        lo, v_lo_branch = mid, v_mid
                y_star = 0.5 * (lo + hi)
                vr = v_roots(y_star)
                if vr:
                    found.append((y_star, min(vr, key=lambda v: abs(v - v0))))
        prev = cur
    return [(y, v, y) for y, v in found]


def _oracle_candidates_stage_b(p, cost, y_grid, j):
    """(y, v=(1-cost)/j, z) points on the singular plane of out-degree j."""
    lam = p.lam
    v = (1.0 - cost) / j

    def f1(y):
        return (1.0 - y) * (scalar.terminal_hamiltonian(p, cost, y, v) - lam * v)

    candidates = []
    vals = [f1(y) for y in y_grid]
    y_roots = []
    for k in range(len(y_grid) - 1):
        if vals[k] == 0.0:
            y_roots.append(y_grid[k])
        elif vals[k] * vals[k + 1] < 0.0:
            lo, hi = y_grid[k], y_grid[k + 1]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if f1(lo) * f1(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            y_roots.append(0.5 * (lo + hi))
    for y in y_roots:
        if y >= 1.0 - 1e-9:
            continue

        def gap(z):
            return scalar.default_outflow_controlled(p, cost, y, v, z) - y

        if gap(0.0) > 0.0 or gap(y) < 0.0:
            continue
        lo, hi = 0.0, y
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if gap(mid) <= 0.0:
                lo = mid
            else:
                hi = mid
        candidates.append((y, v, 0.5 * (lo + hi)))
    return candidates


def _grid_scan_minimum(p, cost, resolution=1e-3):
    """Dense independent search of the program at the stated resolution."""
    y_grid = np.arange(resolution, 1.0, resolution)
    v_lo, v_hi = -cost - 2.0, 2.5
    cands = _oracle_candidates_stage_a(p, cost, y_grid, v_lo, v_hi, 1601)
    for j in sorted({j for (_i, j, _c) in p.entries if j > 0}):
        cands.extend(_oracle_candidates_stage_b(p, cost, y_grid, j))
    objs = []
    for y, v, z in cands:
        # bisection across a control-branch kink can bracket a jump instead of
        # a root; keep only candidates that actually satisfy both equations
        r1 = (1.0 - y) * (scalar.terminal_hamiltonian(p, cost, y, v) - p.lam * v)
        r2 = scalar.default_outflow_controlled(p, cost, y, v, z) - y
        if max(abs(r1), abs(r2)) > 1e-6:
            continue
        objs.append(cost * scalar.intervention_volume(p, cost, y, v, z)
                    + scalar.default_fraction_controlled(p, cost, y, v, z))
    # boundaries
    if scalar.default_outflow(p, 0.0) <= 1e-14:
        objs.append(sum(m for (i, j, c), m in p.entries.items() if c == 0))
    out_mass = sum(j * m for (i, j, c), m in p.entries.items() if c <= i)
    if abs(out_mass - p.lam) <= 1e-12:
        objs.append(sum(m for (i, j, c), m in p.entries.items() if c <= i))
    return min(objs)


def test_criterion_4_program_feasibility_and_oracle():
    t0 = time.time()
    quadratic = JointDistribution({(2, 2, 0): 0.2, (2, 2, 2): 0.8})
    one_regular = JointDistribution({(1, 1, 0): 0.25, (1, 1, 1): 0.75})
    mixed = JointDistribution({
        (2, 1, 1): 0.3, (1, 2, 1): 0.3, (1, 1, 0): 0.2, (2, 2, 2): 0.1, (1, 1, 5): 0.1,
    })
    experiment = build_zipf_copula(0.5, 0.8, 0.7, 0.9, 10)
    fixture_zoo = [
        (quadratic, 0.05), (quadratic, 0.5), (quadratic, 1.5), (quadratic, 10.0),
        (one_regular, 50.0), (mixed, 0.5), (experiment, 0.5),
    ]
    feasible, sandwich = [], []
    for p, cost in fixture_zoo:
        sol = solve_op(p, cost)
        feasible.append(max(abs(r) for r in sol.residuals) < 1e-9)
        y_ni, _ = smallest_fixed_point(lambda y: default_outflow(p, y))
        obj_none = default_fraction(p, y_ni)
        _y, _s, d_full, aid_full = forced_policy_limits(p, InterventionPolicy.complete())
        obj_full = cost * aid_full + d_full
        sandwich.append(sol.objective <= min(obj_none, obj_full) + 1e-9)

    oracle_gaps = []
    for p, cost in [(quadratic, 0.5), (quadratic, 1.5), (quadratic, 10.0)]:
        sol = solve_op(p, cost)
        gap = abs(sol.objective - _grid_scan_minimum(p, cost))
        oracle_gaps.append(gap)
    elapsed = time.time() - t0
    ok = all(feasible) and all(sandwich) and all(g <= 2e-3 for g in oracle_gaps)
    _report(
        "criterion 4: program feasibility + sandwich + grid oracle",
        ok and elapsed < 300,
        f"feasible {sum(feasible)}/{len(feasible)}, sandwich {sum(sandwich)}/"
        f"{len(sandwich)}, oracle gaps {['%.2e' % g for g in oracle_gaps]} "
        f"(tol 2e-3), {elapsed:.1f}s",
    )


# -----------------------------------------------------------------------------
# 5. experiment reproduction at n = 10^4: simulation vs theory with P_n
# -----------------------------------------------------------------------------

def test_criterion_5_theory_consistency_at_scale(experiment_dist):
    t0 = time.time()
    cost = 0.5
    n, runs = 10_000, 100
    counts = empirical_counts(experiment_dist, n)
    pop = instantiate(counts)
    pn = counts.to_distribution()

    cells = {}
    sol_n = solve_op(pn, cost)
    cells["optimal"] = (
        extract_policy(sol_n, pn, cost),
        dict(zip(("default_fraction", "intervention_fraction", "time_fraction"),
                 asymptotic_prediction(sol_n, pn, cost))),
    )
    alt_theory = theory_limits(pn, normalize_policy_spec("alternative"), cost)
    cells["alternative"] = (InterventionPolicy.degree_range(8, 10), {
        "default_fraction": alt_theory["default_fraction"],
        "intervention_fraction": alt_theory["intervention_fraction"],
        "time_fraction": alt_theory["time_fraction"],
    })

    lines = []
    ok = True
    for pi, (name, (policy, theory)) in enumerate(cells.items()):
        samples = {"default_fraction": [], "intervention_fraction": [], "time_fraction": []}
        for ri in range(runs):
            out = run(pop, policy, make_rng(7, 50 + pi, ri))
            samples["default_fraction"].append(out.defaults / n)
            samples["intervention_fraction"].append(out.interventions / n)
            samples["time_fraction"].append(out.T / pop.m)
        for var, vals in samples.items():
            arr = np.asarray(vals)
            band = 3 * arr.std(ddof=1) / math.sqrt(runs)
            gap = abs(arr.mean() - theory[var])
            ok &= gap <= band
            lines.append(f"{name}/{var}: |mean-theory|={gap:.2e} band={band:.2e}")
    elapsed = time.time() - t0
    _report(
        "criterion 5: simulation vs theory with P_n",
        ok and elapsed < 300,
        "; ".join(lines) + f"; {elapsed:.1f}s",
    )


# -----------------------------------------------------------------------------
# 6. convergence shape of the full study
# -----------------------------------------------------------------------------

def test_criterion_6_convergence_shape(experiment_dist):
    t0 = time.time()
    cfg = StudyConfig(
        distribution=experiment_dist,
        sizes=(5**4, 6**4, 7**4, 8**4, 9**4, 10**4),
        runs=100,
        policies=("optimal", "alternative"),
        cost=0.5,
        master_seed=7,
    )
    res = run_study(cfg)
    ok = True
    notes = []
    for spec in cfg.policies:
        name = spec["name"]
        for var in ("intervention_fraction", "default_fraction", "time_fraction"):
            slopes = {}
            for measure in ("sd", "iqr"):
                ys = [getattr(res.stats[(n, name)][var], measure) for n in cfg.sizes]
                inversions = sum(1 for a, b in zip(ys, ys[1:]) if b > a)
                if inversions:
                    notes.append(f"{name}/{var}/{measure}: {inversions} inversion(s)")
                ok &= inversions <= 1
                ok &= ys[-1] < ys[0]
                slope, _ = res.fits[(name, var, measure)]
                slopes[measure] = slope
                ok &= slope < 0.0
            ok &= abs(slopes["sd"] - slopes["iqr"]) <= 0.2
            notes.append(f"{name}/{var}: slopes sd={slopes['sd']:.3f} iqr={slopes['iqr']:.3f}")
    elapsed = time.time() - t0
    _report(
        "criterion 6: convergence shape",
        ok and elapsed < 600,
        "; ".join(notes) + f"; {elapsed:.1f}s",
    )


# -----------------------------------------------------------------------------
# 7. policy structure and the complete-intervention guarantee
# -----------------------------------------------------------------------------

def test_criterion_7_policy_structure(experiment_dist):
    cost = 0.5
    sol = solve_op(experiment_dist, cost)
    policy = extract_policy(sol, experiment_dist, cost)
    y = sol.end_fraction
    starts_ok = all(0.0 <= x <= y for x in policy.thresholds.values())
    monotone_ok = True
    for (i, j) in {(i, j) for (i, j, _c) in policy.thresholds}:
        xs = [policy.thresholds.get((i, j, c), y) for c in range(1, i + 1)
              if not ((i, j) in policy.singular and c == i)]
        monotone_ok &= all(a >= b - 1e-12 for a, b in zip(xs, xs[1:]))

    counts = empirical_counts(experiment_dist, 2000)
    pop = instantiate(counts)
    initial = sum(v for (i, j, c), v in counts.counts.items() if c == 0)
    complete_ok = all(
        run(pop, InterventionPolicy.complete(), make_rng(7, 99, seed)).defaults == initial
        for seed in range(20)
    )
    _report(
        "criterion 7: policy structure",
        starts_ok and monotone_ok and complete_ok,
        f"starts within [0, y] ({len(policy.thresholds)} classes), nonincreasing in the "
        f"cushion, complete aid pins defaults at {initial}/2000 on 20 seeds",
    )
