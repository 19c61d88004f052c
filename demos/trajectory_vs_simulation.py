"""Deterministic trajectories against simulated state counts.

Runs a single large network, snapshots the per-state node counts at a few
scaled times, and prints them next to the closed-form trajectory values.  The
agreement is the content of the convergence results the study relies on.
"""

import numpy as np

from contagion_control import (
    InterventionPolicy,
    build_zipf_copula,
    empirical_counts,
    instantiate,
    run,
    trajectory_at,
)

p = build_zipf_copula(0.5, 0.8, 0.7, 0.9, 10)
n = 10_000
pop = instantiate(empirical_counts(p, n))
policy = InterventionPolicy.none()

taus = [0.2 * p.lam, 0.5 * p.lam]
rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(1)))
out = run(pop, policy, rng, snapshot_times=taus)

print(f"network: n={n}, m={pop.m}; no interventions\n")
for tau in taus:
    exact = trajectory_at(p, policy, tau)
    agg = out.snapshots[tau]
    rows = sorted(
        (key for key in exact.s if exact.s[key] > 1e-3), key=lambda k: -exact.s[k]
    )[:8]
    print(f"scaled time {tau:.3f} (top states by limiting mass):")
    print(f"  {'state (i,j,c,l)':>18} {'simulated/n':>12} {'closed form':>12}")
    for key in rows:
        print(f"  {str(key):>18} {agg.get(key, 0) / n:>12.5f} {exact.s[key]:>12.5f}")
    print()
