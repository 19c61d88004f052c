"""Walk through the machinery on a two-parameter network.

Every node lends twice and borrows twice.  A fifth of them have already
defaulted; the rest survive two loan losses.  This is small enough that every
quantity has a hand-checkable closed form, so the demo prints the analytics
next to the solver output.
"""

import math

from contagion_control import (
    JointDistribution,
    asymptotic_prediction,
    default_fraction,
    default_outflow,
    extract_policy,
    smallest_fixed_point,
    solve_op,
)

p = JointDistribution({(2, 2, 0): 0.2, (2, 2, 2): 0.8})
print(f"mean degree: {p.lam}")

# Without interventions the cascade stops at the smallest fixed point of the
# default outflow: here outflow(y) = 0.2 + 0.8 y^2, whose roots are 1/4 and 1.
y_star, stable = smallest_fixed_point(lambda y: default_outflow(p, y))
print(f"no-aid fixed point: y* = {y_star:.12f} (analytic 0.25, stable={stable})")
print(f"no-aid default share: {default_fraction(p, y_star):.12f}\n")

for cost in (10.0, 1.5, 0.5, 0.05):
    sol = solve_op(p, cost)
    policy = extract_policy(sol, p, cost)
    defaults, aid, horizon = asymptotic_prediction(sol, p, cost)
    print(f"cost {cost:>5}: branch={sol.branch:12s} objective={sol.objective:.6f}  "
          f"defaults={defaults:.4f} aid={aid:.4f} horizon={horizon:.4f}")
    if policy.thresholds or policy.singular:
        print(f"          aid starts: {dict(policy.thresholds) or '-'}  "
              f"singular: {dict(policy.singular) or '-'}")

# The cost-1.5 point sits exactly in the singular regime: only the
# cushion-equals-degree state is aided, starting at the scaled time z.
sol = solve_op(p, 1.5)
print(f"\nsingular solution at cost 1.5: y = {sol.end_fraction:.10f} "
      f"(analytic {5 / 24:.10f}), z = {sol.singular_start:.10f} "
      f"(analytic {math.sqrt(1 / 96):.10f})")
