"""Default contagion with interventions on configuration-model networks.

The package has three layers:

- finite networks: class distributions, empirical counts, node populations and
  uniform stub matching (`distribution`, `network`);
- the contagion chain, run as each node's first passage over the run's
  in-stub draw order, plus an exact brute-force oracle for tiny instances
  (`cascade`), and `InterventionPolicy`, the one policy type: every policy
  is a per-class table of scaled aid start times, read through
  `policy.start(i, j, c)` by the simulators and the limits alike;
- the deterministic limits: closed-form state trajectories, fixed points of
  the default flow, the regulator's program and its solver, and the study
  harness that checks simulations against the limits (`asymptotics`,
  `optimizer`, `experiments`).
"""

from .cascade import (
    InterventionPolicy,
    RunOutcome,
    exact_expectation,
    run,
)
from .distribution import (
    EmpiricalCounts,
    JointDistribution,
    build_zipf_copula,
    distribution_from_spec,
    empirical_counts,
)
from .errors import (
    ConstructionError,
    ContagionControlError,
    EnumerationLimitError,
    ParameterError,
)
from .asymptotics import (
    Trajectory,
    controlled_limits,
    default_fraction,
    default_fraction_controlled,
    default_outflow,
    default_outflow_controlled,
    forced_policy_limits,
    intervention_start,
    intervention_volume,
    propagate,
    smallest_fixed_point,
    terminal_hamiltonian,
    trajectory_at,
)
from .network import (
    NodePopulation,
    enumerate_matchings,
    instantiate,
)
from .optimizer import (
    OPSolution,
    asymptotic_prediction,
    extract_policy,
    solve_op,
    solve_stage_a,
    solve_stage_b,
)
from .experiments import (
    StudyConfig,
    StudyResult,
    compare_policies,
    powerlaw_fit,
    run_study,
)

__version__ = "0.1.0"

__all__ = [
    "InterventionPolicy", "RunOutcome", "exact_expectation", "run",
    "EmpiricalCounts", "JointDistribution", "build_zipf_copula", "distribution_from_spec",
    "empirical_counts",
    "ConstructionError", "ContagionControlError", "EnumerationLimitError", "ParameterError",
    "Trajectory", "controlled_limits", "default_fraction", "default_fraction_controlled",
    "default_outflow", "default_outflow_controlled", "forced_policy_limits",
    "intervention_start", "intervention_volume", "propagate", "smallest_fixed_point",
    "terminal_hamiltonian", "trajectory_at",
    "NodePopulation", "enumerate_matchings", "instantiate",
    "OPSolution", "asymptotic_prediction", "extract_policy", "solve_op", "solve_stage_a",
    "solve_stage_b",
    "StudyConfig", "StudyResult", "compare_policies", "powerlaw_fit", "run_study",
]
