"""Record the reference values that the checks compare with.

    python3 perfbench/reference.py

writes perfbench/reference.json: the optimal threshold table of the mc_large
population in the `solve` CLI's JSON policy form with its limits, and the
branch and objective of every solve_sweep pair with the forced-policy limits.
Re-record only at a commit whose solver output is meant to change; the
self-test checks that the stored table still matches the solver.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from contagion_control import cli, distribution, experiments, optimizer  # noqa: E402
from workloads import (  # noqa: E402
    COST,
    EXPERIMENT,
    FORCED_POLICIES,
    N,
    REFERENCE,
    SCRATCH,
    SolveSweep,
)


def population_distribution(n: int):
    """Realized P_n of the experiment distribution at size n."""
    return distribution.empirical_counts(distribution.build_zipf_copula(*EXPERIMENT), n).to_distribution()


def solve_cli(p, cost: float) -> dict:
    """Output document of `contagion-control solve` for distribution p."""
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        spec = Path(tmp) / "distribution.json"
        spec.write_text(json.dumps({
            "kind": "explicit",
            "entries": [[i, j, c, m] for (i, j, c), m in sorted(p.entries.items())],
        }))
        out = Path(tmp) / "solution.json"
        code = cli.main(["solve", "--distribution", str(spec), "--cost", repr(cost),
                         "--output", str(out)])
        if code != 0:
            raise RuntimeError(f"solve exited with {code}")
        return json.loads(out.read_text())


def limits(defaults: float, aid: float, end: float) -> dict:
    return {"intervention_fraction": aid, "default_fraction": defaults, "time_fraction": end}


def mc_large_reference() -> dict:
    doc = solve_cli(population_distribution(N), COST)
    # asymptotic_prediction returns these fields for a stable solution below y = 1
    if not doc["stable"] or doc["end_fraction"] >= 1.0 - 1e-12:
        raise RuntimeError(f"solution at y={doc['end_fraction']} gives no stored limits")
    return {
        "n": N,
        "cost": COST,
        "policy": doc["policy"],
        "theory": limits(doc["defaults"], doc["interventions"], doc["end_fraction"]),
    }


def solve_sweep_reference() -> dict:
    sweep = SolveSweep(seed=0, reference={})  # no comparison: this records the values
    dists, pairs = sweep.setup()
    solves = {}
    for key, cost in pairs:
        sol = optimizer.solve_op(dists[key], cost)
        solves[f"{key}@{cost}"] = {"branch": sol.branch, "objective": sol.objective}
    theory = {
        name: experiments.theory_limits(
            dists["experiment"], experiments.normalize_policy_spec(name), COST)
        for name in FORCED_POLICIES
    }
    return {"solves": dict(sorted(solves.items())), "theory_limits": theory}


def main() -> int:
    doc = {"mc_large": mc_large_reference(), "solve_sweep": solve_sweep_reference()}
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
