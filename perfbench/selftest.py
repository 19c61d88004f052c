"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that
- the stored mc_large table equals extract_policy(solve_op(P_n, 0.5), P_n, 0.5)
  to 1e-10, and its stored limits equal the solution's asymptotic prediction;
- the solver's start grids have the sizes the tracer assumes;
- a tiny version of each workload reports every end-to-end and per-layer
  metric of BENCHMARK.json, by name and with its unit, and passes its checks;
- a six-size study makes 13 solves on 7 distinct inputs;
- a deliberately wrong reference value is counted in the fail ratio.
Prints one line per check and exits 1 if any failed.
"""

from __future__ import annotations

import copy
import io
import json
import sys

import run

run.import_package()

from contagion_control import experiments, optimizer  # noqa: E402
from reference import limits, population_distribution  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TOL = 1e-10
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def tiny_workloads(reference: dict) -> dict:
    """Fresh small instances: a workload object holds the state of one run."""
    return {
        # six sizes, so the solve counts match the six-size default study
        "study": workloads.Study(seed=1, dist_args=(0.5, 0.8, 0.7, 0.9, 2),
                                 sizes=(20, 30, 40, 50, 60, 70), runs=3),
        "solve_sweep": workloads.SolveSweep(
            seed=1, pairs=(("mixed", 0.5), ("one_regular", 50.0)), forced=("none",),
            reference=reference),
        # the stored table and its limits belong to the n = 10^5 population
        "mc_large": workloads.McLarge(seed=1, reference=reference),
    }


def measure_quietly(workload, trace: bool) -> tuple[dict, str]:
    buf = io.StringIO()
    result = run.measure(workload, 0.0, trace, [0.0], out=buf)
    return result, buf.getvalue()


def check_table(reference: dict) -> None:
    pn = population_distribution(workloads.N)
    sol = optimizer.solve_op(pn, workloads.COST)
    want = optimizer.extract_policy(sol, pn, workloads.COST)
    spec = experiments.normalize_policy_spec(reference["mc_large"]["policy"])
    got = experiments.simulation_policy(pn, spec, workloads.COST)
    for field in ("thresholds", "singular"):
        a, b = getattr(got, field), getattr(want, field)
        gap = max((abs(a[k] - b[k]) for k in a), default=0.0) if a.keys() == b.keys() else float("inf")
        expect(gap <= TOL, f"stored table {field} match the solver (max gap {gap:.3g})")
    theory = limits(*optimizer.asymptotic_prediction(sol, pn, workloads.COST))
    stored = reference["mc_large"]["theory"]
    gap = max(abs(theory[k] - stored[k]) for k in theory)
    expect(gap <= TOL, f"stored table limits match the solution (max gap {gap:.3g})")


def check_metrics(name: str, reference: dict, spec: dict) -> dict:
    layers = {}
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, report = measure_quietly(tiny_workloads(reference)[name], trace)
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(got == want, f"{name} --trace {int(trace)}: every {key} metric with its unit")
        missing = [m for m in want if m not in report]
        expect(not missing, f"{name} --trace {int(trace)}: report names every metric {missing}")
        expect(result["correct"] and result["attempted"] > 0,
               f"{name} --trace {int(trace)}: {result['failed']}/{result['attempted']} checks failed")
        if trace:
            layers = {k: v["value"] for k, v in result["metrics"].items()}
    return layers


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    reference = workloads.load_reference()

    check_table(reference)
    expect(len(optimizer._STAGE_A_Y_STARTS) * len(optimizer._STAGE_A_V_STARTS) == tracer.STAGE_A_STARTS
           and len(optimizer._STAGE_B_Y_STARTS) * len(optimizer._STAGE_B_Z_SHARES) == tracer.STAGE_B_STARTS,
           "solver start grids have the sizes the tracer assumes")

    for name in workloads.WORKLOADS:
        layers = check_metrics(name, reference, spec)
        if name == "study":
            expect(layers["optimizer.solve_op.calls"] == 13
                   and layers["optimizer.solve_op.distinct_ratio"] == 7 / 13,
                   "six-size study: 13 solves, 7 distinct")

    wrong = copy.deepcopy(reference)
    wrong["solve_sweep"]["solves"]["mixed@0.5"]["objective"] += 1e-6
    honest, _ = measure_quietly(tiny_workloads(reference)["solve_sweep"], False)
    broken, _ = measure_quietly(tiny_workloads(wrong)["solve_sweep"], False)
    expect(broken["failed"] == honest["failed"] + 1 and not broken["correct"]
           and broken["attempted"] == honest["attempted"],
           f"a wrong reference objective is counted: {broken['failed']}/{broken['attempted']}")

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
