"""Benchmark of the contagion_control package.

    python3 perfbench/run.py --workload study|solve_sweep|mc_large|all \
        --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, repeats cold passes (fresh
inputs, nothing kept from an earlier pass) for about S seconds in this one
process, and checks the outputs of every pass.  Set-up time is the median
package import (this process plus four fresh interpreters) plus the median
input build.  The report lines come first;
the last line of standard output is one JSON object with `correct`,
`attempted`, `failed` (checks, so failed / attempted is the fail ratio) and
`metrics`: the end-to-end metrics with --trace 0, and with --trace 1 the
per-layer metrics of one traced pass that follows one untraced pass.
Exits 2 without a result when the package source is not next to this
directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import warnings
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 5  # input builds per run, and package imports per run

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def import_package() -> float:
    """Import contagion_control from ROOT/src; returns the seconds it took."""
    if not (SRC / "contagion_control" / "__init__.py").is_file():
        raise ImportError(f"no package source under {SRC}")
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import contagion_control
    elapsed = perf_counter() - t0
    if Path(contagion_control.__file__).resolve().parent != SRC / "contagion_control":
        raise ImportError(f"imported contagion_control from {contagion_control.__file__}")
    return elapsed


def fresh_import_times(count: int) -> list[float]:
    """Import time of the package in `count` fresh interpreters, one after another."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import contagion_control; print(time.perf_counter() - t)")
    return [
        float(subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                             text=True, check=True, timeout=120).stdout)
        for _ in range(count)
    ]


def layer_unit(name: str) -> str:
    if name.endswith((".s", ".self_s")):
        return "s"
    if ".ns_per_link." in name:
        return "ns"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_per_solve"):
        return "calls/solve"
    if name.endswith(("_ratio", "_per_start", ".overhead")):
        return "ratio"
    return "count"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles gives them; one value repeats."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = quantiles(values, n=4)
    return q1, median(values), q3


def _optimizer_warnings(caught, optimizer_file: str) -> int:
    return sum(1 for w in caught
               if issubclass(w.category, RuntimeWarning) and w.filename == optimizer_file)


def measure(workload, seconds: float, trace: bool, import_times: list[float],
            out=sys.stdout) -> dict:
    """Run passes of one workload, print the report, return the result object."""
    # imported here, after import_package has timed the package import
    from contagion_control import optimizer
    from tracer import Tracer, layer_metrics
    from workloads import SCRATCH, Checks

    checks = Checks()
    deadline = perf_counter() + seconds
    setup_times = []
    for _ in range(SETUP_REPS - 1):
        t0 = perf_counter()
        workload.setup()
        setup_times.append(perf_counter() - t0)

    def one_pass(index):
        t0 = perf_counter()
        inputs = workload.setup()
        t1 = perf_counter()
        result = workload.run(inputs, index)
        t2 = perf_counter()
        return inputs, result, t1 - t0, t2 - t1

    walls = []
    index = 0
    while True:
        inputs, result, setup_t, wall_t = one_pass(index)
        setup_times.append(setup_t)
        walls.append(wall_t)
        workload.check(inputs, result, checks)
        index += 1
        if trace or perf_counter() + setup_t + wall_t > deadline:
            break

    # rates of untraced passes only
    rates = {name: (unit, list(values)) for name, (unit, values) in workload.rates().items()}
    layers = None
    if trace:
        # only the traced pass records warnings: "always" keeps every repeat
        with Tracer() as tracer, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            inputs, result, _setup_t, traced_wall = one_pass(index)
        workload.check(inputs, result, checks)
        layers = layer_metrics(tracer, _optimizer_warnings(caught, optimizer.__file__))
        layers["trace.overhead"] = traced_wall / walls[0]
        SCRATCH.mkdir(exist_ok=True)
        tracer.write(SCRATCH / f"trace-{workload.name}-seed{workload.seed}.json")
    workload.finish(inputs, checks)

    import_s = median(import_times)
    e2e = {
        "wall_s": walls,
        "setup_s": [import_s + s for s in setup_times],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
    }
    print(f"workload {workload.name}  seed {workload.seed}  untraced passes {len(walls)}"
          f"  import median {import_s:.4g} s (n={len(import_times)})", file=out)
    for name, values in e2e.items():
        q1, med, q3 = quartiles(values)
        print(f"  {name:<20} median {med:.6g} {END_TO_END_UNITS[name]}"
              f"  (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})", file=out)
    for name, (unit, values) in rates.items():
        q1, med, q3 = quartiles(values)
        print(f"  {name:<20} median {med:.6g} {unit}  (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})",
              file=out)
    print(f"  {'fail_ratio':<20} {checks.failed}/{checks.attempted} checks failed"
          f"  (3-SE misses {checks.band3_misses}/{checks.band_checks})", file=out)
    for line in checks.failures:
        print(f"  FAILED {line}", file=out)

    if layers is None:
        metrics = {name: {"value": quartiles(values)[1], "unit": END_TO_END_UNITS[name]}
                   for name, values in e2e.items()}
    else:
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in layers.items()}
        for name, m in metrics.items():
            print(f"  {name:<44} {m['value']:.6g} {m['unit']}", file=out)
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["study", "solve_sweep", "mc_large", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        import_times = [import_package()]
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_times += fresh_import_times(SETUP_REPS - 1)
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = measure(WORKLOADS[name](seed=args.seed), args.seconds, bool(args.trace), import_times)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
