"""The benchmark's workloads: inputs from a seed, one timed pass, output checks.

A workload object holds the state of one benchmark run.  Every pass starts
from freshly built inputs, so no pass reuses state of an earlier one.  The
package is reached through module attributes (`optimizer.solve_op`, not a
local name) so that a traced pass sees every call.
"""

from __future__ import annotations

import json
import math
import random
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.special import stdtrit

from contagion_control import cascade, distribution, experiments, network, optimizer
from contagion_control.distribution import JointDistribution

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
# scratch space inside the checkout (ignored by git) for study outputs and traces
SCRATCH = HERE.parent / ".perfbench"

EXPERIMENT = (0.5, 0.8, 0.7, 0.9, 10)  # build_zipf_copula arguments of the experiment
COST = 0.5

# The test distributions of the solver suite (tests/conftest.py).
TEST_DISTRIBUTIONS = {
    "quadratic": {(2, 2, 0): 0.2, (2, 2, 2): 0.8},
    "mixed": {(2, 1, 1): 0.3, (1, 2, 1): 0.3, (1, 1, 0): 0.2, (2, 2, 2): 0.1, (1, 1, 5): 0.1},
    "one_regular": {(1, 1, 0): 0.25, (1, 1, 1): 0.75},
}
SOLVE_PAIRS = (
    ("experiment", 0.05), ("experiment", 0.5), ("experiment", 1.5),
    ("quadratic", 1.5), ("mixed", 0.5), ("one_regular", 50.0),
)
FORCED_POLICIES = ("none", "complete", "alternative")
# mc_large: one population of this size; reference.json holds its table and limits
N = 100_000
RUNS_PER_POLICY = 2

RESIDUAL_TOL = 1e-9
OBJECTIVE_TOL = 1e-10
THEORY_TOL = 1e-9
# Criterion 5 of the acceptance suite puts simulated means within 3 SE of
# theory at fixed seeds.  Here every run draws fresh seeds and makes about ten
# such comparisons, so a 3-SE band would flag correct code in most sets of
# runs.  A check fails only outside the two-sided Student-t band at a 1e-5
# false-alarm rate per check; 3-SE misses are still counted and reported.
BAND_ALPHA = 1e-5
# Theory limits come from bisection to 1e-12 and float sums: deterministic
# outcomes (zero aid, complete aid) match them to this absolute tolerance.
BAND_FLOOR = 1e-9


class Checks:
    """Counts checks attempted and failed; a failure is recorded, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.band_checks = 0
        self.band3_misses = 0

    def exact(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def band(self, samples, theory: float, what: str) -> None:
        arr = np.asarray(samples, dtype=float)
        k = len(arr)
        se = arr.std(ddof=1) / math.sqrt(k)
        gap = abs(arr.mean() - theory)
        self.band_checks += 1
        if gap > max(3.0 * se, BAND_FLOOR):
            self.band3_misses += 1
        limit = max(float(stdtrit(k - 1, 1.0 - BAND_ALPHA / 2)) * se, BAND_FLOOR)
        self.exact(gap <= limit, f"{what}: |mean - theory| = {gap:.3g} > {limit:.3g} ({k} runs)")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _rng(seed: int, *spawn_key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=spawn_key)))


class Workload:
    """setup() is timed as set-up and run() as one pass; the checks are untimed."""

    name = ""

    def setup(self):
        """Build the inputs of one pass."""
        raise NotImplementedError

    def run(self, inputs, index: int):
        """Pass number `index` on freshly built inputs; returns its outputs."""
        raise NotImplementedError

    def check(self, inputs, out, checks: "Checks") -> None:
        """Check the outputs of one pass."""

    def finish(self, inputs, checks: "Checks") -> None:
        """Checks on all passes together, given the last pass's inputs."""

    def rates(self) -> dict[str, tuple[str, list[float]]]:
        """Rates that exist only on this workload: name -> (unit, one value per pass)."""
        return {}


@dataclass
class Study(Workload):
    """`run_study` with CSV and SVG outputs written to a temporary directory."""

    seed: int
    dist_args: tuple = EXPERIMENT
    sizes: tuple = (625, 10_000)
    runs: int = 40
    name = "study"

    def setup(self):
        p = distribution.build_zipf_copula(*self.dist_args)
        return experiments.StudyConfig(
            distribution=p, sizes=self.sizes, runs=self.runs,
            policies=("optimal", "alternative"), cost=COST, master_seed=self.seed,
        )

    def run(self, cfg, index):
        SCRATCH.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            result = experiments.run_study(replace(cfg, outdir=Path(tmp)))
            written = {path.name: path.stat().st_size for path in result.files}
        return result, written

    def check(self, cfg, out, checks):
        result, written = out
        n = max(cfg.sizes)
        expected = ["study_stats.csv", "study_samples.csv", "dispersion_fits.csv"]
        for spec in cfg.policies:
            name = spec["name"]
            for var in experiments.VARIABLES:
                checks.band(result.stats[(n, name)][var].samples,
                            result.theory_pn[(n, name)][var], f"study n={n} {name} {var}")
                expected += [f"box_meansd_{name}_{var}.svg", f"box_quartile_{name}_{var}.svg",
                             f"dispersion_{name}_{var}.svg"]
        missing = [f for f in expected if written.get(f, 0) <= 0]
        checks.exact(not missing, f"study outputs missing or empty: {missing}")


@dataclass
class SolveSweep(Workload):
    """Solver and limits on distinct (distribution, cost) pairs; no simulation.

    The seed only shuffles the order of the pairs: every input is distinct and
    deterministic, so the checks compare with values recorded in reference.json.
    """

    seed: int
    pairs: tuple = SOLVE_PAIRS
    forced: tuple = FORCED_POLICIES
    reference: dict | None = None
    name = "solve_sweep"

    def __post_init__(self):
        if self.reference is None:
            self.reference = load_reference()
        self._rates: list[float] = []

    def setup(self):
        dists = {"experiment": distribution.build_zipf_copula(*EXPERIMENT)}
        dists.update({k: JointDistribution(dict(v)) for k, v in TEST_DISTRIBUTIONS.items()})
        pairs = list(self.pairs)
        random.Random(self.seed).shuffle(pairs)
        return dists, pairs

    def run(self, inputs, index):
        dists, pairs = inputs
        solved = []
        busy = 0.0
        for key, cost in pairs:
            p = dists[key]
            t0 = perf_counter()
            sol = optimizer.solve_op(p, cost)
            optimizer.extract_policy(sol, p, cost)
            optimizer.asymptotic_prediction(sol, p, cost)
            busy += perf_counter() - t0
            solved.append((f"{key}@{cost}", sol))
        limits = {
            name: experiments.theory_limits(
                dists["experiment"], experiments.normalize_policy_spec(name), COST)
            for name in self.forced
        }
        self._rates.append(len(pairs) / busy)
        return solved, limits

    def check(self, inputs, out, checks):
        solved, limits = out
        for key, sol in solved:
            ref = self.reference["solve_sweep"]["solves"][key]
            worst = max(abs(r) for r in sol.residuals)
            checks.exact(worst < RESIDUAL_TOL, f"{key}: residual {worst:.3g}")
            checks.exact(sol.branch == ref["branch"], f"{key}: branch {sol.branch} != {ref['branch']}")
            checks.exact(abs(sol.objective - ref["objective"]) <= OBJECTIVE_TOL,
                         f"{key}: objective {sol.objective!r} != {ref['objective']!r}")
        for name, got in limits.items():
            for var, value in got.items():
                want = self.reference["solve_sweep"]["theory_limits"][name][var]
                checks.exact(abs(value - want) <= THEORY_TOL,
                             f"theory_limits {name} {var}: {value!r} != {want!r}")

    def rates(self):
        return {"solves_per_s": ("1/s", self._rates)}


@dataclass
class McLarge(Workload):
    """`cascade.run` on one large population under four policies.

    The optimal table is stored as data (the `solve` CLI's JSON policy form),
    so no solver runs.  Pass k uses seeds (seed, k, policy, run); the means
    over all passes are checked against the limits on the realized P_n.
    """

    seed: int
    reference: dict | None = None
    name = "mc_large"
    policies = ("none", "complete", "alternative", "table")

    def __post_init__(self):
        if self.reference is None:
            self.reference = load_reference()
        self._samples = {name: [] for name in self.policies}
        self._rates = {"forced": [], "table": []}

    def setup(self):
        p = distribution.build_zipf_copula(*EXPERIMENT)
        counts = distribution.empirical_counts(p, N)
        pop = network.instantiate(counts)
        pn = counts.to_distribution()
        specs = {name: experiments.normalize_policy_spec(name) for name in FORCED_POLICIES}
        specs["table"] = experiments.normalize_policy_spec(self.reference["mc_large"]["policy"])
        policies = {name: experiments.simulation_policy(pn, specs[name], COST) for name in self.policies}
        return pop, pn, policies

    def run(self, inputs, index):
        pop, _pn, policies = inputs
        outcomes = {}
        links = {"forced": 0, "table": 0}
        busy = {"forced": 0.0, "table": 0.0}
        for pi, name in enumerate(self.policies):
            family = "table" if name == "table" else "forced"
            outs = []
            for ri in range(RUNS_PER_POLICY):
                rng = _rng(self.seed, index, pi, ri)
                t0 = perf_counter()
                out = cascade.run(pop, policies[name], rng)
                busy[family] += perf_counter() - t0
                links[family] += out.T
                outs.append(out)
            outcomes[name] = outs
        for family in links:
            self._rates[family].append(links[family] / busy[family])
        return outcomes

    def check(self, inputs, outcomes, checks):
        pop = inputs[0]
        initial = [j for (_i, j, c) in pop.nodes if c == 0]
        for out in outcomes["none"]:
            checks.exact(out.interventions == 0, f"none: {out.interventions} aid units")
        for out in outcomes["complete"]:
            checks.exact(out.defaults == len(initial),
                         f"complete: {out.defaults} defaults != {len(initial)} initial")
            checks.exact(out.T == sum(initial), f"complete: T={out.T} != {sum(initial)}")
        for name, outs in outcomes.items():
            self._samples[name].extend(
                (o.interventions / o.n, o.defaults / o.n, o.T / o.m) for o in outs)

    def finish(self, inputs, checks):
        pn = inputs[1]
        theory = {
            name: experiments.theory_limits(pn, experiments.normalize_policy_spec(name), COST)
            for name in FORCED_POLICIES
        }
        theory["table"] = self.reference["mc_large"]["theory"]
        for name, rows in self._samples.items():
            for col, var in enumerate(("intervention_fraction", "default_fraction", "time_fraction")):
                checks.band([r[col] for r in rows], theory[name][var], f"mc_large {name} {var}")

    def rates(self):
        return {"links_per_s.forced": ("1/s", self._rates["forced"]),
                "links_per_s.table": ("1/s", self._rates["table"])}


WORKLOADS = {"study": Study, "solve_sweep": SolveSweep, "mc_large": McLarge}

