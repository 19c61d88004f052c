"""Batch Monte Carlo studies and theory-versus-simulation comparisons.

A study runs seeded simulations on a ladder of network sizes under one or more
policies, computes summary statistics of aid/n, defaults/n and T/m, and puts
the asymptotic limits next to them, computed twice: once with the limiting
distribution and once with the realized empirical distribution of each size
(plain rounding distorts small networks; re-deriving the limits from the
realized counts removes that input error from the comparison).

Everything is a pure function of (config, master seed): seeds derive from a
spawn tree keyed by (size index, policy index, run index), aggregation is
ordered, and output files are byte-stable.
"""

from __future__ import annotations

import math
import re
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import svg
from .asymptotics import forced_policy_limits
from .cascade import InterventionPolicy, RunOutcome, run
from .distribution import (
    JointDistribution, _spell, distribution_from_spec, empirical_counts, parse_array, parse_float,
    parse_int, parse_object,
)
from .errors import ParameterError
from .network import instantiate
from .optimizer import _check_cost, asymptotic_prediction, extract_policy, solve_op

VARIABLES = ("intervention_fraction", "default_fraction", "time_fraction")

PolicySpec = dict


def normalize_policy_spec(spec) -> PolicySpec:
    """Accept shorthands and JSON dicts; return {"kind": ..., ...} with a name.

    Every spec but `optimal` is checked by building its policy.
    """
    if isinstance(spec, str):
        if spec == "alternative":
            return {"kind": "degree_range", "lo": 8, "hi": 10, "name": "alternative"}
        if spec in ("none", "complete", "optimal"):
            return {"kind": spec, "name": spec}
        raise ParameterError(f"unknown policy shorthand {spec!r}")
    out = dict(parse_object(spec, "policy spec", "kind"))
    kind = out["kind"]
    policy = None if kind == "optimal" else spec_policy(out)
    if kind == "degree_range":
        out.setdefault("name", f"degree_{policy.degree_lo}_{policy.degree_hi}")
    else:
        out.setdefault("name", "table" if kind == "threshold_table" else kind)
    return out


def spec_policy(spec: PolicySpec) -> InterventionPolicy:
    """The policy of any spec but `optimal`, whose table needs a solve; an
    unknown kind is refused by `InterventionPolicy` itself."""
    kind = spec["kind"]
    if kind == "degree_range":
        parse_object(spec, "degree_range policy", "lo", "hi")
        return InterventionPolicy.degree_range(
            *(parse_int(spec[key], f"degree_range bound {key!r} (degrees are integers)")
              for key in ("lo", "hi")))
    if kind == "threshold_table":
        return InterventionPolicy.table(*_table_entries(spec))
    return InterventionPolicy(kind=kind)


def table_spec(policy: InterventionPolicy) -> PolicySpec:
    """The threshold_table spec of a table policy; `spec_policy` reads it back."""
    def keyed(table: dict) -> dict:
        return {",".join(map(str, key)): x for key, x in sorted(table.items())}

    return {"kind": "threshold_table", "thresholds": keyed(policy.thresholds),
            "singular": keyed(policy.singular)}


def _table_entries(spec: PolicySpec) -> tuple[dict, dict]:
    """(thresholds, singular) of a threshold_table spec, keyed "i,j,c" and "i,j"."""
    def parse(field: str, arity: int) -> dict:
        what = f"threshold_table {field!r}"
        out = {}
        for key, value in parse_object(spec.get(field, {}), what).items():
            cls = tuple(parse_int(part, f"{what} key {_spell(key)}: each part")
                        for part in str(key).split(","))
            if len(cls) != arity:
                raise ParameterError(f"{what} key {_spell(key)} needs {arity} integers")
            out[cls] = parse_float(value, f"{what} entry {_spell(key)}")
        return out

    return parse("thresholds", 3), parse("singular", 2)


@dataclass(frozen=True)
class StudyConfig:
    distribution: JointDistribution
    sizes: tuple[int, ...] = (625, 1296, 2401, 4096, 6561, 10000)
    runs: int = 100
    policies: tuple[PolicySpec, ...] = ("optimal", "alternative")
    cost: float = 0.5
    master_seed: int = 7
    outdir: Path | None = None

    def __post_init__(self):
        for name in ("sizes", "policies"):
            if not getattr(self, name):
                raise ParameterError(f"{name} must not be empty")
        if any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise ParameterError("sizes must be strictly increasing")
        if self.sizes[0] < 1:
            raise ParameterError(f"sizes must be positive, got {list(self.sizes)}")
        if self.runs < 2:
            raise ParameterError("need at least 2 runs per cell")
        _check_cost(self.cost)
        if self.master_seed < 0:
            raise ParameterError(f"seed must be nonnegative, got {self.master_seed}")
        policies = tuple(normalize_policy_spec(s) for s in self.policies)
        names = [spec["name"] for spec in policies]
        if not all(isinstance(n, str) and re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names):
            raise ParameterError(f"policy names must be words of [A-Za-z0-9_.-], got {names}")
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise ParameterError(f"policy names must be distinct, repeated: {repeated}")
        object.__setattr__(self, "policies", policies)

    @staticmethod
    def from_json(doc: dict) -> "StudyConfig":
        """The config of a JSON document; a field the document omits keeps its default."""
        def outdir(value, what):
            if value is None or isinstance(value, str):
                return Path(value) if value else None
            raise ParameterError(f"{what} must be a string, got {_spell(value)}")

        parsers = {  # JSON key -> (field, parse)
            "sizes": ("sizes", lambda v, what: tuple(
                parse_int(n, f"{what} entry") for n in parse_array(v, what))),
            "runs": ("runs", parse_int),
            "policies": ("policies", parse_array),
            "cost": ("cost", parse_float),
            "seed": ("master_seed", parse_int),
            "outdir": ("outdir", outdir),
        }
        parse_object(doc, "study config", "distribution")
        given = {name: parse(doc[key], f"study config field {key!r}")
                 for key, (name, parse) in parsers.items() if key in doc}
        return StudyConfig(distribution=distribution_from_spec(doc["distribution"]), **given)


@dataclass(frozen=True)
class Summary:
    mean: float
    sd: float
    q1: float
    median: float
    q3: float
    iqr: float
    min: float
    max: float
    samples: tuple[float, ...]

    @staticmethod
    def of(samples: list[float]) -> "Summary":
        arr = np.asarray(samples, dtype=float)
        q1, med, q3 = np.quantile(arr, [0.25, 0.5, 0.75])
        return Summary(
            mean=float(arr.mean()), sd=float(arr.std(ddof=1)),
            q1=float(q1), median=float(med), q3=float(q3), iqr=float(q3 - q1),
            min=float(arr.min()), max=float(arr.max()), samples=tuple(arr.tolist()),
        )

    def stderr(self) -> float:
        return self.sd / math.sqrt(len(self.samples))


@dataclass
class StudyResult:
    config: StudyConfig
    stats: dict[tuple[int, str], dict[str, Summary]] = field(default_factory=dict)
    theory_p: dict[str, dict[str, float]] = field(default_factory=dict)
    theory_pn: dict[tuple[int, str], dict[str, float]] = field(default_factory=dict)
    fits: dict[tuple[str, str, str], tuple[float, float]] = field(default_factory=dict)
    files: list[Path] = field(default_factory=list)


def theory_limits(dist: JointDistribution, spec: PolicySpec, cost: float) -> dict[str, float]:
    """Asymptotic (aid/n, defaults/n, T/m) under a named policy."""
    if spec["kind"] == "optimal":
        sol = solve_op(dist, cost)
        defaults, aid, y = asymptotic_prediction(sol, dist, cost)
    else:
        y, _stable, defaults, aid = forced_policy_limits(dist, spec_policy(spec))
    return dict(zip(VARIABLES, (aid, defaults, y)))


def simulation_policy(
    dist: JointDistribution, spec: PolicySpec, cost: float
) -> InterventionPolicy:
    """The policy to simulate; the cost is checked under every kind, not only
    where the program is solved."""
    _check_cost(cost)
    if spec["kind"] == "optimal":
        return extract_policy(solve_op(dist, cost), dist, cost)
    return spec_policy(spec)


def _theory_p(result: StudyResult) -> StudyResult:
    """`result` with `theory_p` filled: the one place a study computes its limits."""
    cfg = result.config
    for spec in cfg.policies:
        result.theory_p[spec["name"]] = theory_limits(cfg.distribution, spec, cfg.cost)
    return result


def _simulate_size(cfg: StudyConfig, si: int, result: StudyResult) -> None:
    """The cells of size index `si`: every policy's runs on one population,
    seeded by the spawn keys (si, policy index, run index)."""
    n = cfg.sizes[si]
    counts = empirical_counts(cfg.distribution, n)
    pop = instantiate(counts)
    pn = counts.to_distribution()
    for pi, spec in enumerate(cfg.policies):
        name = spec["name"]
        # limits recomputed from the realized counts: removes rounding error
        result.theory_pn[(n, name)] = theory_limits(pn, spec, cfg.cost)
        # the simulated policy is derived from the same realized counts
        policy = simulation_policy(pn, spec, cfg.cost)
        rows = {var: [] for var in VARIABLES}
        for ri in range(cfg.runs):
            seq = np.random.SeedSequence(cfg.master_seed, spawn_key=(si, pi, ri))
            rng = np.random.Generator(np.random.PCG64(seq))
            out: RunOutcome = run(pop, policy, rng)
            rows["intervention_fraction"].append(out.interventions / n)
            rows["default_fraction"].append(out.defaults / n)
            rows["time_fraction"].append(out.T / pop.m)
        result.stats[(n, name)] = {var: Summary.of(rows[var]) for var in VARIABLES}


def run_study(cfg: StudyConfig) -> StudyResult:
    """Full study: simulations, summaries, theory twice, dispersion fits, files."""
    result = _theory_p(StudyResult(config=cfg))
    for si in range(len(cfg.sizes)):
        _simulate_size(cfg, si, result)

    if len(cfg.sizes) >= 2:
        for name in _names(cfg):
            for var in VARIABLES:
                for measure in ("sd", "iqr"):
                    ys = [getattr(result.stats[(n, name)][var], measure) for n in cfg.sizes]
                    # cells with zero dispersion cannot enter a log fit; the
                    # (policy, variable, measure) entry is simply absent then
                    if all(v > 0 for v in ys):
                        result.fits[(name, var, measure)] = powerlaw_fit(list(cfg.sizes), ys)

    if cfg.outdir is not None:
        _write_outputs(result)
    return result


def powerlaw_fit(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """Least-squares slope and intercept of log10 ys against log10 xs."""
    if any(y <= 0 for y in ys):
        raise ParameterError("power-law fit requires positive dispersion values")
    lx = np.log10(np.asarray(xs, dtype=float))
    ly = np.log10(np.asarray(ys, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    return float(slope), float(intercept)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _csv(header: tuple[str, ...], rows) -> str:
    """A CSV table: the header, then one line per row; a float cell is written
    by `_fmt`, any other cell by `str`."""
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


_SUMMARY = ("mean", "sd", "q1", "median", "q3", "iqr")


def _names(cfg: StudyConfig) -> list[str]:
    return [spec["name"] for spec in cfg.policies]


def stats_csv(result: StudyResult) -> str:
    """One row per (size, policy, variable) cell: its summary and both theory limits."""
    cfg = result.config
    return _csv(("n", "policy", "variable", *_SUMMARY, "theory_p", "theory_Pn"), (
        (n, name, var, *(getattr(result.stats[(n, name)][var], m) for m in _SUMMARY),
         result.theory_p[name][var], result.theory_pn[(n, name)][var])
        for n in cfg.sizes for name in _names(cfg) for var in VARIABLES))


def samples_csv(result: StudyResult) -> str:
    """One row per run of each (size, policy) cell: its three variables."""
    cfg = result.config
    return _csv(("n", "policy", "run", *VARIABLES), (
        (n, name, ri, *(result.stats[(n, name)][var].samples[ri] for var in VARIABLES))
        for n in cfg.sizes for name in _names(cfg) for ri in range(cfg.runs)))


def fits_csv(result: StudyResult) -> str:
    """One row per fitted (policy, variable, measure): slope and intercept."""
    return _csv(("policy", "variable", "measure", "slope", "intercept"),
                ((*key, *result.fits[key]) for key in sorted(result.fits)))


def _put(outdir: Path, outputs) -> list[Path]:
    """Write each (file name, text) pair of `outputs` under `outdir`, made if
    missing, as the pairs come; the paths written, in order."""
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in outputs:
        path = outdir / name
        path.write_text(text)
        paths.append(path)
    return paths


def _write_outputs(result: StudyResult) -> None:
    """Write the study's three CSV tables and its 9 charts per policy under the
    config's output directory; `result.files` gets each path written."""
    result.files += _put(result.config.outdir, _study_outputs(result))


def _study_outputs(result: StudyResult):
    """The (file name, text) pairs of a study, each made when it is asked for."""
    yield "study_stats.csv", stats_csv(result)
    yield "study_samples.csv", samples_csv(result)
    yield "dispersion_fits.csv", fits_csv(result)
    sizes = list(result.config.sizes)
    labels = [str(n) for n in sizes]
    for name in _names(result.config):
        for var in VARIABLES:
            cells = [result.stats[(n, name)][var] for n in sizes]
            theory_cell = [result.theory_pn[(n, name)][var] for n in sizes]
            theory_line = result.theory_p[name][var]
            boxes_msd = [(c.min, c.mean - c.sd, c.mean, c.mean + c.sd, c.max) for c in cells]
            boxes_q = [(c.q1 - 1.5 * c.iqr, c.q1, c.median, c.q3, c.q3 + 1.5 * c.iqr)
                       for c in cells]
            yield (f"box_meansd_{name}_{var}.svg",
                   svg.boxplot_svg(f"{var} under {name} (mean/sd)", labels, boxes_msd,
                                   theory_cell, theory_line))
            yield (f"box_quartile_{name}_{var}.svg",
                   svg.boxplot_svg(f"{var} under {name} (quartiles)", labels, boxes_q,
                                   theory_cell, theory_line))
            series = {m: [getattr(c, m) for c in cells] for m in ("sd", "iqr")}
            fits = {m: result.fits[(name, var, m)]
                    for m in ("sd", "iqr") if (name, var, m) in result.fits}
            yield (f"dispersion_{name}_{var}.svg",
                   svg.loglog_svg(f"dispersion of {var} under {name}", sizes, series, fits))


@dataclass(frozen=True)
class PolicyComparison:
    policy: str
    defaults_limit: float
    aid_limit: float
    aid_cost: float
    defaults_prevented: float
    objective: float
    empirical_defaults: float | None
    empirical_aid: float | None


def compare_policies(cfg: StudyConfig, study: StudyResult | None = None) -> list[PolicyComparison]:
    """Tabulate per-policy limits against the no-intervention baseline.

    `defaults_prevented` is the drop in the asymptotic default fraction versus
    letting the cascade run; `aid_cost` is cost * aid volume.  The limits
    and the empirical means at the largest size come from `study`, a study of
    `cfg`, when one is supplied, else from that size's cells alone, run here
    with the study's seeds, and `_theory_p`.  The baseline is the limits of a
    policy of kind `none` among them, else computed here.  Writes
    comparison.csv and a bar chart when the config carries an output directory.
    """
    if len(cfg.policies) < 2:
        raise ParameterError("compare_policies needs at least two policies")
    if study is None:
        study = _theory_p(StudyResult(config=cfg))
        _simulate_size(cfg, len(cfg.sizes) - 1, study)
    none = [spec["name"] for spec in cfg.policies if spec["kind"] == "none"]
    base = (study.theory_p[none[0]] if none else
            theory_limits(cfg.distribution, {"kind": "none", "name": "none"}, cfg.cost))
    base_defaults = base["default_fraction"]
    n_big = max(cfg.sizes)
    rows = []
    for spec in cfg.policies:
        name = spec["name"]
        limits = study.theory_p[name]
        cell = study.stats.get((n_big, name))
        rows.append(PolicyComparison(
            policy=name,
            defaults_limit=limits["default_fraction"],
            aid_limit=limits["intervention_fraction"],
            aid_cost=cfg.cost * limits["intervention_fraction"],
            defaults_prevented=base_defaults - limits["default_fraction"],
            objective=cfg.cost * limits["intervention_fraction"] + limits["default_fraction"],
            empirical_defaults=cell["default_fraction"].mean if cell else None,
            empirical_aid=cell["intervention_fraction"].mean if cell else None,
        ))

    if cfg.outdir is not None:
        table = _csv(tuple(f.name for f in fields(PolicyComparison)),
                     (["" if v is None else v for v in astuple(r)] for r in rows))
        chart = svg.bars_svg("asymptotic comparison", [r.policy for r in rows], {
            "defaults": [r.defaults_limit for r in rows],
            "aid cost": [r.aid_cost for r in rows],
            "prevented": [r.defaults_prevented for r in rows],
        })
        _put(cfg.outdir, [("comparison.csv", table), ("comparison.svg", chart)])
    return rows
