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

import io
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import svg
from .asymptotics import forced_policy_limits
from .cascade import InterventionPolicy, RunOutcome, run
from .distribution import JointDistribution, distribution_from_spec, empirical_counts, parse_int
from .errors import ParameterError
from .network import instantiate
from .optimizer import asymptotic_prediction, extract_policy, solve_op

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
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ParameterError(f"policy spec must be a name or an object with 'kind': {spec!r}")
    out = dict(spec)
    kind = out["kind"]
    policy = None if kind == "optimal" else spec_policy(out)
    if kind == "degree_range":
        out.setdefault("name", f"degree_{policy.degree_lo}_{policy.degree_hi}")
    else:
        out.setdefault("name", "table" if kind == "threshold_table" else kind)
    return out


def spec_policy(spec: PolicySpec) -> InterventionPolicy:
    """The policy of any spec but `optimal`, whose table needs a solve."""
    kind = spec["kind"]
    if kind == "none":
        return InterventionPolicy.none()
    if kind == "complete":
        return InterventionPolicy.complete()
    if kind == "degree_range":
        try:
            lo, hi = parse_int(spec["lo"], "lo"), parse_int(spec["hi"], "hi")
        except KeyError as exc:
            raise ParameterError(f"degree_range policy needs {exc}: {spec!r}") from exc
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"degree_range bounds must be integers: {spec!r}") from exc
        return InterventionPolicy.degree_range(lo, hi)
    if kind == "threshold_table":
        return InterventionPolicy.table(*_table_entries(spec))
    raise ParameterError(f"unknown policy kind {kind!r}")


def table_spec(policy: InterventionPolicy) -> PolicySpec:
    """The threshold_table spec of a table policy; `spec_policy` reads it back."""
    def keyed(table: dict) -> dict:
        return {",".join(map(str, key)): x for key, x in sorted(table.items())}

    return {"kind": "threshold_table", "thresholds": keyed(policy.thresholds),
            "singular": keyed(policy.singular)}


def _table_entries(spec: PolicySpec) -> tuple[dict, dict]:
    """(thresholds, singular) of a threshold_table spec, keyed "i,j,c" and "i,j"."""
    def parse(field: str, arity: int) -> dict:
        table = spec.get(field, {})
        if not isinstance(table, dict):
            raise ParameterError(f"threshold_table '{field}' must be an object, got {table!r}")
        out = {}
        for key, value in table.items():
            try:
                cls = tuple(int(part) for part in str(key).split(","))
                start = float(value)
            except (TypeError, ValueError) as exc:
                raise ParameterError(
                    f"bad threshold_table '{field}' entry {key!r}: {value!r}") from exc
            if len(cls) != arity:
                raise ParameterError(
                    f"threshold_table '{field}' key {key!r} needs {arity} integers")
            out[cls] = start
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
        if not self.sizes:
            raise ParameterError("sizes must not be empty")
        if any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise ParameterError("sizes must be strictly increasing")
        if self.runs < 2:
            raise ParameterError("need at least 2 runs per cell")
        if not (math.isfinite(self.cost) and self.cost > 0):
            raise ParameterError(f"cost must be positive and finite, got {self.cost}")
        if self.master_seed < 0:
            raise ParameterError(f"seed must be nonnegative, got {self.master_seed}")
        policies = tuple(normalize_policy_spec(s) for s in self.policies)
        names = [spec["name"] for spec in policies]
        repeated = sorted({name for name in names if names.count(name) > 1}, key=str)
        if repeated:
            raise ParameterError(f"policy names must be distinct, repeated: {repeated}")
        object.__setattr__(self, "policies", policies)

    @staticmethod
    def from_json(doc: dict) -> "StudyConfig":
        """The config of a JSON document; a field the document omits keeps its default."""
        parsers = {  # JSON key -> (field, parse)
            "sizes": ("sizes", lambda v: tuple(parse_int(n, "size") for n in v)),
            "runs": ("runs", lambda v: parse_int(v, "runs")),
            "policies": ("policies", tuple),
            "cost": ("cost", float),
            "seed": ("master_seed", lambda v: parse_int(v, "seed")),
            "outdir": ("outdir", lambda v: Path(v) if v else None),
        }
        try:
            fields = {name: parse(doc[key]) for key, (name, parse) in parsers.items()
                      if key in doc}
            return StudyConfig(distribution=distribution_from_spec(doc["distribution"]),
                               **fields)
        except ParameterError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ParameterError(f"bad study config: {exc}") from exc


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
    return {
        "intervention_fraction": aid,
        "default_fraction": defaults,
        "time_fraction": y,
    }


def simulation_policy(
    dist: JointDistribution, spec: PolicySpec, cost: float
) -> InterventionPolicy:
    if spec["kind"] == "optimal":
        return extract_policy(solve_op(dist, cost), dist, cost)
    return spec_policy(spec)


def run_study(cfg: StudyConfig) -> StudyResult:
    """Full study: simulations, summaries, theory twice, dispersion fits, files."""
    result = StudyResult(config=cfg)
    p = cfg.distribution

    for spec in cfg.policies:
        result.theory_p[spec["name"]] = theory_limits(p, spec, cfg.cost)

    for si, n in enumerate(cfg.sizes):
        counts = empirical_counts(p, n)
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

    if len(cfg.sizes) >= 2:
        for spec in cfg.policies:
            name = spec["name"]
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


def stats_csv(result: StudyResult) -> str:
    buf = io.StringIO()
    buf.write("n,policy,variable,mean,sd,q1,median,q3,iqr,theory_p,theory_Pn\n")
    for n in result.config.sizes:
        for spec in result.config.policies:
            name = spec["name"]
            for var in VARIABLES:
                s = result.stats[(n, name)][var]
                t_p = result.theory_p[name][var]
                t_pn = result.theory_pn[(n, name)][var]
                buf.write(
                    f"{n},{name},{var},{_fmt(s.mean)},{_fmt(s.sd)},{_fmt(s.q1)},"
                    f"{_fmt(s.median)},{_fmt(s.q3)},{_fmt(s.iqr)},{_fmt(t_p)},{_fmt(t_pn)}\n"
                )
    return buf.getvalue()


def samples_csv(result: StudyResult) -> str:
    buf = io.StringIO()
    buf.write("n,policy,run,intervention_fraction,default_fraction,time_fraction\n")
    for n in result.config.sizes:
        for spec in result.config.policies:
            name = spec["name"]
            cell = result.stats[(n, name)]
            for ri in range(result.config.runs):
                vals = [cell[var].samples[ri] for var in VARIABLES]
                buf.write(f"{n},{name},{ri}," + ",".join(_fmt(v) for v in vals) + "\n")
    return buf.getvalue()


def fits_csv(result: StudyResult) -> str:
    buf = io.StringIO()
    buf.write("policy,variable,measure,slope,intercept\n")
    for key in sorted(result.fits):
        slope, intercept = result.fits[key]
        buf.write(",".join(key) + f",{_fmt(slope)},{_fmt(intercept)}\n")
    return buf.getvalue()


def _write_outputs(result: StudyResult) -> None:
    outdir = result.config.outdir
    outdir.mkdir(parents=True, exist_ok=True)

    def put(name: str, payload: str):
        path = outdir / name
        path.write_text(payload)
        result.files.append(path)

    put("study_stats.csv", stats_csv(result))
    put("study_samples.csv", samples_csv(result))
    put("dispersion_fits.csv", fits_csv(result))

    sizes = list(result.config.sizes)
    labels = [str(n) for n in sizes]
    for spec in result.config.policies:
        name = spec["name"]
        for var in VARIABLES:
            cells = [result.stats[(n, name)][var] for n in sizes]
            theory_cell = [result.theory_pn[(n, name)][var] for n in sizes]
            theory_line = result.theory_p[name][var]
            boxes_msd = [
                (c.min, c.mean - c.sd, c.mean, c.mean + c.sd, c.max) for c in cells
            ]
            boxes_q = [
                (c.q1 - 1.5 * c.iqr, c.q1, c.median, c.q3, c.q3 + 1.5 * c.iqr)
                for c in cells
            ]
            put(f"box_meansd_{name}_{var}.svg",
                svg.boxplot_svg(f"{var} under {name} (mean/sd)", labels, boxes_msd,
                                theory_cell, theory_line))
            put(f"box_quartile_{name}_{var}.svg",
                svg.boxplot_svg(f"{var} under {name} (quartiles)", labels, boxes_q,
                                theory_cell, theory_line))
            series = {
                "sd": [c.sd for c in cells],
                "iqr": [c.iqr for c in cells],
            }
            fits = {
                m: result.fits[(name, var, m)]
                for m in ("sd", "iqr") if (name, var, m) in result.fits
            }
            put(f"dispersion_{name}_{var}.svg",
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
    letting the cascade run; `aid_cost` is cost * aid volume.  When a study
    result is supplied (or an outdir-less study is run here), the empirical
    means at the largest size are attached.  Writes comparison.csv and a bar
    chart when the config carries an output directory.
    """
    if len(cfg.policies) < 2:
        raise ParameterError("compare_policies needs at least two policies")
    p = cfg.distribution
    base_defaults = theory_limits(p, {"kind": "none", "name": "none"}, cfg.cost)["default_fraction"]
    if study is None:
        study = run_study(replace(cfg, outdir=None))
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
        cfg.outdir.mkdir(parents=True, exist_ok=True)
        buf = io.StringIO()
        buf.write("policy,defaults_limit,aid_limit,aid_cost,defaults_prevented,"
                  "objective,empirical_defaults,empirical_aid\n")
        for r in rows:
            emp_d = _fmt(r.empirical_defaults) if r.empirical_defaults is not None else ""
            emp_a = _fmt(r.empirical_aid) if r.empirical_aid is not None else ""
            buf.write(f"{r.policy},{_fmt(r.defaults_limit)},{_fmt(r.aid_limit)},"
                      f"{_fmt(r.aid_cost)},{_fmt(r.defaults_prevented)},"
                      f"{_fmt(r.objective)},{emp_d},{emp_a}\n")
        (cfg.outdir / "comparison.csv").write_text(buf.getvalue())
        chart = svg.bars_svg(
            "asymptotic comparison", [r.policy for r in rows],
            {
                "defaults": [r.defaults_limit for r in rows],
                "aid cost": [r.aid_cost for r in rows],
                "prevented": [r.defaults_prevented for r in rows],
            },
        )
        (cfg.outdir / "comparison.svg").write_text(chart)
    return rows
