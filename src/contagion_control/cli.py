"""Command-line front end.

Subcommands:
  solve     distribution JSON + cost -> program solution JSON (policy included)
  simulate  single seeded run, optional per-step trace CSV
  study     study config JSON -> stats/samples CSVs and SVG charts
  compare   study config JSON -> per-policy comparison CSV/SVG

Exit codes: 0 success, 2 configuration error, 3 infeasible construction.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .cascade import run
from .distribution import distribution_from_spec, empirical_counts, parse_object
from .errors import ConstructionError, ParameterError
from .experiments import (
    StudyConfig,
    compare_policies,
    normalize_policy_spec,
    run_study,
    simulation_policy,
    stats_csv,
    table_spec,
)
from .network import instantiate
from .optimizer import extract_policy, solve_op

import numpy as np


def _load_json(path: str) -> dict:
    """The JSON object in a file; every file the CLI reads holds one."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8 text
        raise ParameterError(f"cannot read JSON from {path}: {exc}") from exc
    return parse_object(doc, f"the JSON in {path}")


def _cmd_solve(args) -> int:
    dist = distribution_from_spec(_load_json(args.distribution))
    sol = solve_op(dist, args.cost)
    doc = dataclasses.asdict(sol)
    del doc["singular_j"]
    doc["policy"] = table_spec(extract_policy(sol, dist, args.cost))
    payload = json.dumps(doc, indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(payload + "\n")
    else:
        print(payload)
    return 0


def _cmd_simulate(args) -> int:
    if args.seed < 0:
        raise ParameterError(f"seed must be nonnegative, got {args.seed}")
    dist = distribution_from_spec(_load_json(args.distribution))
    counts = empirical_counts(dist, args.n)
    pop = instantiate(counts)
    if args.policy.endswith(".json"):
        doc = _load_json(args.policy)
        if "kind" not in doc and "policy" in doc:
            doc = doc["policy"]  # accept a `solve` output file directly
        spec = normalize_policy_spec(doc)
    else:
        spec = normalize_policy_spec(args.policy)
    policy = simulation_policy(counts.to_distribution(), spec, args.cost)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(args.seed)))
    out = run(pop, policy, rng, trace=bool(args.trace))
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write("k,D,IT,D_minus\n")
            for k, d, it, dm in out.trace:
                fh.write(f"{k},{d},{it},{dm}\n")
    print(json.dumps({
        "n": out.n, "m": out.m, "T": out.T,
        "interventions": out.interventions, "defaults": out.defaults,
        "intervention_fraction": out.interventions / out.n,
        "default_fraction": out.defaults / out.n,
        "time_fraction": out.T / out.m if out.m else 0.0,
    }, sort_keys=True))
    return 0


def _study_config(args) -> StudyConfig:
    """The config in --config, its output directory replaced by --outdir if given."""
    doc = _load_json(args.config)
    if args.outdir:
        doc["outdir"] = args.outdir
    return StudyConfig.from_json(doc)


def _cmd_study(args) -> int:
    cfg = _study_config(args)
    if cfg.outdir is None:
        raise ParameterError("study needs an output directory (config 'outdir' or --outdir)")
    sys.stdout.write(stats_csv(run_study(cfg)))
    return 0


def _cmd_compare(args) -> int:
    for r in compare_policies(_study_config(args)):
        print(f"{r.policy}: defaults={r.defaults_limit:.6f} aid_cost={r.aid_cost:.6f} "
              f"prevented={r.defaults_prevented:.6f} objective={r.objective:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contagion-control",
        description="Default contagion with interventions on configuration-model networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve the intervention program")
    p_solve.add_argument("--distribution", required=True, help="distribution spec JSON file")
    p_solve.add_argument("--cost", type=float, required=True, help="cost of one aid unit")
    p_solve.add_argument("--output", help="write the solution JSON here instead of stdout")
    p_solve.set_defaults(fn=_cmd_solve)

    p_sim = sub.add_parser("simulate", help="one seeded contagion run")
    p_sim.add_argument("--distribution", required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--policy", default="none",
                       help="none|complete|optimal|alternative or a policy JSON file")
    p_sim.add_argument("--cost", type=float, default=0.5)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--trace", help="write per-step trace CSV here")
    p_sim.set_defaults(fn=_cmd_simulate)

    p_study = sub.add_parser("study", help="batch study across sizes and policies")
    p_study.add_argument("--config", required=True, help="study config JSON file")
    p_study.add_argument("--outdir", help="override the config's output directory")
    p_study.set_defaults(fn=_cmd_study)

    p_cmp = sub.add_parser("compare", help="compare policies against no intervention")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--outdir")
    p_cmp.set_defaults(fn=_cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParameterError, OSError) as exc:  # OSError: an output path we cannot write
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: the population does not fit in memory; choose a smaller n",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
