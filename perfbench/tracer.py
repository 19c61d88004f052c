"""In-memory spans around the package's public functions.

Each traced function is replaced by a wrapper at every place a caller looks
it up (for example `optimizer.program_residuals`, the name `solve_op` resolves
to, not `asymptotics.program_residuals`).  A span records its name, start,
end and parent span; self time is a span's duration minus the time its child
spans cover.  Spans stay in memory until `write` dumps them after the run.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter

from contagion_control import (
    asymptotics,
    cascade,
    distribution,
    experiments,
    network,
    optimizer,
    svg,
)

# Fixed start grids of the solver: 13 multipliers x 10 end fractions for
# stage A, 5 end fractions x 3 singular shares per out-degree for stage B.
STAGE_A_STARTS = 130
STAGE_B_STARTS = 15

POLICY_FAMILY = {
    "none": "none",
    "complete": "complete",
    "degree_range": "band",
    "threshold_table": "table",
}


def _run_attrs(args, kwargs, out):
    policy = args[1] if len(args) > 1 else kwargs["policy"]
    return {
        "family": POLICY_FAMILY[policy.kind],
        "T": out.T,
        "defaults": out.defaults,
        "aid": out.interventions,
    }


def _solve_attrs(args, kwargs, out):
    p = args[0] if args else kwargs["p"]
    cost = args[1] if len(args) > 1 else kwargs["cost"]
    return {"input": (tuple(sorted(p.entries.items())), float(cost))}


def _stage_attrs(args, kwargs, out):
    return {"kept": len(out)}


def _output_attrs(args, kwargs, out):
    result = args[0] if args else kwargs["result"]
    return {"bytes": sum(path.stat().st_size for path in result.files)}


# span name -> (the (module, attribute) pairs callers resolve, attribute hook)
TARGETS = {
    "distribution.build_zipf_copula": ([(distribution, "build_zipf_copula")], None),
    "distribution.empirical_counts": (
        [(distribution, "empirical_counts"), (experiments, "empirical_counts")], None),
    "network.instantiate": ([(network, "instantiate"), (experiments, "instantiate")], None),
    "cascade.run": ([(cascade, "run"), (experiments, "run")], _run_attrs),
    "asymptotics.program_residuals": ([(optimizer, "program_residuals")], None),
    "asymptotics.terminal_hamiltonian": ([(optimizer, "terminal_hamiltonian")], None),
    "asymptotics.smallest_fixed_point": (
        [(optimizer, "smallest_fixed_point"), (asymptotics, "smallest_fixed_point")], None),
    "asymptotics.forced_policy_limits": ([(experiments, "forced_policy_limits")], None),
    "asymptotics.default_outflow_controlled": (
        [(optimizer, "default_outflow_controlled")], None),
    "optimizer.solve_op": ([(optimizer, "solve_op"), (experiments, "solve_op")], _solve_attrs),
    "optimizer.solve_stage_a": ([(optimizer, "solve_stage_a")], _stage_attrs),
    "optimizer.solve_stage_b": ([(optimizer, "solve_stage_b")], _stage_attrs),
    "experiments.theory_limits": ([(experiments, "theory_limits")], None),
    "experiments.simulation_policy": ([(experiments, "simulation_policy")], None),
    "experiments.run_study": ([(experiments, "run_study")], None),
    # the CSV writers plus the SVG calls and the file writes
    "experiments.output": ([(experiments, "_write_outputs")], _output_attrs),
    "svg.boxplot_svg": ([(svg, "boxplot_svg")], None),
    "svg.loglog_svg": ([(svg, "loglog_svg")], None),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Patches TARGETS while active; use as a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, perf_counter(), stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if hook is not None:
                span.attrs = hook(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        for name, (sites, hook) in TARGETS.items():
            for module, attr in sites:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, hook))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def self_times(self) -> list[float]:
        """Duration of each span minus the time covered by its direct children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.duration
        return [span.duration - c for span, c in zip(self.spans, child)]

    def write(self, path: Path) -> None:
        names = sorted({s.name for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        t0 = self.spans[0].start if self.spans else 0.0
        doc = {
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [[index[s.name], s.start - t0, s.end - t0, s.parent] for s in self.spans],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


def layer_metrics(tracer: Tracer, warnings_count: int) -> dict[str, float]:
    """Per-layer numbers of one traced iteration (set-up plus pass)."""
    spans = tracer.spans
    selfs = tracer.self_times()
    calls: dict[str, int] = {name: 0 for name in TARGETS}
    total: dict[str, float] = {name: 0.0 for name in TARGETS}
    self_total: dict[str, float] = {name: 0.0 for name in TARGETS}
    for span, own in zip(spans, selfs):
        calls[span.name] += 1
        total[span.name] += span.duration
        self_total[span.name] += own

    def attrs(name):
        return [s.attrs for s in spans if s.name == name]

    runs = [s for s in spans if s.name == "cascade.run"]
    solves = attrs("optimizer.solve_op")
    kept = sum(a["kept"] for a in attrs("optimizer.solve_stage_a") + attrs("optimizer.solve_stage_b"))
    starts = (STAGE_A_STARTS * calls["optimizer.solve_stage_a"]
              + STAGE_B_STARTS * calls["optimizer.solve_stage_b"])

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        "distribution.build_zipf_copula.s": total["distribution.build_zipf_copula"],
        "distribution.empirical_counts.s": total["distribution.empirical_counts"],
        "distribution.empirical_counts.calls": calls["distribution.empirical_counts"],
        "network.instantiate.s": total["network.instantiate"],
        "cascade.run.calls": calls["cascade.run"],
        "cascade.run.s": total["cascade.run"],
        "cascade.links": sum(s.attrs["T"] for s in runs),
    }
    for family in ("none", "complete", "band", "table"):
        mine = [s for s in runs if s.attrs["family"] == family]
        out[f"cascade.ns_per_link.{family}"] = ratio(
            sum(s.duration for s in mine) * 1e9, sum(s.attrs["T"] for s in mine))
    out["cascade.defaults"] = sum(s.attrs["defaults"] for s in runs)
    out["cascade.aid_units"] = sum(s.attrs["aid"] for s in runs)
    for name in ("program_residuals", "terminal_hamiltonian", "smallest_fixed_point",
                 "forced_policy_limits"):
        out[f"asymptotics.{name}.calls"] = calls[f"asymptotics.{name}"]
        out[f"asymptotics.{name}.s"] = total[f"asymptotics.{name}"]
    out["asymptotics.default_outflow_controlled.calls"] = calls["asymptotics.default_outflow_controlled"]
    out.update({
        "optimizer.solve_op.calls": calls["optimizer.solve_op"],
        "optimizer.solve_op.s": total["optimizer.solve_op"],
        "optimizer.solve_op.self_s": self_total["optimizer.solve_op"],
        "optimizer.solve_op.distinct_ratio": ratio(len({a["input"] for a in solves}), len(solves)),
        "optimizer.solve_stage_a.s": total["optimizer.solve_stage_a"],
        "optimizer.solve_stage_b.s": total["optimizer.solve_stage_b"],
        "optimizer.residual_calls_per_solve": ratio(
            calls["asymptotics.program_residuals"], calls["optimizer.solve_op"]),
        "optimizer.candidates_per_start": ratio(kept, starts),
        "optimizer.warnings": warnings_count,
        "experiments.theory_limits.calls": calls["experiments.theory_limits"],
        "experiments.theory_limits.s": total["experiments.theory_limits"],
        "experiments.simulation_policy.calls": calls["experiments.simulation_policy"],
        "experiments.simulation_policy.s": total["experiments.simulation_policy"],
        "experiments.run_study.self_s": self_total["experiments.run_study"],
        "experiments.output.s": total["experiments.output"],
        "experiments.output_bytes": sum(a["bytes"] for a in attrs("experiments.output")),
        "svg.boxplot_svg.s": total["svg.boxplot_svg"],
        "svg.loglog_svg.s": total["svg.loglog_svg"],
    })
    return out

