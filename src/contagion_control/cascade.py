"""The embedded discrete-time contagion chain with pluggable interventions.

One step = one hidden out-link of the default set is revealed.  The revealed
link's target is drawn uniformly over all remaining in-stubs.  The target's
revealed-link count l rises by one; if it was one loss away from default
(equity-plus-aid c minus old l equal to 1), the policy decides whether to
inject one unit of equity.  Without aid the node defaults and its out-links
join the hidden pool.  The process stops when the pool empties.

Time is step count k; scaled time is k/n.  Continuous-time clocks are not
simulated: the embedded chain has the same law for everything the outcome
depends on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import EnumerationLimitError, ParameterError
from .network import InStubPool, NodePopulation, enumerate_matchings

_EXACT_MAX_M = 10

Aggregate = dict[tuple[int, int, int, int], int]  # (i, j, c, l) -> node count


_KINDS = ("none", "complete", "degree_range", "threshold_table")


@dataclass(frozen=True)
class InterventionPolicy:
    """When to inject equity into the currently selected node.

    Every policy is a per-class table of scaled start times: class (i, j, c)
    (c the current equity-plus-aid) is aided from step n*lam*start onward,
    where lam is the realized mean degree of the population being run (so the
    cutoff is m * start).  `start` is the one place that acts on `kind`: `none`
    never aids, `complete` aids from 0, a degree band aids from 0 inside
    [degree_lo, degree_hi], and a threshold table looks the class up (absent
    means never; `singular` entries apply to the state c == i of their (i, j)
    pair).  Policies act only on the selected node and only when it is one loss
    from default; anything else is wasted aid.
    """

    kind: str  # "none" | "complete" | "degree_range" | "threshold_table"
    degree_lo: int = 0
    degree_hi: int = 0
    thresholds: dict[tuple[int, int, int], float] = field(default_factory=dict)
    singular: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ParameterError(f"unknown policy kind {self.kind!r}")
        for key, start in [*self.thresholds.items(), *self.singular.items()]:
            if not (math.isfinite(start) and 0.0 <= start <= 1.0):
                raise ParameterError(f"start time of class {key} must lie in [0, 1], got {start}")

    @staticmethod
    def none() -> "InterventionPolicy":
        return InterventionPolicy(kind="none")

    @staticmethod
    def complete() -> "InterventionPolicy":
        return InterventionPolicy(kind="complete")

    @staticmethod
    def degree_range(lo: int, hi: int) -> "InterventionPolicy":
        """Aid every one-loss-from-default node whose in-degree lies in [lo, hi]."""
        if lo > hi or lo < 0:
            raise ParameterError(f"bad degree range [{lo}, {hi}]")
        return InterventionPolicy(kind="degree_range", degree_lo=lo, degree_hi=hi)

    @staticmethod
    def table(
        thresholds: dict[tuple[int, int, int], float],
        singular: dict[tuple[int, int], float] | None = None,
    ) -> "InterventionPolicy":
        """Start times per class; each must be a finite scaled time in [0, 1]."""
        return InterventionPolicy(
            kind="threshold_table", thresholds=dict(thresholds), singular=dict(singular or {})
        )

    def start(self, i: int, j: int, c: int) -> float | None:
        """Scaled start time of aid for class (i, j) at cushion c; None means never."""
        if self.kind == "none":
            return None
        if self.kind == "complete":
            return 0.0
        if self.kind == "degree_range":
            return 0.0 if self.degree_lo <= i <= self.degree_hi else None
        if c == i and (i, j) in self.singular:
            return self.singular[(i, j)]
        return self.thresholds.get((i, j, c))


def _cutoffs(policy: InterventionPolicy, pop: NodePopulation) -> dict[tuple[int, int, int], float]:
    """(i, j, c) -> first step k at which a one-loss node is aided; absent = never.

    A node is one loss from default only at cushions 1..i, so those are the
    only classes the chain ever looks up.
    """
    cutoffs = {}
    for i, j in {(i, j) for (i, j, _c) in set(pop.nodes)}:
        for c in range(1, i + 1):
            start = policy.start(i, j, c)
            if start is not None:
                cutoffs[(i, j, c)] = start * pop.m
    return cutoffs


class ContagionState:
    """Mutable chain state: per-node (c, l), default set, pool size, counters."""

    __slots__ = (
        "pop", "policy", "_cutoffs", "pool", "c", "l", "dead",
        "k", "interventions", "defaults", "hidden_out",
    )

    def __init__(self, pop: NodePopulation, policy: InterventionPolicy):
        self.pop = pop
        self.policy = policy
        self._cutoffs = _cutoffs(policy, pop)
        self.pool = InStubPool(pop.in_degrees())
        self.c = list(pop.equities())
        self.l = [0] * pop.n
        self.dead = bytearray(pop.n)
        self.k = 0
        self.interventions = 0
        self.defaults = 0
        self.hidden_out = 0
        outs = pop.out_degrees()
        for v, c0 in enumerate(self.c):
            if c0 == 0:
                self.dead[v] = 1
                self.defaults += 1
                self.hidden_out += outs[v]

    @property
    def done(self) -> bool:
        return self.hidden_out == 0

    def advance(self, node: int) -> None:
        """Apply one revelation to `node` (its in-stub was already consumed)."""
        lw = self.l[node]
        self.l[node] = lw + 1
        if not self.dead[node]:
            if self.c[node] - lw == 1:
                # one loss from default; the policy sees the pre-reveal state
                i, j, _c0 = self.pop.nodes[node]
                cut = self._cutoffs.get((i, j, self.c[node]))
                if cut is not None and self.k >= cut:
                    self.c[node] += 1
                    self.interventions += 1
                else:
                    self.dead[node] = 1
                    self.defaults += 1
                    self.hidden_out += j
        self.hidden_out -= 1
        self.k += 1

    def aggregate(self) -> Aggregate:
        """Counts over states (i, j, c, l) of initially vulnerable, live nodes."""
        agg: Aggregate = {}
        for v, (i, j, c0) in enumerate(self.pop.nodes):
            if 0 < c0 <= i and not self.dead[v]:
                key = (i, j, self.c[v], self.l[v])
                agg[key] = agg.get(key, 0) + 1
        return agg

    def hidden_out_recomputed(self) -> int:
        """Pool size from scratch: out-stubs of the default set minus steps taken."""
        outs = self.pop.out_degrees()
        return sum(outs[v] for v in range(self.pop.n) if self.dead[v]) - self.k


@dataclass(frozen=True)
class RunOutcome:
    """Terminal step count, interventions, defaults, and optional snapshots."""

    T: int
    interventions: int
    defaults: int
    n: int
    m: int
    snapshots: dict[float, Aggregate] = field(default_factory=dict)
    trace: list[tuple[int, int, int, int]] = field(default_factory=list)

    def objective(self, cost: float) -> float:
        return cost * self.interventions / self.n + self.defaults / self.n


def step(state: ContagionState, rng: np.random.Generator) -> ContagionState:
    """One transition of the chain; errors if the hidden pool is empty."""
    if state.done:
        raise ParameterError("step called on a terminated process (empty hidden pool)")
    node = state.pool.draw(rng)
    state.advance(node)
    return state


def run(
    pop: NodePopulation,
    policy: InterventionPolicy,
    rng: np.random.Generator,
    snapshot_times: Iterable[float] = (),
    trace: bool = False,
) -> RunOutcome:
    """Run the chain to termination.

    Snapshots of the state aggregate are recorded at scaled times tau via step
    index floor(tau * n), no interpolation.  The hot loop consumes uniforms in
    blocks and maps u -> floor(u * remaining); the bias versus exact bounded
    integers is ~2^-53 * remaining, far below anything observable here.
    """
    # a run owns its state exclusively; runs with independently seeded
    # generators can execute in parallel and be reduced in run-index order
    state = ContagionState(pop, policy)
    snaps = sorted(set(snapshot_times))
    snap_steps = [(int(math.floor(t * pop.n)), t) for t in snaps]
    snap_steps.sort()
    out_snaps: dict[float, Aggregate] = {}
    rows: list[tuple[int, int, int, int]] = []

    si = 0
    while si < len(snap_steps) and snap_steps[si][0] <= 0:
        out_snaps[snap_steps[si][1]] = state.aggregate()
        si += 1

    block = np.empty(0)
    bi = 0
    pool = state.pool
    advance = state.advance
    while state.hidden_out > 0:
        if bi >= block.size:
            block = rng.random(4096)
            bi = 0
        node = pool.draw_at(int(block[bi] * pool.remaining))
        bi += 1
        advance(node)
        if trace:
            rows.append((state.k, state.defaults, state.interventions, state.hidden_out))
        while si < len(snap_steps) and snap_steps[si][0] <= state.k:
            out_snaps[snap_steps[si][1]] = state.aggregate()
            si += 1

    # late snapshot times fall on the terminal state
    while si < len(snap_steps):
        out_snaps[snap_steps[si][1]] = state.aggregate()
        si += 1

    return RunOutcome(
        T=state.k,
        interventions=state.interventions,
        defaults=state.defaults,
        n=pop.n,
        m=pop.m,
        snapshots=out_snaps,
        trace=rows,
    )


def run_via_steps(
    pop: NodePopulation, policy: InterventionPolicy, rng: np.random.Generator
) -> RunOutcome:
    """Reference runner built from step(); same law as run(), used for cross-checks."""
    state = ContagionState(pop, policy)
    while not state.done:
        step(state, rng)
    return RunOutcome(
        T=state.k, interventions=state.interventions, defaults=state.defaults,
        n=pop.n, m=pop.m,
    )


def exact_expectation(
    pop: NodePopulation, policy: InterventionPolicy
) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (E[defaults], E[interventions], E[T]) by brute-force enumeration.

    Enumerates all m! uniform stub matchings (grouped into node-level link
    multisets with their multiplicities), and within each matching the full
    tree of uniform reveal orders.  Exact rational arithmetic throughout; the
    policy must be deterministic, which every InterventionPolicy is.
    """
    if pop.m > _EXACT_MAX_M:
        raise EnumerationLimitError(
            f"refusing exact enumeration at m={pop.m} (limit m <= {_EXACT_MAX_M})"
        )
    cutoffs = _cutoffs(policy, pop)
    weights: dict[tuple[tuple[int, int], ...], int] = {}
    for links in enumerate_matchings(pop):
        key = tuple(sorted(links))
        weights[key] = weights.get(key, 0) + 1

    total = Fraction(math.factorial(pop.m))
    ins = pop.in_degrees()
    outs = pop.out_degrees()
    eqs = pop.equities()
    e_d = e_it = e_t = Fraction(0)
    for links, mult in sorted(weights.items()):
        d, it, t = _order_tree(links, ins, outs, eqs, pop, cutoffs)
        w = Fraction(mult, 1)
        e_d += w * d
        e_it += w * it
        e_t += w * t
    return e_d / total, e_it / total, e_t / total


def _order_tree(links, ins, outs, eqs, pop, cutoffs):
    """Expected (defaults, interventions, T) for one matching, all reveal orders.

    The memo key carries the revealed-link set and the per-node equity vector:
    under step-indexed policies the equity reached can depend on the order in
    which the same revealed set was built, so the set alone is not a state.
    """
    n = len(ins)
    memo: dict[tuple[frozenset, tuple], tuple] = {}

    def is_dead(cvec, lvec, v):
        return cvec[v] <= lvec[v]

    def rec(revealed: frozenset, cvec: tuple):
        lvec = [0] * n
        for e in revealed:
            lvec[links[e][1]] += 1
        hidden = [
            e for e in range(len(links))
            if e not in revealed and is_dead(cvec, lvec, links[e][0])
        ]
        if not hidden:
            d = sum(1 for v in range(n) if is_dead(cvec, lvec, v))
            return Fraction(d), Fraction(0), Fraction(len(revealed))
        key = (revealed, cvec)
        if key in memo:
            return memo[key]
        k = len(revealed)
        share = Fraction(1, len(hidden))
        e_d = e_it = e_t = Fraction(0)
        for e in hidden:
            w = links[e][1]
            new_c = cvec
            mu = 0
            if not is_dead(cvec, lvec, w) and cvec[w] - lvec[w] == 1:
                i, j, _c0 = pop.nodes[w]
                cut = cutoffs.get((i, j, cvec[w]))
                if cut is not None and k >= cut:
                    mu = 1
                    new_c = cvec[:w] + (cvec[w] + 1,) + cvec[w + 1:]
            d, it, t = rec(revealed | {e}, new_c)
            e_d += share * d
            e_it += share * (it + mu)
            e_t += share * t
        memo[key] = (e_d, e_it, e_t)
        return memo[key]

    return rec(frozenset(), tuple(eqs))
