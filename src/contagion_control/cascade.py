"""The contagion chain with pluggable interventions, and its exact oracle.

One step reveals one hidden out-link of the default set.  Its target is drawn
uniformly over all remaining in-stubs; the target's revealed-link count l
rises by one, and if it was one loss from default (equity-plus-aid c minus
old l equal to 1) the policy decides whether to inject one unit of equity.
Without aid the node defaults and its out-links join the hidden pool.  The
process stops when the pool empties.

`run` is the one runner.  The draw ignores the state, so the run fixes the
whole in-stub draw order first.  Each node's fate is then a first passage over
its own loss steps: at cushion c0 it meets losses r = c0, c0 + 1, ... one loss
from default, is aided while the step has reached the cut of (i, j, r), and
defaults at the first loss that is not (the reveal-order argument of Janson &
Luczak 2007 and of Amini, Cont & Minca 2016).

The draw order is the swap-remove of the per-step chain (index floor(u *
remaining) over the node-ordered owner list, u from blocks of
`rng.random(4096)`), replayed one 4096-step block at a time with array
operations: a sort of the block's (position, step) keys gives each read the
last earlier write to its position, and pointer doubling follows the writes
that carried a swapped-out value back to the entry that held it before the
block.  The order and the generator's state afterwards are the swap loop's;
only one block's temporaries are held beyond the owner array.

Time is step count k; scaled time is k/n.  Continuous-time clocks are not
simulated: the embedded chain has the same law for everything the outcome
depends on.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import EnumerationLimitError, ParameterError
from .network import NodePopulation, enumerate_matchings

_EXACT_MAX_M = 10
_FAR = 1 << 62  # a draw-order key no position reaches

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
    keys, _counts = pop._classes
    cutoffs = {}
    for i, j in dict.fromkeys((i, j) for i, j, _c in keys.tolist()):
        for c in range(1, i + 1):
            start = policy.start(i, j, c)
            if start is not None:
                cutoffs[(i, j, c)] = start * pop.m
    return cutoffs


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


def _draw_order(owners: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The node each of the m reveals hits, in step order (int32).

    Step k takes entry floor(u * (m - k)) of the m - k in-stubs left, with u
    from blocks of `rng.random(4096)`, and swaps it to the end of the live
    prefix, so the array ends as the draw order reversed.

    Each block of b <= 4096 steps over the live prefix [0, start) is replayed
    with array operations, not swap by swap.  Step t reads entry idx_t and
    swaps it with the live end r_t = start - 1 - t, which no later step of the
    block touches.  Sorting the block's (position, step) keys gives every read
    the last earlier write to its position:

    - the draw of step t is the value that write carried, else the entry
      idx_t held before the block;
    - the write of step t carries what stood at r_t: the value of the last
      earlier write to r_t, else the entry r_t held before the block.  Each
      such link points to an earlier step, so following the links (by pointer
      doubling) ends at a pre-block entry.

    The last write to each position below the block's tail is scattered back
    and the draws fill the tail [start - b, start), reversed.  The block draws
    the same uniforms and indices as the swap loop, so the order and the
    generator's state afterwards are the same as the loop's.
    """
    left = np.array(owners, dtype=np.int32)
    for start in range(len(left), 0, -4096):
        stop = max(start - 4096, 0)
        b = start - stop
        idx = (rng.random(4096)[:b] * np.arange(start, stop, -1)).astype(np.intp)
        # the writes as keys position << 12 | step, sorted, between two
        # sentinels that share no position with any key
        key = np.empty(b + 2, np.int64)
        key[0] = key[-1] = _FAR
        writes = key[1:-1]
        np.left_shift(idx, 12, out=writes)
        writes |= np.arange(b)
        writes.sort()
        pos, low = writes >> 12, key & 4095
        step = low[1:-1]
        paired = (key[:-1] ^ key[1:]) < 4096  # key k and key k + 1 share a position
        # step t swaps position r_t, whose key (r_t, t) is ask[b - 1 - t];
        # before that swap r_t held what the last earlier write to it carried,
        # found as the key just below
        ask = np.arange((stop << 12) + b - 1, ((start - 1) << 12) + 1, 4095)
        below = writes.searchsorted(ask)
        linked = (key[below] ^ ask) < 4096  # else no earlier write: step t itself
        link = np.where(linked, low[below], np.arange(b - 1, -1, -1))[::-1]
        # a chain has no more links than there are linked steps, so
        # ceil(log2(links)) doublings take every step to its chain's end
        for _ in range(max(int(np.count_nonzero(linked)) - 1, 0).bit_length()):
            link = link[link]
        carried = (start - 1) - link  # pre-block position of what step t's write carries
        draw = left[np.where(paired[:-1], carried[low[:-2]], pos)]
        if stop:  # the final block has nothing below its tail
            last = ~paired[1:]
            left[pos[last]] = left[carried[step[last]]]
        left[stop:start][::-1][step] = draw
    return left[::-1]


def _first_passage(keys, cls, ins, eqs, order, cutoffs):
    """Each node's default step (m = never) and the (node, step) of each aid
    unit, over all m steps of `order`; the caller keeps those before T.

    `keys` holds the rows (i, j, c) of the class runs and `cls` each node's
    run; `ins` and `eqs` are the nodes' in-degrees and equities.
    """
    n, m = len(ins), len(order)
    # only vulnerable nodes (1 <= c0 <= i) meet a loss one loss from default
    checked = np.where((eqs > 0) & (eqs <= ins), ins - eqs + 1, 0)
    owned = np.where(checked > 0, ins, 0)
    # the steps that hit a vulnerable node, sorted by node, then by step
    when = np.flatnonzero((checked > 0)[order])
    when += order[when] * np.int64(m)
    when.sort()
    when %= m
    # losses r = c0..i of each vulnerable node; loss r is entry base + r - 1
    node = np.repeat(np.arange(n, dtype=np.int32), checked)
    nth = np.arange(len(node)) - np.repeat(np.cumsum(checked) - checked, checked)
    rank = eqs[node] + nth
    step = when[(np.cumsum(owned) - owned + eqs - 1)[node] + nth]
    # k >= cut iff k >= ceil(cut); m stands for never
    table = np.full((len(keys), int(keys[:, 0].max()) + 1), m)
    for k, (i, j, _c) in enumerate(keys.tolist()):
        for r in range(1, i + 1):
            cut = cutoffs.get((i, j, r))
            if cut is not None:
                table[k, r] = math.ceil(cut)
    aided = step >= table[cls[node], rank]
    fall = np.full(n, m)
    np.minimum.at(fall, node[~aided], step[~aided])
    aided &= step < fall[node]
    return fall, node[aided], step[aided]


def run(
    pop: NodePopulation,
    policy: InterventionPolicy,
    rng: np.random.Generator,
    snapshot_times: Iterable[float] = (),
    trace: bool = False,
) -> RunOutcome:
    """Run the chain to termination.

    No draw is made when no node starts defaulted.  Snapshots of the state
    aggregate are taken at step floor(tau * n), clamped to [0, T], with no
    interpolation.  The draws map u -> floor(u * remaining); the bias versus
    exact bounded integers is ~2^-53 * remaining, far below anything
    observable here.  The generator is left after all ceil(m / 4096) blocks
    of the draw order, even when the run ends earlier.
    """
    keys, counts = pop._classes
    ins, outs, eqs, cls = (np.repeat(col, counts) for col in (*keys.T, np.arange(len(keys))))
    n, m = pop.n, pop.m
    hidden0 = int(outs[eqs == 0].sum())
    if hidden0:
        order = _draw_order(np.repeat(np.arange(n, dtype=np.int32), ins), rng)
        fall, aid_node, aid_step = _first_passage(keys, cls, ins, eqs, order, _cutoffs(policy, pop))
    else:  # nothing is ever revealed
        order = aid_node = aid_step = np.empty(0, np.int32)
        fall = np.full(n, m)
    # while q nodes have defaulted (in step order) the pool after k steps is
    # budget[q] - k; T is the first k at which it is empty
    fallen = np.flatnonzero(fall < m)
    fallen = fallen[np.argsort(fall[fallen])]
    fell_at = fall[fallen]
    budget = hidden0 + np.cumsum(np.concatenate(([0], outs[fallen])))
    T = int(budget[np.argmax(budget <= np.concatenate((fell_at, [m])))])
    initial = int(np.count_nonzero(eqs == 0))

    def aggregate(k: int) -> Aggregate:
        """Counts over states (i, j, c, l) of initially vulnerable nodes live after k steps."""
        loss = np.bincount(order[:k], minlength=n)
        cushion = eqs + np.bincount(aid_node[aid_step < k], minlength=n)
        v = np.flatnonzero((eqs > 0) & (eqs <= ins) & (fall >= k))
        return dict(Counter(zip(*(col[v].tolist() for col in (ins, outs, cushion, loss)))))

    snapshots = {
        tau: aggregate(min(max(int(math.floor(tau * n)), 0), T))
        for tau in sorted(set(snapshot_times))
    }
    rows = []
    if trace:  # (k, defaults, aid units, hidden pool) after each step k
        steps = np.arange(1, T + 1)
        q = np.searchsorted(fell_at, steps)
        aid = np.searchsorted(np.sort(aid_step), steps)
        rows = list(zip(*(col.tolist() for col in (steps, initial + q, aid, budget[q] - steps))))
    return RunOutcome(
        T=T,
        interventions=int(np.count_nonzero(aid_step < T)),
        defaults=initial + int(np.searchsorted(fell_at, T)),
        n=n,
        m=m,
        snapshots=snapshots,
        trace=rows,
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
    e_d = e_it = e_t = Fraction(0)
    for links, mult in sorted(weights.items()):
        d, it, t = _order_tree(links, pop, cutoffs)
        w = Fraction(mult, 1)
        e_d += w * d
        e_it += w * it
        e_t += w * t
    return e_d / total, e_it / total, e_t / total


def _order_tree(links, pop, cutoffs):
    """Expected (defaults, interventions, T) for one matching, all reveal orders.

    The memo key carries the revealed-link set and the per-node equity vector:
    under step-indexed policies the equity reached can depend on the order in
    which the same revealed set was built, so the set alone is not a state.
    """
    n = pop.n
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

    return rec(frozenset(), tuple(c0 for (_i, _j, c0) in pop.nodes))
