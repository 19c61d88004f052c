"""The contagion chain with pluggable interventions.

One step reveals one hidden out-link of the default set.  Its target is drawn
uniformly over all remaining in-stubs; the target's revealed-link count l
rises by one, and if it was one loss from default (equity-plus-aid c minus
old l equal to 1) the policy decides whether to inject one unit of equity.
Without aid the node defaults and its out-links join the hidden pool.  The
process stops when the pool empties.

`run` is the one runner.  The draw ignores the state, so the in-stub draw
order can be fixed first.  Each node's fate is then a first passage over its
own loss steps: at cushion c0 it meets losses r = c0, c0 + 1, ... one loss
from default, is aided while the step has reached the cut of (i, j, r), and
defaults at the first loss that is not (the reveal-order argument of Janson &
Luczak 2007 and of Amini, Cont & Minca 2016).  So a run changes only the
draw order and the passage: a population's node arrays are built on its
first run (`_Nodes`), and a policy's cut table on its first run there.

The draw order is the swap-remove of the per-step chain (index floor(u *
remaining) over the node-ordered owner list, u from blocks of
`rng.random(4096)`), which `_replay` replays one 4096-step block at a time
while `run` advances the first passage over the replayed prefix.

Time is step count k; scaled time is k/n.  Continuous-time clocks are not
simulated: the embedded chain has the same law for everything the outcome
depends on.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .errors import ParameterError
from .network import NodePopulation

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
    from default; anything else is wasted aid.  Both tables are read-only
    copies of the dicts the policy was built with, so a policy never changes
    and the runner may keep what it read of one.
    """

    kind: str  # "none" | "complete" | "degree_range" | "threshold_table"
    degree_lo: int = 0
    degree_hi: int = 0
    thresholds: Mapping[tuple[int, int, int], float] = field(default_factory=dict)
    singular: Mapping[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("thresholds", "singular"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))
        if self.kind not in _KINDS:
            raise ParameterError(f"unknown policy kind {self.kind!r}")
        if self.kind == "degree_range" and not 0 <= self.degree_lo <= self.degree_hi:
            raise ParameterError(f"bad degree range [{self.degree_lo}, {self.degree_hi}]")
        for size, table in ((3, self.thresholds), (2, self.singular)):
            if bad := [key for key in table if not (isinstance(key, tuple) and len(key) == size)]:
                raise ParameterError(f"class key {bad[0]!r} is not a tuple of {size} degrees")
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
        return InterventionPolicy(kind="degree_range", degree_lo=lo, degree_hi=hi)

    @staticmethod
    def table(
        thresholds: dict[tuple[int, int, int], float],
        singular: dict[tuple[int, int], float] | None = None,
    ) -> "InterventionPolicy":
        """Start times per class; each must be a finite scaled time in [0, 1]."""
        return InterventionPolicy(kind="threshold_table", thresholds=thresholds,
                                  singular=singular or {})

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


_STEPS = np.arange(4096)
_SPAN = 1 << 16  # steps per pass of the first passage, which bounds its temporaries


def _replay(left: np.ndarray, rng: np.random.Generator):
    """Replay the swap-remove draw order of `left` in place, one 4096-step
    block at a time in step order, and yield the count of steps replayed
    after each block; the array ends as the draw order reversed.

    Step t of a block over the live prefix [0, start) reads entry idx_t and
    swaps it with the live end r_t = start - 1 - t, which no later step of the
    block touches.  The block's (position, step) keys are sorted once.  The
    draws are then the gather left[idx], and the write of step t carries the
    entry r_t of the tail [stop, start), except on small sets of fix-ups:

    - a key that re-reads a position draws what the previous write to it
      carried;
    - a write into the tail at r_t by a step s < t hands step t what step s
      carried; the last such write counts, and pointer doubling over these
      links only takes each to the tail entry its chain starts from;
    - a position below the tail written more than once keeps its last write.

    The writes below the tail are scattered back and the tail takes the
    draws, reversed.  Re-reads and tail writes are rare while the live prefix
    is much longer than the block; the last block, where the prefix is the
    block itself, is the dense case.  Each block draws its 4096 uniforms
    whatever its length, as the swap loop does.
    """
    m = len(left)
    for start in range(m, 0, -4096):
        stop = max(start - 4096, 0)
        b = start - stop
        idx = (rng.random(4096)[:b] * np.arange(start, stop, -1.0)).astype(np.intp)
        key = idx << 12  # the writes as keys position << 12 | step, sorted
        key |= _STEPS[:b]
        key.sort()
        pos, step = key >> 12, key & 4095
        last = pos[1:] != pos[:-1]  # key k (< b - 1) is the last write to its position
        tail = left[stop:start][::-1]  # tail[t] is entry r_t
        draw = left.take(idx)
        # keys from h on write into the tail; the one a step t keeps is the
        # last write to r_t before its own step (the self-swap idx_t = r_t)
        h = int(pos.searchsorted(stop)) if stop else 0
        t = (start - 1) - pos[h:]
        own = step[h:] == t
        linked = ~own
        linked[:-1] &= last[h:] | own[1:]
        target, root = t[linked], step[h:][linked]
        up = _STEPS[:b]  # the write of step t carries tail[up[t]]
        if len(target):
            up = up.copy()
            up[target] = root
            while True:  # doubling, until every link reaches a step without one
                nxt = up[root]
                if not np.count_nonzero(nxt != root):
                    break
                up[target] = root = nxt
        carried = tail[up]
        again = (~last).nonzero()[0]  # key k + 1 re-reads the position of key k
        draw[step[1:][again]] = carried[step[again]]
        if h:  # the last write to each position below the tail stays
            left[pos[:h]] = carried.take(step[:h])
            # a position written twice or more keeps its last write, the key
            # k + 1 of `again` whose next key does not re-read it
            ends = again + 1
            ends = ends[(np.append(again[1:], b) != ends) & (ends < h)]
            left[pos[ends]] = carried[step[ends]]
        tail[:] = draw
        yield m - stop


class _Nodes:
    """A population's node arrays, which all its runs read: built on its first run, kept on it."""

    def __init__(self, pop: NodePopulation):
        self.keys = np.array([key for key, _count in pop.runs], np.int32)
        counts = [count for _key, count in pop.runs]
        self.ins, self.outs, self.eqs = (np.repeat(col, counts) for col in self.keys.T)
        self.m, self.width = pop.m, int(self.keys[:, 0].max()) + 1
        self.hidden0 = int(self.outs[self.eqs == 0].sum())
        self.vulnerable = (self.eqs > 0) & (self.eqs <= self.ins)
        # each node's place at loss 0: its class run's row of the cut table
        self.place = np.repeat(np.arange(len(counts), dtype=np.int32) * self.width, counts)
        object.__setattr__(pop, "_run_nodes", self)


class _Passage:
    """Each node's first passage over a growing prefix of one run's draw order.

    A vulnerable node (1 <= c0 <= i) meets losses 1, 2, ... at its hits.  From
    loss c0 on it is one loss from default, at cushion r on loss r, and is
    aided while the step has reached the cut of (i, j, r); at the first loss
    that is not, it defaults.  The passage carries each node's place in the
    cut table (its class row plus the losses met so far) and its fall step (m while it stands).
    """

    def __init__(self, nodes: _Nodes, policy: InterventionPolicy):
        # row k, column r: the first step ceil(m * start) at which loss r of a
        # node of class run k is aided, m if never (as at r outside 1..i) and
        # -1 at r < c0; the policy keeps the table of the population it last ran on
        if vars(policy).get("_cuts", (None,))[0] is not nodes:
            m, width, pairs, rows = nodes.m, nodes.width, nodes.keys[:, :2].tolist(), {}
            for i, j in pairs:
                if (i, j) not in rows:
                    starts = [policy.start(i, j, r) if 1 <= r <= i else None for r in range(width)]
                    rows[i, j] = [m if x is None else math.ceil(m * x) for x in starts]
            table = np.array([rows[i, j] for i, j in pairs])
            table[np.arange(width) < nodes.keys[:, 2:]] = -1
            object.__setattr__(policy, "_cuts", (nodes, table.ravel()))
        self.table = vars(policy)["_cuts"][1]
        self.place, self.live = nodes.place.copy(), nodes.vulnerable.copy()
        self.fall = np.full(len(self.live), nodes.m)
        self.aid_node, self.aid_step = [], []

    def advance(self, nodes: np.ndarray, first: int) -> np.ndarray:
        """Pass over `nodes`, the targets of steps first, first + 1, ...;
        return the nodes that fall there."""
        # the hits on live vulnerable nodes, by node, then by step
        hit = self.live.take(nodes).nonzero()[0]
        key = nodes.take(hit).astype(np.int64) << 32
        key |= hit
        key.sort()
        node, step = key >> 32, (key & 0xFFFFFFFF) + first
        # a hit's loss is the node's losses so far plus its rank among the
        # node's hits here
        new = np.empty(len(node), bool)
        new[:1] = True
        np.not_equal(node[1:], node[:-1], out=new[1:])
        head = new.nonzero()[0]
        owner = node.take(head)
        base = self.place.take(owner) + 1 - head
        self.place[owner] = base + np.append(head[1:], len(node)) - 1
        cut = self.table.take(np.append(0, base).take(np.cumsum(new)) + np.arange(len(node)))
        # a node falls at its first loss below the cut
        fails = (step < cut).nonzero()[0]
        who = node.take(fails)
        falls = fails[np.append(True, who[1:] != who[:-1])] if len(fails) else fails
        fallen = node.take(falls)
        self.fall[fallen] = step.take(falls)
        self.live[fallen] = False
        aided = step >= cut
        aided &= cut >= 0
        aided &= step < self.fall.take(node)
        aided = aided.nonzero()[0]
        self.aid_node.append(node.take(aided))
        self.aid_step.append(step.take(aided))
        return fallen


def run(
    pop: NodePopulation,
    policy: InterventionPolicy,
    rng: np.random.Generator,
    snapshot_times: Iterable[float] = (),
    trace: bool = False,
) -> RunOutcome:
    """Run the chain to termination.

    The draw order is replayed block by block only until the first passage
    shows the pool empty at T; the generator is still left after all
    ceil(m / 4096) blocks of the draw order, the later blocks' uniforms drawn
    and not replayed.  No draw is made when no node starts defaulted.
    Snapshots of the state aggregate are taken at step floor(tau * n),
    clamped to [0, T], with no interpolation.  The draws map u -> floor(u *
    remaining); the bias versus exact bounded integers is ~2^-53 *
    remaining, far below anything observable here.
    """
    nodes = vars(pop).get("_run_nodes") or _Nodes(pop)
    ins, outs, eqs, hidden0 = nodes.ins, nodes.outs, nodes.eqs, nodes.hidden0
    n, m = pop.n, pop.m
    left = np.repeat(np.arange(n, dtype=np.int32), ins)
    order = left[::-1]
    passage = _Passage(nodes, policy)
    # the pool after k steps is hidden0 plus the out-degrees of the nodes
    # fallen before k, minus k.  It falls by at most one per step, so T is at
    # least `reach`, that sum over the falls in the steps the passage has
    # covered: replay up to it before looking again
    done, reach = 0, hidden0
    if hidden0:
        blocks = _replay(left, rng)
        while done < reach:
            end = done
            while end < min(reach, done + _SPAN):
                end = next(blocks)
            reach += int(outs[passage.advance(order[done:end], done)].sum())
            done = end
        for _ in range(-(-(m - done) // 4096)):  # the skipped blocks' uniforms
            rng.random(4096)
    fall = passage.fall
    aid_node = np.concatenate([np.empty(0, np.int64), *passage.aid_node])
    aid_step = np.concatenate([np.empty(0, np.int64), *passage.aid_step])
    # while q nodes have defaulted (in step order) the pool after k steps is
    # budget[q] - k; T is the first k at which it is empty
    fallen = np.flatnonzero(fall < m)
    fallen = fallen[np.argsort(fall[fallen])]
    fell_at = fall[fallen]
    budget = hidden0 + np.cumsum(np.concatenate(([0], outs[fallen])))
    T = int(budget[np.argmax(budget <= np.concatenate((fell_at, [done])))])
    initial = int(np.count_nonzero(eqs == 0))

    def aggregate(k: int) -> Aggregate:
        """Counts over states (i, j, c, l) of initially vulnerable nodes live after k steps."""
        loss = np.bincount(order[:k], minlength=n)
        cushion = eqs + np.bincount(aid_node[aid_step < k], minlength=n)
        v = np.flatnonzero(nodes.vulnerable & (fall >= k))
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
