"""The per-step contagion chain and the in-stub swap loop, kept as the oracles
that `cascade.run` and `cascade._replay` must match.

Each step reveals one hidden out-link of the default set.  Its target owns the
in-stub at index floor(u * remaining) of the node-ordered owner list, with u
from blocks of `rng.random(4096)`, and that stub is swap-removed.  A live
target one loss from default is aided once the step has reached its class's
cut m * start (`cut`, from the policy's start time), else it defaults and its
out-links join the hidden pool.  From an identically seeded generator it gives
`run`'s T, aid, defaults, snapshots and trace; `swap_order` gives the order of
`draw_order` (`_replay` run to the end) and leaves the generator where it
leaves it.
"""

import math
from array import array

import numpy as np

from contagion_control.cascade import RunOutcome, _replay


def cut(policy, pop, i, j, c):
    """The first step at which a one-loss node of class (i, j, c) is aided,
    as a real number; None means never."""
    start = policy.start(i, j, c)
    return None if start is None else start * pop.m


def swap_order(owners, rng):
    """The draw order of `owners` (int32), one in-place swap per step."""
    m = len(owners)
    left = array("i", [0]) * m
    np.frombuffer(left, dtype=np.int32)[:] = owners
    for start in range(m, 0, -4096):
        stop = max(start - 4096, 0)
        picks = (rng.random(4096)[: start - stop] * np.arange(start, stop, -1)).astype(np.intp)
        for idx, last in zip(picks.tolist(), range(start - 1, stop - 1, -1)):
            left[idx], left[last] = left[last], left[idx]
    return np.frombuffer(left, dtype=np.int32)[::-1]


def draw_order(owners, rng):
    """The draw order of `owners` (int32) by `_replay`, run to the end."""
    left = np.array(owners, dtype=np.int32)
    for _ in _replay(left, rng):
        pass
    return left[::-1]


def run_steps(pop, policy, rng, snapshot_times=(), trace=False) -> RunOutcome:
    owners = [v for v, (i, _j, _c) in enumerate(pop.nodes) for _ in range(i)]
    c = [c0 for (_i, _j, c0) in pop.nodes]
    l = [0] * pop.n
    dead = [c0 == 0 for c0 in c]
    defaults, aid, k = sum(dead), 0, 0
    hidden = sum(j for (_i, j, c0) in pop.nodes if c0 == 0)

    def aggregate():
        agg = {}
        for v, (i, j, c0) in enumerate(pop.nodes):
            if 0 < c0 <= i and not dead[v]:
                key = (i, j, c[v], l[v])
                agg[key] = agg.get(key, 0) + 1
        return agg

    snaps = sorted((math.floor(t * pop.n), t) for t in set(snapshot_times))
    snapshots, rows, block = {}, [], []
    while True:
        while snaps and (snaps[0][0] <= k or hidden == 0):
            snapshots[snaps.pop(0)[1]] = aggregate()
        if hidden == 0:
            break
        if not block:
            block = rng.random(4096).tolist()[::-1]
        idx = int(block.pop() * len(owners))
        node = owners[idx]
        owners[idx] = owners[-1]
        owners.pop()
        if not dead[node] and c[node] - l[node] == 1:
            i, j, _c0 = pop.nodes[node]
            aid_from = cut(policy, pop, i, j, c[node])
            if aid_from is not None and k >= aid_from:
                c[node] += 1
                aid += 1
            else:
                dead[node] = True
                defaults += 1
                hidden += j
        l[node] += 1
        hidden -= 1
        k += 1
        if trace:
            rows.append((k, defaults, aid, hidden))
    return RunOutcome(T=k, interventions=aid, defaults=defaults, n=pop.n, m=pop.m,
                      snapshots=snapshots, trace=rows)
