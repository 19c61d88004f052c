"""Finite node populations and uniform stub matching.

The random multigraph is the configuration model: every node carries d_in
in-stubs (loan offers) and d_out out-stubs (loan demands), and the two stub
sets are matched uniformly.  Self-loops and parallel links are allowed.  The
matching can be revealed sequentially: pick any out-stub by any rule, then
draw its partner uniformly over the remaining in-stubs; the law of the full
revealed link set is the same as matching everything up front.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .distribution import EmpiricalCounts
from .errors import EnumerationLimitError, ParameterError

_ENUMERATION_MAX_M = 10


@dataclass(frozen=True)
class NodePopulation:
    """Deterministic expansion of class counts into per-node attributes."""

    nodes: tuple[tuple[int, int, int], ...]  # (in_degree, out_degree, initial_equity)
    n: int = field(init=False)
    m: int = field(init=False)

    def __post_init__(self):
        if not self.nodes:
            raise ParameterError("empty population")
        m_in = sum(i for (i, _j, _c) in self.nodes)
        m_out = sum(j for (_i, j, _c) in self.nodes)
        if m_in != m_out:
            raise ParameterError(f"stub totals unbalanced: in={m_in} out={m_out}")
        object.__setattr__(self, "n", len(self.nodes))
        object.__setattr__(self, "m", m_in)

    def in_degrees(self) -> list[int]:
        return [i for (i, _j, _c) in self.nodes]

    def out_degrees(self) -> list[int]:
        return [j for (_i, j, _c) in self.nodes]

    def equities(self) -> list[int]:
        return [c for (_i, _j, c) in self.nodes]


def instantiate(counts: EmpiricalCounts) -> NodePopulation:
    """Expand counts into a node list ordered by class key."""
    nodes = []
    for key in sorted(counts.counts):
        nodes.extend([key] * counts.counts[key])
    return NodePopulation(nodes=tuple(nodes))


class InStubPool:
    """Remaining in-stubs as a flat owner array with O(1) uniform draws.

    Each entry is the owning node of one unmatched in-stub; drawing uniformly
    from the array selects node w with probability (d_in(w) - l(w)) / remaining,
    which is the selected-node law of the sequential construction.  Draws
    swap-remove, so stub identities within a node are interchangeable.
    """

    __slots__ = ("owners", "remaining")

    def __init__(self, in_degrees: list[int]):
        owners = []
        for node, deg in enumerate(in_degrees):
            owners.extend([node] * deg)
        self.owners = owners
        self.remaining = len(owners)

    def draw_at(self, idx: int) -> int:
        last = self.remaining - 1
        owners = self.owners
        node = owners[idx]
        owners[idx] = owners[last]
        self.remaining = last
        return node

    def draw(self, rng: np.random.Generator) -> int:
        """Consume one in-stub uniformly at random; returns the owning node."""
        if self.remaining <= 0:
            raise ParameterError("no in-stubs left to draw")
        return self.draw_at(int(rng.integers(self.remaining)))


def out_stub_owners(pop: NodePopulation) -> list[int]:
    """Fixed out-stub order: node index repeated by its out-degree."""
    owners = []
    for node, (_i, j, _c) in enumerate(pop.nodes):
        owners.extend([node] * j)
    return owners


def enumerate_matchings(pop: NodePopulation) -> Iterator[tuple[tuple[int, int], ...]]:
    """All m! stub matchings, as orderings of in-stubs against the fixed out-stub order.

    Each matching is a tuple of (source, target) node pairs, one per link.
    """
    if pop.m > _ENUMERATION_MAX_M:
        raise EnumerationLimitError(
            f"refusing to enumerate {pop.m}! matchings (limit m <= {_ENUMERATION_MAX_M})"
        )
    sources = out_stub_owners(pop)
    in_owners = []
    for node, (i, _j, _c) in enumerate(pop.nodes):
        in_owners.extend([node] * i)
    for perm in itertools.permutations(in_owners):
        yield tuple(zip(sources, perm))
