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
from functools import cached_property
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

    @cached_property
    def _classes(self) -> tuple[np.ndarray, np.ndarray]:
        """The runs of equal classes in node order, built once: int32 rows
        (i, j, c) and each run's node count."""
        runs = [(key, len(list(group))) for key, group in itertools.groupby(self.nodes)]
        return np.array([key for key, _ in runs], np.int32), np.array([count for _, count in runs])


def instantiate(counts: EmpiricalCounts) -> NodePopulation:
    """Expand counts into a node list ordered by class key."""
    nodes = []
    for key in sorted(counts.counts):
        nodes.extend([key] * counts.counts[key])
    return NodePopulation(nodes=tuple(nodes))


def enumerate_matchings(pop: NodePopulation) -> Iterator[tuple[tuple[int, int], ...]]:
    """All m! stub matchings, as orderings of in-stubs against the fixed out-stub order.

    Each matching is a tuple of (source, target) node pairs, one per link.
    """
    if pop.m > _ENUMERATION_MAX_M:
        raise EnumerationLimitError(
            f"refusing to enumerate {pop.m}! matchings (limit m <= {_ENUMERATION_MAX_M})"
        )
    sources = [node for node, (_i, j, _c) in enumerate(pop.nodes) for _ in range(j)]
    in_owners = [node for node, (i, _j, _c) in enumerate(pop.nodes) for _ in range(i)]
    for perm in itertools.permutations(in_owners):
        yield tuple(zip(sources, perm))
