"""Finite node populations and uniform stub matching.

The random multigraph is the configuration model: every node carries d_in
in-stubs (loan offers) and d_out out-stubs (loan demands), and the two stub
sets are matched uniformly.  Self-loops and parallel links are allowed.  The
matching can be revealed sequentially: pick any out-stub by any rule, then
draw its partner uniformly over the remaining in-stubs; the law of the full
revealed link set is the same as matching everything up front.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .distribution import EmpiricalCounts
from .errors import ParameterError


@dataclass(frozen=True)
class NodePopulation:
    """Nodes as class runs ((in_degree, out_degree, initial_equity), count), in node order."""

    runs: tuple[tuple[tuple[int, int, int], int], ...]
    n: int = field(init=False)
    m: int = field(init=False)

    def __post_init__(self):
        if not self.runs:
            raise ParameterError("empty population")
        if bad := [count for _key, count in self.runs if count < 1]:
            raise ParameterError(f"a class run needs at least 1 node, got {bad[0]}")
        m_in = sum(i * count for (i, _j, _c), count in self.runs)
        m_out = sum(j * count for (_i, j, _c), count in self.runs)
        if m_in != m_out:
            raise ParameterError(f"stub totals unbalanced: in={m_in} out={m_out}")
        object.__setattr__(self, "n", sum(count for _key, count in self.runs))
        object.__setattr__(self, "m", m_in)

    @cached_property
    def nodes(self) -> tuple[tuple[int, int, int], ...]:
        """Each node's class in node order, built on first use (one shared tuple per run)."""
        return tuple(key for key, count in self.runs for _ in range(count))


def instantiate(counts: EmpiricalCounts) -> NodePopulation:
    """The population of counts: one run per class present, ordered by class key."""
    runs = tuple((key, count) for key, count in sorted(counts.counts.items()) if count)
    return NodePopulation(runs=runs)
