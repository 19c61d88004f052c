"""Exact expectations of the contagion chain by brute-force enumeration, the
oracle that the simulator's Monte Carlo means must match on tiny instances.

`enumerate_matchings` lists all m! uniform stub matchings; `exact_expectation`
walks, within each matching, the full tree of uniform reveal orders in exact
rational arithmetic.  Both refuse instances with more than 10 links, where
the enumeration blows up factorially.
"""

import itertools
import math
from fractions import Fraction
from typing import Iterator

from contagion_control import ContagionControlError, InterventionPolicy, NodePopulation

from step_chain import cut

_ENUMERATION_MAX_M = 10
_EXACT_MAX_M = 10


class EnumerationLimitError(ContagionControlError, ValueError):
    """A brute-force enumeration was refused because it would blow up factorially."""


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
    weights: dict[tuple[tuple[int, int], ...], int] = {}
    for links in enumerate_matchings(pop):
        key = tuple(sorted(links))
        weights[key] = weights.get(key, 0) + 1

    total = Fraction(math.factorial(pop.m))
    e_d = e_it = e_t = Fraction(0)
    for links, mult in sorted(weights.items()):
        d, it, t = _order_tree(links, pop, policy)
        w = Fraction(mult, 1)
        e_d += w * d
        e_it += w * it
        e_t += w * t
    return e_d / total, e_it / total, e_t / total


def _order_tree(links, pop, policy):
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
                aid_from = cut(policy, pop, i, j, cvec[w])
                if aid_from is not None and k >= aid_from:
                    mu = 1
                    new_c = cvec[:w] + (cvec[w] + 1,) + cvec[w + 1:]
            d, it, t = rec(revealed | {e}, new_c)
            e_d += share * d
            e_it += share * (it + mu)
            e_t += share * t
        memo[key] = (e_d, e_it, e_t)
        return memo[key]

    return rec(frozenset(), tuple(c0 for (_i, _j, c0) in pop.nodes))
