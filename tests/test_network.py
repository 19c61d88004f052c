import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import chi2

from contagion_control import (
    EmpiricalCounts,
    NodePopulation,
    ParameterError,
    instantiate,
)
from contagion_control.cascade import _draw_order

from conftest import make_rng
from exact_oracle import EnumerationLimitError, enumerate_matchings
from step_chain import swap_order


class TestInstantiate:
    def test_three_nodes(self):
        pop = instantiate(EmpiricalCounts(n=3, counts={(1, 1, 0): 1, (1, 1, 1): 2}))
        assert pop.n == 3 and pop.m == 3
        assert pop.nodes == ((1, 1, 0), (1, 1, 1), (1, 1, 1))

    def test_ten_nodes(self):
        pop = instantiate(EmpiricalCounts(n=10, counts={(2, 2, 2): 8, (2, 2, 0): 2}))
        assert pop.n == 10 and pop.m == 20

    def test_empty_population(self):
        with pytest.raises(ParameterError, match="empty"):
            NodePopulation(nodes=())

    def test_deterministic_order(self):
        counts = EmpiricalCounts(n=4, counts={(2, 2, 1): 2, (1, 1, 0): 2})
        assert instantiate(counts).nodes == instantiate(counts).nodes


def owners_of(in_degrees):
    """The node-ordered in-stub owners of nodes with these in-degrees."""
    return np.repeat(np.arange(len(in_degrees), dtype=np.int32), in_degrees)


class TestDrawInStub:
    def test_single_stub_certain(self):
        order = _draw_order(owners_of([0, 1]), make_rng(0))  # node 1 has the only stub
        assert order.tolist() == [1]

    def test_weighted_law(self):
        # the first target: node 0 owns 2 stubs, node 1 owns 1, so P(node 0) = 2/3
        rng = make_rng(5)
        owners = owners_of([2, 1])
        hits = 0
        trials = 100_000
        for _ in range(trials):
            if _draw_order(owners, rng)[0] == 0:
                hits += 1
        p_hat = hits / trials
        se = math.sqrt((2 / 3) * (1 / 3) / trials)
        assert abs(p_hat - 2 / 3) < 3 * se

    def test_conservation(self):
        # every in-stub is drawn exactly once
        owners = owners_of([3, 2, 1])
        order = _draw_order(owners, make_rng(1))
        assert len(order) == 6
        assert Counter(order.tolist()) == Counter(owners.tolist())

    @settings(max_examples=100, deadline=None)
    @given(
        m=st.integers(1, 3 * 4096 + 17),
        values=st.lists(st.integers(-2**31, 2**31 - 1), min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(m=4095, values=[0, 1], seed=0)
    @example(m=4096, values=[7], seed=1)
    @example(m=4097, values=[-3, 5, 5], seed=2)
    @example(m=8192, values=[0, 2**31 - 1, -2**31], seed=3)
    @example(m=8193, values=[1, 2, 3, 4], seed=4)
    def test_equals_the_swap_loop(self, m, values, seed):
        # int32 owners with repeats, over one to four draw blocks
        owners = make_rng(seed).choice(np.array(values, np.int32), m)
        rng_a, rng_b = make_rng(seed, 1), make_rng(seed, 1)
        order = _draw_order(owners, rng_a)
        assert order.dtype == np.int32
        assert np.array_equal(order, swap_order(owners, rng_b))
        assert rng_a.random() == rng_b.random()

    def test_memory_stays_one_block_deep(self):
        # the blocks are replayed one at a time: beyond the copy of the owners,
        # a draw order of m = 380375 holds only one block's temporaries
        owners = np.arange(380375, dtype=np.int32) % 100_000
        rng = make_rng(3)
        tracemalloc.start()
        try:
            _draw_order(owners, rng)
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= owners.nbytes + 2**20


class TestEnumerateMatchings:
    def _pop3(self):
        return instantiate(EmpiricalCounts(n=3, counts={(1, 1, 0): 1, (1, 1, 1): 2}))

    def test_counts_m3(self):
        assert sum(1 for _ in enumerate_matchings(self._pop3())) == 6

    def test_single_link(self):
        pop = instantiate(EmpiricalCounts(n=1, counts={(1, 1, 0): 1}))
        matchings = list(enumerate_matchings(pop))
        assert matchings == [matchings[0]]
        assert matchings[0] == ((0, 0),)

    def test_permutation_complete(self):
        # each in-stub owner appears in each link slot exactly (m-1)! times
        pop = instantiate(EmpiricalCounts(n=4, counts={(1, 1, 0): 1, (1, 1, 1): 3}))
        position_counts = [Counter() for _ in range(pop.m)]
        total = 0
        for matching in enumerate_matchings(pop):
            total += 1
            for slot, (_src, dst) in enumerate(matching):
                position_counts[slot][dst] += 1
        assert total == math.factorial(pop.m)
        expected = math.factorial(pop.m - 1)
        for slot in range(pop.m):
            assert all(v == expected for v in position_counts[slot].values())

    def test_degree_multiplicity(self):
        # the degree-2 node owns two in-stubs and is drawn twice as often per slot
        pop = instantiate(EmpiricalCounts(n=2, counts={(2, 2, 0): 1, (1, 1, 1): 1}))
        assert pop.nodes == ((1, 1, 1), (2, 2, 0))
        first_slot = Counter(m[0][1] for m in enumerate_matchings(pop))
        assert first_slot[1] == 2 * first_slot[0]

    def test_refusal(self):
        pop = instantiate(EmpiricalCounts(n=11, counts={(1, 1, 1): 11}))
        with pytest.raises(EnumerationLimitError):
            next(iter(enumerate_matchings(pop)))


class TestSequentialEquivalence:
    def test_full_reveal_matches_uniform_matching(self):
        """The draw order of three one-stub nodes hits every bijection equally
        often (chi-square over the 3! = 6 outcomes)."""
        rng = make_rng(17)
        owners = owners_of([1, 1, 1])
        counts = Counter()
        trials = 60_000
        for _ in range(trials):
            counts[tuple(_draw_order(owners, rng).tolist())] += 1
        assert len(counts) == 6
        expected = trials / 6
        stat = sum((obs - expected) ** 2 / expected for obs in counts.values())
        p_value = chi2.sf(stat, df=5)
        assert p_value > 0.001
