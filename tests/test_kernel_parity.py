"""The compiled kernels must agree with the pure twins bit for bit.

Hosts larger than 32 vertices are included on purpose: bitmask rows then
exceed one machine word, which is where a shift-width bug would show up.
"""

import random
from itertools import combinations

import pytest

from ordramsey import kernels
from ordramsey.core import OrderedGraph, Tournament
from ordramsey.embed import _pre_lists

from conftest import complete_graph, random_ordered_graph

pytestmark = pytest.mark.skipif(
    kernels.compiled is None, reason="compiled kernels not importable"
)


def seeded_host(seed, n=40, p=0.3):
    return random_ordered_graph(n, p, seed)


def seeded_pattern(seed, n=4, p=0.6):
    g = random_ordered_graph(n, p, 50_000 + seed)
    if g.m == 0:
        g = OrderedGraph(n, [(1, n)])
    return g


class TestFindEmbedding:
    def test_parity(self):
        for seed in range(60):
            host = seeded_host(seed)
            pat = seeded_pattern(seed)
            args = (host.n, list(host.adj), pat.n, _pre_lists(pat), None)
            assert kernels.compiled.find_embedding(*args) == kernels.pure.find_embedding(*args), seed

    def test_parity_with_slots(self):
        for seed in range(20):
            host = seeded_host(seed, n=36)
            pat = seeded_pattern(seed, n=3)
            rng = random.Random(seed)
            full = ((1 << (host.n + 1)) - 1) & ~1
            slots = [0] + [
                full & rng.getrandbits(host.n + 1) | (1 << rng.randint(1, host.n))
                for _ in range(pat.n)
            ]
            args = (host.n, list(host.adj), pat.n, _pre_lists(pat), slots)
            assert kernels.compiled.find_embedding(*args) == kernels.pure.find_embedding(*args), seed


class TestCountEmbeddings:
    def test_parity(self):
        for seed in range(40):
            host = seeded_host(seed, n=34, p=0.4)
            pat = seeded_pattern(seed, n=3)
            for cap in (1, 7, 10**9):
                args = (host.n, list(host.adj), pat.n, _pre_lists(pat), None, cap)
                assert kernels.compiled.count_embeddings(*args) == kernels.pure.count_embeddings(*args), (seed, cap)


class TestTransitiveChain:
    def test_parity(self):
        for seed in range(40):
            rng = random.Random(seed)
            T = Tournament.from_random(seed % 10 + 33, rng)
            for k in (2, 4, 6):
                args = (T.N, list(T.beats), k)
                assert kernels.compiled.transitive_chain(*args) == kernels.pure.transitive_chain(*args), (seed, k)


class TestDigraphInjection:
    def test_parity(self):
        arcs = sorted({(1, 4), (4, 2), (4, 3)})
        order = [1, 2, 3, 4]
        for seed in range(40):
            rng = random.Random(seed)
            T = Tournament.from_random(seed % 8 + 33, rng)
            for budget in (25, 10**6):
                args = (T.N, list(T.beats), 4, arcs, order, budget)
                assert kernels.compiled.digraph_injection(*args) == kernels.pure.digraph_injection(*args), (seed, budget)


class TestCliqueTupleBuckets:
    def test_parity(self):
        for seed in range(25):
            host = seeded_host(seed, n=36, p=0.5)
            for k, cap in ((3, 10**6), (5, 10**6), (5, 40)):
                args = (host.n, list(host.adj), k, cap)
                got_c = kernels.compiled.clique_tuple_buckets(*args)
                got_p = kernels.pure.clique_tuple_buckets(*args)
                assert got_c == got_p, (seed, k, cap)

    def test_parity_on_complete_host(self):
        host = complete_graph(33)
        args = (host.n, list(host.adj), 5, 2_000)
        assert kernels.compiled.clique_tuple_buckets(*args) == kernels.pure.clique_tuple_buckets(*args)
