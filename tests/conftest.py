"""Shared brute-force oracles and small builders used across the suite.

The oracles here deliberately avoid the library's own search kernels: they
enumerate tuples directly so library results can be checked against an
independent computation.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from ordramsey.core import ColoredCompleteGraph, OrderedGraph


def naive_density_within(g: OrderedGraph, members) -> Fraction:
    members = sorted(members)
    if len(members) < 2:
        return Fraction(0)
    hits = 0
    total = 0
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            total += 1
            if g.has_edge(members[i], members[j]):
                hits += 1
    return Fraction(hits, total)


def naive_density_between(g: OrderedGraph, a, b) -> Fraction:
    hits = 0
    for x in a:
        for y in b:
            if g.has_edge(min(x, y), max(x, y)):
                hits += 1
    return Fraction(hits, len(list(a)) * len(list(b)))


def brute_force_embeddings(host: OrderedGraph, pattern: OrderedGraph):
    """All order-preserving embeddings, by direct increasing-tuple enumeration."""
    out = []
    for tup in combinations(range(1, host.n + 1), pattern.n):
        if all(host.has_edge(tup[i - 1], tup[j - 1]) for i, j in pattern.sorted_edges()):
            out.append(tup)
    return out


def random_ordered_graph(n: int, p: float, seed: int) -> OrderedGraph:
    rng = random.Random(seed)
    edges = [(i, j) for i, j in combinations(range(1, n + 1), 2) if rng.random() < p]
    return OrderedGraph(n, edges)


def random_pattern_max_degree(n: int, max_deg: int, seed: int) -> OrderedGraph:
    """Random pattern with max degree <= max_deg and no isolated vertices."""
    rng = random.Random(seed)
    deg = [0] * (n + 1)
    edges = []
    pairs = list(combinations(range(1, n + 1), 2))
    rng.shuffle(pairs)
    for i, j in pairs:
        if deg[i] < max_deg and deg[j] < max_deg and rng.random() < 0.6:
            edges.append((i, j))
            deg[i] += 1
            deg[j] += 1
    for v in range(1, n + 1):
        if deg[v] == 0:
            options = [w for w in range(1, n + 1) if w != v and deg[w] < max_deg]
            if options:
                w = min(options, key=lambda u: (deg[u], u))
                edges.append((min(v, w), max(v, w)))
                deg[v] += 1
                deg[w] += 1
    return OrderedGraph(n, sorted(set(edges)))


@pytest.fixture
def k(request):
    return request.param


def complete_graph(n: int) -> OrderedGraph:
    return OrderedGraph(n, combinations(range(1, n + 1), 2))


def all_red(n: int) -> ColoredCompleteGraph:
    return ColoredCompleteGraph.from_function(n, lambda i, j: True)


def all_blue(n: int) -> ColoredCompleteGraph:
    return ColoredCompleteGraph.from_function(n, lambda i, j: False)


def paley(p: int) -> ColoredCompleteGraph:
    """Paley coloring for a prime p = 1 mod 4: red when j - i is a nonzero square mod p."""
    squares = {x * x % p for x in range(1, p)}
    return ColoredCompleteGraph.from_function(p, lambda i, j: (j - i) % p in squares)


def two_blue_cliques(n: int) -> ColoredCompleteGraph:
    """Blue inside the halves 1..n/2 and n/2+1..n, red between them."""
    half = n // 2
    return ColoredCompleteGraph.from_function(n, lambda i, j: (i <= half) != (j <= half))


def hub_zone_coloring():
    """Red: two hubs adjacent to everything plus all cross-zone pairs; the
    three zones are internally blue.  The only red 5-cliques are
    (z0, hub1, z1, hub2, z2), so every clique tuple lands in one bucket and
    the assembled skeleton's blocks are the zones themselves."""
    hubs = {5, 10}
    zones = (set(range(1, 5)), set(range(6, 10)), set(range(11, 15)))

    def zone_of(v):
        for idx, z in enumerate(zones):
            if v in z:
                return idx
        return None

    def is_red(i, j):
        if i in hubs or j in hubs:
            return True
        return zone_of(i) != zone_of(j)

    return ColoredCompleteGraph.from_function(14, is_red)


TAIL_TRIANGLE = OrderedGraph(4, [(1, 2), (1, 3), (2, 3), (3, 4)])
