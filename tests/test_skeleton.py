"""Skeleton discovery and verification, clique tuple indexing, and the
clique-or-independent-set finder."""

import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from ordramsey import kernels
from ordramsey.core import Color, ColoredCompleteGraph, OrderedGraph, bits_of, color_class, mask_of
from ordramsey.errors import DomainError, InternalContractError, ParameterError, TupleCapError
from ordramsey.skeleton import (
    DEFAULT_SAMPLES,
    DEFAULT_TUPLE_CAP,
    Skeleton,
    _es_chains,
    _index_from_cliques,
    _skeleton_from_index,
    build_clique_tuple_index,
    es_bound,
    es_clique_or_independent,
    expand_clique_tuples,
    find_skeleton_from_cliques,
    find_skeleton_in_dense,
    sample_color_cliques,
    skeleton_from_harvest,
    verify_skeleton,
)

from conftest import all_blue, all_red, complete_graph, outcome, random_ordered_graph


def brute_force_clique_tuples(host: OrderedGraph, k: int):
    """Every increasing k-tuple spanning a clique, by direct enumeration."""
    out = []
    for tup in combinations(range(1, host.n + 1), k):
        if all(host.has_edge(x, y) for x, y in combinations(tup, 2)):
            out.append(tup)
    return out


class TestSkeletonType:
    def test_valid_construction(self):
        s = Skeleton((4, 8), ((1, 2, 3), (5, 6, 7), (9, 10, 11)), 2, 3)
        assert s.a == 2 and s.b == 3

    def test_block_count_must_be_a_plus_one(self):
        with pytest.raises(DomainError):
            Skeleton((4,), ((1, 2), (5, 6), (8, 9)), 1, 2)

    def test_spine_length_must_be_a(self):
        with pytest.raises(DomainError):
            Skeleton((4, 8), ((1,), (5,)), 1, 1)

    def test_positive_parameters(self):
        with pytest.raises(DomainError):
            Skeleton((), ((1,),), 0, 1)


class TestVerifySkeleton:
    def setup_method(self):
        self.host = complete_graph(11)
        self.spine = (4, 8)
        self.blocks = ((1, 2, 3), (5, 6, 7), (9, 10, 11))

    def test_complete_host_passes(self):
        s = Skeleton(self.spine, self.blocks, 2, 3)
        assert verify_skeleton(self.host, s) == (True, None)

    def test_short_block_fails_b(self):
        s = Skeleton(self.spine, ((1, 2, 3), (5, 6, 7), (9, 10)), 2, 3)
        assert verify_skeleton(self.host, s) == (False, "condition (b) fails at (2, 2)")

    def test_missing_spine_block_edge_fails_c(self):
        edges = [e for e in combinations(range(1, 12), 2) if e != (4, 9)]
        host = OrderedGraph(11, edges)
        s = Skeleton(self.spine, self.blocks, 2, 3)
        assert verify_skeleton(host, s) == (False, "condition (c) fails at (4, 9)")

    def test_interleaving_violation_fails_a(self):
        s = Skeleton((4, 8), ((1, 2, 5), (5, 6, 7), (9, 10, 11)), 2, 3)
        assert verify_skeleton(self.host, s) == (False, "condition (a) fails at (5,)")

    def test_missing_spine_edge_fails_c(self):
        edges = [e for e in combinations(range(1, 12), 2) if e != (4, 8)]
        host = OrderedGraph(11, edges)
        s = Skeleton(self.spine, self.blocks, 2, 3)
        assert verify_skeleton(host, s) == (False, "condition (c) fails at (4, 8)")


def tuple_total(host: OrderedGraph, k: int, cap: int = DEFAULT_TUPLE_CAP) -> int:
    """The number of clique tuples the host-path kernel enumerated."""
    return kernels.clique_tuple_buckets(host.n, host.adj, k, cap)[0]


class TestCliqueTupleIndex:
    def test_complete_graph_counts(self):
        # every increasing 5-tuple of K_9 is a clique tuple
        truncated, _ = build_clique_tuple_index(complete_graph(9), 5)
        assert tuple_total(complete_graph(9), 5) == math.comb(9, 5)
        assert not truncated

    def test_matches_brute_force_on_random_hosts(self):
        for seed in range(12):
            host = random_ordered_graph(11, 0.6, 7000 + seed)
            for k in (3, 5):
                _, buckets = build_clique_tuple_index(host, k)
                expected = brute_force_clique_tuples(host, k)
                assert tuple_total(host, k) == len(expected)
                keys = {tup[1::2] for tup in expected}
                assert set(buckets) == keys

    def test_cap_marks_truncated(self):
        # the tuples of one 2-vertex prefix are committed as a block, so cap
        # on, just before and just after the prefix boundaries and inside one
        host = complete_graph(12)
        listed = brute_force_clique_tuples(host, 5)
        starts = [i for i in range(1, len(listed)) if listed[i][:2] != listed[i - 1][:2]]
        caps = {1, 10, (starts[0] + starts[1]) // 2}
        for b in starts[:3] + starts[-2:] + [len(listed)]:
            caps.update((b - 1, b, b + 1))
        for cap in sorted(caps):
            truncated, buckets = build_clique_tuple_index(host, 5, tuple_cap=cap)
            assert tuple_total(host, 5, cap) == min(cap, len(listed)), cap
            assert truncated == (cap < len(listed)), cap
            assert buckets == reference_buckets(listed[:cap], 5), cap

    def test_bad_parameters(self):
        with pytest.raises(ParameterError):
            build_clique_tuple_index(complete_graph(4), 0)
        with pytest.raises(ParameterError):
            build_clique_tuple_index(complete_graph(4), 2, tuple_cap=0)

    def test_pigeonhole_floor(self):
        # the fullest bucket holds at least total / N^(2a) tuples, and the
        # chosen skeleton's b is at least that bucket's b
        for seed in range(8):
            host = random_ordered_graph(13, 0.7, 8000 + seed)
            listed = brute_force_clique_tuples(host, 5)
            if not listed:
                continue
            populations = Counter(tup[1::2] for tup in listed)
            fullest = max(populations, key=populations.get)
            assert populations[fullest] >= len(listed) / host.n ** 2
            skel = _skeleton_from_index(build_clique_tuple_index(host, 5)[1], 1, 1)
            assert skel.b >= reference_b(reference_buckets(listed, 5)[fullest], 1)


@st.composite
def hosts_and_k(draw):
    """A random host on at most 13 vertices and a tuple length 1..7."""
    n = draw(st.integers(0, 13))
    pairs = list(combinations(range(1, n + 1), 2))
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    host = OrderedGraph(n, [e for e, keep in zip(pairs, present) if keep])
    return host, draw(st.integers(1, 7))


def reference_buckets(tuples, k):
    """Buckets of the listed tuples: key tup[1::2], masks of tup[::2]."""
    buckets = {}
    for tup in tuples:
        masks = buckets.setdefault(tup[1::2], [0] * ((k + 1) // 2))
        for pos, v in enumerate(tup[::2]):
            masks[pos] |= 1 << v
    return buckets


def reference_b(masks, a):
    """A bucket's b: the (a + 1)-th largest of its even-position set sizes."""
    return sorted((m.bit_count() for m in masks), reverse=True)[a]


class TestCliqueTupleBucketsDifferential:
    """The kernel holds exactly the lexicographically first cap clique tuples."""

    @settings(max_examples=300, deadline=None)
    @given(hosts_and_k(), st.integers(1, 2000))
    def test_matches_first_cap_listed_tuples(self, host_k, random_cap):
        host, k = host_k
        listed = brute_force_clique_tuples(host, k)
        total = len(listed)
        caps = {1, total, total - 1, total + 1, random_cap}
        for cap in sorted(c for c in caps if c >= 1):
            got_total, truncated, buckets = kernels.clique_tuple_buckets(
                host.n, list(host.adj), k, cap
            )
            assert got_total == min(total, cap), cap
            assert truncated == (total > cap), cap
            assert buckets == reference_buckets(listed[:cap], k), cap


class TestCliqueTupleBucketsLargerHosts:
    """Hosts of 16 to 20 vertices, where a prefix's block of tuples is large
    enough to straddle a cap near the total."""

    @pytest.mark.parametrize("n, p", ((20, 0.5), (18, 0.8), (16, 1.0)))
    def test_matches_brute_force_around_the_total(self, n, p):
        for k in (3, 5, 7):
            host = random_ordered_graph(n, p, 9100 + 10 * n + k)
            listed = brute_force_clique_tuples(host, k)
            total = len(listed)
            for cap in (total - 1, total, total + 1):
                if cap < 1:
                    continue
                got = kernels.clique_tuple_buckets(host.n, list(host.adj), k, cap)
                assert got == (
                    min(total, cap), total > cap, reference_buckets(listed[:cap], k)
                ), (host.n, k, cap)


def listed_from_cliques(cliques, k):
    """Every increasing k-tuple of every clique, listed one by one, repeats kept."""
    return [tup for clique in cliques for tup in combinations(sorted(clique), k)]


@st.composite
def clique_families(draw):
    """Overlapping vertex sets on a few vertices, some of size exactly k."""
    k = draw(st.sampled_from((1, 3, 5, 9)))
    n = draw(st.integers(k, 14))
    vertex = st.integers(1, n)
    clique = st.one_of(
        st.frozensets(vertex, min_size=k, max_size=k), st.frozensets(vertex, max_size=n)
    )
    family = draw(st.lists(clique, max_size=5))
    return [tuple(sorted(c)) for c in family], k


class TestIndexFromCliques:
    @settings(max_examples=300, deadline=None)
    @given(clique_families())
    def test_matches_listed_tuples(self, family):
        cliques, k = family
        buckets = reference_buckets(listed_from_cliques(cliques, k), k)
        assert _index_from_cliques(cliques, k, DEFAULT_TUPLE_CAP) == (False, buckets)

    @settings(max_examples=150, deadline=None)
    @given(clique_families(), st.integers(0, 50))
    def test_cap_at_listed_total_changes_nothing(self, family, extra):
        # every spine key holds a tuple, so a cap the listed tuples fit under
        # never bites
        cliques, k = family
        listed = listed_from_cliques(cliques, k)
        buckets = reference_buckets(listed, k)
        assert _index_from_cliques(cliques, k, max(len(listed), 1) + extra) == (False, buckets)

    @settings(max_examples=150, deadline=None)
    @given(clique_families(), st.integers(1, 6))
    def test_small_cap_truncates_to_a_sub_index(self, family, cap):
        cliques, k = family
        buckets = reference_buckets(listed_from_cliques(cliques, k), k)
        truncated, sub = _index_from_cliques(cliques, k, cap)
        if len(buckets) > cap:
            assert truncated
        if not truncated:
            assert sub == buckets
        for key, masks in sub.items():
            assert all(m & ~full == 0 for m, full in zip(masks, buckets[key]))

    def test_tiny_cap_marks_truncated(self):
        # the first spine key of K_12 at k = 5 is (2, 4), with gaps {1}, {3}
        # and {5, ..., 12}
        assert _index_from_cliques([tuple(range(1, 13))], 5, 1) == (
            True, {(2, 4): [1 << 1, 1 << 3, mask_of(range(5, 13))]}
        )

    def test_short_cliques_hold_nothing(self):
        assert _index_from_cliques([(1, 2, 3, 4)], 5, 1) == (False, {})


class TestExpandCliqueTuples:
    def test_budget_zero_or_negative_lists_nothing(self):
        assert expand_clique_tuples((1, 2, 3), 2, 0) == []
        assert expand_clique_tuples((1, 2, 3), 2, -4) == []

    def test_budget_above_the_count_lists_every_tuple(self):
        clique = (7, 2, 5, 9, 4)
        assert expand_clique_tuples(clique, 3, math.comb(5, 3) + 1) == list(
            combinations(sorted(clique), 3)
        )

    def test_budget_keeps_the_first_tuples_in_order(self):
        assert expand_clique_tuples(range(1, 6), 2, 3) == [(1, 2), (1, 3), (1, 4)]

    def test_clique_shorter_than_k_lists_nothing(self):
        assert expand_clique_tuples((1, 2), 3, 10) == []


def check_largest_b(index_buckets, tuples, a, b_required):
    """_skeleton_from_index against the buckets of the listed tuples: the
    least key with the largest b, its a + 1 largest sets (ties leftmost) as
    blocks, at least the fullest bucket's b, and None exactly when no bucket
    reaches max(1, b_required).  Returns the skeleton."""
    buckets = reference_buckets(tuples, 4 * a + 1)
    bs = {key: reference_b(masks, a) for key, masks in buckets.items()}
    skel = _skeleton_from_index(index_buckets, a, b_required)
    assert (skel is None) == all(b < max(1, b_required) for b in bs.values())
    if skel is None:
        return None
    best = max(bs.values())
    key = min(key for key, b in bs.items() if b == best)
    sizes = [m.bit_count() for m in buckets[key]]
    positions = sorted(sorted(range(len(sizes)), key=lambda p: (-sizes[p], p))[: a + 1])
    blocks = tuple(tuple(bits_of(buckets[key][p])) for p in positions)
    assert skel == Skeleton(tuple(key[p] for p in positions[:a]), blocks, a, best)
    populations = Counter(tup[1::2] for tup in tuples)
    fullest = min(populations, key=lambda key: (-populations[key], key))
    assert skel.b >= bs[fullest]
    return skel


class TestLargestBSelection:
    """The chosen bucket is the one with the largest b, from listed tuples."""

    @settings(max_examples=200, deadline=None)
    @given(clique_families(), st.fractions(0, 6))
    def test_clique_families(self, family, b_required):
        cliques, k = family
        assume(k in (5, 9))
        tuples = list(dict.fromkeys(listed_from_cliques(cliques, k)))
        _, index_buckets = _index_from_cliques(cliques, k, DEFAULT_TUPLE_CAP)
        check_largest_b(index_buckets, tuples, k // 4, b_required)

    @settings(max_examples=200, deadline=None)
    @given(
        hosts_and_k(), st.sampled_from((1, 2)), st.integers(1, 2000), st.fractions(0, 4)
    )
    def test_random_hosts(self, host_k, a, cap, b_required):
        # a truncated index holds the first cap listed tuples
        host, _ = host_k
        listed = brute_force_clique_tuples(host, 4 * a + 1)
        _, index_buckets = build_clique_tuple_index(host, 4 * a + 1, cap)
        skel = check_largest_b(index_buckets, listed[:cap], a, b_required)
        if skel is not None:
            assert verify_skeleton(host, skel) == (True, None)


class TestSkeletonFromHarvest:
    RED5 = [tuple(range(1, 6))]  # a = 1 on a 5-clique: blocks of one vertex
    BLUE20 = [tuple(range(1, 21))]

    def test_majority_color_first_ties_to_red(self):
        spine = {Color.RED: 1, Color.BLUE: 1}
        tie = {Color.RED: self.RED5, Color.BLUE: self.BLUE20}
        assert skeleton_from_harvest(tie, spine, 1, DEFAULT_TUPLE_CAP)[0] is Color.RED
        more_blue = {Color.RED: self.RED5, Color.BLUE: self.BLUE20 + [tuple(range(2, 7))]}
        assert skeleton_from_harvest(more_blue, spine, 1, DEFAULT_TUPLE_CAP)[0] is Color.BLUE

    def test_falls_back_when_the_first_color_misses_b(self):
        harvest = {Color.RED: self.RED5 + [tuple(range(2, 7))], Color.BLUE: self.BLUE20}
        spine = {Color.RED: 1, Color.BLUE: 2}
        color, skel, truncated = skeleton_from_harvest(harvest, spine, 2, DEFAULT_TUPLE_CAP)
        assert color is Color.BLUE and not truncated
        assert skel.a == 2 and skel.b >= 2
        assert verify_skeleton(complete_graph(20), skel) == (True, None)

    def test_none_when_neither_color_yields_one(self):
        spine = {Color.RED: 1, Color.BLUE: 1}
        harvest = {Color.RED: self.RED5, Color.BLUE: self.BLUE20}
        assert skeleton_from_harvest(harvest, spine, 100, DEFAULT_TUPLE_CAP) == (None, None, False)
        # BLUE20 has C(17, 2) = 136 spine keys at a = 1; RED5 has one
        assert skeleton_from_harvest(harvest, spine, 100, 136) == (None, None, False)
        assert skeleton_from_harvest(harvest, spine, 100, 135) == (None, None, True)
        empty = {Color.RED: [], Color.BLUE: []}
        assert skeleton_from_harvest(empty, spine, 1, 1) == (None, None, False)


class TestFindSkeletonFromCliques:
    def test_complete_host_meets_lemma_bound(self):
        for n_param, a in ((5, 1), (9, 2)):
            big_n = 40
            skel = find_skeleton_from_cliques(complete_graph(big_n), n_param, a)
            assert skel is not None
            assert skel.b >= big_n / n_param ** 5
            assert verify_skeleton(complete_graph(big_n), skel)[0]

    def test_empty_host_returns_none(self):
        assert find_skeleton_from_cliques(OrderedGraph(20), 5, 1) is None

    def test_n_too_small_rejected(self):
        with pytest.raises(ParameterError):
            find_skeleton_from_cliques(complete_graph(10), 4, 1)

    def test_planted_clique_found_and_verified(self):
        # sparse noise plus a planted clique on a contiguous window
        rng = random.Random(42)
        noise = [
            (i, j)
            for i, j in combinations(range(1, 21), 2)
            if rng.random() < 0.08 and not (8 <= i <= 14 and 8 <= j <= 14)
        ]
        planted = list(combinations(range(8, 15), 2))
        host = OrderedGraph(20, sorted(set(noise + planted)))
        skel = find_skeleton_from_cliques(host, 5, 1)
        assert skel is not None
        assert verify_skeleton(host, skel)[0]
        assert tuple_total(host, 5) == len(brute_force_clique_tuples(host, 5))

    def test_k9_takes_the_largest_b(self):
        # the key (2, 6) has gaps {1}, {3, 4, 5} and {7, 8, 9}; the most
        # populated key, (3, 6), gives b = 2 only
        skel = find_skeleton_from_cliques(complete_graph(9), 5, 1)
        assert skel == Skeleton((6,), ((3, 4, 5), (7, 8, 9)), 1, 3)

    def test_returned_b_matches_min_block(self):
        skel = find_skeleton_from_cliques(complete_graph(25), 5, 1)
        assert skel.b == min(len(blk) for blk in skel.blocks)


def reference_es_chains(adj, theta: Fraction):
    """The two-chain greedy one vertex at a time, with a Fraction per test."""
    alive = mask_of(range(1, len(adj)))
    clique: list[int] = []
    indep: list[int] = []
    while alive:
        size = alive.bit_count()
        if size == 1:
            v = alive.bit_length() - 1
            indep.append(v)
            break
        degs = [((adj[v] & alive).bit_count(), v) for v in bits_of(alive)]
        dmin, vmin = min(degs)
        if Fraction(dmin) <= theta * (size - 1):
            indep.append(vmin)
            alive &= ~(1 << vmin)
            alive &= ~adj[vmin]
        else:
            dmax, vmax = max(degs, key=lambda dv: (dv[0], -dv[1]))
            clique.append(vmax)
            alive &= adj[vmax]
    return clique, indep


def cycle(n: int) -> OrderedGraph:
    return OrderedGraph(n, [(i, i % n + 1) if i < n else (1, n) for i in range(1, n + 1)])


@st.composite
def es_inputs(draw):
    """A random graph on up to 30 vertices and a theta in (0, 1/2)."""
    n = draw(st.integers(0, 30))
    p = draw(st.sampled_from((0.0, 0.1, 0.3, 0.5, 0.7, 1.0)))
    g = random_ordered_graph(n, p, draw(st.integers(0, 1 << 16)))
    den = draw(st.integers(3, 40))
    return g.adj, Fraction(draw(st.integers(1, (den - 1) // 2)), den)


class TestEsChains:
    @settings(max_examples=300, deadline=None)
    @given(es_inputs())
    def test_matches_the_per_vertex_greedy(self, drawn):
        adj, theta = drawn
        assert _es_chains(adj, theta) == reference_es_chains(adj, theta)

    @pytest.mark.parametrize("n", [6, 9, 13, 21])
    def test_minimum_degree_at_the_threshold_grows_the_independent_set(self, n):
        # every vertex of a cycle has degree 2, so theta = 2 / (n - 1) puts
        # the first minimum degree exactly on theta * (|S| - 1), a tie of
        # every vertex broken to vertex 1
        adj, theta = cycle(n).adj, Fraction(2, n - 1)
        chains = _es_chains(adj, theta)
        assert chains == reference_es_chains(adj, theta)
        assert chains[1][0] == 1
        assert _es_chains(adj, theta - Fraction(1, 10**6))[0][0] == 1

    @pytest.mark.parametrize("parts", [(3, 3), (2, 4, 4), (5, 1, 5)])
    def test_degree_ties_in_multipartite_graphs(self, parts):
        # complete multipartite: ties at the maximum degree go to the least vertex
        side = [p for p, size in enumerate(parts) for _ in range(size)]
        n = len(side)
        g = OrderedGraph(n, [(i, j) for i, j in combinations(range(1, n + 1), 2)
                             if side[i - 1] != side[j - 1]])
        for theta in (Fraction(1, 100), Fraction(1, 4), Fraction(49, 100)):
            assert _es_chains(g.adj, theta) == reference_es_chains(g.adj, theta)


class TestEsCliqueOrIndependent:
    def test_empty_graph_full_independent_set(self):
        kind, members = es_clique_or_independent(OrderedGraph(10), Fraction(1, 10))
        assert kind == "independent"
        assert members == tuple(range(1, 11))

    def test_one_edge_bound_floor(self):
        g = OrderedGraph(10, [(1, 2)])
        kind, members = es_clique_or_independent(g, Fraction(1, 10))
        assert len(members) >= 1
        assert len(members) >= es_bound(10, 0.1) - 1e-9

    def test_density_above_eps_rejected(self):
        with pytest.raises(ParameterError):
            es_clique_or_independent(complete_graph(8), Fraction(1, 10))

    def test_seeded_sparse_graphs_meet_bound(self):
        rng = random.Random(5)
        done = 0
        trial = 0
        while done < 40:
            trial += 1
            n = rng.randint(50, 200)
            g = random_ordered_graph(n, 0.04, 9000 + trial)
            from ordramsey.core import density_within

            if density_within(g, range(1, n + 1)) > Fraction(1, 10):
                continue
            kind, members = es_clique_or_independent(g, Fraction(1, 10))
            want = kind == "clique"
            for x, y in combinations(members, 2):
                assert g.has_edge(x, y) == want
            assert len(members) >= es_bound(n, 0.1) - 1e-9
            done += 1


class TestSampleColorCliques:
    def test_deterministic(self):
        col = ColoredCompleteGraph.from_random(30, 3, red_probability=0.2)
        need = {Color.RED: 3, Color.BLUE: 3}
        a = sample_color_cliques(col, need, window=10, samples=32, seed=7)
        b = sample_color_cliques(col, need, window=10, samples=32, seed=7)
        assert a == b

    def test_full_window_runs_once(self):
        # a window of all N vertices draws nothing from the rng, so every
        # sample repeats the first
        col = ColoredCompleteGraph.from_random(30, 5, red_probability=0.4)
        need = {Color.RED: 3, Color.BLUE: 3}
        for window in (30, 45):
            once = sample_color_cliques(col, need, window=window, samples=1, seed=3)
            many = sample_color_cliques(col, need, window=window, samples=64, seed=3)
            assert many == once
            assert once[Color.RED] or once[Color.BLUE]

    @pytest.mark.parametrize("n, seed", [(0, 0), (1, 0), (2, 1), (9, 2), (30, 3)])
    def test_full_window_needs_no_copy(self, n, seed):
        # a full window harvests the coloring itself with the identity map,
        # which is what inducing it on every vertex returns
        col = ColoredCompleteGraph.from_random(n, seed, red_probability=0.4)
        assert col.induced(range(1, n + 1)) == (col, tuple(range(n + 1)))

    def test_harvested_cliques_are_monochromatic(self):
        col = ColoredCompleteGraph.from_random(30, 11, red_probability=0.3)
        need = {Color.RED: 3, Color.BLUE: 4}
        found = sample_color_cliques(col, need, window=12, samples=48, seed=0)
        for color, cliques in found.items():
            for clique in cliques:
                assert len(clique) >= need[color]
                for x, y in combinations(clique, 2):
                    assert col.color_of(x, y) is color


def count_windows(monkeypatch):
    """Record the size of every window sample_color_cliques induces."""
    windows = []
    induced = ColoredCompleteGraph.induced

    def spy(self, members):
        sub, back = induced(self, members)
        windows.append(sub.N)
        return sub, back

    monkeypatch.setattr(ColoredCompleteGraph, "induced", spy)
    return windows


class TestFindSkeletonInDense:
    def test_all_blue_coloring(self):
        col = ColoredCompleteGraph.from_function(40, lambda i, j: False)
        res = find_skeleton_in_dense(col, Color.RED, 1, Fraction(10), seed=0)
        assert res.found
        assert res.color is Color.BLUE
        blue = OrderedGraph(40, [e for e in combinations(range(1, 41), 2)])
        assert verify_skeleton(blue, res.skeleton)[0]

    def test_no_clique_of_the_spine_size(self):
        # a = 1 needs 5-cliques, and K_4 holds none: no skeleton, target b = N
        res = find_skeleton_in_dense(all_blue(4), Color.RED, 1, Fraction(10))
        assert (res.found, res.met_target, res.target_b) == (False, False, 4.0)

    def test_blue_multipartite(self):
        # Blue complete 3-partite with parts of 20; Red is the sparse union
        # of the three cliques
        def is_red(i, j):
            return (i - 1) // 20 == (j - 1) // 20

        col = ColoredCompleteGraph.from_function(60, is_red)
        res = find_skeleton_in_dense(col, Color.RED, 1, Fraction(10), seed=1)
        assert res.found
        from ordramsey.core import color_class

        host = color_class(col, res.color)
        assert verify_skeleton(host, res.skeleton)[0]

    @pytest.mark.parametrize("big_n, a", [(80, 1), (40, 2)])
    def test_all_blue_without_listing_tuples(self, big_n, a):
        # the whole coloring is one blue clique holding C(N, 4a + 1) tuples
        # (24M and 274M here); only its spine keys may be held in memory
        col = ColoredCompleteGraph.from_function(big_n, lambda i, j: False)
        tracemalloc.start()
        try:
            res = find_skeleton_in_dense(col, Color.RED, a, Fraction(10), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.found and res.color is Color.BLUE
        assert verify_skeleton(color_class(col, Color.BLUE), res.skeleton)[0]
        assert peak < 100 * 2**20

    def test_samples_used_counts_windows_processed(self, monkeypatch):
        windows = count_windows(monkeypatch)
        col = ColoredCompleteGraph.from_function(30, lambda i, j: False)
        res = find_skeleton_in_dense(col, Color.RED, 1, Fraction(10))
        assert res.found and len(windows) == 1

    def test_lemma_window_below_one_half_is_all_n(self, monkeypatch):
        # c < 1/2 and a >= 10/c put the lemma's window exp(1000 a c ln(1/c))
        # far above N, so the whole coloring is the one window
        windows = count_windows(monkeypatch)
        col = ColoredCompleteGraph.from_function(86, lambda i, j: False)
        res = find_skeleton_in_dense(col, Color.RED, 21, Fraction(10, 21))
        assert windows == [86]
        assert res.found and res.color is Color.BLUE and res.skeleton.a == 21

    def test_lemma_window_near_one_is_sampled(self, monkeypatch):
        # at c = 99999/100000 the window formula gives 2, raised to the
        # clique size 4a + 1 = 45 < N, so DEFAULT_SAMPLES windows are drawn
        windows = count_windows(monkeypatch)
        col = ColoredCompleteGraph.from_function(60, lambda i, j: True)
        res = find_skeleton_in_dense(col, Color.BLUE, 11, Fraction(99999, 100000), seed=4)
        assert windows == [45] * DEFAULT_SAMPLES and DEFAULT_SAMPLES == 64
        assert res.found and res.color is Color.RED
        assert verify_skeleton(color_class(col, Color.RED), res.skeleton)[0]

    def test_spine_gate(self):
        # a below 10/c is a parameter violation
        col = ColoredCompleteGraph.from_function(30, lambda i, j: False)
        with pytest.raises(ParameterError):
            find_skeleton_in_dense(col, Color.RED, 1, Fraction(1, 2))

    def test_reports_target(self):
        col = ColoredCompleteGraph.from_function(50, lambda i, j: False)
        res = find_skeleton_in_dense(col, Color.RED, 1, Fraction(10), seed=2)
        assert res.target_b > 0
        assert isinstance(res.met_target, bool)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: find_skeleton_from_cliques(complete_graph(9), 5, 0), "a must be positive"),
        (
            lambda: find_skeleton_from_cliques(complete_graph(9), 5, 1, 0),
            "density parameter d=0 must lie in (0, 1]",
        ),
        (
            lambda: find_skeleton_from_cliques(complete_graph(9), 5, 1, 2),
            "density parameter d=2 must lie in (0, 1]",
        ),
        (
            lambda: es_clique_or_independent(OrderedGraph(4), Fraction(1, 2)),
            "eps=1/2 must lie in (0, 1/2)",
        ),
        (
            lambda: es_clique_or_independent(complete_graph(4), Fraction(1, 4)),
            "graph density 1 exceeds eps=1/4",
        ),
        (
            lambda: find_skeleton_in_dense(all_red(5), Color.RED, 100, Fraction(0)),
            "c=0 must be positive",
        ),
        (
            lambda: find_skeleton_in_dense(all_red(5), Color.RED, 0, Fraction(1, 10)),
            "a must be positive",
        ),
        (
            lambda: find_skeleton_in_dense(all_red(5), Color.RED, 100, Fraction(1, 10)),
            "red class density 1 exceeds c=1/10",
        ),
    ],
    ids=[
        "from-cliques-a-0", "from-cliques-d-0", "from-cliques-d-2", "es-eps-half",
        "es-denser-than-eps", "dense-c-0", "dense-a-0", "dense-class-denser-than-c",
    ],
)
def test_input_checks(call, message):
    assert outcome(call) == (ParameterError, message)
