"""Order-preserving embedding: exact search and both greedy dichotomies."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from ordramsey.core import OrderedGraph
from ordramsey.embed import (
    Embedding,
    SlotSystem,
    SparsePair,
    find_ordered_embedding,
    greedy_embed_or_sparse_pair,
    skeleton_embed_or_sparse_pair,
    verify_embedding,
)
from ordramsey.errors import DomainError, ParameterError
from ordramsey.skeleton import Skeleton
from ordramsey.core import density_between

from conftest import (
    brute_force_embeddings,
    complete_graph,
    random_ordered_graph,
    random_pattern_max_degree,
)


class TestFindOrderedEmbedding:
    def test_monotone_path_in_triangle(self):
        pattern = OrderedGraph(3, [(1, 2), (2, 3)])
        emb = find_ordered_embedding(complete_graph(3), pattern)
        assert emb is not None
        assert emb.mapping == (1, 2, 3)

    def test_edge_shifted(self):
        host = OrderedGraph(3, [(2, 3)])
        emb = find_ordered_embedding(host, OrderedGraph(2, [(1, 2)]))
        assert emb.mapping == (2, 3)

    def test_no_vertex_with_two_smaller_neighbors(self):
        pattern = OrderedGraph(3, [(1, 3), (2, 3)])
        host = OrderedGraph(4, [(1, 2), (1, 3), (1, 4)])
        assert find_ordered_embedding(host, pattern) is None

    def test_pattern_larger_than_host(self):
        assert find_ordered_embedding(complete_graph(3), complete_graph(4)) is None

    def test_agrees_with_brute_force(self):
        # includes empty patterns and hosts, and patterns larger than their host
        rng = random.Random(17)
        edge_cases = set()
        for trial in range(400):
            hn = rng.randint(0, 10)
            pn = rng.randint(0, min(6, hn + 1))
            edge_cases |= {name for name, hit in (
                ("empty host", hn == 0), ("empty pattern", pn == 0), ("pattern above host", pn > hn)
            ) if hit}
            host = random_ordered_graph(hn, rng.uniform(0.2, 0.9), 1000 + trial)
            pattern = random_ordered_graph(pn, rng.uniform(0.2, 0.9), 2000 + trial)
            expected = brute_force_embeddings(host, pattern)
            got = find_ordered_embedding(host, pattern)
            if expected:
                assert got is not None
                assert got.mapping == min(expected)
            else:
                assert got is None
        assert edge_cases == {"empty host", "empty pattern", "pattern above host"}


class TestSlotSystem:
    def test_rejects_overlap(self):
        with pytest.raises(DomainError):
            SlotSystem([[1, 2], [2, 3]], host_n=4)

    def test_rejects_non_increasing_blocks(self):
        with pytest.raises(DomainError):
            SlotSystem([[3, 4], [1, 2]], host_n=4)

    def test_rejects_empty_slot(self):
        with pytest.raises(DomainError):
            SlotSystem([[1], []], host_n=3)


def contiguous_slots(n_host: int, parts: int):
    size = n_host // parts
    return SlotSystem(
        [range(i * size + 1, (i + 1) * size + 1) for i in range(parts)],
        host_n=n_host,
    ), size


class TestGreedyDichotomy:
    def test_complete_host_embeds(self):
        host = complete_graph(12)
        pattern = OrderedGraph(3, [(1, 2), (2, 3)])
        slots, low = contiguous_slots(12, 3)
        out = greedy_embed_or_sparse_pair(host, pattern, slots, Fraction(1, 2))
        assert isinstance(out, Embedding)
        ok, why = verify_embedding(host, pattern, out, slots)
        assert ok, why

    def test_empty_host_gives_half_size_pair(self):
        host = OrderedGraph(16)
        pattern = OrderedGraph(2, [(1, 2)])
        slots, low = contiguous_slots(16, 2)
        out = greedy_embed_or_sparse_pair(host, pattern, slots, Fraction(1, 2))
        assert isinstance(out, SparsePair)
        assert out.density == 0
        # Delta = 1: |A|, |B| >= (c/1) * N = 4
        assert len(out.lower) >= 4 and len(out.upper) >= 4
        assert max(out.lower) < min(out.upper)

    def test_rejects_degenerate_c(self):
        host = complete_graph(4)
        pattern = OrderedGraph(2, [(1, 2)])
        slots, low = contiguous_slots(4, 2)
        for bad in (Fraction(0), Fraction(1)):
            with pytest.raises(ParameterError):
                greedy_embed_or_sparse_pair(host, pattern, slots, bad)

    def test_slot_count_mismatch(self):
        host = complete_graph(6)
        pattern = OrderedGraph(3, [(1, 2)])
        slots, low = contiguous_slots(6, 2)
        with pytest.raises(DomainError):
            greedy_embed_or_sparse_pair(host, pattern, slots, Fraction(1, 3))

    def test_seeded_suite_both_branches_verify(self):
        rng = random.Random(99)
        seen = {Embedding: 0, SparsePair: 0}
        for trial in range(300):
            parts = rng.randint(2, 4)
            size = rng.randint(4, 15)
            n_host = parts * size
            host = random_ordered_graph(n_host, rng.uniform(0.05, 0.9), 5000 + trial)
            pattern = random_pattern_max_degree(parts, 3, 6000 + trial)
            slots, low = contiguous_slots(n_host, parts)
            c = Fraction(rng.choice([2, 3, 5]), 10)
            out = greedy_embed_or_sparse_pair(host, pattern, slots, c)
            if isinstance(out, Embedding):
                ok, why = verify_embedding(host, pattern, out, slots)
                assert ok, why
            else:
                delta = pattern.max_degree()
                floor = float(c) ** delta / delta * low
                assert len(out.lower) >= floor and len(out.upper) >= floor
                assert max(out.lower) < min(out.upper)
                assert density_between(host, out.lower, out.upper) <= c
                assert out.density == density_between(host, out.lower, out.upper)
            seen[type(out)] += 1
        assert seen[Embedding] > 0 and seen[SparsePair] > 0


def planted_skeleton_host():
    """Host with an (a=2, b=512) skeleton whose last block hides an empty
    bipartite zone between its two halves."""
    b = 512
    spine1 = b + 1
    spine2 = 2 * b + 2
    v0 = range(1, b + 1)
    v1 = range(spine1 + 1, spine1 + 1 + b)
    v2 = range(spine2 + 1, spine2 + 1 + b)
    n = 3 * b + 2
    edges = [(spine1, spine2)]
    for blk in (v0, v1, v2):
        for w in blk:
            edges.append((min(spine1, w), max(spine1, w)))
            edges.append((min(spine2, w), max(spine2, w)))
    host = OrderedGraph(n, edges)
    skel = Skeleton((spine1, spine2), (tuple(v0), tuple(v1), tuple(v2)), 2, b)
    return host, skel


class TestSkeletonEmbed:
    def test_invalid_skeleton_is_a_domain_error(self):
        # spine vertex 2 has no edge to block vertex 1 in the empty host
        skel = Skeleton((2,), ((1,), (3,)), 1, 1)
        with pytest.raises(DomainError) as err:
            skeleton_embed_or_sparse_pair(OrderedGraph(3), skel, complete_graph(2), Fraction(1, 80))
        assert str(err.value) == "invalid skeleton: condition (c) fails at (2, 1)"

    def test_single_edge_pattern(self):
        host = complete_graph(7)
        skel = Skeleton((4,), ((1, 2, 3), (5, 6, 7)), 1, 3)
        pattern = OrderedGraph(2, [(1, 2)])
        out = skeleton_embed_or_sparse_pair(host, skel, pattern, Fraction(1, 2))
        assert isinstance(out, Embedding)
        assert verify_embedding(host, pattern, out)[0]

    @pytest.mark.parametrize("a", [2, 3])
    def test_short_pattern_lies_on_the_spine(self, a):
        # n <= a: the spine takes every pattern vertex and no block is used
        host = complete_graph(4 * a + 3)
        spine = tuple(range(4, 4 * a + 1, 4))
        blocks = tuple(tuple(range(j - 3, j)) for j in (*spine, 4 * a + 4))
        skel = Skeleton(spine, blocks, a, 3)
        pattern = OrderedGraph(2, [(1, 2)])
        out = skeleton_embed_or_sparse_pair(host, skel, pattern, Fraction(1, 2))
        assert out == Embedding(skel.spine[:2])

    def test_complete_host_embeds(self):
        host = complete_graph(11)
        skel = Skeleton((4, 8), ((1, 2, 3), (5, 6, 7), (9, 10, 11)), 2, 3)
        pattern = OrderedGraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        out = skeleton_embed_or_sparse_pair(host, skel, pattern, Fraction(1, 2))
        assert isinstance(out, Embedding)
        assert verify_embedding(host, pattern, out)[0]

    def test_planted_zone_yields_sparse_pair(self):
        host, skel = planted_skeleton_host()
        # all degrees 2, so the spine takes vertices 1 and 2; the rest edge
        # (3,4) must land inside the last block, across the empty zone
        pattern = OrderedGraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        c = Fraction(1, 2)
        out = skeleton_embed_or_sparse_pair(host, skel, pattern, c)
        assert isinstance(out, SparsePair)
        assert out.density == 0
        m = pattern.m
        floor = float(c) ** (2 * m / skel.a) * skel.b / (2 * m * m)
        assert len(out.lower) >= floor
        assert len(out.upper) >= floor
        assert max(out.lower) < min(out.upper)
        assert density_between(host, out.lower, out.upper) == 0

    def test_isolated_pattern_vertex_rejected(self):
        host, skel = planted_skeleton_host()
        pattern = OrderedGraph(3, [(1, 2)])
        with pytest.raises(ParameterError, match="^pattern has isolated vertices; strip them"):
            skeleton_embed_or_sparse_pair(host, skel, pattern, Fraction(1, 2))

    @pytest.mark.parametrize("c", [0, 1])
    @pytest.mark.parametrize("n", [2, 4])
    def test_degenerate_c_is_refused_by_the_greedy_dichotomy(self, c, n):
        # the greedy dichotomy checks c even when the whole pattern fits on the spine
        host = complete_graph(11)
        skel = Skeleton((4, 8), ((1, 2, 3), (5, 6, 7), (9, 10, 11)), 2, 3)
        pattern = OrderedGraph(n, [(t, t + 1) for t in range(1, n)])
        with pytest.raises(ParameterError, match=f"^c={c} must lie strictly between 0 and 1$"):
            skeleton_embed_or_sparse_pair(host, skel, pattern, Fraction(c))


class TestVerifyEmbedding:
    def test_accepts_valid(self):
        host = complete_graph(5)
        pattern = OrderedGraph(3, [(1, 3)])
        ok, why = verify_embedding(host, pattern, Embedding((1, 2, 4)))
        assert ok and why is None

    def test_rejects_wrong_length(self):
        ok, why = verify_embedding(complete_graph(4), OrderedGraph(2, [(1, 2)]), (1,))
        assert not ok

    def test_rejects_non_increasing(self):
        ok, why = verify_embedding(
            complete_graph(4), OrderedGraph(2, [(1, 2)]), Embedding((3, 3))
        )
        assert not ok

    def test_rejects_missing_edge(self):
        host = OrderedGraph(3, [(1, 2)])
        ok, why = verify_embedding(host, OrderedGraph(2, [(1, 2)]), Embedding((2, 3)))
        assert not ok
        assert "2" in why and "3" in why

    def test_rejects_slot_violation(self):
        host = complete_graph(4)
        slots = SlotSystem([[1], [2]], host_n=4)
        ok, why = verify_embedding(
            host, OrderedGraph(2, [(1, 2)]), Embedding((1, 3)), slots
        )
        assert not ok
