"""Subdivided stars, avoiding tournaments, blowups, and the budgeted copy search."""

import hashlib
import math
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from ordramsey import kernels
from ordramsey.kernels import cyclic_triangle_packing
from ordramsey.constructions import (
    BASE_CUTOFF,
    blowup,
    build_subdivision_S,
    contains_subdivision,
    find_transitive_subtournament,
    iterated_lower_bound_tournament,
    lower_bound_parameters,
    random_tournament_avoiding,
    verify_bucket_claims,
    verify_subdivision_copy,
)
from ordramsey.core import Tournament, degeneracy
from ordramsey.errors import DomainError, GenerationError, ParameterError
from ordramsey.io import write_trn


def transitive_tournament(n):
    return Tournament.from_arcs(n, [(i, j) for i, j in combinations(range(1, n + 1), 2)])


def brute_force_transitive(T, k):
    """Least dominance-ordered k-tuple, or None."""
    best = None
    for tup in permutations(range(1, T.N + 1), k):
        if all(T.has_arc(tup[a], tup[b]) for a in range(k) for b in range(a + 1, k)):
            if best is None or tup < best:
                best = tup
    return best


def brute_force_subdivision(T, n):
    S = build_subdivision_S(n)
    arcs = sorted(S.digraph.arcs)
    for tup in permutations(range(1, T.N + 1), S.digraph.n):
        if all(T.has_arc(tup[u - 1], tup[v - 1]) for u, v in arcs):
            return tup
    return None


class TestBuildSubdivision:
    def test_smallest_star(self):
        s = build_subdivision_S(3)
        assert s.digraph.n == 4
        assert len(s.digraph.arcs) == 3
        assert s.base == (1, 2, 3)
        assert s.triple_index == {(1, 2, 3): 4}
        assert set(s.digraph.arcs) == {(1, 4), (4, 2), (4, 3)}

    def test_four_base_vertices(self):
        s = build_subdivision_S(4)
        assert s.digraph.n == 8
        assert len(s.digraph.arcs) == 12

    @pytest.mark.parametrize("n", range(3, 13))
    def test_counts_and_shape(self, n):
        s = build_subdivision_S(n)
        triples = math.comb(n, 3)
        assert s.digraph.n == n + triples
        assert len(s.digraph.arcs) == 3 * triples
        # triple vertices follow the base in lexicographic triple order
        assert sorted(s.triple_index.values()) == list(range(n + 1, n + triples + 1))
        assert list(s.triple_index) == sorted(s.triple_index)
        # every middle vertex has in-degree 1 and out-degree 2
        indeg = {}
        outdeg = {}
        for u, v in s.digraph.arcs:
            outdeg[u] = outdeg.get(u, 0) + 1
            indeg[v] = indeg.get(v, 0) + 1
        for t in s.triple_index.values():
            assert indeg[t] == 1 and outdeg[t] == 2
        assert len(s.digraph.topological_order()) == s.digraph.n

    @pytest.mark.parametrize("n", range(4, 13))
    def test_degeneracy_exactly_three(self, n):
        assert degeneracy(build_subdivision_S(n).digraph.underlying_graph()) == 3

    def test_smallest_is_a_tree(self):
        assert degeneracy(build_subdivision_S(3).digraph.underlying_graph()) == 1

    def test_too_small_rejected(self):
        with pytest.raises(ParameterError):
            build_subdivision_S(2)


class TestFindTransitiveSubtournament:
    def test_fully_transitive(self):
        T = transitive_tournament(6)
        assert find_transitive_subtournament(T, 3) == (1, 2, 3)
        assert find_transitive_subtournament(T, 6) == (1, 2, 3, 4, 5, 6)

    def test_three_cycle(self):
        T = Tournament.from_arcs(3, [(1, 2), (2, 3), (3, 1)])
        assert find_transitive_subtournament(T, 3) is None
        assert find_transitive_subtournament(T, 2) == (1, 2)

    def test_single_vertex(self):
        T = transitive_tournament(4)
        assert find_transitive_subtournament(T, 1) == (1,)

    def test_size_gate(self):
        with pytest.raises(ParameterError):
            find_transitive_subtournament(transitive_tournament(3), 0)

    def test_against_brute_force(self):
        for seed in range(40):
            rng = random.Random(3000 + seed)
            T = Tournament.from_random(seed % 5 + 5, rng)
            for k in (2, 3, 4):
                got = find_transitive_subtournament(T, k)
                expected = brute_force_transitive(T, k)
                assert got == expected, (seed, k)


@st.composite
def tournaments(draw):
    """A random tournament on at most 8 vertices, one coin per pair."""
    n = draw(st.integers(0, 8))
    pairs = list(combinations(range(1, n + 1), 2))
    forward = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    arcs = [(i, j) if fwd else (j, i) for (i, j), fwd in zip(pairs, forward)]
    return Tournament.from_arcs(n, arcs)


class TestTransitiveChainDifferential:
    @settings(max_examples=100, deadline=None)
    @given(tournaments())
    def test_first_dominance_ordered_permutation(self, T):
        # the kernel's DFS order is itertools.permutations order; a tournament
        # with no transitive k-set has none larger, so the listing stops there
        expected = []
        for k in range(T.N + 2):
            if expected is not None:
                expected = next(
                    (
                        list(tup)
                        for tup in permutations(range(1, T.N + 1), k)
                        if all(T.has_arc(tup[a], tup[b]) for a in range(k) for b in range(a + 1, k))
                    ),
                    None,
                )
            assert kernels.transitive_chain(T.N, list(T.beats), k) == expected, k


def plain_transitive_chain(N, beats, k):
    """The DFS without the triangle-packing bound: only the candidate count prunes."""
    if k <= 0:
        return []
    chain = [0] * k

    def rec(depth, cands):
        need = k - depth - 1
        for v in range(1, N + 1):
            if not cands >> v & 1:
                continue
            chain[depth] = v
            if not need:
                return True
            nxt = cands & beats[v]
            if bin(nxt).count("1") >= need and rec(depth + 1, nxt):
                return True
        return False

    full = ((1 << (N + 1)) - 1) & ~1
    return chain[:] if rec(0, full) else None


@st.composite
def cyclic_rich_tournaments(draw):
    """Up to 14 vertices: a transitive order with each arc reversed with a drawn chance.

    A low chance gives long chains next to many disjoint cyclic triangles,
    so for k just above the largest chain the packing bound rejects children
    whose candidate count alone would not.
    """
    n = draw(st.integers(0, 14))
    flip = draw(st.sampled_from([0.1, 0.25, 0.5]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    arcs = [(j, i) if rng.random() < flip else (i, j) for i, j in combinations(range(1, n + 1), 2)]
    return Tournament.from_arcs(n, arcs)


class TestTriangleBound:
    @settings(max_examples=150, deadline=None)
    @given(cyclic_rich_tournaments())
    def test_equals_plain_dfs_for_every_k(self, T):
        beats = list(T.beats)
        for k in range(T.N + 2):
            assert kernels.transitive_chain(T.N, beats, k) == plain_transitive_chain(
                T.N, beats, k
            ), k

    def test_bound_rejects_a_child_the_count_keeps(self):
        # vertex 1 beats four disjoint 3-cycles, which beat each other in
        # order; a transitive set keeps at most two vertices of each cycle, so
        # the largest chain has 9 vertices.  For k = 10 the child of vertex 1
        # has 12 candidates for 9 places, which the count alone keeps.
        arcs = [(1, v) for v in range(2, 14)]
        for a in range(2, 14, 3):
            arcs += [(a, a + 1), (a + 1, a + 2), (a + 2, a)]
            arcs += [(u, v) for u in range(a, a + 3) for v in range(a + 3, 14)]
        T = Tournament.from_arcs(13, arcs)
        beats = list(T.beats)
        assert len(cyclic_triangle_packing(beats, beats[1], 4)) == 4
        for k in range(15):
            assert kernels.transitive_chain(13, beats, k) == plain_transitive_chain(
                13, beats, k
            ), k
        assert kernels.transitive_chain(13, beats, 9) == [1, 2, 3, 5, 6, 8, 9, 11, 12]
        assert kernels.transitive_chain(13, beats, 10) is None

    @settings(max_examples=200, deadline=None)
    @given(cyclic_rich_tournaments(), st.integers(0, 2**15 - 1), st.integers(0, 6))
    def test_packing_is_cyclic_disjoint_and_inside_mask(self, T, raw, limit):
        mask = (raw << 1) & (((1 << (T.N + 1)) - 1) & ~1)
        found = cyclic_triangle_packing(list(T.beats), mask, limit)
        assert len(found) <= limit
        used = [v for tri in found for v in tri]
        assert len(used) == len(set(used))
        assert all(mask >> v & 1 for v in used)
        for w, x, y in found:
            assert T.has_arc(w, x) and T.has_arc(x, y) and T.has_arc(y, w)


class TestRandomTournamentAvoiding:
    def test_deterministic(self):
        a = random_tournament_avoiding(10, 7, 0)
        b = random_tournament_avoiding(10, 7, 0)
        assert a.beats == b.beats

    def test_output_reverified(self):
        for seed in range(6):
            T = random_tournament_avoiding(10, 7, seed)
            assert find_transitive_subtournament(T, 7) is None

    def test_impossible_target_exhausts_tries(self):
        # every pair of vertices is a transitive 2-set
        with pytest.raises(GenerationError) as err:
            random_tournament_avoiding(3, 2, 0)
        assert err.value.tries == 64

    def test_custom_try_budget(self):
        with pytest.raises(GenerationError) as err:
            random_tournament_avoiding(3, 2, 0, max_tries=5)
        assert err.value.tries == 5


class TestBlowup:
    def test_single_outer_vertex_copies_inner(self):
        inner = Tournament.from_arcs(3, [(1, 2), (2, 3), (3, 1)])
        B = blowup(transitive_tournament(1), inner)
        assert B.tournament.beats == inner.beats
        assert B.blocks == ((1, 3),)

    def test_cross_arcs_follow_outer(self):
        outer = Tournament.from_arcs(2, [(1, 2)])
        inner = Tournament.from_arcs(3, [(1, 2), (2, 3), (3, 1)])
        B = blowup(outer, inner)
        assert B.tournament.N == 6
        assert B.blocks == ((1, 3), (4, 6))
        for u in range(1, 4):
            for v in range(4, 7):
                assert B.tournament.has_arc(u, v)
        # inner copies in both blocks
        for off in (0, 3):
            assert B.tournament.has_arc(off + 1, off + 2)
            assert B.tournament.has_arc(off + 2, off + 3)
            assert B.tournament.has_arc(off + 3, off + 1)

    def test_block_lookup(self):
        B = blowup(transitive_tournament(3), transitive_tournament(2))
        assert [B.block_of(v) for v in range(1, 7)] == [1, 1, 2, 2, 3, 3]
        with pytest.raises(DomainError):
            B.block_of(7)

    def test_empty_factor_rejected(self):
        with pytest.raises(ParameterError):
            blowup(transitive_tournament(0), transitive_tournament(2))

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 7).flatmap(lambda n: st.builds(Tournament.from_random, st.just(n), st.randoms())),
        st.integers(1, 5).flatmap(lambda n: st.builds(Tournament.from_random, st.just(n), st.randoms())),
    )
    def test_every_pair_matches_the_definition(self, outer, inner):
        B = blowup(outer, inner)
        s = inner.N
        assert B.tournament.N == outer.N * s
        for a in range(1, B.tournament.N + 1):
            for b in range(1, B.tournament.N + 1):
                if a == b:
                    continue
                (la, ua), (lb, ub) = divmod(a - 1, s), divmod(b - 1, s)
                if la == lb:
                    expected = inner.has_arc(ua + 1, ub + 1)
                else:
                    expected = outer.has_arc(la + 1, lb + 1)
                assert B.tournament.has_arc(a, b) == expected, (a, b)


class TestIteratedLowerBound:
    def test_base_below_cutoff(self):
        base = iterated_lower_bound_tournament(3, 0)
        assert base.N == 4
        assert base.beats == iterated_lower_bound_tournament(BASE_CUTOFF, 7).beats

    def test_base_has_no_subdivided_star(self):
        base = iterated_lower_bound_tournament(3, 0)
        res = contains_subdivision(base, 3)
        assert not res.found and not res.exhausted
        assert brute_force_subdivision(base, 3) is None

    def test_first_recursive_level(self):
        T = iterated_lower_bound_tournament(50, 0)
        assert T.N == 20
        again = iterated_lower_bound_tournament(50, 0)
        assert T.beats == again.beats

    @pytest.mark.parametrize(
        "seed,digest",
        [
            (1, "58cc59f18a82727c77a24fb1d6fa10887e731673e54fb95772c082f7ee20d9a0"),
            (2, "102bd45139ae80bf484da0b34172e2a08af566c7745b14e9f2f704d83631c065"),
            (3, "c123fdd319ba02ca59a02760d088fe14e3062341b5a869b492d8cd7fd4e89940"),
        ],
    )
    def test_golden_n1600(self, seed, digest):
        # digests of the per-pair DFS, blowup and writer this code replaced
        text = write_trn(iterated_lower_bound_tournament(1600, seed))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_too_small_rejected(self):
        with pytest.raises(ParameterError):
            iterated_lower_bound_tournament(2, 0)

    def test_parameters(self):
        assert lower_bound_parameters(50) == (5, 16, 3)
        with pytest.raises(ParameterError):
            lower_bound_parameters(20)


class TestContainsSubdivision:
    def test_transitive_host_has_copy(self):
        for N in (4, 5, 6):
            T = transitive_tournament(N)
            res = contains_subdivision(T, 3)
            assert res.found
            ok, why = verify_subdivision_copy(T, 3, res.mapping)
            assert ok, why

    def test_host_too_small(self):
        T = Tournament.from_arcs(3, [(1, 2), (2, 3), (3, 1)])
        res = contains_subdivision(T, 3)
        assert res.mapping is None and res.nodes == 0 and not res.exhausted

    def test_against_brute_force(self):
        for seed in range(20):
            rng = random.Random(4000 + seed)
            T = Tournament.from_random(seed % 4 + 5, rng)
            res = contains_subdivision(T, 3)
            assert not res.exhausted
            expected = brute_force_subdivision(T, 3)
            assert res.found == (expected is not None), seed
            if res.found:
                assert verify_subdivision_copy(T, 3, res.mapping)[0]

    def test_budget_exhaustion_is_reported(self):
        T = iterated_lower_bound_tournament(50, 0)
        res = contains_subdivision(T, 5, budget=50)
        assert res.exhausted and not res.found
        assert res.nodes >= 50

    def test_budget_gate(self):
        with pytest.raises(ParameterError):
            contains_subdivision(transitive_tournament(5), 3, budget=0)


class TestVerifySubdivisionCopy:
    def test_wrong_length(self):
        ok, why = verify_subdivision_copy(transitive_tournament(6), 3, (1, 2, 3))
        assert not ok and "4" in why

    def test_repeated_image(self):
        ok, why = verify_subdivision_copy(transitive_tournament(6), 3, (1, 2, 2, 4))
        assert not ok and "repeats" in why

    def test_out_of_range_image(self):
        ok, why = verify_subdivision_copy(transitive_tournament(4), 3, (1, 2, 3, 9))
        assert not ok

    def test_reversed_arc(self):
        # transitive host: mapping the middle above its source breaks arc (1, t)
        T = transitive_tournament(6)
        ok, why = verify_subdivision_copy(T, 3, (4, 5, 6, 1))
        assert not ok and "reversed" in why


class TestVerifyBucketClaims:
    def test_valid_copy_reports(self):
        B = blowup(transitive_tournament(3), transitive_tournament(4))
        res = contains_subdivision(B.tournament, 3)
        assert res.found
        report = verify_bucket_claims(B, res.mapping, 3)
        assert report.sum_matches
        assert len(report.bucket_sizes) == 3
        assert sum(report.bucket_sizes) == 3
        assert report.multi_buckets == sum(1 for s in report.bucket_sizes if s >= 2)

    def test_invalid_mapping_rejected(self):
        B = blowup(transitive_tournament(3), transitive_tournament(4))
        with pytest.raises(DomainError):
            verify_bucket_claims(B, (1, 1, 1, 1), 3)
