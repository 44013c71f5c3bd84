"""Subdivided stars, avoiding tournaments, blowups, and the budgeted copy search."""

import hashlib
import math
import random
import sys
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from ordramsey import kernels
from ordramsey.certificates import verify_digraph_copy
from ordramsey.constructions import (
    BASE_CUTOFF,
    InjectionResult,
    blowup,
    build_subdivision_S,
    contains_subdivision,
    find_transitive_subtournament,
    iterated_lower_bound_tournament,
    lower_bound_parameters,
    random_tournament_avoiding,
)
from ordramsey.core import Digraph, Tournament, degeneracy
from ordramsey.errors import (
    BudgetExhausted,
    DomainError,
    GenerationError,
    InternalContractError,
    ParameterError,
)
from ordramsey.io import write_trn

# the subdivided star on base 1, 2, 3 with the middle vertex 4
S3 = build_subdivision_S(3).digraph


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
    arcs = S.digraph.arcs()
    for tup in permutations(range(1, T.N + 1), S.digraph.n):
        if all(T.has_arc(tup[u - 1], tup[v - 1]) for u, v in arcs):
            return tup
    return None


class TestBuildSubdivision:
    def test_smallest_star(self):
        s = build_subdivision_S(3)
        assert s.digraph.n == 4
        assert len(s.digraph.arcs()) == 3
        assert s.triple_index == {(1, 2, 3): 4}
        assert set(s.digraph.arcs()) == {(1, 4), (4, 2), (4, 3)}

    def test_four_base_vertices(self):
        s = build_subdivision_S(4)
        assert s.digraph.n == 8
        assert len(s.digraph.arcs()) == 12

    @pytest.mark.parametrize("n", range(3, 13))
    def test_counts_and_shape(self, n):
        s = build_subdivision_S(n)
        triples = math.comb(n, 3)
        assert s.digraph.n == n + triples
        assert len(s.digraph.arcs()) == 3 * triples
        # triple vertices follow the base in lexicographic triple order
        assert sorted(s.triple_index.values()) == list(range(n + 1, n + triples + 1))
        assert list(s.triple_index) == sorted(s.triple_index)
        # every middle vertex has in-degree 1 and out-degree 2
        indeg = {}
        outdeg = {}
        for u, v in s.digraph.arcs():
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


def plain_transitive_chain(N, beats, k, within=None):
    """The DFS without the triangle-packing bound or the half split: only the
    candidate count prunes.  within restricts the chain to a vertex mask."""
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
    return chain[:] if rec(0, full if within is None else within) else None


def traced_chain(N, beats, k):
    """transitive_chain's result and the (depth, cands, k) of every call of
    its inner search, read off the calls' arguments by a profile hook."""
    calls = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name == "rec" and code.co_filename == kernels.__file__:
            calls.append((frame.f_locals["depth"], frame.f_locals["cands"], frame.f_locals["k"]))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        chain = kernels.transitive_chain(N, beats, k)
    finally:
        sys.setprofile(previous)
    return chain, calls


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

    def test_count_rejects_a_child_at_the_early_stop_boundary(self):
        # vertex 1 beats four disjoint 3-cycles, which beat each other in
        # order; a transitive set keeps at most two vertices of each cycle, so
        # the largest chain has 9 vertices.  For k = 10 the child of vertex 1
        # has 12 candidates for 9 places, which the candidate count keeps.
        # Its slack is 3, and 12 = 3 * (3 + 1): the count reaches its 4th
        # triangle only on the last three candidates, and must reject there
        arcs = [(1, v) for v in range(2, 14)]
        for a in range(2, 14, 3):
            arcs += [(a, a + 1), (a + 1, a + 2), (a + 2, a)]
            arcs += [(u, v) for u in range(a, a + 3) for v in range(a + 3, 14)]
        T = Tournament.from_arcs(13, arcs)
        beats = list(T.beats)
        for k in range(15):
            assert kernels.transitive_chain(13, beats, k) == plain_transitive_chain(
                13, beats, k
            ), k
        chain, calls = traced_chain(13, beats, 10)
        assert chain is None
        assert (1, beats[1], 10) not in calls
        # for k = 9 the slack is 4, and 12 candidates hold at most 4 triangles
        chain, calls = traced_chain(13, beats, 9)
        assert chain == [1, 2, 3, 5, 6, 8, 9, 11, 12]
        assert (1, beats[1], 9) in calls

    def test_count_keeps_a_transitive_child(self):
        # a transitive tournament in the order below: the child of its top
        # vertex 5 has 8 candidates for 8 places (slack 0) and no cyclic
        # triangle, though its lowest candidate 1 is beaten by 2 and 8
        order = [5, 2, 8, 1, 9, 3, 7, 4, 6]
        T = Tournament.from_arcs(9, [(u, v) for a, u in enumerate(order) for v in order[a + 1 :]])
        beats = list(T.beats)
        for k in range(11):
            assert kernels.transitive_chain(9, beats, k) == plain_transitive_chain(9, beats, k), k
        chain, calls = traced_chain(9, beats, 9)
        assert chain == order
        assert (1, beats[5], 9) in calls

    def test_last_level_of_an_empty_mask(self):
        assert kernels.transitive_chain(0, [0], 1) is None
        assert kernels.transitive_chain(1, [0, 0], 1) == [1]
        assert kernels.transitive_chain(1, [0, 0], 2) is None


def largest_chain(T):
    k = 0
    while plain_transitive_chain(T.N, list(T.beats), k + 1) is not None:
        k += 1
    return k


def quadratic_residue_7(offset=0):
    """Arcs of the 7-vertex tournament where i beats i+1, i+2 and i+4 (mod 7),
    on vertices offset+1..offset+7; its largest transitive set has 3 vertices."""
    return [(offset + i + 1, offset + (i + d) % 7 + 1) for i in range(7) for d in (1, 2, 4)]


class TestHalfSplit:
    """The root test of transitive_chain: the low index half 1..N//2 must hold
    a transitive ka-set or the high half a (k+1-ka)-set, ka = k//2 + 1."""

    @staticmethod
    def halves(N):
        low = ((1 << (N // 2 + 1)) - 1) & ~1
        return low, (((1 << (N + 1)) - 1) & ~1) ^ low

    def test_both_halves_refute(self):
        # two copies of the 7-vertex residue tournament, the low one beating
        # the high one: the largest chain has 3 + 3 vertices, and for k = 7
        # neither half holds its part (ka = 4, and 4 for the high half)
        arcs = quadratic_residue_7() + quadratic_residue_7(7)
        arcs += [(u, v) for u in range(1, 8) for v in range(8, 15)]
        T = Tournament.from_arcs(14, arcs)
        beats = list(T.beats)
        low, high = self.halves(14)
        assert plain_transitive_chain(14, beats, 4, low) is None
        assert plain_transitive_chain(14, beats, 4, high) is None
        assert kernels.transitive_chain(14, beats, 7) is None
        assert plain_transitive_chain(14, beats, 7) is None
        assert kernels.transitive_chain(14, beats, 6) == [1, 2, 3, 8, 9, 10]
        assert plain_transitive_chain(14, beats, 6) == [1, 2, 3, 8, 9, 10]

    def test_low_half_holds_its_part_but_no_chain(self):
        # in the residue tournament 1 -> 2 -> 3 and 1 -> 3, so the low half
        # {1, 2, 3} is a transitive ka-set for k = 4, yet no 4-chain exists
        T = Tournament.from_arcs(7, quadratic_residue_7())
        beats = list(T.beats)
        low, _ = self.halves(7)
        assert plain_transitive_chain(7, beats, 3, low) == [1, 2, 3]
        assert kernels.transitive_chain(7, beats, 4) is None
        assert plain_transitive_chain(7, beats, 4) is None

    @pytest.mark.parametrize("seed", range(6))
    def test_planted_chain_across_the_halves(self, seed):
        # an 11-chain planted in dominance order over a uniform 20-vertex
        # draw, whose own chains have 8 or 9 vertices; 6 of its vertices lie
        # in the high half, its part of an 11-chain, so the full DFS must run
        planted = [14, 3, 18, 7, 11, 2, 16, 9, 5, 20, 12]
        rows = list(Tournament.from_random(20, random.Random(seed)).beats)
        for a, u in enumerate(planted):
            for v in planted[a + 1 :]:
                rows[u] |= 1 << v
                rows[v] &= ~(1 << u)
        for k in (9, 10, 11, 12):
            assert kernels.transitive_chain(20, rows, k) == plain_transitive_chain(20, rows, k), k
        assert kernels.transitive_chain(20, rows, 11) == planted
        assert kernels.transitive_chain(20, rows, 12) is None

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 24), st.sampled_from([0.1, 0.3, 0.5]), st.integers(0, 2**32 - 1))
    def test_equals_plain_dfs_near_the_largest_chain(self, n, flip, seed):
        rng = random.Random(seed)
        arcs = [(j, i) if rng.random() < flip else (i, j) for i, j in combinations(range(1, n + 1), 2)]
        T = Tournament.from_arcs(n, arcs)
        beats = list(T.beats)
        top = largest_chain(T)
        for k in range(max(0, top - 2), top + 3):
            assert kernels.transitive_chain(n, beats, k) == plain_transitive_chain(n, beats, k), k


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
            (9001, "7964209ba818def34393b80b66a7dac422fb1a93c7067af9a9b4a419af381e57"),
        ],
    )
    def test_golden_n1600(self, seed, digest):
        # digests of the per-pair DFS, blowup and writer this code replaced;
        # seed 9001's is that of the chain search without the half split
        text = write_trn(iterated_lower_bound_tournament(1600, seed))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_golden_n2000(self):
        # the 200-vertex outer draw must avoid a transitive 31-set; digest of
        # the chain search without the half split
        text = write_trn(iterated_lower_bound_tournament(2000, 3))
        digest = "944c9b18505334b0c9ab86b3d7b9e6643ca95d58f9d59bed6161b642d9e344c6"
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
            ok, why = verify_digraph_copy(T, S3, res.mapping)
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
                assert verify_digraph_copy(T, S3, res.mapping)[0]

    def test_budget_exhaustion_is_reported(self):
        T = iterated_lower_bound_tournament(50, 0)
        res = contains_subdivision(T, 5, budget=50)
        assert res.exhausted and not res.found
        assert res.nodes == 50

    def test_budget_gate(self):
        with pytest.raises(ParameterError):
            contains_subdivision(transitive_tournament(5), 3, budget=0)

    def test_broken_copy_is_refused(self, monkeypatch):
        # in the transitive tournament every arc runs upward, so reversing
        # a found copy breaks its arcs
        T = transitive_tournament(6)
        mapping, nodes = kernels.digraph_injection(
            T.N, list(T.beats), S3.n, S3.out, kernels.DecisionBudget(1000)
        )
        broken = mapping[::-1]
        assert not verify_digraph_copy(T, S3, broken)[0]
        monkeypatch.setattr(kernels, "digraph_injection", lambda *args: (broken, nodes))
        with pytest.raises(InternalContractError, match="subdivision copy: arc"):
            contains_subdivision(T, 3)


class TestSubdivisionNodeBudget:
    def found_run(self):
        T = iterated_lower_bound_tournament(50, 0)
        res = contains_subdivision(T, 4)
        assert res.found and res.nodes > 1
        return T, res

    def test_budget_of_the_found_run_changes_nothing(self):
        T, res = self.found_run()
        assert contains_subdivision(T, 4, budget=res.nodes) == res

    def test_one_node_short_exhausts_at_the_budget(self):
        T, res = self.found_run()
        short = contains_subdivision(T, 4, budget=res.nodes - 1)
        assert short == InjectionResult(None, res.nodes - 1, True)

    def test_kernel_spends_the_shared_budget(self):
        T, res = self.found_run()
        S = build_subdivision_S(4)
        args = (T.N, list(T.beats), S.digraph.n, S.digraph.out)
        budget = kernels.DecisionBudget(2 * res.nodes)
        for _ in range(2):
            assert kernels.digraph_injection(*args, budget) == (list(res.mapping), res.nodes)
        assert budget.used == budget.limit
        with pytest.raises(BudgetExhausted):
            kernels.digraph_injection(*args, budget)
        assert budget.used == budget.limit


class TestDigraphInjection:
    def test_least_injection_and_every_shorter_budget(self):
        # permutations come in lexicographic order, so the first
        # arc-preserving one is the least injection
        rng = random.Random(24)
        outcomes = {True: 0, False: 0}
        for _ in range(300):
            T = Tournament.from_random(rng.randint(0, 7), rng)
            k = rng.randint(0, 5)
            p = rng.random() * 0.5
            D = Digraph(k, [pair for pair in permutations(range(1, k + 1), 2) if rng.random() < p])
            least = next(
                (
                    tup
                    for tup in permutations(range(1, T.N + 1), k)
                    if all(T.has_arc(tup[u - 1], tup[v - 1]) for u, v in D.arcs())
                ),
                None,
            )
            args = (T.N, list(T.beats), k, D.out)
            mapping, nodes = kernels.digraph_injection(*args, kernels.DecisionBudget(10**9))
            assert (None if mapping is None else tuple(mapping)) == least
            outcomes[least is None] += 1
            for limit in range(nodes):
                short = kernels.DecisionBudget(limit)
                with pytest.raises(BudgetExhausted):
                    kernels.digraph_injection(*args, short)
                assert short.used == limit
        assert min(outcomes.values()) >= 50, outcomes

    def test_s4_search_in_the_lower_bound_tournament(self):
        T = iterated_lower_bound_tournament(50, 0)
        expected = InjectionResult((1, 5, 6, 9, 2, 13, 14, 8), 713, False)
        assert contains_subdivision(T, 4) == expected


class TestVerifySubdivisionCopy:
    def test_wrong_length(self):
        ok, why = verify_digraph_copy(transitive_tournament(6), S3, (1, 2, 3))
        assert not ok and "4" in why

    def test_repeated_image(self):
        ok, why = verify_digraph_copy(transitive_tournament(6), S3, (1, 2, 2, 4))
        assert not ok and "repeats" in why

    def test_out_of_range_image(self):
        ok, why = verify_digraph_copy(transitive_tournament(4), S3, (1, 2, 3, 9))
        assert not ok

    def test_reversed_arc(self):
        # transitive host: mapping the middle above its source breaks arc (1, t)
        T = transitive_tournament(6)
        ok, why = verify_digraph_copy(T, S3, (4, 5, 6, 1))
        assert not ok and "reversed" in why

