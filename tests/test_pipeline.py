"""Recursive sparse-set extraction, the monochromatic-copy search and the
exact small-instance oracle."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from ordramsey import core, kernels, pipeline, skeleton
from ordramsey.certificates import decode_certificate, encode_certificate, verify_certificate
from ordramsey.core import Color, ColoredCompleteGraph, OrderedGraph, color_class, rows_density
from ordramsey.embed import find_ordered_embedding
from ordramsey.errors import BudgetExhausted, DomainError, ParameterError
from ordramsey.io import write_okc
from ordramsey.pipeline import (
    Exhausted,
    MonoCopy,
    RecursionParams,
    SparseSet,
    binary_tree_sparse,
    exact_ordered_ramsey,
    find_mono_copy,
    recursive_sparse_set,
    verify_mono_copy,
    verify_sparse_set,
)

from conftest import (
    TAIL_TRIANGLE,
    all_blue,
    all_red,
    brute_force_embeddings,
    complete_graph,
    hub_zone_coloring,
    outcome,
    paley,
    two_blue_cliques,
)


def k_pattern(n):
    return complete_graph(n)


def monotone_path(n):
    return OrderedGraph(n, [(i, i + 1) for i in range(1, n)])


def crossing_four_cycle():
    return OrderedGraph(4, [(1, 3), (1, 4), (2, 3), (2, 4)])


def solver(pat1, pat2):
    """A fresh ColoringSolver for two (n, edges) patterns."""
    return kernels.ColoringSolver(*pat1, *pat2, kernels.DecisionBudget(kernels.DEFAULT_NODE_BUDGET))


def has_good_coloring(pat1, pat2, big_n):
    """Whether ordered K_N has a coloring with no red pat1 and no blue pat2."""
    pats = (pat1.n, pat1.sorted_edges()), (pat2.n, pat2.sorted_edges())
    return kernels.search_good_coloring(solver(*pats), big_n) is not None


class TestBinaryTreeSparse:
    def test_base_case_returns_whole_set(self):
        col = ColoredCompleteGraph.from_random(12, 0)
        params = RecursionParams(Fraction(1, 10), 1, 1, 0.5, 0, 0, 8)
        res = binary_tree_sparse(col, range(1, 13), k_pattern(3), k_pattern(3), params)
        assert isinstance(res, SparseSet)
        assert res.members == tuple(range(1, 13))
        assert verify_sparse_set(col, res)[0]
        # the base bound is vacuous
        assert res.density <= res.bound

    def test_spent_blue_budget_returns_whole_set_in_blue(self):
        # h2 = 0 with h1 left: the root returns all of X in Blue, unsearched
        col = ColoredCompleteGraph.from_random(12, 0)
        params = RecursionParams(Fraction(1, 10), 1, 1, 0.5, 1, 0, 8)
        res = binary_tree_sparse(col, range(1, 13), k_pattern(3), k_pattern(3), params)
        assert (res.color, res.members) == (Color.BLUE, tuple(range(1, 13)))
        assert res.bound == Fraction(21, 20)
        assert verify_sparse_set(col, res)[0]

    def test_singleton_input(self):
        col = ColoredCompleteGraph.from_random(9, 1)
        params = RecursionParams(Fraction(1, 10), 1, 1, 0.5, 1, 1, 8)
        res = binary_tree_sparse(col, [4], k_pattern(3), k_pattern(3), params)
        assert isinstance(res, SparseSet)
        assert res.members == (4,)
        assert res.density == 0

    def test_shrink_collapse_picks_sparser_color(self):
        # alpha^(h1+h2) * |X| < 1 collapses to a singleton in the sparser color
        col = all_red(12)
        params = RecursionParams(Fraction(1, 10), 1, 1, 0.1, 2, 2, 8)
        res = binary_tree_sparse(col, range(1, 13), k_pattern(20), k_pattern(20), params)
        assert isinstance(res, SparseSet)
        assert res.color is Color.BLUE
        assert len(res.members) == 1
        assert res.density == 0
        assert verify_sparse_set(col, res)[0]

    def test_mono_copy_short_circuit(self):
        # red-sparse random coloring: the blue skeleton swallows K_5 directly
        col = ColoredCompleteGraph.from_random(60, 0, red_probability=0.05)
        params = RecursionParams(Fraction(1, 10), 1, 1, 0.2, 1, 1, 30)
        res = binary_tree_sparse(
            col, range(1, 61), k_pattern(5), k_pattern(5), params, samples=32
        )
        assert isinstance(res, MonoCopy)
        assert res.color is Color.BLUE
        assert verify_mono_copy(col, k_pattern(5), k_pattern(5), res)[0]

    def test_pair_branch_union(self):
        # the planted coloring drives the full pair route: skeleton in red,
        # greedy starves inside an internally blue zone, both child halves
        # return red sets, and the union passes the density bound
        col = hub_zone_coloring()
        params = RecursionParams(Fraction(1, 10), 1, 1, 0.35, 1, 1, 5)
        res = binary_tree_sparse(
            col, range(1, 15), TAIL_TRIANGLE, k_pattern(3), params,
            samples=512, seed=0,
        )
        assert isinstance(res, SparseSet)
        assert res.color is Color.RED
        assert res.members == (1, 3)
        assert res.density == 0
        assert res.h1 == 1 and res.h2 == 1
        assert verify_sparse_set(col, res)[0]

    def test_unsplittable_pattern_exhausts(self):
        col = all_blue(20)
        params = RecursionParams(Fraction(1, 10), 1, 1, 0.3, 1, 1, 10)
        res = binary_tree_sparse(
            col, range(1, 21), k_pattern(25), k_pattern(25), params, samples=16
        )
        assert isinstance(res, Exhausted)
        assert any("split" in step for step in res.trace)

    def test_exhaustion_names_a_biting_key_cap(self, monkeypatch):
        # reject every bucket, so the node exhausts for want of a skeleton;
        # its trace names the cap only where the cap cut the index short
        monkeypatch.setattr(skeleton, "_skeleton_from_index", lambda *args: None)
        col = all_blue(20)
        params = RecursionParams(Fraction(1, 10), 1, 1, 0.5, 1, 1, 10)
        for cap, note in ((1, " (spine-key cap 1 reached)"), (10_000, "")):
            res = binary_tree_sparse(
                col, range(1, 21), k_pattern(3), k_pattern(3), params, samples=4, tuple_cap=cap
            )
            assert isinstance(res, Exhausted)
            assert res.trace[-1] == "no skeleton assembled from the sampled cliques" + note

    def test_empty_members_rejected(self):
        col = all_blue(5)
        params = RecursionParams(Fraction(1, 10), 1, 1, 0.5, 1, 1, 5)
        with pytest.raises(ParameterError, match="^members must be nonempty$"):
            binary_tree_sparse(col, [], k_pattern(3), k_pattern(3), params)


def zoned_coloring(first_four_red: bool) -> ColoredCompleteGraph:
    """Hubs 9 and 18 and zones 1-8, 10-17 and 19-26.  Every pair that touches
    a hub or joins two zones is red.  Inside a zone the first four vertices
    are blue to the last four, the last four are red among themselves, and
    the first four are red among themselves when first_four_red, else blue."""
    zones = (range(1, 9), range(10, 18), range(19, 27))

    def place(v):
        return next(((z, v - r.start < 4) for z, r in enumerate(zones) if v in r), (None, None))

    def is_red(i, j):
        (zi, first_i), (zj, first_j) = place(i), place(j)
        if zi is None or zi != zj:
            return True
        if first_i != first_j:
            return False
        return first_four_red or not first_i

    return ColoredCompleteGraph.from_function(26, is_red)


def blue_hub_coloring() -> ColoredCompleteGraph:
    """Hubs 4 and 13 and zones 1-3, 5-12 and 14.  Pairs inside a zone are red,
    every other pair blue, except that vertex 1 is red to zone 5-12 but for
    10 and 11."""
    zone = [None, 0, 0, 0, None, *[1] * 8, None, 2]

    def is_red(i, j):
        if i == 1 and zone[j] == 1:
            return j not in (10, 11)
        return zone[i] is not None and zone[i] == zone[j]

    return ColoredCompleteGraph.from_function(14, is_red)


class TestRecursionBranches:
    """Pinned inputs for the pair-route branches of binary_tree_sparse."""

    def test_pair_half_too_small_to_halve(self):
        col = ColoredCompleteGraph.from_random(24, 257, 0.3)
        params = RecursionParams(Fraction(1, 10), 1, 1, 0.5, 2, 1, 8)
        res = binary_tree_sparse(
            col, range(1, 25), TAIL_TRIANGLE, k_pattern(3), params, samples=16, seed=257
        )
        assert res == Exhausted(("lower pair half of size 1 is too small to halve",))

    @pytest.mark.parametrize(
        "first_four_red, members",
        # a red skeleton whose lower child, then whose upper child, returns blue
        [(True, (1,)), (False, (5,))],
        ids=["lower-child", "upper-child"],
    )
    def test_child_of_the_other_color_is_passed_up(self, first_four_red, members):
        col = zoned_coloring(first_four_red)
        params = RecursionParams(Fraction(1, 10), 1, 1, 0.35, 2, 1, 8)
        res = binary_tree_sparse(
            col, range(1, 27), TAIL_TRIANGLE, k_pattern(3), params, samples=256, seed=1
        )
        assert isinstance(res, SparseSet)
        assert (res.color, res.members, res.density) == (Color.BLUE, members, 0)
        assert verify_sparse_set(col, res) == (True, None)

    def test_lower_set_trimmed_to_a_smaller_upper_set(self):
        # the blue skeleton's pair is the lower chunk 5-8 of zone 5-12
        # against {10, 11}, the only blue neighbours of vertex 1 there; the
        # upper child returns one vertex, so the two-vertex W1 is trimmed
        # again to one
        pattern = OrderedGraph(4, [(1, 2), (1, 4), (2, 3), (2, 4), (3, 4)])
        col = blue_hub_coloring()
        params = RecursionParams(Fraction(1, 10), 4, 1, 0.9, 1, 1, 8)
        res = binary_tree_sparse(
            col, range(1, 15), k_pattern(3), pattern, params, samples=256, seed=1
        )
        assert isinstance(res, SparseSet)
        assert (res.color, res.members, res.density) == (Color.BLUE, (5, 10), 0)
        assert verify_sparse_set(col, res) == (True, None)


class TestTrimToDensity:
    # the recursion trims sets that already meet their bound and treats a
    # trimmed set over it as a broken contract, so the greedy step must never
    # raise the density
    @given(st.integers(1, 14), st.integers(0, 10 ** 6))
    @settings(max_examples=300, deadline=None)
    def test_greedy_trim_never_raises_density(self, n, seed):
        rng = random.Random(seed)
        p = rng.random()
        rows = [0] * (n + 1)
        for i, j in combinations(range(1, n + 1), 2):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        members = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
        target = rng.randint(1, len(members))
        dens = rows_density(rows, members)
        out = pipeline._trim_to_density(rows, members, target, dens)
        assert len(out) == target
        assert set(out) <= set(members)
        assert rows_density(rows, out) <= dens


class TestRecursiveSparseSet:
    def test_c_gate(self):
        col = all_blue(10)
        with pytest.raises(ParameterError):
            recursive_sparse_set(col, k_pattern(3), k_pattern(3), Fraction(1, 4))

    def test_samples_gate_precedes_any_work(self):
        # the default alpha stops the recursion at its root, before sampling
        with pytest.raises(ParameterError, match="samples must be positive"):
            recursive_sparse_set(
                all_blue(30), k_pattern(9), k_pattern(9), Fraction(1, 10), samples=0
            )

    def test_all_blue_gives_red_set(self):
        col = all_blue(30)
        res = recursive_sparse_set(col, k_pattern(31), k_pattern(31), Fraction(1, 10))
        assert isinstance(res, SparseSet)
        assert res.color is Color.RED
        assert res.density == 0
        assert verify_sparse_set(col, res)[0]

    def test_halving_budget_formula(self):
        col = all_blue(20)
        res = recursive_sparse_set(col, k_pattern(21), k_pattern(21), Fraction(1, 10))
        assert isinstance(res, SparseSet)
        assert res.h1 == math.ceil(math.log2(20))
        assert res.h2 == res.h1

    def test_root_works_on_the_coloring_itself(self, monkeypatch):
        # the root's X is all of 1..N: induced hands back the frozen coloring
        # instead of copying it and checking its 120 rows again
        col = ColoredCompleteGraph.from_random(120, 1)
        sizes = []
        check = core._check_rows
        monkeypatch.setattr(core, "_check_rows", lambda *a: sizes.append(a[0]) or check(*a))
        recursive_sparse_set(col, k_pattern(5), k_pattern(5), Fraction(1, 10), alpha=0.75, seed=3)
        assert 120 not in sizes

    def test_seeded_outputs_verify(self):
        for seed in range(25):
            col = ColoredCompleteGraph.from_random(30, seed)
            res = recursive_sparse_set(col, k_pattern(9), k_pattern(9), Fraction(1, 12))
            if isinstance(res, SparseSet):
                ok, why = verify_sparse_set(col, res)
            elif isinstance(res, MonoCopy):
                ok, why = verify_mono_copy(col, k_pattern(9), k_pattern(9), res)
            else:
                continue
            assert ok, (seed, why)


class TestRecursionParams:
    @pytest.mark.parametrize(
        "k1, k2, h1, window, message",
        [
            (1, 2, 1, 5, "need k1 >= k2 >= 1, got k1=1, k2=2"),
            (1, 1, -1, 5, "halving budgets must be nonnegative"),
            (1, 1, 1, 0, "window must be positive"),
        ],
        ids=["k1-below-k2", "negative-budget", "window-0"],
    )
    def test_input_checks(self, k1, k2, h1, window, message):
        call = lambda: RecursionParams(Fraction(1, 10), k1, k2, 0.5, h1, 1, window)
        assert outcome(call) == (ParameterError, message)

    # K3,K3 gives k1 = k2 = 1 and K5,K5 gives k1 = k2 = 2, so the default
    # window is N up to 4^(k1 + k2) and 4^(k1 + k2) above it
    @pytest.mark.parametrize(
        "k, big_n, window",
        [(3, 1, 1), (3, 15, 15), (3, 16, 16), (3, 17, 16), (3, 120, 16),
         (5, 30, 30), (5, 255, 255), (5, 256, 256), (5, 257, 256), (5, 4**8, 256)],
    )
    def test_default_window(self, k, big_n, window):
        params = RecursionParams.from_patterns(k_pattern(k), k_pattern(k), Fraction(1, 10), big_n)
        assert (params.k1, params.k2) == ((1, 1) if k == 3 else (2, 2))
        assert params.window == window

    @pytest.mark.parametrize("c", [0, -1])
    def test_c_out_of_range_is_a_parameter_error(self, c):
        with pytest.raises(ParameterError, match=rf"^c={c} must lie strictly in \(0, 1/8\)$"):
            RecursionParams.from_patterns(k_pattern(3), k_pattern(3), c, 20)

    @pytest.mark.parametrize(
        "pat1, pat2, message",
        [
            (OrderedGraph(2), k_pattern(3), "first pattern must have at least one edge"),
            (k_pattern(3), OrderedGraph(3, [(1, 2)]),
             "second pattern has isolated vertices; strip them with remove_isolated"),
        ],
    )
    def test_patterns_are_gated(self, pat1, pat2, message):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            RecursionParams.from_patterns(pat1, pat2, Fraction(1, 10), 20)

    def test_c_is_named_before_the_patterns(self):
        with pytest.raises(ParameterError, match=r"^c=0 must lie strictly in \(0, 1/8\)$"):
            recursive_sparse_set(all_blue(10), OrderedGraph(2), k_pattern(3), 0)


class TestVerifiers:
    def test_mono_copy_wrong_color_rejected(self):
        col = all_red(6)
        mc = MonoCopy(Color.BLUE, (1, 2, 3))
        ok, why = verify_mono_copy(col, k_pattern(3), k_pattern(3), mc)
        assert not ok

    def test_mono_copy_valid(self):
        col = all_red(6)
        mc = MonoCopy(Color.RED, (2, 4, 6))
        assert verify_mono_copy(col, k_pattern(3), k_pattern(3), mc)[0]

    def test_sparse_set_density_claim_rechecked(self):
        col = all_red(8)
        bogus = SparseSet(
            Color.RED, (1, 2, 3), Fraction(0), Fraction(1, 2), 3, True, 0.5, 1, 1
        )
        ok, why = verify_sparse_set(col, bogus)
        assert not ok

    def test_sparse_set_members_out_of_range(self):
        col = all_red(8)
        bogus = SparseSet(
            Color.BLUE, (7, 9), Fraction(0), Fraction(1), 2, True, 0.5, 0, 0
        )
        with pytest.raises(DomainError):
            verify_sparse_set(col, bogus)


class TestFindMonoCopy:
    def test_all_red_path(self):
        col = all_red(10)
        res = find_mono_copy(col, monotone_path(4), monotone_path(4))
        assert isinstance(res, MonoCopy)
        assert res.color is Color.RED
        assert verify_mono_copy(col, monotone_path(4), monotone_path(4), res)[0]

    def test_triangle_guaranteed_at_six(self):
        for n in range(6, 10):
            for seed in range(4):
                col = ColoredCompleteGraph.from_random(n, seed)
                res = find_mono_copy(col, k_pattern(3), k_pattern(3))
                assert isinstance(res, MonoCopy), (n, seed)
                assert verify_mono_copy(col, k_pattern(3), k_pattern(3), res)[0]

    def test_pentagon_coloring_exhausts(self):
        col = ColoredCompleteGraph.from_function(
            5, lambda i, j: (j - i) % 5 in (1, 4)
        )
        # oracle: neither class holds a triangle
        for color in (Color.RED, Color.BLUE):
            host = color_class(col, color)
            assert find_ordered_embedding(host, k_pattern(3)) is None
        res = find_mono_copy(col, k_pattern(3), k_pattern(3))
        assert isinstance(res, Exhausted)
        assert res.trace

    def test_isolated_vertices_rejected(self):
        col = all_red(8)
        with pytest.raises(ParameterError):
            find_mono_copy(col, OrderedGraph(3, [(1, 2)]), k_pattern(3))

    def test_rows_are_checked_once_when_the_coloring_is_built(self, monkeypatch):
        col = ColoredCompleteGraph.from_function(8, lambda i, j: j - i <= 2)
        calls = []
        check = core._check_rows
        monkeypatch.setattr(core, "_check_rows", lambda *a: calls.append(a[2]) or check(*a))
        res = find_mono_copy(col, k_pattern(3), k_pattern(3))
        assert res.color is Color.RED
        assert calls == []
        kind, payload = decode_certificate(encode_certificate(res))
        assert verify_certificate(kind, payload, col, k_pattern(3)) == (True, None)
        # decoding and re-checking the certificate builds no graph from rows either
        assert calls == []

    def test_seeded_dense_blue(self):
        for seed in range(5):
            col = ColoredCompleteGraph.from_random(40, seed, red_probability=0.04)
            res = find_mono_copy(col, k_pattern(4), k_pattern(4))
            assert isinstance(res, MonoCopy)
            assert verify_mono_copy(col, k_pattern(4), k_pattern(4), res)[0]

    @pytest.mark.parametrize(
        "col, pat1, pat2",
        [
            (paley(17), k_pattern(4), k_pattern(4)),
            (two_blue_cliques(12), k_pattern(3), k_pattern(7)),
        ],
        ids=["paley17-k4-k4", "two-cliques12-k3-k7"],
    )
    def test_copy_free_coloring_exhausts_after_complete_search(self, col, pat1, pat2):
        # oracle: brute force finds no red pat1 and no blue pat2
        assert brute_force_embeddings(color_class(col, Color.RED), pat1) == []
        assert brute_force_embeddings(color_class(col, Color.BLUE), pat2) == []
        res = find_mono_copy(col, pat1, pat2)
        assert res == Exhausted((f"exhaustive search over {col.N} vertices found no copy",))


class TestExactOrderedRamsey:
    def test_edge_edge(self):
        res = exact_ordered_ramsey(k_pattern(2), k_pattern(2), 4)
        assert res is not None
        n_star, witness = res
        assert n_star == 2
        assert witness.N == 1

    def test_triangle_diagonal(self):
        res = exact_ordered_ramsey(k_pattern(3), k_pattern(3), 6)
        n_star, witness = res
        assert n_star == 6
        assert witness.N == 5
        for color in (Color.RED, Color.BLUE):
            host = color_class(witness, color)
            assert find_ordered_embedding(host, k_pattern(3)) is None

    def test_monotone_path_three_vertices(self):
        res = exact_ordered_ramsey(monotone_path(3), monotone_path(3), 6)
        n_star, witness = res
        assert n_star == 5
        assert witness.N == 4

    def test_beyond_max_returns_none(self):
        assert exact_ordered_ramsey(k_pattern(3), k_pattern(3), 5) is None

    def test_monotonicity_chain(self):
        edge = exact_ordered_ramsey(k_pattern(2), k_pattern(2), 6)[0]
        path = exact_ordered_ramsey(monotone_path(3), monotone_path(3), 6)[0]
        tri = exact_ordered_ramsey(k_pattern(3), k_pattern(3), 6)[0]
        assert edge <= path <= tri

    def test_witness_is_extremal(self):
        # a good coloring exists at N*-1 but none at N*
        assert has_good_coloring(k_pattern(3), k_pattern(3), 5)
        assert not has_good_coloring(k_pattern(3), k_pattern(3), 6)

    def test_monotone_paths_meet_erdos_szekeres(self):
        # R(P_s, P_t) = (s - 1)(t - 1) + 1 for monotone paths
        assert exact_ordered_ramsey(monotone_path(3), monotone_path(4), 8)[0] == 7
        assert exact_ordered_ramsey(monotone_path(4), monotone_path(4), 11)[0] == 10

    def test_classical_r_3_4(self):
        assert exact_ordered_ramsey(k_pattern(3), k_pattern(4), 10)[0] == 9

    def test_crossing_four_cycle_against_triangle(self):
        assert exact_ordered_ramsey(crossing_four_cycle(), k_pattern(3), 12)[0] == 9

    def test_one_witness_graph_per_call(self, monkeypatch):
        # the good colorings below N* - 1 stay colex bits
        built = []
        from_bits = ColoredCompleteGraph.from_colex_bits

        def counting(cls, big_n, bits):
            built.append(big_n)
            return from_bits(big_n, bits)

        monkeypatch.setattr(ColoredCompleteGraph, "from_colex_bits", classmethod(counting))
        n_star, witness = exact_ordered_ramsey(k_pattern(3), k_pattern(3), 8)
        assert (n_star, witness.N, built) == (6, 5, [5])

    def test_k4_k3_refuted_at_nine(self):
        assert has_good_coloring(k_pattern(4), k_pattern(3), 8)
        assert not has_good_coloring(k_pattern(4), k_pattern(3), 9)


class TestNodeBudget:
    def spend_of_full_run(self, monkeypatch):
        """The result of exact on C4x,K3 and the decisions it spends, read
        off its own budget."""
        budgets = []
        solve = kernels.ColoringSolver.solve

        def recording(self, *args):
            budgets.append(self.budget)
            return solve(self, *args)

        with monkeypatch.context() as m:
            m.setattr(kernels.ColoringSolver, "solve", recording)
            res = exact_ordered_ramsey(crossing_four_cycle(), k_pattern(3), 12)
        return res, budgets[-1].used

    def test_budget_covers_every_n(self, monkeypatch):
        res, used = self.spend_of_full_run(monkeypatch)
        assert res[0] == 9
        assert exact_ordered_ramsey(
            crossing_four_cycle(), k_pattern(3), 12, node_budget=used
        ) == res

    def test_one_decision_short_exhausts_in_the_probes(self, monkeypatch):
        # the probes for the least witness at N* - 1 = 8 make the last decisions
        _, used = self.spend_of_full_run(monkeypatch)
        res = exact_ordered_ramsey(
            crossing_four_cycle(), k_pattern(3), 12, node_budget=used - 1
        )
        assert res == Exhausted(
            (f"node budget exhausted at N = 8 after {used - 1} decisions",)
        )

    def test_clause_bound_stops_exact(self, monkeypatch):
        # C4x,K3 at N = 7: C(7, 4) * 4 + C(7, 3) * 3 = 245 literals
        monkeypatch.setattr(kernels, "CLAUSE_LITERAL_BOUND", 245)
        assert exact_ordered_ramsey(crossing_four_cycle(), k_pattern(3), 7) is None
        monkeypatch.setattr(kernels, "CLAUSE_LITERAL_BOUND", 244)
        assert exact_ordered_ramsey(crossing_four_cycle(), k_pattern(3), 12) == Exhausted(
            ("clause bound exhausted at N = 7: 245 literals above the bound of 244",)
        )

    def test_clause_bound_refuses_before_building(self):
        # P8,P8 at N = 60: 2 * C(60, 8) * 7 literals, about 36 billion
        p8 = (8, monotone_path(8).sorted_edges())
        grown = solver(p8, p8)
        with pytest.raises(BudgetExhausted, match="^clause bound exhausted at N = 60: "):
            grown.grow(60)
        assert (grown.N, grown.watches, grown.units, grown.budget.used) == (0, [], [], 0)


@st.composite
def small_patterns(draw):
    n = draw(st.integers(2, 4))
    pairs = list(combinations(range(1, n + 1), 2))
    return n, sorted(draw(st.sets(st.sampled_from(pairs), min_size=1)))


def brute_force_good_coloring(N, pat1, pat2):
    """First good coloring in lexicographic order over colex pairs, Red (0)
    first, by enumerating all 2^C(N,2) colorings; None when there is none."""
    pairs = [(i, j) for j in range(2, N + 1) for i in range(1, j)]
    bit = {pair: len(pairs) - 1 - p for p, pair in enumerate(pairs)}

    def copy_masks(pattern):
        pn, pedges = pattern
        return [
            sum(1 << bit[sub[a - 1], sub[b - 1]] for a, b in pedges)
            for sub in combinations(range(1, N + 1), pn)
        ]

    red_masks, blue_masks = copy_masks(pat1), copy_masks(pat2)
    # the first pair is the most significant bit, so counting up is lex order
    for x in range(1 << len(pairs)):
        if any(x & m == 0 for m in red_masks):
            continue
        if any(x & m == m for m in blue_masks):
            continue
        return [(x >> bit[pair]) & 1 for pair in pairs]
    return None


def check_solver(unit, N, pat1, pat2, reference):
    """The grown solver and least() on a fresh one against reference(n, pat1,
    pat2), the least good coloring of K_n or None, at every n <= N."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(kernels, "LUBY_UNIT", unit)
        grown = solver(pat1, pat2)
        for n in range(1, N + 1):
            want = reference(n, pat1, pat2)
            got = kernels.search_good_coloring(grown, n)
            assert (got is None) == (want is None), (pat1, pat2, n)
            if got is None:
                return
            assert is_good(n, got, pat1, pat2), (pat1, pat2, n)
            fresh = solver(pat1, pat2)
            fresh.grow(n)
            assert fresh.least(got) == want, (pat1, pat2, n)


class TestSearchGoodColoringDifferential:
    """The solver against exhaustive enumeration of colorings."""

    @pytest.mark.parametrize("unit", [1, kernels.LUBY_UNIT])
    @given(st.integers(1, 5), small_patterns(), small_patterns())
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force(self, unit, N, pat1, pat2):
        check_solver(unit, N, pat1, pat2, brute_force_good_coloring)

    @pytest.mark.parametrize("unit", [1, kernels.LUBY_UNIT])
    @given(small_patterns(), small_patterns())
    @settings(max_examples=10, deadline=None)
    def test_matches_brute_force_on_k6(self, unit, pat1, pat2):
        check_solver(unit, 6, pat1, pat2, brute_force_good_coloring)


def counter_propagation_search(N, pat1, pat2):
    """The clause search before conflict learning, kept as a reference.

    One clause per forbidden copy; a count per clause of its pairs not yet
    propagated in the forbidden color forces the last free pair to the other
    color at 1 and conflicts at 0.  Red-first chronological backtracking over
    the pairs in colex order, so it returns the least good coloring.
    """
    index = {}
    for j in range(2, N + 1):
        for i in range(1, j):
            index[i, j] = len(index)
    nvars = len(index)
    watch = [[[] for _ in range(nvars)] for _ in range(2)]
    clauses = []
    units = []
    for color, (pn, pedges) in enumerate((pat1, pat2)):
        if pn > N:
            continue
        seen = set()
        for sub in combinations(range(1, N + 1), pn):
            clause = tuple(sorted({index[sub[a - 1], sub[b - 1]] for a, b in pedges}))
            if clause in seen:
                continue
            seen.add(clause)
            if len(clause) == 1:
                units.append((clause[0], 1 - color))
            for v in clause:
                watch[color][v].append(len(clauses))
            clauses.append(clause)
    need = [len(clause) for clause in clauses]
    val = [-1] * nvars
    trail = []
    head = 0

    def propagate():
        nonlocal head
        ok = True
        while ok and head < len(trail):
            v = trail[head]
            head += 1
            c = val[v]
            for cl in watch[c][v]:
                need[cl] -= 1
                if need[cl] == 0:
                    ok = False
                elif need[cl] == 1 and ok:
                    for u in clauses[cl]:
                        if val[u] < 0:
                            val[u] = 1 - c
                            trail.append(u)
                            break
        return ok

    def undo(mark):
        nonlocal head
        for v in trail[mark:head]:
            for cl in watch[val[v]][v]:
                need[cl] += 1
        for v in trail[mark:]:
            val[v] = -1
        del trail[mark:]
        head = mark

    for v, c in units:
        if val[v] == 1 - c:
            return None
        if val[v] < 0:
            val[v] = c
            trail.append(v)
    decisions = []
    k = 0
    ok = propagate()
    while True:
        if ok:
            while k < nvars and val[k] >= 0:
                k += 1
            if k == nvars:
                return val
            decisions.append((k, len(trail)))
            val[k] = 0
        else:
            while decisions:
                k, mark = decisions[-1]
                flip = val[k] == 0
                undo(mark)
                if flip:
                    break
                decisions.pop()
            else:
                return None
            val[k] = 1
        trail.append(k)
        ok = propagate()


def patterns_up_to_four():
    """Every ordered graph on 2 to 4 vertices with at least one edge."""
    out = []
    for n in (2, 3, 4):
        pairs = list(combinations(range(1, n + 1), 2))
        for mask in range(1, 1 << len(pairs)):
            out.append((n, [pairs[b] for b in range(len(pairs)) if mask >> b & 1]))
    return out


def is_good(N, bits, pat1, pat2):
    """Whether the coloring of K_N given by its colex bits holds no Red copy
    of pat1 and no Blue copy of pat2, by a scan of every vertex subset."""
    color_of = dict(zip([(i, j) for j in range(2, N + 1) for i in range(1, j)], bits))
    return not any(
        all(color_of[sub[a - 1], sub[b - 1]] == color for a, b in pedges)
        for color, (pn, pedges) in enumerate((pat1, pat2))
        for sub in combinations(range(1, N + 1), pn)
    )


class TestSearchGoodColoringAgainstCounterPropagation:
    """The solver against the search it replaced, N up to N*: every N up to
    9 against P4, and up to 8 against K3, since each pair left at N = 9 is
    refuted there (R(3,4) = 9) and the 26 such pairs take the reference
    about 6 s.  TestExactOrderedRamsey checks three of them."""

    @pytest.mark.parametrize("unit", [1, kernels.LUBY_UNIT])
    @pytest.mark.parametrize("partner, max_n", [("K3", 8), ("P4", 9)])
    @pytest.mark.parametrize("side", ["first", "second"])
    def test_every_small_pattern(self, unit, partner, max_n, side):
        other = (3, [(1, 2), (1, 3), (2, 3)]) if partner == "K3" else (4, [(1, 2), (2, 3), (3, 4)])
        for pat in patterns_up_to_four():
            pat1, pat2 = (pat, other) if side == "first" else (other, pat)
            check_solver(unit, max_n, pat1, pat2, counter_propagation_search)


class TestColoringSolver:
    """grow, solve under an assumption and the least good coloring by probing."""

    @pytest.mark.parametrize("unit", [1, kernels.LUBY_UNIT])
    @pytest.mark.parametrize(
        "pat1, pat2, n_star, witness",
        [
            (k_pattern(2), k_pattern(2), 2, "1\n"),
            (k_pattern(3), k_pattern(3), 6, "5\nRRBB\nBRB\nBR\nR\n"),
            (monotone_path(3), monotone_path(3), 5, "4\nRBR\nBB\nR\n"),
            (crossing_four_cycle(), k_pattern(3), 9,
             "8\nRRRRBBB\nRBBRRB\nRBBRB\nRBBR\nRBR\nRR\nR\n"),
        ],
        ids=["K2,K2", "K3,K3", "P3,P3", "C4x,K3"],
    )
    def test_exact_keeps_the_pinned_least_witness(
        self, monkeypatch, unit, pat1, pat2, n_star, witness
    ):
        monkeypatch.setattr(kernels, "LUBY_UNIT", unit)
        got_n, got = exact_ordered_ramsey(pat1, pat2, 12)
        assert (got_n, write_okc(got)) == (n_star, witness)

    def test_a_coloring_that_is_not_the_least_is_probed(self, monkeypatch):
        # with a unit of 1 the grown solver's coloring at N = 8 is not the
        # least; the probes run on a fresh solver at N = 8
        monkeypatch.setattr(kernels, "LUBY_UNIT", 1)
        probes = []
        least = kernels.ColoringSolver.least

        def recording(probe, good):
            probes.append((probe.N, good))
            return least(probe, good)

        monkeypatch.setattr(kernels.ColoringSolver, "least", recording)
        n_star, witness = exact_ordered_ramsey(crossing_four_cycle(), k_pattern(3), 12)
        [(probe_n, good)] = probes
        assert (n_star, probe_n) == (9, 8)
        assert witness != ColoredCompleteGraph.from_colex_bits(8, good)

    def test_grown_clauses_are_those_of_a_fresh_solver(self):
        # vertex 2 of the second pattern is isolated, so its copies share clauses
        pats = (4, [(1, 2), (2, 3), (3, 4)]), (3, [(1, 3)])
        grown, fresh = solver(*pats), solver(*pats)
        for n in range(1, 9):
            grown.grow(n)
        fresh.grow(8)
        assert (grown.nvars, sorted(grown.units)) == (fresh.nvars, sorted(fresh.units))
        assert [sorted(ws) for ws in grown.watches] == [sorted(ws) for ws in fresh.watches]

    def test_d2_witness_at_13(self):
        # d2 = {12, 13, 14, 23, 34}; exact d2 d2 prints this witness with n_star 14
        d2 = (4, [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)])
        grown = solver(d2, d2)
        bits = grown.least(kernels.search_good_coloring(grown, 13))
        assert write_okc(ColoredCompleteGraph.from_colex_bits(13, bits)) == (
            "13\nRRRRRRBBBBBB\nRBRBRRBBRBB\nBBBBRRBRRB\nRBRBRRRBB\nBBRBRRRB\nRBRRBRR"
            "\nRBRRBR\nRRBRR\nRBBR\nBBB\nRR\nR\n"
        )

    def test_solve_under_an_assumed_pair_color(self):
        # at N = 8 every pair of C4x,K3 can be Red, and two cannot be Blue
        c4x, k3 = (4, crossing_four_cycle().sorted_edges()), (3, k_pattern(3).sorted_edges())
        grown = solver(c4x, k3)
        grown.grow(8)
        refuted = []
        for lit in range(2 * grown.nvars):
            got = grown.solve(lit)
            if got is None:
                refuted.append(lit & 1)
            else:
                assert got[lit >> 1] == lit & 1 and is_good(8, got, c4x, k3), lit
        assert refuted == [1, 1]
        assert is_good(8, grown.solve(), c4x, k3)
