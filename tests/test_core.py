"""Core types: ordered graphs, colorings, tournaments, digraphs, densities."""

import re
from fractions import Fraction
from itertools import combinations, permutations
import random

import pytest
from hypothesis import given, settings, strategies as st

from ordramsey.constructions import InjectionResult, Subdivision, blowup
from ordramsey.core import (
    Color,
    ColoredCompleteGraph,
    Digraph,
    OrderedGraph,
    Tournament,
    bits_of,
    class_density,
    color_class,
    degeneracy,
    density_between,
    density_within,
    mask_of,
    ordered_pair_from_digraph,
    remove_isolated,
    sparser_color,
    symmetric_rows,
    record,
    transpose_masks,
    vertex_tuple,
)
from ordramsey.errors import DomainError, ParameterError
from ordramsey.io import parse_okc, parse_trn, write_okc, write_trn
from ordramsey.pipeline import RecursionParams
from ordramsey.skeleton import Skeleton

from conftest import (
    all_blue,
    all_red,
    complete_graph,
    naive_density_between,
    naive_density_within,
    outcome,
    random_ordered_graph,
)


class TestOrderedGraph:
    def test_duplicate_edges_collapse(self):
        g = OrderedGraph(4, [(1, 2), (3, 4), (1, 2)])
        assert g.sorted_edges() == [(1, 2), (3, 4)]
        assert g.m == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            OrderedGraph(3, [(1, 4)])
        with pytest.raises(DomainError):
            OrderedGraph(3, [(0, 2)])
        with pytest.raises(DomainError):
            OrderedGraph(3, [(2, 1)])

    def test_rejects_loop(self):
        with pytest.raises(DomainError):
            OrderedGraph(3, [(2, 2)])

    def test_degree_and_max_degree(self):
        g = OrderedGraph(4, [(1, 2), (1, 3), (1, 4)])
        assert [row.bit_count() for row in g.adj] == [0, 3, 1, 1, 1]
        assert g.max_degree() == 3

    def test_induced_relabels_in_order(self):
        g = OrderedGraph(5, [(1, 3), (3, 5), (2, 4)])
        sub, back = g.induced([1, 3, 5])
        assert sub.n == 3
        assert sub.sorted_edges() == [(1, 2), (2, 3)]
        assert [back[v] for v in (1, 2, 3)] == [1, 3, 5]


class TestDensities:
    def test_complete_density_one(self):
        g = complete_graph(4)
        assert density_within(g, [1, 2, 3, 4]) == 1

    def test_one_edge_three_slots(self):
        g = OrderedGraph(3, [(1, 2)])
        assert density_within(g, [1, 2, 3]) == Fraction(1, 3)

    def test_small_sets_return_zero(self):
        g = complete_graph(4)
        assert density_within(g, [2]) == 0
        assert density_within(g, []) == 0

    def test_out_of_range_rejected(self):
        g = complete_graph(3)
        with pytest.raises(DomainError):
            density_within(g, [1, 5])

    def test_between_complete_and_empty(self):
        bip = OrderedGraph(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
        assert density_between(bip, [1, 2], [3, 4]) == 1
        empty = OrderedGraph(4)
        assert density_between(empty, [1, 2], [3, 4]) == 0

    def test_between_rejects_overlap(self):
        g = complete_graph(4)
        with pytest.raises(DomainError):
            density_between(g, [1, 2], [2, 3])

    def test_exhaustive_small_graphs_match_naive(self):
        # every graph on up to 5 vertices, every vertex subset
        for n in range(2, 6):
            pairs = list(combinations(range(1, n + 1), 2))
            for bits in range(2 ** len(pairs)):
                edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
                g = OrderedGraph(n, edges)
                for size in range(2, n + 1):
                    for sub in combinations(range(1, n + 1), size):
                        assert density_within(g, sub) == naive_density_within(g, sub)
                if bits > 40 and n == 5:
                    break

    def test_randomized_larger_graphs_match_naive(self):
        rng = random.Random(7)
        for trial in range(200):
            n = rng.randint(7, 12)
            g = random_ordered_graph(n, rng.random(), trial)
            members = rng.sample(range(1, n + 1), rng.randint(2, n))
            assert density_within(g, members) == naive_density_within(g, members)
            rest = [v for v in range(1, n + 1) if v not in members]
            if rest:
                assert density_between(g, members, rest) == naive_density_between(
                    g, members, rest
                )

    @given(st.integers(2, 9), st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_density_within_range(self, n, seed):
        g = random_ordered_graph(n, 0.5, seed)
        d = density_within(g, range(1, n + 1))
        assert 0 <= d <= 1


class TestColoredCompleteGraph:
    def test_every_pair_has_one_color(self):
        c = ColoredCompleteGraph.from_random(8, 1)
        for i, j in combinations(range(1, 9), 2):
            assert c.color_of(i, j) in (Color.RED, Color.BLUE)

    def test_partition_identity(self):
        for seed in range(5):
            c = ColoredCompleteGraph.from_random(9, seed)
            red = color_class(c, Color.RED)
            blue = color_class(c, Color.BLUE)
            assert red.m + blue.m == 9 * 8 // 2

    def test_all_red_classes(self):
        c = all_red(5)
        assert color_class(c, Color.RED).m == 10
        assert color_class(c, Color.BLUE).m == 0

    def test_class_density_restricted(self):
        c = ColoredCompleteGraph.from_function(6, lambda i, j: j - i == 1)
        assert class_density(c, Color.RED, [1, 2, 3]) == Fraction(2, 3)

    def test_sparser_color_tie_goes_to_red(self):
        c = ColoredCompleteGraph.from_red_edges(4, [(1, 2), (3, 4), (1, 3)])
        assert sparser_color(c) == (Color.RED, Fraction(1, 2))
        assert sparser_color(c, [1, 2, 4]) == (Color.RED, Fraction(1, 3))
        assert sparser_color(c, [1, 2, 3]) == (Color.BLUE, Fraction(1, 3))

    @pytest.mark.parametrize("n, members", [(0, None), (1, None), (5, []), (5, [3])])
    @pytest.mark.parametrize("red", [True, False])
    def test_sparser_color_below_two_vertices_is_red_at_zero(self, n, members, red):
        c = ColoredCompleteGraph.from_function(n, lambda i, j: red)
        assert sparser_color(c, members) == (Color.RED, 0)

    def test_from_random_deterministic(self):
        a = ColoredCompleteGraph.from_random(10, 3)
        b = ColoredCompleteGraph.from_random(10, 3)
        assert a.red_rows == b.red_rows

    def test_from_colex_bits_too_few(self):
        with pytest.raises(DomainError, match=r"C\(4, 2\) = 6 colex bits, got 5"):
            ColoredCompleteGraph.from_colex_bits(4, [0] * 5)

    def test_from_colex_bits_too_many(self):
        with pytest.raises(DomainError, match=r"C\(4, 2\) = 6 colex bits, got 7"):
            ColoredCompleteGraph.from_colex_bits(4, [1] * 7)

    def test_from_colex_bits_value_two(self):
        with pytest.raises(DomainError, match="colex bit 2 is neither"):
            ColoredCompleteGraph.from_colex_bits(3, [0, 2, 3])

    def test_induced_preserves_colors(self):
        c = ColoredCompleteGraph.from_random(9, 5)
        sub, back = c.induced([2, 4, 7, 9])
        for i, j in combinations(range(1, 5), 2):
            assert sub.color_of(i, j) == c.color_of(back[i], back[j])


class TestColoringsBuiltUnchecked:
    """The package's own builders make colorings through core.unchecked, with no
    row check; each must equal the one the checked public constructor builds."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 20), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    def test_built_colorings_equal_checked_rebuilds(self, n, seed, p):
        c = ColoredCompleteGraph.from_random(n, seed, p)
        assert c == ColoredCompleteGraph(n, c.red_rows)
        assert parse_okc(write_okc(c)) == c
        bits = [int(c.color_of(i, j) is Color.BLUE) for j in range(2, n + 1) for i in range(1, j)]
        assert ColoredCompleteGraph.from_colex_bits(n, bits) == c
        members = random.Random(seed).sample(range(1, n + 1), n // 2)
        sub, back = c.induced(members)
        assert sub == ColoredCompleteGraph(sub.N, sub.red_rows)
        assert sub == ColoredCompleteGraph.from_function(
            sub.N, lambda i, j: c.color_of(back[i], back[j]) is Color.RED
        )

    def test_public_constructor_still_checks_symmetry(self):
        with pytest.raises(DomainError, match="^red adjacency not symmetric at pair"):
            ColoredCompleteGraph(2, (0, 1 << 2, 0))
        with pytest.raises(DomainError, match="^red adjacency not symmetric at pair"):
            ColoredCompleteGraph(3, [0, 0, 1 << 3, 1 << 1])


class TestTournamentsBuiltUnchecked:
    """Tournaments built through core.unchecked must equal the checked rebuild."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_built_tournaments_equal_checked_rebuilds(self, n, s, seed):
        rng = random.Random(seed)
        T = Tournament.from_random(n, rng)
        sub, _ = T.induced(rng.sample(range(1, n + 1), n // 2))
        for built in (T, parse_trn(write_trn(T)), blowup(T, Tournament.from_random(s, rng)), sub):
            assert built == Tournament(built.N, built.beats)
        assert parse_trn(write_trn(T)) == T

    @pytest.mark.parametrize(
        "N, beats, message",
        [
            (-1, (0,), "vertex count -1 is negative"),
            (2, (0, 0), "beats rows must have length N + 1 with index 0 empty"),
            (1, (1, 0), "beats rows must have length N + 1 with index 0 empty"),
            (2, (0, 2, 2), "vertex 1 has a self-arc"),
            (2, (0, 8, 2), "beats row 1 mentions vertices outside 1..2"),
            (2, (0, 1, 2), "beats row 1 mentions vertices outside 1..2"),
        ],
    )
    def test_public_constructor_still_rejects(self, N, beats, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            Tournament(N, beats)

    def test_random_rejects_a_negative_count(self):
        with pytest.raises(DomainError, match="^vertex count -1 is negative$"):
            Tournament.from_random(-1, random.Random(0))


class TestGraphsBuiltUnchecked:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 12), st.integers(0, 2**32 - 1))
    def test_built_graphs_equal_checked_rebuilds(self, n, seed):
        rng = random.Random(seed)
        g = OrderedGraph(n, [p for p in combinations(range(1, n + 1), 2) if rng.random() < 0.3])
        sub, _ = g.induced(rng.sample(range(1, n + 1), n // 2))
        bare, _ = remove_isolated(g)
        for built in (sub, bare):
            assert built == OrderedGraph.from_rows(built.n, built.adj)


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: OrderedGraph(-1), (DomainError, "vertex count -1 is negative")),
        (
            lambda: ColoredCompleteGraph.from_colex_bits(-1, []),
            (DomainError, "vertex count -1 is negative"),
        ),
        (lambda: Digraph(-1, []), (DomainError, "vertex count -1 is negative")),
        (lambda: all_red(3).color_of(1, 1), (DomainError, "(1, 1) is not a vertex pair of K_3")),
        (lambda: all_red(3).color_of(1, 4), (DomainError, "(1, 4) is not a vertex pair of K_3")),
        (
            lambda: density_between(complete_graph(3), [], [1]),
            (DomainError, "density_between requires nonempty sets"),
        ),
        (lambda: degeneracy(OrderedGraph(0)), 0),
    ],
    ids=[
        "ordered-graph-negative", "colex-negative", "digraph-negative", "color-of-loop",
        "color-of-outside", "density-between-empty", "degeneracy-of-nothing",
    ],
)
def test_input_checks(call, expected):
    assert outcome(call) == expected


class TestDegeneracy:
    def test_empty_graph(self):
        assert degeneracy(OrderedGraph(6)) == 0

    def test_complete_graph(self):
        for n in range(2, 7):
            assert degeneracy(complete_graph(n)) == n - 1

    def test_path_is_one_degenerate(self):
        g = OrderedGraph(6, [(i, i + 1) for i in range(1, 6)])
        assert degeneracy(g) == 1

    def test_cycle_is_two_degenerate(self):
        g = OrderedGraph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        assert degeneracy(g) == 2

    def test_bounded_by_max_degree(self):
        for seed in range(20):
            g = random_ordered_graph(10, 0.4, seed)
            assert degeneracy(g) <= g.max_degree()

    def test_forest_at_most_one(self):
        # random forests built by attaching each vertex to one earlier vertex
        rng = random.Random(11)
        for _ in range(10):
            edges = [(rng.randint(1, v - 1), v) for v in range(2, 10)]
            g = OrderedGraph(9, edges)
            assert degeneracy(g) <= 1


class TestRemoveIsolated:
    def test_no_isolated_identity(self):
        g = OrderedGraph(3, [(1, 2), (2, 3)])
        h, mapping = remove_isolated(g)
        assert h.sorted_edges() == g.sorted_edges()
        assert mapping == {1: 1, 2: 2, 3: 3}

    def test_relabeling(self):
        g = OrderedGraph(4, [(2, 4)])
        h, mapping = remove_isolated(g)
        assert h.n == 2
        assert h.sorted_edges() == [(1, 2)]
        assert mapping == {2: 1, 4: 2}

    def test_all_isolated(self):
        h, mapping = remove_isolated(OrderedGraph(5))
        assert h.n == 0
        assert mapping == {}


class TestDigraph:
    def test_duplicate_arcs_collapse(self):
        assert Digraph(3, [(1, 2), (1, 2)]).arcs() == [(1, 2)]

    def test_rejects_self_loop(self):
        with pytest.raises(DomainError):
            Digraph(3, [(2, 2)])

    def test_topological_order_lex_least(self):
        # two valid sources at each step; smallest index must win
        d = Digraph(4, [(2, 1), (3, 1), (4, 1)])
        assert tuple(d.topological_order()) == (2, 3, 4, 1)

    def test_cycle_raises_with_witness(self):
        d = Digraph(3, [(1, 2), (2, 3), (3, 1)])
        assert is_directed_cycle(d, cycle_witness(d))

    def test_topological_order_against_brute_force(self):
        # permutations come in lexicographic order, so the first one that
        # keeps every arc forward is the least topological order
        rng = random.Random(22)
        seen = {True: 0, False: 0}
        for _ in range(400):
            n = rng.randint(0, 6)
            p = rng.random() * 0.6
            pairs = permutations(range(1, n + 1), 2)
            d = Digraph(n, [pair for pair in pairs if rng.random() < p])
            least = next(
                (
                    order
                    for order in permutations(range(1, n + 1))
                    if all(order.index(u) < order.index(v) for u, v in d.arcs())
                ),
                None,
            )
            seen[least is None] += 1
            if least is None:
                assert is_directed_cycle(d, cycle_witness(d))
            else:
                assert d.topological_order() == least
        assert min(seen.values()) >= 100, seen


def cycle_witness(d):
    """The vertex tuple that topological_order's DomainError names."""
    with pytest.raises(DomainError) as exc:
        d.topological_order()
    found = re.fullmatch(r"digraph is not acyclic; a cycle exists: \(([0-9, ]+)\)", str(exc.value))
    assert found, str(exc.value)
    return tuple(int(v) for v in found.group(1).split(", "))


def is_directed_cycle(d, cycle):
    closing = cycle[1:] + cycle[:1]
    return len(set(cycle)) == len(cycle) >= 2 and all(d.out[u] >> v & 1 for u, v in zip(cycle, closing))


class TestOrderedPairFromDigraph:
    def test_single_arc(self):
        plus, minus = ordered_pair_from_digraph(Digraph(2, [(1, 2)]))
        assert plus.sorted_edges() == [(1, 2)]
        assert minus.sorted_edges() == [(1, 2)]

    def test_transitive_triangle(self):
        d = Digraph(3, [(1, 2), (1, 3), (2, 3)])
        plus, minus = ordered_pair_from_digraph(d)
        assert plus.sorted_edges() == [(1, 2), (1, 3), (2, 3)]
        assert minus.sorted_edges() == [(1, 2), (1, 3), (2, 3)]

    def test_cycle_rejected(self):
        with pytest.raises(DomainError):
            ordered_pair_from_digraph(Digraph(3, [(1, 2), (2, 3), (3, 1)]))

    def test_counts_preserved(self):
        rng = random.Random(2)
        for _ in range(15):
            n = rng.randint(2, 8)
            arcs = set()
            for i, j in combinations(range(1, n + 1), 2):
                if rng.random() < 0.5:
                    arcs.add((i, j))  # forward arcs keep it acyclic
            d = Digraph(n, arcs)
            plus, minus = ordered_pair_from_digraph(d)
            assert plus.n == n and minus.n == n
            assert plus.m == len(arcs) and minus.m == len(arcs)

    def test_reverse_order_flips_edges(self):
        # path 1->2->3: D+ uses order [1,2,3], D- uses [3,2,1]
        d = Digraph(3, [(1, 2), (2, 3)])
        plus, minus = ordered_pair_from_digraph(d)
        assert plus.sorted_edges() == [(1, 2), (2, 3)]
        assert minus.sorted_edges() == [(1, 2), (2, 3)]


class TestTournament:
    def test_from_arcs_total(self):
        t = Tournament.from_arcs(3, [(1, 2), (2, 3), (3, 1)])
        assert t.has_arc(1, 2) and t.has_arc(2, 3) and t.has_arc(3, 1)
        assert not t.has_arc(2, 1)

    def test_from_arcs_rejects_missing_pair(self):
        with pytest.raises(DomainError):
            Tournament.from_arcs(3, [(1, 2)])

    def test_from_random_deterministic(self):
        a = Tournament.from_random(12, random.Random(9))
        b = Tournament.from_random(12, random.Random(9))
        assert a.beats == b.beats

    def test_arcs_count(self):
        t = Tournament.from_random(7, random.Random(0))
        assert len(t.arcs()) == 21

    def test_induced(self):
        t = Tournament.from_random(8, random.Random(4))
        sub, back = t.induced([2, 5, 8])
        for i, j in permutations(range(1, 4), 2):
            assert sub.has_arc(i, j) == t.has_arc(back[i], back[j])


# on 3 vertices, each pair list holds one fault: a vertex outside 1..3, a
# reversed pair (for a tournament, both arcs of one pair) or a loop
@pytest.mark.parametrize(
    "build, pairs, message",
    [
        (ColoredCompleteGraph.from_red_edges, [(1, 2), (1, 4)], r"edge \(1, 4\) is not a pair"),
        (ColoredCompleteGraph.from_red_edges, [(1, 2), (3, 2)], r"edge \(3, 2\) is not a pair"),
        (ColoredCompleteGraph.from_red_edges, [(2, 2)], r"edge \(2, 2\) is not a pair"),
        (Tournament.from_arcs, [(1, 2), (1, 3), (2, 4)], r"arc \(2, 4\) out of range for 1\.\.3"),
        (
            Tournament.from_arcs, [(1, 2), (2, 1), (1, 3), (2, 3)],
            r"pair \(1, 2\) must have exactly one arc",
        ),
        (Tournament.from_arcs, [(1, 2), (3, 3), (2, 3)], r"arc \(3, 3\) out of range for 1\.\.3"),
    ],
    ids=["red-outside", "red-reversed", "red-loop", "arc-outside", "arc-reversed", "arc-loop"],
)
def test_pair_constructors_reject_a_bad_pair(build, pairs, message):
    with pytest.raises(DomainError, match=message):
        build(3, pairs)


def test_pair_constructors_collapse_duplicates():
    red = ColoredCompleteGraph.from_red_edges(3, [(1, 2), (1, 2)])
    assert red == ColoredCompleteGraph.from_red_edges(3, [(1, 2)])
    arcs = [(1, 2), (2, 3), (1, 3)]
    assert Tournament.from_arcs(3, arcs + arcs[:1]) == Tournament.from_arcs(3, arcs)


def first_bad_pair(N, rows):
    for u in range(1, N + 1):
        for v in range(u + 1, N + 1):
            if bool(rows[u] >> v & 1) == bool(rows[v] >> u & 1):
                return u, v
    return None


class TestTournamentCheck:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 9).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(0, 2), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
            )
        )
    )
    def test_names_the_first_bad_pair(self, drawn):
        # per pair: 0 and 1 pick one arc, 2 gives both or neither
        N, kinds = drawn
        rows = [0] * (N + 1)
        for (u, v), kind in zip(combinations(range(1, N + 1), 2), kinds):
            if kind == 0:
                rows[u] |= 1 << v
            elif kind == 1:
                rows[v] |= 1 << u
            elif (u + v) % 2:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        bad = first_bad_pair(N, rows)
        if bad is None:
            assert Tournament(N, tuple(rows)).beats == tuple(rows)
        else:
            with pytest.raises(DomainError, match=rf"^pair \({bad[0]}, {bad[1]}\) must"):
                Tournament(N, tuple(rows))


def drawn_pairs(max_n=12):
    """(n, pairs, members): a pair list on 1..n, one draw per pair, and a vertex subset."""
    return st.integers(0, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2).map(
                lambda bits: [p for p, b in zip(combinations(range(1, n + 1), 2), bits) if b]
            ),
            st.lists(st.booleans(), min_size=n, max_size=n).map(
                lambda bits: [v for v, b in zip(range(1, n + 1), bits) if b]
            ),
        )
    )


def rows_of(n, pairs):
    rows = [0] * (n + 1)
    for i, j in pairs:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return rows


def pairs_inside(pairs, members):
    """The pairs with both ends in members, relabeled to 1..k in order."""
    pos = {v: i + 1 for i, v in enumerate(sorted(members))}
    return {(pos[i], pos[j]) for i, j in pairs if i in pos and j in pos}


def reference_density(pairs, members):
    k = len(members)
    return Fraction(len(pairs_inside(pairs, members)), k * (k - 1) // 2) if k >= 2 else 0


def first_row_error(n, rows, what):
    """The DomainError text met first by a scan of the rows in order, each row's
    vertices ascending."""
    for v in range(1, n + 1):
        if rows[v] >> v & 1:
            return f"{what} row {v} mentions vertices outside 1..{n}"
        for u in range(1, n + 1):
            if rows[v] >> u & 1 and not rows[u] >> v & 1:
                return f"{what} adjacency not symmetric at pair ({u}, {v})"
    return None


class TestRowsRepresentation:
    @settings(max_examples=150, deadline=None)
    @given(drawn_pairs())
    def test_constructors_agree_with_the_pair_list(self, drawn):
        n, pairs, _ = drawn
        listed = OrderedGraph(n, pairs + pairs[::-1])
        from_rows = OrderedGraph.from_rows(n, rows_of(n, pairs))
        expect = set(pairs)
        for g in (listed, from_rows):
            assert g.n == n
            assert g.edges == frozenset(pairs)
            assert g.sorted_edges() == sorted(pairs)
            assert g.m == len(pairs)
            for i in range(-1, n + 3):
                for j in range(-1, n + 3):
                    assert g.has_edge(i, j) == ((min(i, j), max(i, j)) in expect), (i, j)
        assert listed == from_rows
        assert hash(listed) == hash(from_rows)
        assert listed != OrderedGraph(n + 1, pairs)
        if pairs:
            assert listed != OrderedGraph(n, pairs[1:])

    @settings(max_examples=150, deadline=None)
    @given(drawn_pairs())
    def test_color_classes_and_induced_match_the_pair_list(self, drawn):
        n, red, members = drawn
        everything = set(combinations(range(1, n + 1), 2))
        blue = everything - set(red)
        c = ColoredCompleteGraph.from_red_edges(n, red)
        assert color_class(c, Color.RED).edges == set(red)
        assert color_class(c, Color.BLUE).edges == blue
        keep = (0,) + tuple(sorted(members))

        sub, back = c.induced(members)
        assert back == keep
        assert color_class(sub, Color.RED).edges == pairs_inside(red, members)
        assert color_class(sub, Color.BLUE).edges == pairs_inside(blue, members)

        g_sub, back = OrderedGraph(n, red).induced(members)
        assert back == keep
        assert g_sub.n == len(members)
        assert g_sub.edges == pairs_inside(red, members)

        # a red pair (i, j) is the arc i -> j, a blue one j -> i
        t_sub, back = Tournament.from_arcs(n, red + [(j, i) for i, j in blue]).induced(members)
        assert back == keep
        inside = pairs_inside(red, members)
        assert set(t_sub.arcs()) == {
            (i, j) if (i, j) in inside else (j, i)
            for i, j in combinations(range(1, len(members) + 1), 2)
        }

    def test_induced_on_every_vertex_is_the_record_itself(self):
        red = [(1, 2), (2, 4), (1, 3)]
        blue = [(1, 4), (2, 3), (3, 4)]
        for rec in (
            OrderedGraph(4, red),
            ColoredCompleteGraph.from_red_edges(4, red),
            Tournament.from_arcs(4, red + [(j, i) for i, j in blue]),
        ):
            sub, back = rec.induced([4, 2, 3, 1])
            assert sub is rec and back == (0, 1, 2, 3, 4)

    @settings(max_examples=150, deadline=None)
    @given(drawn_pairs(max_n=14))
    def test_color_class_is_the_checked_graph_on_the_same_rows(self, drawn):
        n, red, _ = drawn
        blue = set(combinations(range(1, n + 1), 2)) - set(red)
        c = ColoredCompleteGraph.from_red_edges(n, red)
        for color, pairs in ((Color.RED, red), (Color.BLUE, blue)):
            g = color_class(c, color)
            assert g == OrderedGraph.from_rows(n, rows_of(n, pairs))
            assert g == OrderedGraph.from_rows(n, g.adj)

    @settings(max_examples=150, deadline=None)
    @given(drawn_pairs())
    def test_whole_coloring_density_equals_the_member_form(self, drawn):
        n, red, _ = drawn
        everyone = range(1, n + 1)
        for c in (ColoredCompleteGraph.from_red_edges(n, red), all_red(n), all_blue(n)):
            for color in (Color.RED, Color.BLUE):
                assert class_density(c, color) == class_density(c, color, everyone)
            assert sparser_color(c) == sparser_color(c, everyone)

    @settings(max_examples=150, deadline=None)
    @given(drawn_pairs())
    def test_densities_match_the_pair_list(self, drawn):
        n, red, members = drawn
        blue = sorted(set(combinations(range(1, n + 1), 2)) - set(red))
        c = ColoredCompleteGraph.from_red_edges(n, red)
        assert density_within(OrderedGraph(n, red), members) == reference_density(red, members)
        assert class_density(c, Color.RED, members) == reference_density(red, members)
        assert class_density(c, Color.BLUE, members) == reference_density(blue, members)
        everyone = range(1, n + 1)
        assert class_density(c, Color.BLUE) == reference_density(blue, everyone)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 9).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(0, 3), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
                st.lists(st.integers(0, 9), max_size=2),
            )
        )
    )
    def test_rows_check_names_the_first_bad_row(self, drawn):
        # per pair: 0 neither direction, 1 both, 2 and 3 only one; plus a few loops
        n, kinds, loops = drawn
        rows = [0] * (n + 1)
        for (u, v), kind in zip(combinations(range(1, n + 1), 2), kinds):
            if kind in (1, 2):
                rows[u] |= 1 << v
            if kind in (1, 3):
                rows[v] |= 1 << u
        for v in loops:
            if 1 <= v <= n:
                rows[v] |= 1 << v
        for what, build in (
            ("red", lambda: ColoredCompleteGraph(n, tuple(rows)).red_rows),
            ("graph", lambda: OrderedGraph.from_rows(n, rows).adj),
        ):
            error = first_row_error(n, rows, what)
            if error is None:
                assert build() == tuple(rows)
            else:
                with pytest.raises(DomainError, match=f"^{re.escape(error)}$"):
                    build()

    def test_rows_shape_and_range_errors(self):
        with pytest.raises(DomainError, match="^vertex count -1 is negative$"):
            OrderedGraph.from_rows(-1, [0])
        with pytest.raises(DomainError, match="^graph adjacency rows must have length N"):
            OrderedGraph.from_rows(2, [0, 4])
        with pytest.raises(DomainError, match="^graph adjacency rows must have length N"):
            OrderedGraph.from_rows(1, [1, 0])
        with pytest.raises(DomainError, match=r"^graph row 1 mentions vertices outside 1\.\.2$"):
            OrderedGraph.from_rows(2, [0, 1 << 3, 0])
        with pytest.raises(DomainError, match=r"^red row 2 mentions vertices outside 1\.\.2$"):
            ColoredCompleteGraph(2, (0, 0, 1))


class TestMaskHelpers:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 12).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(0, 2 ** (n + 1) - 1), min_size=n + 1, max_size=n + 1),
            )
        )
    )
    def test_transpose_masks(self, drawn):
        n, rows = drawn
        cols = transpose_masks(rows, n)
        assert len(cols) == n + 1
        for u in range(n + 1):
            for v in range(n + 1):
                assert cols[v] >> u & 1 == rows[u] >> v & 1
        assert transpose_masks(cols, n) == rows

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 12).flatmap(
            lambda n: st.tuples(
                st.just(n), st.text("01", min_size=(n + 1) ** 2, max_size=(n + 1) ** 2)
            )
        )
    )
    def test_symmetric_rows(self, drawn):
        n, grid = drawn
        rows = symmetric_rows(grid, n)
        w = n + 1
        assert len(rows) == w
        for u in range(w):
            for v in range(w):
                marked = grid[u * w + v] == "1" or grid[v * w + u] == "1"
                assert rows[u] >> v & 1 == marked

    def test_round_trip(self):
        vs = [3, 1, 7]
        assert list(bits_of(mask_of(vs))) == [1, 3, 7]

    def test_vertex_tuple_sorted_and_checked(self):
        assert vertex_tuple([3, 1], 5) == (1, 3)
        with pytest.raises(DomainError):
            vertex_tuple([0, 2], 5)
        with pytest.raises(DomainError):
            vertex_tuple([1, 1], 5)

    @pytest.mark.parametrize(
        "members, message",
        [
            ([0, 2, 9], "vertex 0 out of range"),
            ([2, 9, 7], "vertex 7 out of range"),
            ([3, 2.0, 1], "vertex 2.0 out of range"),
            ([1, 2.5, 4], "vertex 2.5 out of range"),
            ([1, True, 3], "duplicate vertices"),
            ([6, 6, 1], "vertex 6 out of range"),
            ([4, 4, 1], "duplicate vertices"),
        ],
    )
    def test_vertex_tuple_names_the_first_bad_vertex_in_sorted_order(self, members, message):
        with pytest.raises(DomainError, match=f"^set: {message}"):
            vertex_tuple(members, 5, "set")

    def test_vertex_tuple_accepts_the_range_ends(self):
        assert vertex_tuple(range(5, 0, -1), 5) == (1, 2, 3, 4, 5)
        assert vertex_tuple([], 0) == ()


# Each repr is the text @dataclass(frozen=True) printed for the same record.
RECORDS = [
    pytest.param(
        lambda: Skeleton([3], [[1, 2], [4, 5]], 1, 2),
        "Skeleton(spine=(3,), blocks=((1, 2), (4, 5)), a=1, b=2)",
        id="own-init",
    ),
    pytest.param(
        lambda: InjectionResult(mapping=(2, 1), nodes=3, exhausted=False),
        "InjectionResult(mapping=(2, 1), nodes=3, exhausted=False)",
        id="keywords",
    ),
    pytest.param(
        lambda: RecursionParams(Fraction(1, 10), 5, 3, 0.75, 2, 1, 40),
        "RecursionParams(c=Fraction(1, 10), k1=5, k2=3, alpha=0.75, h1=2, h2=1, window=40)",
        id="post-init",
    ),
    pytest.param(
        lambda: Subdivision(3, Digraph(4, [(1, 4), (4, 2), (4, 3)]), {(1, 2, 3): 4}),
        "Subdivision(n=3, digraph=Digraph(n=4, out=(0, 16, 0, 0, 12)), "
        "triple_index={(1, 2, 3): 4})",
        id="dict-field",
    ),
]


class TestRecord:
    @pytest.mark.parametrize("make, text", RECORDS)
    def test_contract(self, make, text):
        a, b = make(), make()
        assert repr(a) == text
        assert a == b and a is not b
        names = tuple(type(a).__annotations__)
        fields = tuple(getattr(a, name) for name in names)
        if any(isinstance(value, dict) for value in fields):
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b) == hash(fields)
        twin = record(type(type(a).__name__, (), {"__annotations__": dict.fromkeys(names)}))
        assert a != twin(*fields) and twin(*fields) != a
        for name in (names[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(a, name, 1)
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert a == b

    def test_post_init_still_checks(self):
        with pytest.raises(ParameterError):
            RecursionParams(Fraction(1, 2), 5, 3, 0.75, 2, 1, 40)
        with pytest.raises(ParameterError):
            RecursionParams(c=Fraction(0), k1=5, k2=3, alpha=0.75, h1=2, h2=1, window=40)

    def test_defaults_and_argument_errors(self):
        # a class attribute is not a default: every field is given once
        @record
        class Pair:
            x: int
            y: int = 7

        assert Pair(1, 7) == Pair(x=1, y=7) == Pair(y=7, x=1)
        assert repr(Pair(1, 7)).endswith("Pair(x=1, y=7)")
        for args, kwargs in [
            ((), {}), ((1,), {}), ((1, 2, 3), {}), ((1,), {"x": 1}), ((1,), {"z": 2})
        ]:
            with pytest.raises(TypeError):
                Pair(*args, **kwargs)
