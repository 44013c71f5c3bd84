"""Text format round-trips and parse rejection with 1-based line numbers."""

import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from ordramsey.core import ColoredCompleteGraph, Digraph, OrderedGraph, Tournament
from ordramsey.errors import ParseError
from ordramsey.io import (
    MAX_VERTICES,
    load_path,
    parse_dg,
    parse_og,
    parse_okc,
    parse_trn,
    write_dg,
    write_og,
    write_okc,
    write_trn,
)

from conftest import random_ordered_graph


class TestOgRoundTrip:
    def test_simple(self):
        g = OrderedGraph(4, [(1, 2), (2, 4)])
        assert parse_og(write_og(g)).sorted_edges() == g.sorted_edges()

    def test_empty_graph(self):
        g = OrderedGraph(3)
        text = write_og(g)
        assert text == "3 0\n"
        back = parse_og(text)
        assert back.n == 3 and back.m == 0

    def test_seeded_round_trips(self):
        for seed in range(30):
            g = random_ordered_graph(seed % 9 + 2, 0.5, seed)
            back = parse_og(write_og(g))
            assert back.n == g.n
            assert back.sorted_edges() == g.sorted_edges()

    @given(st.integers(1, 10), st.integers(0, 10 ** 6))
    @settings(max_examples=50, deadline=None)
    def test_hypothesis_round_trip(self, n, seed):
        g = random_ordered_graph(n, 0.4, seed)
        back = parse_og(write_og(g))
        assert back.sorted_edges() == g.sorted_edges()


class TestOgRejects:
    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_og("")

    def test_bad_header(self):
        with pytest.raises(ParseError) as e:
            parse_og("3\n")
        assert "line 1" in str(e.value)

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_og("3 2\n1 2\n")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_og("2 1\n1 2\nextra\n")

    def test_reversed_edge_names_line(self):
        with pytest.raises(ParseError) as e:
            parse_og("3 1\n2 1\n")
        assert "line 2" in str(e.value)

    def test_duplicate_edge(self):
        with pytest.raises(ParseError) as e:
            parse_og("3 2\n1 2\n1 2\n")
        assert "line 3" in str(e.value)

    def test_out_of_order_edges(self):
        with pytest.raises(ParseError):
            parse_og("4 2\n2 3\n1 2\n")

    def test_non_integer(self):
        with pytest.raises(ParseError):
            parse_og("2 1\n1 x\n")


# (parser, text, line, message): one fault per text, except where a text has
# two and the first must be named
PAIR_LINE_ERRORS = [
    (parse_og, "", 1, "empty input"),
    (parse_og, "3 -1\n", 1, "n and m must be nonnegative"),
    (parse_og, "3 1\n1 2\n1 3\n", 3, "expected 1 edge lines, found 2"),
    (parse_og, "3 1\n1 2 3\n", 2, "expected 2 integers, got '1 2 3'"),
    (parse_og, "3 1\n2 1\n", 2, "edge (2, 1) is not 1 <= i < j <= 3"),
    (parse_og, "3 2\n1 2\n1 2\n", 3, "duplicate edge (1, 2)"),
    (parse_og, "4 3\n1 2\n2 3\n1 2\n", 4, "edge (1, 2) out of ascending order"),
    (parse_og, "4 2\n1 5\n1 x\n", 2, "edge (1, 5) is not 1 <= i < j <= 4"),
    (parse_og, "4 2\n2 3\n1 x\n3 4\n", 4, "expected 2 edge lines, found 3"),
    (parse_dg, "3 -2\n", 1, "n and m must be nonnegative"),
    (parse_dg, "3 2\n2 2\n", 2, "expected 2 arc lines, found 1"),
    (parse_dg, "3 2\n3 1\n2 2\n", 3, "arc (2, 2) out of range for 1..3"),
    (parse_dg, "3 3\n3 1\n1 2\n3 1\n", 4, "duplicate arc (3, 1)"),
    (parse_dg, "3 2\n0 1\n1 x\n", 2, "arc (0, 1) out of range for 1..3"),
    (parse_okc, "-1\n", 1, "N must be nonnegative"),
    (parse_trn, "2 2\n", 1, "expected 1 integers, got '2 2'"),
]


class TestParseErrors:
    @pytest.mark.parametrize("parse, text, line, message", PAIR_LINE_ERRORS)
    def test_text_and_first_bad_line(self, parse, text, line, message):
        with pytest.raises(ParseError) as e:
            parse(text)
        assert (e.value.line, str(e.value)) == (line, f"line {line}: {message}")

    @pytest.mark.parametrize("parse", [parse_og, parse_dg, parse_okc, parse_trn])
    def test_vertex_count_above_the_limit(self, parse):
        # one header integer for .okc and .trn, two for .og and .dg
        header = f"{MAX_VERTICES + 1}" + (" 0" if parse in (parse_og, parse_dg) else "")
        with pytest.raises(ParseError) as e:
            parse(header + "\n")
        message = f"vertex count {MAX_VERTICES + 1} is above the limit of {MAX_VERTICES}"
        assert (e.value.line, str(e.value)) == (1, f"line 1: {message}")


class TestOkc:
    def test_round_trip(self):
        for seed in range(10):
            c = ColoredCompleteGraph.from_random(seed % 7 + 2, seed)
            back = parse_okc(write_okc(c))
            assert back.N == c.N
            assert back.red_rows == c.red_rows

    def test_single_vertex(self):
        c = ColoredCompleteGraph.from_random(1, 0)
        assert parse_okc(write_okc(c)).N == 1

    def test_explicit_rows(self):
        c = parse_okc("3\nRB\nR\n")
        from ordramsey.core import Color

        assert c.color_of(1, 2) is Color.RED
        assert c.color_of(1, 3) is Color.BLUE
        assert c.color_of(2, 3) is Color.RED

    def test_bad_char(self):
        with pytest.raises(ParseError) as e:
            parse_okc("3\nRX\nR\n")
        assert "line 2" in str(e.value)

    def test_short_row(self):
        with pytest.raises(ParseError):
            parse_okc("3\nR\nR\n")

    def test_row_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_okc("4\nRRB\nRB\n")


class TestDg:
    def test_round_trip(self):
        d = Digraph(4, [(2, 1), (1, 3), (3, 4)])
        back = parse_dg(write_dg(d))
        assert back.n == d.n
        assert back.arcs() == d.arcs()

    def test_duplicate_arc_rejected(self):
        with pytest.raises(ParseError):
            parse_dg("3 2\n1 2\n1 2\n")

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError):
            parse_dg("3 1\n2 2\n")

    def test_arc_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_dg("3 3\n1 2\n2 3\n")


class TestTrn:
    def test_round_trip(self):
        for seed in range(10):
            t = Tournament.from_random(seed % 8 + 2, random.Random(seed))
            back = parse_trn(write_trn(t))
            assert back.N == t.N
            assert back.beats == t.beats

    def test_explicit(self):
        # colex pair order for N=3: (1,2), (1,3), (2,3)
        t = parse_trn("3\n>\n<\n>\n")
        assert t.has_arc(1, 2)
        assert t.has_arc(3, 1)
        assert t.has_arc(2, 3)

    def test_bad_char(self):
        with pytest.raises(ParseError):
            parse_trn("3\n>\nx\n>\n")

    def test_pair_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_trn("3\n>\n<\n")


def per_pair_write_trn(t):
    out = [str(t.N)]
    for j in range(2, t.N + 1):
        for i in range(1, j):
            out.append(">" if t.has_arc(i, j) else "<")
    return "\n".join(out) + "\n"


def per_pair_parse_trn(text):
    """One step per pair line: the parser the per-column one must agree with."""
    lines = text.split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError("empty input", 1)
    parts = lines[0].split()
    if len(parts) != 1:
        raise ParseError(f"expected 1 integers, got {lines[0]!r}", 1)
    n = int(parts[0])
    expected = n * (n - 1) // 2
    if len(lines) != 1 + expected:
        raise ParseError(f"expected {expected} pair lines, found {len(lines) - 1}", len(lines))
    arcs = []
    k = 1
    for j in range(2, n + 1):
        for i in range(1, j):
            if lines[k] == ">":
                arcs.append((i, j))
            elif lines[k] == "<":
                arcs.append((j, i))
            else:
                raise ParseError(f"expected '>' or '<', got {lines[k]!r}", 1 + k)
            k += 1
    return Tournament.from_arcs(n, arcs)


def random_tournaments(max_n):
    return st.integers(0, max_n).flatmap(
        lambda n: st.builds(Tournament.from_random, st.just(n), st.randoms())
    )


class TestTrnPerColumn:
    @settings(max_examples=100, deadline=None)
    @given(random_tournaments(12))
    def test_writer_matches_per_pair_and_round_trips(self, t):
        text = write_trn(t)
        assert text == per_pair_write_trn(t)
        assert parse_trn(text) == t

    @settings(max_examples=300, deadline=None)
    @given(
        random_tournaments(12),
        st.lists(
            st.tuples(
                st.integers(0, 10**6),
                st.sampled_from(["x", "", ">>", "<<", " <", "> ", "\r>", "R", "<\r"]),
            ),
            max_size=3,
        ),
        st.integers(-2, 2),
    )
    def test_errors_match_per_pair_parser(self, t, bad, extra):
        lines = write_trn(t).split("\n")[:-1]
        for pos, junk in bad:
            if len(lines) > 1:
                lines[1 + pos % (len(lines) - 1)] = junk
        if extra > 0:
            lines += ["<"] * extra
        elif extra < 0:
            lines = lines[: max(1, len(lines) + extra)]
        text = "\n".join(lines) + "\n"
        try:
            expected = per_pair_parse_trn(text)
        except ParseError as err:
            with pytest.raises(ParseError) as got:
                parse_trn(text)
            assert (str(got.value), got.value.line) == (str(err), err.line)
        else:
            assert parse_trn(text) == expected


def per_pair_write_okc(c):
    out = [str(c.N)]
    for k in range(1, c.N):
        row = c.red_rows[k]
        out.append("".join("R" if row & (1 << j) else "B" for j in range(k + 1, c.N + 1)))
    return "\n".join(out) + "\n"


def per_pair_parse_okc(text):
    """One step per character: the parser the per-row one must agree with."""
    lines = text.split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError("empty input", 1)
    parts = lines[0].split()
    if len(parts) != 1:
        raise ParseError(f"expected 1 integers, got {lines[0]!r}", 1)
    n = int(parts[0])
    expected = max(0, n - 1)
    if len(lines) != 1 + expected:
        raise ParseError(f"expected {expected} row lines, found {len(lines) - 1}", len(lines))
    red = []
    for k in range(1, n):
        row = lines[k]
        if len(row) != n - k:
            raise ParseError(f"row {k} must hold {n - k} characters, got {len(row)}", 1 + k)
        for offset, ch in enumerate(row):
            if ch == "R":
                red.append((k, k + 1 + offset))
            elif ch != "B":
                raise ParseError(f"invalid color character {ch!r}", 1 + k)
    return ColoredCompleteGraph.from_red_edges(n, red)


def per_pair_from_colex_bits(n, bits):
    pairs = [(i, j) for j in range(2, n + 1) for i in range(1, j)]
    assert len(bits) == len(pairs)
    return ColoredCompleteGraph.from_red_edges(n, [p for p, b in zip(pairs, bits) if b == 0])


def random_colorings(max_n):
    shares = st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0])
    return st.builds(
        ColoredCompleteGraph.from_random, st.integers(0, max_n), st.integers(0, 10**6), shares
    )


def colex_bits(max_n):
    def of_size(n):
        pairs = n * (n - 1) // 2
        return st.tuples(st.just(n), st.lists(st.integers(0, 1), min_size=pairs, max_size=pairs))

    return st.integers(0, max_n).flatmap(of_size)


class TestOkcPerRow:
    # sha256 of write_okc(ColoredCompleteGraph.from_random(N, seed, p)) as
    # written by the per-pair writer
    GOLDEN = [
        (0, 0, 0.5, "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
        (1, 0, 0.5, "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
        (2, 3, 0.5, "b9acc3c08dbe92b0ce875490b7b5ee79233fe1bcd557b6158bf1d2debe90ce0f"),
        (17, 1, 0.5, "3581c91c2ad0c5854d19921b06c0e28d54ae24f118e291172f7c33ef653c33ac"),
        (60, 5, 0.3, "4448c4814cb22a6874c2b1e959998639c7e64ec31301cef536de2130fac14ce5"),
        (120, 42, 0.5, "d4c71e739f1462812829d2fb9017413d9b0ed8d13da20a71e9dfbaff01c56f93"),
        (200, 7, 0.9, "a1dd334abe8ad585cdf735f307e9dd6f25381f1fe1a1a8f40262c285dcef4a40"),
    ]

    @settings(max_examples=150, deadline=None)
    @given(random_colorings(14))
    def test_writer_matches_per_pair_and_round_trips(self, c):
        text = write_okc(c)
        assert text == per_pair_write_okc(c)
        assert parse_okc(text) == c

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_smallest_sizes(self, n):
        for share in (0.0, 1.0):
            c = ColoredCompleteGraph.from_random(n, 0, share)
            text = write_okc(c)
            assert text == per_pair_write_okc(c)
            assert parse_okc(text) == c

    @settings(max_examples=300, deadline=None)
    @given(
        random_colorings(14),
        st.lists(
            st.tuples(
                st.integers(0, 10**6),
                st.integers(0, 10**6),
                st.sampled_from(["X", "r", " ", "\r"]),
            ),
            max_size=3,
        ),
        st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from([-1, 1])), max_size=2),
        st.integers(-2, 2),
    )
    def test_errors_match_per_pair_parser(self, c, junk, resize, extra):
        lines = write_okc(c).split("\n")[:-1]
        for row, col, ch in junk:
            if len(lines) > 1:
                k = 1 + row % (len(lines) - 1)
                pos = col % (len(lines[k]) + 1)
                lines[k] = lines[k][:pos] + ch + lines[k][pos + 1 :]
        for row, delta in resize:
            if len(lines) > 1:
                k = 1 + row % (len(lines) - 1)
                lines[k] = lines[k][:-1] if delta < 0 else lines[k] + "B"
        if extra > 0:
            lines += ["R"] * extra
        elif extra < 0:
            lines = lines[: max(1, len(lines) + extra)]
        text = "\n".join(lines) + "\n"
        try:
            expected = per_pair_parse_okc(text)
        except ParseError as err:
            with pytest.raises(ParseError) as got:
                parse_okc(text)
            assert (str(got.value), got.value.line) == (str(err), err.line)
        else:
            assert parse_okc(text) == expected

    @pytest.mark.parametrize("n, seed, p, digest", GOLDEN)
    def test_golden_digests(self, n, seed, p, digest):
        text = write_okc(ColoredCompleteGraph.from_random(n, seed, p))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @settings(max_examples=150, deadline=None)
    @given(colex_bits(16))
    def test_from_colex_bits_matches_per_pair(self, case):
        n, bits = case
        assert ColoredCompleteGraph.from_colex_bits(n, bits) == per_pair_from_colex_bits(n, bits)


class TestPathHelpers:
    def test_save_and_load_each_kind(self, tmp_path):
        g = OrderedGraph(3, [(1, 3)])
        c = ColoredCompleteGraph.from_random(4, 0)
        d = Digraph(3, [(3, 1)])
        t = Tournament.from_random(5, random.Random(1))
        for name, obj, writer in (
            ("a.og", g, write_og),
            ("b.okc", c, write_okc),
            ("c.dg", d, write_dg),
            ("d.trn", t, write_trn),
        ):
            p = tmp_path / name
            p.write_text(writer(obj))
            back = load_path(p)
            assert type(back) is type(obj) and back == obj

    def test_unknown_extension(self, tmp_path):
        p = tmp_path / "thing.xyz"
        p.write_text("payload")
        with pytest.raises(ParseError):
            load_path(p)
