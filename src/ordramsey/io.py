"""Text formats for ordered graphs (.og), pair colorings (.okc), digraphs (.dg)
and tournaments (.trn).

.og   line 1 "n m"; then m lines "i j" with i < j, in ascending lexicographic order.
.okc  line 1 "N"; then N-1 lines, line k holding N-k characters from {R, B} for
      the pairs (k, k+1) .. (k, N).
.dg   line 1 "n m"; then m lines "u v", one arc per line.
.trn  line 1 "N"; then one line per pair (i, j), i < j, in colex order, holding
      '>' for the arc i->j or '<' for the arc j->i.

Parsers reject duplicate edges/arcs, any trailing garbage and a vertex count
above MAX_VERTICES.
"""

from __future__ import annotations

from pathlib import Path

from .core import (
    ColoredCompleteGraph,
    Digraph,
    OrderedGraph,
    Tournament,
    symmetric_rows,
    transpose_masks,
    unchecked,
)
from .errors import ParseError

# the most vertices a file may declare: its header alone sizes the rows built
MAX_VERTICES = 1 << 20


def _lines(text: str) -> list[str]:
    lines = text.split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    return lines


def _ints(line: str, count: int, lineno: int) -> list[int]:
    parts = line.split()
    if len(parts) != count:
        raise ParseError(f"expected {count} integers, got {line!r}", lineno)
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ParseError(f"non-integer token in {line!r}", lineno) from None


def _header(lines: list[str], names: tuple[str, ...]) -> list[int]:
    """The header integers of line 1, named by names, the vertex count first.

    They must be nonnegative, and the vertex count at most MAX_VERTICES.
    """
    if not lines:
        raise ParseError("empty input", 1)
    values = _ints(lines[0], len(names), 1)
    if min(values) < 0:
        raise ParseError(f"{' and '.join(names)} must be nonnegative", 1)
    if values[0] > MAX_VERTICES:
        raise ParseError(f"vertex count {values[0]} is above the limit of {MAX_VERTICES}", 1)
    return values


def _pair_lines(lines: list[str], n: int, edges: bool) -> list[tuple[int, int]]:
    """The pairs on lines 2 onward, each line read and checked before the next.

    Edges are pairs 1 <= i < j <= n in ascending order, arcs pairs u != v
    of 1..n; neither may repeat.
    """
    pairs: list[tuple[int, int]] = []
    seen = set()
    for lineno in range(2, len(lines) + 1):
        u, v = pair = tuple(_ints(lines[lineno - 1], 2, lineno))
        if edges and not 1 <= u < v <= n:
            raise ParseError(f"edge {pair} is not 1 <= i < j <= {n}", lineno)
        if u == v or not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"arc {pair} out of range for 1..{n}", lineno)
        if edges and pairs and pair < pairs[-1]:
            raise ParseError(f"edge {pair} out of ascending order", lineno)
        if pair in seen:
            raise ParseError(f"duplicate {'edge' if edges else 'arc'} {pair}", lineno)
        seen.add(pair)
        pairs.append(pair)
    return pairs


def parse_og(text: str) -> OrderedGraph:
    lines = _lines(text)
    n, m = _header(lines, ("n", "m"))
    if len(lines) != 1 + m:
        raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}", len(lines))
    return OrderedGraph(n, _pair_lines(lines, n, edges=True))


def write_og(g: OrderedGraph) -> str:
    out = [f"{g.n} {g.m}"]
    out.extend(f"{i} {j}" for i, j in g.sorted_edges())
    return "\n".join(out) + "\n"


_DROP_COLORS = str.maketrans("", "", "RB")
_COLOR_TO_BIT = str.maketrans("RB", "10")
_BIT_TO_COLOR = str.maketrans("10", "RB")


def parse_okc(text: str) -> ColoredCompleteGraph:
    """Parse a .okc file one row at a time.

    Row k, as digits ('R' = 1) after k + 1 zeros, is row k of an
    upper-triangle grid, which symmetric_rows turns into adjacency rows.
    Only a row that fails the check is scanned character by character, to
    name its first bad character.
    """
    lines = _lines(text)
    (n_val,) = _header(lines, ("N",))
    expected = max(0, n_val - 1)
    if len(lines) != 1 + expected:
        raise ParseError(f"expected {expected} row lines, found {len(lines) - 1}", len(lines))
    grid = ["0" * (n_val + 1)] * (n_val + 1)
    for k in range(1, n_val):
        row = lines[k]
        if len(row) != n_val - k:
            raise ParseError(f"row {k} must hold {n_val - k} characters, got {len(row)}", k + 1)
        if row.translate(_DROP_COLORS):
            for ch in row:
                if ch not in "RB":
                    raise ParseError(f"invalid color character {ch!r}", k + 1)
        grid[k] = "0" * (k + 1) + row.translate(_COLOR_TO_BIT)
    return unchecked(ColoredCompleteGraph, n_val, symmetric_rows("".join(grid), n_val))


def write_okc(c: ColoredCompleteGraph) -> str:
    """One string per row: bits k + 1 .. N of red_rows[k], lowest first."""
    out = [str(c.N)]
    for k in range(1, c.N):
        bits = format(c.red_rows[k] >> (k + 1), f"0{c.N - k}b")
        out.append(bits[::-1].translate(_BIT_TO_COLOR))
    return "\n".join(out) + "\n"


def parse_dg(text: str) -> Digraph:
    lines = _lines(text)
    n, m = _header(lines, ("n", "m"))
    if len(lines) != 1 + m:
        raise ParseError(f"expected {m} arc lines, found {len(lines) - 1}", len(lines))
    return Digraph(n, _pair_lines(lines, n, edges=False))


def write_dg(d: Digraph) -> str:
    arcs = d.arcs()
    out = [f"{d.n} {len(arcs)}"]
    out.extend(f"{u} {v}" for u, v in arcs)
    return "\n".join(out) + "\n"


_DROP_ARCS = str.maketrans("", "", "<>")
_ARC_TO_BIT = str.maketrans("<>", "10")
_BIT_TO_ARC = str.maketrans("10", "<>")


def parse_trn(text: str) -> Tournament:
    """Parse a .trn file one column at a time.

    Column j is the j - 1 lines of the pairs (1, j) .. (j - 1, j).  Joined
    by newlines they must alternate arc character and newline; the arc
    characters, reversed and read as binary ('<' = 1), are the vertices
    below j that j beats.  Only a column that fails the check is scanned
    line by line, to name its first bad line.
    """
    lines = _lines(text)
    (n_val,) = _header(lines, ("N",))
    expected = n_val * (n_val - 1) // 2
    if len(lines) != 1 + expected:
        raise ParseError(f"expected {expected} pair lines, found {len(lines) - 1}", len(lines))
    below = [0] * (n_val + 1)
    k = 1
    for j in range(2, n_val + 1):
        column = "\n".join(lines[k : k + j - 1])
        if len(column) != 2 * j - 3 or column[::2].translate(_DROP_ARCS):
            for i in range(j - 1):
                if lines[k + i] not in (">", "<"):
                    raise ParseError(f"expected '>' or '<', got {lines[k + i]!r}", k + i + 1)
        below[j] = int(column[::-2].translate(_ARC_TO_BIT), 2) << 1
        k += j - 1
    # pair (i, j) is i -> j exactly when bit i of below[j] is clear
    above = transpose_masks(below, n_val)
    top = 1 << (n_val + 1)
    rows = [0] + [below[v] | ((top - (2 << v)) & ~above[v]) for v in range(1, n_val + 1)]
    return unchecked(Tournament, n_val, tuple(rows))


def write_trn(t: Tournament) -> str:
    """One string per column: for i < j, bit i - 1 of beats[j] >> 1 says j -> i ('<').

    Column j's j - 1 bits are formatted at fixed width, reversed so that
    pair (1, j) comes first, translated to arc characters and joined with
    newlines.
    """
    out = [str(t.N)]
    for j in range(2, t.N + 1):
        low = (t.beats[j] >> 1) & ((1 << (j - 1)) - 1)
        out.append("\n".join(format(low, f"0{j - 1}b")[::-1].translate(_BIT_TO_ARC)))
    return "\n".join(out) + "\n"


# keyed by file extension; load_path looks its parser up here at each call, so a
# wrapper put in this table (a tracer's, a test's spy) sees every file it reads
_TYPES = {".og": OrderedGraph, ".okc": ColoredCompleteGraph, ".dg": Digraph, ".trn": Tournament}
_PARSERS = {".og": parse_og, ".okc": parse_okc, ".dg": parse_dg, ".trn": parse_trn}


def _suffix(path) -> str:
    suffix = Path(path).suffix
    if suffix not in _TYPES:
        raise ParseError(f"unknown file extension {suffix!r} for {Path(path)}")
    return suffix


def value_type(path) -> type:
    """The type a file of this extension parses to, without reading the file."""
    return _TYPES[_suffix(path)]


def load_path(path):
    """Parse a file by its extension."""
    return _PARSERS[_suffix(path)](Path(path).read_text())
