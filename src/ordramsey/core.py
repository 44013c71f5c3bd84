"""Core types for ordered graphs, 2-colored complete graphs, tournaments and digraphs.

Vertices are labeled 1..n everywhere, and an ordered graph's edges are pairs
(i, j) with i < j.  Adjacency is kept as bitmasks (bit v <=> vertex v, bit 0
unused), which the search kernels consume directly.  All densities are exact
``fractions.Fraction`` values.
"""

from __future__ import annotations

import random
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import attrgetter, itemgetter, not_
from typing import Iterable, Iterator, Sequence

from .errors import DomainError


class Color(Enum):
    RED = "red"
    BLUE = "blue"

    @property
    def other(self) -> "Color":
        return Color.BLUE if self is Color.RED else Color.RED

    def __str__(self) -> str:
        return self.value


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def transpose_masks(rows: Iterable[int], n: int) -> list[int]:
    """Transpose of a 0/1 matrix given as row masks on bits 0..n.

    rows holds n + 1 masks, each below 1 << (n + 1); bit u of result[v] is
    bit v of rows[u].  One binary string per row, then one strided slice per
    column, so the work is in C rather than one Python step per entry.
    """
    w = n + 1
    grid = "".join([format(r, f"0{w}b")[::-1] for r in rows])
    return [int(grid[u::w][::-1], 2) for u in range(w)]


def symmetric_rows(grid: str, n: int) -> tuple[int, ...]:
    """Adjacency rows on 0..n of the pairs marked in a 0/1 matrix.

    grid is the (n + 1) x (n + 1) matrix as one string of '0' and '1', row u
    holding columns 0..n; bit v of result[u] is set when entry (u, v) or
    entry (v, u) is '1'.  Row u is one slice and column u one strided slice
    of the reversed grid, so the work is in C rather than one Python step
    per entry.
    """
    w = n + 1
    rev = grid[::-1]
    return tuple(
        int(rev[(n - u) * w : (n - u + 1) * w], 2) | int(rev[n - u :: w], 2) for u in range(w)
    )


def vertex_tuple(members: Iterable[int], n: int, what: str = "vertex set") -> tuple[int, ...]:
    """Normalize an iterable of vertices to a sorted tuple, validating range and duplicates."""
    out = tuple(sorted(members))
    if out and not (all(map(isinstance, out, repeat(int))) and 1 <= out[0] and out[-1] <= n):
        for v in out:  # name the first bad vertex
            if not isinstance(v, int) or not 1 <= v <= n:
                raise DomainError(f"{what}: vertex {v!r} out of range 1..{n}")
    if len(set(out)) != len(out):
        raise DomainError(f"{what}: duplicate vertices")
    return out


def _pair_count(k: int) -> int:
    return k * (k - 1) // 2


def _check_rows(n: int, rows, what: str) -> None:
    """Check that rows are the symmetric, loop-free adjacency masks of a graph on 1..n.

    One transpose of the rows finds every one-sided pair; the first error
    named is the one a scan of the rows in order, each row's bits ascending,
    would meet first.
    """
    if n < 0:
        raise DomainError(f"vertex count {n} is negative")
    if len(rows) != n + 1 or rows[0] != 0:
        raise DomainError(f"{what} adjacency rows must have length N + 1 with index 0 empty")
    full = ((1 << (n + 1)) - 1) & ~1
    cols = transpose_masks([r & full for r in rows], n)
    for v in range(1, n + 1):
        row = rows[v]
        if row & ~full or row & (1 << v):
            raise DomainError(f"{what} row {v} mentions vertices outside 1..{n}")
        one_sided = row & ~cols[v]
        if one_sided:
            u = (one_sided & -one_sided).bit_length() - 1
            raise DomainError(f"{what} adjacency not symmetric at pair ({u}, {v})")


def _relabel_rows(rows, keep: tuple[int, ...]) -> list[int]:
    """Rows restricted to the sorted vertices keep, keep[i - 1] becoming vertex i.

    Each kept row becomes a bit string from which one C-level gather picks
    the kept columns, so there is no Python step per pair.
    """
    if not keep:
        return [0]
    w = keep[-1] + 1
    low = (1 << w) - 1
    gather = itemgetter(*keep)
    out = [0]
    for v in keep:
        bits = format(rows[v] & low, f"0{w}b")[::-1]  # bits[u] is bit u of the row
        out.append(int("".join(gather(bits))[::-1] + "0", 2))
    return out


def record(cls):
    """Make cls a frozen record over its annotated fields, in declaration order.

    The class gets what ``@dataclass(frozen=True)`` gives it: an ``__init__``
    taking every field once, by position or keyword, with no defaults
    (``__post_init__`` runs last if the class has one);
    ``__eq__``, true only between instances of the same class with equal
    field tuples; ``__hash__``, the hash of the field tuple; ``__repr__`` as
    ``Name(field=value, ...)``; and a ``__setattr__`` and ``__delattr__``
    that raise AttributeError.  A method the class defines itself, such as
    its own ``__init__`` (which sets fields with ``object.__setattr__``), is
    kept.

    This is not ``dataclasses.dataclass`` on purpose.  On Python 3.11 that
    decorator writes each generated method as source text and ``exec``s it,
    and importing ``dataclasses`` imports ``inspect`` (with ``ast``, ``dis``
    and ``tokenize``).  For this package's records that cost about 30 ms of
    every command's start-up, more than most commands spend working.  Here
    the methods are closures over the field names: no ``exec``, ``eval`` or
    ``inspect``.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    name_set = frozenset(names)
    post_init = getattr(cls, "__post_init__", None)
    get = attrgetter(*names)
    values = get if len(names) > 1 else lambda self: (get(self),)

    def __init__(self, *args, **kwargs):
        given = dict(zip(names, args), **kwargs)
        if (
            len(args) > len(names)
            or given.keys() != name_set
            or not kwargs.keys().isdisjoint(names[: len(args)])
        ):
            raise TypeError(f"{cls.__name__}() takes ({', '.join(names)}), each once")
        for name in names:
            object.__setattr__(self, name, given[name])
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        fields = ", ".join([f"{name}={value!r}" for name, value in zip(names, values(self))])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        if method.__name__ not in cls.__dict__:
            setattr(cls, method.__name__, method)
    return cls


@record
class OrderedGraph:
    """An ordered graph on vertices 1..n with edge pairs (i, j), i < j.

    adj[v] is the adjacency bitmask of v (index 0 unused) and the graph's only
    state besides n; the edge set is a view computed from it.
    """

    n: int
    adj: tuple[int, ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise DomainError(f"vertex count {n} is negative")
        rows = [0] * (n + 1)
        for e in edges:
            i, j = e
            if not (1 <= i < j <= n):
                raise DomainError(f"edge {e!r} is not a pair (i, j) with 1 <= i < j <= {n}")
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(rows))

    @classmethod
    def from_rows(cls, n: int, rows: Iterable[int]) -> "OrderedGraph":
        """The graph whose adjacency masks are rows (length n + 1, index 0 empty)."""
        rows = tuple(rows)
        _check_rows(n, rows, "graph")
        return cls._of_checked_rows(n, rows)

    @classmethod
    def _of_checked_rows(cls, n: int, rows: tuple[int, ...]) -> "OrderedGraph":
        """The graph on rows already known to be symmetric and loop-free on 1..n."""
        g = cls.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", rows)
        return g

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.sorted_edges())

    @property
    def m(self) -> int:
        return sum(r.bit_count() for r in self.adj) // 2

    def has_edge(self, i: int, j: int) -> bool:
        if i == j or not (1 <= i <= self.n and 1 <= j <= self.n):
            return False
        return bool(self.adj[i] >> j & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def max_degree(self) -> int:
        return max((self.adj[v].bit_count() for v in range(1, self.n + 1)), default=0)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return [
            (i, j) for i in range(1, self.n + 1) for j in bits_of(self.adj[i] >> (i + 1) << (i + 1))
        ]

    def induced(self, members: Iterable[int]) -> tuple["OrderedGraph", tuple[int, ...]]:
        """Induced subgraph relabeled to 1..k plus the new->old vertex map (index 0 unused).

        All of 1..n gives back this graph itself, which is safe to share
        because records are frozen.
        """
        keep = vertex_tuple(members, self.n, "induced subgraph")
        if len(keep) == self.n:
            return self, (0,) + keep
        return OrderedGraph.from_rows(len(keep), _relabel_rows(self.adj, keep)), (0,) + keep


# a pair's "is red" byte to its grid digit
_RED_TO_DIGIT = bytes.maketrans(b"\x00\x01", b"01")


@record
class ColoredCompleteGraph:
    """A Red/Blue coloring of all pairs of an ordered complete graph on 1..N."""

    N: int
    red_rows: tuple[int, ...]

    def __init__(self, N: int, red_rows: tuple[int, ...]):
        _check_rows(N, red_rows, "red")
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "red_rows", tuple(red_rows))

    @classmethod
    def _of_checked_rows(cls, N: int, red_rows: tuple[int, ...]) -> "ColoredCompleteGraph":
        """The coloring of red rows already known to be symmetric and loop-free on 1..N."""
        c = cls.__new__(cls)
        object.__setattr__(c, "N", N)
        object.__setattr__(c, "red_rows", red_rows)
        return c

    @classmethod
    def from_red_edges(cls, N: int, red_edges: Iterable[tuple[int, int]]) -> "ColoredCompleteGraph":
        return cls._of_checked_rows(N, OrderedGraph(N, red_edges).adj)

    @classmethod
    def from_function(cls, N: int, is_red) -> "ColoredCompleteGraph":
        return cls.from_red_edges(
            N, ((i, j) for j in range(2, N + 1) for i in range(1, j) if is_red(i, j))
        )

    @classmethod
    def from_random(cls, N: int, seed: int, red_probability: float = 0.5) -> "ColoredCompleteGraph":
        rng = random.Random(seed)
        # one draw per pair, in from_function's colex order
        return cls.from_function(N, lambda i, j: rng.random() < red_probability)

    @classmethod
    def from_colex_bits(cls, N: int, bits: Iterable[int]) -> "ColoredCompleteGraph":
        """Rebuild from per-pair colors in colex order; 0 means Red, 1 means Blue.

        Column j is the j - 1 colors of the pairs (1, j) .. (j - 1, j); as
        digits (Red = 1) they are row j of a lower-triangle grid, which
        symmetric_rows turns into adjacency rows.
        """
        if N < 0:
            raise DomainError(f"vertex count {N} is negative")
        bits = list(bits)
        expected = _pair_count(N)
        if len(bits) != expected:
            raise DomainError(f"expected C({N}, 2) = {expected} colex bits, got {len(bits)}")
        if bits.count(0) + bits.count(1) != expected:
            bad = next(b for b in bits if b != 0 and b != 1)
            raise DomainError(f"colex bit {bad!r} is neither 0 (Red) nor 1 (Blue)")
        red = bytes(map(not_, bits)).translate(_RED_TO_DIGIT).decode()
        w = N + 1
        grid = ["0" * w] * w
        k = 0
        for j in range(2, w):
            grid[j] = "0" + red[k : k + j - 1] + "0" * (w - j)
            k += j - 1
        return cls._of_checked_rows(N, symmetric_rows("".join(grid), N))

    def color_of(self, i: int, j: int) -> Color:
        if i == j or not (1 <= i <= self.N and 1 <= j <= self.N):
            raise DomainError(f"({i}, {j}) is not a vertex pair of K_{self.N}")
        return Color.RED if self.red_rows[i] & (1 << j) else Color.BLUE

    def induced(self, members: Iterable[int]) -> tuple["ColoredCompleteGraph", tuple[int, ...]]:
        keep = vertex_tuple(members, self.N, "induced coloring")
        if len(keep) == self.N:
            return self, (0,) + keep
        rows = tuple(_relabel_rows(self.red_rows, keep))
        return ColoredCompleteGraph._of_checked_rows(len(keep), rows), (0,) + keep


@record
class Tournament:
    """A tournament on 1..N; beats[v] is the bitmask of vertices v has an arc into."""

    N: int
    beats: tuple[int, ...]

    def __init__(self, N: int, beats: tuple[int, ...]):
        if N < 0:
            raise DomainError(f"vertex count {N} is negative")
        if len(beats) != N + 1 or beats[0] != 0:
            raise DomainError("beats rows must have length N + 1 with index 0 empty")
        for v in range(1, N + 1):
            if beats[v] & (1 << v):
                raise DomainError(f"vertex {v} has a self-arc")
            if beats[v] >> (N + 1) or beats[v] & 1:
                raise DomainError(f"beats row {v} mentions vertices outside 1..{N}")
        # bit v > u of bad: the arcs u -> v and v -> u are both present or both absent
        beaten = transpose_masks(beats, N)
        full = (1 << (N + 1)) - 1
        for u in range(1, N + 1):
            bad = (full ^ beats[u] ^ beaten[u]) >> (u + 1)
            if bad:
                v = u + (bad & -bad).bit_length()
                raise DomainError(f"pair ({u}, {v}) must have exactly one arc")
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "beats", tuple(beats))

    @classmethod
    def from_arcs(cls, N: int, arcs: Iterable[tuple[int, int]]) -> "Tournament":
        return cls(N, Digraph(N, arcs).out)

    @classmethod
    def from_random(cls, N: int, rng: random.Random) -> "Tournament":
        """Uniform tournament; one rng bit per pair (i, j), i < j, in colex order."""
        rows = [0] * (N + 1)
        for j in range(2, N + 1):
            for i in range(1, j):
                if rng.getrandbits(1):
                    rows[i] |= 1 << j
                else:
                    rows[j] |= 1 << i
        return cls(N, tuple(rows))

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self.beats[u] & (1 << v))

    def arcs(self) -> list[tuple[int, int]]:
        return _arc_list(self.beats)

    def induced(self, members: Iterable[int]) -> tuple["Tournament", tuple[int, ...]]:
        keep = vertex_tuple(members, self.N, "induced tournament")
        if len(keep) == self.N:
            return self, (0,) + keep
        return Tournament(len(keep), tuple(_relabel_rows(self.beats, keep))), (0,) + keep


@record
class Digraph:
    """A digraph on 1..n; out[u] is the bitmask of vertices u has an arc into.

    out (index 0 empty) is the digraph's only state besides n, as adj is an
    ordered graph's; the arc list is a view computed from it.
    """

    n: int
    out: tuple[int, ...]

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise DomainError(f"vertex count {n} is negative")
        rows = [0] * (n + 1)
        for a in arcs:
            u, v = a
            if u == v or not (1 <= u <= n and 1 <= v <= n):
                raise DomainError(f"arc {a!r} out of range for 1..{n}")
            rows[u] |= 1 << v
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "out", tuple(rows))

    def arcs(self) -> list[tuple[int, int]]:
        return _arc_list(self.out)

    def underlying_graph(self) -> OrderedGraph:
        into = transpose_masks(self.out, self.n)
        return OrderedGraph._of_checked_rows(self.n, tuple(map(int.__or__, self.out, into)))

    def topological_order(self) -> tuple[int, ...]:
        """Lexicographically least topological order; DomainError with a cycle witness otherwise.

        Every vertex that Kahn's loop leaves unordered keeps an unordered
        in-neighbour, so a walk from one of them along least such
        in-neighbours repeats a vertex; the loop it closes, reversed, is a
        directed cycle.
        """
        import heapq

        into = transpose_masks(self.out, self.n)
        indeg = [r.bit_count() for r in into]
        ready = [v for v in range(1, self.n + 1) if not indeg[v]]  # ascending, so a heap
        order = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for w in bits_of(self.out[v]):
                indeg[w] -= 1
                if not indeg[w]:
                    heapq.heappush(ready, w)
        if len(order) < self.n:
            left = ((1 << (self.n + 1)) - 2) & ~mask_of(order)
            step: dict[int, int] = {}  # walk vertex -> its position in the walk
            v = (left & -left).bit_length() - 1
            while v not in step:
                step[v] = len(step)
                back = into[v] & left
                v = (back & -back).bit_length() - 1
            cycle = tuple(reversed(list(step)[step[v] :]))
            raise DomainError(f"digraph is not acyclic; a cycle exists: {cycle}")
        return tuple(order)


def _arc_list(out) -> list[tuple[int, int]]:
    """The arcs (u, v) of out-rows with index 0 empty, in lexicographic order."""
    return [(u, v) for u, row in enumerate(out) for v in bits_of(row)]


# ---------------------------------------------------------------------------
# density and normalization operations


def rows_density(rows, members: Sequence[int]) -> Fraction:
    """Edge density of the adjacency rows inside a valid vertex tuple; 0 below 2 vertices."""
    if len(members) < 2:
        return Fraction(0)
    m = mask_of(members)
    e = sum(map(int.bit_count, map(m.__and__, map(rows.__getitem__, members)))) // 2
    return Fraction(e, _pair_count(len(members)))


def density_within(g: OrderedGraph, members: Iterable[int]) -> Fraction:
    """Edge density of g inside the vertex set; 0 for sets of size < 2."""
    return rows_density(g.adj, vertex_tuple(members, g.n, "density_within"))


def density_between(g: OrderedGraph, a: Iterable[int], b: Iterable[int]) -> Fraction:
    """Cross-pair density between two disjoint nonempty vertex sets."""
    at = vertex_tuple(a, g.n, "density_between (first set)")
    bt = vertex_tuple(b, g.n, "density_between (second set)")
    if not at or not bt:
        raise DomainError("density_between requires nonempty sets")
    if mask_of(at) & mask_of(bt):
        raise DomainError("density_between requires disjoint sets")
    bmask = mask_of(bt)
    e = sum((g.adj[v] & bmask).bit_count() for v in at)
    return Fraction(e, len(at) * len(bt))


def color_class(c: ColoredCompleteGraph, color: Color) -> OrderedGraph:
    """The ordered graph carrying all pairs of one color, the one way to reach a class.

    Not checked again: c's red rows were checked when c was built, and their
    complement in 1..N is symmetric and loop-free as well.
    """
    rows = c.red_rows
    if color is Color.BLUE:
        full = ((1 << (c.N + 1)) - 1) & ~1
        rows = (0,) + tuple([full & ~rows[v] & ~(1 << v) for v in range(1, c.N + 1)])
    return OrderedGraph._of_checked_rows(c.N, rows)


def class_density(c: ColoredCompleteGraph, color: Color, members: Iterable[int] | None = None) -> Fraction:
    """Density of one color class inside members, by default all of 1..N; 0
    below two members.  The whole coloring is read off the red rows'
    popcounts, with no class built."""
    if members is not None:
        return rows_density(color_class(c, color).adj, vertex_tuple(members, c.N, "density_within"))
    if c.N < 2:
        return Fraction(0)
    pairs = _pair_count(c.N)
    red = sum(map(int.bit_count, c.red_rows)) // 2
    return Fraction(red if color is Color.RED else pairs - red, pairs)


def sparser_color(c: ColoredCompleteGraph, members: Iterable[int] | None = None) -> tuple[Color, Fraction]:
    """The color of lower density on members (default 1..N), Red on a tie, and that
    density; below two members both densities are 0, otherwise they sum to 1."""
    red = class_density(c, Color.RED, members)
    return (Color.RED, red) if 2 * red <= 1 else (Color.BLUE, 1 - red)


def remove_isolated(g: OrderedGraph) -> tuple[OrderedGraph, dict[int, int]]:
    """Drop isolated vertices, relabeling the rest order-preservingly; returns old->new map."""
    keep = tuple(v for v in range(1, g.n + 1) if g.adj[v])
    mapping = {v: i + 1 for i, v in enumerate(keep)}
    return OrderedGraph.from_rows(len(keep), _relabel_rows(g.adj, keep)), mapping


def degeneracy(g: OrderedGraph) -> int:
    """Degeneracy via repeated minimum-degree deletion (ties to the smallest index)."""
    if g.n == 0:
        return 0
    alive = mask_of(range(1, g.n + 1))
    deg = {v: (g.adj[v] & alive).bit_count() for v in range(1, g.n + 1)}
    best = 0
    for _ in range(g.n):
        v = min((u for u in deg), key=lambda u: (deg[u], u))
        best = max(best, deg[v])
        alive &= ~(1 << v)
        for w in bits_of(g.adj[v] & alive):
            deg[w] -= 1
        del deg[v]
    return best


def ordered_pair_from_digraph(d: Digraph) -> tuple[OrderedGraph, OrderedGraph]:
    """Relabel an acyclic digraph along its least topological order and its reverse.

    Returns the two ordered graphs obtained by forgetting arc directions after
    relabeling by topological position (first) and by reverse topological
    position (second).  Raises DomainError with a cycle witness otherwise.
    """
    order = d.topological_order()
    pos = {v: i + 1 for i, v in enumerate(order)}
    n = d.n
    fwd = []
    rev = []
    for u, v in d.arcs():
        pu, pv = pos[u], pos[v]
        fwd.append((min(pu, pv), max(pu, pv)))
        qu, qv = n + 1 - pu, n + 1 - pv
        rev.append((min(qu, qv), max(qu, qv)))
    return OrderedGraph(n, fwd), OrderedGraph(n, rev)
