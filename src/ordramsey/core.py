"""Core types for ordered graphs, 2-colored complete graphs, tournaments and digraphs.

Vertices are labeled 1..n everywhere, and an ordered graph's edges are pairs
(i, j) with i < j.  Adjacency is kept as bitmasks (bit v <=> vertex v, bit 0
unused), which the search kernels consume directly.  All densities are exact
``fractions.Fraction`` values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator

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


def vertex_tuple(members: Iterable[int], n: int, what: str = "vertex set") -> tuple[int, ...]:
    """Normalize an iterable of vertices to a sorted tuple, validating range and duplicates."""
    out = tuple(sorted(members))
    for v in out:
        if not isinstance(v, int) or not 1 <= v <= n:
            raise DomainError(f"{what}: vertex {v!r} out of range 1..{n}")
    if len(set(out)) != len(out):
        raise DomainError(f"{what}: duplicate vertices")
    return out


def _pair_count(k: int) -> int:
    return k * (k - 1) // 2


@dataclass(frozen=True)
class OrderedGraph:
    """An ordered graph on vertices 1..n with edge pairs (i, j), i < j."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise DomainError(f"vertex count {n} is negative")
        norm = set()
        for e in edges:
            i, j = e
            if not (1 <= i < j <= n):
                raise DomainError(f"edge {e!r} is not a pair (i, j) with 1 <= i < j <= {n}")
            norm.add((i, j))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(norm))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adj(self) -> tuple[int, ...]:
        """Adjacency bitmask per vertex; index 0 unused."""
        rows = [0] * (self.n + 1)
        for i, j in self.edges:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return tuple(rows)

    def has_edge(self, i: int, j: int) -> bool:
        if i == j:
            return False
        a, b = (i, j) if i < j else (j, i)
        return (a, b) in self.edges

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def max_degree(self) -> int:
        return max((self.adj[v].bit_count() for v in range(1, self.n + 1)), default=0)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def induced(self, members: Iterable[int]) -> tuple["OrderedGraph", tuple[int, ...]]:
        """Induced subgraph relabeled to 1..k plus the new->old vertex map (index 0 unused)."""
        keep = vertex_tuple(members, self.n, "induced subgraph")
        pos = {v: i + 1 for i, v in enumerate(keep)}
        edges = [(pos[i], pos[j]) for (i, j) in self.edges if i in pos and j in pos]
        return OrderedGraph(len(keep), edges), (0,) + keep


@dataclass(frozen=True)
class ColoredCompleteGraph:
    """A Red/Blue coloring of all pairs of an ordered complete graph on 1..N."""

    N: int
    red_rows: tuple[int, ...]

    def __init__(self, N: int, red_rows: tuple[int, ...]):
        if N < 0:
            raise DomainError(f"vertex count {N} is negative")
        if len(red_rows) != N + 1 or red_rows[0] != 0:
            raise DomainError("red adjacency rows must have length N + 1 with index 0 empty")
        full = ((1 << (N + 1)) - 1) & ~1
        for v in range(1, N + 1):
            row = red_rows[v]
            if row & ~full or row & (1 << v):
                raise DomainError(f"red row {v} mentions vertices outside 1..{N}")
            for u in bits_of(row):
                if not red_rows[u] & (1 << v):
                    raise DomainError(f"red adjacency not symmetric at pair ({u}, {v})")
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "red_rows", tuple(red_rows))

    @classmethod
    def from_red_edges(cls, N: int, red_edges: Iterable[tuple[int, int]]) -> "ColoredCompleteGraph":
        rows = [0] * (N + 1)
        for i, j in red_edges:
            if not (1 <= i < j <= N):
                raise DomainError(f"red edge ({i}, {j}) out of range")
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return cls(N, tuple(rows))

    @classmethod
    def from_function(cls, N: int, is_red) -> "ColoredCompleteGraph":
        return cls.from_red_edges(
            N, ((i, j) for j in range(2, N + 1) for i in range(1, j) if is_red(i, j))
        )

    @classmethod
    def from_random(cls, N: int, seed: int, red_probability: float = 0.5) -> "ColoredCompleteGraph":
        rng = random.Random(seed)
        # colex pair order fixes the random stream layout
        return cls.from_red_edges(
            N,
            (
                (i, j)
                for j in range(2, N + 1)
                for i in range(1, j)
                if rng.random() < red_probability
            ),
        )

    @classmethod
    def all_one_color(cls, N: int, color: Color) -> "ColoredCompleteGraph":
        if color is Color.RED:
            return cls.from_function(N, lambda i, j: True)
        return cls.from_red_edges(N, ())

    @classmethod
    def from_colex_bits(cls, N: int, bits: Iterable[int]) -> "ColoredCompleteGraph":
        """Rebuild from per-pair colors in colex order; 0 means Red, 1 means Blue."""
        it = iter(bits)
        red = []
        for j in range(2, N + 1):
            for i in range(1, j):
                b = next(it)
                if b == 0:
                    red.append((i, j))
        return cls.from_red_edges(N, red)

    def color_of(self, i: int, j: int) -> Color:
        if i == j or not (1 <= i <= self.N and 1 <= j <= self.N):
            raise DomainError(f"({i}, {j}) is not a vertex pair of K_{self.N}")
        return Color.RED if self.red_rows[i] & (1 << j) else Color.BLUE

    def class_rows(self, color: Color) -> tuple[int, ...]:
        if color is Color.RED:
            return self.red_rows
        full = ((1 << (self.N + 1)) - 1) & ~1
        return tuple(
            0 if v == 0 else (full & ~self.red_rows[v] & ~(1 << v)) for v in range(self.N + 1)
        )

    def induced(self, members: Iterable[int]) -> tuple["ColoredCompleteGraph", tuple[int, ...]]:
        keep = vertex_tuple(members, self.N, "induced coloring")
        pos = {v: i + 1 for i, v in enumerate(keep)}
        k = len(keep)
        rows = [0] * (k + 1)
        for new_v, old_v in enumerate(keep, start=1):
            row = self.red_rows[old_v]
            for old_u in keep:
                if row & (1 << old_u):
                    rows[new_v] |= 1 << pos[old_u]
        return ColoredCompleteGraph(k, tuple(rows)), (0,) + keep


@dataclass(frozen=True)
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
        rows = [0] * (N + 1)
        for u, v in arcs:
            if u == v or not (1 <= u <= N and 1 <= v <= N):
                raise DomainError(f"arc ({u}, {v}) out of range")
            rows[u] |= 1 << v
        return cls(N, tuple(rows))

    @classmethod
    def transitive(cls, N: int) -> "Tournament":
        rows = [0] * (N + 1)
        for u in range(1, N + 1):
            for v in range(u + 1, N + 1):
                rows[u] |= 1 << v
        return cls(N, tuple(rows))

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
        return [(u, v) for u in range(1, self.N + 1) for v in bits_of(self.beats[u])]

    def induced(self, members: Iterable[int]) -> tuple["Tournament", tuple[int, ...]]:
        keep = vertex_tuple(members, self.N, "induced tournament")
        pos = {v: i + 1 for i, v in enumerate(keep)}
        rows = [0] * (len(keep) + 1)
        for new_u, old_u in enumerate(keep, start=1):
            for old_v in keep:
                if self.beats[old_u] & (1 << old_v):
                    rows[new_u] |= 1 << pos[old_v]
        return Tournament(len(keep), tuple(rows)), (0,) + keep


@dataclass(frozen=True)
class Digraph:
    """A digraph on 1..n with arc set of ordered pairs (u, v), u != v."""

    n: int
    arcs: frozenset[tuple[int, int]]

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise DomainError(f"vertex count {n} is negative")
        norm = set()
        for a in arcs:
            u, v = a
            if u == v or not (1 <= u <= n and 1 <= v <= n):
                raise DomainError(f"arc {a!r} out of range for 1..{n}")
            norm.add((u, v))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arcs", frozenset(norm))

    @cached_property
    def out_adj(self) -> tuple[int, ...]:
        rows = [0] * (self.n + 1)
        for u, v in self.arcs:
            rows[u] |= 1 << v
        return tuple(rows)

    @cached_property
    def in_adj(self) -> tuple[int, ...]:
        rows = [0] * (self.n + 1)
        for u, v in self.arcs:
            rows[v] |= 1 << u
        return tuple(rows)

    def underlying_graph(self) -> OrderedGraph:
        return OrderedGraph(self.n, ((min(u, v), max(u, v)) for u, v in self.arcs))

    def topological_order(self) -> tuple[int, ...]:
        """Lexicographically least topological order; DomainError with a cycle witness otherwise."""
        import heapq

        indeg = [0] * (self.n + 1)
        for _, v in self.arcs:
            indeg[v] += 1
        ready = [v for v in range(1, self.n + 1) if indeg[v] == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for w in bits_of(self.out_adj[v]):
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(ready, w)
        if len(order) < self.n:
            raise DomainError(f"digraph is not acyclic; a cycle exists: {self.find_cycle()}")
        return tuple(order)

    def is_acyclic(self) -> bool:
        try:
            self.topological_order()
            return True
        except DomainError:
            return False

    def find_cycle(self) -> tuple[int, ...] | None:
        """Some directed cycle as a vertex tuple, or None if acyclic."""
        state = [0] * (self.n + 1)  # 0 new, 1 on stack, 2 done
        parent: dict[int, int] = {}
        for root in range(1, self.n + 1):
            if state[root]:
                continue
            stack = [(root, iter(sorted(bits_of(self.out_adj[root]))))]
            state[root] = 1
            while stack:
                v, it = stack[-1]
                advanced = False
                for w in it:
                    if state[w] == 0:
                        state[w] = 1
                        parent[w] = v
                        stack.append((w, iter(sorted(bits_of(self.out_adj[w])))))
                        advanced = True
                        break
                    if state[w] == 1:
                        cyc = [w, v]
                        x = v
                        while x != w:
                            x = parent[x]
                            cyc.append(x)
                        cyc.pop()
                        return tuple(reversed(cyc))
                if not advanced:
                    state[v] = 2
                    stack.pop()
        return None


# ---------------------------------------------------------------------------
# density and normalization operations


def density_within(g: OrderedGraph, members: Iterable[int]) -> Fraction:
    """Edge density of g inside the vertex set; 0 for sets of size < 2."""
    a = vertex_tuple(members, g.n, "density_within")
    if len(a) < 2:
        return Fraction(0)
    amask = mask_of(a)
    e = sum((g.adj[v] & amask).bit_count() for v in a) // 2
    return Fraction(e, _pair_count(len(a)))


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
    """The ordered graph carrying all pairs of one color."""
    rows = c.class_rows(color)
    edges = []
    for v in range(1, c.N + 1):
        row = rows[v]
        for u in bits_of(row):
            if u > v:
                edges.append((v, u))
    return OrderedGraph(c.N, edges)


def class_density(c: ColoredCompleteGraph, color: Color, members: Iterable[int] | None = None) -> Fraction:
    g = color_class(c, color)
    return density_within(g, members if members is not None else range(1, c.N + 1))


def remove_isolated(g: OrderedGraph) -> tuple[OrderedGraph, dict[int, int]]:
    """Drop isolated vertices, relabeling the rest order-preservingly; returns old->new map."""
    keep = [v for v in range(1, g.n + 1) if g.adj[v]]
    mapping = {v: i + 1 for i, v in enumerate(keep)}
    edges = [(mapping[i], mapping[j]) for (i, j) in g.edges]
    return OrderedGraph(len(keep), edges), mapping


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
    for u, v in d.arcs:
        pu, pv = pos[u], pos[v]
        fwd.append((min(pu, pv), max(pu, pv)))
        qu, qv = n + 1 - pu, n + 1 - pv
        rev.append((min(qu, qv), max(qu, qv)))
    return OrderedGraph(n, fwd), OrderedGraph(n, rev)
