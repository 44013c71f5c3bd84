"""Star subdivisions, avoiding tournaments, and the iterated blowup lower bound."""

from __future__ import annotations

import math
import random
from itertools import combinations

from . import kernels
from .certificates import verify_digraph_copy
from .core import Digraph, Tournament, record
from .errors import (
    BudgetExhausted,
    DomainError,
    GenerationError,
    InternalContractError,
    ParameterError,
)
from .kernels import DEFAULT_NODE_BUDGET

BASE_CUTOFF = 20
AVOIDING_TRIES = 64


@record
class Subdivision:
    """The subdivided star on base 1..n plus one middle vertex per triple.

    Base vertices come first, then triple vertices in lexicographic order of
    (i, j, k); triple_index maps each triple to its vertex id.
    """

    n: int
    digraph: Digraph
    triple_index: dict[tuple[int, int, int], int]


def build_subdivision_S(n: int) -> Subdivision:
    """Digraph with arcs i -> t, t -> j, t -> k for every triple i < j < k."""
    if n < 3:
        raise ParameterError(f"subdivided star needs n >= 3, got {n}")
    triples = list(combinations(range(1, n + 1), 3))
    index = {t: n + 1 + pos for pos, t in enumerate(triples)}
    arcs = []
    for (i, j, k), t in index.items():
        arcs.append((i, t))
        arcs.append((t, j))
        arcs.append((t, k))
    d = Digraph(n + len(triples), arcs)
    return Subdivision(n, d, index)


def find_transitive_subtournament(T: Tournament, k: int) -> tuple[int, ...] | None:
    """Lexicographically least transitive k-subtournament, in dominance order."""
    if k < 1:
        raise ParameterError(f"subtournament size must be >= 1, got {k}")
    chain = kernels.transitive_chain(T.N, list(T.beats), k)
    return None if chain is None else tuple(chain)


def random_tournament_avoiding(m: int, k: int, seed: int) -> Tournament:
    """Uniform m-vertex tournament with no transitive subtournament on k vertices.

    Draws up to AVOIDING_TRIES times from a single seeded stream and
    re-verifies each draw, so equal (m, k, seed) always return the same one.
    """
    if m < 1:
        raise ParameterError(f"vertex count must be >= 1, got {m}")
    if k < 1:
        raise ParameterError(f"forbidden size must be >= 1, got {k}")
    rng = random.Random(seed)
    for _ in range(AVOIDING_TRIES):
        T = Tournament.from_random(m, rng)
        if find_transitive_subtournament(T, k) is None:
            return T
    raise GenerationError(
        f"no {m}-vertex tournament avoiding a transitive {k}-set found", AVOIDING_TRIES
    )


@record
class BlowupTournament:
    """Blowup substituting a copy of inner for every vertex of outer.

    Block ell holds the consecutive vertices (ell-1)*s+1 .. ell*s where s is
    the inner size; arcs inside a block copy inner, arcs between blocks all
    follow the outer arc.
    """

    outer: Tournament
    inner: Tournament
    blocks: tuple[tuple[int, int], ...]
    tournament: Tournament

    def block_of(self, v: int) -> int:
        if not 1 <= v <= self.tournament.N:
            raise DomainError(f"vertex {v} outside 1..{self.tournament.N}")
        return (v - 1) // self.inner.N + 1


def blowup(outer: Tournament, inner: Tournament) -> BlowupTournament:
    """Substitute a copy of inner for every vertex of outer.

    Every vertex of block ell beats the same vertices outside its block, so
    that part of its row is computed once per block: outer.beats[ell] with
    each bit widened to s consecutive bits (its binary string with every
    digit repeated s times).  A row is then one shift of the inner row and
    one OR, O(m * s) big-int operations in all.
    """
    if outer.N < 1 or inner.N < 1:
        raise ParameterError("blowup factors must both be nonempty")
    s = inner.N
    total = outer.N * s
    widen = str.maketrans({"0": "0" * s, "1": "1" * s})
    rows = [0]
    for ell in range(1, outer.N + 1):
        off = (ell - 1) * s
        spread = int(bin(outer.beats[ell] >> 1)[2:].translate(widen), 2) << 1
        rows.extend((inner.beats[u] << off) | spread for u in range(1, s + 1))
    blocks = tuple(((ell - 1) * s + 1, ell * s) for ell in range(1, outer.N + 1))
    return BlowupTournament(outer, inner, blocks, Tournament(total, tuple(rows)))


def lower_bound_parameters(n: int) -> tuple[int, int, int]:
    """(outer size m, forbidden transitive size k, recursive size n') for n > 20."""
    if n <= BASE_CUTOFF:
        raise ParameterError(f"n = {n} is handled by the fixed base tournament")
    m = max(1, n // 10)
    k = math.ceil(4.0 * math.log(n))
    return m, k, max(3, math.floor(n / (40.0 * math.log(n))))


def _base_tournament() -> Tournament:
    # vertex 1 beats everyone, 2 -> 3 -> 4 -> 2; no vertex has both an
    # in-arc and out-degree 2, which is what a subdivided-star middle needs
    return Tournament.from_arcs(
        4, [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4), (4, 2)]
    )


def iterated_lower_bound_tournament(n: int, seed: int) -> Tournament:
    """Recursive blowup construction for a tournament with no subdivided-star copy.

    Below the cutoff this is a fixed 4-vertex tournament; above it, an
    avoiding outer tournament blown up by the recursion at seed + 1.
    """
    if n < 3:
        raise ParameterError(f"construction needs n >= 3, got {n}")
    if n <= BASE_CUTOFF:
        return _base_tournament()
    m, k, n_prime = lower_bound_parameters(n)
    outer = random_tournament_avoiding(m, k, seed)
    inner = iterated_lower_bound_tournament(n_prime, seed + 1)
    return blowup(outer, inner).tournament


@record
class InjectionResult:
    """Outcome of a budgeted injection search; exhaustion is not a `no`."""

    mapping: tuple[int, ...] | None
    nodes: int
    exhausted: bool

    @property
    def found(self) -> bool:
        return self.mapping is not None


def contains_subdivision(
    T: Tournament, n: int, budget: int = DEFAULT_NODE_BUDGET
) -> InjectionResult:
    """Budgeted search for a copy of the subdivided star on n base vertices.

    Assigns base vertices 1..n first and then triple vertices in
    lexicographic order; every attempted assignment costs one node, and an
    exhausted result reports the budget as its nodes.  A copy found is
    re-checked against T before it is returned.
    """
    if budget < 1:
        raise ParameterError(f"node budget must be >= 1, got {budget}")
    S = build_subdivision_S(n)
    if S.digraph.n > T.N:
        return InjectionResult(None, 0, False)
    spent = kernels.DecisionBudget(budget)
    try:
        mapping, nodes = kernels.digraph_injection(
            T.N, list(T.beats), S.digraph.n, S.digraph.out, spent
        )
    except BudgetExhausted:
        return InjectionResult(None, spent.used, True)
    if mapping is None:
        return InjectionResult(None, nodes, False)
    ok, reason = verify_digraph_copy(T, S.digraph, mapping)
    if not ok:
        raise InternalContractError(f"subdivision copy: {reason}")
    return InjectionResult(tuple(mapping), nodes, False)

