"""Order-preserving embeddings and the embed-or-sparse-pair dichotomies.

An embedding of a pattern into a host is a strictly increasing vertex map
that preserves every pattern edge.  The greedy dichotomy places pattern
vertices into prescribed slots while keeping, for every not-yet-placed
vertex, a candidate set that shrinks by at most a factor c per placed
neighbor; when no placement survives, it extracts a pair of vertex sets with
cross density at most c instead.
"""

from __future__ import annotations

from fractions import Fraction

from . import kernels
from .certificates import (
    Embedding,
    Skeleton,
    SlotSystem,
    SparsePair,
    verify_embedding,
    verify_skeleton,
    verify_sparse_pair,
)
from .core import OrderedGraph, bits_of, density_between
from .errors import DomainError, InternalContractError, ParameterError


def check_pattern(pattern: OrderedGraph, name: str = "pattern") -> None:
    """Raise ParameterError unless the pattern has an edge and no isolated vertex."""
    if pattern.m < 1:
        raise ParameterError(f"{name} must have at least one edge")
    if not all(pattern.adj[1:]):
        raise ParameterError(f"{name} has isolated vertices; strip them with remove_isolated")


def _pre_lists(pattern: OrderedGraph) -> list[list[int]]:
    """pre[j] lists the pattern neighbors of j below j, ascending."""
    return [list(bits_of(row & ((1 << j) - 1))) for j, row in enumerate(pattern.adj)]


def find_ordered_embedding(host: OrderedGraph, pattern: OrderedGraph) -> Embedding | None:
    """Lexicographically least order-preserving embedding, or None."""
    res = kernels.find_embedding(host.n, list(host.adj), pattern.n, _pre_lists(pattern))
    return None if res is None else Embedding(tuple(res))


def greedy_embed_or_sparse_pair(
    host: OrderedGraph,
    pattern: OrderedGraph,
    slot_sys: SlotSystem,
    c: Fraction,
) -> Embedding | SparsePair:
    """Embed the pattern with one vertex per slot, or extract a sparse pair.

    Pattern vertex t must land in slot t.  A host vertex w is accepted for
    step t if every later pattern neighbor i of t keeps at least a c-fraction
    of its candidate set after intersecting with the neighborhood of w; the
    first acceptable w in ascending host order wins.  When no w is
    acceptable, pigeonholing over the later neighbors (smallest witnessing
    neighbor first) yields sets (lower, upper) with cross density below c and
    |lower|, |upper| >= (c^D / D) * N, where D is the pattern's maximum
    degree and N the smallest slot size.
    """
    c = Fraction(c)
    if not 0 < c < 1:
        raise ParameterError(f"c={c} must lie strictly between 0 and 1")
    n = pattern.n
    if len(slot_sys) != n:
        raise DomainError(f"slot count {len(slot_sys)} != pattern order {n}")
    if n == 0:
        return Embedding(())

    adj = host.adj
    # later[t] lists the pattern neighbors of t above t, ascending
    later = [list(bits_of(row >> (t + 1) << (t + 1))) for t, row in enumerate(pattern.adj)]
    delta = pattern.max_degree()

    cand = slot_sys.masks()
    slot_sizes = [0] + [len(s) for s in slot_sys.slots]
    placed_nbrs = [0] * (n + 1)
    mapping = [0] * (n + 1)
    cn, cd = c.numerator, c.denominator

    def keeps(w: int, i: int) -> bool:
        """Whether placing w leaves pattern vertex i at least a c-fraction of U_i."""
        return (adj[w] & cand[i]).bit_count() * cd >= cn * cand[i].bit_count()

    for t in range(1, n + 1):
        u_t = cand[t]
        if not u_t:
            raise InternalContractError(f"candidate set for pattern vertex {t} emptied")
        chosen = next((w for w in bits_of(u_t) if all(keeps(w, i) for i in later[t])), 0)
        if chosen:
            mapping[t] = chosen
            for i in later[t]:
                cand[i] &= adj[chosen]
                placed_nbrs[i] += 1
                # shrink invariant: |U_i| >= c^(placed neighbors) * |V_i|
                assert cand[i].bit_count() * cd ** placed_nbrs[i] >= cn ** placed_nbrs[i] * slot_sizes[i]
            continue
        # dichotomy: every candidate w fails for some later neighbor
        u_size = u_t.bit_count()
        for i in later[t]:
            low = [w for w in bits_of(u_t) if not keeps(w, i)]
            if len(low) * delta >= u_size:
                upper = tuple(bits_of(cand[i]))
                sp = SparsePair(tuple(low), upper, c, density_between(host, low, upper))
                ok, reason = verify_sparse_pair(host, sp)
                if not ok:
                    raise InternalContractError(f"extracted pair failed verification: {reason}")
                return sp
        raise InternalContractError("pigeonhole failed to produce a sparse pair")

    emb = Embedding(tuple(mapping[1:]))
    ok, reason = verify_embedding(host, pattern, emb, slot_sys)
    if not ok:
        raise InternalContractError(f"greedy embedding failed verification: {reason}")
    return emb


def skeleton_embed_or_sparse_pair(
    host: OrderedGraph,
    skel: Skeleton,
    pattern: OrderedGraph,
    c: Fraction,
) -> Embedding | SparsePair:
    """Embed a pattern through a skeleton, or extract a sparse pair.

    The skeleton's spine receives the a pattern vertices of largest degree
    (ties to the smaller index); the remaining pattern is placed by the
    greedy dichotomy into equal contiguous partitions of the blocks, chunk
    size floor(|V_j| / count) with leftovers at the top of each block
    discarded.  The sparse pair is guaranteed its lemma size only when
    b >= 2 m^2 c^(-2m/a); the dichotomy runs for any b.
    """
    c = Fraction(c)
    if not 0 < c < 1:
        raise ParameterError(f"c={c} must lie strictly between 0 and 1")
    ok, reason = verify_skeleton(host, skel)
    if not ok:
        raise DomainError(f"invalid skeleton: {reason}")
    check_pattern(pattern)
    n = pattern.n
    a = skel.a

    degrees = [(pattern.adj[v].bit_count(), v) for v in range(1, n + 1)]
    by_size = sorted(degrees, key=lambda dv: (-dv[0], dv[1]))
    spine_pattern = sorted(v for _, v in by_size[:a])
    rest = [v for v in range(1, n + 1) if v not in set(spine_pattern)]
    sub_pattern, rest_of = pattern.induced(rest)

    # segment j holds the pattern vertices strictly between spine indices (none if a >= n)
    bounds = [0] + spine_pattern + [n + 1]
    slot_list: list[tuple[int, ...]] = []
    for j in range(len(bounds) - 1):
        count = bounds[j + 1] - bounds[j] - 1
        if count == 0:
            continue
        block = skel.blocks[j]
        chunk = len(block) // count
        if chunk == 0:
            raise ParameterError(
                f"block {j} of size {len(block)} cannot be split into {count} nonempty chunks"
            )
        for r in range(count):
            slot_list.append(tuple(block[r * chunk : (r + 1) * chunk]))
    assert len(slot_list) == len(rest)
    slot_sys = SlotSystem(slot_list, host.n)

    res = greedy_embed_or_sparse_pair(host, sub_pattern, slot_sys, c)
    if isinstance(res, SparsePair):
        return res

    mapping = [0] * (n + 1)
    for idx, v in enumerate(spine_pattern):
        mapping[v] = skel.spine[idx]
    for v, w in zip(rest_of[1:], res.mapping):
        mapping[v] = w
    emb = Embedding(tuple(mapping[1:]))
    ok, reason = verify_embedding(host, pattern, emb)
    if not ok:
        raise InternalContractError(f"skeleton embedding failed verification: {reason}")
    return emb
