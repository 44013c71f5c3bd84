"""Spine-and-blocks skeleton structures inside graphs and colorings.

An (a, b)-skeleton in an ordered graph is a spine clique v_1 < ... < v_a
interleaved with vertex blocks V_0 < {v_1} < V_1 < ... < {v_a} < V_a, each
block of size at least b, with every spine vertex adjacent to every block
vertex.  Skeletons are found by enumerating increasing clique tuples and
pigeonholing on their odd positions, and, inside dense colorings, by sampling
windows and growing monochromatic cliques in the sparser class.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import accumulate, combinations, compress, count, islice
from operator import itemgetter, or_, xor
from typing import Iterable

from . import kernels
from .certificates import Skeleton, verify_skeleton
from .core import (
    Color,
    ColoredCompleteGraph,
    OrderedGraph,
    bits_of,
    class_density,
    color_class,
    density_within,
    mask_of,
    record,
    sparser_color,
)
from .errors import InternalContractError, ParameterError, TupleCapError

DEFAULT_TUPLE_CAP = 10_000_000
DEFAULT_SAMPLES = 64


@record
class CliqueTupleIndex:
    """Increasing clique (4a+1)-tuples bucketed by their odd-position vertices.

    buckets maps each odd-position key (the spine key) to the list of its
    tuples' even-position vertex masks.  truncated means enumeration stopped
    at the cap with work left: tuples on the host-graph path
    (build_clique_tuple_index), counted in lexicographic order, so a
    truncated index holds exactly the first cap tuples even though the last
    three positions are recorded as one block per prefix and last spine
    vertex; spine keys on the clique-harvest path (_index_from_cliques).
    """

    truncated: bool
    buckets: dict


def build_clique_tuple_index(
    host: OrderedGraph, k: int, tuple_cap: int = DEFAULT_TUPLE_CAP
) -> CliqueTupleIndex:
    """Bucket the increasing clique k-tuples of host (lexicographic order, capped).

    For odd k >= 3, the tuples sharing their first k - 3 vertices and their
    last spine vertex are recorded as one bucket update (the masks of their
    last two even positions) rather than tuple by tuple.  The cap still
    counts tuples in lexicographic order: a truncated index holds exactly the
    first tuple_cap tuples.
    """
    if k < 1:
        raise ParameterError(f"tuple length {k} must be positive")
    if tuple_cap < 1:
        raise ParameterError("tuple cap must be positive")
    _, truncated, buckets = kernels.clique_tuple_buckets(host.n, list(host.adj), k, tuple_cap)
    return CliqueTupleIndex(truncated, buckets)


def _skeleton_from_index(
    index: CliqueTupleIndex, a: int, b_required: Fraction | int
) -> Skeleton | None:
    """Assemble a skeleton from the bucket with the largest b, ties to the
    least spine key; None when that b is below max(1, b_required).

    A bucket's b is the (a + 1)-th largest of its 2a + 1 even-position sets,
    and its blocks are its a + 1 largest sets, ties to the leftmost.  The
    lemma's pigeonhole bucket, the most populated one, is only a witness
    that some bucket's b is large: the largest b is at least its b.
    """
    buckets = index.buckets
    # each bucket's set sizes, counted a position at a time; the (a + 1)-th
    # largest of 2a + 1 sizes is the median
    sizes = zip(*[map(int.bit_count, col) for col in zip(*buckets.values())])
    bs = list(map(itemgetter(a), map(sorted, sizes)))
    best = max(bs, default=0)
    if best < max(1, b_required):
        return None
    key = min(compress(buckets, map(best.__eq__, bs)))
    masks = buckets[key]
    # the stable sort keeps the leftmost of equal sizes
    largest = sorted(range(len(masks)), key=lambda pos: -masks[pos].bit_count())
    positions = sorted(largest[: a + 1])
    blocks = tuple(tuple(bits_of(masks[pos])) for pos in positions)
    # spine vertex after even position 2*pos is the odd entry at index pos
    spine = tuple(key[pos] for pos in positions[:a])
    return Skeleton(spine, blocks, a, best)


def find_skeleton_from_cliques(
    host: OrderedGraph,
    n: int,
    a: int,
    d: Fraction | int = 1,
    tuple_cap: int = DEFAULT_TUPLE_CAP,
) -> Skeleton | None:
    """Find an (a, b)-skeleton with b >= d * N / n^5 via clique-tuple pigeonholing.

    Enumerates increasing (4a+1)-clique tuples, buckets them on odd positions,
    and assembles spine and blocks from the bucket with the largest b
    (_skeleton_from_index).  Returns None when no bucket yields large enough
    blocks; raises TupleCapError when the enumeration cap was hit and no
    skeleton could be produced from the partial index (a skeleton found from
    a truncated index is still valid as checked).
    """
    big_n = host.n
    if a < 1:
        raise ParameterError("a must be positive")
    if not big_n >= n >= 4 * a + 1:
        raise ParameterError(f"need N >= n >= 4a + 1, got N={big_n}, n={n}, a={a}")
    d = Fraction(d)
    if d <= 0 or d > 1:
        raise ParameterError(f"density parameter d={d} must lie in (0, 1]")
    index = build_clique_tuple_index(host, 4 * a + 1, tuple_cap)
    b_required = d * big_n / Fraction(n) ** 5
    skel = _skeleton_from_index(index, a, b_required)
    if skel is None:
        if index.truncated:
            raise TupleCapError(
                f"clique tuple cap {tuple_cap} exceeded before any (a={a}) skeleton "
                f"with b >= {float(b_required):.6g} was found"
            )
        return None
    ok, reason = verify_skeleton(host, skel)
    if not ok:
        raise InternalContractError(f"assembled skeleton: {reason}")
    return skel


# ---------------------------------------------------------------------------
# sparse-graph clique-or-independent-set finder


def _es_chains(adj, theta: Fraction) -> tuple[list[int], list[int]]:
    """Two-chain greedy on the graph with adjacency rows adj: grow an
    independent set while the minimum degree is at most theta * (|S| - 1),
    otherwise grow a clique through a maximum-degree vertex; ties go to the
    least vertex.  Returns (clique chain, independent chain)."""
    num, den = theta.numerator, theta.denominator
    alive = mask_of(range(1, len(adj)))
    clique: list[int] = []
    indep: list[int] = []
    while alive:
        # alive's vertices, ascending: its binary digits read from bit 0
        members = list(compress(count(), map("1".__eq__, bin(alive)[:1:-1])))
        degs = list(map(int.bit_count, map(alive.__and__, map(adj.__getitem__, members))))
        dmin = min(degs)
        if dmin * den <= num * (len(members) - 1):
            v = members[degs.index(dmin)]
            indep.append(v)
            alive &= ~(1 << v) & ~adj[v]
        else:
            v = members[degs.index(max(degs))]
            clique.append(v)
            alive &= adj[v]
    return clique, indep


def es_bound(n: int, eps: float) -> float:
    """Guaranteed witness size in an eps-sparse n-vertex graph."""
    return math.log(n) / (100.0 * eps * math.log(1.0 / eps))


def es_clique_or_independent(
    g: OrderedGraph, eps: Fraction
) -> tuple[str, tuple[int, ...]]:
    """In a graph of density at most eps, find a clique or an independent set of
    size at least log n / (100 eps log(1/eps)).

    Returns ("clique", vertices) or ("independent", vertices); the witness is
    re-verified pairwise and against the size bound before returning.
    """
    eps = Fraction(eps)
    if not 0 < eps < Fraction(1, 2):
        raise ParameterError(f"eps={eps} must lie in (0, 1/2)")
    if g.n < 1 / eps:
        raise ParameterError(f"need n >= 1/eps, got n={g.n}, 1/eps={float(1 / eps):.4g}")
    dens = density_within(g, range(1, g.n + 1))
    if dens > eps:
        raise ParameterError(f"graph density {dens} exceeds eps={eps}")
    clique, indep = _es_chains(g.adj, eps)
    kind, members = ("independent", indep) if len(indep) >= len(clique) else ("clique", clique)
    members_t = tuple(sorted(members))
    _check_homogeneous(g, kind, members_t)
    bound = es_bound(g.n, float(eps))
    if len(members_t) < bound - 1e-9:
        raise InternalContractError(
            f"witness of size {len(members_t)} misses the bound {bound:.4f}"
        )
    return kind, members_t


def _check_homogeneous(g: OrderedGraph, kind: str, members: tuple[int, ...]) -> None:
    want = kind == "clique"
    for x, y in combinations(members, 2):
        if g.has_edge(x, y) != want:
            raise InternalContractError(f"{kind} witness violated at pair ({x}, {y})")


# ---------------------------------------------------------------------------
# skeleton search inside a dense coloring


@record
class DenseSkeletonResult:
    """A verified skeleton (or None) in color, and whether its b meets target_b."""

    color: Color | None
    skeleton: Skeleton | None
    target_b: float
    met_target: bool

    @property
    def found(self) -> bool:
        return self.skeleton is not None


def expand_clique_tuples(
    clique: Iterable[int], k: int, budget: int
) -> list[tuple[int, ...]]:
    """Increasing k-subtuples of a clique, lexicographically, up to budget.

    The clique-harvest index calls it on gap positions rather than on
    vertices, so each tuple it returns there is one spine key.
    """
    return list(islice(combinations(sorted(clique), k), max(budget, 0)))


def _index_from_cliques(
    cliques: list[tuple[int, ...]], k: int, cap: int
) -> CliqueTupleIndex:
    """Index the increasing k-tuples of a clique family without listing them.

    A tuple's spine key (its odd positions) cuts its clique into gaps: before
    the first key vertex, between consecutive ones and, for odd k, after the
    last; the tuple's other entries are one vertex from each gap.  In a clique
    of m vertices, the keys at positions p_1 < ... < p_r (r = k // 2) with
    every gap nonempty are exactly those with q_j = p_j - (j - 1) an
    increasing r-subset of range(1, m - r + 1 - k % 2), and such a key's
    bucket holds its gap masks.  A key valid in several cliques holds, at
    each position, the union of those cliques' gap masks.

    cap bounds the spine keys enumerated, clique by clique in the given order
    and lexicographically within a clique, a key valid in two cliques counting
    twice; truncated means keys were left.  Every valid key of a clique holds
    one of its tuples, so when the cliques hold at most cap tuples between
    them the cap does not bite.
    """
    r, tail = k // 2, k % 2
    buckets: dict = {}
    budget = cap
    truncated = False
    for idx, clique in enumerate(cliques):
        verts = sorted(clique)
        if len(verts) < k:
            continue
        prefix = list(accumulate(map((1).__lshift__, verts), or_, initial=0))
        span = len(verts) - r - tail
        keys = expand_clique_tuples(range(1, span + 1), r, budget)
        # the keys as columns: gap i of key q is q-space lo[i] <= x < hi[i],
        # with lo = (0, *q) and hi = (*q, span + 1); it holds clique positions
        # x + i, so its mask is prefix[hi[i] + i] ^ prefix[lo[i] + i]
        cols = list(zip(*keys)) or [()] * r
        los = [[0] * len(keys), *cols]
        his = [*cols, [span + 1] * len(keys)][: r + tail]
        masks = []
        for i, (lo, hi) in enumerate(zip(los, his)):
            at = prefix[i:].__getitem__
            masks.append(map(xor, map(at, hi), map(at, lo)))
        # key vertex j of q is verts[q[j] + j]
        lifted = [map(verts[j:].__getitem__, col) for j, col in enumerate(cols)]
        fresh = dict(zip(zip(*lifted) if r else [()] * len(keys), map(list, zip(*masks))))
        for key in fresh.keys() & buckets.keys():
            fresh[key] = list(map(or_, buckets[key], fresh[key]))
        buckets.update(fresh)
        budget -= len(keys)
        if budget <= 0:
            truncated = len(keys) < math.comb(span, r) or any(
                len(c) >= k for c in cliques[idx + 1:]
            )
            break
    return CliqueTupleIndex(truncated, buckets)


def skeleton_from_harvest(
    harvest: dict[Color, list[tuple[int, ...]]],
    spine: dict[Color, int],
    b_required: Fraction | int,
    tuple_cap: int,
) -> tuple[Color | None, Skeleton | None, bool]:
    """Assemble a skeleton from the monochromatic cliques of a harvest.

    Tries the color with more cliques first (ties to Red), then the other.
    A color with spine size a has the increasing (4a+1)-tuples of its cliques
    indexed without listing them (_index_from_cliques, at most tuple_cap
    spine keys), and the index's bucket with the largest b yields a skeleton
    when that b is at least b_required (and 1).  Returns (color, skeleton,
    truncated), (None, None, truncated) when neither color yields one;
    truncated says whether a spine-key cap bit on a color tried.
    """
    n_red, n_blue = len(harvest[Color.RED]), len(harvest[Color.BLUE])
    order = (Color.RED, Color.BLUE) if n_red >= n_blue else (Color.BLUE, Color.RED)
    truncated = False
    for color in order:
        if not harvest[color]:
            continue
        a = spine[color]
        index = _index_from_cliques(harvest[color], 4 * a + 1, tuple_cap)
        truncated = truncated or index.truncated
        skel = _skeleton_from_index(index, a, b_required)
        if skel is not None:
            return color, skel, truncated
    return None, None, truncated


def sample_color_cliques(
    coloring: ColoredCompleteGraph,
    need: dict[Color, int],
    window: int,
    samples: int,
    seed: int,
) -> dict[Color, list[tuple[int, ...]]]:
    """Sample windows and harvest monochromatic cliques of the needed sizes.

    Runs the two-chain greedy on the sparser color class of each of samples
    seeded windows; its clique chain is a clique of that color and its
    independent chain one of the other, kept once if it has need[color]
    vertices or more.  A window of all N vertices is processed once, however
    many samples are asked for; the harvest is the same.
    """
    rng = random.Random(seed)
    universe = list(range(1, coloring.N + 1))
    window = min(window, coloring.N)
    rounds = samples if window < coloring.N else min(samples, 1)
    found: dict[Color, list[tuple[int, ...]]] = {Color.RED: [], Color.BLUE: []}
    seen: dict[Color, set] = {Color.RED: set(), Color.BLUE: set()}
    for _ in range(rounds):
        # a full window needs no draw; induced hands back the coloring itself
        members = rng.sample(universe, window) if window < coloring.N else universe
        sub, back = coloring.induced(members)
        sparse, theta = sparser_color(sub)
        theta = max(Fraction(1, 100), min(theta, Fraction(49, 100)))
        clique_chain, indep_chain = _es_chains(color_class(sub, sparse).adj, theta)
        for color, chain in ((sparse, clique_chain), (sparse.other, indep_chain)):
            if len(chain) < need[color]:
                continue
            host_clique = tuple(sorted(back[v] for v in chain))
            if host_clique not in seen[color]:
                seen[color].add(host_clique)
                found[color].append(host_clique)
    return found


def find_skeleton_in_dense(
    coloring: ColoredCompleteGraph,
    sparse_color: Color,
    a: int,
    c: Fraction,
    *,
    seed: int = 0,
) -> DenseSkeletonResult:
    """Find a skeleton in one color class of a coloring whose sparse_color
    class has density at most c.

    Harvests (4a+1)-cliques from DEFAULT_SAMPLES windows of the lemma's size
    exp(1000 a c ln(1/c)), kept between 4a+1 and N, and assembles a skeleton
    with skeleton_from_harvest (at most DEFAULT_TUPLE_CAP spine keys).  For
    c < 1/2 the check a >= 10/c makes the window all N, processed once.  The
    result reports the lemma's block size target and whether it was met; no
    skeleton is a search failure, distinct from a parameter error.
    """
    c = Fraction(c)
    if c <= 0:
        raise ParameterError(f"c={c} must be positive")
    if a < 1:
        raise ParameterError("a must be positive")
    if Fraction(a) < 10 / c:
        raise ParameterError(f"need a >= 10/c = {float(10 / c):.4g}, got a={a}")
    big_n = coloring.N
    dens = class_density(coloring, sparse_color)
    if dens > c:
        raise ParameterError(f"{sparse_color} class density {dens} exceeds c={c}")

    k = 4 * a + 1
    log_window = 1000.0 * a * float(c) * math.log(1.0 / float(c)) if c < 1 else math.inf
    window = big_n
    if log_window < math.log(max(big_n, 2)):
        window = min(max(math.ceil(math.exp(log_window)), k), big_n)

    harvest = sample_color_cliques(
        coloring, {Color.RED: k, Color.BLUE: k}, window, DEFAULT_SAMPLES, seed
    )
    target = _dense_target_b(big_n, a, c)
    spine = {Color.RED: a, Color.BLUE: a}
    color, skel, _ = skeleton_from_harvest(harvest, spine, 1, DEFAULT_TUPLE_CAP)
    if skel is None:
        return DenseSkeletonResult(None, None, target, False)
    ok, reason = verify_skeleton(color_class(coloring, color), skel)
    if not ok:
        raise InternalContractError(f"dense skeleton: {reason}")
    return DenseSkeletonResult(color, skel, target, skel.b >= target)


def _dense_target_b(big_n: int, a: int, c: Fraction) -> float:
    log_b = -6000.0 * a * float(c) * math.log(1.0 / float(c)) if c < 1 else 0.0
    return math.exp(log_b) * big_n
