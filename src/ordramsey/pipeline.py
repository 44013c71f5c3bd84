"""Sparse-set recursion, the monochromatic-copy search, and an exact oracle.

Their outcomes are the claim records of the certificates module: a MonoCopy
pins a monochromatic ordered copy of one pattern, a SparseSet pins a vertex
set whose density in one color is below a stated bound, and Exhausted
carries a trace of why a search stopped.  Every MonoCopy and SparseSet
returned here has been re-verified against the coloring, by the checks of
the certificates module, before being handed to the caller.  An Exhausted
from find_mono_copy follows a complete search, so neither copy exists; one
from the sparse-set recursion is never a proof of absence.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count

from . import kernels
from .certificates import (
    Embedding,
    Exhausted,
    MonoCopy,
    SparseSet,
    self_check,
    verify_mono_copy,
    verify_sparse_set,
)
from .core import (
    Color,
    ColoredCompleteGraph,
    OrderedGraph,
    class_density,
    color_class,
    mask_of,
    record,
    rows_density,
    sparser_color,
    vertex_tuple,
)
from .embed import check_pattern, find_ordered_embedding, skeleton_embed_or_sparse_pair
from .errors import BudgetExhausted, InternalContractError, ParameterError
from .skeleton import (
    DEFAULT_SAMPLES,
    DEFAULT_TUPLE_CAP,
    sample_color_cliques,
    skeleton_from_harvest,
)


def _loglog(m: int) -> float:
    """log log m, clamped below so tiny edge counts stay usable."""
    if m >= 3 and math.log(m) > 1.0:
        return max(0.7, math.log(math.log(m)))
    return 0.7


def _ceil_log2(x: Fraction) -> int:
    """Least h >= 0 with 2^h >= x, computed exactly."""
    h = 0
    while Fraction(2) ** h < x:
        h += 1
    return h


def _check_c(c) -> None:
    if not 0 < c < Fraction(1, 8):
        raise ParameterError(f"c={c} must lie strictly in (0, 1/8)")


@record
class RecursionParams:
    """Knobs for the binary-tree sparse-set recursion.

    c is the target density, k1/k2 the per-color skeleton sizes, alpha the
    per-level shrink factor, h1/h2 the halving budgets, and window the size
    of the sampled sub-colorings used to hunt for monochromatic cliques.
    """

    c: Fraction
    k1: int
    k2: int
    alpha: float
    h1: int
    h2: int
    window: int

    def __post_init__(self):
        _check_c(self.c)
        if not self.k1 >= self.k2 >= 1:
            raise ParameterError(f"need k1 >= k2 >= 1, got k1={self.k1}, k2={self.k2}")
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError(f"alpha={self.alpha} must lie strictly in (0, 1)")
        if self.h1 < 0 or self.h2 < 0:
            raise ParameterError("halving budgets must be nonnegative")
        if self.window < 1:
            raise ParameterError("window must be positive")

    @classmethod
    def from_patterns(
        cls,
        pat1: OrderedGraph,
        pat2: OrderedGraph,
        c,
        big_n: int,
        *,
        alpha: float | None = None,
        window: int | None = None,
    ) -> "RecursionParams":
        c = Fraction(c)
        _check_c(c)
        _gate_patterns(pat1, pat2)
        m1, m2 = pat1.m, pat2.m
        ll1 = _loglog(m1)
        k2 = max(1, int(math.sqrt(m2 * ll1)))
        k1 = max(k2, m1 * k2 // m2)
        h = _ceil_log2(2 / c)
        if window is None:
            window = min(big_n, 4 ** (k1 + k2))
        elif window < 1:
            raise ParameterError("window must be positive")
        window = max(1, min(window, big_n))
        if alpha is None:
            base = float(c) / 8.0
            alpha = base ** (2.0 * math.sqrt(m2 / ll1)) / (8.0 * window**5 * m1**2)
            alpha = max(alpha, 1e-300)
        return cls(c, k1, k2, alpha, h, h, window)


def _gate_patterns(pat1: OrderedGraph, pat2: OrderedGraph) -> None:
    check_pattern(pat1, "first pattern")
    check_pattern(pat2, "second pattern")


def _size_target(alpha: float, levels: int, size: int) -> int:
    return max(1, math.ceil(alpha**levels * size))


def _trim_to_density(rows, members: tuple[int, ...], target: int, bound: Fraction):
    """Shrink members to the target size keeping density within bound.

    Greedily removes the vertex of highest degree inside the current set
    (ties to the larger index).  That never raises the density: a vertex of
    maximum degree d in a set of n vertices and e edges has d >= 2e/n, which
    is exactly when (e - d)/C(n-1, 2) <= e/C(n, 2).  So members within bound
    stay within it; a result over it is a broken contract.
    """
    cur = list(members)
    target = max(1, min(target, len(cur)))
    while len(cur) > target:
        m = mask_of(cur)
        worst = max(cur, key=lambda v: ((rows[v] & m).bit_count(), v))
        cur.remove(worst)
    dens = rows_density(rows, cur)
    if dens > bound:
        raise InternalContractError(
            f"density {dens} of the trimmed set exceeds the bound {bound}"
        )
    return tuple(cur)


def _halving_bound(c: Fraction, color: Color, h1: int, h2: int) -> Fraction:
    """Density bound of a color set with halving budgets h1, h2 left to spend."""
    return Fraction(1, 2 ** (h1 if color is Color.RED else h2)) + c / 2


class _Stop(Exception):
    """Carries a MonoCopy or Exhausted out of the whole sparse-set recursion."""


def _exhausted(trace: tuple, note: str) -> _Stop:
    return _Stop(Exhausted(trace + (note,)))


def _low_degree_half(rows, side, against, half_target: int, c: Fraction, trace, *, upper=False):
    """The min(half_target, |side| // 2) vertices of side with the fewest
    neighbours in against, sorted.

    The lower half A, taken against B, must keep every degree within c/4 of
    |B|; the upper half B, taken against the trimmed W1, within c/2 of |W1|.
    """
    size = min(half_target, len(side) // 2)
    if size < 1:
        half = "upper" if upper else "lower"
        raise _exhausted(trace, f"{half} pair half of size {len(side)} is too small to halve")
    mask = mask_of(against)
    by_deg = sorted(((rows[v] & mask).bit_count(), v) for v in side)
    part = 2 if upper else 4
    if by_deg[size - 1][0] * part * c.denominator > c.numerator * len(against):
        raise InternalContractError(
            f"low-degree half of {'B' if upper else 'A'} exceeds the c/{part} degree bound"
        )
    return tuple(sorted(v for _, v in by_deg[:size]))


def binary_tree_sparse(
    coloring: ColoredCompleteGraph,
    members,
    pat1: OrderedGraph,
    pat2: OrderedGraph,
    params: RecursionParams,
    *,
    samples: int = DEFAULT_SAMPLES,
    tuple_cap: int = DEFAULT_TUPLE_CAP,
    seed: int = 0,
):
    """Recursively extract a sparse set inside members, or stumble on a copy.

    At each node: find a monochromatic clique skeleton in a sampled window,
    run the skeleton embedding for that color's pattern, otherwise split the
    returned sparse pair into low-degree halves and recurse with a reduced
    halving budget, finally trimming and uniting the two sparse sets.  A node
    returns (color, set); a copy found at any node, or a node that cannot go
    on, raises a private exception carrying a MonoCopy or an Exhausted (its
    trace names the path from the root), which ends the whole recursion and
    is returned as it stands.  Returns MonoCopy, SparseSet, or Exhausted.
    """
    if samples < 1:
        raise ParameterError("samples must be positive")
    X = vertex_tuple(members, coloring.N, "members")
    if not X:
        raise ParameterError("members must be nonempty")
    _gate_patterns(pat1, pat2)
    c = params.c
    seeds = count(seed)

    def node(X: tuple[int, ...], h1: int, h2: int, trace: tuple) -> tuple[Color, tuple]:
        if h1 == 0 and h2 == 0:
            return (sparser_color(coloring, X)[0], X)
        if h1 == 0:
            return (Color.RED, X)
        if h2 == 0:
            return (Color.BLUE, X)
        if params.alpha ** (h1 + h2) * len(X) < 1.0:
            return (sparser_color(coloring, X)[0], (min(X),))

        sub, back = coloring.induced(X)
        need1, need2 = 4 * params.k1 + 1, 4 * params.k2 + 1
        window = min(params.window, len(X))
        if window < min(need1, need2):
            raise _exhausted(
                trace, f"window {window} is below the smallest clique size {min(need1, need2)}"
            )
        harvest = sample_color_cliques(
            sub, {Color.RED: need1, Color.BLUE: need2}, window, samples, next(seeds)
        )
        if not harvest[Color.RED] and not harvest[Color.BLUE]:
            raise _exhausted(trace, f"no monochromatic cliques sampled on {len(X)} vertices")
        i, skel, truncated = skeleton_from_harvest(
            harvest,
            {Color.RED: params.k1, Color.BLUE: params.k2},
            Fraction(len(X), 2 * window**5),
            tuple_cap,
        )
        if skel is None:
            note = f" (spine-key cap {tuple_cap} reached)" if truncated else ""
            raise _exhausted(trace, "no skeleton assembled from the sampled cliques" + note)

        pattern = pat1 if i is Color.RED else pat2
        try:
            res = skeleton_embed_or_sparse_pair(color_class(sub, i), skel, pattern, c / 8)
        except ParameterError as exc:
            raise _exhausted(trace, f"skeleton embedding inapplicable: {exc}")
        if isinstance(res, Embedding):
            mc = MonoCopy(i, tuple(back[v] for v in res.mapping))
            self_check(
                verify_mono_copy(coloring, pat1, pat2, mc), "short-circuit copy failed verification"
            )
            raise _Stop(mc)

        A = tuple(back[v] for v in res.lower)
        B = tuple(back[v] for v in res.upper)
        rows = color_class(coloring, i).adj
        s_star = _size_target(params.alpha, h1 + h2, len(X))
        half_target = math.ceil(params.alpha * len(X))
        h1c, h2c = (h1 - 1, h2) if i is Color.RED else (h1, h2 - 1)

        a_prime = _low_degree_half(rows, A, B, half_target, c, trace)
        ell1, w1_raw = node(a_prime, h1c, h2c, trace + (f"lower half, {len(a_prime)} vertices",))
        if ell1 is not i:
            return (ell1, w1_raw)
        # every (i, set) a child returns meets child_bound: a base case is a
        # whole set under a bound >= 1 or a single vertex, a union is checked
        # against its own node's bound, and a set passed up unchanged has a
        # color whose halving budget was not spent
        child_bound = _halving_bound(c, i, h1c, h2c)
        w1 = _trim_to_density(rows, w1_raw, min(s_star, len(w1_raw)), child_bound)

        b_prime = _low_degree_half(rows, B, w1, half_target, c, trace, upper=True)
        ell2, w2_raw = node(b_prime, h1c, h2c, trace + (f"upper half, {len(b_prime)} vertices",))
        if ell2 is not i:
            return (ell2, w2_raw)
        s_use = min(len(w1), len(w2_raw), s_star)
        if s_use < len(w1):
            w1 = _trim_to_density(rows, w1, s_use, child_bound)
        w2 = _trim_to_density(rows, w2_raw, s_use, child_bound)

        union = tuple(sorted(w1 + w2))
        bound = _halving_bound(c, i, h1, h2)
        if rows_density(rows, union) > bound:
            raise _exhausted(
                trace, f"union density exceeds the bound {bound} at {len(union)} vertices"
            )
        return (i, union)

    try:
        color, W = node(X, params.h1, params.h2, ())
    except _Stop as stop:
        return stop.args[0]
    target = _size_target(params.alpha, params.h1 + params.h2, len(X))
    ss = SparseSet(
        color, W, class_density(coloring, color, W), _halving_bound(c, color, params.h1, params.h2),
        target, len(W) >= target, params.alpha, params.h1, params.h2,
    )
    self_check(verify_sparse_set(coloring, ss), "sparse set failed verification")
    return ss


def recursive_sparse_set(
    coloring: ColoredCompleteGraph,
    pat1: OrderedGraph,
    pat2: OrderedGraph,
    c,
    *,
    alpha: float | None = None,
    window: int | None = None,
    samples: int = DEFAULT_SAMPLES,
    tuple_cap: int = DEFAULT_TUPLE_CAP,
    seed: int = 0,
):
    """Find a set with density at most c in one color, or stumble on a copy.

    Wraps the binary-tree recursion with halving budgets h1 = h2 =
    ceil(log2(2/c)); the returned SparseSet then satisfies density <= c.
    """
    params = RecursionParams.from_patterns(
        pat1, pat2, c, coloring.N, alpha=alpha, window=window
    )
    if not coloring.N:
        raise ParameterError("the coloring has no vertices")
    res = binary_tree_sparse(
        coloring,
        range(1, coloring.N + 1),
        pat1,
        pat2,
        params,
        samples=samples,
        tuple_cap=tuple_cap,
        seed=seed,
    )
    if isinstance(res, SparseSet) and res.density > params.c:
        raise InternalContractError(f"sparse set density {res.density} exceeds c={params.c}")
    return res


def exact_ordered_ramsey(
    pat1: OrderedGraph,
    pat2: OrderedGraph,
    max_n: int,
    node_budget: int = kernels.DEFAULT_NODE_BUDGET,
) -> tuple[int, ColoredCompleteGraph] | Exhausted | None:
    """Least N <= max_n forcing a red pat1 or blue pat2, with a witness.

    A good coloring of ordered K_N has no red pat1 and no blue pat2.  The
    witness is the least good coloring on N* - 1 vertices: least over the
    pairs in colex order, Red before Blue.  Returns None when N* exceeds
    max_n.  One kernels.ColoringSolver, grown from N = 1 by
    kernels.search_good_coloring, holds the C(N, k1) + C(N, k2) forbidden
    copies (k1, k2 the pattern orders) as clauses over the C(N, 2) pair
    colors, runs conflict-driven clause learning on them and keeps what it
    learns for the next N.  A fresh solver at N* - 1, which holds nothing
    learned at N*, then probes from the last good coloring for the least
    one; only that witness becomes a graph.  node_budget bounds the search
    decisions summed over every N and every probe, and
    kernels.CLAUSE_LITERAL_BOUND the clauses of each N; when either runs out
    the result is Exhausted, naming that search's N and the count.
    """
    if pat1.m < 1 or pat2.m < 1:
        raise ParameterError("patterns must each have at least one edge")
    if max_n < 1:
        raise ParameterError("max_n must be positive")
    budget = kernels.DecisionBudget(node_budget)
    args = (pat1.n, pat1.sorted_edges(), pat2.n, pat2.sorted_edges(), budget)
    solver = kernels.ColoringSolver(*args)
    witness_bits = None
    try:
        for n_star in range(1, max_n + 1):
            bits = kernels.search_good_coloring(solver, n_star)
            if bits is None:
                break
            witness_bits = bits
        else:
            return None
        assert witness_bits is not None  # K_1 contains no pattern with an edge
        probe = kernels.ColoringSolver(*args)
        probe.grow(n_star - 1)
        witness_bits = probe.least(witness_bits)
    except BudgetExhausted as e:
        return Exhausted((str(e),))
    return n_star, ColoredCompleteGraph.from_colex_bits(n_star - 1, witness_bits)


def find_mono_copy(coloring: ColoredCompleteGraph, pat1: OrderedGraph, pat2: OrderedGraph):
    """Search for a red copy of pat1 or a blue copy of pat2.

    Runs the exact order-preserving embedding search on the red class, then
    on the blue class.  The search tries every increasing map, so an
    Exhausted result follows a complete search: the coloring holds neither
    copy.  Returns a verified MonoCopy or Exhausted.
    """
    _gate_patterns(pat1, pat2)
    for col, pat in ((Color.RED, pat1), (Color.BLUE, pat2)):
        if pat.n <= coloring.N:
            emb = find_ordered_embedding(color_class(coloring, col), pat)
            if emb is not None:
                mc = MonoCopy(col, emb.mapping)
                self_check(verify_mono_copy(coloring, pat1, pat2, mc), "copy failed verification")
                return mc
    return Exhausted((f"exhaustive search over {coloring.N} vertices found no copy",))
