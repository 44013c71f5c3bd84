"""The search kernels behind the exact oracle, skeletons and constructions.

Inputs are primitives: plain ints and 1-based bitmask rows (index 0
unused), held in any indexable sequence; the kernels only index the rows.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import combinations

from .core import bits_of, transpose_masks
from .errors import BudgetExhausted

# Every kernel has one implementation, so this is constant; the benchmark
# records it in every result.
IMPLEMENTATION = "pure"


def _full_mask(n: int) -> int:
    return ((1 << (n + 1)) - 1) & ~1


def find_embedding(
    host_n: int,
    host_adj: Sequence[int],
    pat_n: int,
    pat_pre: list[list[int]],
) -> list[int] | None:
    """Lexicographically least order-preserving embedding, or None.

    pat_pre[t] lists the pattern neighbors of t that are smaller than t, and
    element i-1 of the result is the host vertex of pattern vertex i.

    A depth-first search over the prefixes of pattern vertices 1..pat_n-1
    in lexicographic order: the first prefix with a nonempty mask of host
    vertices that complete it gives the embedding, with that mask's least
    vertex.
    """
    if pat_n == 0:
        return []
    full = _full_mask(host_n)
    mapping = [0] * pat_n  # mapping[t]: host vertex of pattern vertex t, mapping[0] == 0
    rest = [0] * pat_n  # rest[t]: host vertices not yet tried for pattern vertex t
    t = 0
    while True:
        nxt = t + 1
        c = full & ~((2 << mapping[t]) - 1)
        for j in pat_pre[nxt]:
            c &= host_adj[mapping[j]]
        if nxt < pat_n:
            rest[nxt] = c
            t = nxt
        elif c:
            return mapping[1:] + [(c & -c).bit_length() - 1]
        r = rest[t]
        while not r:
            if t == 0:
                return None
            t -= 1
            r = rest[t]
        low = r & -r
        rest[t] = r ^ low
        mapping[t] = low.bit_length() - 1


# A learned clause of at most this many pairs is watched for the rest of the
# solver's life.  A longer one only serves as the reason of the pair it
# asserts and is dropped when that pair is unassigned.  With every learned
# clause watched, refuting K3,K4 or K4,K3 at N = 9 took 3-4 times as long,
# spent visiting watches; limits from 4 to 12 all did worse than 8 there.
LEARNED_WATCH_LIMIT = 8

# A search restarts after 1, 1, 2, 1, 1, 2, 4, ... (the Luby sequence) times
# this many conflicts, and after each conflict every activity decays by this
# factor.  See CHANGES.md for how they were chosen.
LUBY_UNIT = 50
ACTIVITY_DECAY = 0.99

DEFAULT_NODE_BUDGET = 10_000_000

# ColoringSolver.grow refuses an N whose copy clauses would hold more than
# this many literals, C(N, k1) m1 + C(N, k2) m2 for patterns of k vertices
# and m edges: memory grows with that total, not with the clause count.
# Built, P8,P8 at N = 24 (10.3M literals) peaks at about 340 MB and K6,K6
# at N = 28 (11.3M) at about 390 MB; two-literal clauses cost the most per
# literal, about 0.9 GB at the bound.
CLAUSE_LITERAL_BOUND = 12_000_000


class DecisionBudget:
    """Steps allowed to a run of searches (limit) and taken so far (used):
    the decisions of ColoringSolver.solve, the attempts of
    digraph_injection."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0


class ColoringSolver:
    """Good colorings of ordered K_N: no Red copy of pattern 1 and no Blue
    copy of pattern 2, where each pattern has at least one edge.

    Every k-subset of K_N hosts exactly one copy of a k-vertex pattern, so the
    forbidden copies are C(N, k1) + C(N, k2) clauses over the C(N, 2) pair
    variables, all held in memory, each built once straight into its watch
    lists.  A literal 2*v + c says that pair v (colex order) has color c (0
    Red, 1 Blue); a copy's clause asks one of its pairs to take the other
    color.  The pairs and copy clauses of K_N are some of those of K_(N+1),
    so grow adds only the copies through new vertices, and a clause learned
    at N holds at every larger N.  units lists the literals asserted before
    every search: one-pair copy clauses, learned one-pair clauses and the
    pairs that least fixes.  A fixed pair does not follow from the copy
    clauses, so a solver that has run least is not grown or reused.
    """

    def __init__(self, pat1_n, pat1_edges, pat2_n, pat2_edges, budget: DecisionBudget):
        self.patterns = ((1, pat1_n, pat1_edges), (0, pat2_n, pat2_edges))
        self.budget = budget
        self.N = self.nvars = 0
        # watches[lit]: the clauses with lit in their first two places, visited
        # when lit becomes false
        self.watches: list[list[list[int]]] = []
        self.units: list[int] = []

    def grow(self, N: int) -> None:
        """Add the pairs and the copy clauses of K_N, N >= self.N.

        An N whose copy clauses would hold more than CLAUSE_LITERAL_BOUND
        literals raises BudgetExhausted before any clause is built.
        """
        literals = sum(math.comb(N, pn) * len(pedges) for _, pn, pedges in self.patterns)
        if literals > CLAUSE_LITERAL_BOUND:
            raise BudgetExhausted(
                f"clause bound exhausted at N = {N}: {literals} literals"
                f" above the bound of {CLAUSE_LITERAL_BOUND}"
            )
        nvars = N * (N - 1) // 2
        self.watches += [[] for _ in range(2 * (nvars - self.nvars))]
        watches, units = self.watches, self.units
        for other, pn, pedges in self.patterns:
            # copies that differ only in where an isolated vertex sits share a
            # clause; build it from the first, which has each isolated vertex
            # just above the vertex before it
            isolated = [v - 1 for v in range(1, pn + 1) if all(v not in e for e in pedges)]
            for top in range(self.N + 1, N + 1):
                subs = (head + (top,) for head in combinations(range(1, top), pn - 1))
                if isolated:
                    subs = (s for s in subs if all(s[i] == (s[i - 1] if i else 0) + 1 for i in isolated))
                for sub in subs:
                    # pair (i, j), i < j, is variable (j-1)(j-2)/2 + i - 1
                    clause = sorted({
                        (sub[b - 1] - 1) * (sub[b - 1] - 2) + 2 * sub[a - 1] - 2 + other
                        for a, b in pedges
                    })
                    if len(clause) > 1:
                        watches[clause[0]].append(clause)
                        watches[clause[1]].append(clause)
                    else:
                        units.append(clause[0])
        self.N, self.nvars = N, nvars

    def solve(self, assume: int | None = None) -> list[int] | None:
        """A good coloring of K_N in which the literal assume, when given,
        holds: per-pair colors in colex order, or None when there is none.

        Conflict-driven clause learning from an empty assignment: the units
        are asserted first, two watched literals per clause drive unit
        propagation, and a conflict learns its first-UIP clause, backjumps to
        the second-highest level in it and asserts the UIP pair's other
        color.  A learned clause follows from the clauses and units held, so
        it removes no good coloring.  assume is decided first, at level 1.
        Every other decision takes the unassigned pair of highest activity
        (lowest on a tie) in its saved phase: every pair met in conflict
        analysis gains activity, the gain grows by 1 / ACTIVITY_DECAY per
        conflict, and an unassigned pair keeps its last color as its phase.
        Each search starts with no activity and every phase Red, so its first
        decisions go in colex order; it restarts on the Luby sequence in
        units of LUBY_UNIT conflicts, keeping its learned clauses, as MiniSat
        does.  A decision that would make budget.used exceed budget.limit
        raises BudgetExhausted instead.
        """
        N, nvars, budget = self.N, self.nvars, self.budget
        watches, units = self.watches, self.units
        # lval[lit]: 1 true, -1 false, 0 unassigned
        lval = [0] * (2 * nvars)
        trail: list[int] = []
        for lit in units:
            if lval[lit] < 0:
                return None
            if not lval[lit]:
                lval[lit] = 1
                lval[lit ^ 1] = -1
                trail.append(lit)
        level = [0] * nvars
        reason: list[list[int] | None] = [None] * nvars
        seen_var = [False] * nvars
        activity = [0.0] * nvars
        bump = 1.0
        phase = list(range(0, 2 * nvars, 2))  # phase[v]: the literal v was last given
        starts: list[int] = []  # starts[d - 1]: trail length before decision level d
        head = 0  # trail[:head] have been propagated
        depth = 0
        conflicts = 0  # since the last restart
        # (u, luby) steps through the Luby sequence by Knuth's reluctant doubling
        u = luby = 1
        restart_at = LUBY_UNIT
        while True:
            conflict = None
            while head < len(trail):
                false_lit = trail[head] ^ 1
                head += 1
                ws = watches[false_lit]
                if not ws:
                    continue
                watches[false_lit] = kept = []
                keep = kept.append
                rest = iter(ws)
                for cl in rest:
                    # keep the false literal in place 1
                    first = cl[0]
                    if first == false_lit:
                        first = cl[1]
                        if lval[first] > 0:
                            keep(cl)
                            continue
                        cl[0] = first
                        cl[1] = false_lit
                    elif lval[first] > 0:
                        keep(cl)
                        continue
                    for t in range(2, len(cl)):
                        lit = cl[t]
                        if lval[lit] >= 0:
                            cl[1] = lit
                            cl[t] = false_lit
                            watches[lit].append(cl)
                            break
                    else:
                        keep(cl)
                        if lval[first]:
                            kept.extend(rest)
                            conflict = cl
                            break
                        lval[first] = 1
                        lval[first ^ 1] = -1
                        v = first >> 1
                        level[v] = depth
                        reason[v] = cl
                        trail.append(first)
                if conflict is not None:
                    break

            if conflict is not None:
                if not depth:
                    return None
                conflicts += 1
                # first UIP: resolve with the reasons of this level's pairs,
                # latest first, until one pair of this level is left
                learnt = [0]
                back = 0
                open_here = 0
                cl = conflict
                skip = 0
                pos = len(trail)
                while True:
                    for t in range(skip, len(cl)):
                        lit = cl[t]
                        v = lit >> 1
                        if not seen_var[v] and level[v]:
                            seen_var[v] = True
                            activity[v] += bump
                            if level[v] == depth:
                                open_here += 1
                            else:
                                learnt.append(lit)
                                if level[v] > back:
                                    back = level[v]
                    pos -= 1
                    while not seen_var[trail[pos] >> 1]:
                        pos -= 1
                    uip = trail[pos]
                    v = uip >> 1
                    seen_var[v] = False
                    open_here -= 1
                    if not open_here:
                        break
                    cl = reason[v]
                    skip = 1  # cl[0] is the literal cl asserted
                learnt[0] = uip ^ 1
                for lit in learnt:
                    seen_var[lit >> 1] = False
                bump /= ACTIVITY_DECAY
                if bump > 1e100:
                    activity = [a * 1e-100 for a in activity]
                    bump *= 1e-100
            elif conflicts >= restart_at:
                conflicts = 0
                if u & -u == luby:
                    u += 1
                    luby = 1
                else:
                    luby *= 2
                restart_at = luby * LUBY_UNIT
                if not depth:
                    continue
                back = 0
            else:
                if assume is None or lval[assume] > 0:
                    k = -1
                    best = -1.0
                    for v, a in enumerate(activity):
                        if a > best and not lval[2 * v]:
                            best = a
                            k = v
                    if k < 0:
                        break
                    lit = phase[k]
                elif lval[assume]:
                    return None
                else:
                    lit = assume
                    k = lit >> 1
                if budget.used == budget.limit:
                    raise BudgetExhausted(f"node budget exhausted at N = {N} after {budget.used} decisions")
                budget.used += 1
                depth += 1
                starts.append(len(trail))
                lval[lit] = 1
                lval[lit ^ 1] = -1
                level[k] = depth
                reason[k] = None
                trail.append(lit)
                continue

            # backjump to level back
            cut = starts[back]
            for lit in trail[cut:]:
                lval[lit] = 0
                lval[lit ^ 1] = 0
                phase[lit >> 1] = lit
            del trail[cut:]
            del starts[back:]
            head = cut
            depth = back
            if conflict is None:
                continue
            if len(learnt) > 1:
                # watch a literal of level back beside the asserted one
                for t in range(1, len(learnt)):
                    if level[learnt[t] >> 1] == back:
                        learnt[1], learnt[t] = learnt[t], learnt[1]
                        break
                if len(learnt) <= LEARNED_WATCH_LIMIT:
                    watches[learnt[0]].append(learnt)
                    watches[learnt[1]].append(learnt)
            else:
                units.append(learnt[0])
            lit = learnt[0]
            lval[lit] = 1
            lval[lit ^ 1] = -1
            v = lit >> 1
            level[v] = depth
            reason[v] = learnt
            trail.append(lit)
        return [1 if lval[2 * v + 1] > 0 else 0 for v in range(nvars)]

    def least(self, good: list[int]) -> list[int]:
        """The least good coloring, over the pairs in colex order with Red
        before Blue, from the good coloring good, as lexicographic
        optimization with a SAT oracle finds it (Marques-Silva, Argelich,
        Graca and Lynce, 2011): each pair in turn is fixed in units Red if the
        current good coloring has it Red or solve finds one that does, which
        becomes the current one, and Blue otherwise.
        """
        for v in range(self.nvars):
            found = self.solve(2 * v) if good[v] else good
            if found is not None:
                good = found
            self.units.append(2 * v + (found is None))
        return good


def search_good_coloring(solver: ColoringSolver, N: int) -> list[int] | None:
    """Grow solver to N and solve: a good coloring of K_N, or None."""
    solver.grow(N)
    return solver.solve()


def transitive_chain(N: int, beats: Sequence[int], k: int) -> list[int] | None:
    """First dominance-ordered transitive subtournament of size k in DFS order.

    The DFS picks chain[depth] from the vertices beaten by every earlier
    chain vertex, smallest first.  A child whose candidates cannot complete
    the chain is rejected in the parent loop, before any call: when it has
    fewer candidates than the chain still needs, or when its s candidates
    hold t vertex-disjoint cyclic triangles with s - t short of that need (a
    transitive set keeps at most two vertices of a cyclic triangle).  The
    triangles are counted greedily in place: the lowest candidate w left,
    then the first x it beats that beats some y beating w, and the lowest
    such y; a w on no cyclic triangle is dropped alone.  The count stops
    once it rejects the child or too few candidates remain to do so.  Before
    the DFS, the same search runs on the low index half {1..floor(N/2)} for
    a transitive ka-set, ka = ceil((k+1)/2), and then on the high half for
    a (k+1-ka)-set: a k-chain meets the halves in transitive sets, so when
    both searches fail there is no k-chain.  All three tests remove only
    subtrees holding no chain, so the first chain found is the one of the
    plain DFS.
    """
    if k <= 0:
        return []
    chain = [0] * k

    def rec(depth: int, cands: int, k: int) -> bool:
        need = k - depth - 1
        if not need:
            if not cands:
                return False
            chain[depth] = (cands & -cands).bit_length() - 1
            return True
        rest = cands
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            nxt = cands & beats[v]
            left = nxt.bit_count()
            if left < need:
                continue
            # triangles still missing to reject the child: slack + 1
            missing = left - need + 1
            mask = nxt
            while 0 < 3 * missing <= left:
                wb = mask & -mask
                mask ^= wb
                left -= 1
                outs = mask & beats[wb.bit_length() - 1]
                ins = mask ^ outs
                if not ins:
                    continue
                while outs:
                    xb = outs & -outs
                    ys = beats[xb.bit_length() - 1] & ins
                    if ys:
                        mask ^= xb | (ys & -ys)
                        left -= 2
                        missing -= 1
                        break
                    outs ^= xb
            if missing:
                chain[depth] = v
                if rec(depth + 1, nxt, k):
                    return True
        return False

    full = _full_mask(N)
    half = _full_mask(N // 2)
    ka = k // 2 + 1
    if not rec(0, half, ka) and not rec(0, full ^ half, k + 1 - ka):
        return None
    return chain[:] if rec(0, full, k) else None


def digraph_injection(
    host_n: int,
    beats: Sequence[int],
    pat_n: int,
    pat_out: Sequence[int],
    budget: DecisionBudget,
) -> tuple[list[int] | None, int]:
    """Arc-preserving injection of a digraph pattern into a tournament host.

    pat_out[p] is the bitmask of pattern vertices p has an arc into (index 0
    empty).  Assigns pattern vertices 1..pat_n in order with forward
    checking: each level hands the next the candidate masks of the later
    pattern vertices as a new list, and an attempt fails at the first later
    vertex it leaves with no candidate.  Each attempted assignment spends a
    node of budget; the attempt past its limit raises BudgetExhausted.
    Returns (mapping with element i-1 the host of pattern vertex i, or None;
    nodes this call spent).
    """
    full = _full_mask(host_n)
    beaten = [full & ~beats[h] & ~(1 << h) for h in range(host_n + 1)]
    pat_in = transpose_masks(pat_out, pat_n)
    mapping = [0] * (pat_n + 1)
    start = budget.used

    def rec(p: int, cands: list[int]) -> bool:
        # cands[i] is the candidate mask of pattern vertex p + i
        if p > pat_n:
            return True
        out_p, in_p = pat_out[p], pat_in[p]
        for h in bits_of(cands[0]):
            if budget.used == budget.limit:
                raise BudgetExhausted(f"node budget of {budget.limit} exhausted")
            budget.used += 1
            mapping[p] = h
            free = ~(1 << h)
            nxt = []
            for q in range(p + 1, pat_n + 1):
                c = cands[q - p] & free
                if out_p >> q & 1:
                    c &= beats[h]
                if in_p >> q & 1:
                    c &= beaten[h]
                if not c:
                    break
                nxt.append(c)
            else:
                if rec(p + 1, nxt):
                    return True
        return False

    found = rec(1, [full] * pat_n)
    return (mapping[1:] if found else None), budget.used - start


def _edges_between(side: int, other: int, adj: Sequence[int]) -> tuple[int, int, int]:
    """Edges between the disjoint vertex sets side and other, by a loop over
    side: (their number, the side vertices on one, the other vertices on one)."""
    count = side_hit = other_hit = 0
    while side:
        low = side & -side
        side ^= low
        row = other & adj[low.bit_length() - 1]
        if row:
            count += row.bit_count()
            side_hit |= low
            other_hit |= row
    return count, side_hit, other_hit


def clique_tuple_buckets(
    n: int, adj: Sequence[int], k: int, cap: int
) -> tuple[int, bool, dict[tuple[int, ...], list[int]]]:
    """Enumerate increasing k-tuples spanning cliques, in lexicographic order.

    Aggregates tuples into buckets keyed by the odd-position vertices
    (positions 2, 4, ... in 1-based position counting); each bucket holds the
    list of its even-position vertex bitmasks.  For odd k >= 3 the last three
    positions x < y < w are filled in blocks: with the first k - 3 vertices
    (the prefix) fixed, the tuples sharing the last spine vertex y all land
    in one bucket, so each (prefix, y) is one bucket update (a mask of the x
    and a mask of the w).  The cap counts tuples in lexicographic order,
    where a prefix's tuples are contiguous: a prefix is committed in blocks
    only when all its tuples fit under the cap, and otherwise recorded tuple
    by tuple, cut at exactly the cap'th tuple.  So the result holds exactly
    the first cap tuples, total is how many that is, and truncated is True
    when at least one further tuple existed.
    """
    buckets: dict[tuple[int, ...], list] = {}
    total = 0
    truncated = False
    tup = [0] * k
    half = (k + 1) // 2

    class _Stop(Exception):
        pass

    def bucket() -> list:
        key = tuple(tup[1::2])
        masks = buckets.get(key)
        if masks is None:
            masks = [0] * half
            buckets[key] = masks
        return masks

    def record() -> None:
        nonlocal total, truncated
        if total >= cap:
            truncated = True
            raise _Stop
        masks = bucket()
        for idx in range(half):
            masks[idx] |= 1 << tup[2 * idx]
        total += 1

    def record_tail(depth: int, cands: int) -> bool:
        # the tuples tup[:depth] + (x, y, w), x < y < w a triangle in cands,
        # as one bucket update per y; False (nothing recorded) when they do
        # not all fit under the cap
        nonlocal total
        blocks = []
        size = 0
        # y lies strictly between the least and the greatest candidate
        mid = cands ^ (cands & -cands)
        mid ^= 1 << (mid.bit_length() - 1)
        for y in bits_of(mid):
            row_y = cands & adj[y]
            xs = row_y & ((1 << y) - 1)
            above = row_y >> (y + 1) << (y + 1)
            if not xs or not above:
                continue
            if xs.bit_count() <= above.bit_count():
                count, x_mask, last_mask = _edges_between(xs, above, adj)
            else:
                count, last_mask, x_mask = _edges_between(above, xs, adj)
            if count:
                blocks.append((y, x_mask, last_mask))
                size += count
        if size > cap - total:
            return False
        for y, x_mask, last_mask in blocks:
            tup[depth + 1] = y
            masks = bucket()
            for idx in range(half - 2):
                masks[idx] |= 1 << tup[2 * idx]
            masks[half - 2] |= x_mask
            masks[half - 1] |= last_mask
        total += size
        return True

    def rec(depth: int, cands: int) -> None:
        if cands.bit_count() < k - depth:
            return
        if depth + 3 == k and k % 2 and record_tail(depth, cands):
            return
        for v in bits_of(cands):
            tup[depth] = v
            if depth + 1 == k:
                record()
            else:
                rec(depth + 1, cands & adj[v] & ~((1 << (v + 1)) - 1))

    try:
        if k > 0:
            rec(0, _full_mask(n))
    except _Stop:
        pass
    return total, truncated, buckets
