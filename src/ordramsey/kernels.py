"""The search kernels behind the exact oracle, skeletons and constructions.

Inputs are primitives: 1-based adjacency bitmask rows (index 0 unused) and
plain ints.
"""

from __future__ import annotations

from itertools import combinations

# The benchmark records this in every result and refuses to compare runs
# whose values differ.  Every kernel has one implementation, so it is
# constant; results from builds that bound a compiled twin say "compiled".
IMPLEMENTATION = "pure"


def _full_mask(n: int) -> int:
    return ((1 << (n + 1)) - 1) & ~1


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def find_embedding(
    host_n: int,
    host_adj: list[int],
    pat_n: int,
    pat_pre: list[list[int]],
    slots: list[int] | None = None,
) -> list[int] | None:
    """Lexicographically least order-preserving embedding, or None.

    pat_pre[t] lists the pattern neighbors of t that are smaller than t.
    slots, when given, holds a per-pattern-vertex bitmask of allowed host
    vertices (length pat_n + 1, index 0 unused).  The result has element
    i-1 carrying the host vertex of pattern vertex i.
    """
    if pat_n == 0:
        return []
    full = _full_mask(host_n)
    if slots is None:
        slots = [full] * (pat_n + 1)
    mapping = [0] * (pat_n + 1)
    cand = [0] * (pat_n + 1)
    cursor = [0] * (pat_n + 1)

    t = 1
    cand[1] = slots[1] & full
    while t >= 1:
        rest = cand[t] & ~((1 << (cursor[t] + 1)) - 1) if cursor[t] else cand[t]
        if not rest:
            t -= 1
            continue
        w = (rest & -rest).bit_length() - 1
        cursor[t] = w
        mapping[t] = w
        if t == pat_n:
            return mapping[1:]
        nxt = t + 1
        c = slots[nxt] & full & ~((1 << (w + 1)) - 1)
        for j in pat_pre[nxt]:
            c &= host_adj[mapping[j]]
        cand[nxt] = c
        cursor[nxt] = 0
        t = nxt
    return None


def count_embeddings(
    host_n: int,
    host_adj: list[int],
    pat_n: int,
    pat_pre: list[list[int]],
    slots: list[int] | None,
    cap: int,
) -> int:
    """Number of distinct embeddings, saturating at cap."""
    if pat_n == 0:
        return min(1, cap)
    full = _full_mask(host_n)
    if slots is None:
        slots = [full] * (pat_n + 1)
    mapping = [0] * (pat_n + 1)
    count = 0

    def rec(t: int) -> bool:
        nonlocal count
        for w in _bits(cand_at(t)):
            mapping[t] = w
            if t == pat_n:
                count += 1
                if count >= cap:
                    return True
            elif rec(t + 1):
                return True
        return False

    def cand_at(t: int) -> int:
        prev = mapping[t - 1] if t > 1 else 0
        c = slots[t] & full & ~((1 << (prev + 1)) - 1)
        for j in pat_pre[t]:
            c &= host_adj[mapping[j]]
        return c

    rec(1)
    return count


def search_good_coloring(
    N: int,
    pat1_n: int,
    pat1_edges: list[tuple[int, int]],
    pat2_n: int,
    pat2_edges: list[tuple[int, int]],
) -> list[int] | None:
    """Find a coloring of ordered K_N with no Red copy of pattern 1 and no Blue
    copy of pattern 2, backtracking over pairs in colex order (Red tried first).

    Every k-subset of K_N hosts exactly one copy of a k-vertex pattern, so the
    forbidden copies are C(N, k1) + C(N, k2) clauses over the C(N, 2) pair
    variables, all held in memory.  A clause is violated when every pair in
    it takes its forbidden color.  Counter-based unit propagation forces the
    last free pair of a clause to the other color; it removes only branches
    with no good completion, so the result is the lexicographically least good
    coloring, as a plain backtracking search would find.

    Returns per-pair colors in colex order (0 Red, 1 Blue), or None when every
    coloring contains a forbidden copy.
    """
    # an edgeless pattern that fits is present in any coloring of its color
    if pat1_n <= N and not pat1_edges:
        return None
    if pat2_n <= N and not pat2_edges:
        return None

    index: dict[tuple[int, int], int] = {}
    for j in range(2, N + 1):
        for i in range(1, j):
            index[i, j] = len(index)
    nvars = len(index)

    # watch[c][v]: the clauses forbidding color c that contain pair v
    watch: list[list[list[int]]] = [[[] for _ in range(nvars)] for _ in range(2)]
    clauses: list[tuple[int, ...]] = []
    units: list[tuple[int, int]] = []  # (pair, the color it is forced to)
    for color, pn, pedges in ((0, pat1_n, pat1_edges), (1, pat2_n, pat2_edges)):
        if pn > N:
            continue
        seen: set[tuple[int, ...]] = set()
        for sub in combinations(range(1, N + 1), pn):
            clause = tuple(sorted({index[sub[a - 1], sub[b - 1]] for a, b in pedges}))
            if clause in seen:
                continue
            seen.add(clause)
            if len(clause) == 1:
                units.append((clause[0], 1 - color))
            for v in clause:
                watch[color][v].append(len(clauses))
            clauses.append(clause)
    # need[cl]: pairs of clause cl not yet propagated in its forbidden color;
    # 1 leaves one pair to force, 0 marks a violated clause
    need = [len(clause) for clause in clauses]

    val = [-1] * nvars
    trail: list[int] = []
    head = 0  # trail[:head] have been propagated into need

    def propagate() -> bool:
        nonlocal head
        ok = True
        while ok and head < len(trail):
            v = trail[head]
            head += 1
            c = val[v]
            # finish every clause of v even after a conflict, so undo is exact
            for cl in watch[c][v]:
                left = need[cl] - 1
                need[cl] = left
                if left == 0:
                    ok = False
                elif left == 1 and ok:
                    for u in clauses[cl]:
                        if val[u] < 0:
                            val[u] = 1 - c
                            trail.append(u)
                            break
        return ok

    def undo(mark: int) -> None:
        nonlocal head
        for v in trail[mark:head]:
            for cl in watch[val[v]][v]:
                need[cl] += 1
        for v in trail[mark:]:
            val[v] = -1
        del trail[mark:]
        head = mark

    # a clause of one pair forces it before any decision
    for v, c in units:
        if val[v] == 1 - c:
            return None
        if val[v] < 0:
            val[v] = c
            trail.append(v)
    decisions: list[tuple[int, int]] = []  # (pair, trail length before it)
    k = 0
    ok = propagate()
    while True:
        if ok:
            while k < nvars and val[k] >= 0:
                k += 1
            if k == nvars:
                return val
            decisions.append((k, len(trail)))
            val[k] = 0
        else:
            while decisions:
                k, mark = decisions[-1]
                flip = val[k] == 0
                undo(mark)
                if flip:
                    break
                decisions.pop()
            else:
                return None
            val[k] = 1
        trail.append(k)
        ok = propagate()


def cyclic_triangle_packing(
    beats: list[int], mask: int, limit: int
) -> list[tuple[int, int, int]]:
    """Greedy vertex-disjoint cyclic triangles inside mask, at most limit of them.

    Takes the lowest vertex w of the mask, then the first x it beats that
    beats some y beating w, and the lowest such y: w -> x -> y -> w.  The
    three leave the mask and the scan repeats; a w on no cyclic triangle
    inside the mask is dropped alone.  Stops early once too few vertices
    remain for the triangles still missing.  A helper of transitive_chain.
    """
    found: list[tuple[int, int, int]] = []
    missing = limit
    left = mask.bit_count()
    while missing and left >= 3 * missing:
        low = mask & -mask
        mask ^= low
        left -= 1
        w = low.bit_length() - 1
        outs = mask & beats[w]
        ins = mask ^ outs
        if not ins:
            continue
        while outs:
            xb = outs & -outs
            x = xb.bit_length() - 1
            ys = beats[x] & ins
            if ys:
                yb = ys & -ys
                found.append((w, x, yb.bit_length() - 1))
                mask ^= xb | yb
                left -= 2
                missing -= 1
                break
            outs ^= xb
    return found


def transitive_chain(N: int, beats: list[int], k: int) -> list[int] | None:
    """First dominance-ordered transitive subtournament of size k in DFS order.

    The DFS picks chain[depth] from the vertices beaten by every earlier
    chain vertex, smallest first.  A child whose candidates cannot complete
    the chain is rejected in the parent loop, before any call: when it has
    fewer candidates than the chain still needs, or when its s candidates
    hold t vertex-disjoint cyclic triangles with s - t short of that need (a
    transitive set keeps at most two vertices of a cyclic triangle).  Both
    tests remove only subtrees holding no chain, so the first chain found is
    the one of the plain DFS.
    """
    if k <= 0:
        return []
    chain = [0] * k

    def rec(depth: int, cands: int) -> bool:
        need = k - depth - 1
        rest = cands
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            chain[depth] = v
            if not need:
                return True
            nxt = cands & beats[v]
            s = nxt.bit_count()
            if s < need:
                continue
            slack = s - need
            if 3 * (slack + 1) <= s and len(
                cyclic_triangle_packing(beats, nxt, slack + 1)
            ) > slack:
                continue
            if rec(depth + 1, nxt):
                return True
        return False

    full = _full_mask(N)
    return chain[:] if rec(0, full) else None


def digraph_injection(
    host_n: int,
    beats: list[int],
    pat_n: int,
    pat_arcs: list[tuple[int, int]],
    order: list[int],
    budget: int,
) -> tuple[list[int] | None, int, bool]:
    """Arc-preserving injection of a digraph pattern into a tournament host.

    Assigns pattern vertices in the given order with forward checking; every
    attempted assignment counts one node against the budget.  Returns
    (mapping with element i-1 the host of pattern vertex i, nodes used, exhausted).
    """
    full = _full_mask(host_n)
    if pat_n > host_n:
        return None, 0, False
    beaten = [0] * (host_n + 1)
    for h in range(1, host_n + 1):
        beaten[h] = full & ~beats[h] & ~(1 << h)

    out_pat = [0] * (pat_n + 1)
    in_pat = [0] * (pat_n + 1)
    for u, v in pat_arcs:
        out_pat[u] |= 1 << v
        in_pat[v] |= 1 << u

    cand = [full] * (pat_n + 1)
    mapping = [0] * (pat_n + 1)
    trail: list[tuple[int, int]] = []
    nodes = 0
    exhausted = False

    def assign(p: int, h: int, upcoming: list[int]) -> bool:
        for q in upcoming:
            old = cand[q]
            new = old & ~(1 << h)
            if out_pat[p] & (1 << q):
                new &= beats[h]
            if in_pat[p] & (1 << q):
                new &= beaten[h]
            if new != old:
                trail.append((q, old))
                cand[q] = new
                if not new:
                    return False
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            q, old = trail.pop()
            cand[q] = old

    def rec(t: int) -> bool:
        nonlocal nodes, exhausted
        if t == pat_n:
            return True
        p = order[t]
        upcoming = order[t + 1 :]
        for h in _bits(cand[p]):
            nodes += 1
            if nodes > budget:
                exhausted = True
                return False
            mapping[p] = h
            mark = len(trail)
            if assign(p, h, upcoming) and rec(t + 1):
                return True
            undo(mark)
            if exhausted:
                return False
        return False

    found = rec(0)
    return (mapping[1:] if found else None), nodes, exhausted


def clique_tuple_buckets(
    n: int, adj: list[int], k: int, cap: int
) -> tuple[int, bool, dict[tuple[int, ...], list]]:
    """Enumerate increasing k-tuples spanning cliques, in lexicographic order.

    Aggregates tuples into buckets keyed by the odd-position vertices
    (positions 2, 4, ... in 1-based position counting); each bucket holds
    [tuple count, list of even-position vertex bitmasks].  For odd k the last
    position is an even one, so each (k-1)-prefix is recorded as one bucket
    update: its extension mask is OR-ed into the last mask and its popcount
    added to the count.  The cap still counts tuples in lexicographic order:
    the result holds exactly the first cap tuples, and truncated is True when
    at least one further tuple existed.
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
        ent = buckets.get(key)
        if ent is None:
            ent = [0, [0] * half]
            buckets[key] = ent
        return ent

    def record() -> None:
        nonlocal total, truncated
        if total >= cap:
            truncated = True
            raise _Stop
        ent = bucket()
        ent[0] += 1
        masks = ent[1]
        for idx in range(half):
            masks[idx] |= 1 << tup[2 * idx]
        total += 1

    def record_last(last: int) -> None:
        # the tuples tup[:k-1] + (w,) for each w in last, w ascending
        nonlocal total, truncated
        count = last.bit_count()
        room = cap - total
        if count > room:
            truncated = True
            if not room:
                raise _Stop
            while count > room:  # keep the lowest room vertices
                last ^= 1 << (last.bit_length() - 1)
                count -= 1
        ent = bucket()
        ent[0] += count
        masks = ent[1]
        for idx in range(half - 1):
            masks[idx] |= 1 << tup[2 * idx]
        masks[half - 1] |= last
        total += count
        if truncated:
            raise _Stop

    def rec(depth: int, cands: int) -> None:
        if cands.bit_count() < k - depth:
            return
        if depth + 2 == k and k % 2:
            for v in _bits(cands):
                last = cands & adj[v] & ~((1 << (v + 1)) - 1)
                if last:
                    tup[depth] = v
                    record_last(last)
            return
        for v in _bits(cands):
            tup[depth] = v
            if depth + 1 == k:
                record()
            else:
                rec(depth + 1, cands & adj[v] & ~((1 << (v + 1)) - 1))

    full = _full_mask(n)
    try:
        if k == 1 and full:
            record_last(full)
        elif k > 1:
            rec(0, full)
    except _Stop:
        pass
    return total, truncated, buckets
