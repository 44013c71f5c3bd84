# cython: language_level=3
"""Compiled twins of the pure-Python search kernels.

Same calling convention, same witnesses, same enumeration order as
ordramsey._fallback; ordramsey.kernels picks an implementation at import
time.  search_good_coloring has no twin here: the pure clause search is
always used.  Vertex masks stay Python ints so hosts are not capped at a
machine word; the win comes from typed counters and C-level recursion.
"""


cdef object _ONE = 1


cdef inline object _bit(int v):
    # Python-object shift: C-int shifts are undefined past the word size
    return _ONE << v


cdef inline object _low_mask(int v):
    # bits 0..v inclusive
    return (_ONE << (v + 1)) - 1


cdef object _full_mask(int n):
    return ((_ONE << (n + 1)) - 1) & ~1


def find_embedding(host_n, host_adj, pat_n, pat_pre, slots=None):
    """Lexicographically least order-preserving embedding, or None.

    pat_pre[t] lists the pattern neighbors of t that are smaller than t.
    slots, when given, holds a per-pattern-vertex bitmask of allowed host
    vertices (length pat_n + 1, index 0 unused).  The result has element
    i-1 carrying the host vertex of pattern vertex i.
    """
    cdef int pn = pat_n
    cdef int t, w, nxt, j
    cdef object full, rest, low, c
    if pn == 0:
        return []
    full = _full_mask(host_n)
    if slots is None:
        slots = [full] * (pn + 1)
    mapping = [0] * (pn + 1)
    cand = [0] * (pn + 1)
    cursor = [0] * (pn + 1)

    t = 1
    cand[1] = slots[1] & full
    while t >= 1:
        if cursor[t]:
            rest = cand[t] & ~_low_mask(<int> cursor[t])
        else:
            rest = cand[t]
        if not rest:
            t -= 1
            continue
        low = rest & -rest
        w = low.bit_length() - 1
        cursor[t] = w
        mapping[t] = w
        if t == pn:
            return mapping[1:]
        nxt = t + 1
        c = slots[nxt] & full & ~_low_mask(w)
        for j in pat_pre[nxt]:
            c &= host_adj[<object> mapping[j]]
        cand[nxt] = c
        cursor[nxt] = 0
        t = nxt
    return None


def count_embeddings(host_n, host_adj, pat_n, pat_pre, slots, cap):
    """Number of distinct embeddings, saturating at cap."""
    cdef int pn = pat_n
    cdef long long count = 0, limit = cap
    cdef int t, w, nxt, j
    cdef object full, rest, low, c
    if pn == 0:
        return min(1, cap)
    full = _full_mask(host_n)
    if slots is None:
        slots = [full] * (pn + 1)
    mapping = [0] * (pn + 1)
    cand = [0] * (pn + 1)
    cursor = [0] * (pn + 1)

    t = 1
    cand[1] = slots[1] & full
    while t >= 1:
        if cursor[t]:
            rest = cand[t] & ~_low_mask(<int> cursor[t])
        else:
            rest = cand[t]
        if not rest:
            t -= 1
            continue
        low = rest & -rest
        w = low.bit_length() - 1
        cursor[t] = w
        mapping[t] = w
        if t == pn:
            count += 1
            if count >= limit:
                return int(count)
            continue
        nxt = t + 1
        c = slots[nxt] & full & ~_low_mask(w)
        for j in pat_pre[nxt]:
            c &= host_adj[<object> mapping[j]]
        cand[nxt] = c
        cursor[nxt] = 0
        t = nxt
    return int(count)


cdef bint _chain_rec(list beats, int k, int depth, object cands, list chain) except -1:
    cdef object m, low
    cdef int v
    if cands.bit_count() < k - depth:
        return False
    m = cands
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        chain[depth] = v
        if depth + 1 == k or _chain_rec(beats, k, depth + 1, cands & beats[v], chain):
            return True
    return False


def transitive_chain(N, beats, k):
    """First dominance-ordered transitive subtournament of size k in DFS order."""
    cdef int kk = k
    if kk <= 0:
        return []
    chain = [0] * kk
    if _chain_rec(list(beats), kk, 0, _full_mask(N), chain):
        return chain[:]
    return None


cdef class _Injector:
    cdef list cand, mapping, order, beats, beaten, out_pat, in_pat, trail
    cdef long long nodes, budget
    cdef bint exhausted
    cdef int pat_n

    cdef bint assign(self, int p, int h, int t):
        cdef int q
        cdef Py_ssize_t idx
        cdef object old, new
        cdef object hbit = _bit(h)
        for idx in range(t + 1, len(self.order)):
            q = self.order[idx]
            old = self.cand[q]
            new = old & ~hbit
            if self.out_pat[p] & _bit(q):
                new &= self.beats[h]
            if self.in_pat[p] & _bit(q):
                new &= self.beaten[h]
            if new != old:
                self.trail.append((q, old))
                self.cand[q] = new
                if not new:
                    return False
        return True

    cdef void undo(self, Py_ssize_t mark):
        cdef tuple entry
        while len(self.trail) > mark:
            entry = self.trail.pop()
            self.cand[<object> entry[0]] = entry[1]

    cdef bint rec(self, int t) except -1:
        cdef int p, h
        cdef object m, low
        cdef Py_ssize_t mark
        if t == self.pat_n:
            return True
        p = self.order[t]
        m = self.cand[p]
        while m:
            low = m & -m
            h = low.bit_length() - 1
            m ^= low
            self.nodes += 1
            if self.nodes > self.budget:
                self.exhausted = True
                return False
            self.mapping[p] = h
            mark = len(self.trail)
            if self.assign(p, h, t) and self.rec(t + 1):
                return True
            self.undo(mark)
            if self.exhausted:
                return False
        return False


def digraph_injection(host_n, beats, pat_n, pat_arcs, order, budget):
    """Arc-preserving injection of a digraph pattern into a tournament host.

    Assigns pattern vertices in the given order with forward checking; every
    attempted assignment counts one node against the budget.  Returns
    (mapping with element i-1 the host of pattern vertex i, nodes used, exhausted).
    """
    cdef int hn = host_n, pn = pat_n
    cdef int h, u, v
    cdef object full = _full_mask(hn)
    if pn > hn:
        return None, 0, False
    beaten = [0] * (hn + 1)
    for h in range(1, hn + 1):
        beaten[h] = full & ~beats[h] & ~_bit(h)
    out_pat = [0] * (pn + 1)
    in_pat = [0] * (pn + 1)
    for u, v in pat_arcs:
        out_pat[u] |= _bit(v)
        in_pat[v] |= _bit(u)

    cdef _Injector st = _Injector()
    st.cand = [full] * (pn + 1)
    st.mapping = [0] * (pn + 1)
    st.order = list(order)
    st.beats = list(beats)
    st.beaten = beaten
    st.out_pat = out_pat
    st.in_pat = in_pat
    st.trail = []
    st.nodes = 0
    st.budget = budget
    st.exhausted = False
    st.pat_n = pn

    cdef bint found = st.rec(0)
    return (st.mapping[1:] if found else None), int(st.nodes), st.exhausted


def clique_tuple_buckets(n, adj, k, cap):
    """Enumerate increasing k-tuples spanning cliques, in lexicographic order.

    Aggregates tuples into buckets keyed by the odd-position vertices
    (positions 2, 4, ... in 1-based position counting); each bucket holds
    [tuple count, list of even-position vertex bitmasks].  Stops after cap
    tuples; truncated is True when at least one further tuple existed.
    """
    cdef int kk = k, depth, v, idx
    cdef long long total = 0, limit = cap
    cdef bint truncated = False
    cdef int half = (kk + 1) // 2
    cdef object full, m, low, nxt
    cdef dict buckets = {}
    cdef list tup, rem, masks, ent
    if kk < 1:
        return 0, False, buckets

    full = _full_mask(n)
    tup = [0] * kk
    # rem[d] holds the not-yet-tried candidates at depth d
    rem = [0] * kk
    rem[0] = full
    depth = 0
    while depth >= 0:
        m = rem[depth]
        if not m or m.bit_count() < kk - depth:
            rem[depth] = 0
            depth -= 1
            continue
        low = m & -m
        v = low.bit_length() - 1
        rem[depth] = m ^ low
        tup[depth] = v
        if depth + 1 == kk:
            if total >= limit:
                truncated = True
                break
            key = tuple(tup[1::2])
            ent = buckets.get(key)
            if ent is None:
                ent = [0, [0] * half]
                buckets[key] = ent
            ent[0] = ent[0] + 1
            masks = ent[1]
            for idx in range(half):
                masks[idx] |= _ONE << tup[2 * idx]
            total += 1
        else:
            nxt = adj[v] & ~_low_mask(v) & m
            depth += 1
            rem[depth] = nxt
    return int(total), truncated, buckets
