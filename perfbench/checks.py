"""Independent checks of every job's output, run outside the timed region.

Nothing here imports the package: the checks parse the input and output
files with their own readers and recompute each claim by direct
enumeration.  ``check_job`` returns a dict with ``ok`` (the output is
correct), ``reason`` (why not), ``decided`` (the job ended in a certificate
rather than ``exhausted`` or a bound) and, for ``exact``, ``upper_checked``
(whether ``n_star`` itself was compared with a known value; otherwise only
the witness, i.e. the lower bound, is checked).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations
from pathlib import Path

# Diagonal ordered Ramsey numbers of complete patterns: the classical values.
CLASSICAL = {(3, 3): 6, (3, 4): 9}


# ---------------------------------------------------------------------------
# readers


def read_og(text: str):
    lines = text.split("\n")
    n, m = map(int, lines[0].split())
    edges = {tuple(map(int, line.split())) for line in lines[1 : 1 + m]}
    if len(edges) != m or any(not 1 <= i < j <= n for i, j in edges):
        raise ValueError("malformed .og text")
    return n, edges


def read_okc(text: str):
    """(N, red pairs (i, j) with i < j)."""
    lines = text.split("\n")
    n = int(lines[0])
    red = set()
    for k in range(1, n):
        row = lines[k]
        if len(row) != n - k or set(row) - {"R", "B"}:
            raise ValueError(f"malformed .okc row {k}")
        red.update((k, k + 1 + off) for off, ch in enumerate(row) if ch == "R")
    return n, red


def read_trn(text: str):
    """(N, arc set)."""
    lines = text.split("\n")
    n = int(lines[0])
    arcs = set()
    k = 1
    for j in range(2, n + 1):
        for i in range(1, j):
            if lines[k] not in (">", "<"):
                raise ValueError(f"malformed .trn line {k + 1}")
            arcs.add((i, j) if lines[k] == ">" else (j, i))
            k += 1
    return n, arcs


def read_dg(text: str):
    lines = text.split("\n")
    n, m = map(int, lines[0].split())
    arcs = {tuple(map(int, line.split())) for line in lines[1 : 1 + m]}
    if len(arcs) != m:
        raise ValueError("malformed .dg text")
    return n, arcs


def _color_graph(n: int, red: set, color: str) -> set:
    if color == "red":
        return red
    return {p for p in combinations(range(1, n + 1), 2) if p not in red}


# ---------------------------------------------------------------------------
# known values and naive searches


def _shape(pattern) -> str | None:
    n, edges = pattern
    if edges == {(i, i + 1) for i in range(1, n)}:
        return "path"
    if edges == set(combinations(range(1, n + 1), 2)):
        return "complete"
    return None


def known_n_star(h1, h2) -> int | None:
    """Known ordered Ramsey number of a pair, or None when not tabulated.

    Monotone paths and complete patterns mixed: (s-1)(t-1)+1 (the
    Erdos-Szekeres argument; this covers the trivial K2 cases).  Two complete
    patterns: the classical values.  K2 against anything: its vertex count.
    """
    (s, _), (t, _) = h1, h2
    if s == 2:
        return t
    if t == 2:
        return s
    shapes = (_shape(h1), _shape(h2))
    if None in shapes:
        return None
    if shapes == ("complete", "complete"):
        return CLASSICAL.get((min(s, t), max(s, t)))
    return (s - 1) * (t - 1) + 1


def copies(n: int, graph: set, pattern):
    """Every increasing k-tuple of 1..n carrying the pattern inside graph."""
    k, edges = pattern
    for tup in combinations(range(1, n + 1), k):
        if all((tup[i - 1], tup[j - 1]) in graph for i, j in edges):
            yield tup


def _embedding_error(mapping, n: int, graph: set, pattern) -> str | None:
    k, edges = pattern
    if len(mapping) != k:
        return f"map has {len(mapping)} entries for a {k}-vertex pattern"
    if any(not 1 <= v <= n for v in mapping) or list(mapping) != sorted(set(mapping)):
        return "map is not strictly increasing inside 1..N"
    for i, j in sorted(edges):
        if (mapping[i - 1], mapping[j - 1]) not in graph:
            return f"pattern edge ({i}, {j}) is missing at ({mapping[i - 1]}, {mapping[j - 1]})"
    return None


def skeleton_error(n: int, graph: set, cert: dict) -> str | None:
    """The first skeleton condition the certificate violates, or None."""
    a, b, spine, blocks = cert["a"], cert["b"], cert["spine"], cert["blocks"]
    if len(spine) != a or len(blocks) != a + 1 or b < 1:
        return "(a) wrong number of spine vertices or blocks"
    order = list(blocks[0])
    for v, block in zip(spine, blocks[1:]):
        order += [v] + list(block)
    if any(not 1 <= v <= n for v in order) or any(x >= y for x, y in zip(order, order[1:])):
        return "(a) spine and blocks do not interleave inside 1..N"
    if any(len(block) < b for block in blocks):
        return "(b) a block is smaller than b"
    for x, y in combinations(spine, 2):
        if (x, y) not in graph:
            return f"(c) spine pair ({x}, {y}) is not an edge"
    for v in spine:
        for block in blocks:
            for w in block:
                if (min(v, w), max(v, w)) not in graph:
                    return f"(c) spine-block pair ({v}, {w}) is not an edge"
    return None


def lowerbound_size(n: int) -> int:
    """Vertex count of the iterated blowup: a 4-vertex base up to n = 20,
    else n // 10 outer vertices blown up by the construction at
    max(3, floor(n / (40 ln n)))."""
    if n <= 20:
        return 4
    return (n // 10) * lowerbound_size(max(3, math.floor(n / (40.0 * math.log(n)))))


def blowup_error(n: int, arcs: set, size: int, inner=None, outer=None) -> str | None:
    """Blocks of `size` consecutive vertices; all arcs between two blocks
    point one way (the outer tournament's arc, when given); every block
    induces the same tournament (inner, when given)."""
    if n % size:
        return f"{n} vertices do not split into blocks of {size}"
    if inner is None:
        inner = {(u, v) for u, v in arcs if u <= size and v <= size}
    for blk in range(n // size):
        off = blk * size
        for u, v in inner:
            if (u + off, v + off) not in arcs:
                return f"block {blk + 1} does not copy the inner tournament"
    for b1, b2 in combinations(range(n // size), 2):
        forward = (b1 * size + 1, b2 * size + 1) in arcs
        if outer is not None and forward != ((b1 + 1, b2 + 1) in outer):
            return f"blocks {b1 + 1}, {b2 + 1} do not follow the outer arc"
        for u in range(b1 * size + 1, (b1 + 1) * size + 1):
            for v in range(b2 * size + 1, (b2 + 1) * size + 1):
                if ((u, v) in arcs) != forward:
                    return f"arcs between blocks {b1 + 1} and {b2 + 1} disagree"
    return None


def subdivision_arcs(n: int) -> set:
    """Arcs i -> t, t -> j, t -> k of the subdivided star, triples in
    lexicographic order numbered from n + 1."""
    arcs = set()
    for pos, (i, j, k) in enumerate(combinations(range(1, n + 1), 3)):
        t = n + 1 + pos
        arcs |= {(i, t), (t, j), (t, k)}
    return arcs


# ---------------------------------------------------------------------------
# per-workload checks


def _read(work: Path, name: str) -> str:
    return (work / name).read_text()


def _expect_rc(rc: int, cert: dict) -> str | None:
    want = 4 if cert.get("kind") == "exhausted" else 0
    return None if rc == want else f"exit code {rc} for a {cert.get('kind')} result"


def _result(reason=None, decided=False, **extra) -> dict:
    return {"ok": reason is None, "reason": reason, "decided": decided and reason is None, **extra}


def check_exact(spec, rc, cert, work):
    h1, h2 = read_og(_read(work, spec["h1"])), read_og(_read(work, spec["h2"]))
    known = known_n_star(h1, h2)
    if cert.get("kind") != "ramsey_exact":
        return _result(f"unexpected kind {cert.get('kind')!r}")
    n_star = cert.get("n_star")
    if n_star is None:
        if rc != 3:
            return _result(f"exit code {rc} for an exceeded bound")
        return _result(f"no n_star although it is known to be {known}" if known else None,
                       upper_checked=known is not None)
    if rc != 0:
        return _result(f"exit code {rc} for a found n_star")
    n, red = read_okc(cert["witness"])
    if n != n_star - 1:
        return _result(f"witness has {n} vertices, expected n_star - 1 = {n_star - 1}")
    for tup in copies(n, red, h1):
        return _result(f"witness has a red copy of h1 at {tup}")
    for tup in copies(n, _color_graph(n, red, "blue"), h2):
        return _result(f"witness has a blue copy of h2 at {tup}")
    if known is not None and n_star != known:
        return _result(f"n_star {n_star} differs from the known value {known}")
    return _result(decided=True, upper_checked=known is not None)


def _check_colored_outcome(spec, rc, cert, work, kinds):
    """Shared by sparse-set and search: exhausted, a colored copy, or a set."""
    kind = cert.get("kind")
    if kind not in kinds:
        return _result(f"unexpected kind {kind!r}")
    reason = _expect_rc(rc, cert)
    if reason or kind == "exhausted":
        trace = cert.get("trace")
        if not reason and not (trace and all(isinstance(t, str) for t in trace)):
            reason = "exhausted result without a trace"
        return _result(reason)
    n, red = read_okc(_read(work, spec["coloring"]))
    color = cert.get("color")
    if color not in ("red", "blue"):
        return _result(f"bad color {color!r}")
    graph = _color_graph(n, red, color)
    if kind == "embedding":
        pattern = read_og(_read(work, spec["h1" if color == "red" else "h2"]))
        return _result(_embedding_error(cert["map"], n, graph, pattern), decided=True)
    members = cert["members"]
    if any(not 1 <= v <= n for v in members) or members != sorted(set(members)):
        return _result("members are not distinct sorted vertices of 1..N")
    pairs = len(members) * (len(members) - 1) // 2
    hits = sum(1 for p in combinations(members, 2) if p in graph)
    density = Fraction(hits, pairs) if pairs else Fraction(0)
    p, q = map(int, cert["density"].split("/"))
    if density != Fraction(p, q):
        return _result(f"recomputed density {density} differs from claimed {p}/{q}")
    bp, bq = map(int, cert["bound"].split("/"))
    cp, cq = map(int, spec["c"].split("/"))
    if density > Fraction(bp, bq) or density > Fraction(cp, cq):
        return _result(f"density {density} exceeds its bound")
    return _result(decided=True)


def check_sparse_set(spec, rc, cert, work):
    return _check_colored_outcome(spec, rc, cert, work, ("sparse_set", "embedding", "exhausted"))


def check_search(spec, rc, cert, work):
    return _check_colored_outcome(spec, rc, cert, work, ("embedding", "exhausted"))


def check_dense_skeleton(spec, rc, cert, work):
    if cert.get("kind") == "exhausted":
        return _result(None if rc == 0 else f"exit code {rc}")
    if cert.get("kind") != "skeleton" or cert.get("color") not in ("red", "blue"):
        return _result(f"unexpected result {cert.get('kind')!r}")
    n, red = read_okc(_read(work, spec["coloring"]))
    return _result(skeleton_error(n, _color_graph(n, red, cert["color"]), cert), decided=True)


def check_skeleton(spec, rc, cert, work):
    reason = _expect_rc(rc, cert)
    if reason or cert.get("kind") == "exhausted":
        return _result(reason)
    n, edges = read_og(_read(work, spec["host"]))
    if cert.get("kind") != "skeleton":
        return _result(f"unexpected kind {cert.get('kind')!r}")
    return _result(skeleton_error(n, edges, cert), decided=True)


def check_embed(spec, rc, cert, work):
    reason = _expect_rc(rc, cert)
    if reason:
        return _result(reason)
    n, edges = read_og(_read(work, spec["host"]))
    pattern = read_og(_read(work, spec["pattern"]))
    if cert.get("kind") == "exhausted":
        for tup in copies(n, edges, pattern):
            return _result(f"reported no embedding, but {tup} is one")
        return _result()
    return _result(_embedding_error(cert.get("map", []), n, edges, pattern), decided=True)


def check_verify(spec, rc, cert, work):
    if rc != 0 or cert.get("kind") != "verify" or cert.get("valid") is not True:
        return _result(f"verify rejected an emitted certificate: {cert.get('reason')}")
    return _result(decided=True)


def check_lowerbound(spec, rc, cert, work):
    if rc != 0 or cert.get("kind") != "construct":
        return _result(f"exit code {rc}, kind {cert.get('kind')!r}")
    n, arcs = read_trn(_read(work, spec["out"]))
    want = lowerbound_size(spec["n"])
    if n != want or cert.get("vertices") != n or cert.get("arcs") != n * (n - 1) // 2:
        return _result(f"{n} vertices (summary {cert.get('vertices')}), expected {want}")
    return _result(blowup_error(n, arcs, n // (spec["n"] // 10)), decided=True)


def check_blowup(spec, rc, cert, work):
    if rc != 0 or cert.get("kind") != "construct":
        return _result(f"exit code {rc}, kind {cert.get('kind')!r}")
    m, outer = read_trn(_read(work, spec["outer"]))
    s, inner = read_trn(_read(work, spec["inner"]))
    n, arcs = read_trn(_read(work, spec["out"]))
    if n != m * s or cert.get("vertices") != n or cert.get("blocks") != m:
        return _result(f"{n} vertices (summary {cert.get('vertices')}), expected {m} x {s}")
    return _result(blowup_error(n, arcs, s, inner, outer), decided=True)


def check_sn(spec, rc, cert, work):
    if rc != 0 or cert.get("kind") != "construct":
        return _result(f"exit code {rc}, kind {cert.get('kind')!r}")
    base = spec["n"]
    n, arcs = read_dg(_read(work, spec["out"]))
    want = subdivision_arcs(base)
    if n != base + math.comb(base, 3) or arcs != want:
        return _result(f"digraph on {n} vertices is not the subdivided star on {base}")
    triples = json.loads(_read(work, spec["sidecar"]))
    for pos, t in enumerate(combinations(range(1, base + 1), 3)):
        if triples.get(",".join(map(str, t))) != base + 1 + pos:
            return _result(f"sidecar misnumbers triple {t}")
    return _result(decided=True)


def check_subdivision(spec, rc, cert, work):
    if rc != 0 or cert.get("kind") != "subdivision":
        return _result(f"exit code {rc}, kind {cert.get('kind')!r}")
    mapping = cert.get("map")
    if mapping is None:
        # a claim of absence is not a certificate: not decided, whether the
        # search exhausted its budget or not
        return _result()
    n, arcs = read_trn(_read(work, spec["tournament"]))
    base = spec["n"]
    if len(mapping) != base + math.comb(base, 3) or len(set(mapping)) != len(mapping):
        return _result("subdivision map has the wrong size or repeats a vertex")
    if any(not 1 <= h <= n for h in mapping):
        return _result("subdivision map leaves the tournament")
    for u, v in sorted(subdivision_arcs(base)):
        if (mapping[u - 1], mapping[v - 1]) not in arcs:
            return _result(f"arc ({u}, {v}) maps onto a reversed pair")
    return _result(decided=True)


CHECKS = {
    "exact": check_exact,
    "sparse-set": check_sparse_set,
    "search": check_search,
    "dense-skeleton": check_dense_skeleton,
    "skeleton": check_skeleton,
    "embed": check_embed,
    "verify": check_verify,
    "lowerbound": check_lowerbound,
    "blowup": check_blowup,
    "sn": check_sn,
    "subdivision": check_subdivision,
}


def check_job(spec: dict, rc: int, stdout: str, work: Path) -> dict:
    """Check one job's exit code and stdout against its inputs."""
    try:
        cert = json.loads(stdout)
    except json.JSONDecodeError:
        return _result("stdout is not one JSON object")
    if not isinstance(cert, dict):
        return _result("stdout is not one JSON object")
    try:
        return CHECKS[spec["kind"]](spec, rc, cert, work)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return _result(f"malformed output: {type(exc).__name__}: {exc}")
