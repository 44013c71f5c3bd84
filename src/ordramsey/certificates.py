"""Claim records, their checks, and JSON certificates for every outcome.

Every structure the library returns as a claim (an embedding, a sparse pair,
a skeleton, a monochromatic copy, a sparse set, a digraph copy) has its
record and its check here, as does the clique or independent set of the
sparse-graph finder.  The check re-derives the claim from the host alone,
and this module imports only core and errors, so no check runs the search
code it checks; the search modules import their records and checks from
here, and re-check each result they return through self_check.

Each certificate is a flat JSON object with a "kind" discriminator; rationals
travel as exact "p/q" strings so nothing is lost to floating point.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .core import (
    Color,
    ColoredCompleteGraph,
    Digraph,
    OrderedGraph,
    Tournament,
    class_density,
    color_class,
    density_between,
    mask_of,
    record,
)
from .errors import DomainError, InternalContractError, ParseError


@record
class Embedding:
    """mapping[i - 1] is the host vertex carrying pattern vertex i."""

    mapping: tuple[int, ...]


@record
class SparsePair:
    """Vertex sets lower < upper with cross density at most c."""

    lower: tuple[int, ...]
    upper: tuple[int, ...]
    c: Fraction
    density: Fraction


@record
class SlotSystem:
    """Nonempty pairwise-disjoint vertex sets with max(V_i) < min(V_{i+1})."""

    slots: tuple[tuple[int, ...], ...]

    def __init__(self, slots: Iterable[Iterable[int]], host_n: int):
        norm = tuple(tuple(sorted(s)) for s in slots)
        prev_max = 0
        for idx, s in enumerate(norm, start=1):
            if not s:
                raise DomainError(f"slot {idx} is empty")
            if len(set(s)) != len(s):
                raise DomainError(f"slot {idx} has duplicate vertices")
            if s[0] < 1 or s[-1] > host_n:
                raise DomainError(f"slot {idx} leaves the host vertex range")
            if s[0] <= prev_max:
                raise DomainError(f"slot {idx} does not lie strictly above slot {idx - 1}")
            prev_max = s[-1]
        object.__setattr__(self, "slots", norm)

    def __len__(self) -> int:
        return len(self.slots)

    def masks(self) -> list[int]:
        return [0] + [mask_of(s) for s in self.slots]


@record
class Skeleton:
    """Spine vertices plus a + 1 blocks; b is the claimed minimum block size."""

    spine: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    a: int
    b: int

    def __init__(self, spine: Iterable[int], blocks: Iterable[Iterable[int]], a: int, b: int):
        spine_t = tuple(spine)
        blocks_t = tuple(tuple(blk) for blk in blocks)
        if a < 1 or b < 1:
            raise DomainError("skeleton parameters a and b must be positive")
        if len(spine_t) != a:
            raise DomainError(f"spine has {len(spine_t)} vertices, expected a = {a}")
        if len(blocks_t) != a + 1:
            raise DomainError(f"skeleton needs a + 1 = {a + 1} blocks, got {len(blocks_t)}")
        object.__setattr__(self, "spine", spine_t)
        object.__setattr__(self, "blocks", blocks_t)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


@record
class MonoCopy:
    """mapping[i - 1] hosts vertex i of the pattern assigned to color."""

    color: Color
    mapping: tuple[int, ...]


@record
class SparseSet:
    """A vertex set together with its certified density bound in one color."""

    color: Color
    members: tuple[int, ...]
    density: Fraction
    bound: Fraction
    size_target: int
    met_size_target: bool
    alpha: float
    h1: int
    h2: int


@record
class Exhausted:
    """A search that stopped without an answer; trace says where and why."""

    trace: tuple[str, ...]


def verify_embedding(
    host: OrderedGraph,
    pattern: OrderedGraph,
    emb: Embedding | Sequence[int],
    slot_sys: SlotSystem | None = None,
) -> tuple[bool, str | None]:
    """Check an embedding claim; returns (ok, reason for the first violation)."""
    mapping = tuple(emb.mapping if isinstance(emb, Embedding) else emb)
    if len(mapping) != pattern.n:
        return False, f"map length {len(mapping)} != pattern order {pattern.n}"
    for v in mapping:
        if not 1 <= v <= host.n:
            return False, f"host vertex {v} out of range 1..{host.n}"
    for t in range(1, len(mapping)):
        if mapping[t - 1] >= mapping[t]:
            return False, f"map not increasing at pattern vertices {t}, {t + 1}"
    if slot_sys is not None:
        if len(slot_sys) != pattern.n:
            return False, f"slot count {len(slot_sys)} != pattern order {pattern.n}"
        for t, v in enumerate(mapping, start=1):
            if v not in slot_sys.slots[t - 1]:
                return False, f"pattern vertex {t} mapped outside its slot"
    for i, j in pattern.sorted_edges():
        if not host.has_edge(mapping[i - 1], mapping[j - 1]):
            return (
                False,
                f"edge ({i}, {j}) not preserved at hosts ({mapping[i - 1]}, {mapping[j - 1]})",
            )
    return True, None


def verify_sparse_pair(host: OrderedGraph, sp: SparsePair) -> tuple[bool, str | None]:
    """Check a sparse-pair claim; returns (ok, reason for the first violation).

    A vertex outside the host, a repeated vertex or an empty side raises
    DomainError (from density_between) rather than returning a verdict.
    """
    dens = density_between(host, sp.lower, sp.upper)
    if max(sp.lower) >= min(sp.upper):
        return False, "lower side must precede upper side"
    if dens != sp.density:
        return False, f"recomputed density {dens} differs from claimed {sp.density}"
    if dens >= sp.c:
        return False, f"density {dens} is not below c = {sp.c}"
    return True, None


def _fails(condition: str, *witness: int) -> tuple[bool, str]:
    return False, f"condition ({condition}) fails at {witness}"


def verify_skeleton(host: OrderedGraph, s: Skeleton) -> tuple[bool, str | None]:
    """Check the three skeleton conditions; returns (valid, reason), the
    reason naming the first violated condition ("a" interleaving, "b" block
    size, "c" adjacency) and a witness."""
    seen: set[int] = set()
    for v in s.spine:
        if not 1 <= v <= host.n:
            return _fails("a", v)
        seen.add(v)
    for blk in s.blocks:
        for v in blk:
            if not 1 <= v <= host.n or v in seen:
                return _fails("a", v)
            seen.add(v)
        if tuple(sorted(blk)) != blk:
            return _fails("a", *blk)
    # interleaving: V_0 < v_1 < V_1 < ... < v_a < V_a
    for j in range(s.a):
        left = s.blocks[j]
        if left and left[-1] >= s.spine[j]:
            return _fails("a", left[-1], s.spine[j])
        right = s.blocks[j + 1]
        if right and s.spine[j] >= right[0]:
            return _fails("a", s.spine[j], right[0])
        if j + 1 < s.a and s.spine[j] >= s.spine[j + 1]:
            return _fails("a", s.spine[j], s.spine[j + 1])
    for j, blk in enumerate(s.blocks):
        if len(blk) < s.b:
            return _fails("b", j, len(blk))
    for x, y in combinations(s.spine, 2):
        if not host.has_edge(x, y):
            return _fails("c", x, y)
    for v in s.spine:
        for blk in s.blocks:
            for w in blk:
                if not host.has_edge(v, w):
                    return _fails("c", v, w)
    return True, None


def verify_mono_copy(
    coloring: ColoredCompleteGraph,
    pat1: OrderedGraph,
    pat2: OrderedGraph,
    mc: MonoCopy,
) -> tuple[bool, str | None]:
    pattern = pat1 if mc.color is Color.RED else pat2
    return verify_embedding(color_class(coloring, mc.color), pattern, mc.mapping)


def verify_sparse_set(
    coloring: ColoredCompleteGraph, ss: SparseSet
) -> tuple[bool, str | None]:
    dens = class_density(coloring, ss.color, ss.members)
    if dens != ss.density:
        return False, f"recomputed density {dens} differs from claimed {ss.density}"
    if dens > ss.bound:
        return False, f"density {dens} exceeds the bound {ss.bound}"
    if ss.met_size_target != (len(ss.members) >= ss.size_target):
        return False, (
            f"met_size_target is {str(ss.met_size_target).lower()} for "
            f"{len(ss.members)} members and a size target of {ss.size_target}"
        )
    return True, None


def verify_digraph_copy(
    host: Tournament, pattern: Digraph, mapping: Sequence[int]
) -> tuple[bool, str | None]:
    """Check that mapping is an injective arc-preserving copy of pattern in host."""
    if len(mapping) != pattern.n:
        return False, f"mapping has {len(mapping)} entries, need {pattern.n}"
    seen = set()
    for h in mapping:
        if not 1 <= h <= host.N:
            return False, f"image {h} outside 1..{host.N}"
        if h in seen:
            return False, f"image {h} repeats"
        seen.add(h)
    for u, v in pattern.arcs():
        if not host.has_arc(mapping[u - 1], mapping[v - 1]):
            return False, f"arc ({u}, {v}) maps to a reversed pair"
    return True, None


def verify_homogeneous(
    g: OrderedGraph, kind: str, members: Sequence[int]
) -> tuple[bool, str | None]:
    """Check that members span a clique (kind "clique") or an independent set in g."""
    want = kind == "clique"
    for x, y in combinations(members, 2):
        if g.has_edge(x, y) != want:
            return False, f"pair ({x}, {y}) {'is not' if want else 'is'} an edge"
    return True, None


def self_check(result: tuple[bool, str | None], what: str) -> None:
    """Raise InternalContractError(f"{what}: {reason}") unless a check's (valid, reason) holds."""
    valid, reason = result
    if not valid:
        raise InternalContractError(f"{what}: {reason}")


VERIFIABLE_KINDS = ("embedding", "sparse_pair", "skeleton", "sparse_set")
KINDS = VERIFIABLE_KINDS + ("exhausted", "ramsey_exact")


def rational_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s) -> Fraction:
    if not isinstance(s, str) or s.count("/") != 1:
        raise ParseError(f"expected a p/q rational string, got {s!r}")
    p, q = s.split("/")
    try:
        return Fraction(int(p), int(q))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {s!r}: {exc}") from None


def certificate_dict(obj, color=None) -> dict:
    """Serializable dict for an Embedding, MonoCopy, SparsePair, Skeleton,
    SparseSet, Exhausted, or (n_star, okc_text) exact-ramsey tuple; color,
    when given, is the color class a Skeleton lives in."""
    if isinstance(obj, MonoCopy):
        return {
            "kind": "embedding",
            "color": obj.color.value,
            "map": list(obj.mapping),
        }
    if isinstance(obj, Embedding):
        return {"kind": "embedding", "map": list(obj.mapping)}
    if isinstance(obj, SparsePair):
        return {
            "kind": "sparse_pair",
            "A": list(obj.lower),
            "B": list(obj.upper),
            "c": rational_str(obj.c),
            "density": rational_str(obj.density),
        }
    if isinstance(obj, Skeleton):
        return {
            "kind": "skeleton",
            "color": None if color is None else color.value,
            "a": obj.a,
            "b": obj.b,
            "spine": list(obj.spine),
            "blocks": [list(b) for b in obj.blocks],
        }
    if isinstance(obj, SparseSet):
        return {
            "kind": "sparse_set",
            "color": obj.color.value,
            "members": list(obj.members),
            "density": rational_str(obj.density),
            "bound": rational_str(obj.bound),
            "size_target": obj.size_target,
            "met_size_target": obj.met_size_target,
            "alpha": obj.alpha,
            "h1": obj.h1,
            "h2": obj.h2,
        }
    if isinstance(obj, Exhausted):
        return {"kind": "exhausted", "trace": list(obj.trace)}
    if isinstance(obj, tuple) and len(obj) == 2 and isinstance(obj[0], int):
        n_star, witness_text = obj
        return {"kind": "ramsey_exact", "n_star": n_star, "witness": witness_text}
    raise TypeError(f"no certificate form for {type(obj).__name__}")


def json_line(obj) -> str:
    """Deterministic one-line JSON, sorted keys, newline terminated."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def encode_certificate(obj, color=None) -> str:
    """The certificate of obj as one JSON line."""
    return json_line(certificate_dict(obj, color))


def _require(d: dict, key: str, kind: str):
    if key not in d:
        raise ParseError(f"{kind} certificate is missing {key!r}")
    return d[key]


def _int_list(value, where: str) -> tuple[int, ...]:
    # `type(v) is int` here and below: JSON true and false decode to bools, no integers
    if not isinstance(value, list) or not all(type(v) is int for v in value):
        raise ParseError(f"{where} must be a list of integers")
    return tuple(value)


def _optional(d: dict, key: str, types: tuple, default, kind: str):
    """d[key] when present and of one of the JSON types (bool is no number), else default."""
    if key not in d:
        return default
    value = d[key]
    if not isinstance(value, types) or (bool not in types and isinstance(value, bool)):
        raise ParseError(f"{kind} field {key!r} has the wrong type: {value!r}")
    return value


def _float(value, where: str) -> float:
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ParseError(f"{where} is out of the float range") from None


def decode_certificate(text: str):
    """Parse certificate JSON back into library objects.

    Returns (kind, payload) where payload is the matching object: embedding
    gives (Embedding, color or None), skeleton gives (Skeleton, color or
    None), ramsey_exact gives (n_star, witness text), the rest map directly.
    """
    try:
        d = json.loads(text)
    # ValueError: an integer past the interpreter's digit limit; RecursionError: deep nesting
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"certificate is not valid JSON: {exc}") from None
    if not isinstance(d, dict):
        raise ParseError("certificate must be a JSON object")
    kind = d.get("kind")
    if kind not in KINDS:
        raise ParseError(f"unknown certificate kind {kind!r}")
    if kind == "embedding":
        claim = Embedding(_int_list(_require(d, "map", kind), "map"))
    elif kind == "skeleton":
        blocks = _require(d, "blocks", kind)
        if not isinstance(blocks, list):
            raise ParseError("blocks must be a list of lists")
        if type(d.get("a")) is not int or type(d.get("b")) is not int:
            raise ParseError("skeleton a and b must be integers")
        claim = Skeleton(
            spine=_int_list(_require(d, "spine", kind), "spine"),
            blocks=tuple(_int_list(b, "block") for b in blocks),
            a=_require(d, "a", kind),
            b=_require(d, "b", kind),
        )
    if kind in ("embedding", "skeleton", "sparse_set"):
        # an embedding or skeleton names a bad field of its own before a bad color,
        # a sparse_set a bad color first
        color = _require(d, "color", kind) if kind == "sparse_set" else d.get("color")
        if color is not None:
            try:
                color = Color(color)
            except ValueError:
                raise ParseError(f"{kind}: color must be red, blue, or null, got {color!r}") from None
        if kind != "sparse_set":
            return kind, (claim, color)
        if color is None:
            raise ParseError("sparse_set color must be red or blue")
        return kind, SparseSet(
            color=color,
            members=_int_list(_require(d, "members", kind), "members"),
            density=parse_rational(_require(d, "density", kind)),
            bound=parse_rational(_require(d, "bound", kind)),
            size_target=_optional(d, "size_target", (int,), 1, kind),
            met_size_target=_optional(d, "met_size_target", (bool,), True, kind),
            alpha=_float(_optional(d, "alpha", (int, float), 1.0, kind), "sparse_set alpha"),
            h1=_optional(d, "h1", (int,), 0, kind),
            h2=_optional(d, "h2", (int,), 0, kind),
        )
    if kind == "sparse_pair":
        return kind, SparsePair(
            lower=_int_list(_require(d, "A", kind), "A"),
            upper=_int_list(_require(d, "B", kind), "B"),
            c=parse_rational(_require(d, "c", kind)),
            density=parse_rational(_require(d, "density", kind)),
        )
    if kind == "exhausted":
        trace = _require(d, "trace", kind)
        if not isinstance(trace, list) or not all(isinstance(t, str) for t in trace):
            raise ParseError("trace must be a list of strings")
        return kind, Exhausted(tuple(trace))
    n_star = _require(d, "n_star", kind)
    witness = d.get("witness")
    if n_star is None:
        # the exceeds-maxN form carries no value and no witness
        return kind, (None, None)
    if type(n_star) is not int or n_star < 1:
        raise ParseError("n_star must be a positive integer or null")
    if not isinstance(witness, str):
        raise ParseError("witness must be the coloring text")
    return kind, (n_star, witness)


def require_verifiable(kind: str, has_pattern: bool) -> None:
    """Raise ParseError unless certificates of kind can be re-checked.

    An embedding can be re-checked only against its pattern, so has_pattern
    says whether one was given.
    """
    if kind not in VERIFIABLE_KINDS:
        raise ParseError(f"certificates of kind {kind!r} are not verifiable")
    if kind == "embedding" and not has_pattern:
        raise ParseError("embedding certificates need --pattern")


def verify_certificate(kind: str, payload, host, pattern=None) -> tuple[bool, str | None]:
    """Re-check a decoded certificate against its host; returns (valid, reason).

    A colored embedding or skeleton, and every sparse_set, is checked inside
    its color's class of a ColoredCompleteGraph (an .okc host); the rest
    against an OrderedGraph (an .og host).  An unverifiable kind, a host of
    the wrong type or an embedding without its pattern raises ParseError.  A
    vertex outside the host, a repeated vertex or an empty side makes the
    certificate invalid, with the DomainError's text as the reason.
    """
    require_verifiable(kind, pattern is not None)
    claim, color = payload if kind in ("embedding", "skeleton") else (payload, None)
    colored = color is not None or kind == "sparse_set"
    if not isinstance(host, ColoredCompleteGraph if colored else OrderedGraph):
        suffix = ".okc" if colored else ".og"
        raise ParseError(f"this {kind} certificate verifies against an {suffix} host")
    graph = host if color is None else color_class(host, color)
    try:
        if kind == "embedding":
            return verify_embedding(graph, pattern, claim.mapping)
        if kind == "sparse_pair":
            return verify_sparse_pair(graph, claim)
        if kind == "skeleton":
            return verify_skeleton(graph, claim)
        return verify_sparse_set(host, claim)
    except DomainError as exc:
        return False, str(exc)
