"""JSON certificates for every checkable outcome the library produces.

Each certificate is a flat JSON object with a "kind" discriminator; rationals
travel as exact "p/q" strings so nothing is lost to floating point.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .core import Color, ColoredCompleteGraph, OrderedGraph, color_class
from .embed import Embedding, SparsePair, verify_embedding, verify_sparse_pair
from .errors import DomainError, ParseError
from .pipeline import Exhausted, MonoCopy, SparseSet, verify_sparse_set
from .skeleton import Skeleton, verify_skeleton

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
    SparseSet, Exhausted, or (n_star, okc_text) exact-ramsey tuple."""
    if isinstance(obj, MonoCopy):
        return {
            "kind": "embedding",
            "color": obj.color.value,
            "map": list(obj.mapping),
        }
    if isinstance(obj, Embedding):
        d = {"kind": "embedding", "map": list(obj.mapping)}
        if color is not None:
            d["color"] = color.value
        return d
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


def decode_certificate(text: str):
    """Parse certificate JSON back into library objects.

    Returns (kind, payload) where payload is the matching object: embedding
    gives (Embedding, color or None), skeleton gives (Skeleton, color or
    None), ramsey_exact gives (n_star, witness text), the rest map directly.
    """
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
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
            alpha=float(_optional(d, "alpha", (int, float), 1.0, kind)),
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
