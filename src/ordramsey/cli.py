"""Command-line front end: seeded runs, certificate emission and verification.

Machine-readable JSON goes to stdout, one object per run; human summaries go
to stderr.  Exit codes are a stable contract: 0 success/found, 2 input error,
3 bound exceeded, 4 exhausted or not found, 5 generation failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import io as formats
from .certificates import (
    certificate_dict,
    decode_certificate,
    parse_rational,
    rational_str,
)
from .constructions import (
    blowup,
    build_subdivision_S,
    iterated_lower_bound_tournament,
)
from .core import ColoredCompleteGraph, OrderedGraph, Tournament, color_class, density_between
from .embed import find_ordered_embedding, verify_embedding
from .errors import (
    GenerationError,
    OrdRamseyError,
    ParameterError,
    ParseError,
    TupleCapError,
)
from .pipeline import (
    DEFAULT_EXHAUSTIVE_THRESHOLD,
    Exhausted,
    MonoCopy,
    PipelineParams,
    SparseSet,
    exact_ordered_ramsey,
    find_mono_copy,
    recursive_sparse_set,
    verify_sparse_set,
)
from .skeleton import (
    DEFAULT_SAMPLES,
    DEFAULT_TUPLE_CAP,
    find_skeleton_from_cliques,
    verify_skeleton,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BOUND = 3
EXIT_EXHAUSTED = 4
EXIT_GENERATION = 5

SEED_ENV = "ORDRAMSEY_SEED"


@dataclass(frozen=True)
class RunConfig:
    """Resolved global options for one invocation."""

    command: str
    seed: int
    tuple_cap: int
    node_budget: int
    exhaustive_threshold: int
    quiet: bool


def _say(cfg: RunConfig, message: str) -> None:
    if not cfg.quiet:
        print(message, file=sys.stderr)


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None


def _load(path: str, want: type, label: str):
    """Parse a file by its extension and insist on the expected value type."""
    suffix = Path(path).suffix
    parser = {
        ".og": formats.parse_og,
        ".okc": formats.parse_okc,
        ".dg": formats.parse_dg,
        ".trn": formats.parse_trn,
    }.get(suffix)
    if parser is None:
        raise ParseError(f"{path}: unknown extension {suffix!r}, expected {label}")
    value = parser(_read_text(path))
    if not isinstance(value, want):
        raise ParseError(f"{path} holds a {type(value).__name__}, expected {label}")
    return value


def _fraction_arg(text: str) -> Fraction:
    try:
        return parse_rational(text) if "/" in text else Fraction(text)
    except (ParseError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {exc}")


def cmd_exact(cfg: RunConfig, args) -> int:
    pat1 = _load(args.h1, OrderedGraph, "an .og pattern")
    pat2 = _load(args.h2, OrderedGraph, "an .og pattern")
    result = exact_ordered_ramsey(pat1, pat2, args.max_n)
    if result is None:
        _emit({"kind": "ramsey_exact", "max_n": args.max_n, "n_star": None})
        _say(cfg, f"ordered ramsey number exceeds max_n = {args.max_n}")
        return EXIT_BOUND
    n_star, witness = result
    _emit(certificate_dict((n_star, formats.write_okc(witness))))
    _say(cfg, f"n_star = {n_star} with a witness coloring on {witness.N} vertices")
    return EXIT_OK


def _pipeline_params(cfg: RunConfig, pat1, pat2, alpha=None, window=None) -> PipelineParams:
    return PipelineParams.from_patterns(
        pat1, pat2, alpha=alpha, window=window, tuple_cap=cfg.tuple_cap
    )


def cmd_search(cfg: RunConfig, args) -> int:
    coloring = _load(args.coloring, ColoredCompleteGraph, "an .okc coloring")
    pat1 = _load(args.h1, OrderedGraph, "an .og pattern")
    pat2 = _load(args.h2, OrderedGraph, "an .og pattern")
    result = find_mono_copy(
        coloring,
        pat1,
        pat2,
        _pipeline_params(cfg, pat1, pat2),
        seed=cfg.seed,
        exhaustive_threshold=cfg.exhaustive_threshold,
    )
    _emit(certificate_dict(result))
    if isinstance(result, MonoCopy):
        _say(cfg, f"found a {result.color.name.lower()} copy on {len(result.mapping)} vertices")
        return EXIT_OK
    _say(cfg, "search exhausted: " + "; ".join(result.trace[-1:]))
    return EXIT_EXHAUSTED


def cmd_embed(cfg: RunConfig, args) -> int:
    host = _load(args.host, OrderedGraph, "an .og host")
    pattern = _load(args.pattern, OrderedGraph, "an .og pattern")
    emb = find_ordered_embedding(host, pattern)
    if emb is None:
        _emit({"kind": "exhausted", "trace": ["no order-preserving embedding"]})
        _say(cfg, "no order-preserving embedding")
        return EXIT_EXHAUSTED
    _emit(certificate_dict(emb))
    _say(cfg, f"embedding found: {list(emb.mapping)}")
    return EXIT_OK


def cmd_skeleton(cfg: RunConfig, args) -> int:
    host = _load(args.host, OrderedGraph, "an .og host")
    n = args.window if args.window is not None else 4 * args.a + 1
    skel = find_skeleton_from_cliques(host, n, args.a, args.d, cfg.tuple_cap)
    if skel is None:
        _emit({"kind": "exhausted", "trace": [f"no ({args.a}, b)-skeleton at d = {args.d}"]})
        _say(cfg, "no skeleton met the block-size target")
        return EXIT_EXHAUSTED
    _emit(certificate_dict(skel))
    _say(cfg, f"({skel.a}, {skel.b})-skeleton with spine {list(skel.spine)}")
    return EXIT_OK


def cmd_sparse_set(cfg: RunConfig, args) -> int:
    coloring = _load(args.coloring, ColoredCompleteGraph, "an .okc coloring")
    pat1 = _load(args.h1, OrderedGraph, "an .og pattern")
    pat2 = _load(args.h2, OrderedGraph, "an .og pattern")
    result = recursive_sparse_set(
        coloring,
        pat1,
        pat2,
        args.c,
        alpha=args.alpha,
        window=args.window,
        samples=args.samples,
        tuple_cap=cfg.tuple_cap,
        seed=cfg.seed,
    )
    _emit(certificate_dict(result))
    if isinstance(result, SparseSet):
        _say(
            cfg,
            f"{result.color.name.lower()} set of {len(result.members)} vertices, "
            f"density {rational_str(result.density)} <= {rational_str(result.bound)}",
        )
        return EXIT_OK
    if isinstance(result, MonoCopy):
        _say(cfg, f"stumbled on a {result.color.name.lower()} copy instead")
        return EXIT_OK
    _say(cfg, "recursion exhausted: " + "; ".join(result.trace[-1:]))
    return EXIT_EXHAUSTED


def _write_out(path: str, text: str) -> None:
    Path(path).write_text(text)


def cmd_construct(cfg: RunConfig, args) -> int:
    if args.what == "sn":
        sub = build_subdivision_S(args.n)
        out = args.out or f"sn_{args.n}.dg"
        _write_out(out, formats.write_dg(sub.digraph))
        sidecar = str(Path(out).with_suffix(".triples.json"))
        triples = {",".join(map(str, t)): v for t, v in sorted(sub.triple_index.items())}
        Path(sidecar).write_text(
            json.dumps(triples, sort_keys=True, separators=(",", ":")) + "\n"
        )
        summary = {
            "kind": "construct",
            "what": "sn",
            "n": args.n,
            "vertices": sub.digraph.n,
            "arcs": len(sub.digraph.arcs),
            "out": out,
            "sidecar": sidecar,
        }
        _emit(summary)
        _say(cfg, f"{sub.digraph.n} vertices, {len(sub.digraph.arcs)} arcs -> {out}")
        return EXIT_OK
    if args.what == "blowup":
        outer = _load(args.outer, Tournament, "a .trn tournament")
        inner = _load(args.inner, Tournament, "a .trn tournament")
        B = blowup(outer, inner)
        out = args.out or f"blowup_{outer.N}x{inner.N}.trn"
        _write_out(out, formats.write_trn(B.tournament))
        summary = {
            "kind": "construct",
            "what": "blowup",
            "vertices": B.tournament.N,
            "arcs": B.tournament.N * (B.tournament.N - 1) // 2,
            "blocks": len(B.blocks),
            "out": out,
        }
        _emit(summary)
        _say(cfg, f"{B.tournament.N} vertices in {len(B.blocks)} blocks -> {out}")
        return EXIT_OK
    T = iterated_lower_bound_tournament(args.n, cfg.seed)
    out = args.out or f"lowerbound_{args.n}_{cfg.seed}.trn"
    _write_out(out, formats.write_trn(T))
    summary = {
        "kind": "construct",
        "what": "lowerbound",
        "n": args.n,
        "seed": cfg.seed,
        "vertices": T.N,
        "arcs": T.N * (T.N - 1) // 2,
        "out": out,
    }
    _emit(summary)
    _say(cfg, f"{T.N} vertices -> {out}")
    return EXIT_OK


def _verify_dispatch(kind: str, payload, host, pattern):
    """Run the matching verifier; returns (valid, reason)."""
    if kind == "embedding":
        emb, color = payload
        if pattern is None:
            raise ParseError("embedding certificates need --pattern")
        if color is None:
            if not isinstance(host, OrderedGraph):
                raise ParseError("a plain embedding verifies against an .og host")
            return verify_embedding(host, pattern, emb.mapping)
        if not isinstance(host, ColoredCompleteGraph):
            raise ParseError("a colored embedding verifies against an .okc host")
        return verify_embedding(color_class(host, color), pattern, emb.mapping)
    if kind == "sparse_pair":
        if not isinstance(host, OrderedGraph):
            raise ParseError("a sparse_pair verifies against an .og host")
        sp = payload
        if not sp.lower or not sp.upper:
            return False, "both sides must be nonempty"
        if max(sp.lower) >= min(sp.upper):
            return False, "lower side must precede upper side"
        dens = density_between(host, sp.lower, sp.upper)
        if dens != sp.density:
            return False, f"recomputed density {dens} differs from claimed {sp.density}"
        if dens >= sp.c:
            return False, f"density {dens} is not below c = {sp.c}"
        return True, None
    if kind == "skeleton":
        skel, color = payload
        if color is None:
            if not isinstance(host, OrderedGraph):
                raise ParseError("an uncolored skeleton verifies against an .og host")
            graph = host
        else:
            if not isinstance(host, ColoredCompleteGraph):
                raise ParseError("a colored skeleton verifies against an .okc host")
            graph = color_class(host, color)
        report = verify_skeleton(graph, skel)
        if report.ok:
            return True, None
        return False, f"condition ({report.condition}) fails at {report.witness}"
    if not isinstance(host, ColoredCompleteGraph):
        raise ParseError("a sparse_set verifies against an .okc host")
    return verify_sparse_set(host, payload)


def cmd_verify(cfg: RunConfig, args) -> int:
    kind, payload = decode_certificate(_read_text(args.certificate))
    if kind not in ("embedding", "sparse_pair", "skeleton", "sparse_set"):
        raise ParseError(f"certificates of kind {kind!r} are not verifiable")
    suffix = Path(args.host).suffix
    if suffix == ".og":
        host = _load(args.host, OrderedGraph, "an .og host")
    elif suffix == ".okc":
        host = _load(args.host, ColoredCompleteGraph, "an .okc host")
    else:
        raise ParseError(f"{args.host}: hosts are .og or .okc files")
    pattern = _load(args.pattern, OrderedGraph, "an .og pattern") if args.pattern else None
    valid, reason = _verify_dispatch(kind, payload, host, pattern)
    _emit(
        {
            "kind": "verify",
            "certificate_kind": kind,
            "valid": bool(valid),
            "reason": reason,
        }
    )
    if valid:
        _say(cfg, f"{kind} certificate is valid")
        return EXIT_OK
    _say(cfg, f"{kind} certificate is invalid: {reason}")
    return EXIT_EXHAUSTED


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ordramsey",
        description="Certificate-producing searches for ordered Ramsey structure.",
    )
    top.add_argument("--seed", type=int, default=None, help=f"rng seed (default: ${SEED_ENV} or 0)")
    top.add_argument(
        "--tuple-cap",
        type=int,
        default=DEFAULT_TUPLE_CAP,
        help="clique-tuple work bound: tuples enumerated on the host graph by `skeleton`, "
        "spine keys enumerated from sampled cliques by `search` and `sparse-set` "
        f"(default: {DEFAULT_TUPLE_CAP})",
    )
    top.add_argument("--node-budget", type=int, default=10_000_000)
    top.add_argument("--exhaustive-threshold", type=int, default=DEFAULT_EXHAUSTIVE_THRESHOLD)
    top.add_argument("-q", "--quiet", action="store_true", help="suppress stderr summaries")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="least N forcing a red H1 or blue H2")
    p.add_argument("h1")
    p.add_argument("h2")
    p.add_argument("max_n", type=int)
    p.set_defaults(run=cmd_exact)

    p = sub.add_parser("search", help="find a monochromatic copy in a coloring")
    p.add_argument("coloring")
    p.add_argument("h1")
    p.add_argument("h2")
    p.set_defaults(run=cmd_search)

    p = sub.add_parser("embed", help="order-preserving embedding of pattern in host")
    p.add_argument("host")
    p.add_argument("pattern")
    p.set_defaults(run=cmd_embed)

    p = sub.add_parser("skeleton", help="clique-tuple skeleton in a host graph")
    p.add_argument("host")
    p.add_argument("--a", type=int, required=True, help="spine length")
    p.add_argument("--window", type=int, default=None, help="clique size (default 4a+1)")
    p.add_argument("--d", type=_fraction_arg, default=Fraction(1), help="block target factor")
    p.set_defaults(run=cmd_skeleton)

    p = sub.add_parser("sparse-set", help="low-density set in one color, or a copy")
    p.add_argument("coloring")
    p.add_argument("h1")
    p.add_argument("h2")
    p.add_argument("--c", type=_fraction_arg, required=True, help="density target in (0, 1/8)")
    p.add_argument("--alpha", type=float, default=None, help="shrink factor override")
    p.add_argument("--window", type=int, default=None, help="sampling window override")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.set_defaults(run=cmd_sparse_set)

    p = sub.add_parser("construct", help="emit a named construction to disk")
    what = p.add_subparsers(dest="what", required=True)
    q = what.add_parser("sn", help="subdivided star digraph (.dg plus triple sidecar)")
    q.add_argument("n", type=int)
    q.add_argument("--out", default=None)
    q.set_defaults(run=cmd_construct)
    q = what.add_parser("blowup", help="substitute inner for every outer vertex")
    q.add_argument("outer")
    q.add_argument("inner")
    q.add_argument("--out", default=None)
    q.set_defaults(run=cmd_construct)
    q = what.add_parser("lowerbound", help="iterated blowup avoiding the subdivided star")
    q.add_argument("n", type=int)
    q.add_argument("--out", default=None)
    q.set_defaults(run=cmd_construct)

    p = sub.add_parser("verify", help="re-check a certificate against its host")
    p.add_argument("certificate")
    p.add_argument("host")
    p.add_argument("--pattern", default=None, help=".og pattern for embedding kinds")
    p.set_defaults(run=cmd_verify)

    return top


def _resolve_config(args) -> RunConfig:
    seed = args.seed
    if seed is None:
        raw = os.environ.get(SEED_ENV, "0")
        try:
            seed = int(raw)
        except ValueError:
            raise ParseError(f"{SEED_ENV} must be an integer, got {raw!r}")
    cfg = RunConfig(
        command=args.command,
        seed=seed,
        tuple_cap=args.tuple_cap,
        node_budget=args.node_budget,
        exhaustive_threshold=args.exhaustive_threshold,
        quiet=args.quiet,
    )
    if cfg.tuple_cap < 1 or cfg.node_budget < 1 or cfg.exhaustive_threshold < 0:
        raise ParameterError("caps must be positive")
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return args.run(cfg, args)
    except (ParseError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TupleCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except GenerationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GENERATION
    except OrdRamseyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
