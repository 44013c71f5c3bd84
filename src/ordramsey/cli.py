"""Command-line front end: seeded runs, certificate emission and verification.

Machine-readable JSON goes to stdout, one object per run; human summaries go
to stderr.  Exit codes are a stable contract: 0 success/found, 2 input error,
3 bound exceeded, 4 exhausted or not found, 5 generation failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import io as formats
from .certificates import (
    certificate_dict,
    decode_certificate,
    json_line,
    parse_rational,
    rational_str,
    require_verifiable,
    verify_certificate,
)
from .constructions import (
    blowup,
    build_subdivision_S,
    iterated_lower_bound_tournament,
)
from .core import ColoredCompleteGraph, OrderedGraph, Tournament
from .embed import find_ordered_embedding
from .errors import (
    GenerationError,
    OrdRamseyError,
    ParameterError,
    ParseError,
    TupleCapError,
)
from .kernels import DEFAULT_NODE_BUDGET
from .pipeline import (
    Exhausted,
    MonoCopy,
    SparseSet,
    exact_ordered_ramsey,
    find_mono_copy,
    recursive_sparse_set,
)
from .skeleton import (
    DEFAULT_SAMPLES,
    DEFAULT_TUPLE_CAP,
    find_skeleton_from_cliques,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BOUND = 3
EXIT_EXHAUSTED = 4
EXIT_GENERATION = 5

SEED_ENV = "ORDRAMSEY_SEED"


def _report(args, cert: dict, summary: str) -> int:
    """Print cert as the run's one JSON line and, unless -q, summary on stderr.

    The exit code is read off the certificate: 4 when it is exhausted or
    invalid, 3 when a ramsey_exact certificate has no n_star, 0 otherwise.
    """
    sys.stdout.write(json_line(cert))
    if not args.quiet:
        print(summary, file=sys.stderr)
    if cert["kind"] == "exhausted" or cert.get("valid") is False:
        return EXIT_EXHAUSTED
    if cert["kind"] == "ramsey_exact" and cert["n_star"] is None:
        return EXIT_BOUND
    return EXIT_OK


def _file_op(verb: str, path: str, op):
    """op(), with an OSError on path, or bytes that do not decode, reported
    as a ParseError, an input error."""
    try:
        return op()
    except OSError as exc:
        raise ParseError(f"cannot {verb} {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        reason = f"byte {exc.start} is not {exc.encoding} text"
        raise ParseError(f"cannot {verb} {path}: {reason}") from None


def _write_out(path: str, text: str) -> None:
    _file_op("write", path, lambda: Path(path).write_text(text))


def _out_path(args, default: str) -> str:
    """args.out or default; an --out whose extension names another value type
    than default's is refused, and an unknown extension is written as given."""
    out = args.out or default
    try:
        same = formats.value_type(out) is formats.value_type(default)
    except ParseError:
        return out
    if not same:
        want, got = Path(default).suffix, Path(out).suffix
        raise ParseError(f"--out {out}: construct {args.what} writes {want} files, not {got}")
    return out


def _load(path: str, want: type, label: str):
    """Parse a file by its extension; an extension that names another value
    type is refused before the file is read."""
    got = formats.value_type(path)
    if got is not want:
        raise ParseError(f"{path} holds a {got.__name__}, expected {label}")
    return _file_op("read", path, lambda: formats.load_path(path))


def _fraction_arg(text: str) -> Fraction:
    try:
        return parse_rational(text) if "/" in text else Fraction(text)
    except ParseError as exc:  # its text already names the rational
        raise argparse.ArgumentTypeError(str(exc))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {exc}")


def exact_arguments(p) -> None:
    p.add_argument("h1")
    p.add_argument("h2")
    p.add_argument("max_n", type=int)
    p.set_defaults(run=cmd_exact)


def cmd_exact(args) -> int:
    pat1 = _load(args.h1, OrderedGraph, "an .og pattern")
    pat2 = _load(args.h2, OrderedGraph, "an .og pattern")
    result = exact_ordered_ramsey(pat1, pat2, args.max_n, args.node_budget)
    if isinstance(result, Exhausted):
        summary = "exact search exhausted: " + result.trace[-1]
        return _report(args, certificate_dict(result), summary)
    if result is None:
        cert = {"kind": "ramsey_exact", "max_n": args.max_n, "n_star": None}
        return _report(args, cert, f"ordered ramsey number exceeds max_n = {args.max_n}")
    n_star, witness = result
    return _report(
        args,
        certificate_dict((n_star, formats.write_okc(witness))),
        f"n_star = {n_star} with a witness coloring on {witness.N} vertices",
    )


def search_arguments(p) -> None:
    p.add_argument("coloring")
    p.add_argument("h1")
    p.add_argument("h2")
    p.set_defaults(run=cmd_search)


def cmd_search(args) -> int:
    coloring = _load(args.coloring, ColoredCompleteGraph, "an .okc coloring")
    pat1 = _load(args.h1, OrderedGraph, "an .og pattern")
    pat2 = _load(args.h2, OrderedGraph, "an .og pattern")
    result = find_mono_copy(coloring, pat1, pat2)
    if isinstance(result, MonoCopy):
        summary = f"found a {result.color.value} copy on {len(result.mapping)} vertices"
    else:
        summary = "search exhausted: " + "; ".join(result.trace[-1:])
    return _report(args, certificate_dict(result), summary)


def embed_arguments(p) -> None:
    p.add_argument("host")
    p.add_argument("pattern")
    p.set_defaults(run=cmd_embed)


def cmd_embed(args) -> int:
    host = _load(args.host, OrderedGraph, "an .og host")
    pattern = _load(args.pattern, OrderedGraph, "an .og pattern")
    emb = find_ordered_embedding(host, pattern)
    if emb is None:
        cert = certificate_dict(Exhausted(("no order-preserving embedding",)))
        return _report(args, cert, "no order-preserving embedding")
    return _report(args, certificate_dict(emb), f"embedding found: {list(emb.mapping)}")


def skeleton_arguments(p) -> None:
    p.add_argument("host")
    p.add_argument("--a", type=int, required=True, help="spine length")
    p.add_argument(
        "--window", type=int, default=None,
        help="the n of the block target b >= d*N/n^5, with N >= n >= 4a+1 (default 4a+1)",
    )
    p.add_argument("--d", type=_fraction_arg, default=Fraction(1), help="block target factor")
    p.set_defaults(run=cmd_skeleton)


def cmd_skeleton(args) -> int:
    host = _load(args.host, OrderedGraph, "an .og host")
    n = args.window if args.window is not None else 4 * args.a + 1
    skel = find_skeleton_from_cliques(host, n, args.a, args.d, args.tuple_cap)
    if skel is None:
        cert = certificate_dict(Exhausted((f"no ({args.a}, b)-skeleton at d = {args.d}",)))
        return _report(args, cert, "no skeleton met the block-size target")
    summary = f"({skel.a}, {skel.b})-skeleton with spine {list(skel.spine)}"
    return _report(args, certificate_dict(skel), summary)


def sparse_set_arguments(p) -> None:
    p.add_argument("coloring")
    p.add_argument("h1")
    p.add_argument("h2")
    p.add_argument("--c", type=_fraction_arg, required=True, help="density target in (0, 1/8)")
    p.add_argument(
        "--alpha", type=float, default=None,
        help="per-level shrink factor in (0, 1); the default is the lemma's value, which "
        "falls as N grows (for K3,K3 at c = 1/10: 1.8e-10 at N = 1, 1.7e-16 from N = 16 on) "
        "and at which the recursion stops at its root with a one-vertex set (try 0.75)",
    )
    p.add_argument("--window", type=int, default=None, help="sampling window override")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.set_defaults(run=cmd_sparse_set)


def cmd_sparse_set(args) -> int:
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
        tuple_cap=args.tuple_cap,
        seed=args.seed,
    )
    if isinstance(result, SparseSet):
        summary = (
            f"{result.color.value} set of {len(result.members)} vertices, "
            f"density {rational_str(result.density)} <= {rational_str(result.bound)}"
        )
    elif isinstance(result, MonoCopy):
        summary = f"stumbled on a {result.color.value} copy instead"
    else:
        summary = "recursion exhausted: " + "; ".join(result.trace[-1:])
    return _report(args, certificate_dict(result), summary)


def construct_arguments(p) -> None:
    what = p.add_subparsers(dest="what", required=True, parser_class=_Command)
    what.add_parser(
        "sn", help="subdivided star digraph (.dg plus triple sidecar)",
        arguments=construct_sn_arguments,
    )
    what.add_parser(
        "blowup", help="substitute inner for every outer vertex",
        arguments=construct_blowup_arguments,
    )
    what.add_parser(
        "lowerbound", help="iterated blowup avoiding the subdivided star",
        arguments=construct_lowerbound_arguments,
    )


def construct_sn_arguments(p) -> None:
    p.add_argument("n", type=int)
    p.add_argument("--out", default=None)
    p.set_defaults(run=cmd_construct_sn)


def cmd_construct_sn(args) -> int:
    out = _out_path(args, f"sn_{args.n}.dg")
    sub = build_subdivision_S(args.n)
    _write_out(out, formats.write_dg(sub.digraph))
    sidecar = str(Path(out).with_suffix(".triples.json"))
    triples = {",".join(map(str, t)): v for t, v in sorted(sub.triple_index.items())}
    _write_out(sidecar, json_line(triples))
    arcs = len(sub.digraph.arcs())
    cert = {
        "kind": "construct",
        "what": "sn",
        "n": args.n,
        "vertices": sub.digraph.n,
        "arcs": arcs,
        "out": out,
        "sidecar": sidecar,
    }
    return _report(args, cert, f"{sub.digraph.n} vertices, {arcs} arcs -> {out}")


def construct_blowup_arguments(p) -> None:
    p.add_argument("outer")
    p.add_argument("inner")
    p.add_argument("--out", default=None)
    p.set_defaults(run=cmd_construct_blowup)


def cmd_construct_blowup(args) -> int:
    outer = _load(args.outer, Tournament, "a .trn tournament")
    inner = _load(args.inner, Tournament, "a .trn tournament")
    out = _out_path(args, f"blowup_{outer.N}x{inner.N}.trn")
    B = blowup(outer, inner)
    _write_out(out, formats.write_trn(B.tournament))
    cert = {
        "kind": "construct",
        "what": "blowup",
        "vertices": B.tournament.N,
        "arcs": B.tournament.N * (B.tournament.N - 1) // 2,
        "blocks": len(B.blocks),
        "out": out,
    }
    return _report(args, cert, f"{B.tournament.N} vertices in {len(B.blocks)} blocks -> {out}")


def construct_lowerbound_arguments(p) -> None:
    p.add_argument("n", type=int)
    p.add_argument("--out", default=None)
    p.set_defaults(run=cmd_construct_lowerbound)


def cmd_construct_lowerbound(args) -> int:
    out = _out_path(args, f"lowerbound_{args.n}_{args.seed}.trn")
    T = iterated_lower_bound_tournament(args.n, args.seed)
    _write_out(out, formats.write_trn(T))
    cert = {
        "kind": "construct",
        "what": "lowerbound",
        "n": args.n,
        "seed": args.seed,
        "vertices": T.N,
        "arcs": T.N * (T.N - 1) // 2,
        "out": out,
    }
    return _report(args, cert, f"{T.N} vertices -> {out}")


def verify_arguments(p) -> None:
    p.add_argument("certificate")
    p.add_argument("host")
    p.add_argument("--pattern", default=None, help=".og pattern for embedding kinds")
    p.set_defaults(run=cmd_verify)


def cmd_verify(args) -> int:
    text = _file_op("read", args.certificate, Path(args.certificate).read_text)
    kind, payload = decode_certificate(text)
    require_verifiable(kind, bool(args.pattern))
    # any extension loads; verify_certificate says which host type the claim needs
    host = _file_op("read", args.host, lambda: formats.load_path(args.host))
    pattern = _load(args.pattern, OrderedGraph, "an .og pattern") if args.pattern else None
    valid, reason = verify_certificate(kind, payload, host, pattern)
    cert = {"kind": "verify", "certificate_kind": kind, "valid": bool(valid), "reason": reason}
    verdict = "valid" if valid else f"invalid: {reason}"
    return _report(args, cert, f"{kind} certificate is {verdict}")


class _Command:
    """A command's parser before argparse picks that command.

    Passed to `add_subparsers` as its parser class, so each `add_parser` call
    makes one of these from the parser's keyword arguments (its `prog` among
    them) and `arguments`, the function that adds the command's arguments.
    argparse calls `parse_known_args` only on the command it picks; that
    builds the real parser, so a call never builds the parsers of the
    commands it does not run, for `--help` and argv errors too.
    """

    def __init__(self, arguments, **kwargs):
        self.arguments = arguments
        self.kwargs = kwargs

    def parse_known_args(self, args, namespace):
        parser = argparse.ArgumentParser(**self.kwargs)
        self.arguments(parser)
        return parser.parse_known_args(args, namespace)


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
        "spine keys enumerated from sampled cliques by `sparse-set` "
        f"(default: {DEFAULT_TUPLE_CAP})",
    )
    top.add_argument(
        "--node-budget",
        type=int,
        default=DEFAULT_NODE_BUDGET,
        help="search decisions allowed to `exact`, summed over every N "
        f"(default: {DEFAULT_NODE_BUDGET})",
    )
    top.add_argument("-q", "--quiet", action="store_true", help="suppress stderr summaries")
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Command)
    sub.add_parser("exact", help="least N forcing a red H1 or blue H2", arguments=exact_arguments)
    sub.add_parser(
        "search", help="exact search for a monochromatic copy in a coloring",
        arguments=search_arguments,
    )
    sub.add_parser(
        "embed", help="order-preserving embedding of pattern in host", arguments=embed_arguments
    )
    sub.add_parser(
        "skeleton", help="clique-tuple skeleton in a host graph", arguments=skeleton_arguments
    )
    sub.add_parser(
        "sparse-set", help="low-density set in one color, or a copy",
        arguments=sparse_set_arguments,
    )
    sub.add_parser(
        "construct", help="emit a named construction to disk", arguments=construct_arguments
    )
    sub.add_parser(
        "verify", help="re-check a certificate against its host", arguments=verify_arguments
    )
    return top


def _resolve_globals(args) -> None:
    """Fill in the seed from the environment and check the global caps."""
    if args.seed is None:
        raw = os.environ.get(SEED_ENV, "0")
        try:
            args.seed = int(raw)
        except ValueError:
            raise ParseError(f"{SEED_ENV} must be an integer, got {raw!r}")
    if args.tuple_cap < 1 or args.node_budget < 1:
        raise ParameterError("caps must be positive")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _resolve_globals(args)
        return args.run(args)
    except OrdRamseyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, TupleCapError):
            return EXIT_BOUND
        if isinstance(exc, GenerationError):
            return EXIT_GENERATION
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
