"""Kernel dispatch: the compiled extension when importable, else the pure twin.

Set ORDRAMSEY_PURE=1 to force the pure-Python kernels (used by the benchmark
and by CI to exercise both paths).  Both implementations are kept importable
side by side for parity tests.  search_good_coloring has no compiled twin: it
is always the pure clause search, whichever implementation the others use.
"""

from __future__ import annotations

import os

from . import _fallback as pure

compiled = None
if not os.environ.get("ORDRAMSEY_PURE"):
    try:
        from . import _speedups as compiled  # type: ignore[no-redef]
    except ImportError:
        compiled = None

_impl = compiled if compiled is not None else pure
IMPLEMENTATION = "compiled" if compiled is not None else "pure"

find_embedding = _impl.find_embedding
count_embeddings = _impl.count_embeddings
search_good_coloring = pure.search_good_coloring
transitive_chain = _impl.transitive_chain
digraph_injection = _impl.digraph_injection
clique_tuple_buckets = _impl.clique_tuple_buckets

__all__ = [
    "IMPLEMENTATION",
    "pure",
    "compiled",
    "find_embedding",
    "count_embeddings",
    "search_good_coloring",
    "transitive_chain",
    "digraph_injection",
    "clique_tuple_buckets",
]
