"""Spans around the package's public functions, installed from outside it.

``Tracer.install`` replaces each target function at every binding the
package looks it up through: module attributes (``ordramsey.kernels.
search_good_coloring``, the names imported into ``ordramsey.pipeline`` and
the rest), module-level dict values (the ``io`` parser tables) and class
attributes for methods.  Private kernel internals (``_fallback``,
``_speedups``) and hot helpers such as ``bits_of`` are left alone.

A span is ``[name, start, end, parent index, job id, counts]``, kept in
memory.  Counts come from the wrapped call's arguments and return value.
Each job runs inside a root ``job`` span whose bounds are the job's latency
clock, so the self times of one pass add up to its traced wall time.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import defaultdict


def _found(args, result):
    return {"found": result is not None}


# (module, attribute, span name, counter over (args, result))
TARGETS = (
    ("ordramsey.kernels", "search_good_coloring", "kernels.search_good_coloring",
     lambda a, r: {"refute": r is None}),
    ("ordramsey.kernels", "clique_tuple_buckets", "kernels.clique_tuple_buckets",
     lambda a, r: {"tuples": r[0], "truncated": int(bool(r[1]))}),
    ("ordramsey.kernels", "transitive_chain", "kernels.transitive_chain", None),
    ("ordramsey.kernels", "find_embedding", "kernels.find_embedding", _found),
    ("ordramsey.kernels", "digraph_injection", "kernels.digraph_injection",
     lambda a, r: {"nodes": r[1]}),
    ("ordramsey.core", "color_class", "core.color_class", None),
    ("ordramsey.core", "ColoredCompleteGraph.induced", "core.ColoredCompleteGraph.induced", None),
    ("ordramsey.core", "density_within", "core.density_within", None),
    ("ordramsey.skeleton", "sample_color_cliques", "skeleton.sample_color_cliques",
     lambda a, r: {"cliques": sum(len(v) for v in r.values())}),
    ("ordramsey.skeleton", "expand_clique_tuples", "skeleton.expand_clique_tuples",
     lambda a, r: {"tuples": len(r)}),
    ("ordramsey.skeleton", "find_skeleton_in_dense", "skeleton.find_skeleton_in_dense",
     lambda a, r: {"found": r.found}),
    ("ordramsey.skeleton", "build_clique_tuple_index", "skeleton.build_clique_tuple_index", None),
    ("ordramsey.skeleton", "verify_skeleton", "skeleton.verify_skeleton", None),
    ("ordramsey.embed", "find_ordered_embedding", "embed.find_ordered_embedding", None),
    ("ordramsey.embed", "skeleton_embed_or_sparse_pair", "embed.skeleton_embed_or_sparse_pair",
     lambda a, r: {"embedding": type(r).__name__ == "Embedding"}),
    ("ordramsey.embed", "verify_embedding", "embed.verify_embedding", None),
    ("ordramsey.pipeline", "exact_ordered_ramsey", "pipeline.exact_ordered_ramsey", None),
    ("ordramsey.pipeline", "recursive_sparse_set", "pipeline.recursive_sparse_set", None),
    ("ordramsey.pipeline", "find_mono_copy", "pipeline.find_mono_copy", None),
    ("ordramsey.constructions", "iterated_lower_bound_tournament",
     "constructions.iterated_lower_bound_tournament", None),
    ("ordramsey.constructions", "random_tournament_avoiding",
     "constructions.random_tournament_avoiding", None),
    ("ordramsey.constructions", "blowup", "constructions.blowup", None),
    ("ordramsey.constructions", "build_subdivision_S", "constructions.build_subdivision_S", None),
    *(("ordramsey.io", f"parse_{fmt}", "io.parse", lambda a, r: {"bytes": len(a[0])})
      for fmt in ("og", "okc", "dg", "trn")),
    *(("ordramsey.io", f"write_{fmt}", "io.write", lambda a, r: {"bytes": len(r)})
      for fmt in ("og", "okc", "dg", "trn")),
    ("ordramsey.certificates", "certificate_dict", "certificates.certificate_dict", None),
    ("ordramsey.certificates", "decode_certificate", "certificates.decode_certificate", None),
    ("ordramsey.cli", "main", "cli.main", None),
)

# bindings inside these modules are kernel internals, not lookup points
PRIVATE_MODULES = ("ordramsey._fallback", "ordramsey._speedups")

# per-layer metric -> (span name, statistic); every one is reported per pass
LAYER_METRICS = {}
for _span, _stats in (
    ("kernels.search_good_coloring", ("calls", "self_s", "refute_s")),
    ("kernels.clique_tuple_buckets", ("self_s", "tuples", "truncated")),
    ("kernels.transitive_chain", ("calls", "self_s")),
    ("kernels.find_embedding", ("calls", "self_s", "found_ratio")),
    ("kernels.digraph_injection", ("self_s", "nodes")),
    ("core.color_class", ("calls", "self_s")),
    ("core.ColoredCompleteGraph.induced", ("calls", "self_s")),
    ("core.density_within", ("calls", "self_s")),
    ("skeleton.sample_color_cliques", ("calls", "self_s", "cliques")),
    ("skeleton.expand_clique_tuples", ("self_s", "tuples")),
    ("skeleton.find_skeleton_in_dense", ("self_s", "found_ratio")),
    ("skeleton.build_clique_tuple_index", ("calls", "self_s")),
    ("skeleton.verify_skeleton", ("calls", "self_s")),
    ("embed.find_ordered_embedding", ("calls", "self_s")),
    ("embed.skeleton_embed_or_sparse_pair", ("calls", "self_s", "embedding_ratio")),
    ("embed.verify_embedding", ("calls", "self_s")),
    ("pipeline.exact_ordered_ramsey", ("calls", "self_s")),
    ("pipeline.recursive_sparse_set", ("calls", "self_s")),
    ("pipeline.find_mono_copy", ("calls", "self_s")),
    ("constructions.iterated_lower_bound_tournament", ("calls", "self_s")),
    ("constructions.random_tournament_avoiding", ("calls", "self_s")),
    ("constructions.blowup", ("calls", "self_s")),
    ("constructions.build_subdivision_S", ("calls", "self_s")),
    ("io.parse", ("self_s", "bytes")),
    ("io.write", ("self_s", "bytes")),
    ("certificates.certificate_dict", ("calls", "self_s")),
    ("certificates.decode_certificate", ("calls", "self_s")),
    ("cli.main", ("self_s",)),
):
    for _stat in _stats:
        LAYER_METRICS[f"{_span}.{_stat}"] = (_span, _stat)

# ratio statistic -> the boolean count it divides by calls
RATIOS = {"found_ratio": "found", "embedding_ratio": "embedding"}


class Tracer:
    """Installs span-recording wrappers and keeps the spans they record."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.job: str | None = None

    def _wrap(self, name, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                rec[5] = counter(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> "Tracer":
        if self._undo:
            raise RuntimeError("tracer already installed")
        for module, attr, name, counter in TARGETS:
            mod = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[meth]
                self._set(owner, meth, self._wrap(name, orig, counter), orig)
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(name, orig, counter)
            for mod_name, other in list(sys.modules.items()):
                if other is None or mod_name in PRIVATE_MODULES:
                    continue
                if mod_name != "ordramsey" and not mod_name.startswith("ordramsey."):
                    continue
                for key, value in list(vars(other).items()):
                    if value is orig:
                        self._set(other, key, wrapper, orig)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is orig:
                                value[dkey] = wrapper
                                self._undo.append((value, dkey, orig))
        return self

    def _set(self, owner, key, wrapper, orig) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._undo.clear()

    def begin_job(self, job: str, start: float) -> None:
        if self._stack:
            raise RuntimeError("a job span is already open")
        self.job = job
        self._stack.append(len(self.spans))
        self.spans.append(["job", start, 0.0, -1, job, None])

    def end_job(self, end: float) -> None:
        self.spans[self._stack.pop()][2] = end
        self.job = None


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_totals(spans) -> dict:
    """Per span name: calls, self_s, refute_s and the summed counts."""
    selfs = self_times(spans)
    totals: dict = defaultdict(lambda: defaultdict(float))
    for rec, self_s in zip(spans, selfs):
        name, start, end, _, _, counts = rec
        t = totals[name]
        t["calls"] += 1
        t["self_s"] += self_s
        if counts:
            for key, value in counts.items():
                t[key] += value
            if counts.get("refute"):
                t["refute_s"] += end - start
    return totals


def layer_metrics(spans) -> dict:
    """Every LAYER_METRICS value for one pass's spans; absent layers read 0."""
    totals = layer_totals(spans)
    out = {}
    for metric, (span, stat) in LAYER_METRICS.items():
        t = totals.get(span, {})
        if stat in RATIOS:
            calls = t.get("calls", 0)
            out[metric] = t.get(RATIOS[stat], 0) / calls if calls else 0.0
        else:
            out[metric] = float(t.get(stat, 0))
    return out


def median_layer_metrics(passes: list[list]) -> dict:
    """Median over traced passes of each pass's layer metrics."""
    per_pass = [layer_metrics(spans) for spans in passes]
    return {m: statistics.median(p[m] for p in per_pass) for m in LAYER_METRICS}
