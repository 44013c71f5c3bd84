#!/usr/bin/env python3
"""Time the search kernels on deterministic workloads and print a table.

It also times the .okc reader and writer on an N=120 coloring, the size of
the perfbench sparse-set inputs, and the clique-harvest skeleton layer on
the all-blue N=50 coloring of the perfbench dense-skeleton workload, and the
host-path skeleton search on K_40.  Every time is the best of --repeat runs.
The three transitive_chain refutations and the three good-coloring climbs
it times must refute, the climbs at N* alone, or the run stops with an error.
Usage: PYTHONPATH=src python bench/benchmark_kernels.py [--repeat K]
"""

import argparse
import random
import time
from fractions import Fraction
from itertools import combinations

from ordramsey import kernels
from ordramsey.constructions import blowup, build_subdivision_S
from ordramsey.core import Color, ColoredCompleteGraph, OrderedGraph, Tournament
from ordramsey.embed import _pre_lists
from ordramsey.skeleton import (
    _index_from_cliques,
    find_skeleton_from_cliques,
    find_skeleton_in_dense,
)
from ordramsey.io import parse_okc, write_okc


def random_graph(n, p, rng):
    return [(i, j) for i, j in combinations(range(1, n + 1), 2) if rng.random() < p]


def refutation(n, rows, k):
    """The no-transitive-k-set proof for rows; a chain found stops the run."""

    def run():
        chain = kernels.transitive_chain(n, rows, k)
        if chain is not None:
            raise SystemExit(f"T{n} holds the transitive {k}-set {chain}")

    return run


def workloads():
    rng = random.Random(2024)
    host_n = 60
    host = OrderedGraph(host_n, random_graph(host_n, 0.35, rng)).adj
    pre = _pre_lists(OrderedGraph(7, [(1, 2), (2, 3), (3, 4), (2, 5), (5, 6), (4, 7)]))

    def w_find():
        out = []
        for shift in range(200):
            out.append(kernels.find_embedding(host_n, host, 7, pre))
        return out

    yield "find_embedding", w_find

    t_rows = Tournament.from_random(44, random.Random(5)).beats

    def w_chain():
        return [kernels.transitive_chain(44, t_rows, k) for k in (6, 8, 10)]

    yield "transitive_chain", w_chain

    star = build_subdivision_S(5).digraph

    def w_inject():
        out = []
        for s in range(40, 46):
            rows = Tournament.from_random(24, random.Random(s)).beats
            budget = kernels.DecisionBudget(50_000)
            out.append(kernels.digraph_injection(24, rows, star.n, star.out, budget))
        return out

    yield "digraph_injection", w_inject

    # the shape of the cli-mix subdivision job: S_4 in a 12x10 blowup.  This
    # draw takes 22,324 nodes, where the median over seeds 0-39 is about 365
    rng = random.Random(17)
    outer = Tournament.from_random(12, rng)
    inner = Tournament.from_random(10, rng)
    big = blowup(outer, inner)
    s4 = build_subdivision_S(4).digraph

    def w_inject_blowup():
        budget = kernels.DecisionBudget(200_000)
        return kernels.digraph_injection(big.N, big.beats, s4.n, s4.out, budget)

    yield "digraph_injection S4 in blowup 12x10", w_inject_blowup

    dense = OrderedGraph(30, random_graph(30, 0.8, random.Random(3))).adj

    def w_cliques():
        return kernels.clique_tuple_buckets(30, dense, 9, 200_000)

    yield "clique_tuple_buckets", w_cliques

    # the sizes of the perfbench cli-mix jobs: skeleton on K_40 (a = 1) and
    # the no-transitive-30-set proof for each 160-vertex lowerbound draw
    k40_graph = OrderedGraph(40, combinations(range(1, 41), 2))
    k40 = k40_graph.adj

    def w_cliques_k40():
        return kernels.clique_tuple_buckets(40, k40, 5, 10_000_000)

    yield "clique_tuple_buckets K40", w_cliques_k40

    # the whole host path of that job: the kernel, the largest-b selection
    # and the skeleton's self-check
    yield "find_skeleton_from_cliques K40 a=1", lambda: find_skeleton_from_cliques(
        k40_graph, 5, 1
    )

    # skeleton on K_40 with a = 2 (k = 9), the shape of the slowest skeleton
    # test, capped inside the block of one 6-vertex prefix
    def w_cliques_k40_k9():
        return kernels.clique_tuple_buckets(40, k40, 9, 2_000_000)

    yield "clique_tuple_buckets K40 k=9 capped", w_cliques_k40_k9

    t160 = Tournament.from_random(160, random.Random(1600)).beats
    yield "transitive_chain T160", refutation(160, t160, 30)

    # the outer draw of lowerbound 2000 (N = 200, k = 31), and a draw with no
    # 12-chain whose low half holds its 7-chain, so the full DFS runs after
    # the low-half search (seed 71 is the slowest against the DFS without
    # the half split among seeds 0-79 at N = 42, k = 12)
    t200 = Tournament.from_random(200, random.Random(2000)).beats
    yield "transitive_chain T200 k=31", refutation(200, t200, 31)
    t42 = Tournament.from_random(42, random.Random(71)).beats
    yield "transitive_chain T42 k=12", refutation(42, t42, 12)

    # exact's climb to its refutation at N*, most of the perfbench exact workload
    k3 = list(combinations(range(1, 4), 2))
    k4 = list(combinations(range(1, 5), 2))
    c4x = [(1, 3), (1, 4), (2, 3), (2, 4)]
    p4 = [(1, 2), (2, 3), (3, 4)]

    def w_refute(n_star, pat1, pat2):
        def run():
            solver = kernels.ColoringSolver(*pat1, *pat2, kernels.DecisionBudget(kernels.DEFAULT_NODE_BUDGET))
            for n in range(1, n_star + 1):
                if (kernels.search_good_coloring(solver, n) is None) != (n == n_star):
                    raise SystemExit(f"{pat1}, {pat2}: N* is not {n_star}")

        return run

    for name, n, pat1, pat2 in (
        ("C4x,K3", 9, (4, c4x), (3, k3)),
        ("K3,K4", 9, (3, k3), (4, k4)),
        ("P4,P4", 10, (4, p4), (4, p4)),
    ):
        yield f"search_good_coloring {name} N*={n}", w_refute(n, pat1, pat2)

    c120 = ColoredCompleteGraph.from_random(120, 120)
    okc120 = write_okc(c120)
    yield "parse_okc N=120", lambda: parse_okc(okc120)
    yield "write_okc N=120", lambda: write_okc(c120)

    # the perfbench dense-skeleton anchor job, and its clique-harvest index
    # alone: one 50-clique at k = 5 (a = 1), 1,081 spine keys
    blue50 = ColoredCompleteGraph.from_function(50, lambda i, j: False)
    yield "find_skeleton_in_dense blue N=50", lambda: find_skeleton_in_dense(
        blue50, Color.RED, 1, Fraction(10), seed=0
    )
    clique50 = [tuple(range(1, 51))]
    yield "_index_from_cliques 50-clique k=5", lambda: _index_from_cliques(clique50, 5, 10**7)


def best_time(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    print(f"{'kernel':<36} {'time (s)':>10}")
    for name, fn in workloads():
        print(f"{name:<36} {best_time(fn, args.repeat):>10.4f}")


if __name__ == "__main__":
    main()
