#!/usr/bin/env python3
"""Time the search kernels on deterministic workloads and print a table.

Every time is the best of --repeat runs.
Usage: PYTHONPATH=src python bench/benchmark_kernels.py [--repeat K]
"""

import argparse
import random
import time
from itertools import combinations

from ordramsey import kernels


def adj_rows(n, edges):
    rows = [0] * (n + 1)
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def pre_lists(n, edges):
    pre = [[] for _ in range(n + 1)]
    for u, v in edges:
        pre[v].append(u)
    for row in pre:
        row.sort()
    return pre


def random_graph(n, p, rng):
    return [(i, j) for i, j in combinations(range(1, n + 1), 2) if rng.random() < p]


def random_tournament_rows(n, rng):
    rows = [0] * (n + 1)
    for j in range(2, n + 1):
        for i in range(1, j):
            if rng.getrandbits(1):
                rows[i] |= 1 << j
            else:
                rows[j] |= 1 << i
    return rows


def workloads():
    rng = random.Random(2024)
    host_n = 60
    host = adj_rows(host_n, random_graph(host_n, 0.35, rng))
    pat_edges = [(1, 2), (2, 3), (3, 4), (2, 5), (5, 6), (4, 7)]
    pre = pre_lists(7, pat_edges)

    def w_find():
        out = []
        for shift in range(200):
            out.append(kernels.find_embedding(host_n, host, 7, pre))
        return out

    yield "find_embedding", w_find

    kn = adj_rows(22, list(combinations(range(1, 23), 2)))
    pre_path = pre_lists(5, [(1, 2), (2, 3), (3, 4), (4, 5)])

    def w_count():
        return kernels.count_embeddings(22, kn, 5, pre_path, None, 10**9)

    yield "count_embeddings", w_count

    t_rows = random_tournament_rows(44, random.Random(5))

    def w_chain():
        return [kernels.transitive_chain(44, t_rows, k) for k in (6, 8, 10)]

    yield "transitive_chain", w_chain

    star_arcs = []
    idx = 6
    for t in combinations(range(1, 6), 3):
        i, j, k = t
        star_arcs += [(i, idx), (idx, j), (idx, k)]
        idx += 1

    def w_inject():
        out = []
        for s in range(40, 46):
            rows = random_tournament_rows(24, random.Random(s))
            out.append(
                kernels.digraph_injection(24, rows, idx - 1, star_arcs, list(range(1, idx)), 50_000)
            )
        return out

    yield "digraph_injection", w_inject

    dense = adj_rows(30, random_graph(30, 0.8, random.Random(3)))

    def w_cliques():
        return kernels.clique_tuple_buckets(30, dense, 9, 200_000)

    yield "clique_tuple_buckets", w_cliques

    # the sizes of the perfbench cli-mix jobs: skeleton on K_40 (a = 1) and
    # the no-transitive-30-set proof for each 160-vertex lowerbound draw
    k40 = adj_rows(40, list(combinations(range(1, 41), 2)))

    def w_cliques_k40():
        return kernels.clique_tuple_buckets(40, k40, 5, 10_000_000)

    yield "clique_tuple_buckets K40", w_cliques_k40

    t160 = random_tournament_rows(160, random.Random(1600))

    def w_chain_160():
        return kernels.transitive_chain(160, t160, 30)

    yield "transitive_chain T160", w_chain_160


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

    print(f"{'kernel':<26} {'time (s)':>10}")
    for name, fn in workloads():
        print(f"{name:<26} {best_time(fn, args.repeat):>10.4f}")


if __name__ == "__main__":
    main()
