"""Acceptance gate: nine criteria, one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Headline asymptotic bounds are out of reach at test scale, so the
gate pins exact small values, property contracts on seeded batches, and
byte-level determinism instead.
"""

import functools
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import ordramsey
from ordramsey import io as formats
from ordramsey.constructions import (
    build_subdivision_S,
    contains_subdivision,
    find_transitive_subtournament,
    iterated_lower_bound_tournament,
    lower_bound_parameters,
    random_tournament_avoiding,
)
from ordramsey.core import (
    Color,
    ColoredCompleteGraph,
    OrderedGraph,
    color_class,
    degeneracy,
    density_within,
)
from ordramsey.embed import (
    SlotSystem,
    Embedding,
    SparsePair,
    find_ordered_embedding,
    greedy_embed_or_sparse_pair,
    verify_embedding,
)
from ordramsey.pipeline import (
    MonoCopy,
    SparseSet,
    exact_ordered_ramsey,
    recursive_sparse_set,
    verify_mono_copy,
)
from ordramsey.skeleton import (
    es_bound,
    es_clique_or_independent,
    find_skeleton_from_cliques,
    find_skeleton_in_dense,
    verify_skeleton,
)

from conftest import (
    brute_force_embeddings,
    complete_graph,
    naive_density_between,
    naive_density_within,
    random_ordered_graph,
    random_pattern_max_degree,
)


def criterion(num):
    """Print exactly one pass/fail line for the wrapped criterion body."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num}: FAIL")
                raise
            print(f"criterion {num}: PASS ({detail})")

        return wrapper

    return deco


def monotone_path(n):
    return OrderedGraph(n, [(i, i + 1) for i in range(1, n)])


@criterion(1)
def test_criterion_1_exact_values():
    """N* = 2, 6, 5 for the three pinned pattern pairs, witnesses re-verified,
    under 60 seconds total."""
    start = time.monotonic()
    cases = [
        (complete_graph(2), complete_graph(2), 2),
        (complete_graph(3), complete_graph(3), 6),
        (monotone_path(3), monotone_path(3), 5),
    ]
    for pat1, pat2, expected in cases:
        result = exact_ordered_ramsey(pat1, pat2, 8)
        assert result is not None
        n_star, witness = result
        assert n_star == expected, (expected, n_star)
        assert witness.N == expected - 1
        assert find_ordered_embedding(color_class(witness, Color.RED), pat1) is None
        assert find_ordered_embedding(color_class(witness, Color.BLUE), pat2) is None
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    return f"2/6/5 with verified witnesses in {elapsed:.2f}s"


@criterion(2)
def test_criterion_2_greedy_dichotomy():
    """1000 seeded instances; every branch meets its full contract."""
    c_values = (Fraction(1, 5), Fraction(3, 10), Fraction(1, 2))
    embeddings = pairs = 0
    for seed in range(1000):
        rng = random.Random(20_000 + seed)
        k = rng.randint(2, 6)
        pattern = random_pattern_max_degree(k, 4, seed)
        assert pattern.max_degree() <= 4
        n = rng.randint(8 * k, 60)
        host = random_ordered_graph(n, rng.uniform(0.1, 0.9), 777_000 + seed)
        base, extra = divmod(n, k)
        slot_list = []
        at = 1
        for i in range(k):
            size = base + (1 if i < extra else 0)
            slot_list.append(list(range(at, at + size)))
            at += size
        c = c_values[seed % 3]
        res = greedy_embed_or_sparse_pair(host, pattern, slot_list, c)
        if isinstance(res, Embedding):
            ok, why = verify_embedding(host, pattern, res, SlotSystem(slot_list, n))
            assert ok, (seed, why)
            embeddings += 1
        else:
            assert isinstance(res, SparsePair)
            delta = pattern.max_degree()
            n_min = min(len(s) for s in slot_list)
            floor = c**delta / delta * n_min
            assert len(res.lower) >= floor, seed
            assert len(res.upper) >= floor, seed
            assert max(res.lower) < min(res.upper), seed
            dens = naive_density_between(host, res.lower, res.upper)
            assert dens == res.density, seed
            assert dens <= c, seed
            pairs += 1
    assert embeddings + pairs == 1000
    assert embeddings > 0 and pairs > 0
    return f"1000 instances, {embeddings} embeddings, {pairs} sparse pairs, 0 failures"


@criterion(3)
def test_criterion_3_skeletons():
    """Every finder output passes verify_skeleton; complete hosts reach
    b >= N / n^5."""
    checked = 0
    for big_n, a in ((40, 1), (120, 1), (200, 1), (60, 2), (120, 2), (200, 2), (100, 3), (200, 3)):
        n = 4 * a + 1
        host = complete_graph(big_n)
        skel = find_skeleton_from_cliques(host, n, a, tuple_cap=150_000)
        assert skel is not None, (big_n, a)
        report = verify_skeleton(host, skel)
        assert report.ok, (big_n, a, report.condition, report.witness)
        assert skel.b >= Fraction(big_n, n**5), (big_n, a, skel.b)
        checked += 1
    dense_found = 0
    for seed in range(6):
        col = ColoredCompleteGraph.from_random(60, seed)
        res = find_skeleton_in_dense(col, Color.RED, 1, Fraction(10), seed=seed)
        if res.found:
            report = verify_skeleton(color_class(col, res.color), res.skeleton)
            assert report.ok, (seed, report.condition)
            dense_found += 1
            checked += 1
    assert dense_found > 0
    return f"{checked} skeletons verified (8 complete hosts, {dense_found} dense colorings), 0 failures"


@criterion(4)
def test_criterion_4_sparse_clique_or_independent():
    """200 seeded sparse graphs; every witness is homogeneous and meets the
    log n / (100 eps log(1/eps)) size bound."""
    eps_values = (Fraction(1, 20), Fraction(1, 10))
    done = cliques = 0
    seed = 0
    while done < 200:
        seed += 1
        rng = random.Random(40_000 + seed)
        n = 500 if done % 50 == 49 else rng.randint(40, 240)
        eps = eps_values[done % 2]
        g = random_ordered_graph(n, float(eps) * 0.55, 88_000 + seed)
        if density_within(g, range(1, n + 1)) > eps:
            continue
        kind, members = es_clique_or_independent(g, eps)
        want = kind == "clique"
        for idx in range(len(members)):
            for jdx in range(idx + 1, len(members)):
                assert g.has_edge(members[idx], members[jdx]) == want, seed
        assert len(members) >= es_bound(n, float(eps)), seed
        assert math.isclose(
            es_bound(n, float(eps)),
            math.log(n) / (100 * float(eps) * math.log(1 / float(eps))),
        )
        cliques += want
        done += 1
    return f"200 sparse graphs, {200 - cliques} independent sets, {cliques} cliques, 0 failures"


@criterion(5)
def test_criterion_5_recursive_sparse_sets():
    """200 seeded colorings with patterns absent by size; every SparseSet
    meets the size and density contract, every MonoCopy re-verifies."""
    c = Fraction(1, 10)
    sets = exhausted = 0
    for run in range(200):
        rng = random.Random(60_000 + run)
        heavy = run >= 180
        big_n = rng.randint(20, 40) if heavy else rng.randint(20, 120)
        col = ColoredCompleteGraph.from_random(big_n, run)
        absent = complete_graph(big_n + 1)
        res = recursive_sparse_set(
            col,
            absent,
            absent,
            c,
            alpha=0.75 if heavy else None,
            samples=16 if heavy else 64,
            seed=run,
        )
        if isinstance(res, SparseSet):
            assert len(res.members) >= res.alpha ** (res.h1 + res.h2) * big_n, run
            dens = naive_density_within(color_class(col, res.color), res.members)
            assert dens <= c, run
            assert dens == res.density, run
            sets += 1
        elif isinstance(res, MonoCopy):
            ok, why = verify_mono_copy(col, absent, absent, res)
            assert ok, (run, why)
        else:
            exhausted += 1
    assert sets > 0
    return f"200 colorings, {sets} sparse sets verified, {exhausted} exhausted, 0 failures"


@criterion(6)
def test_criterion_6_subdivision_counts():
    """Vertex/arc counts, acyclicity, and degeneracy 3 across 3 <= n <= 12 in
    under 5 seconds."""
    start = time.monotonic()
    for n in range(3, 13):
        s = build_subdivision_S(n)
        triples = math.comb(n, 3)
        assert s.digraph.n == n + triples
        assert len(s.digraph.arcs) == 3 * triples
        assert len(s.digraph.topological_order()) == s.digraph.n
        deg = degeneracy(s.digraph.underlying_graph())
        if n >= 4:
            assert deg == 3, (n, deg)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    return f"n = 3..12 counts, acyclicity, degeneracy in {elapsed:.2f}s"


@criterion(7)
def test_criterion_7_lower_bound_non_containment():
    """Fixed (n, seed) matrix: no subdivided-star copy wherever the budgeted
    search completes; avoiding tournaments re-verified."""
    completed = exhausted_runs = 0
    for n in range(21, 31):
        m, k, _ = lower_bound_parameters(n)
        for seed in (0, 1, 2):
            T = iterated_lower_bound_tournament(n, seed)
            outer = random_tournament_avoiding(m, k, seed)
            assert find_transitive_subtournament(outer, k) is None, (n, seed)
            res = contains_subdivision(T, n, budget=1_000_000)
            if res.exhausted:
                exhausted_runs += 1
                continue
            assert not res.found, (n, seed)
            completed += 1
    # base case: the search itself proves the 4-vertex base has no copy
    base = iterated_lower_bound_tournament(3, 0)
    res = contains_subdivision(base, 3, budget=1_000_000)
    assert not res.exhausted and not res.found
    assert completed > 0
    return (
        f"{completed} completed searches with no copy, "
        f"{exhausted_runs} budget exhaustions reported, 0 failures"
    )


@criterion(8)
def test_criterion_8_embedding_oracle():
    """find_ordered_embedding matches brute force on 500 seeded instances:
    existence bit and least witness."""
    for seed in range(500):
        rng = random.Random(90_000 + seed)
        host = random_ordered_graph(rng.randint(1, 10), rng.uniform(0.1, 0.95), seed)
        pattern = random_ordered_graph(
            rng.randint(1, 5), rng.uniform(0.2, 0.95), 123_000 + seed
        )
        expected = brute_force_embeddings(host, pattern)
        got = find_ordered_embedding(host, pattern)
        if not expected:
            assert got is None, seed
        else:
            assert got is not None, seed
            assert got.mapping == min(expected), seed
    return "500 instances, existence and least witness identical"


@criterion(9)
def test_criterion_9_cli_determinism(tmp_path):
    """Byte-identical stdout across repeated runs."""
    path4 = tmp_path / "path4.og"
    path4.write_text(formats.write_og(monotone_path(4)))
    allred = tmp_path / "allred.okc"
    allred.write_text(
        formats.write_okc(ColoredCompleteGraph.from_function(10, lambda i, j: True))
    )
    k3 = tmp_path / "k3.og"
    k3.write_text(formats.write_og(complete_graph(3)))

    # The child runs in tmp_path, where a relative PYTHONPATH (such as `src`)
    # resolves to nothing; put the directory of the package this process
    # imported first, so the child runs the same code from any directory.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(ordramsey.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p
    )

    def run_cli(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "ordramsey.cli", "-q", "--seed", "3", *argv],
            capture_output=True,
            cwd=tmp_path,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        return proc.stdout

    checked = []
    for argv in (
        ["search", str(allred), str(path4), str(path4)],
        ["exact", str(k3), str(k3), "6"],
        ["skeleton", str(tmp_path / "k11.og"), "--a", "1"],
    ):
        if "skeleton" in argv[0]:
            (tmp_path / "k11.og").write_text(formats.write_og(complete_graph(11)))
        outs = {run_cli(argv) for _ in range(2)}
        assert len(outs) == 1, argv
        record = json.loads(outs.pop())
        assert record["kind"]
        checked.append(argv[0])
    return f"{len(checked)} commands x 2 runs each, byte-identical"
