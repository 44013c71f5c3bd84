"""Mutation tests: each checker must reject an output broken in one place."""

import json
from itertools import combinations

import checks
import workloads

K3 = workloads.K3


def _pentagon_red(i, j):
    return (j - i) % 5 in (1, 4)


def _write(tmp_path, name, text):
    (tmp_path / name).write_text(text)
    return name


def _exact_case(tmp_path, red):
    spec = {
        "kind": "exact",
        "h1": _write(tmp_path, "h1.og", workloads.og_text(K3)),
        "h2": _write(tmp_path, "h2.og", workloads.og_text(K3)),
    }
    cert = {"kind": "ramsey_exact", "n_star": 6, "witness": workloads.okc_text(5, red)}
    return checks.check_job(spec, 0, json.dumps(cert), tmp_path)


def test_exact_witness_passes_and_fails_with_one_flipped_pair(tmp_path):
    good = _exact_case(tmp_path, _pentagon_red)
    assert good["ok"] and good["decided"] and good["upper_checked"]
    # (1, 3) is blue in the pentagon; red closes the triangle 1-2-3
    flipped = _exact_case(tmp_path, lambda i, j: (i, j) == (1, 3) or _pentagon_red(i, j))
    assert not flipped["ok"]
    assert "red copy" in flipped["reason"]


def test_exact_n_star_is_compared_with_known_values():
    p4, c4 = workloads.P4, workloads.C4X
    as_sets = [(n, set(e)) for n, e in (K3, p4, c4, workloads.complete_pattern(2))]
    k3, p4, c4, k2 = as_sets
    assert checks.known_n_star(k3, k3) == 6
    assert checks.known_n_star(p4, k3) == 7
    assert checks.known_n_star(p4, p4) == 10
    assert checks.known_n_star(k2, c4) == 4
    assert checks.known_n_star(c4, k3) is None


def _sparse_case(tmp_path, claim_offset):
    n = 12
    red = {(i, j) for i, j in combinations(range(1, n + 1), 2) if (i * j) % 3 == 0}
    members = [1, 2, 4, 5, 7, 8, 10]
    hits = sum(1 for p in combinations(members, 2) if p in red)
    pairs = len(members) * (len(members) - 1) // 2
    spec = {
        "kind": "sparse-set",
        "coloring": _write(tmp_path, "c.okc", workloads.okc_text(n, lambda i, j: (i, j) in red)),
        "h1": "unused.og",
        "h2": "unused.og",
        "c": "1/10",
    }
    cert = {
        "kind": "sparse_set",
        "color": "red",
        "members": members,
        "density": f"{hits + claim_offset}/{pairs}",
        "bound": "1/10",
    }
    return checks.check_job(spec, 0, json.dumps(cert), tmp_path)


def test_sparse_set_density_off_by_one_edge_fails(tmp_path):
    good = _sparse_case(tmp_path, 0)
    assert good["ok"] and good["decided"]
    bad = _sparse_case(tmp_path, 1)
    assert not bad["ok"]
    assert "density" in bad["reason"]


def _skeleton_case(tmp_path, missing):
    n = 9
    edges = [e for e in combinations(range(1, n + 1), 2) if e != missing]
    spec = {"kind": "skeleton", "host": _write(tmp_path, "host.og", workloads.og_text((n, edges)))}
    cert = {"kind": "skeleton", "color": None, "a": 1, "b": 3,
            "spine": [5], "blocks": [[1, 2, 3], [6, 7, 8]]}
    return checks.check_job(spec, 0, json.dumps(cert), tmp_path)


def test_skeleton_missing_one_spine_block_edge_fails(tmp_path):
    good = _skeleton_case(tmp_path, None)
    assert good["ok"] and good["decided"]
    bad = _skeleton_case(tmp_path, (5, 7))
    assert not bad["ok"]
    assert bad["reason"].startswith("(c)")


def test_exit_code_that_contradicts_the_output_fails(tmp_path):
    spec = {"kind": "search", "coloring": "c.okc", "h1": "a.og", "h2": "b.og"}
    cert = {"kind": "exhausted", "trace": ["nothing found"]}
    assert checks.check_job(spec, 4, json.dumps(cert), tmp_path)["ok"]
    assert not checks.check_job(spec, 0, json.dumps(cert), tmp_path)["ok"]
    assert not checks.check_job(spec, 0, "not json", tmp_path)["ok"]


def test_subdivision_absence_claim_is_not_decided(tmp_path):
    spec = {"kind": "subdivision", "tournament": "t.trn", "n": 4}
    for exhausted in (False, True):
        cert = {"kind": "subdivision", "map": None, "nodes": 1, "exhausted": exhausted}
        verdict = checks.check_job(spec, 0, json.dumps(cert), tmp_path)
        assert verdict["ok"] and not verdict["decided"]
