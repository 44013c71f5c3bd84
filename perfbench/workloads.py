"""Seeded job lists for the four benchmark workloads.

A job is a plain dict.  CLI jobs carry the argv handed to
``ordramsey.cli.main``; library jobs name a function the CLI does not reach.
Every input file is written here, by the benchmark's own writers, into the
run's work directory; the program sees only those files.  ``check`` names the
independent checker in ``checks.py`` and what it needs to know.

A run draws its job list once from ``(workload, seed)`` and every pass
repeats that list unchanged: passes are replicates, so a run's medians
average over repeats of the same work, and two runs of one seed do the same
work however many passes fit.  Files a job writes carry ``{pass}`` in their
names; ``bind_pass`` fills it in, so each pass's outputs are checked on their
own.  Anchor jobs are in every seed's list; their per-job rows are the
ROADMAP baseline rows.
"""

from __future__ import annotations

import json
import random
from itertools import combinations
from pathlib import Path

K3 = (3, ((1, 2), (1, 3), (2, 3)))
P4 = (4, ((1, 2), (2, 3), (3, 4)))
# the crossing ordering of the 4-cycle: the cheapest C4 ordering against K3
C4X = (4, ((1, 3), (1, 4), (2, 3), (2, 4)))

# Pairs of a pattern on four vertices with no isolated vertex and a partner,
# in bands of near-equal exact-search time (pure Python, 2-core x86 VM:
# about 0.43, 0.54, 0.72 and 0.88 s).  A seed draws one pair from each band,
# so every seed's pass costs about the same, and the median job of a pass
# is P4,K3 or a draw of about its cost.  Pairs that take minutes (P4,P4 and
# most pairs against P4) are left out because a run must end within three
# minutes; C4X keeps a seconds-long refutation in every pass.
EXACT_BANDS = (
    (((4, ((1, 2), (1, 4), (3, 4))), "K3"), ((4, ((1, 2), (1, 3), (1, 4), (2, 3))), "K3")),
    (((4, ((1, 2), (1, 3), (3, 4))), "K3"), ((4, ((1, 4), (2, 4), (3, 4))), "K3")),
    (((4, ((1, 3), (1, 4), (2, 4))), "K3"), ((4, ((1, 4), (2, 3), (3, 4))), "K3"),
     ((4, ((1, 2), (3, 4))), "P4")),
    (((4, ((1, 3), (2, 3), (3, 4))), "K3"), ((4, ((1, 3), (2, 4), (3, 4))), "K3"), (K3, "P4")),
)
EXACT_MAX_N = 12

# (N, clique size of both patterns, share of red pairs): one coloring per
# entry.  A job's cost is set mostly by which color holds the majority:
# N=120 colorings with red share 0.49 take about 0.55 s (K5) and 0.82 s (K8),
# with red share 0.51 about 1.25 s (K8) and 0.8-1.2 s (K5, left out for that
# spread).  A seed's colorings differ in every pair but not in these shares,
# so every seed's pass costs about the same.
SPARSE_SET_SHAPES = ((120, 5, 0.49), (120, 8, 0.51), (120, 8, 0.49), (120, 5, 0.49),
                     (120, 8, 0.51))
# all-blue sizes; N=80 (19 s, 1.4 GB) would not fit a run or a shared machine.
# The random colorings outnumber the all-blue job, so the median job latency
# is the middle of their cluster.  At red share 0.49 they take 0.18 s each,
# whatever the seed; at 0.51 their cost varies from 0.18 to 0.27 s.
DENSE_ALL_BLUE = (50,)
DENSE_RANDOM = 8
DENSE_RANDOM_N = 60
DENSE_RANDOM_RED_SHARE = 0.49

LOWERBOUND_N = 1600
SKELETON_HOST_N = 40
SEARCH_N = 60
EMBED_HOST_N = 16
# search and embed jobs per pass: with their verify jobs they make most of a
# pass, so the median job latency is a quick command's, not a construction's
QUICK_JOBS = 3
BLOWUP_OUTER, BLOWUP_INNER = 12, 10
SUBDIVISION_BASE = 4
SUBDIVISION_BUDGET = 200_000

WORKLOADS = ("exact", "sparse-set", "dense-skeleton", "cli-mix")


# ---------------------------------------------------------------------------
# writers for the package's text formats


def og_text(pattern) -> str:
    n, edges = pattern
    edges = sorted(edges)
    return "\n".join([f"{n} {len(edges)}"] + [f"{i} {j}" for i, j in edges]) + "\n"


def okc_text(n: int, red) -> str:
    """red(i, j) for i < j says whether the pair is red."""
    rows = ["".join("R" if red(k, j) else "B" for j in range(k + 1, n + 1)) for k in range(1, n)]
    return "\n".join([str(n)] + rows) + "\n"


def random_red_pairs(n: int, rng: random.Random) -> set:
    return {(i, j) for i, j in combinations(range(1, n + 1), 2) if rng.random() < 0.5}


def red_pairs_with_share(n: int, share: float, rng: random.Random) -> set:
    """A uniformly drawn set of round(share * C(n, 2)) pairs."""
    pairs = list(combinations(range(1, n + 1), 2))
    return set(rng.sample(pairs, round(share * len(pairs))))


def random_tournament(n: int, rng: random.Random) -> set:
    """Arc set of a uniform tournament on 1..n."""
    return {(i, j) if rng.random() < 0.5 else (j, i) for i, j in combinations(range(1, n + 1), 2)}


def trn_text(n: int, arcs) -> str:
    lines = [str(n)]
    for j in range(2, n + 1):
        for i in range(1, j):
            lines.append(">" if (i, j) in arcs else "<")
    return "\n".join(lines) + "\n"


def complete_pattern(k: int):
    return (k, tuple(combinations(range(1, k + 1), 2)))


def random_pattern(rng: random.Random):
    """A 4-vertex ordered graph with no isolated vertex."""
    pairs = list(combinations(range(1, 5), 2))
    while True:
        edges = tuple(p for p in pairs if rng.random() < 0.5)
        if {v for e in edges for v in e} == {1, 2, 3, 4}:
            return (4, edges)


# ---------------------------------------------------------------------------
# job lists


def seed_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def bind_pass(job: dict, pass_no: int) -> dict:
    """The job as pass ``pass_no`` runs it: ``{pass}`` in its file names
    becomes that pass's prefix."""
    return json.loads(json.dumps(job).replace("{pass}", f"p{pass_no}_"))


def _write(work: Path, name: str, text: str) -> str:
    (work / name).write_text(text)
    return name


def exact_jobs(seed: int, work: Path) -> list[dict]:
    rng = seed_rng("exact", seed)
    partners = {"K3": K3, "P4": P4}
    pairs = [("K3,K3", K3, K3), ("P4,K3", P4, K3), ("C4x,K3", C4X, K3)]
    for h1, name in (rng.choice(band) for band in EXACT_BANDS):
        pairs.append((f"{sorted(h1[1])},{name}", h1, partners[name]))
    jobs = []
    for idx, (label, h1, h2) in enumerate(pairs):
        f1 = _write(work, f"{idx}_h1.og", og_text(h1))
        f2 = _write(work, f"{idx}_h2.og", og_text(h2))
        jobs.append(
            {
                "name": f"exact {label}",
                "cli": ["-q", "exact", f1, f2, str(EXACT_MAX_N)],
                "check": {"kind": "exact", "h1": f1, "h2": f2},
            }
        )
    return jobs


def sparse_set_jobs(seed: int, work: Path) -> list[dict]:
    rng = seed_rng("sparse-set", seed)
    jobs = []
    for idx, (n, k, share) in enumerate(SPARSE_SET_SHAPES):
        red = red_pairs_with_share(n, share, rng)
        col = _write(work, f"{idx}.okc", okc_text(n, lambda i, j: (i, j) in red))
        pat = _write(work, f"{idx}_K{k}.og", og_text(complete_pattern(k)))
        cli_seed = rng.randrange(1 << 30)
        jobs.append(
            {
                "name": f"sparse-set N={n} K{k} red share {share}",
                "cli": ["-q", "--seed", str(cli_seed), "sparse-set", col, pat, pat,
                        "--c", "1/10", "--alpha", "0.75"],
                "check": {"kind": "sparse-set", "coloring": col, "h1": pat, "h2": pat, "c": "1/10"},
            }
        )
    return jobs


def dense_skeleton_jobs(seed: int, work: Path) -> list[dict]:
    rng = seed_rng("dense-skeleton", seed)
    jobs = []
    for n in DENSE_ALL_BLUE:
        col = _write(work, f"blue{n}.okc", okc_text(n, lambda i, j: False))
        jobs.append(
            {
                "name": f"dense all-blue N={n} a=1",
                "lib": "find_skeleton_in_dense",
                "args": {"coloring": col, "seed": 0},
                "check": {"kind": "dense-skeleton", "coloring": col},
            }
        )
    for idx in range(DENSE_RANDOM):
        red = red_pairs_with_share(DENSE_RANDOM_N, DENSE_RANDOM_RED_SHARE, rng)
        col = _write(work, f"rand{idx}.okc",
                     okc_text(DENSE_RANDOM_N, lambda i, j: (i, j) in red))
        jobs.append(
            {
                "name": f"dense random N={DENSE_RANDOM_N} a=1",
                "lib": "find_skeleton_in_dense",
                "args": {"coloring": col, "seed": rng.randrange(1 << 30)},
                "check": {"kind": "dense-skeleton", "coloring": col},
            }
        )
    return jobs


def cli_mix_jobs(seed: int, work: Path) -> list[dict]:
    """Constructions, skeleton, search and embed; the verify jobs that follow
    each certificate are added by the worker once the certificate exists."""
    rng = seed_rng("cli-mix", seed)
    p = "{pass}"  # outputs: one set per pass
    jobs = [
        {
            "name": f"construct lowerbound {LOWERBOUND_N}",
            "cli": ["-q", "--seed", str(rng.randrange(1 << 20)), "construct", "lowerbound",
                    str(LOWERBOUND_N), "--out", p + "lb.trn"],
            "check": {"kind": "lowerbound", "out": p + "lb.trn", "n": LOWERBOUND_N},
        }
    ]
    sn = rng.randint(5, 8)
    jobs.append(
        {
            "name": "construct sn",
            "cli": ["-q", "construct", "sn", str(sn), "--out", p + "sn.dg"],
            "check": {"kind": "sn", "out": p + "sn.dg", "sidecar": p + "sn.triples.json", "n": sn},
        }
    )
    outer = random_tournament(BLOWUP_OUTER, rng)
    inner = random_tournament(BLOWUP_INNER, rng)
    fo = _write(work, "outer.trn", trn_text(BLOWUP_OUTER, outer))
    fi = _write(work, "inner.trn", trn_text(BLOWUP_INNER, inner))
    jobs.append(
        {
            "name": f"construct blowup {BLOWUP_OUTER}x{BLOWUP_INNER}",
            "cli": ["-q", "construct", "blowup", fo, fi, "--out", p + "blowup.trn"],
            "check": {"kind": "blowup", "out": p + "blowup.trn", "outer": fo, "inner": fi},
        }
    )
    jobs.append(
        {
            "name": f"contains_subdivision n={SUBDIVISION_BASE} in blowup",
            "lib": "contains_subdivision",
            "args": {"tournament": p + "blowup.trn", "n": SUBDIVISION_BASE,
                     "budget": SUBDIVISION_BUDGET},
            "check": {"kind": "subdivision", "tournament": p + "blowup.trn", "n": SUBDIVISION_BASE},
        }
    )
    host = _write(work, f"K{SKELETON_HOST_N}.og", og_text(complete_pattern(SKELETON_HOST_N)))
    jobs.append(
        {
            "name": f"skeleton K_{SKELETON_HOST_N} a=1",
            "cli": ["-q", "skeleton", host, "--a", "1"],
            "check": {"kind": "skeleton", "host": host},
        }
    )
    for idx in range(QUICK_JOBS):
        red = random_red_pairs(SEARCH_N, rng)
        col = _write(work, f"search{idx}.okc", okc_text(SEARCH_N, lambda i, j: (i, j) in red))
        h1 = _write(work, f"search{idx}_h1.og", og_text(random_pattern(rng)))
        h2 = _write(work, f"search{idx}_h2.og", og_text(random_pattern(rng)))
        jobs.append(
            {
                "name": f"search N={SEARCH_N}",
                "cli": ["-q", "--seed", str(rng.randrange(1 << 20)), "search", col, h1, h2],
                "check": {"kind": "search", "coloring": col, "h1": h1, "h2": h2},
            }
        )
        edges = [e for e in combinations(range(1, EMBED_HOST_N + 1), 2) if rng.random() < 0.3]
        ghost = _write(work, f"embed{idx}_host.og", og_text((EMBED_HOST_N, tuple(edges))))
        gpat = _write(work, f"embed{idx}_pattern.og", og_text(random_pattern(rng)))
        jobs.append(
            {
                "name": f"embed n={EMBED_HOST_N}",
                "cli": ["-q", "embed", ghost, gpat],
                "check": {"kind": "embed", "host": ghost, "pattern": gpat},
            }
        )
    return jobs


JOB_LISTS = {
    "exact": exact_jobs,
    "sparse-set": sparse_set_jobs,
    "dense-skeleton": dense_skeleton_jobs,
    "cli-mix": cli_mix_jobs,
}


def verify_job(source: dict, cert_file: str, stdout: str) -> dict | None:
    """The `ordramsey verify` job for a certificate a cli-mix job emitted,
    or None when the output is not a verifiable certificate."""
    check = source["check"]
    try:
        cert = json.loads(stdout)
    except json.JSONDecodeError:
        return None
    if not isinstance(cert, dict) or cert.get("kind") not in ("embedding", "skeleton"):
        return None
    if check["kind"] == "skeleton":
        host, pattern = check["host"], None
    elif check["kind"] == "embed":
        host, pattern = check["host"], check["pattern"]
    else:
        host = check["coloring"]
        pattern = check["h1"] if cert.get("color") == "red" else check["h2"]
    argv = ["-q", "verify", cert_file, host] + (["--pattern", pattern] if pattern else [])
    return {"name": f"verify {source['name']}", "cli": argv, "check": {"kind": "verify"}}
