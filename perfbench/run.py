#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

Run from the repository root.  The run

1. starts ``worker.py`` in a fresh process, which draws the workload's job
   list from the seed and repeats it in passes for about ``--seconds`` (see
   ``workloads.py``); between passes it times fresh interpreters importing
   ``ordramsey.cli``, the set-up every CLI invocation pays (``setup_s`` is
   their median);
2. checks every job's output with ``checks.py``, outside the timed region;
3. writes ``perfbench/results/<workload>-seed<seed>-trace<t>.json`` (run
   metadata, metrics and one row per job) and, when traced, the spans;
4. prints one JSON line: ``correct``, ``attempted``, ``failed`` and the
   end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

``wall_s`` is the median over passes of a pass's wall time (the sum of its
job latencies), ``job_p50_s`` the median latency over every job of the run,
``setup_s`` the median set-up probe, all three at reference speed (see
``reference.py``: every latency is scaled by the time of a fixed loop timed
beside it, so the machine's speed swings cancel); the raw figures are in
the results file under ``raw``.  ``peak_rss_mb`` is the worker's peak
resident set.

End-to-end metrics come from untraced runs only.  A traced run runs each
pass untraced and then traced, counts any stdout difference between the two
as a failure, checks that the self times of each traced pass add up to its
wall time, and reports the traced/untraced wall ratio as the tracing
overhead.  Jobs that raise, exit with a code that contradicts their output,
or fail their check are failed jobs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# a pass may overrun --seconds once, and a traced run runs every pass twice
WORKER_TIMEOUT_FACTOR, WORKER_TIMEOUT_MARGIN_S = 4, 60
# self times of a traced pass must add up to its wall time within this share
SELF_SUM_TOLERANCE = 1e-6


def package_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("ORDRAMSEY_PURE", None)
    return env


def commit_of(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def scaled(row: dict) -> float:
    return reference.scale(row["latency_s"], row["ref_s"])


def pass_walls(rows: list[dict], traced: bool) -> tuple[list[float], list[float]]:
    """Per pass, in pass order: (wall times at reference speed, raw wall times)."""
    walls: dict = {}
    for row in rows:
        if row["traced"] == traced:
            ent = walls.setdefault(row["id"].split(".")[0], [0.0, 0.0])
            ent[0] += scaled(row)
            ent[1] += row["latency_s"]
    return [w for w, _ in walls.values()], [r for _, r in walls.values()]


def summarize_jobs(rows: list[dict]) -> dict:
    """Per job name: runs, median latency (at reference speed and raw) and
    outcomes, untraced rows only."""
    jobs: dict = {}
    for row in rows:
        if row["traced"]:
            continue
        ent = jobs.setdefault(row["name"], {"runs": 0, "scaled": [], "raw": [], "outcomes": {}})
        ent["runs"] += 1
        ent["scaled"].append(scaled(row))
        ent["raw"].append(row["latency_s"])
        ent["outcomes"][row["outcome"]] = ent["outcomes"].get(row["outcome"], 0) + 1
    for ent in jobs.values():
        ent["median_s"] = statistics.median(ent.pop("scaled"))
        ent["raw_median_s"] = statistics.median(ent.pop("raw"))
    return jobs


def per_layer_units() -> dict:
    units = {}
    for name in [*tracing.LAYER_METRICS, "trace.overhead_ratio", "decided_share", "failed_share"]:
        stat = name.rsplit(".", 1)[-1]
        units[name] = "s" if stat.endswith("_s") else "bytes" if stat == "bytes" else (
            "ratio" if stat.endswith(("ratio", "share")) else "count")
    return units


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ordramsey" / "cli.py").is_file():
        print(f"error: {root} holds no src/ordramsey package; run from the repository root",
              file=sys.stderr)
        return 2
    results = root / "perfbench" / "results"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = results / f"work-{stem}-{os.getpid()}"
    work.mkdir(parents=True)
    env = package_env(root)
    try:
        out_file = work / "worker.json"
        spans_file = results / f"{stem}-spans.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(out_file)]
        if args.trace:
            cmd += ["--spans", str(spans_file)]
        timeout = WORKER_TIMEOUT_FACTOR * args.seconds + WORKER_TIMEOUT_MARGIN_S
        try:
            proc = subprocess.run(cmd, env=env, cwd=work, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"error: worker did not finish within {timeout:.0f} s", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(out_file.read_text())
        setup = res["setup_probes"]

        rows = res["rows"]
        walls, raw_walls = pass_walls(rows, traced=False)
        for row in rows:
            if row["error"] is not None:
                verdict = {"ok": False, "reason": row["error"].strip().splitlines()[-1],
                           "decided": False}
            else:
                verdict = checks.check_job(row["check"], row["rc"], row["stdout"], work)
            row["ok"], row["reason"], row["decided"] = verdict["ok"], verdict["reason"], verdict["decided"]
            if "upper_checked" in verdict:
                row["upper_checked"] = verdict["upper_checked"]
            try:
                row["outcome"] = json.loads(row["stdout"]).get("kind", "?")
            except (json.JSONDecodeError, AttributeError):
                row["outcome"] = "error"
            del row["stdout"]

        mismatched = []
        if args.trace:
            plain = {r["id"]: r["digest"] for r in rows if not r["traced"]}
            for row in rows:
                if row["traced"] and plain.get(row["id"]) != row["digest"]:
                    row["ok"] = False
                    row["reason"] = "traced stdout differs from the untraced stdout"
                    mismatched.append(row["id"])

        attempted = len(rows)
        failed = sum(1 for r in rows if not r["ok"])
        decided = sum(1 for r in rows if r["decided"])
        correct = failed == 0
        raw = {
            "wall_s": statistics.median(raw_walls),
            "job_p50_s": statistics.median(r["latency_s"] for r in rows if not r["traced"]),
            "setup_s": statistics.median(p["seconds"] for p in setup),
        }
        if args.trace:
            traced_walls, raw_traced_walls = pass_walls(rows, traced=True)
            sums_ok = all(abs(s - w) <= SELF_SUM_TOLERANCE * max(w, 1.0)
                          for s, w in zip(res["self_sums"], raw_traced_walls))
            correct = correct and sums_ok and res["min_self"] > -SELF_SUM_TOLERANCE
            values = dict(res["layers"])
            values["trace.overhead_ratio"] = statistics.median(
                t / u for t, u in zip(traced_walls, walls))
            values["decided_share"] = decided / attempted
            values["failed_share"] = failed / attempted
            units = per_layer_units()
        else:
            values = {
                "wall_s": statistics.median(walls),
                "job_p50_s": statistics.median(scaled(r) for r in rows),
                "peak_rss_mb": res["peak_rss_mb"],
                "setup_s": statistics.median(
                    reference.scale(p["seconds"], p["ref_s"]) for p in setup),
            }
            units = {"wall_s": "s", "job_p50_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

        record = {
            "meta": {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "commit": commit_of(root),
                "python": platform.python_version(),
                "implementation": res["implementation"],
                "nproc": os.cpu_count(),
            },
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "decided_share": decided / attempted,
            "failed_share": failed / attempted,
            "passes": len(walls),
            "pass_walls": walls,
            "metrics": metrics,
            "raw": raw,
            "raw_pass_walls": raw_walls,
            "setup_probes": setup,
            "trace_mismatches": mismatched,
            # exact jobs whose n_star was checked only as a lower bound (the
            # witness), for want of a known value
            "upper_unchecked": sum(1 for r in rows if r.get("upper_checked") is False),
            "jobs": summarize_jobs(rows),
            "rows": rows,
        }
        if args.trace:
            record["traced_walls"] = traced_walls
            record["self_sums"] = res["self_sums"]
            record["spans_file"] = str(spans_file.relative_to(root))
        (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
        for row in rows:
            if not row["ok"]:
                print(f"failed: {row['id']} {row['name']}: {row['reason']}", file=sys.stderr)
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
