"""Run one workload's jobs in a fresh process: one client, closed loop.

Started by ``run.py`` with the work directory as its current directory and
the package's ``src`` on ``PYTHONPATH``.  The job list is drawn once (not
timed) and every pass repeats it; a job's latency covers only the call into
the package.  The process's peak RSS is therefore that of the jobs plus the
small inputs.  With ``--trace 1`` every pass runs twice, first untraced and
then traced, so the two outputs can be compared byte for byte.

Between passes, outside the timed region, the worker times fresh
interpreters importing ``ordramsey.cli`` (``setup_s``), so the set-up probes
are spread over the run like the passes.  Each job is bracketed by timings
of the reference loop (``reference.py``), and a row's ``ref_s`` is the mean
of the two; each probe times the loop itself, right after its import.  Results go to ``--out`` as JSON, the
spans of traced passes to ``--spans``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import ordramsey.cli
from ordramsey import certificates, constructions, kernels, skeleton
from ordramsey import io as formats
from ordramsey.core import Color

import reference
import tracing
import workloads


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _call_library(job: dict) -> tuple[int, str]:
    """The documented library calls the CLI does not reach; module attribute
    lookups at call time so installed spans see them."""
    args = job["args"]
    if job["lib"] == "find_skeleton_in_dense":
        coloring = formats.parse_okc(Path(args["coloring"]).read_text())
        res = skeleton.find_skeleton_in_dense(coloring, Color.RED, 1, Fraction(10), seed=args["seed"])
        if res.found:
            return 0, _dump(certificates.certificate_dict(res.skeleton, res.color))
        return 0, _dump({"kind": "exhausted", "trace": ["no skeleton in the dense coloring"]})
    tour = formats.parse_trn(Path(args["tournament"]).read_text())
    res = constructions.contains_subdivision(tour, args["n"], args["budget"])
    return 0, _dump(
        {
            "kind": "subdivision",
            "map": None if res.mapping is None else list(res.mapping),
            "nodes": res.nodes,
            "exhausted": res.exhausted,
        }
    )


def run_job(job: dict, tracer: tracing.Tracer | None, job_id: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    rc = None
    start = time.perf_counter()
    if tracer is not None:
        tracer.begin_job(job_id, start)
    try:
        if "cli" in job:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = ordramsey.cli.main(job["cli"])
        else:
            rc, text = _call_library(job)
            out.write(text)
    except SystemExit as exc:  # argparse rejects argv by exiting
        rc = exc.code if isinstance(exc.code, int) else 2
        error = f"SystemExit({exc.code})"
    except Exception:  # a raising job is a failed job, not a failed run
        error = traceback.format_exc(limit=8)
    end = time.perf_counter()
    if tracer is not None:
        tracer.end_job(end)
    stdout = out.getvalue()
    return {
        "id": job_id,
        "name": job["name"],
        "check": job["check"],
        "traced": tracer is not None,
        "latency_s": end - start,
        "rc": rc,
        "stdout": stdout,
        "stderr": err.getvalue()[-2000:],
        "error": error,
        "digest": hashlib.sha256(stdout.encode()).hexdigest(),
    }


SETUP_PROBES_PER_PASS = 4


# The probe reports when ordramsey.cli is imported (perf_counter reads the
# system-wide monotonic clock, so the two processes' readings compare), then
# times the reference loop in the same process: the probe may run on the
# other CPU than the worker, whose speed swings on its own.
PROBE = """import ordramsey.cli, time
ready = time.perf_counter()
import sys
sys.path.append({here!r})
import reference
print(ready, reference.measure())
"""


def setup_probe() -> dict:
    """A fresh interpreter importing ordramsey.cli: the time until it is
    ready for a job.  No timeout: with one, subprocess polls for the exit in
    steps of up to 50 ms."""
    code = PROBE.format(here=str(Path(__file__).resolve().parent))
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True).stdout
    ready, ref_s = map(float, out.split())
    return {"seconds": ready - start, "ref_s": ref_s}


def run_pass(workload: str, jobs: list[dict], pass_no: int, tracer) -> list[dict]:
    """One pass over the workload's jobs; cli-mix certificates are each
    followed by the `verify` job that re-checks them.  The reference loop
    runs before the first job and after every job."""
    work = Path.cwd()
    rows = []
    ref = reference.measure()

    def run(job):
        nonlocal ref
        row = run_job(job, tracer, f"p{pass_no}.j{len(rows)}")
        after = reference.measure()
        row["ref_s"] = (ref + after) / 2
        ref = after
        rows.append(row)
        return row

    for job in jobs:
        job = workloads.bind_pass(job, pass_no)
        row = run(job)
        if workload == "cli-mix" and row["rc"] == 0 and row["error"] is None:
            cert = f"p{pass_no}_j{len(rows) - 1}_cert.json"
            follow = workloads.verify_job(job, cert, row["stdout"])
            if follow is not None:
                (work / cert).write_text(row["stdout"])
                run(follow)
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    jobs = workloads.JOB_LISTS[args.workload](args.seed, Path.cwd())
    setup_probe()  # may write bytecode caches; not kept
    setup: list[dict] = []
    rows: list[dict] = []
    traced_spans: list[list] = []
    started = time.perf_counter()
    pass_no = 0
    while True:
        begun = time.perf_counter()
        rows += run_pass(args.workload, jobs, pass_no, None)
        if args.trace:
            tracer = tracing.Tracer().install()
            try:
                rows += run_pass(args.workload, jobs, pass_no, tracer)
            finally:
                tracer.uninstall()
            traced_spans.append(tracer.spans)
        setup += [setup_probe() for _ in range(SETUP_PROBES_PER_PASS)]
        now = time.perf_counter()
        if now - started + (now - begun) > args.seconds:
            break
        pass_no += 1

    result = {
        "implementation": kernels.IMPLEMENTATION,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_probes": setup,
        "rows": rows,
    }
    if args.trace:
        result["layers"] = tracing.median_layer_metrics(traced_spans)
        result["self_sums"] = [sum(tracing.self_times(spans)) for spans in traced_spans]
        result["min_self"] = min(
            (min(tracing.self_times(spans), default=0.0) for spans in traced_spans), default=0.0
        )
        if args.spans:
            Path(args.spans).write_text(json.dumps(
                {"fields": ["name", "start", "end", "parent", "job", "counts"],
                 "passes": traced_spans}))
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
