#!/usr/bin/env python3
"""Run every workload once and print its end-to-end metrics with units.

    python3 perfbench/summary.py [--seed 1] [--seconds 20] [--trace]

Run from the repository root.  Besides the four end-to-end metrics it prints
``decided_share`` and ``failed_share`` of each run and the median latency of
each job, from which the ROADMAP baseline rows (C4x,K3, all-blue N=50,
lowerbound) can be read.  Times are at reference speed (see
``reference.py``), with the raw figures beside them.  ``--trace`` adds a
traced run per workload and prints its tracing overhead and its five layers
with the most self time.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                    str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                   check=True, stdout=subprocess.DEVNULL)
    return json.loads((HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def main(argv=None) -> int:
    default_seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=default_seconds)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    for workload in workloads.WORKLOADS:
        rec = run(workload, args.seed, args.seconds, 0)
        print(f"== {workload} (seed {args.seed}, {rec['passes']} passes, "
              f"{rec['attempted']} jobs, correct={rec['correct']})")
        for name, m in rec["metrics"].items():
            raw = f"  (raw {rec['raw'][name]:.4f})" if name in rec["raw"] else ""
            print(f"  {name:<14} {m['value']:>12.4f} {m['unit']}{raw}")
        print(f"  {'decided_share':<14} {rec['decided_share']:>12.4f} ratio")
        print(f"  {'failed_share':<14} {rec['failed_share']:>12.4f} ratio")
        if rec["upper_unchecked"]:
            print(f"  n_star upper bound unchecked on {rec['upper_unchecked']} jobs (witness checked)")
        for name, job in rec["jobs"].items():
            print(f"    {job['median_s']:>9.4f} s (raw {job['raw_median_s']:.4f})  x{job['runs']:<3} "
                  f"{name}  {job['outcomes']}")
        if args.trace:
            traced = run(workload, args.seed, args.seconds, 1)
            layers = traced["metrics"]
            print(f"  tracing overhead {layers['trace.overhead_ratio']['value']:.3f}x "
                  f"(traced/untraced wall), correct={traced['correct']}")
            selfs = sorted(((m["value"], n) for n, m in layers.items() if n.endswith(".self_s")),
                           reverse=True)[:5]
            for value, name in selfs:
                print(f"    {value:>9.4f} s  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
