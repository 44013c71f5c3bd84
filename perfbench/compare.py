#!/usr/bin/env python3
"""Compare two results files of the same workload and seed.

    python3 perfbench/compare.py OLD.json NEW.json

Refuses (exit 2) runs whose workload, seed, trace setting or kernel
implementation differ.  Prints each metric's change and flags end-to-end
metrics that got worse by more than their bound in BENCHMARK.json.  Prints
the runs' ``decided_share`` and ``failed_share`` too, and flags any drop of
the one or rise of the other: a change that trades decisions for speed is
no gain.  Lists
jobs whose stdout digest changed; a changed digest is reported, not gated.
One pair of runs proves nothing about speed: a claimed gain needs the
repeated, alternated runs the benchmark's bounds were set from.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

GUARDED = ("workload", "seed", "trace", "implementation")
# outcome shares of every run, untraced too: +1 when higher is better
SHARES = {"decided_share": 1, "failed_share": -1}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text()) for p in argv)
    for key in GUARDED:
        if old["meta"][key] != new["meta"][key]:
            print(f"refused: {key} differs ({old['meta'][key]!r} vs {new['meta'][key]!r})",
                  file=sys.stderr)
            return 2
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"{old['meta']['commit']} -> {new['meta']['commit']}  "
          f"({old['meta']['workload']}, seed {old['meta']['seed']})")
    for name, m in old["metrics"].items():
        a, b = m["value"], new["metrics"][name]["value"]
        change = (b - a) / a if a else 0.0
        flag = ""
        if name in bounds:
            worse = change if bounds[name]["better"] == "lower" else -change
            if worse > bounds[name]["bound"]:
                flag = f"  worse than bound {bounds[name]['bound']}"
        print(f"  {name:<48} {a:>12.5g} -> {b:<12.5g} {m['unit']:<6} {change:+.1%}{flag}")
    for name, better in SHARES.items():
        a, b = old[name], new[name]
        flag = "  worse" if (b - a) * better < 0 else ""
        print(f"  {name:<48} {a:>12.5g} -> {b:<12.5g} {'ratio':<6}{flag}")
    before = {r["id"]: r["digest"] for r in old["rows"] if not r["traced"]}
    changed = [r["id"] + " " + r["name"] for r in new["rows"]
               if not r["traced"] and r["id"] in before and before[r["id"]] != r["digest"]]
    print(f"stdout digests changed on {len(changed)} of {len(before)} jobs")
    for line in changed:
        print(f"  {line}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
