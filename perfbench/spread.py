#!/usr/bin/env python3
"""Runs the benchmark once per seed on each workload and reports, for every
end-to-end metric, its median and quartile spread (the distance between the
first and third quartile as a share of the median) next to its bound.

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--out FILE]

Run from the repository root. Each run is the command in BENCHMARK.json with
the contract's arguments; the summary (and every run's full report) is
written as JSON to --out, default perfbench/out/spread.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out", default=os.path.join("perfbench", "out", "spread.json"))
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    summary = {"seeds": seeds(args.seeds), "workloads": {}}
    ok = True
    for w in workloads:
        results, reports = [], []
        for s in summary["seeds"]:
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(s),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.exit(f"{w} seed {s}: exit {proc.returncode}\n{proc.stderr}")
            results.append(json.loads(lines[-1]))
            reports.append(json.loads(lines[-2]))
            print(f"{w} seed {s}: correct={results[-1]['correct']}", file=sys.stderr)
        rows = {}
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = bounds[name]
            rows[name] = {"median": med, "q1": q[0], "q3": q[2], "spread": spread,
                          "bound": bound, "values": vals}
            if name != "setup_s" and spread > bound:
                ok = False
        summary["workloads"][w] = {
            "correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "identity": reports[0]["identity"],
            "metrics": rows,
        }
        ok = ok and summary["workloads"][w]["correct"]
        for name, row in rows.items():
            print(f"{w:22s} {name:24s} median {row['median']:.6g} "
                  f"spread {row['spread']:.4f} bound {row['bound']}")

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(summary, f, indent=1)
        f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
