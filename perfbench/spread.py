"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads sweep-uniform roc-fixed \
        --seeds 1 2 3 4 5 [--trace 0|1] [--out FILE]

For every workload and metric it prints the median over the runs and the
distance between the first and third quartiles (statistics.quantiles,
n=4) as a share of the median, next to the metric's bound from
BENCHMARK.json. --out FILE stores the medians and spreads in FILE under
"end_to_end" or "per_layer" (by --trace), keeping the other section; that
is how perfbench/baseline.json was made. Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{workload} seed {seed}: correct {runs[-1]['correct']}, "
                  f"{runs[-1]['failed']}/{runs[-1]['attempted']} failed",
                  file=sys.stderr)
        rows = {}
        for name, m in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            rows[name] = {"median": median, "unit": m["unit"],
                          "spread": (q3 - q1) / median if median else 0.0,
                          "values": values}
        summary[workload] = {
            "seeds": args.seeds,
            "all_correct": all(r["correct"] for r in runs),
            "metrics": rows,
        }
        print(f"{workload}: all correct {summary[workload]['all_correct']}")
        for name, row in rows.items():
            bound = bounds.get(name)
            print(f"  {name:40s} median {row['median']:<14.6g} {row['unit']:6s}"
                  f" spread {row['spread']:.4f}"
                  + (f" (bound {bound}, bound/3 {bound / 3:.4f})"
                     if bound else ""))
    if args.out:
        stored = json.loads(args.out.read_text()) if args.out.exists() else {}
        stored["per_layer" if args.trace else "end_to_end"] = summary
        args.out.write_text(json.dumps(stored, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
