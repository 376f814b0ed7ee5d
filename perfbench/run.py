"""uwauth benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; uwauth is imported from its src/
directory. The workloads, their reasons and the metrics (names, units,
bounds) are listed in BENCHMARK.json at the checkout root; perfbench/
README.md maps each per-layer metric to the end-to-end metric it moves.

Each run measures in a fresh interpreter with BLAS/OpenMP threads capped
at nproc. --trace 0 reports the end-to-end metrics: set-up is timed in
that interpreter and in SETUP_PROBES more. --trace 1 reports the
per-layer metrics from a run whose second half wraps the program's entry
points in spans (see spans.py). Every run checks the program's outputs.

The human-readable report, with the environment, goes to stderr and to
.perfbench/<workload>/; the last line of stdout is one JSON object with
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
REQUIRED = ("BENCHMARK.json", "src/uwauth/__init__.py",
            "configs/baseline.json", "configs/fixed-eve.json")

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a uwauth checkout, missing {missing}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    work = ROOT / ".perfbench" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    if args.workload in workloads.CLI_WORKLOADS:
        cfg = workloads.derive_config(ROOT, args.workload, args.seed)
        (work / "config.json").write_text(json.dumps(cfg, indent=1))
    nproc = workloads.nproc()
    env = dict(os.environ, **workloads.thread_caps(nproc))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    child = [sys.executable, str(HERE / "child.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--root", str(ROOT), "--work", str(work)]
    load_before = os.getloadavg()

    result_path = work / "child.json"
    result_path.unlink(missing_ok=True)
    before = workloads.host_probe()
    spawned = time.monotonic()
    proc = subprocess.run(child + ["--result", str(result_path)], env=env,
                          capture_output=True, text=True,
                          timeout=args.seconds + 100)
    if proc.returncode != 0 or not result_path.is_file():
        print(f"perfbench: measuring interpreter failed (exit "
              f"{proc.returncode}):\n{proc.stderr[-2000:]}", file=sys.stderr)
        return 1
    res = json.loads(result_path.read_text())
    if not res["wall"]:
        print("perfbench: every request failed:\n" + "\n".join(res["errors"]),
              file=sys.stderr)
        return 1
    # (set-up seconds, mean of the host probes just before the spawn and
    # just after set-up)
    setups = [(res["setup_done"] - spawned,
               0.5 * (before + res["setup_probe"]))]
    if not args.trace:
        for _ in range(SETUP_PROBES):
            before = workloads.host_probe()
            spawned = time.monotonic()
            proc = subprocess.run(child + ["--setup-only"], env=env,
                                  capture_output=True, text=True, timeout=30,
                                  check=True)
            done = json.loads(proc.stdout)
            setups.append((done["setup_done"] - spawned,
                           0.5 * (before + done["probe"])))

    if args.trace:
        values = res["per_layer"]
        samples = {m["name"]: "traced half" for m in metrics}
    else:
        # Times are scaled to the host's uncontended speed by the probe run
        # next to each sample (workloads.host_probe).
        nominal = workloads.PROBE_NOMINAL_S
        speed = res["speed"]
        values = {
            "wall_s": statistics.median(
                t * f for t, f in zip(res["wall"], speed)),
            "setup_s": statistics.median(t * nominal / p for t, p in setups),
            "peak_rss_mb": res["rss_kb"] / 1024.0,
            "op_p50_us": statistics.median(
                p50 * f for (p50, _), f in zip(res["op_us"], speed)),
            "op_p99_us": statistics.median(
                p99 * f for (_, p99), f in zip(res["op_us"], speed)),
        }
        requests = f"median of {len(res['wall'])} requests"
        samples = {"wall_s": requests, "setup_s": f"median of {len(setups)}",
                   "peak_rss_mb": "1 process",
                   "op_p50_us": f"{requests} x {res['ops']} ops",
                   "op_p99_us": f"{requests} x {res['ops']} ops"}
    out = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
           for m in metrics}
    verdict = {"correct": res["failed"] == 0, "attempted": res["attempted"],
               "failed": res["failed"], "metrics": out}

    report = {
        "workload": args.workload, "why": why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "env": dict(res["env"], nproc=nproc,
                    loadavg_before=load_before, loadavg_after=os.getloadavg(),
                    thread_caps=workloads.thread_caps(nproc)),
        "samples": samples, "raw_wall_samples_s": res["wall"],
        "speed_factors": res["speed"], "raw_op_us_samples": res["op_us"],
        "raw_setup_samples_s_and_probe_s": setups,
        "error_rate": res["failed"] / res["attempted"],
        "errors": res["errors"], **verdict,
    }
    (work / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    print_report(report, metrics)
    print(json.dumps(verdict))
    return 0


def print_report(report: dict, metrics: list) -> None:
    env = report["env"]
    lines = [
        f"workload {report['workload']} (seed {report['seed']}, "
        f"{report['seconds']:g} s, trace {report['trace']}): {report['why']}",
        f"env: nproc {env['nproc']}, python {env['python']}, numpy "
        f"{env['numpy']}, scipy {env['scipy']}, uwauth {env['uwauth']}, "
        f"loadavg {env['loadavg_before'][0]:.2f} -> "
        f"{env['loadavg_after'][0]:.2f}; BLAS/OpenMP threads capped at "
        f"{env['nproc']} (OMP/OPENBLAS/MKL_NUM_THREADS)",
        f"correct {report['correct']}: {report['failed']} of "
        f"{report['attempted']} operations failed, error_rate "
        f"{report['error_rate']:.6g}",
    ]
    for m in metrics:
        v = report["metrics"][m["name"]]["value"]
        lines.append(f"  {m['name']:40s} {v:>16.6g} {m['unit']:8s} "
                     f"({report['samples'][m['name']]})")
    for e in report["errors"][:5]:
        lines.append(f"  error: {e}")
    print("\n".join(lines), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
