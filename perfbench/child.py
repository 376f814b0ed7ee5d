"""One fresh interpreter of a benchmark run.

With --setup-only it performs the workload's set-up, prints the monotonic
clock reading at which set-up finished, and exits; run.py spawns several
of these to time set-up. Otherwise it also measures requests for the
given number of seconds and writes its findings as JSON to --result.
With --trace 1 the window is split: the first half is untraced (the
reference for the tracing overhead), the second half runs with spans.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    w = workloads.make(args.workload, args.root, args.work, args.seed)
    w.setup()
    setup_done = time.monotonic()
    probe = workloads.host_probe()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done, "probe": probe}))
        return 0
    result = measure(w, args)
    result.update(setup_done=setup_done, setup_probe=probe)
    args.result.write_text(json.dumps(result))
    return 0


def measure(w, args) -> dict:
    import numpy as np
    import scipy
    import uwauth

    if not Path(uwauth.__file__).resolve().is_relative_to(args.root / "src"):
        raise SystemExit(f"uwauth imported from {uwauth.__file__}, "
                         f"not from the checkout")
    packet = isinstance(w, workloads.PacketAuth)
    if packet:
        w.generate()
    window = args.seconds / 2 if args.trace else args.seconds
    untraced = run_window(w, window)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "uwauth": uwauth.__version__,
        },
        "rss_kb": rss_kb,
    }
    runs = [untraced]
    if args.trace:
        import spans

        rec = spans.Recorder()
        undo = spans.install(rec)
        try:
            if packet:
                w.calibrate()
            requests_from = len(rec)
            traced = run_window(w, window)
        finally:
            spans.uninstall(undo)
        rec.save(args.work / "spans.npz")
        runs.append(traced)
        layers = spans.summarize(rec, requests_from, len(traced["wall"]))
        layers["trace.overhead_frac"] = (
            statistics.median(traced["scaled"])
            / statistics.median(untraced["scaled"]) - 1.0)
        layers["authentication.simulate.parallel_eff"] = parallel_eff(w)
        layers["cli.bytes_out"] = untraced["bytes_out"]
        result["per_layer"] = layers

    failed = sum(r["failed"] for r in runs)
    if packet and not w.threshold_ok():
        failed = sum(r["attempted"] for r in runs)
    result.update(
        wall=untraced["wall"],
        speed=untraced["speed"],
        op_us=untraced["op_us"],
        ops=w.ops,
        attempted=sum(r["attempted"] for r in runs),
        failed=failed,
        errors=[e for r in runs for e in r["errors"]],
    )
    return result


def run_window(w, seconds: float) -> dict:
    """Issue requests back to back until the next one would end past the
    window (at least one). A host probe runs between requests, and a
    request's speed factor is the nominal probe time over the mean of the
    probes on either side. Each output is checked, untimed, and dropped
    before the next request, so memory does not grow with the count."""
    import numpy as np

    walls, speeds, op_us, errors = [], [], [], []
    bytes_out = 0
    failed = 0
    end = time.monotonic() + seconds
    probe = workloads.host_probe()
    while True:
        t0 = time.perf_counter()
        got = w.call()
        wall = time.perf_counter() - t0
        after = workloads.host_probe()
        speed = workloads.PROBE_NOMINAL_S / (0.5 * (probe + after))
        probe = after
        if isinstance(w, workloads.PacketAuth):
            lat, out = got
            op_us.append([float(v) for v in np.percentile(lat, [50, 99]) * 1e-3])
        elif got == 0:
            out, bytes_out = w.collect()
            op_us.append([wall * 1e6 / w.ops] * 2)
        else:
            failed += w.ops
            errors.append(f"exit {got}: {w.stderr.getvalue()[-400:]}")
            out = None
        if out is not None:
            walls.append(wall)
            speeds.append(speed)
            failed += w.failed_ops(out)
        if time.monotonic() + statistics.median(walls or [wall]) > end:
            break
    attempted = w.ops * (len(walls) + len(errors))
    return {
        "wall": walls,
        "speed": speeds,
        "scaled": [t * f for t, f in zip(walls, speeds)],
        "op_us": op_us,
        "attempted": attempted,
        "failed": failed,
        "bytes_out": bytes_out,
        "errors": errors,
    }


def parallel_eff(w) -> float:
    """1-worker over 2 x 2-worker Monte Carlo time on the sweep's scenario
    at its middle grid power, with PARALLEL_EFF_TRIALS trials (the sweep's
    own 2000 trials fill a single block, which one thread runs); 0 for
    workloads without Monte Carlo."""
    if not isinstance(w, workloads.CliSweep):
        return 0.0
    import numpy as np
    from uwauth import AnchorArray, ChannelParams, Scenario
    from uwauth.authentication import simulate_test_statistics

    cfg = w.cfg
    start, stop, step = cfg["sweep"]["power_db"]
    grid = np.arange(start, stop + step / 2.0, step)
    mid = len(grid) // 2
    uniform = cfg["eve"] == "uniform"
    scen = Scenario(
        anchors=AnchorArray(np.asarray(cfg["anchors"], float)),
        alice=np.asarray(cfg["alice"], float),
        eve=None if uniform else np.asarray(cfg["eve"], float),
        channel=ChannelParams(transmit_power_db=float(grid[mid]),
                              **cfg["channel"]),
        region=(cfg["region"]["width_m"], cfg["region"]["height_m"]))
    times = {1: [], 2: []}
    for _ in range(3):
        for workers in (1, 2):
            t0 = time.perf_counter()
            simulate_test_statistics(
                scen, workloads.PARALLEL_EFF_TRIALS, (cfg["seed"], mid),
                eve_mode="uniform" if uniform else "fixed", workers=workers)
            times[workers].append(time.perf_counter() - t0)
    return statistics.median(times[1]) / (2.0 * statistics.median(times[2]))


if __name__ == "__main__":
    sys.exit(main())
