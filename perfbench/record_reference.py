"""Record the analytic reference that every benchmark run checks against.

    python3 perfbench/record_reference.py

Runs each workload's request once on the checkout's uwauth and writes
perfbench/reference.json: the analytic columns of each sweep CSV (power,
threshold, p_fa_analytic, p_md_analytic), the ROC points, and the
packet-auth threshold. None of these depend on the seed. Record it only
at a commit whose outputs count as correct.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]
import workloads  # noqa: E402


def main() -> int:
    from uwauth import cli

    reference = {}
    for name in workloads.CLI_WORKLOADS:
        work = ROOT / ".perfbench" / "record" / name
        work.mkdir(parents=True, exist_ok=True)
        cfg = workloads.derive_config(ROOT, name, seed=0)
        (work / "config.json").write_text(json.dumps(cfg, indent=1))
        w = workloads.make(name, ROOT, work, seed=0)
        w.cli = cli
        if w.call() != 0:
            raise SystemExit(f"{name}: {w.stderr.getvalue()}")
        rows = w.parse(w.collect()[0])
        reference[name] = [row[:4] for row in rows]
    packet = workloads.PacketAuth(ROOT, seed=0)
    packet.setup()
    reference[packet.name] = {"threshold": packet.decision.threshold}
    entries = []
    for name, value in reference.items():
        if isinstance(value, list):
            value = "[\n" + ",\n".join(
                "  " + json.dumps(row) for row in value) + "\n ]"
        else:
            value = json.dumps(value)
        entries.append(f" {json.dumps(name)}: {value}")
    (HERE / "reference.json").write_text(
        "{\n" + ",\n".join(entries) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
