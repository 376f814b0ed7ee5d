"""Write a seeded stream of authenticated packets with the test statistic,
verdict and position estimate the program gives each, as the doubles it
computes.

Usage, from the root of the repository:

    PYTHONPATH=src python tools/packet_reference.py \
        > tests/data/baseline-packets.json

The stream follows the per-packet benchmark's recipe on
configs/baseline.json at 50 dB: half the packets come from the claimed
position and half from impersonators placed uniformly over the region,
with the range noise of the channel model. The threshold is the one
calibrated for a 1 % false-alarm rate and is written next to the packets,
so tests/test_authentication.py checks residual_vector, test_statistic,
decide, build_system and solve_position against this file bit for bit
without calibrating again.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from uwauth import (
    NoisySquaredDistances,
    build_system,
    calibrate_threshold,
    decide,
    distance_noise_variance,
    residual_vector,
    solve_position,
    test_statistic,
)
from uwauth.cli import _load_config, _scenario_from
from uwauth.localization import draw_squared_distances

CONFIG = "configs/baseline.json"
POWER_DB = 50.0
TARGET_PFA = 0.01
PACKETS = 200


def main() -> int:
    cfg = _load_config(str(Path(__file__).resolve().parents[1] / CONFIG))
    scenario = _scenario_from(cfg, power_db=POWER_DB)
    anchors, claim = scenario.anchors, scenario.alice
    decision = calibrate_threshold(scenario, TARGET_PFA)
    rng = np.random.default_rng(cfg["seed"])
    from_eve = rng.permutation(PACKETS) < PACKETS // 2
    half_region = np.asarray(scenario.region) / 2
    tx = np.where(from_eve[:, None],
                  rng.uniform(-half_region, half_region, size=(PACKETS, 2)),
                  claim)
    d = anchors.distances_to(tx)
    sigma = np.sqrt(distance_noise_variance(d, scenario.channel))
    observed = draw_squared_distances(d, sigma, rng, PACKETS)
    packets = []
    for k in range(PACKETS):
        pkt = NoisySquaredDistances(d[k], sigma[k], observed[k])
        ts = test_statistic(residual_vector(pkt, anchors, claim))
        position = solve_position(*build_system(anchors, pkt.observed_sq_m2))
        packets.append(json.dumps({
            "from_eve": bool(from_eve[k]),
            "observed_sq_m2": observed[k].tolist(),
            "ts": ts,
            "verdict": decide(ts, decision).name,
            "position": position.tolist(),
        }))
    head = json.dumps({"config": CONFIG, "power_db": POWER_DB,
                       "seed": cfg["seed"], "anchors": anchors.xy.tolist(),
                       "claim": claim.tolist(),
                       "threshold": decision.threshold})
    sys.stdout.write(head[:-1] + ', "packets": [\n'
                     + ",\n".join(packets) + "\n]}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
