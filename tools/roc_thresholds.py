"""Write the thresholds `uwauth roc configs/fixed-eve.json --points 101`
calibrates, as the doubles the program computes.

Usage, from the root of the repository:

    PYTHONPATH=src python tools/roc_thresholds.py \
        > tests/data/fixed-eve-roc-101-thresholds.csv

The ROC CSV prints no thresholds, so tools/p_fa_reference.py reads them
from this file, and tests/test_reference_values.py checks that the
program still calibrates exactly these.
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

import numpy as np

from uwauth import calibrate_threshold
from uwauth.cli import _load_config, _pick_power, _scenario_from

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "fixed-eve.json"
POINTS = 101


def main() -> int:
    cfg = _load_config(str(CONFIG))
    power = _pick_power(cfg, None)
    # The false-alarm targets of roc_curve.
    targets = np.linspace(1e-6, 1.0 - 1e-6, POINTS)
    configs = calibrate_threshold(_scenario_from(cfg, power_db=power), targets)
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(["power_db", "target", "threshold"])
    for target, config in zip(targets, configs):
        out.writerow([power, repr(float(target)), repr(config.threshold)])
    return 0


if __name__ == "__main__":
    sys.exit(main())
