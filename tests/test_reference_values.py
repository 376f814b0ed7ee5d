"""Printed false-alarm rates against an independent 40-digit reference.

tests/data/fixed-eve-p-fa-reference.csv is written by
tools/p_fa_reference.py with mpmath alone, from the fixed-Eve config and
the thresholds recorded in tests/data/fixed-eve-sweep.csv; that script
states the method. tests/data/fixed-eve-roc-101-p-fa-reference.csv is
written the same way at the 101 ROC thresholds that
tools/roc_thresholds.py records in tests/data/fixed-eve-roc-101-thresholds.csv.
No mpmath runs here.
"""

import csv
import io
from pathlib import Path

import numpy as np
import pytest

from uwauth import calibrate_threshold
from uwauth.cli import _load_config, _scenario_from, main

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# Both shipped configs give the legitimate node the same form and the same
# thresholds, so one reference serves both sweeps.
@pytest.mark.parametrize("config", ["fixed-eve.json", "baseline.json"])
def test_printed_false_alarm_rates_meet_their_bound(tmp_path, config):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(ROOT / "configs" / config),
                 "--out", str(out)]) == 0
    printed = read_csv(out)
    reference = read_csv(DATA / "fixed-eve-p-fa-reference.csv")
    assert len(printed) == len(reference)
    # Worst relative and worst absolute error of cells printed as exactly
    # 0 or 1, and of the rest, which the Laplace inversion produced.
    worst = {"saturated": (0.0, 0.0), "inverted": (0.0, 0.0)}
    for row, ref in zip(printed, reference):
        assert (row["power_db"], row["threshold"]) == (
            ref["power_db"], ref["threshold"])
        got, want = float(row["p_fa_analytic"]), float(ref["p_fa"])
        gap = abs(got - want)
        regime = "saturated" if got in (0.0, 1.0) else "inverted"
        # An inverted cell is held to the far-tail floor that the quadform
        # module states, 3e-12 absolute.
        assert gap <= (1e-6 if regime == "saturated" else 3e-12), (row, ref)
        if got == 0.0:
            # A printed 0 stands for a tail certified below 1e-14.
            assert want < 1e-14, (row, ref)
        rel = gap / want if want > 0.0 else 0.0
        worst[regime] = (max(worst[regime][0], rel),
                         max(worst[regime][1], gap))
    print(f"p_fa against the reference ({config}): " + ", ".join(
        f"{regime} worst relative error {rel:.2e}, absolute {gap:.2e}"
        for regime, (rel, gap) in worst.items()))


def test_printed_roc_false_alarm_rates_meet_their_targets(capsys):
    thresholds = read_csv(DATA / "fixed-eve-roc-101-thresholds.csv")
    reference = read_csv(DATA / "fixed-eve-roc-101-p-fa-reference.csv")
    assert [(r["power_db"], r["target"], r["threshold"]) for r in reference] \
        == [(r["power_db"], r["target"], r["threshold"]) for r in thresholds]
    # The recorded thresholds are the ones the program calibrates.
    (power,) = {float(r["power_db"]) for r in thresholds}
    config = str(ROOT / "configs" / "fixed-eve.json")
    scen = _scenario_from(_load_config(config), power_db=power)
    targets = np.array([float(r["target"]) for r in thresholds])
    assert [c.threshold for c in calibrate_threshold(scen, targets)] == [
        float(r["threshold"]) for r in thresholds]
    assert main(["roc", config, "--points", str(len(thresholds))]) == 0
    printed = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(printed) == len(reference)
    want = np.array([float(r["p_fa"]) for r in reference])
    got = np.array([float(r["p_fa"]) for r in printed])
    # The program's p_fa against the reference at the same threshold, and
    # the reference against the target the threshold was calibrated to.
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.max(np.abs(want - targets)) <= 5e-12
    print(f"ROC p_fa: worst error {np.max(np.abs(got - want)):.2e} against "
          f"the reference, which is off its targets by at most "
          f"{np.max(np.abs(want - targets)):.2e}")
