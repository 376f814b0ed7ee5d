"""Printed false-alarm rates against an independent 40-digit reference.

tests/data/fixed-eve-p-fa-reference.csv is written by
tools/p_fa_reference.py with mpmath alone, from the fixed-Eve config and
the thresholds recorded in tests/data/fixed-eve-sweep.csv; that script
states the method. No mpmath runs here.
"""

import csv
from pathlib import Path

import pytest

from uwauth.cli import main

ROOT = Path(__file__).resolve().parents[1]


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
    reference = read_csv(ROOT / "tests" / "data"
                         / "fixed-eve-p-fa-reference.csv")
    assert len(printed) == len(reference)
    # Worst (relative, absolute) error of cells printed as exactly 0 or 1,
    # and of the rest, which the Laplace inversion produced.
    worst = {"saturated": (0.0, 0.0), "inverted": (0.0, 0.0)}
    for row, ref in zip(printed, reference):
        assert (row["power_db"], row["threshold"]) == (
            ref["power_db"], ref["threshold"])
        got, want = float(row["p_fa_analytic"]), float(ref["p_fa"])
        gap = abs(got - want)
        assert gap <= 1e-6, (row, ref)
        if got == 0.0:
            # A printed 0 stands for a tail certified below 1e-14.
            assert want < 1e-14, (row, ref)
        regime = "saturated" if got in (0.0, 1.0) else "inverted"
        rel = gap / want if want > 0.0 else 0.0
        worst[regime] = max(worst[regime], (rel, gap))
    print(f"p_fa against the reference ({config}): " + ", ".join(
        f"{regime} worst relative error {rel:.2e} (absolute {gap:.2e})"
        for regime, (rel, gap) in worst.items()))
