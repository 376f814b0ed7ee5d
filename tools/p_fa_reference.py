"""Write the 40-digit false-alarm reference for the shipped fixed-Eve sweep,
or for its 101-point ROC.

Usage, from the root of the repository:

    python tools/p_fa_reference.py > tests/data/fixed-eve-p-fa-reference.csv
    python tools/p_fa_reference.py roc \
        > tests/data/fixed-eve-roc-101-p-fa-reference.csv

Only mpmath is used; nothing is imported from uwauth. The range-noise
variance is transcribed here from the channel model (Thorp absorption,
log-distance pathloss), and the thresholds are the ones printed in
tests/data/fixed-eve-sweep.csv, or for the ROC, which prints none, the
ones recorded in tests/data/fixed-eve-roc-101-thresholds.csv by
tools/roc_thresholds.py; each is taken as the double it denotes.

Method. With no impersonator the statistic is Q = sum_i (2 d_i sigma_i Z_i)^2
over the anchors at distances d_i from the claimed position. In the shipped
geometry the anchors (-500, +-500) are equidistant from Alice at the
origin, so Q = w1 X1 + w2 X2 with X1 ~ chi^2_1 (the anchor at (0, 500)),
X2 ~ chi^2_2 and w = 4 d^2 sigma^2. X2 is exponential with mean 2, so
conditioning on it gives

    P(Q > x) = e^(-x / 2 w2) + int_0^(x / w2) 1/2 e^(-y / 2)
                                  erfc(sqrt((x - w2 y) / 2 w1)) dy,

integrated here in s = sqrt((x - w2 y) / 2 w1), where the integrand
s e^(r s^2) erfc(s), r = w1 / w2 < 1, is smooth and falls off on a scale
of one, on panels split at s = 1, 2, 4, ..., 32. Integrating by parts
gives the closed form

    P(Q > x) = erfc(sqrt(x / 2 w1))
               + e^(-x / 2 w2) sqrt(w2 / (w2 - w1))
                 erf(sqrt(x (w2 - w1) / (2 w1 w2))),

a sum of positive terms; each value written is the quadrature, and the
script stops unless the closed form agrees with it to 1e-45 relative.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import mpmath as mp

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "fixed-eve.json"
SWEEP = ROOT / "tests" / "data" / "fixed-eve-sweep.csv"
ROC = ROOT / "tests" / "data" / "fixed-eve-roc-101-thresholds.csv"
DIGITS = 40
METHOD = "w1 chi2_1 + w2 chi2_2: quadrature = closed form"


def noise_variance(d, power_db, channel):
    """Range-noise variance (m^2) at distance d (m): c^2 10^(PL / 10)
    / (4 10^(P / 10) G), PL = k 10 log10 d + (d / 1000) alpha(f)."""
    f2 = mp.mpf(channel["frequency_khz"]) ** 2
    alpha = (mp.mpf("0.11") * f2 / (1 + f2) + 44 * f2 / (4100 + f2)
             + mp.mpf("2.75e-4") * f2 + mp.mpf("0.003"))
    pl = (mp.mpf(channel["spreading_factor"]) * 10 * mp.log10(d)
          + d / 1000 * alpha)
    c = mp.mpf(channel["sound_speed_mps"])
    return (c * c * mp.power(10, pl / 10)
            / (4 * mp.power(10, mp.mpf(power_db) / 10)
               * mp.mpf(channel["signal_design_gain"])))


def weights(cfg, power_db):
    """w1 for the anchor at (0, 500) and w2 for the pair at (-500, +-500)."""
    alice = [mp.mpf(v) for v in cfg["alice"]]
    d = [mp.sqrt((mp.mpf(x) - alice[0]) ** 2 + (mp.mpf(y) - alice[1]) ** 2)
         for x, y in cfg["anchors"]]
    if not d[1] == d[2] > d[0]:
        raise SystemExit(f"{CONFIG}: not the two-weight geometry")
    return [4 * di * di * noise_variance(di, power_db, cfg["channel"])
            for di in (d[0], d[1])]


def false_alarm(x, w1, w2):
    """P(w1 chi^2_1 + w2 chi^2_2 > x) for x > 0, by quadrature, checked
    against the closed form."""
    r, top = w1 / w2, mp.sqrt(x / (2 * w1))
    cuts = [s for s in (1, 2, 4, 8, 16, 32) if s < top]
    integral = mp.quad(lambda s: s * mp.exp(r * s * s) * mp.erfc(s),
                       [0, *cuts, top])
    p = mp.exp(-x / (2 * w2)) * (1 + 2 * r * integral)
    closed = mp.erfc(top) + (mp.exp(-x / (2 * w2)) * mp.sqrt(w2 / (w2 - w1))
                             * mp.erf(mp.sqrt(x * (w2 - w1) / (2 * w1 * w2))))
    if not abs(p - closed) <= mp.mpf("1e-45") * closed:
        raise SystemExit(f"quadrature and closed form disagree at x = {x}")
    return p


def main(argv: list[str]) -> int:
    if argv not in ([], ["roc"]):
        raise SystemExit("usage: p_fa_reference.py [roc]")
    source, keys = (ROC, ["power_db", "target", "threshold"]) if argv else (
        SWEEP, ["power_db", "threshold"])
    mp.mp.dps = DIGITS + 10
    cfg = json.loads(CONFIG.read_text())
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow([*keys, "p_fa", "digits", "method"])
    with source.open() as fh:
        for row in csv.DictReader(fh):
            w1, w2 = weights(cfg, float(row["power_db"]))
            x = mp.mpf(float(row["threshold"]))
            p = false_alarm(x, w1, w2)
            out.writerow([*(row[k] for k in keys),
                          mp.nstr(p, DIGITS, min_fixed=1, max_fixed=0),
                          DIGITS, METHOD])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
