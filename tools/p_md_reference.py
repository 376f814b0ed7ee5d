"""Write the 40-digit miss-rate reference for the shipped fixed-Eve sweep.

Usage, from the root of the repository:

    python tools/p_md_reference.py > tests/data/fixed-eve-p-md-reference.csv

Only mpmath is used; nothing is imported from uwauth. The range-noise
variance is the channel model's transcription in tools/p_fa_reference.py,
and the thresholds are the ones printed in tests/data/fixed-eve-sweep.csv,
each taken as the double it denotes.

Method. With the impersonator at distances d_j from the anchors, and the
claim at distances c_j, the statistic is Q = sum_j (2 d_j sigma_j Z_j +
d_j^2 - c_j^2)^2 = sum_j w_j chi^2_1(lam_j), with w_j = 4 d_j^2 sigma_j^2
and lam_j = (d_j^2 - c_j^2)^2 / w_j. Ruben's positive series (Ann. Math.
Statist. 33:542, 1962; recurrences as in Farebrother's AS 204, Appl.
Statist. 33:332, 1984) gives

    P(Q <= x) = sum_k a_k P(chi^2_(L + 2k) <= x / b),  b = min w,

    a_0 = e^(-sum lam / 2) prod sqrt(b / w_j),
    a_k = 1 / (2k) sum_(r < k) g_(k - r) a_r,
    g_k = sum_j (1 - b / w_j)^k + k b sum_j (lam_j / w_j) (1 - b / w_j)^(k - 1),

with every a_k >= 0 and sum a_k = 1. The chi-square CDF falls with its
degrees of freedom, so the terms after a_K add at most (1 - sum_(k <= K)
a_k) P(chi^2_(L + 2K + 2) <= x / b); the sum stops once that is below
1e-45 of the sum so far, and a cell that needs more than TERMS terms is
not summed. For such a cell the script writes the Chernoff bound
P(Q <= x) <= exp(K(t) - t x), t < 0, with K the cumulant generating
function, at the cell's own saddle point K'(t) = x, to 50 digits and
rounded up. Before any cell, the series is checked against closed forms:
two unit chi^2_1 terms, whose CDF is 1 - e^(-x / 2); one noncentral term,
Phi(sqrt x - sqrt lam) - Phi(-sqrt x - sqrt lam); and chi^2_1 + 2 chi^2_2,
the closed form of tools/p_fa_reference.py.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import mpmath as mp

from p_fa_reference import CONFIG, SWEEP, noise_variance

DIGITS = 40
BOUND_DIGITS = 50
# Terms summed at most per cell. The shipped cells up to 25 dB need at
# most 92; from 30 dB on, a cell gets its Chernoff bound instead.
TERMS = 200
SERIES = "Ruben series"
BOUND = "Chernoff bound at the saddle point"


def form(cfg, power_db):
    """Weights w and noncentralities lam of Q under the impersonator."""
    def distances(point):
        px, py = (mp.mpf(v) for v in point)
        return [mp.sqrt((mp.mpf(x) - px) ** 2 + (mp.mpf(y) - py) ** 2)
                for x, y in cfg["anchors"]]

    d, c = distances(cfg["eve"]), distances(cfg["alice"])
    w = [4 * dj * dj * noise_variance(dj, power_db, cfg["channel"])
         for dj in d]
    return w, [(dj * dj - cj * cj) ** 2 / wj for dj, cj, wj in zip(d, c, w)]


def ruben(x, w, lam):
    """P(Q <= x) and the number of terms summed, or None past TERMS."""
    b = min(w)
    gamma = [1 - b / wj for wj in w]
    a = [mp.exp(-mp.fsum(lam) / 2) * mp.fprod(mp.sqrt(b / wj) for wj in w)]
    g = [None]
    half_y, half_dof = x / b / 2, mp.mpf(len(w)) / 2
    cdf = mp.gammainc(half_dof, 0, half_y, regularized=True)
    total, mass = a[0] * cdf, a[0]
    for k in range(1, TERMS + 1):
        # P(chi^2_(L + 2k) <= x / b), the next term's and the rest's bound.
        cdf = mp.gammainc(half_dof + k, 0, half_y, regularized=True)
        if (1 - mass) * cdf <= mp.mpf("1e-45") * total:
            return total, k
        if k == TERMS:
            return None
        g.append(mp.fsum(gj ** k for gj in gamma) + k * b * mp.fsum(
            lj / wj * gj ** (k - 1) for lj, wj, gj in zip(lam, w, gamma)))
        a.append(mp.fsum(g[k - r] * a[r] for r in range(k)) / (2 * k))
        total += a[k] * cdf
        mass += a[k]


def chernoff(x, w, lam):
    """exp(K(t) - t x) at the saddle point t < 0 of a cell below the
    mean, found by bisection; any t < 0 gives an upper bound."""
    def slope(t):
        return mp.fsum(wj / (1 - 2 * wj * t) + lj * wj / (1 - 2 * wj * t) ** 2
                       for wj, lj in zip(w, lam))

    if not x < slope(0):
        raise SystemExit(f"x = {x} is not below the mean")
    lo, hi = -1 / x, mp.mpf(0)
    while slope(lo) > x:
        lo, hi = 2 * lo, lo
    for _ in range(4 * mp.mp.prec):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if slope(mid) < x else (lo, mid)
    t = lo
    k = mp.fsum(-mp.log(1 - 2 * wj * t) / 2 + lj * wj * t / (1 - 2 * wj * t)
                for wj, lj in zip(w, lam))
    return mp.exp(k - t * x) * (1 + mp.mpf(10) ** (1 - BOUND_DIGITS))


def check_series() -> None:
    """Stop unless the series meets three closed forms to 1e-45."""
    one = mp.mpf(1)
    for x in (mp.mpf("0.01"), one, mp.mpf(30)):
        checks = [
            (ruben(x, [one, one], [0, 0]), 1 - mp.exp(-x / 2)),
            (ruben(x, [one], [mp.mpf("2.5")]),
             mp.ncdf(mp.sqrt(x) - mp.sqrt(2.5))
             - mp.ncdf(-mp.sqrt(x) - mp.sqrt(2.5))),
            (ruben(x, [one, 2 * one, 2 * one], [0, 0, 0]),
             1 - mp.erfc(mp.sqrt(x / 2)) - mp.exp(-x / 4) * mp.sqrt(2)
             * mp.erf(mp.sqrt(x / 4))),
        ]
        for got, want in checks:
            if got is None or not abs(got[0] - want) <= mp.mpf("1e-45") * want:
                raise SystemExit(f"series and closed form disagree at x = {x}")


def main() -> int:
    mp.mp.dps = BOUND_DIGITS + 20
    check_series()
    cfg = json.loads(CONFIG.read_text())
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(["power_db", "threshold", "p_md", "digits", "method"])
    with SWEEP.open() as fh:
        for row in csv.DictReader(fh):
            w, lam = form(cfg, float(row["power_db"]))
            x = mp.mpf(float(row["threshold"]))
            summed = ruben(x, w, lam)
            if summed is None:
                value, digits, method = chernoff(x, w, lam), BOUND_DIGITS, BOUND
            else:
                value, digits = summed[0], DIGITS
                method = f"{SERIES}, {summed[1]} terms"
            out.writerow([row["power_db"], row["threshold"],
                          mp.nstr(value, digits, min_fixed=1, max_fixed=0),
                          digits, method])
    return 0


if __name__ == "__main__":
    sys.exit(main())
