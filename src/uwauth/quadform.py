"""Distribution of a sum of squared shifted Gaussians.

Q = sum_i (a_i Z_i + delta_i)^2 with Z_i independent standard normal and
a_i > 0, which is a weighted sum of noncentral chi-square(1) variables
with weights w_i = a_i^2 and noncentralities lam_i = (delta_i / a_i)^2.

Single-term distributions use the exact (non)central chi-square CDF.
Saturated tails are reported as exactly 0 or 1. Every other CDF value
comes from one route: Abate and Whitt's EULER inversion (ORSA J.
Computing 7:36, 1995) of the Laplace transform of the CDF,

    F^(s) = phi(s) / s,
    phi(s) = E exp(-s Q) = prod_i (1 + 2 w_i s)^(-1/2)
                           * exp(-lam_i w_i s / (1 + 2 w_i s)),

    F(t) ~ e^(A/2) / t * [Re F^(A/2t) / 2
                          + sum_k (-1)^k Re F^((A + 2 k pi i) / 2t)],

with the alternating series summed by Euler's binomial average of its
partial sums n = 50 ... 65. (Abate and Whitt's n = 38, m = 11 left errors
up to 1.4e-7 on forms mixing weights over eight decades with
noncentralities up to 1e12.) Discretization aliases the CDF at 3t, 5t,
... into the result: e^-A F(3t) + e^-2A F(5t) + ...

Saturated tails. A point x is saturated when the Chernoff bound
exp(K(t) - t x), K the cumulant generating function, puts P(Q <= x)
(t < 0) or P(Q > x) (0 < t < 1 / (2 max w)) below 1e-14. The best t
solves K'(t) = x; K' is increasing and convex, and the solve is a
bracketed Newton iteration with a bisection fallback, in u = log(-t)
below the mean and v = -log(1 - 2 t max w) above it, where log K' is
close to linear far out in the tail and near the pole. It exits early
both ways: a cell is saturated as soon as one iterate's exponent is below
the cut, since the bound holds at every t, and is not saturated as soon
as the tangents of the convex exponent at iterates on either side of the
optimum meet above the cut. Deep-tail cells exit after one or two
iterates. All cells of a batch (cdf_grid, a step of quantile, or
QuadFormDist.cdf as a batch of one) are classified together in numpy,
and only the cells left over are inverted. The saddle-point machinery
follows Kuonen (Biometrika 86:929, 1999).

Shift. The inversion runs on Q - c, where c is a lower point whose
Chernoff bound gives P(Q <= c) <= 1e-20; c is solved once per
distribution on the saddle-point curve. Without the shift, a
distribution concentrated far from zero (huge noncentrality) has a
transform that oscillates for thousands of terms before it decays, and
the fixed-length sum is off by up to 0.35 and fails its error check.
The mass below c enters the result amplified by at most e^A, about
2e-11.

Error check. The sum is formed at A = 18.4 and A = 21.4. An
AccuracyError is raised when the two disagree, or the Euler average moves
between n - 1 and n, by more than the 1e-7 target. The aliasing
coefficients do not depend on A, so extrapolating the pair cancels the
e^-A term; what remains is the truncation of the Euler sum and rounding
amplified by e^(A/2): ~1e-13 on typical cells, up to ~6e-11 on extreme
ones, and ~3e-12 absolute in the far upper tail, where sf values below
that can come out as 0.

Quantiles. QuadFormDist.quantile takes one level or an array of them. Each
level is bracketed in [0, mean + 4 sd], the upper end doubling until the
CDF there reaches the level, then bisected to 1e-12 of its bracket, and
the midpoint must meet |cdf - p| <= 1e-6. All levels run together: each
doubling evaluates one point shared by the levels still expanding, and
each halving evaluates the open levels' midpoints as one batch, so every
level gets the threshold it would get alone, bit for bit. The unsaturated
cells of any batch are inverted together as well, _EULER_CHUNK cells per
numpy pass so that memory stays flat as batches grow; EULER's terms do not
couple cells, and a cell's value is the same as in a batch of one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from math import comb, exp, log, sqrt

import numpy as np
from scipy.stats import chi2, ncx2

from .errors import AccuracyError, DomainError

__all__ = ["QuadFormDist", "cdf_grid"]

# Terms with a_i below this fraction of the largest scale behave as the
# deterministic shift delta_i^2.
_DEGENERATE_RTOL = 1e-10
# Tail probabilities certified below this level by a Chernoff bound are
# reported as exactly 0 (or 1 on the complementary side).
_SATURATION = 1e-14
# Absolute accuracy demanded of the inversion.
_TARGET_ERR = 1e-7
# EULER parameters: the two discretization levels A whose results must
# agree, and the Euler average over partial sums n .. n + m.
_EULER_A = np.array([18.4, 21.4])
_EULER_N = 50
_EULER_M = 15
# Chernoff mass below the inversion shift c.
_SHIFT_MASS = 1e-20
_LOG_CUT = log(_SATURATION)
# Saddle-point search: the search stops once the exponent is within
# _NEWTON_GAP of its minimum or the step in the log-scaled Newton variable
# is below _NEWTON_TOL. The iteration cap is never reached: bisection
# alone narrows any bracket (at most ~1,400 wide in the log variable)
# below the tolerance within ~40 halvings.
_NEWTON_GAP = 1e-11
_NEWTON_TOL = 1e-8
_NEWTON_MAX = 200


@dataclass(frozen=True)
class QuadFormDist:
    """Weighted noncentral chi-square sum, parametrized by the per-term
    Gaussian scale a_i and offset delta_i."""

    scales: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.scales, dtype=float))
        d = np.atleast_1d(np.asarray(self.offsets, dtype=float))
        if a.ndim != 1 or a.shape != d.shape:
            raise DomainError("scales and offsets must be 1-d and equally long")
        _check_terms(a, d)
        object.__setattr__(self, "scales", a)
        object.__setattr__(self, "offsets", d)

    def __len__(self) -> int:
        return self.scales.size

    def mean(self) -> float:
        return float(np.sum(self.scales ** 2 + self.offsets ** 2))

    def variance(self) -> float:
        a2 = self.scales ** 2
        return float(np.sum(2.0 * a2 ** 2 + 4.0 * a2 * self.offsets ** 2))

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw realizations of Q; a float for size=None, else shape (size,)."""
        n = 1 if size is None else int(size)
        z = rng.standard_normal((n, len(self)))
        # (a z + delta)^2 in place, its columns added left to right.
        z *= self.scales
        z += self.offsets
        z *= z
        q = z[:, 0].copy()
        for column in z.T[1:]:
            q += column
        return float(q[0]) if size is None else q

    # Effective representation, as a batch of one form: active weights and
    # noncentralities (1, m) plus the deterministic shift contributed by
    # near-zero scales.
    @cached_property
    def _effective(self) -> tuple[np.ndarray, np.ndarray, float]:
        ((_, w, lam, shift),) = _active_groups(self.scales[None],
                                              self.offsets[None])
        return w, lam, float(shift[0])

    @cached_property
    def _inversion_shift(self) -> float:
        w, lam, _ = self._effective
        return float(_lower_point(w, lam, log(_SHIFT_MASS))[0])

    def cdf(self, x: float) -> float:
        """P(Q <= x), absolute error at most 1e-6."""
        return float(self._cdf(np.array([float(x)]))[0])

    def sf(self, x: float) -> float:
        """P(Q > x); computed from the same inversion as cdf."""
        return float(1.0 - self._cdf(np.array([float(x)]))[0])

    def quantile(self, p):
        """Smallest x with P(Q <= x) = p, located so |cdf(x) - p| <= 1e-6.

        p is a level or an array of levels; a float comes back for a
        scalar p, else an array of p's shape. Each level bisects exactly
        as it would alone, and all of them share each CDF evaluation.
        """
        levels = np.asarray(p, dtype=float)
        p = levels.ravel()
        if not np.all((0.0 < p) & (p < 1.0)):
            raise DomainError("quantile probability must lie in (0, 1)")
        # Bracket: double hi from mean + 4 sd until cdf(hi) >= p. Levels
        # still expanding share their hi, so each doubling costs one point.
        lo = np.zeros(p.size)
        hi = np.empty(p.size)
        h_lo, h = 0.0, self.mean() + 4.0 * sqrt(self.variance())
        expanding = np.ones(p.size, dtype=bool)
        for _ in range(300):
            done = expanding & (self._cdf(np.array([h]))[0] >= p)
            lo[done], hi[done] = h_lo, h
            expanding &= ~done
            if not expanding.any():
                break
            h_lo, h = h, h * 2.0
        else:
            raise AccuracyError("quantile bracket expansion failed")
        # Bisect each bracket to 1e-12 of its width; one batch per step.
        span = hi.copy()
        active = np.arange(p.size)
        for _ in range(200):
            if active.size == 0:
                break
            mid = 0.5 * (lo[active] + hi[active])
            below = self._cdf(mid) < p[active]
            lo[active[below]] = mid[below]
            hi[active[~below]] = mid[~below]
            active = active[hi[active] - lo[active] > 1e-12 * span[active]]
        q = 0.5 * (lo + hi)
        gap = np.abs(self._cdf(q) - p)
        if np.any(gap > 1e-6):
            worst = float(np.max(gap))
            raise AccuracyError(
                f"quantile stalled with |cdf - p| = {worst:.2e}",
                achieved=worst, target=1e-6)
        return float(q[0]) if levels.ndim == 0 else q.reshape(levels.shape)

    def _cdf(self, x: np.ndarray) -> np.ndarray:
        """cdf at each point of the 1-d array x, in one batch."""
        if not np.all(np.isfinite(x)):
            raise DomainError("evaluation point must be finite")
        w, lam, shift = self._effective
        p = _lower_prob(w, lam, (x - shift)[None],
                        lambda forms: np.array([self._inversion_shift]))[0]
        return np.clip(p, 0.0, 1.0)


def cdf_grid(scales, offsets, x) -> np.ndarray:
    """P(Q_n <= x_k) for N forms at K points, as an (N, K) array.

    Row n of scales and offsets defines form n as in QuadFormDist, and
    entry (n, k) equals QuadFormDist(scales[n], offsets[n]).cdf(x[k]) bit
    for bit. All cells are classified in one pass; only the unsaturated
    ones are inverted, and each form's inversion shift is solved once.
    """
    a = np.asarray(scales, dtype=float)
    d = np.asarray(offsets, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if a.ndim != 2 or a.shape != d.shape:
        raise DomainError("scales and offsets must be 2-d and equally shaped")
    _check_terms(a, d)
    if x.ndim != 1 or not np.all(np.isfinite(x)):
        raise DomainError("evaluation points must be finite and 1-d")
    p = np.empty((a.shape[0], x.size))
    for rows, w, lam, shift in _active_groups(a, d):
        p[rows] = _lower_prob(w, lam, x - shift[:, None])
    return np.clip(p, 0.0, 1.0)


def _check_terms(a, d) -> None:
    if a.shape[-1] == 0:
        raise DomainError("at least one term is required")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(d))):
        raise DomainError("scales and offsets must be finite")
    if np.any(a <= 0):
        raise DomainError("every scale must be positive")


def _active_groups(a, d):
    """Split the forms (rows of a, d) by their number of active terms.

    Terms whose scale is below _DEGENERATE_RTOL of their form's largest
    act as the deterministic shift delta^2. Yields (rows, w, lam, shift)
    for each count m, with weights and noncentralities shaped
    (len(rows), m) in the terms' original order.
    """
    tiny = a < _DEGENERATE_RTOL * a.max(axis=1, keepdims=True)
    shift = np.zeros(a.shape[0])
    for n in np.flatnonzero(tiny.any(axis=1)):
        shift[n] = np.sum(d[n, tiny[n]] ** 2)
    count = a.shape[1] - tiny.sum(axis=1)
    for m in np.unique(count):
        rows = np.flatnonzero(count == m)
        keep = ~tiny[rows]
        a_m = a[rows][keep].reshape(rows.size, m)
        d_m = d[rows][keep].reshape(rows.size, m)
        yield rows, a_m ** 2, (d_m / a_m) ** 2, shift[rows]


def _lower_prob(w, lam, x, shift_of=None) -> np.ndarray:
    """Unclipped P(Q_n <= x[n, k]) for the forms with active terms w, lam
    (N, m), at points x (N, K) net of each form's deterministic shift.

    shift_of(forms) returns the inversion shifts of the listed forms; by
    default they are solved here.
    """
    p = np.zeros(x.shape)
    todo = x > 0.0
    if w.shape[1] == 1:
        r, c = np.nonzero(todo)
        closed = _ncx2_cdf(x[r, c] / w[r, 0], lam[r, 0])
        ok = np.isfinite(closed)
        p[r[ok], c[ok]] = closed[ok]
        todo[r[ok], c[ok]] = False
    r, c = np.nonzero(todo)
    side = _tail_side(w[r], lam[r], x[r, c])
    p[r[side > 0], c[side > 0]] = 1.0
    r, c = r[side == 0], c[side == 0]
    if r.size:
        # r is sorted, as np.nonzero lists cells row by row.
        first = np.concatenate([[True], r[1:] != r[:-1]])
        forms, form_of = r[first], np.cumsum(first) - 1
        if shift_of is None:
            shifts = _lower_point(w[forms], lam[forms], log(_SHIFT_MASS))
        else:
            shifts = shift_of(forms)
        p[r, c] = _euler_cdf(w[r], lam[r], shifts[form_of], x[r, c])
    return p


def _ncx2_cdf(x, lam) -> np.ndarray:
    """Single-term closed form per cell; NaN where the library breaks down
    (its series overflows for extreme noncentrality) and the caller should
    use the generic machinery instead."""
    p = np.full(x.shape, np.nan)
    central = lam == 0.0
    if central.any():
        p[central] = chi2.cdf(x[central], 1)
    if not central.all():
        try:
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore")
                p[~central] = ncx2.cdf(x[~central], 1, lam[~central])
        except (OverflowError, FloatingPointError):
            pass
    return p


# ---------------------------------------------------------------------------
# Chernoff saturation bounds
#
# Arrays of forms: w and lam are (M, m), t and x are (M,).


def _cgf(w, lam, t):
    r = 1.0 - 2.0 * w * t[:, None]
    # w*t/r stays bounded near -1/2 for deep negative t, so grouping this
    # way keeps every intermediate finite no matter how extreme t is.
    return (-0.5 * np.log(r) + lam * (w * t[:, None] / r)).sum(axis=-1)


def _cgf_deriv(w, lam, t):
    r = 1.0 - 2.0 * w * t[:, None]
    return (w / r + lam * (w / r) / r).sum(axis=-1)


def _tail_side(w, lam, x) -> np.ndarray:
    """Classify each cell (form M, point x > 0) as deep in a tail.

    Returns -1 where P(Q <= x) is certified below the saturation level,
    +1 where P(Q > x) is, and 0 elsewhere.
    """
    side = np.zeros(x.size, dtype=int)
    mean = np.sum(w * (1.0 + lam), axis=-1)
    # Newton's first step from t = 0. K' is convex, so K'(t0) >= x: t0
    # lies between 0 and the optimum below the mean, beyond it above.
    t0 = (x - mean) / np.sum(2.0 * w * w * (1.0 + 2.0 * lam), axis=-1)
    for sign, cells, solve in ((-1, x < mean, _lower_saturated),
                               (1, x > mean, _upper_saturated)):
        if cells.any():
            side[cells] = np.where(
                solve(w[cells], lam[cells], x[cells], t0[cells]), sign, 0)
    return side


def _lower_saturated(w, lam, x, t0) -> np.ndarray:
    """Whether min over t < 0 of K(t) - t x falls below the cut.

    The optimum t* solves K'(t*) = x. When K' > x even at the floor
    -1e290 / max w, the minimizer sits beyond floating range and the
    exponent is taken at the floor, a valid bound at any negative t.
    """
    floor = -1e290 / np.max(w, axis=-1)
    beyond = _cgf_deriv(w, lam, floor) > x
    out = _saturated_at(w, lam, x, floor, beyond)
    i = ~beyond
    if i.any():
        w, lam, x = w[i], lam[i], x[i]
        log_x = np.log(x)
        right = np.log(-floor[i])
        left = np.minimum(np.log(-t0[i]), right)

        # Newton variable u = log(-t): log K' is close to linear in u
        # far out in the tail, where K' ~ 1/t or 1/t^2.
        def evaluate(u, k):
            e = np.exp(u)
            r = 1.0 + 2.0 * w[k] * e[:, None]
            return _saddle_terms(w[k], lam[k], x[k], log_x[k], r, -e, -e,
                                 -1.0)

        out[i] = _newton_saturated(evaluate, left.copy(), left, right)
    return out


def _upper_saturated(w, lam, x, t0) -> np.ndarray:
    """Whether min over 0 < t < 1 / (2 max w) of K(t) - t x falls below
    the cut.

    When K' <= x already at t_hi = (1 - 1e-12) / (2 max w), the optimum
    lies closer to the pole than that, and the exponent at t_hi, a valid
    bound, decides.
    """
    w_max = np.max(w, axis=-1)
    t_hi = 1.0 / (2.0 * w_max) * (1.0 - 1e-12)
    at_pole = _cgf_deriv(w, lam, t_hi) <= x
    out = _saturated_at(w, lam, x, t_hi, at_pole)
    i = ~at_pole
    if i.any():
        w, lam, x, w_max = w[i], lam[i], x[i], w_max[i]
        rho = w / w_max[:, None]
        log_x = np.log(x)
        # K' >= e^v max w from the largest term alone: v* <= log(x / max w).
        right = np.minimum(
            -np.log1p(-2.0 * w_max * np.minimum(t0[i], t_hi[i])),
            np.maximum(log_x - np.log(w_max), 0.0))

        # Newton variable v = -log(1 - 2 t max w): the largest term of K'
        # grows like e^v or e^2v towards the pole.
        def evaluate(v, k):
            e = np.exp(-v)
            r = (1.0 - rho[k]) + rho[k] * e[:, None]
            t_sup = 1.0 / (2.0 * w_max[k])
            return _saddle_terms(w[k], lam[k], x[k], log_x[k], r,
                                 -np.expm1(-v) * t_sup, e * t_sup, 1.0)

        out[i] = _newton_saturated(evaluate, right.copy(),
                                   np.zeros_like(right), right)
    return out


def _saturated_at(w, lam, x, t, cells) -> np.ndarray:
    """Per cell, whether the exponent K(t) - t x is below the cut; only the
    cells flagged in `cells` are evaluated, the rest read False."""
    out = np.zeros(x.size, dtype=bool)
    if cells.any():
        c = cells
        out[c] = _cgf(w[c], lam[c], t[c]) - t[c] * x[c] < _LOG_CUT
    return out


def _saddle_terms(w, lam, x, log_x, r, t, dt, sign):
    """Newton function g = sign (log K'(t) - log x) and its derivative
    along the Newton variable (dt per unit step); the rows t, K(t), K'(t),
    exponent E(t) = K(t) - t x and its slope K'(t) - x; and E's height
    above its minimum to second order, (K'(t) - x)^2 / (2 K''(t)). All
    from r = 1 - 2 w t.
    """
    q = w / r
    k1 = (q + lam * q / r).sum(axis=-1)
    k2 = (q * q * (2.0 + 4.0 * lam / r)).sum(axis=-1)
    cgf = (lam * t[:, None] * q - 0.5 * np.log(r)).sum(axis=-1)
    slope = k1 - x
    return (sign * (np.log(k1) - log_x), sign * k2 * dt / k1,
            np.array([t, cgf, k1, cgf - t * x, slope]),
            slope * slope / (2.0 * k2))


def _newton_saturated(evaluate, y, left, right) -> np.ndarray:
    """Safeguarded Newton on an increasing g with g(left) <= 0 <= g(right).

    evaluate(y, k) gives _saddle_terms at y for the cells k. A cell is
    decided as soon as either side of the cut is certified:
    - saturated when an iterate's exponent is below the cut, since the
      Chernoff bound holds at every t;
    - not saturated when the tangents of the convex exponent E(t) at the
      latest iterates either side of the root meet above the cut, since
      they meet below E's minimum;
    - otherwise by the exponent at the optimum, once it is within
      _NEWTON_GAP of its minimum or the step falls below _NEWTON_TOL.
    Steps leaving the bracket, or not halving |g| fast enough, bisect
    instead (Numerical Recipes' rtsafe).
    """
    saturated = np.zeros(y.size, dtype=bool)
    k = np.arange(y.size)
    step = step_old = right - left
    # (t, K, K', E, E') at the latest iterate with g < 0 and with g >= 0.
    below_root = above_root = np.full((5, y.size), np.nan)
    for _ in range(_NEWTON_MAX):
        g, dg, tangent, gap = evaluate(y, k)
        neg = g < 0.0
        left = np.where(neg, y, left)
        right = np.where(neg, right, y)
        below_root = np.where(neg, tangent, below_root)
        above_root = np.where(neg, above_root, tangent)
        (t_a, k_a, k1_a, e_a, s_a), (t_b, k_b, k1_b, _, s_b) = (below_root,
                                                               above_root)
        # The tangents meet at t_a + d. The -t x parts of E cancel in d,
        # and are left out: far from the root they dwarf K.
        with np.errstate(over="ignore", invalid="ignore"):
            d = (k_b - k_a - k1_b * (t_b - t_a)) / (k1_a - k1_b)
            meet = e_a + s_a * d
        below = tangent[3] < _LOG_CUT
        saturated[k[below]] = True
        done = (below | ((s_a * s_b < 0.0) & (meet >= _LOG_CUT))
                | (np.abs(step) < _NEWTON_TOL)
                | ((np.abs(g) < 1e-3) & (gap < _NEWTON_GAP)))
        if done.any():
            keep = ~done
            k, y, left, right, step, step_old, g, dg = (
                v[keep] for v in (k, y, left, right, step, step_old, g, dg))
            below_root = below_root[:, keep]
            above_root = above_root[:, keep]
            if k.size == 0:
                return saturated
        outside = ((y - right) * dg - g) * ((y - left) * dg - g) > 0.0
        bisect = outside | (np.abs(2.0 * g) > np.abs(step_old * dg))
        step_old = step
        step = np.where(bisect, 0.5 * (right - left), g / dg)
        y = np.where(bisect, left + step, y - step)
    raise AccuracyError("Chernoff saddle-point search did not converge")


def _lower_point(w, lam, log_mass: float) -> np.ndarray:
    """Per form, a point c with Chernoff bound P(Q <= c) <= exp(log_mass).

    Along the saddle-point curve c = K'(t), t < 0, the optimized bound is
    exp(K(t) - t K'(t)), whose exponent falls monotonically as t decreases.
    Bisection runs in log(-t max w), down to the floor _lower_saturated
    uses, and ends on the side where the bound holds.
    """
    w_max = np.max(w, axis=-1)
    lo = np.full(w_max.shape, log(1e-200))
    hi = np.full(w_max.shape, log(1e290))
    for _ in range(24):
        mid = 0.5 * (lo + hi)
        t = -_exp(mid) / w_max
        above = _cgf(w, lam, t) - t * _cgf_deriv(w, lam, t) > log_mass
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return _cgf_deriv(w, lam, -_exp(hi) / w_max)


def _exp(v) -> np.ndarray:
    # math.exp, elementwise. np.exp's vectorized kernel differs from it in
    # the last bit on some inputs, which would move the shift and, through
    # it, published CDF values by an ulp.
    return np.array([exp(x) for x in v])


# ---------------------------------------------------------------------------
# Laplace-transform inversion (Abate and Whitt's EULER algorithm)

_EULER_K = np.arange(_EULER_N + _EULER_M + 1)
_EULER_SIGN = np.where(_EULER_K % 2 == 0, 1.0, -1.0)
_EULER_SIGN[0] = 0.5
_EULER_BINOMIAL = np.array(
    [comb(_EULER_M, j) for j in range(_EULER_M + 1)]) / 2.0 ** _EULER_M
# Cells inverted per numpy pass. Each cell's temporaries are a few
# (2, 66, m) complex arrays, so a chunk needs about a megabyte whatever the
# batch size; from 32 to 256 cells the time per cell is flat (~50 us at
# m = 3 on one x86-64 core), below that numpy's per-call overhead shows.
_EULER_CHUNK = 128


def _euler_cdf(w, lam, c, x) -> np.ndarray:
    """P(Q_n <= x_n) per cell by inverting the transform of the CDF of
    Q_n - c_n; cells are forms w, lam (M, m) with shifts c and points x (M,).

    Cells run _EULER_CHUNK at a time. An AccuracyError reports the worst
    cell's error estimate.
    """
    p = np.empty(x.size)
    err = np.empty(x.size)
    for k in range(0, x.size, _EULER_CHUNK):
        i = slice(k, k + _EULER_CHUNK)
        p[i], err[i] = _euler_chunk(w[i], lam[i], c[i], x[i])
    bad = ~(err <= _TARGET_ERR)
    if bad.any():
        worst = float(np.max(err[bad]))
        raise AccuracyError(
            f"Laplace inversion error estimate {worst:.2e} exceeds target",
            achieved=worst, target=_TARGET_ERR)
    return p


def _euler_chunk(w, lam, c, x) -> tuple[np.ndarray, np.ndarray]:
    """Values and error estimates of one chunk of _euler_cdf's cells."""
    t = x - c
    a = _EULER_A
    s = (a[:, None] + 2j * np.pi * _EULER_K) / (2.0 * t[:, None, None])
    ws = w[:, None, None, :] * s[..., None]
    ws2 = 2.0 * ws
    # log(e^(cs) phi(s)) with the noncentral mean sum(lam w) moved into c:
    # c s and the noncentrality terms are each ~lam w |s| and cancel to
    # O(A), so written separately they lose ~1e-9 to rounding at lam ~ 1e11.
    log_phi = ((c - np.sum(lam * w, axis=-1))[:, None, None] * s
               - 0.5 * np.sum(np.log1p(ws2), axis=-1)
               + np.sum(2.0 * lam[:, None, None, :] * ws * ws / (1.0 + ws2),
                        axis=-1))
    terms = _EULER_SIGN * (np.exp(log_phi) / s).real
    partial = np.cumsum(terms, axis=-1)
    scale = np.exp(a / 2.0) / t[:, None]
    p = scale * (partial[..., _EULER_N:] @ _EULER_BINOMIAL)
    p_prev = scale[:, 1] * (partial[:, 1, _EULER_N - 1:-1] @ _EULER_BINOMIAL)
    # Disagreement between the two A, and the step of the Euler average
    # from n - 1 to n, which tracks truncation the A pair can miss.
    err = np.maximum(np.abs(p[:, 1] - p[:, 0]), np.abs(p[:, 1] - p_prev))
    # Aliasing adds e^-A F(3t) + e^-2A F(5t) + ... with coefficients that
    # do not depend on A, so extrapolating the pair cancels its first term.
    return p[:, 1] + (p[:, 1] - p[:, 0]) / np.expm1(a[1] - a[0]), err
