"""Distribution of a sum of squared shifted Gaussians.

Q = sum_i (a_i Z_i + delta_i)^2 with Z_i independent standard normal and
a_i > 0, which is a weighted sum of noncentral chi-square(1) variables
with weights w_i = a_i^2 and noncentralities lam_i = (delta_i / a_i)^2.

Single-term distributions use the exact (non)central chi-square CDF.
Saturated tails are settled by Chernoff bounds on the moment generating
function and reported as exactly 0 or 1. Every other CDF value comes from
one route: Abate and Whitt's EULER inversion (ORSA J. Computing 7:36,
1995) of the Laplace transform of the CDF,

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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from math import comb, exp, log, sqrt

import numpy as np
from scipy.stats import chi2, ncx2

from .errors import AccuracyError, DomainError

__all__ = ["QuadFormDist"]

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
        if a.size == 0:
            raise DomainError("at least one term is required")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(d))):
            raise DomainError("scales and offsets must be finite")
        if np.any(a <= 0):
            raise DomainError("every scale must be positive")
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
        q = ((self.scales * z + self.offsets) ** 2).sum(axis=1)
        return float(q[0]) if size is None else q

    # Effective representation: active weights/noncentralities plus the
    # deterministic shift contributed by near-zero scales.
    @cached_property
    def _effective(self) -> tuple[np.ndarray, np.ndarray, float]:
        tiny = self.scales < _DEGENERATE_RTOL * self.scales.max()
        shift = float(np.sum(self.offsets[tiny] ** 2))
        a = self.scales[~tiny]
        d = self.offsets[~tiny]
        w = a ** 2
        lam = (d / a) ** 2
        return w, lam, shift

    @cached_property
    def _inversion_shift(self) -> float:
        w, lam, _ = self._effective
        return _lower_point(w, lam, log(_SHIFT_MASS))

    def cdf(self, x: float) -> float:
        """P(Q <= x), absolute error at most 1e-6."""
        return self._prob(float(x), upper=False)

    def sf(self, x: float) -> float:
        """P(Q > x); computed from the same inversion as cdf."""
        return self._prob(float(x), upper=True)

    def quantile(self, p: float) -> float:
        """Smallest x with P(Q <= x) = p, located so |cdf(x) - p| <= 1e-6."""
        if not 0.0 < p < 1.0:
            raise DomainError("quantile probability must lie in (0, 1)")
        lo = 0.0
        hi = self.mean() + 4.0 * sqrt(self.variance())
        for _ in range(300):
            if self.cdf(hi) >= p:
                break
            lo, hi = hi, hi * 2.0
        else:
            raise AccuracyError("quantile bracket expansion failed")
        span = hi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.cdf(mid) < p:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-12 * span:
                break
        q = 0.5 * (lo + hi)
        gap = abs(self.cdf(q) - p)
        if gap > 1e-6:
            raise AccuracyError(
                f"quantile stalled with |cdf - p| = {gap:.2e}",
                achieved=gap, target=1e-6)
        return q

    def _prob(self, x: float, upper: bool) -> float:
        if not np.isfinite(x):
            raise DomainError("evaluation point must be finite")
        w, lam, shift = self._effective
        x = x - shift
        if w.size == 0:
            low = 1.0 if x >= 0.0 else 0.0
            return 1.0 - low if upper else low
        if x <= 0.0:
            return 1.0 if upper else 0.0
        if w.size == 1:
            lo = _ncx2_cdf(x / w[0], lam[0])
            if lo is not None:
                return min(1.0, max(0.0, 1.0 - lo if upper else lo))
        mean = float(np.sum(w * (1.0 + lam)))
        side = _chernoff_side(w, lam, mean, x)
        if side == "lower":
            return 1.0 if upper else 0.0
        if side == "upper":
            return 0.0 if upper else 1.0
        p = _euler_cdf(w, lam, self._inversion_shift, x)
        return min(1.0, max(0.0, 1.0 - p if upper else p))


def _ncx2_cdf(x: float, lam: float) -> float | None:
    """Single-term closed form, or None when the library implementation
    breaks down (its series overflows for extreme noncentrality) and the
    caller should use the generic machinery instead."""
    if lam == 0.0:
        return float(chi2.cdf(x, 1))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = float(ncx2.cdf(x, 1, lam))
    except (OverflowError, FloatingPointError):
        return None
    if not np.isfinite(p):
        return None
    return p


# ---------------------------------------------------------------------------
# Chernoff saturation bounds


def _cgf(w, lam, t: float) -> float:
    r = 1.0 - 2.0 * w * t
    # w*t/r stays bounded near -1/2 for deep negative t, so grouping this
    # way keeps every intermediate finite no matter how extreme t is.
    return float(np.sum(-0.5 * np.log(r) + lam * (w * t / r)))


def _cgf_deriv(w, lam, t: float) -> float:
    r = 1.0 - 2.0 * w * t
    return float(np.sum(w / r + lam * (w / r) / r))


def _chernoff_side(w, lam, mean: float, x: float) -> str | None:
    """Classify x as deep in the lower or upper tail, or neither.

    Returns 'lower' when P(Q <= x) is certified below the saturation
    level, 'upper' for P(Q > x), otherwise None.
    """
    log_cut = log(_SATURATION)
    if x < mean:
        floor = -1e290 / float(np.max(w))
        lo = -1.0 / (2.0 * float(np.min(w)))
        while _cgf_deriv(w, lam, lo) > x:
            lo *= 2.0
            if lo <= floor:
                # The minimizer sits beyond floating range; the bound is
                # valid at any negative exponent, so test the deepest
                # representable one.
                bound = _cgf(w, lam, floor) - floor * x
                return "lower" if bound < log_cut else None
        hi = 0.0
        for _ in range(120):
            t = 0.5 * (lo + hi)
            if _cgf_deriv(w, lam, t) > x:
                hi = t
            else:
                lo = t
        t = 0.5 * (lo + hi)
        if _cgf(w, lam, t) - t * x < log_cut:
            return "lower"
    elif x > mean:
        t_sup = 1.0 / (2.0 * float(np.max(w)))
        lo, hi = 0.0, t_sup * (1.0 - 1e-12)
        if _cgf_deriv(w, lam, hi) > x:
            for _ in range(120):
                t = 0.5 * (lo + hi)
                if _cgf_deriv(w, lam, t) < x:
                    lo = t
                else:
                    hi = t
            t = 0.5 * (lo + hi)
        else:
            t = hi  # suboptimal exponent, still a valid bound
        if _cgf(w, lam, t) - t * x < log_cut:
            return "upper"
    return None


def _lower_point(w, lam, log_mass: float) -> float:
    """A point c with Chernoff bound P(Q <= c) <= exp(log_mass).

    Along the saddle-point curve c = K'(t), t < 0, the optimized bound is
    exp(K(t) - t K'(t)), whose exponent falls monotonically as t decreases.
    Bisection runs in log(-t max w), down to the floor _chernoff_side
    uses, and ends on the side where the bound holds.
    """
    w_max = float(np.max(w))
    lo, hi = log(1e-200), log(1e290)
    for _ in range(24):
        mid = 0.5 * (lo + hi)
        t = -exp(mid) / w_max
        if _cgf(w, lam, t) - t * _cgf_deriv(w, lam, t) > log_mass:
            lo = mid
        else:
            hi = mid
    return _cgf_deriv(w, lam, -exp(hi) / w_max)


# ---------------------------------------------------------------------------
# Laplace-transform inversion (Abate and Whitt's EULER algorithm)

_EULER_K = np.arange(_EULER_N + _EULER_M + 1)
_EULER_SIGN = np.where(_EULER_K % 2 == 0, 1.0, -1.0)
_EULER_SIGN[0] = 0.5
_EULER_BINOMIAL = np.array(
    [comb(_EULER_M, j) for j in range(_EULER_M + 1)]) / 2.0 ** _EULER_M


def _euler_cdf(w, lam, c: float, x: float) -> float:
    """P(Q <= x) by inverting the transform of the CDF of Q - c."""
    t = x - c
    a = _EULER_A
    s = (a[:, None] + 2j * np.pi * _EULER_K) / (2.0 * t)
    ws = w * s[..., None]
    # log(e^(cs) phi(s)) with the noncentral mean sum(lam w) moved into c:
    # c s and the noncentrality terms are each ~lam w |s| and cancel to
    # O(A), so written separately they lose ~1e-9 to rounding at lam ~ 1e11.
    log_phi = ((c - np.sum(lam * w)) * s
               - 0.5 * np.sum(np.log1p(2.0 * ws), axis=-1)
               + np.sum(2.0 * lam * ws * ws / (1.0 + 2.0 * ws), axis=-1))
    terms = _EULER_SIGN * (np.exp(log_phi) / s).real
    partial = np.cumsum(terms, axis=-1)
    scale = np.exp(a / 2.0) / t
    p = scale * (partial[:, _EULER_N:] @ _EULER_BINOMIAL)
    p_prev = scale[1] * (partial[1, _EULER_N - 1:-1] @ _EULER_BINOMIAL)
    # Disagreement between the two A, and the step of the Euler average
    # from n - 1 to n, which tracks truncation the A pair can miss.
    err = float(max(abs(p[1] - p[0]), abs(p[1] - p_prev)))
    if not err <= _TARGET_ERR:
        raise AccuracyError(
            f"Laplace inversion error estimate {err:.2e} exceeds target",
            achieved=err, target=_TARGET_ERR)
    # Aliasing adds e^-A F(3t) + e^-2A F(5t) + ... with coefficients that
    # do not depend on A, so extrapolating the pair cancels its first term.
    return float(p[1] + (p[1] - p[0]) / np.expm1(a[1] - a[0]))
