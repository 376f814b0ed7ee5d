"""Distribution of a sum of squared shifted Gaussians.

Q = sum_i (a_i Z_i + delta_i)^2 with Z_i independent standard normal and
a_i > 0, which is a weighted sum of noncentral chi-square(1) variables
with weights w_i = a_i^2 and noncentralities lam_i = (delta_i / a_i)^2.

Terms whose scale is negligible next to their form's largest are folded
into a deterministic shift, the sum of their delta_i^2. Forms with one
active term after folding use the exact (non)central chi-square(1) CDF,
scipy.special's chdtr and chndtr (what scipy.stats' chi2 and ncx2 call;
the package does not import scipy.stats, which takes about a second).
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

Saturated tails. The Chernoff bound exp(K(t) - t x), K the cumulant
generating function, is smallest at the saddle point K'(t) = x, where its
exponent is E(t) = K(t) - t K'(t). E falls from 0 monotonically as t
moves away from 0 either way (Kuonen, Biometrika 86:929, 1999), so the
points certified below 1e-14 form two tails, cut off by one point per
form on the saddle-point curve x = K'(t): lo below the mean (t < 0),
where E reaches log 1e-14, and hi above it (0 < t < 1 / (2 max w)). A
cell is reported as 0 if x <= lo and as 1 if x >= hi. Both points come
from one vectorized Newton solve on log(-E), bracketed, with a bisection
fallback, in u = log(-t max w) below the mean and v = -log(1 - 2 t max w)
above it, in which log(-E) grows about linearly; E is summed as
sum(-1/2 log r - w t / r - 2 lam (w t)^2 / r^2), r = 1 - 2 w t, since
K - t K' cancels badly far out. Each point's exponent lies within 2e-9
below the cut. The solve runs once per batch of forms, for lo, hi and the
shift c below together: QuadFormDist caches its form's points, so its
calls only compare, and cdf_grid solves all its forms' in one call.

Shift. The inversion runs on Q - c, where c is the point of the same
curve below the mean with E = log 1e-20, so that P(Q <= c) <= 1e-20.
Without the shift, a distribution concentrated far from zero (huge
noncentrality) has a transform that oscillates for thousands of terms
before it decays, and the fixed-length sum is off by up to 0.35 and fails
its error check.
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

Quantiles. QuadFormDist.quantile bisects each level in y = log(x - shift),
net of the form's deterministic shift, between the form's points lo and
hi, where the CDF is within 1e-14 of 0 and 1, with the same
_QUANTILE_HALVINGS halvings for every level, so each threshold net of the
shift has relative resolution log(hi / lo) 2^-41: at most 3.2e-11 on
every form measured, where log(hi / lo) <= 70. A one-term form with a
folded shift puts a low level at x - shift ~ 1e-12, under its singular
density, which a bracket in log x would resolve only to ~1e-12 of the
shift.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb, log

import numpy as np
from scipy.special import chdtr, chndtr

from ._fields import _equal_fields
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
# The saddle-curve points lo, hi and c that _curve_points solves, as
# (log mass, upper) pairs: cells at or below lo are reported as 0, at or
# above hi as 1, and the inversion shift c has Chernoff mass 1e-20 below it.
_CURVE_POINTS = ((log(_SATURATION), False), (log(_SATURATION), True),
                 (log(1e-20), False))
# Newton with bisection fallback meets its 1e-9 window within ~50 halvings
# of any bracket (at most ~120 wide); shipped forms take at most 11 steps.
_SADDLE_MAX = 100
# Halvings of each quantile's log-x bracket [log lo, log hi].
_QUANTILE_HALVINGS = 40


@dataclass(frozen=True, eq=False)
class QuadFormDist:
    """Weighted noncentral chi-square sum, parametrized by the per-term
    Gaussian scale a_i and offset delta_i."""

    scales: np.ndarray
    offsets: np.ndarray

    __eq__ = _equal_fields
    __hash__ = None

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

    # The form as a batch of one, prepared by _prepare.
    @cached_property
    def _form(self) -> tuple[np.ndarray, ...]:
        return _prepare(self.scales[None], self.offsets[None])

    def cdf(self, x: float) -> float:
        """P(Q <= x), absolute error at most 1e-6."""
        return float(self._cdf(np.array([float(x)]))[0])

    def sf(self, x: float) -> float:
        """P(Q > x); computed from the same inversion as cdf."""
        return float(1.0 - self._cdf(np.array([float(x)]))[0])

    def quantile(self, p):
        """Smallest x with P(Q <= x) = p, located so |cdf(x) - p| <= 1e-6.

        p is a level or an array of levels; a float comes back for a
        scalar p, else an array of p's shape. All levels share each CDF
        evaluation, and each gets the value it would get alone, bit for bit.
        """
        levels = np.asarray(p, dtype=float)
        p = levels.ravel()
        if not np.all((0.0 < p) & (p < 1.0)):
            raise DomainError("quantile probability must lie in (0, 1)")
        _, _, shift, points = self._form
        lo, hi, _ = points[:, 0]
        y_lo = np.full(p.size, np.log(lo))
        y_hi = np.full(p.size, np.log(hi))
        for _ in range(_QUANTILE_HALVINGS):
            mid = 0.5 * (y_lo + y_hi)
            below = self._cdf(shift + np.exp(mid)) < p
            y_lo = np.where(below, mid, y_lo)
            y_hi = np.where(below, y_hi, mid)
        q = shift + np.exp(0.5 * (y_lo + y_hi))
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
        return _lower_prob(*self._form, x[None])[0]


def cdf_grid(scales, offsets, x) -> np.ndarray:
    """P(Q_n <= x_k) for N forms at K points, as an (N, K) array.

    Row n of scales and offsets defines form n as in QuadFormDist, and
    entry (n, k) equals QuadFormDist(scales[n], offsets[n]).cdf(x[k]) bit
    for bit: both take the same route.
    """
    a = np.asarray(scales, dtype=float)
    d = np.asarray(offsets, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if a.ndim != 2 or a.shape != d.shape:
        raise DomainError("scales and offsets must be 2-d and equally shaped")
    _check_terms(a, d)
    if x.ndim != 1 or not np.all(np.isfinite(x)):
        raise DomainError("evaluation points must be finite and 1-d")
    return _lower_prob(*_prepare(a, d), x[None])


def _check_terms(a, d) -> None:
    if a.shape[-1] == 0:
        raise DomainError("at least one term is required")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(d))):
        raise DomainError("scales and offsets must be finite")
    if np.any(a <= 0):
        raise DomainError("every scale must be positive")


def _prepare(a, d):
    """The forms in the rows of a, d (N, L) as weights w and
    noncentralities lam (N, L), deterministic shifts (N,) and saddle-curve
    points lo, hi, c (3, N).

    Terms whose scale is below _DEGENERATE_RTOL of their form's largest
    add delta^2 to its shift and keep their column with w = lam = 0, which
    adds exactly nothing to _curve_points or _euler_chunk.
    """
    tiny = a < _DEGENERATE_RTOL * a.max(axis=1, keepdims=True)
    shift = np.sum(np.where(tiny, d, 0.0) ** 2, axis=1)
    w = np.where(tiny, 0.0, a ** 2)
    # d / a overflows on some folded terms, which the mask discards.
    with np.errstate(over="ignore"):
        lam = np.where(tiny, 0.0, (d / a) ** 2)
    return w, lam, shift, _curve_points(w, lam)


def _lower_prob(w, lam, shift, points, x) -> np.ndarray:
    """P(Q_n <= x[n, k]) for the forms prepared by _prepare, at points x
    (N, K), or (1, K) shared by every form.

    Net of each form's shift, cells at or below lo are 0 and at or above
    hi 1. A form with one active term takes the closed form at x > 0, and
    the remaining cells are inverted with shift c.
    """
    lo, hi, c = points
    x = x - shift[:, None]
    p = (x >= hi[:, None]).astype(float)
    todo = (x > lo[:, None]) & (x < hi[:, None])
    one = np.count_nonzero(w, axis=1) == 1
    if one.any():
        r, k = np.nonzero(one[:, None] & (x > 0.0))
        closed = _ncx2_cdf(x[r, k] / w[r].max(axis=1), lam[r].sum(axis=1))
        ok = np.isfinite(closed)
        p[r[ok], k[ok]] = closed[ok]
        todo[r[ok], k[ok]] = False
    r, k = np.nonzero(todo)
    if r.size:
        p[r, k] = _euler_cdf(w[r], lam[r], c[r], x[r, k])
    return np.clip(p, 0.0, 1.0)


def _ncx2_cdf(x, lam) -> np.ndarray:
    """Single-term closed form per cell, the chi-square(1) CDF at lam = 0
    and the noncentral one otherwise; NaN where the library breaks down
    (its series fails for extreme noncentrality) and the caller should use
    the generic machinery instead."""
    p = np.empty(x.shape)
    central = lam == 0.0
    with np.errstate(all="ignore"):
        p[central] = chdtr(1.0, x[central])
        p[~central] = chndtr(x[~central], 1.0, lam[~central])
    return p


# ---------------------------------------------------------------------------
# Saddle-point curve x = K'(t), with exponent E(t) = K(t) - t K'(t)
#
# With alpha = 2 t max w and rho = w / max w, every quantity below depends on
# the form only through rho and lam, apart from the factor max w in K'.


def _curve_points(w, lam) -> np.ndarray:
    """The points _CURVE_POINTS on each form's saddle-point curve, shape
    (3, N), for the forms in the rows of w, lam (N, L).

    _CURVE_POINTS lists (log_mass, upper) pairs. Each point x = K'(t) lies
    above the mean if upper, else below it, and has E(t) in
    [log_mass - 2e-9, log_mass]: the Chernoff bound puts the tail beyond
    it, P(Q > x) or P(Q <= x), at most exp(log_mass), and E is monotone
    along the curve, so the same holds further out.

    The Newton target is L = log_mass - 1e-9. The start, |t| =
    sqrt(-2 L / Var Q), ends the bracket on the mean's side, since
    -E(t) = int_0^t s K''(s) ds and K'' grows with t; the far end is where
    the largest term's exponent alone, which bounds E from above, reaches L.
    """
    n = w.shape[0]
    kinds = len(_CURVE_POINTS)
    target = np.repeat([log_mass for log_mass, _ in _CURVE_POINTS], n) - 1e-9
    upper = np.repeat([side for _, side in _CURVE_POINTS], n)
    w = np.tile(w, (kinds, 1))
    lam = np.tile(lam, (kinds, 1))
    w_max = w.max(axis=1)
    rho = w / w_max[:, None]
    log_target = np.log(-target)
    u0 = 0.5 * (log_target - np.log(np.sum(rho * rho * (1.0 + 2.0 * lam),
                                             axis=1)))
    alpha0 = 2.0 * np.exp(u0)
    with np.errstate(invalid="ignore"):
        v0 = np.where(alpha0 < 1.0, -np.log1p(-alpha0), np.inf)
    left = np.where(upper, 0.0, u0)
    right = np.where(upper, np.minimum(v0, np.log(2.0 - 4.0 * target)),
                     1.0 - 2.0 * target - log(2.0))
    y = np.where(upper, right, left)
    x = np.full(y.size, np.nan)
    for _ in range(_SADDLE_MAX):
        # alpha = 2 t max w is -2 e^u below the mean and 1 - e^-v above it.
        e_y = np.exp(np.where(upper, -y, y))
        alpha = np.where(upper, -np.expm1(-y), -2.0 * e_y)
        a = rho * alpha[:, None]
        r = 1.0 - a
        q = rho / r
        with np.errstate(divide="ignore", invalid="ignore"):
            e = -0.5 * np.sum(np.log1p(-a) + a / r * (1.0 + lam * a / r),
                              axis=1)
            g = np.log(-e) - log_target
        # d(-E)/dy = t K''(t) dt/dy, with dalpha/dy = alpha or e^-v.
        slope = 0.5 * alpha * np.where(upper, e_y, alpha) * np.sum(
            q * q * (1.0 + 2.0 * lam / r), axis=1)
        met = np.isnan(x) & (np.abs(e - target) <= 1e-9)
        x[met] = w_max[met] * np.sum(q[met] * (1.0 + lam[met] / r[met]),
                                     axis=1)
        if not np.isnan(x).any():
            return x.reshape(kinds, n)
        below = ~(g >= 0.0)
        left = np.where(below, y, left)
        right = np.where(below, right, y)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = y - g * -e / slope
        y = np.where((step > left) & (step < right), step,
                     0.5 * (left + right))
    raise AccuracyError("saddle-point search did not converge")


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

    Cells run _EULER_CHUNK at a time; EULER's terms do not couple cells,
    so a cell's value is the same as in a batch of one. An AccuracyError
    reports the worst cell's error estimate.
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
