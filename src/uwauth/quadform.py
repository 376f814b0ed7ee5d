"""Distribution of a sum of squared shifted Gaussians.

Q = sum_i (a_i Z_i + delta_i)^2 with Z_i independent standard normal and
a_i > 0, which is a weighted sum of noncentral chi-square(1) variables
with weights a_i^2 and noncentralities lam_i = (delta_i / a_i)^2. Each
form is evaluated in units of its largest weight a_max^2, a_max = max a_i:
the weights w_i = (a_i / a_max)^2 peak at 1, and x is read as
(x - shift) / a_max / a_max, dividing twice since a_max^2 can underflow.

Terms whose scale is negligible next to their form's largest are folded
into a deterministic shift, the sum of their delta_i^2. Forms with one
active term after folding use the exact (non)central chi-square(1) CDF,
a difference of two erfc values, good to ~2e-16 absolute at every lam.
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
where E reaches log 1e-14, and hi above it (0 < t < 1/2). A
cell is reported as 0 if x <= lo and as 1 if x >= hi. Both points come
from one vectorized Newton solve on log(-E), bracketed, with a bisection
fallback, in u = log(-t) below the mean and y = log z, z = 2 t / (1 - 2 t),
above it; E is summed as sum(-1/2 log r - w t / r - 2 lam (w t)^2 / r^2),
r = 1 - 2 w t, since K - t K' cancels badly far out. Each point starts
from its tail's asymptote, not from the Gaussian start |t| = sqrt(-2 log
1e-14 / Var Q). Far below the mean E tends to the sum over the n active
terms of -1/2 log(2 w |t|) + 1/2 - lam / 2, so lo starts at u = (n - sum
lam - sum log 2 w - 2 log 1e-14) / n, kept inside its bracket. On a central
form E there is within sum 1 / (2 w |t|) of that limit, so the start is
all but the point; there log(-E) grows only like log u, and Newton from
the Gaussian start crawled (8 steps on the shipped forms). Above the mean
log(-E) grows nearly linearly in y, like 2 y near the mean and like y, or
2 y with noncentral terms, far out, and hi starts midway, in y, between
two bounds on z: twice the Gaussian start's |t| below, since -E <= z^2
Var Q / 8, and the Gaussian start's own z above. Where a large
noncentrality leads, both lie within rounding of the point. Each point's
exponent lies within 2e-9 below the cut. The solve runs once per batch of
forms, for lo and hi together, and each Newton pass takes every point of
the batch: a ROC's two forms and each threshold calibration's form take
4 passes, the uniform-Eve sweep's 441 forms 8. QuadFormDist caches its
form's points, so its calls only compare, and cdf_grid solves all its
forms' in one call.

Shift. The inversion runs on Q - c, c = max(lo + log(1e6) / t_lo, 0),
with t_lo < 0 lo's saddle point. The Chernoff bound at t_lo (Daniels,
Ann. Math. Statist. 25:631, 1954) then gives P(Q <= c) <= exp(K(t_lo) -
t_lo c) = exp(E(t_lo) - log 1e6) <= 1e-20, and the form in its unit has
no mass below 0. The bound carries lo's rounding, |t_lo| lo 2^-53 in the
exponent, which reaches ~1e-5 at lam ~ 1e20. Without the shift, a
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
ones, and ~3e-12 absolute either way in the far upper tail: sf values
below that can come out as 0 or many times too large (ROADMAP.md, item 2).
The shipped fixed-Eve sweep's inverted false-alarm cells are within
9.5e-13, and its 101-point ROC's within 2.2e-13, of 40-digit references.

Exponent. A term's -1/2 log(1 + 2 w s) is formed in real arithmetic: with
u + i v = 2 w s, as -1/4 log1p(u (2 + u) + v^2) - i/2 arctan2(v, 1 + u).
Each part is within 2 ulps of itself from |2 w s| ~ 1e-20 to 1e20, where
complex log1p, which takes the real part as log(hypot(1 + u, v)), is off
by up to 1e-16 absolute. Where |2 w s| <= 1, a term's -lam w s / (1 + 2 w
s) is split as -lam w s + 2 lam (w s)^2 / (1 + 2 w s), and -lam w s joins
c s: whole, the two cancel and lose ~1e-9 at lam ~ 1e11. Where |2 w s| > 1
the split would cancel instead, so the term stays whole. Lower-tail cells
thus keep ~1e-12 relative accuracy, as QuadFormDist([0.00032327,
0.20970056], [0, 0.11272637]) does from x = 1e-18, just above its lo, to
1e-8.

Quantiles. One search serves QuadFormDist.quantile and quantile_grid.
It solves F(x) = p for each level in y = log(x / lo), x in the form's
unit, over [0, log(hi / lo)], where the CDF is within 1e-14 of 0 at lo
and of 1 at hi. Each level starts from Imhof's
three-moment approximation (Biometrika 48:419, 1961, section 4, after
Pearson 1959), Q ~ k1 + sqrt(k2 / 2 nu) (X - nu) with X chi-square(nu)
and nu = 8 k2^3 / k3^2, matching the cumulants k_j = 2^(j-1) (j-1)!
sum w^j (1 + j lam); X's quantile is Wilson and Hilferty's, from the
standard library's normal quantile, statistics.NormalDist.inv_cdf
(Wichura's AS 241, Appl. Statist. 37:477, 1988). A start nearer lo than
1/8 of the bracket, or nearer hi than 1/64, is moved to that distance.
From there each level takes safeguarded Newton steps on log m, m its
tail mass F, or 1 - F above the median, with d log m / dy = +-f(x) x /
m; in the lower tail F ~ C x^(L/2), so log F is nearly linear in y. The
density f comes from the same pass as F, as the closed form of a
one-term form, as 0 in a saturated tail, and otherwise from the same
EULER sum with phi(s), the transform of the density, in place of
phi(s) / s. A step from a point of
mass or density 0, out of the bracket, or longer than half the step
before it halves the bracket instead, so noise in F cannot stall the
search. A level stops at the best point it has evaluated, that of least
|F - p|, once that is within 1e-12, or 1e-8 of its tail mass min(p, 1 -
p) where that is smaller (1e-6 once a Newton step has been refused, as
it is where noise in F dominates), or once its next step is below
log(hi / lo) 2^-41 (at most 3.2e-11 on every form measured, where log(hi
/ lo) <= 70). Stopped levels are not evaluated again, so each gets the
value it would get alone. The shipped forms stop within 6 passes (4 for
a sweep's 3 levels); a level whose tolerance lies below the noise in F,
such as 1e-10 on an inverted form, ends by halvings within ~50. As y
starts from 0, a form concentrated far from zero keeps that resolution,
and a one-term form with a folded shift resolves a low level at x -
shift ~ 1e-12 under its singular density. With each level's point the
search returns the F it computed there, in the pass that set the point.
quantile_grid searches the first of a batch of forms and evaluates the
rest at the points found, in one pass, so the batch's saddle-curve
points are solved once and no cell of the first form is inverted twice:
a ROC's thresholds, false-alarm and detection rates come from one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb, erfc, log, sqrt

import numpy as np

from ._fields import _equal_fields
from .errors import AccuracyError, DomainError

__all__ = ["QuadFormDist", "cdf_grid", "quantile_grid"]

# Terms with a_i below this fraction of the largest scale behave as the
# deterministic shift delta_i^2.
_DEGENERATE_RTOL = 1e-10
# Largest mean and noncentrality of a form: its saddle-curve points reach
# ~70 times its mean, and the curve solve doubles each noncentrality.
_FORM_MAX = np.finfo(float).max / 128
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
# Newton with bisection fallback meets its 1e-9 window within ~50 halvings
# of any bracket (at most ~420 wide, at the largest noncentralities). From
# the asymptotic starts the shipped forms take 4 passes, and the uniform-Eve
# sweep's 441-form batch 8, where Gaussian starts took 8 and 9.
_SADDLE_MAX = 100
# Quantile search: each level starts from its three-moment approximation,
# kept at least _QUANTILE_START_LO of the log-x bracket [log lo, log hi]
# above its lower end and _QUANTILE_START_HI below its upper end, and takes
# Newton steps on the log of its tail mass. A level stops once its next
# step is below 2^-_QUANTILE_RESOLUTION of the bracket, or its CDF is
# within _QUANTILE_CDF_TOL of the level, or _QUANTILE_TAIL_RTOL of its tail
# mass if that is smaller (_QUANTILE_STALL_RTOL once Newton stalls).
# Shipped forms stop within 6 passes, and levels down to 1e-15 within ~50;
# _QUANTILE_STEPS passes raise AccuracyError.
_QUANTILE_START_LO = 1.0 / 8
_QUANTILE_START_HI = 1.0 / 64
_QUANTILE_RESOLUTION = 41
_QUANTILE_CDF_TOL = 1e-12
_QUANTILE_TAIL_RTOL = 1e-8
_QUANTILE_STALL_RTOL = 1e-6
_QUANTILE_STEPS = 100


@dataclass(frozen=True, eq=False)
class QuadFormDist:
    """Weighted noncentral chi-square sum, parametrized by the per-term
    Gaussian scale a_i and offset delta_i. A mean or noncentrality above
    1.4e306 raises DomainError, since the evaluation would overflow."""

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
        # Construction bounds the mean, not its square: scales over ~1e77
        # pass there and overflow here.
        with np.errstate(over="ignore"):
            var = float(np.sum(2.0 * a2 ** 2 + 4.0 * a2 * self.offsets ** 2))
        if not np.isfinite(var):
            raise DomainError("the variance of this form overflows a double")
        return var

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
        """P(Q > x), as 1 - cdf(x): off by ~3e-12 absolute either way in
        the far upper tail, so 0 or too large there (ROADMAP.md, item 2)."""
        return float(1.0 - self._cdf(np.array([float(x)]))[0])

    def quantile(self, p):
        """Smallest x with P(Q <= x) = p, located so |cdf(x) - p| <= 1e-6.

        p is a level or an array of levels; a float comes back for a
        scalar p, else an array of p's shape. Each level starts from
        Imhof's three-moment approximation and takes safeguarded Newton
        steps on the log of its tail mass (see the module docstring); it
        returns the point of least |cdf(x) - p| it evaluated, which
        usually has |cdf(x) - p| <= 1e-12. All levels share each CDF pass,
        and a level that has stopped is not evaluated again, so each gets
        the value it would get alone, bit for bit. AccuracyError is raised
        if a level ends farther than 1e-6 from p, or the search does not
        end within _QUANTILE_STEPS passes.
        """
        levels = np.asarray(p, dtype=float)
        p = _check_levels(levels.ravel())
        q, _ = _quantile_search(self._form, p)
        return float(q[0]) if levels.ndim == 0 else q.reshape(levels.shape)

    def _cdf(self, x: np.ndarray) -> np.ndarray:
        """cdf at each point of the 1-d array x, in one batch."""
        if not np.all(np.isfinite(x)):
            raise DomainError("evaluation point must be finite")
        return _lower_prob(*self._form, x[None])[0][0]


def cdf_grid(scales, offsets, x) -> np.ndarray:
    """P(Q_n <= x_k) for N forms at K points, as an (N, K) array.

    Row n of scales and offsets defines form n as in QuadFormDist, and
    entry (n, k) equals QuadFormDist(scales[n], offsets[n]).cdf(x[k]) bit
    for bit: both take the same route.
    """
    a, d = _check_forms(scales, offsets)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim != 1 or not np.all(np.isfinite(x)):
        raise DomainError("evaluation points must be finite and 1-d")
    return _lower_prob(*_prepare(a, d), x[None])[0]


def quantile_grid(scales, offsets, p) -> tuple[np.ndarray, np.ndarray]:
    """Quantiles x (K,) of form 0 at the levels p, and F = P(Q_n <= x_k)
    for all N forms, as an (N, K) array.

    The forms are given as in cdf_grid and share one preparation. Bit for
    bit, x equals QuadFormDist(scales[0], offsets[0]).quantile(p) and F
    equals cdf_grid(scales, offsets, x): row 0 is the CDF the search
    found at x, and rows 1 ... N - 1 are evaluated there in one pass.
    """
    a, d = _check_forms(scales, offsets)
    p = _check_levels(np.atleast_1d(np.asarray(p, dtype=float)))
    if p.ndim != 1:
        raise DomainError("quantile levels must be 1-d")
    form = _prepare(a, d)
    x, f0 = _quantile_search(_rows(form, slice(0, 1)), p)
    rest = _lower_prob(*_rows(form, slice(1, None)), x[None])[0]
    return x, np.vstack([f0, rest])


def _check_forms(scales, offsets) -> tuple[np.ndarray, np.ndarray]:
    """The (N, L) float arrays of a batch of forms; DomainError unless
    they are 2-d, equally shaped and valid forms."""
    a = np.asarray(scales, dtype=float)
    d = np.asarray(offsets, dtype=float)
    if a.ndim != 2 or a.shape != d.shape:
        raise DomainError("scales and offsets must be 2-d and equally shaped")
    _check_terms(a, d)
    return a, d


def _check_levels(p: np.ndarray) -> np.ndarray:
    """The quantile levels p; DomainError unless each lies in (0, 1)."""
    if not np.all((0.0 < p) & (p < 1.0)):
        raise DomainError("quantile probability must lie in (0, 1)")
    return p


def _rows(form, rows: slice) -> tuple[np.ndarray, ...]:
    """The rows of a batch prepared by _prepare, as a prepared batch."""
    w, lam, shift, a_max, points = form
    return w[rows], lam[rows], shift[rows], a_max[rows], points[:, rows]


def _quantile_search(form, p) -> tuple[np.ndarray, np.ndarray]:
    """The quantiles at the levels p (K,) in (0, 1) of the one form
    prepared by _prepare in form, and its CDF there: for each level, the
    point of least |F - p| that the search evaluated and the F of the
    pass that set it, which is the value _lower_prob gives there in any
    batch. The search is the module docstring's; AccuracyError is raised
    as QuadFormDist.quantile says.
    """
    w, lam, shift, a_max, points = form
    lo, hi, _ = points[:, 0]
    top = np.log(hi / lo)
    resolution = top * 2.0 ** -_QUANTILE_RESOLUTION
    # Each level's tail mass m = F, or 1 - F above the median, and the
    # |F - p| that stops it: 1e-12, or a share of its tail mass where
    # that is smaller, since a deep level needs more than 1e-12. The
    # share is larger once Newton stalls on the noise in F.
    upper = p > 0.5
    tail = np.minimum(p, 1.0 - p)
    log_tail = np.log(tail)
    cdf_tol = np.minimum(_QUANTILE_CDF_TOL, _QUANTILE_TAIL_RTOL * tail)
    stall_tol = np.minimum(_QUANTILE_CDF_TOL, _QUANTILE_STALL_RTOL * tail)
    # Each level's best point so far, its F and its |F - p|.
    q = np.empty(p.size)
    cdf_q = np.empty(p.size)
    gap = np.full(p.size, np.inf)
    # The levels still open, their brackets [y_lo, y_hi] in
    # y = log(x / lo), x in the form's unit, their next points y and
    # the length of their last step. The moment start is kept off the
    # bracket's ends, where the mass is 0 or 1.
    todo = np.arange(p.size)
    y_lo = np.zeros(p.size)
    y_hi = np.full(p.size, top)
    y = np.clip(np.log(np.maximum(_moment_start(w[0], lam[0], p) / lo,
                                  1.0)),
                _QUANTILE_START_LO * top, (1.0 - _QUANTILE_START_HI) * top)
    moved = np.full(p.size, np.inf)
    for _ in range(_QUANTILE_STEPS):
        x = lo * np.exp(y)
        point = shift + a_max * (a_max * x)
        cdf, density = _lower_prob(*form, point[None])
        miss = cdf[0] - p[todo]
        below = miss < 0.0
        y_lo = np.where(below, y, y_lo)
        y_hi = np.where(below, y_hi, y)
        closer = np.abs(miss) < gap[todo]
        q[todo[closer]] = point[closer]
        cdf_q[todo[closer]] = cdf[0, closer]
        gap[todo[closer]] = np.abs(miss[closer])
        # Newton on log m - log(tail), with d log m / dy = +-f(x) x / m.
        # A step from a point of mass or density 0, out of the bracket,
        # or longer than half the step before it (as where noise in F
        # stalls it) halves the bracket instead.
        up = upper[todo]
        mass = np.where(up, 1.0 - cdf[0], cdf[0])
        slope = density[0] * x
        ok = (mass > 0.0) & (slope > 0.0)
        mass = np.where(ok, mass, 1.0)
        # A step that overflows is out of the bracket.
        with np.errstate(over="ignore"):
            step = ((np.log(mass) - log_tail[todo]) * mass
                    / np.where(ok, slope, 1.0))
        newton = np.where(ok, np.where(up, y + step, y - step), np.inf)
        by_newton = ((newton > y_lo) & (newton < y_hi)
                     & (np.abs(newton - y) <= 0.5 * moved))
        nxt = np.where(by_newton, newton, 0.5 * (y_lo + y_hi))
        moved = np.abs(nxt - y)
        # A level stops once its best point is within its CDF
        # tolerance, or within the looser one once Newton stalls, or
        # once its next step is below the resolution.
        done = ((gap[todo] <= cdf_tol[todo])
                | (~by_newton & (gap[todo] <= stall_tol[todo]))
                | (moved < resolution))
        if done.all():
            break
        todo, y_lo, y_hi, y, moved = (
            v[~done] for v in (todo, y_lo, y_hi, nxt, moved))
    else:
        raise AccuracyError(
            f"quantile search did not converge in {_QUANTILE_STEPS} steps",
            achieved=float(np.max(gap[todo[~done]])), target=1e-6)
    if np.any(gap > 1e-6):
        worst = float(np.max(gap))
        raise AccuracyError(
            f"quantile stalled with |cdf - p| = {worst:.2e}",
            achieved=worst, target=1e-6)
    return q, cdf_q


def _check_terms(a, d) -> None:
    if a.shape[-1] == 0:
        raise DomainError("at least one term is required")
    if np.any(a <= 0):
        raise DomainError("every scale must be positive")
    # The mean bounds every weight and shift; NaN and inf fail the test too.
    with np.errstate(over="ignore"):
        mean = np.sum(a * a + d * d, axis=-1)
    if not np.all(mean <= _FORM_MAX):
        raise DomainError(f"scales and offsets must be finite, and a mean "
                          f"over {_FORM_MAX:.2g} overflows a double")


def _prepare(a, d):
    """The forms in the rows of a, d (N, L) as unit weights w and
    noncentralities lam (N, L), deterministic shifts and largest scales
    a_max (N,), and the saturation points lo, hi and inversion shift c
    (3, N) in the unit a_max^2, which is applied as a_max twice: its
    square can underflow.

    Terms whose scale is below _DEGENERATE_RTOL of their form's largest
    add delta^2 to its shift and keep their column with w = lam = 0, which
    adds exactly nothing to _curve_points or _euler_chunk.
    """
    a_max = a.max(axis=1, keepdims=True)
    tiny = a < _DEGENERATE_RTOL * a_max
    shift = np.sum(np.where(tiny, d, 0.0) ** 2, axis=1)
    w = np.where(tiny, 0.0, (a / a_max) ** 2)
    # d / a overflows on some folded terms, which the mask discards.
    with np.errstate(over="ignore"):
        lam = np.where(tiny, 0.0, (d / a) ** 2)
    if not np.all(lam <= _FORM_MAX):
        raise DomainError(f"a noncentrality over {_FORM_MAX:.2g} overflows "
                          f"a double")
    (lo, hi), (t_lo, _) = _curve_points(w, lam)
    # The Chernoff bound at lo's saddle point puts at most 1e-6 of lo's
    # 1e-14 below c; the unit form has no mass below 0.
    c = np.maximum(lo + log(1e6) / t_lo, 0.0)
    return w, lam, shift, a_max[:, 0], np.array([lo, hi, c])


def _lower_prob(w, lam, shift, a_max, points, x):
    """P(Q_n <= x[n, k]) for the forms prepared by _prepare, at points x
    (N, K), or (1, K) shared by every form, and the density there of
    (Q_n - shift_n) / a_max_n^2, the form in its unit; both (N, K).

    In each form's unit, cells at or below lo are 0 and at or above hi 1,
    with density 0. Between them, a form with one active term takes the
    closed form, and the remaining cells are inverted with shift c.
    """
    lo, hi, c = points
    # A point beyond the double range in the unit lies in a saturated tail.
    with np.errstate(over="ignore"):
        x = (x - shift[:, None]) / a_max[:, None] / a_max[:, None]
    p = (x >= hi[:, None]).astype(float)
    density = np.zeros(x.shape)
    todo = (x > lo[:, None]) & (x < hi[:, None])
    one = todo & (np.count_nonzero(w, axis=1) == 1)[:, None]
    if one.any():
        r, k = np.nonzero(one)
        p[r, k], density[r, k] = _ncx2(x[r, k], lam[r].sum(axis=1))
        todo &= ~one
    r, k = np.nonzero(todo)
    if r.size:
        p[r, k], density[r, k] = _euler_cdf(w[r], lam[r], c[r], x[r, k])
    return np.clip(p, 0.0, 1.0), density


def _ncx2(x, lam) -> tuple[np.ndarray, np.ndarray]:
    """CDF Phi(sqrt x - sqrt lam) - Phi(-sqrt x - sqrt lam) and density
    [n(sqrt x - sqrt lam) + n(sqrt x + sqrt lam)] / (2 sqrt x) per cell,
    x > 0, n the standard normal density, with sqrt lam - sqrt x as
    (lam - x) / (sqrt lam + sqrt x)."""
    s = np.sqrt(lam) + np.sqrt(x)
    u, v = (lam - x) / (s * sqrt(2.0)), s / sqrt(2.0)
    cdf = np.array([0.5 * (erfc(a) - erfc(b))
                    for a, b in zip(u.tolist(), v.tolist())])
    density = (np.exp(-u * u) + np.exp(-v * v)) / np.sqrt(8.0 * np.pi * x)
    return cdf, density


# ---------------------------------------------------------------------------
# Quantile start: Imhof's three-moment approximation


def _moment_start(w, lam, p) -> np.ndarray:
    """Imhof's three-moment approximation to the quantiles p of the unit
    form w, lam (L,), in its unit.

    k1 + sqrt(k2) (X - nu) / sqrt(2 nu), X = nu (1 - h + z sqrt h)^3 the
    Wilson-Hilferty quantile of chi-square(nu), h = 2 / (9 nu), is taken
    as k1 + sqrt(k2) (z - g) (1 + e + e^2 / 3) with g = sqrt h = k3 / (6
    k2^1.5) and e = g (z - g): the same value, without nu, whose cube
    overflows at large noncentralities, and without X - nu, which cancels.
    The cumulants are summed in units of c = max(1 + lam), as s_j = k_j /
    (2^(j-1) (j-1)! c); unscaled, k3 overflows from ~6 terms of lam ~ 1e306.
    """
    # Imported here, statistics (which loads fractions and decimal) stays
    # out of import uwauth.
    from statistics import NormalDist

    c = np.max(1.0 + lam)
    s1, s2, s3 = (np.sum(w ** j * ((1.0 + j * lam) / c)) for j in (1, 2, 3))
    sd = sqrt(2.0 * c) * sqrt(s2)
    g = 2.0 * s3 / (3.0 * sd * s2)
    z = np.array([NormalDist().inv_cdf(level) for level in p.tolist()])
    e = g * (z - g)
    return c * s1 + sd * (z - g) * (1.0 + e + e * e / 3.0)


# ---------------------------------------------------------------------------
# Saddle-point curve x = K'(t), with exponent E(t) = K(t) - t K'(t)


def _curve_points(w, lam) -> tuple[np.ndarray, np.ndarray]:
    """The saturation points lo and hi of each form on its saddle-point
    curve, and their saddle points t, as two arrays of shape (2, N): rows
    lo and hi, for the unit forms in the rows of w, lam (N, L).

    Each point x = K'(t) lies below the mean for lo (t < 0) and above it
    for hi (0 < t < 1/2), and has E(t) in [log 1e-14 - 2e-9, log 1e-14]:
    the Chernoff bound puts the tail beyond it, P(Q <= x) or P(Q > x), at
    most 1e-14, and E is monotone along the curve, so the same holds
    further out.

    The Newton target is L = log 1e-14 - 1e-9. The Gaussian start, |t| =
    sqrt(-2 L / Var Q), ends lo's bracket on the mean's side, since -E(t)
    = int_0^t s K''(s) ds and K'' grows with |t| below the mean; hi's z
    is at least 2 |t|, since -E <= z^2 Var Q / 8 above the mean, so both
    brackets start at log |t|. Each ends where the largest term's exponent
    alone, which bounds E from above, is below L. lo starts from E's limit
    far below the mean, and hi midway, in y, between 2 |t| and the
    Gaussian start's z (see the module docstring).

    Every pass evaluates E on every row, and a row that has met the window
    keeps its point. Rows never mix, since a row's sums run over its own L
    terms in order, so each point is that of its form solved alone, bit
    for bit.
    """
    n = w.shape[0]
    target = log(_SATURATION) - 1e-9
    log_target = log(-target)
    upper = np.arange(2 * n) >= n
    # Term-major and C-ordered, (L, 2N): the lo rows, then the hi rows.
    w = np.concatenate((w, w)).T.copy()
    lam = np.concatenate((lam, lam)).T.copy()
    u0 = 0.5 * (log_target - np.log((w * w * (1.0 + 2.0 * lam)).sum(axis=0)))
    # Far below the mean, where each 2 w |t| >> 1, E tends to the sum over
    # the active terms of -1/2 log(2 w |t|) + 1/2 - lam / 2.
    active = w > 0.0
    terms = active.sum(axis=0)
    u_far = (terms - lam.sum(axis=0) - 2.0 * target
             - np.log(np.where(active, 2.0 * w, 1.0)).sum(axis=0)) / terms
    left = u0
    right = np.where(upper, log(1.0 - 4.0 * target),
                     1.0 - 2.0 * target - log(2.0))
    # Above the mean the point's z = 2t / (1 - 2t) is at least 2 e^u0, since
    # -E <= z^2 Var Q / 8, and at most the Gaussian start's z and 1 - 4 L;
    # hi starts midway between, in y. On forms led by a large noncentrality
    # both bounds lie within rounding of the point, so the bracket is kept
    # wider: a Newton step would land beyond them and be refused.
    with np.errstate(divide="ignore", invalid="ignore"):
        y_gauss = -np.log(0.5 * np.exp(-u0) - 1.0)
    y = np.where(upper, 0.5 * (u0 + log(2.0) + np.fmin(y_gauss, right)),
                 u_far.clip(left, right))
    flip = np.where(upper, -1.0, 1.0)
    lam2 = 2.0 * lam
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_SADDLE_MAX):
            # alpha = 2 t is -2 e^u below the mean and 1 / (1 + e^-y) above.
            e_y = np.exp(flip * y)
            alpha = np.where(upper, 1.0 / (1.0 + e_y), -2.0 * e_y)
            e, r = _exponent(w, lam, alpha)
            open_ = np.abs(e - target) > 1e-9
            q = w / r
            if not open_.any():
                x = (q * (1.0 + lam / r)).sum(axis=0)
                return x.reshape(2, n), 0.5 * alpha.reshape(2, n)
            h = -e
            g = np.log(h) - log_target
            # d(-E)/dy = t K''(t) dt/dy, dalpha/dy = alpha or alpha^2 e^-y.
            slope = 0.5 * alpha * alpha * np.where(upper, alpha * e_y, 1.0) * (
                q * q * (1.0 + lam2 / r)).sum(axis=0)
            below = ~(g >= 0.0)
            left = np.where(below, y, left)
            right = np.where(below, right, y)
            step = y - g * h / slope
            step = np.where((step > left) & (step < right), step,
                            0.5 * (left + right))
            y = np.where(open_, step, y)
    raise AccuracyError("saddle-point search did not converge")


def _exponent(w, lam, alpha) -> tuple[np.ndarray, np.ndarray]:
    """The Chernoff exponent E(t) = K(t) - t K'(t) (M,) at t = alpha / 2
    (M,) of the unit forms in the columns of w, lam (L, M), and r = 1 - w
    alpha (L, M).

    E is summed as sum(-1/2 log r - z / 2 - lam z^2 / 2), z = w alpha / r,
    since K - t K' cancels badly far out. Columns never mix: each sum adds
    its column's L terms in order, first to last, for any M.
    """
    a = w * alpha
    r = 1.0 - a
    z = a / r
    return -0.5 * (np.log1p(-a) + z * (1.0 + lam * z)).sum(axis=0), r


# ---------------------------------------------------------------------------
# Laplace-transform inversion (Abate and Whitt's EULER algorithm)

_EULER_K = np.arange(_EULER_N + _EULER_M + 1)
_EULER_SIGN = np.where(_EULER_K % 2 == 0, 1.0, -1.0)
_EULER_SIGN[0] = 0.5
_EULER_BINOMIAL = np.array(
    [comb(_EULER_M, j) for j in range(_EULER_M + 1)]) / 2.0 ** _EULER_M
# The nodes A + 2 k pi i, (2, 66), their imaginary parts 2 k pi (66,),
# their moduli and e^(A/2), shared by every chunk.
_EULER_NODES = _EULER_A[:, None] + 2j * np.pi * _EULER_K
_EULER_NODE_IM = 2.0 * np.pi * _EULER_K
_EULER_NODE_ABS = np.abs(_EULER_NODES)
_EULER_EXP_HALF_A = np.exp(_EULER_A / 2.0)
# Cells inverted per numpy pass. At 32 cells of 3 terms, each of
# _log_planes' two float planes takes 99 KiB and each (M, 2, 66) complex
# plane 66 KiB. On a 2-core x86-64 host the time per cell at 3 terms was
# least at 32 cells, 9.3 us central and 18 us noncentral, against 11-15
# and 19-25 us at 8 to 24 cells and 13-14 and 23-28 us at 48 to 128.
_EULER_CHUNK = 32


def _euler_cdf(w, lam, c, x) -> tuple[np.ndarray, np.ndarray]:
    """P(Q_n <= x_n) and the density of Q_n at x_n per cell, by inverting
    the transforms of the CDF and the density of Q_n - c_n; cells are
    forms w, lam (M, m) with shifts c and points x (M,).

    Cells run _EULER_CHUNK at a time; EULER's terms do not couple cells,
    so a cell's values are the same as in a batch of one. An AccuracyError
    reports the worst cell's error estimate, which is the CDF's.
    """
    p = np.empty(x.size)
    density = np.empty(x.size)
    err = np.empty(x.size)
    for k in range(0, x.size, _EULER_CHUNK):
        i = slice(k, k + _EULER_CHUNK)
        p[i], density[i], err[i] = _euler_chunk(w[i], lam[i], c[i], x[i])
    bad = ~(err <= _TARGET_ERR)
    if bad.any():
        worst = float(np.max(err[bad]))
        raise AccuracyError(
            f"Laplace inversion error estimate {worst:.2e} exceeds target",
            achieved=worst, target=_TARGET_ERR)
    return p, density


def _euler_chunk(w, lam, c, x):
    """CDF values, densities and CDF error estimates of one chunk of
    _euler_cdf's cells.

    The terms' log(1 + 2ws) come from _log_planes as real (M, L, 2, 66)
    planes, and each plane is summed over its term axis: numpy adds the
    planes of a non-last axis in order, first term to last, for any L.
    The noncentral part is formed one term at a time and added in the same
    order.

    The density's transform is phi(s) itself, so its series reuses the
    CDF's terms phi(s) / s before the division by s.
    """
    t = x - c
    a = _EULER_A
    s = _EULER_NODES / (2.0 * t[:, None, None])
    # Summed before the noncentral planes are formed, so that the two sets
    # of temporaries do not coexist.
    log_abs2, arg = (plane.sum(axis=1) for plane in _log_planes(w, t))
    noncentral, kept = 0.0, 0.0
    for i in np.flatnonzero(lam.any(axis=0)):
        term, lam_w = _noncentral_plane(w[:, i], lam[:, i], s, t)
        noncentral += term
        kept += lam_w
    # log(e^(cs) phi(s)), split as the module docstring's Exponent says.
    log_phi = (c[:, None, None] - kept) * s
    log_phi += noncentral
    log_phi.real -= 0.25 * log_abs2
    log_phi.imag -= 0.5 * arg
    phi = np.exp(log_phi)
    partial = np.cumsum(_EULER_SIGN * (phi / s).real, axis=-1)
    scale = _EULER_EXP_HALF_A / t[:, None]
    p = scale * (partial[..., _EULER_N:] @ _EULER_BINOMIAL)
    # Reduced in the same (M, 2, n) shape as p: as an (M, n) product,
    # numpy's sum for a cell depends on the size of its batch.
    f = scale * (np.cumsum(_EULER_SIGN * phi.real, axis=-1)[..., _EULER_N:]
                 @ _EULER_BINOMIAL)
    p_prev = scale[:, 1] * (partial[:, 1, _EULER_N - 1:-1] @ _EULER_BINOMIAL)
    # Disagreement between the two A, and the step of the Euler average
    # from n - 1 to n, which tracks truncation the A pair can miss.
    err = np.maximum(np.abs(p[:, 1] - p[:, 0]), np.abs(p[:, 1] - p_prev))
    # Aliasing adds e^-A F(3t) + e^-2A F(5t) + ... with coefficients that
    # do not depend on A, so extrapolating the pair cancels its first term.
    ratio = np.expm1(a[1] - a[0])
    return (p[:, 1] + (p[:, 1] - p[:, 0]) / ratio,
            f[:, 1] + (f[:, 1] - f[:, 0]) / ratio, err)


def _log_planes(w, t):
    """log |1 + 2ws|^2 and arg(1 + 2ws), each (M, L, 2, 66), of the terms
    with weights w (M, L) on the nodes s of cells at t (M,), in real
    arithmetic.

    With u + iv = 2ws = w (A + 2 k pi i) / t, u varies only with (cell,
    term, A) and v only with (cell, term, k), so |1 + 2ws|^2 - 1 =
    u (2 + u) + v^2 and 1 + u are formed on their own axes, and only
    log1p and arctan2 run on whole planes. A term with w = 0 gives exactly
    0 in both.
    """
    w_t = (w / t[:, None])[:, :, None, None]
    u = w_t * _EULER_A[:, None]
    v = w_t * _EULER_NODE_IM
    log_abs2 = u * (2.0 + u) + v * v
    np.log1p(log_abs2, out=log_abs2)
    u += 1.0
    return log_abs2, np.arctan2(v, u)


def _noncentral_plane(w, lam, s, t):
    """The noncentral plane of one term, weights w and noncentralities lam
    (M,), on the nodes s (M, 2, 66) of cells at t (M,), and the lam w it
    moves into c s, split as the module docstring's Exponent says."""
    ws = w[:, None, None] * s
    ws2 = 2.0 * ws
    # |2ws| = w |A + 2 k pi i| / t.
    small = w[:, None, None] * _EULER_NODE_ABS <= t[:, None, None]
    term = lam[:, None, None] * ws
    term *= np.where(small, ws2, -1.0)
    ws2 += 1.0
    term /= ws2
    return term, small * (lam * w)[:, None, None]
