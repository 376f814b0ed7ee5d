"""Distribution of weighted noncentral chi-square sums.

Reference values come from routes the implementation does not take:
normal-cdf differences for one term (in scipy and at 40 digits in
mpmath), the library chi-square family for equal weights, a 30-digit
mpmath quadrature for two terms, a 50-digit mpmath saddle-point solve
for the saturation points, 30-digit mpmath log1p for the inversion's
log terms, and plain Monte Carlo everywhere else.
"""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2, ncx2, norm

from uwauth import AccuracyError, DomainError, QuadFormDist, cli, quadform
from uwauth.channel import distance_noise_variance
from uwauth.authentication import statistic_form
from uwauth.experiment import (
    baseline_scenario,
    default_power_grid,
    default_thresholds,
    region_point_set,
    roc_curve,
)
from uwauth.quadform import cdf_grid, quantile_grid


def test_single_standard_term_matches_erf():
    d = QuadFormDist([1.0], [0.0])
    assert d.cdf(1.0) == pytest.approx(0.6826894921370859, abs=1e-12)
    assert d.sf(1.0) == pytest.approx(1.0 - 0.6826894921370859, abs=1e-12)


def test_single_offset_term_matches_normal_difference():
    # P((Z + 3)^2 <= x) = Phi(sqrt(x) - 3) - Phi(-sqrt(x) - 3)
    d = QuadFormDist([1.0], [3.0])
    for x in (1.0, 9.0, 25.0):
        expected = norm.cdf(math.sqrt(x) - 3.0) - norm.cdf(-math.sqrt(x) - 3.0)
        assert d.cdf(x) == pytest.approx(expected, abs=1e-10)


def test_two_equal_terms_form_exponential():
    d = QuadFormDist([1.0, 1.0], [0.0, 0.0])
    assert d.cdf(2.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-7)
    assert d.quantile(0.5) == pytest.approx(2.0 * math.log(2.0), abs=1e-5)


def test_equal_weights_match_library_chi_square():
    # Three and five unit terms exercise the inversion machinery against
    # a closed form it never consults.
    for n in (3, 5):
        d = QuadFormDist(np.ones(n), np.zeros(n))
        for q in (0.05, 0.3, 0.5, 0.8, 0.99):
            x = chi2.ppf(q, n)
            assert d.cdf(x) == pytest.approx(q, abs=1e-7)


def test_equal_weights_noncentral_match_library():
    offsets = np.array([1.0, -2.0, 0.5])
    lam = float(np.sum(offsets ** 2))
    d = QuadFormDist(np.ones(3), offsets)
    for x in (1.0, 4.0, 8.0, 15.0, 30.0):
        assert d.cdf(x) == pytest.approx(ncx2.cdf(x, 3, lam), abs=1e-7)


def test_equal_weights_noncentral_many_terms_match_library():
    # Four to nine unit terms, whose transform terms the inversion adds in
    # term order: inverted cells from 0.3 to 2.5 times the mean against the
    # library's noncentral chi-square.
    rng = np.random.default_rng(30)
    for n in range(4, 10):
        offsets = rng.uniform(-2.0, 2.0, n)
        lam = float(np.sum(offsets ** 2))
        x = (n + lam) * np.linspace(0.3, 2.5, 23)
        lo, hi, _ = QuadFormDist(np.ones(n), offsets)._form[-1][:, 0]
        assert np.all((lo < x) & (x < hi))
        got = cdf_grid(np.ones((1, n)), offsets[None], x)[0]
        np.testing.assert_allclose(got, ncx2.cdf(x, n, lam), rtol=0,
                                   atol=1e-11)


def test_scaled_pair_via_substitution():
    # c^2 * chi2_2 evaluated through the generic path.
    c = 7.5
    d = QuadFormDist([c, c], [0.0, 0.0])
    assert d.cdf(2.0 * c * c) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-7)


def test_moments():
    a = np.array([1.5, 0.3, 2.0])
    off = np.array([0.5, -1.0, 3.0])
    d = QuadFormDist(a, off)
    assert d.mean() == pytest.approx(float(np.sum(a**2 + off**2)), rel=1e-14)
    assert d.variance() == pytest.approx(
        float(np.sum(2 * a**4 + 4 * a**2 * off**2)), rel=1e-14)
    samples = d.sample(np.random.default_rng(5), 400_000)
    assert samples.mean() == pytest.approx(d.mean(), rel=0.01)
    assert samples.var() == pytest.approx(d.variance(), rel=0.03)


def test_scale_equivariance():
    rng = np.random.default_rng(17)
    a = rng.uniform(0.5, 3.0, 4)
    off = rng.normal(0.0, 2.0, 4)
    base = QuadFormDist(a, off)
    levels = np.array([1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6])
    for c in (1e-3, 12.0, 1e5):
        scaled = QuadFormDist(c * a, c * off)
        for q in (0.1, 0.5, 0.9):
            x = base.mean() + (q - 0.5) * 2.0 * math.sqrt(base.variance())
            x = max(x, base.mean() * 0.05)
            assert scaled.cdf(c * c * x) == pytest.approx(base.cdf(x),
                                                          abs=2e-7)
    # Each form is evaluated in units of its largest weight, so scaling by
    # a power of two, exact in doubles, changes no bit of either answer.
    x = base.mean() * np.array([0.05, 0.5, 1.0, 2.0, 5.0])
    for c in (2.0 ** -498, 2.0 ** 498):
        scaled = QuadFormDist(c * a, c * off)
        assert [scaled.cdf(c * c * v) for v in x] == [base.cdf(v) for v in x]
        np.testing.assert_array_equal(scaled.quantile(levels) / (c * c),
                                      base.quantile(levels))


def test_quantile_of_a_form_with_only_tiny_scales():
    # Weight 1e-300: the saddle-curve points of the raw form would
    # underflow, and the quantile stalled at |cdf - p| = 1.
    q = QuadFormDist([1e-150], [0.0]).quantile(0.5)
    assert q == pytest.approx(1e-300 * chi2.ppf(0.5, 1), rel=1e-9)


def test_forms_whose_unit_underflows():
    # The unit a_max^2 of these forms is subnormal (1e-320) or 0 (1e-340),
    # so it is applied as a_max twice. Rounded to a subnormal, the unit is
    # off by 1.1e-5, ~560 standard deviations of the first form, whose
    # quantiles and CDF lie in the normal range.
    a = 1e-160
    tiny = QuadFormDist([a], [1e8 * a])
    (lam,) = tiny._form[1][0]
    unit = QuadFormDist([1.0], [np.sqrt(lam)])
    levels = np.array([1e-6, 0.5, 1.0 - 1e-6])
    q = tiny.quantile(levels)
    np.testing.assert_allclose(q / a / a, unit.quantile(levels), rtol=1e-15)
    assert [tiny.cdf(v) for v in q] == [unit.cdf(v / a / a) for v in q]
    # 1e-340 is 0.0 as a double, which a zero unit divided into NaN.
    assert QuadFormDist([1e-170], [0.0]).cdf(1e-340) == 0.0
    assert QuadFormDist([1e-170], [0.0]).cdf(5e-324) == 1.0
    # The median 4.55e-321 of 1e-320 chi-square(1) is subnormal: doubles
    # there are 1.1e-3 apart relatively, so none has |cdf - 0.5| <= 1e-6,
    # and the quantile refuses every double it could return.
    with pytest.raises(AccuracyError) as info:
        QuadFormDist([a], [0.0]).quantile(0.5)
    assert 1e-6 < info.value.achieved < 1e-3


def test_quantile_of_a_form_with_noncentrality_1e20():
    # sd / mean = 2e-10: log x cannot resolve it, and the quantile stalled
    # at |cdf - p| = 1.27e-5. Exact: Phi(sqrt x - 1e10) - Phi(-sqrt x - 1e10),
    # with sqrt x - 1e10 = (x - 1e20) / (sqrt x + 1e10).
    dist = QuadFormDist([1.0], [1e10])
    levels = np.array([1e-6, 0.5, 1.0 - 1e-6])
    q = dist.quantile(levels)
    exact = norm.cdf((q - 1e20) / (np.sqrt(q) + 1e10))
    assert np.max(np.abs(exact - levels)) <= 1e-6
    assert max(abs(dist.cdf(v) - p) for v, p in zip(q, levels)) <= 1e-6


def test_negligible_scale_folds_into_shift():
    plain = QuadFormDist([2.0], [1.0])
    folded = QuadFormDist([2.0, 1e-30], [1.0, 5.0])
    for x in (5.0, 30.0, 80.0):
        assert folded.cdf(x + 25.0) == pytest.approx(plain.cdf(x), abs=1e-9)
    assert folded.mean() == pytest.approx(plain.mean() + 25.0, rel=1e-14)
    # One active term among folded ones takes the ncx2 closed form through
    # both routes, also at x - shift = 4e-12, where the density is singular
    # and the inversion cannot reach 1e-15.
    scales, offsets, shift = [1e-30, 2.0, 1e-25], [5.0, 1.0, 3.0], 34.0
    x = shift + np.array([4e-12, 1e-9, 1e-4, 0.5, 5.0, 40.0])
    exact = ncx2.cdf((x - shift) / 4.0, 1, 0.25)
    dist = QuadFormDist(scales, offsets)
    for got in ([dist.cdf(v) for v in x], cdf_grid([scales], [offsets], x)[0]):
        np.testing.assert_allclose(got, exact, rtol=0.0, atol=1e-15)


def test_one_term_closed_form_matches_scipy_stats():
    # _ncx2's erfc formula against scipy.stats' chi2 and ncx2, on x from
    # 1e-14 to 1e4 and noncentralities 0 and 1e-8 to 1e12, and its central
    # density against chi2's. scipy's ncx2.pdf is off by up to 9e-4
    # relative on this grid (at lam ~ 62, x ~ 1e-9, against 40-digit
    # mpmath), so the noncentral density is checked in the mpmath test.
    x, lam = np.meshgrid(np.geomspace(1e-14, 1e4, 200),
                         np.r_[0.0, np.geomspace(1e-8, 1e12, 99)])
    x, lam = x.ravel(), lam.ravel()
    central = lam == 0.0
    expected = np.empty(x.size)
    expected[central] = chi2.cdf(x[central], 1)
    with np.errstate(over="ignore"):
        expected[~central] = ncx2.cdf(x[~central], 1, lam[~central])
    got, density = quadform._ncx2(x, lam)
    assert np.all(np.isfinite(expected))
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(density[central], chi2.pdf(x[central], 1),
                               rtol=1e-10, atol=0.0)


def test_one_term_closed_form_against_mpmath_oracle():
    # Phi(sqrt x - sqrt lam) - Phi(-sqrt x - sqrt lam) and the density
    # [n(sqrt x - sqrt lam) + n(sqrt x + sqrt lam)] / (2 sqrt x) at 40
    # digits, for lam = 0 and 1e-8 to 1e20, where scipy's chndtr returned
    # NaN from about 1e12 on, and x from 1e-14 through +-8 sd of the bulk.
    mp = pytest.importorskip("mpmath")
    xs, lams = [], []
    for lam in np.r_[0.0, np.geomspace(1e-8, 1e20, 29)]:
        mean, sd = 1.0 + lam, math.sqrt(2.0 + 4.0 * lam)
        bulk = np.linspace(mean - 8.0 * sd, mean + 8.0 * sd, 33)
        x = np.r_[np.geomspace(1e-14, mean + 8.0 * sd, 15), bulk[bulk > 0]]
        xs.append(x)
        lams.append(np.full(x.size, lam))
    x, lam = np.concatenate(xs), np.concatenate(lams)
    with mp.workdps(40):
        expected = np.array([
            float(mp.ncdf(mp.sqrt(v) - mp.sqrt(l))
                  - mp.ncdf(-mp.sqrt(v) - mp.sqrt(l)))
            for v, l in zip(map(mp.mpf, x), map(mp.mpf, lam))])
        expected_density = np.array([
            float((mp.npdf(mp.sqrt(v) - mp.sqrt(l))
                   + mp.npdf(mp.sqrt(v) + mp.sqrt(l))) / (2 * mp.sqrt(v)))
            for v, l in zip(map(mp.mpf, x), map(mp.mpf, lam))])
    got, density = quadform._ncx2(x, lam)
    assert x.size > 1000
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-15)
    # Densities below the double range come out as 0.
    normal = expected_density > 1e-300
    assert np.count_nonzero(normal) > 1000
    np.testing.assert_allclose(density[normal], expected_density[normal],
                               rtol=1e-12, atol=0.0)
    assert np.all(density[~normal] <= 1e-300)


def test_quantile_resolves_low_levels_over_a_folded_shift():
    # The 1e-6 level of a central chi-square(1) term lies 1.57e-12 above
    # the shift of 9 folded in from the second term: a bisection in log x
    # would resolve it only to ~1e-12 of the shift. Net of the shift, each
    # quantile is exact up to rounding at the shift's ulp.
    dist = QuadFormDist([1.0, 1e-30], [0.0, 3.0])
    levels = np.array([1e-6, 1e-3, 0.5, 1.0 - 1e-6])
    q = dist.quantile(levels)
    np.testing.assert_allclose(q - 9.0, chi2.ppf(levels, 1), rtol=1e-9,
                               atol=4.0 * np.spacing(9.0))
    for p, x in zip(levels, q):
        assert dist.cdf(x) == pytest.approx(p, abs=1e-6)


def test_monte_carlo_agreement_random_instances():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        a = 10.0 ** rng.uniform(-2.0, 2.0, n)
        off = rng.normal(0.0, 1.0, n) * a * rng.uniform(0.0, 4.0)
        d = QuadFormDist(a, off)
        samples = d.sample(np.random.default_rng(1234), 200_000)
        for q in (0.05, 0.5, 0.95):
            x = float(np.quantile(samples, q))
            emp = float((samples <= x).mean())
            se = math.sqrt(emp * (1.0 - emp) / samples.size)
            assert abs(d.cdf(x) - emp) <= 3.0 * se + 1e-4


def test_distribution_function_properties():
    d = QuadFormDist([3.0, 1.0, 0.2], [4.0, 0.0, -1.0])
    xs = np.linspace(0.0, d.mean() + 6 * math.sqrt(d.variance()), 60)
    ps = [d.cdf(float(x)) for x in xs]
    assert ps[0] == 0.0
    assert all(0.0 <= p <= 1.0 for p in ps)
    assert all(b >= a - 1e-9 for a, b in zip(ps, ps[1:]))
    for x in xs[::7]:
        assert d.cdf(float(x)) + d.sf(float(x)) == pytest.approx(1.0, abs=2e-7)


def test_kolmogorov_smirnov_against_sampler():
    # KS statistic evaluated on a 300-point grid of sample quantiles;
    # the supremum over this grid bounds the full statistic to within
    # the grid's empirical-cdf increments (~1/300).
    d = QuadFormDist([2.0, 1.0, 0.5], [1.0, -2.0, 0.0])
    samples = np.sort(d.sample(np.random.default_rng(99), 100_000))
    grid = samples[:: len(samples) // 300]
    emp = np.searchsorted(samples, grid, side="right") / samples.size
    model = np.array([d.cdf(float(x)) for x in grid])
    assert float(np.max(np.abs(model - emp))) < 0.006


def test_quantile_round_trip():
    d = QuadFormDist([1.0, 2.0], [0.5, -1.5])
    for p in (0.01, 0.25, 0.5, 0.9, 0.999):
        x = d.quantile(p)
        assert d.cdf(x) == pytest.approx(p, abs=1e-6)
    with pytest.raises(DomainError):
        d.quantile(0.0)
    with pytest.raises(DomainError):
        d.quantile(1.0)


def test_far_tails_saturate_exactly():
    d = QuadFormDist([10.0, 3.0], [100.0, -40.0])
    assert d.cdf(1e-3) == 0.0
    assert d.cdf(d.mean() * 1e4) == 1.0
    assert d.sf(d.mean() * 1e4) == 0.0
    assert d.cdf(-5.0) == 0.0
    assert d.cdf(0.0) == 0.0
    # A one-term form saturates as well, also where x / a^2 overflows.
    one = QuadFormDist([1e-5], [0.0])
    assert one.cdf(1e300) == 1.0
    assert one.cdf(1e-300) == 0.0


def test_slow_phase_tail_regression():
    # Strongly offset terms whose partial sums once tricked the series
    # acceleration into a wildly wrong limit; the result must stay a
    # believable deep-tail probability and grow with the threshold.
    d = QuadFormDist([145149.1, 73468.9, 107628.8],
                     [199267.0, -286844.0, -175733.0])
    ps = [d.cdf(x) for x in (435537.6, 1266435.9, 2448335.5)]
    assert all(0.0 <= p < 1e-9 for p in ps)
    assert ps[0] < ps[1] < ps[2]
    # Independent ceiling: a one-term bound. Q >= (a_1 Z + delta_1)^2,
    # so cdf(x) can never exceed that single factor's cdf.
    single = QuadFormDist([145149.1], [199267.0])
    assert ps[2] <= single.cdf(2448335.5) + 1e-12


def test_near_deterministic_offsets():
    # Huge noncentrality: distribution is nearly Gaussian around its
    # mean; central probabilities must come out finite and ordered.
    a = np.array([1.0, 2.0])
    off = np.array([1500.0, -2200.0])
    d = QuadFormDist(a, off)
    m, s = d.mean(), math.sqrt(d.variance())
    ps = [d.cdf(m + z * s) for z in (-2.0, -0.5, 0.0, 0.5, 2.0)]
    assert all(b > a for a, b in zip(ps, ps[1:]))
    assert ps[2] == pytest.approx(0.5, abs=0.05)
    samples = d.sample(np.random.default_rng(31), 200_000)
    for z, p in zip((-2.0, 0.0, 2.0), (ps[0], ps[2], ps[4])):
        emp = float((samples <= m + z * s).mean())
        se = math.sqrt(max(emp * (1 - emp), 1e-9) / samples.size)
        assert abs(p - emp) <= 3.0 * se + 1e-4


def _two_term_oracle(mp, scales, offsets, x):
    """P((a1 Z1 + d1)^2 + (a2 Z2 + d2)^2 <= x) at the working precision:
    condition on Z1 and integrate the exact one-term probability of the
    second term."""
    a1, a2 = (mp.mpf(v) for v in scales)
    d1, d2 = (mp.mpf(v) for v in offsets)
    x = mp.mpf(x)
    root = mp.sqrt(x)
    lo, hi = (-root - d1) / a1, (root - d1) / a1

    def integrand(z):
        s = mp.sqrt(max(x - (a1 * z + d1) ** 2, 0))
        return mp.npdf(z) * (mp.ncdf((s - d2) / a2) - mp.ncdf((-s - d2) / a2))

    # The Gaussian weight lives on |z| <~ 12, which can be a sliver of a
    # wide interval; without breakpoints there the quadrature misses it.
    inner = {p for p in (-d1 / a1, 0, -4, 4, -12, 12) if lo < p < hi}
    return float(mp.quad(integrand, sorted({lo, hi} | inner)))


def test_two_term_cdf_against_mpmath_oracle():
    mp = pytest.importorskip("mpmath")
    near = QuadFormDist([1.0, 2.0], [1500.0, -2200.0])
    m, s = near.mean(), math.sqrt(near.variance())
    big = ((145149.1, 73468.9), (199267.0, -286844.0))
    cases = [
        # spread weights, 1 against 1e-4
        ((1.0, 1e-2), (0.0, 0.0), 1e-3),
        ((1.0, 1e-2), (0.0, 0.0), 0.5),
        ((1.0, 1e-2), (0.0, 0.0), 9.0),
        ((1.0, 1e-2), (0.5, 0.01), 1.0),
        # near-deterministic offsets
        ((1.0, 2.0), (1500.0, -2200.0), m - 2.0 * s),
        ((1.0, 2.0), (1500.0, -2200.0), m),
        ((1.0, 2.0), (1500.0, -2200.0), m + 2.0 * s),
        # large scales, from the deep lower tail to the centre
        big + (2448335.5,),
        big + (1e9,),
        big + (6e10,),
        # x near 0
        ((1.0, 0.5), (0.0, 0.0), 1e-4),
        ((1.0, 0.5), (0.3, 0.0), 1e-2),
    ]
    for scales, offsets, x in cases:
        with mp.workdps(30):
            expected = _two_term_oracle(mp, scales, offsets, x)
        got = QuadFormDist(scales, offsets).cdf(x)
        # The contract is 1e-7. The inversion reaches ~1e-12 here, and
        # 1e-10 also catches a lost aliasing correction (~1e-8).
        assert abs(got - expected) <= 1e-10, (scales, offsets, x, got,
                                               expected)


def _without_shift(monkeypatch):
    """Make every inversion shift 0, leaving the saturation points alone."""
    prepare = quadform._prepare

    def no_shift(a, d):
        form = prepare(a, d)
        form[4][2] = 0.0
        return form

    monkeypatch.setattr(quadform, "_prepare", no_shift)


def test_unresolved_inversion_raises(monkeypatch):
    # Without its shift the fixed-length sum cannot resolve a distribution
    # concentrated far from zero; the error check must refuse the value.
    _without_shift(monkeypatch)
    d = QuadFormDist([1.0, 2.0], [1500.0, -2200.0])
    with pytest.raises(AccuracyError) as info:
        d.cdf(d.mean())
    assert info.value.achieved > info.value.target


def test_inverted_density_matches_a_central_difference_of_the_cdf():
    # The density _lower_prob returns next to the CDF, in the form's unit,
    # against (F(x + h) - F(x - h)) / 2h, h = 1e-3 min(sd, x - shift), at
    # quantiles 1e-4 ... 1 - 1e-4 of forms the EULER sum inverts.
    forms = [
        ([1.0, 2.0, 0.5], [0.5, -1.5, 0.0]),
        ([2.0, 1e-30, 1.0], [1.0, 5.0, 0.0]),
        ([1.0, 2.0], [1500.0, -2200.0]),
        ([1.0, 1.0], [0.0, 0.0]),
        ([1.0, 0.1, 0.3, 0.01], [2.0, 1e3, -5.0, 0.0]),
    ]
    levels = np.array([1e-4, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0 - 1e-4])
    for scales, offsets in forms:
        dist = QuadFormDist(scales, offsets)
        form = dist._form
        shift, a_max = form[2][0], form[3][0]
        x = dist.quantile(levels)
        h = 1e-3 * np.minimum(np.sqrt(dist.variance()), x - shift)
        cdf, density = quadform._lower_prob(*form, x[None])
        assert 0.0 < cdf.min() and cdf.max() < 1.0
        slope = (quadform._lower_prob(*form, (x + h)[None])[0]
                 - quadform._lower_prob(*form, (x - h)[None])[0]) / (2.0 * h)
        f = density / a_max / a_max
        np.testing.assert_allclose(f, slope, rtol=0.0, atol=1e-5 * f.max())
    # Saturated cells have density 0.
    lo, hi, _ = form[4][:, 0]
    _, density = quadform._lower_prob(
        *form, np.array([[shift + a_max * (a_max * lo),
                          shift + a_max * (a_max * hi)]]))
    assert density.tolist() == [[0.0, 0.0]]


def test_cdf_grid_matches_scalar_calls_bit_for_bit():
    # Forms of 1..6 terms, some with a degenerate term folded into the
    # shift, at points from below zero through both saturated tails.
    rng = np.random.default_rng(44)
    x = np.concatenate([[-1.0, 0.0, 1e-300],
                        np.logspace(-4.0, 5.0, 28)])
    for terms in range(1, 7):
        scales = 10.0 ** rng.uniform(-1.0, 1.0, (6, terms))
        offsets = rng.normal(0.0, 1.0, (6, terms)) * scales * rng.uniform(
            0.0, 5.0, (6, 1))
        offsets[:2] = 0.0
        if terms > 1:
            scales[3, 0] *= 1e-12
            offsets[3, 0] = 2.0
        grid = cdf_grid(scales, offsets, x)
        assert grid.shape == (6, x.size)
        for a, d, row in zip(scales, offsets, grid):
            dist = QuadFormDist(a, d)
            assert [dist.cdf(v) for v in x] == row.tolist()
            assert [dist.sf(v) for v in x] == (1.0 - row).tolist()
    assert np.any(grid == 0.0) and np.any(grid == 1.0)
    assert np.any((grid > 0.0) & (grid < 1.0))
    # Rows with 1, 2 and 3 active terms of three in one call, with folded
    # terms first, middle and last, two in one row, and one whose d / a
    # overflows. A folded term's zero column adds nothing, so each row also
    # equals the form of its active terms alone, at x net of the shift.
    scales = np.array([[1e-12, 2.0, 0.5],
                       [1.5, 1e-13, 0.7],
                       [0.3, 1.2, 1e-200],
                       [1e-14, 3.0, 1e-11],
                       [1.0, 2.0, 0.5],
                       [2.5, 1e-15, 1e-12]])
    offsets = np.array([[2.0, 1.0, 0.0],
                        [0.5, -3.0, 1.0],
                        [1.0, 0.0, 2.0],
                        [1.5, 2.0, -0.5],
                        [0.0, 1.0, -1.0],
                        [3.0, 0.0, 1.0]])
    grid = cdf_grid(scales, offsets, x)
    for a, d, row in zip(scales, offsets, grid):
        dist = QuadFormDist(a, d)
        assert [dist.cdf(v) for v in x] == row.tolist()
        keep = a >= 1e-10 * a.max()
        shift = float(np.sum(d[~keep] ** 2))
        alone = QuadFormDist(a[keep], d[keep])
        assert [alone.cdf(v - shift) for v in x] == row.tolist()


def test_cdf_grid_validation():
    with pytest.raises(DomainError, match="2-d"):
        cdf_grid([1.0, 2.0], [0.0, 0.0], [1.0])
    with pytest.raises(DomainError, match="positive"):
        cdf_grid([[1.0, 0.0]], [[0.0, 0.0]], [1.0])
    with pytest.raises(DomainError, match="finite"):
        cdf_grid([[1.0]], [[0.0]], [np.nan])
    # A batch of no forms has nothing to solve; its curve solve once ran
    # its 100 passes on no rows and raised AccuracyError.
    assert cdf_grid(np.ones((0, 3)), np.zeros((0, 3)), [1.0]).shape == (0, 1)


def _exponent_minimum(w, lam, x):
    """Minimum of K(t) - t x over a dense log-spaced grid of t on the
    side of the mean that x lies on, refined around the best grid point."""
    w_max = float(np.max(w))
    lower = x < float(np.sum(w * (1.0 + lam)))
    if lower:
        grid = -np.logspace(-12.0, 12.0, 4001) / w_max
    else:
        grid = 0.5 / w_max * np.concatenate([
            np.logspace(-12.0, 0.0, 2001)[:-1],
            1.0 - np.logspace(0.0, -12.0, 2001)[1:]])
    for _ in range(3):
        t = grid[:, None]
        r = 1.0 - 2.0 * w * t
        e = np.sum(-0.5 * np.log(r) + lam * w * t / r, axis=1) - grid * x
        best = int(np.argmin(e))
        lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]
        grid = np.linspace(lo, hi, 2001)
    return float(e[best]), lower


def test_tail_classifier_matches_brute_force_minimum():
    # Saturated exactly when the Chernoff exponent's minimum over t is
    # below log 1e-14; cells within 1e-6 of that cut are ties.
    rng = np.random.default_rng(8)
    cut = math.log(1e-14)
    cells = saturated = 0
    for _ in range(300):
        terms = int(rng.integers(2, 7))
        # _curve_points takes forms in units of their largest weight.
        w = 10.0 ** rng.uniform(-4.0, 0.0, terms)
        w /= w.max()
        lam = np.where(rng.random(terms) < 0.3, 0.0,
                       10.0 ** rng.uniform(-2.0, 4.0, terms))
        x = float(np.sum(w * (1.0 + lam))) * 10.0 ** rng.uniform(-3.0, 1.0)
        low, lower = _exponent_minimum(w, lam, x)
        if abs(low - cut) <= 1e-6:
            continue
        expected = 0 if low >= cut else (-1 if lower else 1)
        lo, hi = quadform._curve_points(w[None], lam[None])[0][:, 0]
        side = -1 if x <= lo else (1 if x >= hi else 0)
        assert side == expected, (w, lam, x, low)
        cells += 1
        saturated += expected != 0
    assert cells > 250 and 30 < saturated < cells - 30


def _mp_minimized_exponent(mp, w, lam, x, upper):
    """min over t of K(t) - t x on x's side of the mean, at the working
    precision: K'(t) = x is bisected in log(-t max w) below the mean and
    in -log(1 - 2 t max w) above it. Returns the exponent and t."""
    w = [mp.mpf(v) for v in w]
    lam = [mp.mpf(v) for v in lam]
    x, w_max = mp.mpf(x), max(w)

    def t_of(y):
        return -mp.expm1(-y) / (2 * w_max) if upper else -mp.exp(y) / w_max

    def k1(t):
        return mp.fsum(wi / (1 - 2 * wi * t) * (1 + li / (1 - 2 * wi * t))
                       for wi, li in zip(w, lam))

    # The exponent is stationary in t at the root, so 100 halvings leave
    # an error far below the assertion's tolerance.
    lo, hi = (mp.mpf(0), mp.mpf(60)) if upper else (mp.mpf(-80), mp.mpf(150))
    for _ in range(100):
        mid = (lo + hi) / 2
        if (k1(t_of(mid)) > x) == upper:
            hi = mid
        else:
            lo = mid
    t = t_of((lo + hi) / 2)
    cgf = mp.fsum(-mp.log(1 - 2 * wi * t) / 2 + li * wi * t / (1 - 2 * wi * t)
                  for wi, li in zip(w, lam))
    return cgf - t * x, t


def test_saturation_points_certify_at_50_digits():
    # Forms beyond the brute-force grid's reach: weights over 8 decades,
    # noncentralities up to 1e20. At lo and hi the minimized Chernoff
    # exponent must sit within 1e-6 below log 1e-14. The window widens by
    # the exponent's change across 8 roundings of the point, |t| x 8 eps:
    # at lam ~ 1e20 adjacent doubles differ by ~7e-6 in exponent, so no
    # double would meet the bare window. The inversion shift c is 0, or
    # its minimized exponent is at most log 1e-20, with the same slack.
    # Then the forms where the solve's starts are loosest: central forms
    # with weights down to 1e-9, whose lo starts from E's limit far below
    # the mean, and forms whose lam sum / 2 lies near -log 1e-14 ~ 32,
    # where that limit says least about the point.
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(21)
    cut, shift_cut = math.log(1e-14), math.log(1e-20)
    forms = []
    for terms in list(range(1, 7)) * 4:
        w = 10.0 ** rng.uniform(-8.0, 0.0, terms)
        forms.append((w / w.max(), np.where(
            rng.random(terms) < 0.3, 0.0,
            10.0 ** rng.uniform(-2.0, 20.0, terms))))
    for terms in list(range(2, 7)) * 2:
        w = np.concatenate([[1e-9], 10.0 ** rng.uniform(-9.0, 0.0, terms - 2),
                            [1.0]])
        forms.append((w, np.zeros(terms)))
    for half_sum in (28.0, 32.0, 36.0):
        for terms in range(1, 5):
            w = 10.0 ** rng.uniform(-4.0, 0.0, terms)
            forms.append((w / w.max(),
                          2.0 * half_sum * rng.dirichlet(np.ones(terms))))
    shifts = 0
    for w, lam in forms:
        # As _prepare hands the form on: scales sqrt(w), the largest 1.
        w, lam, _, _, points = quadform._prepare(np.sqrt(w)[None],
                                                 np.sqrt(w * lam)[None])
        w, lam = w[0], lam[0]
        lo, hi, c = points[:, 0]
        assert 0.0 <= c < lo < float(np.sum(w * (1.0 + lam))) < hi
        shifts += c > 0.0
        # Each point, its side, its cut and how far below the cut it may be.
        for x, upper, top, depth in ((lo, False, cut, 1e-6),
                                     (hi, True, cut, 1e-6),
                                     (c, False, shift_cut, np.inf)):
            if x == 0.0:
                continue
            with mp.workdps(50):
                exponent, t = _mp_minimized_exponent(mp, w, lam, x, upper)
                slack = float(abs(t)) * x * 8.0 * np.finfo(float).eps
                gap = float(exponent) - top
            assert -depth - slack <= gap <= slack, (w, lam, x, gap, slack)
    assert shifts >= 20


def test_deep_lower_tail_of_a_form_led_by_a_small_central_term():
    # Below ~1e-8 this form's mass comes from its small central term. On
    # the EULER nodes its large term's |2ws| reaches ~1e17, where lam w s
    # and 2 lam (ws)^2 / (1 + 2ws) cancel to -lam / 2 from ~lam |ws|; the
    # inversion once raised AccuracyError at 1e-18, printed 36 times the
    # value at 1e-16 and 0.0 at 1e-14. Every cell must match a 40-digit
    # quadrature, stay below its Chernoff bound, and rise with x.
    mp = pytest.importorskip("mpmath")
    scales, offsets = [0.00032327, 0.20970056], [0.0, 0.11272637]
    w = [a * a for a in scales]
    lam = [(d / a) ** 2 for a, d in zip(scales, offsets)]
    dist = QuadFormDist(scales, offsets)
    xs = 10.0 ** (-18.0 + 0.5 * np.arange(21))
    got = [dist.cdf(float(x)) for x in xs]
    assert all(b >= a for a, b in zip(got, got[1:])), got
    for x, f in zip(xs, got):
        with mp.workdps(40):
            expected = _two_term_oracle(mp, scales, offsets, x)
            exponent, _ = _mp_minimized_exponent(mp, w, lam, x, False)
            bound = float(mp.exp(exponent))
        assert abs(f - expected) <= 1e-11 * expected, (x, f, expected)
        assert f <= bound, (x, f, bound)


def test_equal_scales_see_the_offsets_only_through_their_norm():
    # With equal scales only |delta|^2 enters, so [d1, d2] and
    # [hypot(d1, d2), 0] give one distribution. The inversion writes their
    # noncentral parts differently, and must agree to its rounding:
    # relative below the mean, absolute everywhere.
    rng = np.random.default_rng(1)
    for _ in range(200):
        a = 10.0 ** rng.uniform(-3.0, 3.0)
        d1, d2 = a * rng.normal(size=2) * 10.0 ** rng.uniform(-1.0, 1.5)
        offsets = [[d1, d2], [math.hypot(d1, d2), 0.0]]
        mean = QuadFormDist([a, a], offsets[0]).mean()
        x = mean * np.geomspace(1e-6, 6.0, 40)
        split, joined = cdf_grid([[a, a], [a, a]], offsets, x)
        gap = np.abs(split - joined)
        assert gap.max() <= 2e-12, (a, d1, d2, gap.max())
        below = x < mean
        assert np.all(gap[below] <= 1e-10 * np.maximum(split, joined)[below]), (
            a, d1, d2)


def _lower_saddle_points(w, lam, x):
    """The saddle points t < 0, K'(t) = x, of the cells x (M,) below their
    unit forms' means, w and lam (L, M), by bisection in log(-t) on
    [-70, 70]: K' falls from the mean to 0 as log(-t) rises."""
    lo, hi = np.full(x.shape, -70.0), np.full(x.shape, 70.0)
    for _ in range(100):
        u = 0.5 * (lo + hi)
        r = 1.0 + 2.0 * w * np.exp(u)
        above = (w / r * (1.0 + lam / r)).sum(axis=0) > x
        lo, hi = np.where(above, u, lo), np.where(above, hi, u)
    return -np.exp(0.5 * (lo + hi))


def test_lower_tails_of_random_forms_meet_their_chernoff_bound():
    # Forms of 2 to 4 terms with scales over four decades, each offset
    # nonzero with probability 0.6 and spread over four decades, at 40
    # points from 1e-8 to 6 times the mean. Below the mean every cell is
    # at most its Chernoff bound exp(E(t)), t its own saddle point, and the
    # CDF does not fall. The upper tail is not held to its bound here: a
    # few cells there exceed it (see quadform's module docstring).
    rng = np.random.default_rng(35)
    cells = {terms: ([], [], [], []) for terms in (2, 3, 4)}
    for _ in range(400):
        terms = int(rng.integers(2, 5))
        scales = 10.0 ** rng.uniform(-4.0, 0.0, terms)
        offsets = np.where(rng.random(terms) < 0.6,
                           scales * 10.0 ** rng.uniform(-2.0, 2.0, terms), 0.0)
        mean = float(np.sum(scales ** 2 + offsets ** 2))
        x = np.geomspace(1e-8, 6.0 * mean, 40)
        f = cdf_grid(scales[None], offsets[None], x)[0]
        below = x < mean
        assert np.all(np.diff(f)[below[1:]] >= 0.0), (scales, offsets)
        # In the unit of the largest weight, term-major, one column per
        # cell, as quadform._exponent sums.
        a_max, n = scales.max(), np.count_nonzero(below)
        w, lam, xs, fs = cells[terms]
        w.append(np.repeat(((scales / a_max) ** 2)[:, None], n, axis=1))
        lam.append(np.repeat(((offsets / scales) ** 2)[:, None], n, axis=1))
        xs.append(x[below] / a_max / a_max)
        fs.append(f[below])
    checked = 0
    for w, lam, x, f in cells.values():
        w, lam, x, f = (np.concatenate(c, axis=-1) for c in (w, lam, x, f))
        t = _lower_saddle_points(w, lam, x)
        exponent, _ = quadform._exponent(w, lam, 2.0 * t)
        over = f > np.exp(exponent) * (1.0 + 1e-9)
        assert not over.any(), (x[over], f[over], np.exp(exponent[over]))
        checked += x.size
    assert checked > 13_000
    print(f"{checked} lower-tail cells of 400 random forms within their "
          f"Chernoff bounds")


def test_deep_lower_tail_sweep_cell_is_exactly_zero():
    # A uniform-impersonator cell of the shipped sweep: x / mean ~ 3e-6,
    # with a Chernoff exponent far below the cut, where a saddle-point
    # search that is not bracketed in log(-t) fails to converge.
    config = cli._load_config(
        str(Path(__file__).parents[1] / "configs" / "baseline.json"))
    scen = cli._scenario_from(config, power_db=55.0)
    (th,) = default_thresholds(scen, at_power_db=50.0, h0_quantiles=(0.99,))
    eve = region_point_set(20, scen.region)[17]
    d = scen.anchors.distances_to(eve)
    sigma = np.sqrt(distance_noise_variance(d, scen.channel))
    dist = QuadFormDist(2.0 * d * sigma, d ** 2 - scen.alice_distances() ** 2)
    assert th < 1e-5 * dist.mean()
    assert dist.cdf(th) == 0.0
    assert cdf_grid(dist.scales[None], dist.offsets[None], [th])[0, 0] == 0.0


def test_subnormal_threshold_is_zero_mass():
    d = QuadFormDist([3.0, 1.0], [0.5, 0.0])
    assert d.cdf(1e-300) == 0.0


def test_constructor_validation():
    with pytest.raises(DomainError, match="positive"):
        QuadFormDist([1.0, 0.0], [0.0, 0.0])
    with pytest.raises(DomainError, match="positive"):
        QuadFormDist([-1.0], [0.0])
    with pytest.raises(DomainError, match="equally long"):
        QuadFormDist([1.0, 2.0], [0.0])
    with pytest.raises(DomainError, match="finite"):
        QuadFormDist([np.inf], [0.0])
    with pytest.raises(DomainError, match="finite"):
        QuadFormDist([1.0], [np.nan])
    with pytest.raises(DomainError, match="finite"):
        QuadFormDist([1.0], [0.0]).cdf(np.inf)


@pytest.mark.parametrize("scales, offsets", [
    ([1e160], [0.0]),             # the mean overflows
    ([1.0], [1e160]),             # so does the offset's square
    ([1.0, 1e-9], [0.0, 1e150]),  # an unfolded term's noncentrality 1e318
    ([1e154], [0.0]),             # finite mean; the tail points overflow
    ([1e-100], [1e54]),           # noncentrality 1e308, doubled to inf
])
def test_forms_beyond_the_float_range_raise(scales, offsets):
    # RuntimeWarnings fail the suite, so each form must be refused before
    # any arithmetic overflows.
    with pytest.raises(DomainError, match="overflows a double"):
        QuadFormDist(scales, offsets).cdf(1.0)
    with pytest.raises(DomainError, match="overflows a double"):
        cdf_grid([scales], [offsets], [1.0])


@pytest.mark.parametrize("scales, offsets", [
    ([1e100], [0.0]),
    ([1e80, 1.0], [0.0, 0.0]),
    ([1e60], [1e100]),
])
def test_variance_beyond_the_float_range_raises(scales, offsets):
    # Construction accepts these forms; their variance overflows a double.
    d = QuadFormDist(scales, offsets)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="variance .*overflows a double"):
            d.variance()
    assert QuadFormDist([1e70], [1e70]).variance() == pytest.approx(6e280)


def test_sampler_shapes():
    d = QuadFormDist([1.0, 2.0], [0.0, 1.0])
    assert isinstance(d.sample(np.random.default_rng(0)), float)
    assert d.sample(np.random.default_rng(0), 10).shape == (10,)
    assert len(d) == 2


def test_batched_quantile_matches_one_level_at_a_time_bit_for_bit():
    levels = np.array([1e-6, 0.01, 0.5, 0.9, 0.99, 1.0 - 1e-6])
    forms = [
        ([1.0, 2.0, 0.5], [0.5, -1.5, 0.0]),   # inversion
        ([3.0], [4.0]),                        # one-term ncx2 closed form
        ([3.0], [0.0]),                        # one-term central
        ([2.0, 1e-30, 1.0], [1.0, 5.0, 0.0]),  # degenerate term as a shift
        ([1.0, 2.0], [1500.0, -2200.0]),       # huge noncentrality
    ]
    for scales, offsets in forms:
        dist = QuadFormDist(scales, offsets)
        batched = dist.quantile(levels)
        assert batched.shape == levels.shape
        alone = [dist.quantile(float(p)) for p in levels]
        assert batched.tolist() == alone
        assert isinstance(alone[0], float)
        for p, x in zip(levels, batched):
            assert abs(dist.cdf(x) - p) <= 5e-12, (scales, p)
        np.testing.assert_array_equal(dist.quantile(levels[::-1].reshape(2, 3)),
                                      batched[::-1].reshape(2, 3))
    with pytest.raises(DomainError):
        dist.quantile([0.5, 1.0])


def test_quantile_matches_exact_quantiles():
    # One-term forms have a density singular at 0, where a stop rule
    # relative to a bracket from 0 leaves deep levels off by ~1e-6.
    levels = np.array([1e-12, 1e-9, 1e-7, 1e-6,
                       *np.linspace(0.01, 0.99, 99), 1.0 - 1e-6])
    cases = [
        (([1.0], [0.0]), lambda x: chi2.cdf(x, 1)),
        (([3.0], [4.0]), lambda x: ncx2.cdf(x / 9.0, 1, 16.0 / 9.0)),
        (([1.0, 1.0], [0.0, 0.0]), lambda x: -np.expm1(-x / 2.0)),
        (([2.0, 2.0, 2.0], [0.0, 0.0, 0.0]), lambda x: chi2.cdf(x / 4.0, 3)),
        (([1.0, 1.0, 1.0, 1.0, 1e-30], [0.0, 0.0, 0.0, 0.0, 3.0]),
         lambda x: chi2.cdf(x - 9.0, 4)),
        (([1.0, 1.0], [2.0, 1.0]), lambda x: ncx2.cdf(x, 2, 5.0)),
    ]
    for (scales, offsets), exact in cases:
        q = QuadFormDist(scales, offsets).quantile(levels)
        assert np.max(np.abs(exact(q) - levels)) <= 1e-10, scales


def test_deep_levels_are_located_relative_to_their_tail():
    # An absolute stop at |cdf - p| <= 1e-12 put the 1e-13 quantile of
    # chi-square(1) 13 times too high. Rounding in the closed form, ~1e-16
    # absolute, limits these levels to ~1e-3 relative.
    levels = np.array([1e-13, 1e-12, 1.0 - 1e-12, 1.0 - 1e-13])
    q = QuadFormDist([1.0], [0.0]).quantile(levels)
    exact = np.r_[chi2.ppf(levels[:2], 1), chi2.isf(1.0 - levels[2:], 1)]
    np.testing.assert_allclose(q, exact, rtol=1e-3)
    # Where noise in the inverted CDF exceeds the tolerance, halvings take
    # over from Newton steps that stall, and the search still ends.
    levels = np.array([1e-15, 1e-13, 1e-11, 0.5, 1.0 - 1e-11, 1.0 - 1e-15])
    dist = QuadFormDist([1.0, 1e-3, 1e-6], [0.0, 1e3, 1e3])
    q = dist.quantile(levels)
    assert max(abs(dist.cdf(x) - p) for x, p in zip(q, levels)) <= 1e-10


def _count_passes(monkeypatch, step, call):
    """The number of calls to quadform's function named step made by each
    call to its function named call, in order: _lower_prob passes per
    quantile search (QuadFormDist.quantile and quantile_grid both make
    one), or _exponent passes per _curve_points solve."""
    passes, per_call = [], []
    counted_step = getattr(quadform, step)
    counted_call = getattr(quadform, call)

    def counting_step(*args):
        passes.append(1)
        return counted_step(*args)

    def counting_call(*args):
        before = len(passes)
        result = counted_call(*args)
        per_call.append(len(passes) - before)
        return result

    monkeypatch.setattr(quadform, step, counting_step)
    monkeypatch.setattr(quadform, call, counting_call)
    return per_call


def test_saturation_points_take_few_newton_passes(monkeypatch):
    # Each row starts from its tail's asymptote: lo from E's limit far
    # below the mean, hi from the middle of its bracket in log z, z = 2t /
    # (1 - 2t), over which log(-E) is nearly linear. From the Gaussian
    # start, the ROC's two forms and each calibration form took 8 passes,
    # the uniform-Eve sweep's 441 forms 9, and the random forms below 7.0
    # on average and at most 11.
    root = Path(__file__).resolve().parents[1]
    per_call = _count_passes(monkeypatch, "_exponent", "_curve_points")
    fixed = cli._load_config(str(root / "configs" / "fixed-eve.json"))
    roc_curve(cli._scenario_from(fixed, power_db=cli._pick_power(fixed, None)),
              points=11)
    for name in ("baseline", "fixed-eve"):
        config = cli._load_config(str(root / "configs" / f"{name}.json"))
        default_thresholds(cli._scenario_from(config, power_db=50.0))
    quadform._prepare(*_uniform_sweep_forms())
    assert per_call == [4, 4, 4, 8]
    # Forms of 2 to 4 terms with scales over four decades, each offset
    # nonzero with probability 0.6 and spread over four decades.
    per_call.clear()
    rng = np.random.default_rng(11)
    for _ in range(400):
        terms = rng.integers(2, 5)
        scales = 10.0 ** rng.uniform(-4.0, 0.0, terms)
        offsets = np.where(rng.random(terms) < 0.6,
                           scales * 10.0 ** rng.uniform(-2.0, 2.0, terms), 0.0)
        QuadFormDist(scales, offsets)._form
    assert len(per_call) == 400
    assert np.mean(per_call) <= 4.8 and max(per_call) <= 11
    print(f"Newton passes per random form: {np.mean(per_call):.2f} on "
          f"average, at most {max(per_call)}")


def test_shipped_quantile_batches_take_few_cdf_passes(monkeypatch):
    # The H0 form of configs/fixed-eve.json: the 101 levels of its ROC at
    # 50 dB, and the 3 levels of its sweep thresholds calibrated at 0, 50
    # and 100 dB. Three shared halvings and Newton steps on F - p took 14
    # and 11 passes; 40 halvings and a check pass took 41.
    config = cli._load_config(str(Path(__file__).resolve().parents[1]
                                  / "configs" / "fixed-eve.json"))
    per_call = _count_passes(monkeypatch, "_lower_prob",
                             "_quantile_search")
    roc_curve(cli._scenario_from(config, power_db=50.0), points=101)
    assert len(per_call) == 1 and per_call[0] <= 6
    per_call.clear()
    for power in (0.0, 50.0, 100.0):
        default_thresholds(cli._scenario_from(config, power_db=power),
                           at_power_db=power)
    assert len(per_call) == 3 and max(per_call) <= 5, per_call


def test_quantiles_of_random_forms_meet_their_documented_bound(monkeypatch):
    # Forms of 1 to 5 terms with scales over four decades, each offset 0 or
    # up to 30 of its scale, at levels from 1e-10 to 1 - 1e-10: every level
    # ends within the step cap and 1e-6 of its level, and the batch equals
    # its levels solved one at a time.
    rng = np.random.default_rng(18)
    levels = np.array([1e-10, 1e-6, 0.01, 0.5, 0.99, 1.0 - 1e-6,
                       1.0 - 1e-10])
    per_call = _count_passes(monkeypatch, "_lower_prob",
                             "_quantile_search")
    for _ in range(200):
        terms = rng.integers(1, 6)
        scales = 10.0 ** rng.uniform(-4.0, 0.0, terms)
        offsets = np.where(rng.random(terms) < 0.5, 0.0,
                           scales * rng.uniform(-30.0, 30.0, terms))
        dist = QuadFormDist(scales, offsets)
        q = dist.quantile(levels)
        assert [dist.quantile(p) for p in levels] == q.tolist()
        assert np.max(np.abs(dist._cdf(q) - levels)) <= 1e-6, (scales,
                                                                offsets)
    batches = per_call[::len(levels) + 1]
    assert max(per_call) <= quadform._QUANTILE_STEPS
    print(f"CDF passes per batch of {len(levels)} levels: at most "
          f"{max(batches)}, {np.mean(batches):.1f} on average")


def test_quantile_grid_matches_quantile_and_cdf_grid_bit_for_bit():
    # Batches of 2 to 4 forms with equally many terms, drawn as in the
    # random-form test; on every other batch rows 1... are row 0 with its
    # scales and offsets perturbed by up to 20 %, so their CDF at row 0's
    # quantiles is inverted rather than saturated.
    rng = np.random.default_rng(19)
    levels = np.array([1e-10, 1e-6, 0.01, 0.5, 0.99, 1.0 - 1e-6,
                       1.0 - 1e-10])
    inverted = 0
    for batch in range(100):
        forms, terms = rng.integers(2, 5), rng.integers(1, 6)
        scales = 10.0 ** rng.uniform(-4.0, 0.0, (forms, terms))
        offsets = np.where(rng.random((forms, terms)) < 0.5, 0.0,
                           scales * rng.uniform(-30.0, 30.0,
                                                (forms, terms)))
        if batch % 2:
            scales[1:] = scales[0] * rng.uniform(0.8, 1.2, (forms - 1, terms))
            offsets[1:] = offsets[0] * rng.uniform(0.8, 1.2,
                                                   (forms - 1, terms))
        x, cdf = quantile_grid(scales, offsets, levels)
        assert x.shape == levels.shape and cdf.shape == (forms, levels.size)
        assert np.array_equal(
            x, QuadFormDist(scales[0], offsets[0]).quantile(levels))
        assert np.array_equal(cdf, cdf_grid(scales, offsets, x))
        inverted += np.count_nonzero((cdf[1:] > 0.0) & (cdf[1:] < 1.0))
    assert inverted >= 500


def test_quantile_grid_validation():
    with pytest.raises(DomainError, match="2-d"):
        quantile_grid([1.0, 2.0], [0.0, 0.0], [0.5])
    with pytest.raises(DomainError, match="positive"):
        quantile_grid([[1.0, 0.0]], [[0.0, 0.0]], [0.5])
    with pytest.raises(DomainError, match="1-d"):
        quantile_grid([[1.0]], [[0.0]], [[0.5]])
    for p in (0.0, 1.0, np.nan):
        with pytest.raises(DomainError, match=r"\(0, 1\)"):
            quantile_grid([[1.0]], [[0.0]], [0.5, p])


def test_batched_quantile_raises_on_unresolved_inversion(monkeypatch):
    _without_shift(monkeypatch)
    for levels in (0.5, [1e-6, 0.5, 1.0 - 1e-6]):
        d = QuadFormDist([1.0, 2.0], [1500.0, -2200.0])
        with pytest.raises(AccuracyError) as info:
            d.quantile(levels)
        assert info.value.achieved > info.value.target


def test_batched_inversion_matches_per_cell_calls_bit_for_bit():
    # Cells the classifier leaves to the inversion, more than one chunk of
    # them, so the chunk seam is crossed; forms in units of their largest
    # weight, as _prepare hands them on.
    rng = np.random.default_rng(12)
    for terms in (1, 3, 6):
        n = 2 * quadform._EULER_CHUNK
        w = 10.0 ** rng.uniform(-3.0, 1.0, (n, terms))
        w /= w.max(axis=1, keepdims=True)
        lam = np.where(rng.random((n, terms)) < 0.3, 0.0,
                       10.0 ** rng.uniform(-2.0, 6.0, (n, terms)))
        sd = np.sqrt(np.sum(2.0 * w * w * (1.0 + 2.0 * lam), axis=1))
        x = np.sum(w * (1.0 + lam), axis=1) + sd * rng.uniform(-2.0, 4.0, n)
        w, lam, _, _, (lo, hi, c) = quadform._prepare(np.sqrt(w),
                                                      np.sqrt(w * lam))
        keep = (x > lo) & (x < hi)
        w, lam, c, x = w[keep], lam[keep], c[keep], x[keep]
        n = np.count_nonzero(keep)
        assert n > quadform._EULER_CHUNK
        batch, density = quadform._euler_cdf(w, lam, c, x)
        single = [quadform._euler_cdf(w[i:i + 1], lam[i:i + 1], c[i:i + 1],
                                      x[i:i + 1]) for i in range(n)]
        assert batch.tolist() == [p[0] for p, _ in single]
        assert density.tolist() == [f[0] for _, f in single]
        assert np.all((batch > -1e-7) & (batch < 1.0 + 1e-7))
    # Without the shift, far-off forms fail; the batch reports the worst.
    w = np.array([[0.25, 1.0], [0.25, 1.0], [0.25, 1.0]])
    lam = np.array([[1500.0 ** 2, 1100.0 ** 2]] * 2 + [[1.0, 1.0]])
    x = np.sum(w * (1.0 + lam), axis=1)
    achieved = []
    for i in range(2):
        with pytest.raises(AccuracyError) as info:
            quadform._euler_cdf(w[i:i + 1], lam[i:i + 1], np.zeros(1),
                                x[i:i + 1] * (1.0 + 0.01 * i))
        achieved.append(info.value.achieved)
    with pytest.raises(AccuracyError) as info:
        quadform._euler_cdf(w, lam, np.zeros(3), x * [1.0, 1.01, 1.0])
    assert info.value.achieved == max(achieved)


def test_log_planes_match_complex_log1p():
    # log(1 + 2ws) = log|1 + 2ws|^2 / 2 + i arg(1 + 2ws) in real arithmetic,
    # on a chunk whose |2ws| runs from ~2e-20 to ~5e19. Against numpy's
    # complex log1p, each part agrees within 4 ulps of max(|log(1 + 2ws)|,
    # 1): an absolute error in log phi is a relative error in phi. Against
    # 30-digit mpmath, from the same doubles w / t, each part is within 4
    # ulps of itself; numpy's complex log1p, whose real part is
    # log(hypot(1 + u, v)), loses that part entirely at |2ws| ~ 1e-20. A
    # folded term, w = 0, gives exactly 0 in both parts.
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(32)
    w = 10.0 ** rng.uniform(-20.0, 0.0, (8, 4))
    w[:, 0] = 1.0
    w[::3, 2] = 0.0
    t = 10.0 ** rng.uniform(-18.0, 2.0, 8)
    log_abs2, arg = quadform._log_planes(w, t)
    assert log_abs2.shape == arg.shape == (8, 4, 2, 66)
    got = 0.5 * log_abs2 + 1j * arg
    s = quadform._EULER_NODES / (2.0 * t[:, None, None])
    two_ws = 2.0 * (w[:, :, None, None] * s[:, None])
    size = np.abs(two_ws[two_ws != 0.0])
    assert size.min() < 1e-19 and size.max() > 1e19
    expected = np.log1p(two_ws)
    eps = np.finfo(float).eps
    scale = 4.0 * eps * np.maximum(np.abs(expected), 1.0)
    assert np.all(np.abs(got.real - expected.real) <= scale)
    assert np.all(np.abs(got.imag - expected.imag) <= scale)
    folded = np.broadcast_to((w == 0.0)[:, :, None, None], got.shape)
    assert folded.any()
    assert not log_abs2[folded].any() and not arg[folded].any()
    worst = 0.0
    with mp.workdps(30):
        for (m, term, a, k), value in np.ndenumerate(got):
            if folded[m, term, a, k]:
                continue
            ref = mp.log1p(mp.mpf(w[m, term]) / mp.mpf(t[m]) * mp.mpc(
                quadform._EULER_A[a], quadform._EULER_NODE_IM[k]))
            for part, want in ((value.real, ref.real), (value.imag, ref.imag)):
                if want == 0:  # the imaginary part at k = 0
                    assert part == 0.0
                else:
                    worst = max(worst, abs(float(mp.mpf(part) / want - 1)))
    assert worst <= 4.0 * eps


def test_log_planes_add_in_term_order():
    # _euler_chunk sums each _log_planes plane over its term axis. For a
    # 9-term form, at one cell, a few and a whole chunk, that sum is an
    # explicit loop over the terms, first to last, bit for bit.
    rng = np.random.default_rng(33)
    for cells in (1, 5, quadform._EULER_CHUNK):
        w = 10.0 ** rng.uniform(-6.0, 0.0, (cells, 9))
        t = 10.0 ** rng.uniform(-2.0, 2.0, cells)
        for plane in quadform._log_planes(w, t):
            loop = plane[:, 0].copy()
            for term in range(1, 9):
                loop += plane[:, term]
            assert plane.sum(axis=1).tobytes() == loop.tobytes()


def _uniform_sweep_forms():
    """Scales and offsets (441, 3) of the uniform-Eve sweep's forms in
    its cdf_grid batch: the legitimate node and 20 region points at each
    of 21 powers."""
    scen = baseline_scenario(eve=None)
    d0 = scen.alice_distances()
    d_eve = scen.anchors.distances_to(region_point_set(20, scen.region))
    grid = default_power_grid()
    a0, off0 = statistic_form(d0, d0, scen.channel, powers_db=grid)
    a1, off1 = statistic_form(d_eve, d0, scen.channel, powers_db=grid)
    a = np.concatenate([a0[:, None], a1], axis=1).reshape(-1, 3)
    off = np.concatenate([np.broadcast_to(off0, a0[:, None].shape),
                          np.broadcast_to(off1, a1.shape)],
                         axis=1).reshape(-1, 3)
    return a, off


def test_saddle_curve_points_of_a_mixed_batch_are_each_forms_own():
    # The uniform-Eve sweep's 441 forms and forms with folded terms, in
    # one batch: its rows meet their windows after different numbers of
    # steps, a row that has met its window stays where it met it, and
    # each row's points are bit for bit those of its form solved alone.
    a, off = _uniform_sweep_forms()
    assert len(a) == 441
    rng = np.random.default_rng(48)
    a_folded = 10.0 ** rng.uniform(-2.0, 2.0, (40, 3))
    a_folded[:, 1] *= 1e-12  # below _DEGENERATE_RTOL of the largest
    a_folded[::2, 2] *= 1e-13
    off_folded = rng.normal(0.0, 3.0, (40, 3)) * a_folded.max(axis=1)[:, None]
    w, lam = quadform._prepare(np.concatenate([a, a_folded]),
                               np.concatenate([off, off_folded]))[:2]
    assert np.count_nonzero(w == 0.0) == 60
    batch = np.array(quadform._curve_points(w, lam))
    for k in range(len(w)):
        alone = np.array(quadform._curve_points(w[k:k + 1], lam[k:k + 1]))
        assert batch[..., k].tobytes() == alone[..., 0].tobytes(), k


def test_sampler_matches_the_plain_expression():
    # The sampler adds columns left to right. numpy's row sum does the
    # same for rows shorter than 8, so up to 7 terms the output is
    # ((a z + delta)^2).sum(axis=1) bit for bit; longer rows, which numpy
    # adds in blocks of 8, agree up to rounding.
    rng = np.random.default_rng(3)
    for terms in (1, 2, 3, 5, 7, 8, 11):
        a = 10.0 ** rng.uniform(-2.0, 2.0, terms)
        off = rng.normal(0.0, 3.0, terms) * a
        dist = QuadFormDist(a, off)
        z = np.random.default_rng(terms).standard_normal((5000, terms))
        plain = ((a * z + off) ** 2).sum(axis=1)
        drawn = dist.sample(np.random.default_rng(terms), 5000)
        if terms < 8:
            np.testing.assert_array_equal(drawn, plain)
        else:
            np.testing.assert_allclose(drawn, plain, rtol=1e-14)
        assert dist.sample(np.random.default_rng(terms)) == drawn[0]
