"""Distribution of weighted noncentral chi-square sums.

Reference values come from routes the implementation does not take:
normal-cdf differences for one term, the library chi-square family for
equal weights, a 30-digit mpmath quadrature for two terms, a 50-digit
mpmath saddle-point solve for the saturation points, and plain Monte Carlo
everywhere else.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2, ncx2, norm

from uwauth import AccuracyError, DomainError, QuadFormDist, cli, quadform
from uwauth.channel import distance_noise_variance
from uwauth.experiment import default_thresholds, region_point_set
from uwauth.quadform import cdf_grid


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
    for c in (1e-3, 12.0, 1e5):
        scaled = QuadFormDist(c * a, c * off)
        for q in (0.1, 0.5, 0.9):
            x = base.mean() + (q - 0.5) * 2.0 * math.sqrt(base.variance())
            x = max(x, base.mean() * 0.05)
            assert scaled.cdf(c * c * x) == pytest.approx(base.cdf(x),
                                                          abs=2e-7)


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
    # _ncx2_cdf calls the scipy.special functions behind chi2.cdf and
    # ncx2.cdf; on x from 1e-14 to 1e4 and noncentralities 0 and 1e-8 to
    # 1e12 the two agree bit for bit on scipy 1.17.
    x, lam = np.meshgrid(np.geomspace(1e-14, 1e4, 200),
                         np.r_[0.0, np.geomspace(1e-8, 1e12, 99)])
    x, lam = x.ravel(), lam.ravel()
    central = lam == 0.0
    expected = np.empty(x.size)
    expected[central] = chi2.cdf(x[central], 1)
    with np.errstate(over="ignore"):
        expected[~central] = ncx2.cdf(x[~central], 1, lam[~central])
    got = quadform._ncx2_cdf(x, lam)
    assert np.all(np.isfinite(expected))
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)


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
    """P((a1 Z1 + d1)^2 + (a2 Z2 + d2)^2 <= x) at 30 digits: condition on
    Z1 and integrate the exact one-term probability of the second term."""
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
    solve = quadform._curve_points

    def no_shift(w, lam):
        points = solve(w, lam)
        points[2] = 0.0
        return points

    monkeypatch.setattr(quadform, "_curve_points", no_shift)


def test_unresolved_inversion_raises(monkeypatch):
    # Without its shift the fixed-length sum cannot resolve a distribution
    # concentrated far from zero; the error check must refuse the value.
    _without_shift(monkeypatch)
    d = QuadFormDist([1.0, 2.0], [1500.0, -2200.0])
    with pytest.raises(AccuracyError) as info:
        d.cdf(d.mean())
    assert info.value.achieved > info.value.target


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
        w = 10.0 ** rng.uniform(-4.0, 0.0, terms)
        lam = np.where(rng.random(terms) < 0.3, 0.0,
                       10.0 ** rng.uniform(-2.0, 4.0, terms))
        x = float(np.sum(w * (1.0 + lam))) * 10.0 ** rng.uniform(-3.0, 1.0)
        low, lower = _exponent_minimum(w, lam, x)
        if abs(low - cut) <= 1e-6:
            continue
        expected = 0 if low >= cut else (-1 if lower else 1)
        lo, hi, _ = quadform._curve_points(w[None], lam[None])[:, 0]
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
    # double would meet the bare window.
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(21)
    cut = math.log(1e-14)
    for terms in list(range(1, 7)) * 4:
        w = 10.0 ** rng.uniform(-8.0, 0.0, terms)
        lam = np.where(rng.random(terms) < 0.3, 0.0,
                       10.0 ** rng.uniform(-2.0, 20.0, terms))
        lo, hi, _ = quadform._curve_points(w[None], lam[None])[:, 0]
        assert 0.0 < lo < float(np.sum(w * (1.0 + lam))) < hi
        for x, upper in ((lo, False), (hi, True)):
            with mp.workdps(50):
                exponent, t = _mp_minimized_exponent(mp, w, lam, x, upper)
                slack = float(abs(t)) * x * 8.0 * np.finfo(float).eps
                gap = float(exponent) - cut
            assert -1e-6 - slack <= gap <= slack, (w, lam, upper, gap, slack)


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


def test_sampler_shapes():
    d = QuadFormDist([1.0, 2.0], [0.0, 1.0])
    assert isinstance(d.sample(np.random.default_rng(0)), float)
    assert d.sample(np.random.default_rng(0), 10).shape == (10,)
    assert len(d) == 2


def _cold_bisection(dist, p):
    """One level at a time, through scalar cdf calls: a fixed number of
    halvings in log(x - shift) between the form's points lo and hi, as
    quantile documents."""
    _, _, (shift,), points = dist._form
    lo, hi, _ = points[:, 0]
    y_lo, y_hi = np.log(lo), np.log(hi)
    for _ in range(quadform._QUANTILE_HALVINGS):
        mid = 0.5 * (y_lo + y_hi)
        if dist.cdf(shift + np.exp(mid)) < p:
            y_lo = mid
        else:
            y_hi = mid
    return float(shift + np.exp(0.5 * (y_lo + y_hi)))


def test_batched_quantile_matches_cold_bisection_bit_for_bit():
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
        expected = [_cold_bisection(dist, p) for p in levels]
        np.testing.assert_array_equal(batched, expected)
        assert [dist.quantile(float(p)) for p in levels] == expected
        assert isinstance(dist.quantile(0.5), float)
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


def test_batched_quantile_raises_on_unresolved_inversion(monkeypatch):
    _without_shift(monkeypatch)
    for levels in (0.5, [1e-6, 0.5, 1.0 - 1e-6]):
        d = QuadFormDist([1.0, 2.0], [1500.0, -2200.0])
        with pytest.raises(AccuracyError) as info:
            d.quantile(levels)
        assert info.value.achieved > info.value.target


def test_batched_inversion_matches_per_cell_calls_bit_for_bit():
    # Cells the classifier leaves to the inversion, more than one chunk of
    # them, so the chunk seam is crossed.
    rng = np.random.default_rng(12)
    for terms in (1, 3, 6):
        n = 2 * quadform._EULER_CHUNK
        w = 10.0 ** rng.uniform(-3.0, 1.0, (n, terms))
        lam = np.where(rng.random((n, terms)) < 0.3, 0.0,
                       10.0 ** rng.uniform(-2.0, 6.0, (n, terms)))
        sd = np.sqrt(np.sum(2.0 * w * w * (1.0 + 2.0 * lam), axis=1))
        x = np.sum(w * (1.0 + lam), axis=1) + sd * rng.uniform(-2.0, 4.0, n)
        lo, hi, c = quadform._curve_points(w, lam)
        keep = (x > lo) & (x < hi)
        w, lam, c, x = w[keep], lam[keep], c[keep], x[keep]
        n = np.count_nonzero(keep)
        assert n > quadform._EULER_CHUNK
        batch = quadform._euler_cdf(w, lam, c, x)
        single = [quadform._euler_cdf(w[i:i + 1], lam[i:i + 1], c[i:i + 1],
                                      x[i:i + 1])[0] for i in range(n)]
        assert batch.tolist() == single
        assert np.all((batch > -1e-7) & (batch < 1.0 + 1e-7))
    # Without the shift, far-off forms fail; the batch reports the worst.
    w = np.array([[1.0, 4.0], [1.0, 4.0], [1.0, 4.0]])
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
