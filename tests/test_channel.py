"""Absorption, pathloss, and range-noise variance against hand-derived values."""

import dataclasses
from fractions import Fraction
import math
import warnings

import numpy as np
import pytest

from uwauth import (
    ChannelParams,
    DomainError,
    absorption_db_per_km,
    distance_noise_variance,
    pathloss_db,
)
from uwauth.channel import _noise_variance

# Absorption at 10 kHz, summed term by term in exact rational arithmetic:
# 0.11*f^2/(1+f^2) + 44*f^2/(4100+f^2) + 2.75e-4*f^2 + 0.003 with f^2 = 100.
ALPHA_10 = float(
    Fraction(11, 100) * Fraction(100, 101)
    + 44 * Fraction(100, 4200)
    + Fraction(275, 1_000_000) * 100
    + Fraction(3, 1000)
)


def test_absorption_matches_rational_sum():
    assert absorption_db_per_km(10.0) == pytest.approx(ALPHA_10, rel=1e-12)
    assert ALPHA_10 == pytest.approx(1.1870299387081564, rel=1e-15)


def test_absorption_increases_with_frequency():
    f = np.geomspace(0.1, 100.0, 40)
    alpha = absorption_db_per_km(f)
    assert np.all(np.diff(alpha) > 0)


def test_absorption_vector_matches_scalar():
    f = np.array([0.5, 10.0, 25.0])
    vec = absorption_db_per_km(f)
    assert vec.shape == (3,)
    for fi, ai in zip(f, vec):
        assert absorption_db_per_km(float(fi)) == pytest.approx(ai, rel=1e-15)
    assert isinstance(absorption_db_per_km(10.0), float)


@pytest.mark.parametrize("bad", [0.0, -3.0, float("nan"), float("inf")])
def test_absorption_rejects_nonpositive_frequency(bad):
    with pytest.raises(DomainError, match="frequency must be positive"):
        absorption_db_per_km(bad)


@pytest.mark.parametrize("call", [
    lambda: absorption_db_per_km(1e200),
    lambda: absorption_db_per_km(np.array([10.0, 1e200])),
    lambda: pathloss_db(1000.0, ChannelParams(frequency_khz=1e200)),
], ids=["scalar", "array", "pathloss"])
def test_overflowing_frequency_raises_without_warning(call):
    # 1e200 kHz is finite, so ChannelParams accepts it, but its square
    # overflows to inf.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="absorption overflows"):
            call()


@pytest.mark.parametrize("distance, params", [
    (1e300, ChannelParams(frequency_khz=1e10)),
    (np.array([500.0, 1e300]), ChannelParams(frequency_khz=1e10)),
    (1e300, ChannelParams(spreading_factor=1e308)),
    (1.0, ChannelParams(spreading_factor=1e308)),
    (1e-300, ChannelParams(spreading_factor=1e307)),
], ids=["absorption", "absorption-array", "spreading", "spreading-at-1m",
        "spreading-near-0m"])
def test_pathloss_that_is_not_finite_raises_without_warning(distance, params):
    # Each factor is finite: 1e297 km times 2.75e16 dB/km overflows the
    # absorption term, and 1e308 * 10 the spreading term, which at 1 m
    # gives inf * 0 = nan.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="pathloss is not finite"):
            pathloss_db(distance, params)


def test_pathloss_at_500m():
    # 1.5 spreading decades plus half a kilometer of absorption.
    expected = 15.0 * math.log10(500.0) + 0.5 * ALPHA_10
    params = ChannelParams()
    assert pathloss_db(500.0, params) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(41.078065034394356, rel=1e-12)


def test_pathloss_at_one_meter_is_absorption_only():
    # log10(1) = 0 kills the spreading term.
    params = ChannelParams()
    assert pathloss_db(1.0, params) == pytest.approx(0.001 * ALPHA_10, rel=1e-12)
    assert pathloss_db(1.0, params) == pytest.approx(0.0011870299387081564,
                                                     rel=1e-12)


def test_pathloss_at_anchor_diagonal():
    d = math.hypot(500.0, 500.0)
    expected = 15.0 * math.log10(d) + (d / 1000.0) * ALPHA_10
    assert pathloss_db(d, ChannelParams()) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(43.58163195165213, rel=1e-12)


def test_pathloss_spreading_factor_scales_log_term():
    p1 = ChannelParams(spreading_factor=1.0)
    p2 = ChannelParams(spreading_factor=2.0)
    d = 250.0
    gap = pathloss_db(d, p2) - pathloss_db(d, p1)
    assert gap == pytest.approx(10.0 * math.log10(d), rel=1e-12)


def test_pathloss_monotone_in_distance():
    d = np.geomspace(1.0, 5000.0, 60)
    pl = pathloss_db(d, ChannelParams())
    assert np.all(np.diff(pl) > 0)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
def test_pathloss_rejects_nonpositive_distance(bad):
    with pytest.raises(DomainError, match="distance must be positive"):
        pathloss_db(bad, ChannelParams())


def test_variance_chain_at_500m():
    # c^2 * 10^(PL/10) / (4 * 10^(P/10) * gain), assembled independently.
    params = ChannelParams(transmit_power_db=60.0)
    pl = 15.0 * math.log10(500.0) + 0.5 * ALPHA_10
    expected = 1500.0 ** 2 * 10.0 ** (pl / 10.0) / (4.0 * 10.0 ** 6.0)
    assert distance_noise_variance(500.0, params) == pytest.approx(
        expected, rel=1e-12)
    assert expected == pytest.approx(7209.896497884118, rel=1e-12)


def test_variance_against_a_40_digit_transcription():
    # c^2 * 10^(PL/10) / (4 * 10^(P/10) * gain) at 40 digits, with
    # PL = spreading * 10 log10(d) + (d / 1000) * Thorp(f), each input and
    # constant the double the program uses, over distances from 1 m to
    # 100 km and powers from -300 to 300 dB, at the default channel and at
    # one whose pathloss reaches ~710 dB. The program forms 10^(PL/10) as
    # exp(PL * ln(10) / 10) from a rounded PL, so its relative error grows
    # with PL; 2.7e-14 was the worst here.
    mp = pytest.importorskip("mpmath")
    d = np.geomspace(1.0, 1e5, 41)
    powers = np.r_[np.linspace(-300.0, 300.0, 25), -123.45, 0.37, 77.7]
    worst = 0.0
    for params in (ChannelParams(),
                   ChannelParams(frequency_khz=25.0, sound_speed_mps=1480.0,
                                 spreading_factor=2.0,
                                 signal_design_gain=3.7)):
        with mp.workdps(40):
            f2 = mp.mpf(params.frequency_khz) ** 2
            alpha = (mp.mpf(0.11) * f2 / (1 + f2) + 44 * f2 / (4100 + f2)
                     + mp.mpf(2.75e-4) * f2 + mp.mpf(0.003))
            c = mp.mpf(params.sound_speed_mps)
            linear = [c * c * mp.power(10, (mp.mpf(params.spreading_factor)
                                            * 10 * mp.log10(mp.mpf(x))
                                            + mp.mpf(x) / 1000 * alpha) / 10)
                      for x in d]
            for p in powers:
                got = distance_noise_variance(d, dataclasses.replace(
                    params, transmit_power_db=float(p)))
                power = 4 * mp.power(10, mp.mpf(p) / 10) * mp.mpf(
                    params.signal_design_gain)
                worst = max(worst, max(abs(float(mp.mpf(v) * power / x - 1))
                                       for v, x in zip(got, linear)))
    assert worst <= 1e-13


def test_variance_drops_tenfold_per_10db_of_power():
    d = 800.0
    base = distance_noise_variance(d, ChannelParams(transmit_power_db=40.0))
    for extra in (10.0, 20.0, 30.0):
        params = ChannelParams(transmit_power_db=40.0 + extra)
        assert distance_noise_variance(d, params) == pytest.approx(
            base / 10.0 ** (extra / 10.0), rel=1e-12)


@pytest.mark.parametrize("power_db", [4000.0, -4000.0])
@pytest.mark.parametrize("distance", [500.0, np.array([300.0, 500.0])])
def test_variance_out_of_float_range_raises(power_db, distance):
    # 10^400 overflows and 10^-400 underflows to 0, so the variance is 0
    # or inf; scalar and array distances are refused alike.
    params = ChannelParams(transmit_power_db=power_db)
    with pytest.raises(DomainError, match="not finite and positive"):
        distance_noise_variance(distance, params)


def test_power_axis_variance_is_the_per_power_variance_bit_for_bit():
    # Non-integer powers over a range where numpy's array ** and scalar **
    # round 10^(p/10) differently for some of them; the power axis must
    # give each power's scalar result.
    powers = np.linspace(-2500.0, 2500.0, 2001) + 0.37
    p_lin = np.float64(10.0) ** (powers / 10.0)
    assert any(p_lin[k] != np.float64(10.0) ** (float(p) / 10.0)
               for k, p in enumerate(powers))
    params = ChannelParams(signal_design_gain=3.7)
    d = np.array([[120.5, 733.3, 1410.0], [5.2, 88.8, 2999.9]])
    var = _noise_variance(d, params, powers[:, None, None])
    at_500 = _noise_variance(500.0, params, powers)
    assert var.shape == (2001, 2, 3) and at_500.shape == (2001,)
    for p, v, v500 in zip(powers, var, at_500):
        at_p = dataclasses.replace(params, transmit_power_db=float(p))
        assert v.tobytes() == distance_noise_variance(d, at_p).tobytes()
        assert v500 == distance_noise_variance(500.0, at_p)


@pytest.mark.parametrize("power_db", [4000.0, -4000.0])
def test_power_axis_variance_out_of_float_range_raises_without_warning(
        power_db):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="not finite and positive"):
            _noise_variance(np.array([300.0, 500.0]), ChannelParams(),
                            np.array([[50.0], [power_db]]))


def test_variance_inverse_in_design_gain():
    d = 300.0
    v1 = distance_noise_variance(d, ChannelParams(signal_design_gain=1.0))
    v2 = distance_noise_variance(d, ChannelParams(signal_design_gain=50.0))
    assert v1 / v2 == pytest.approx(50.0, rel=1e-12)


def test_variance_monotone_in_distance():
    d = np.geomspace(5.0, 3000.0, 50)
    var = distance_noise_variance(d, ChannelParams())
    assert var.shape == d.shape
    assert np.all(np.diff(var) > 0)


def test_params_validation_messages():
    with pytest.raises(DomainError, match="frequency must be positive"):
        ChannelParams(frequency_khz=0.0)
    with pytest.raises(DomainError, match="sound speed must be positive"):
        ChannelParams(sound_speed_mps=-1.0)
    with pytest.raises(DomainError, match="spreading factor must be positive"):
        ChannelParams(spreading_factor=0.0)
    with pytest.raises(DomainError, match="signal design gain must be positive"):
        ChannelParams(signal_design_gain=0.0)
    with pytest.raises(DomainError, match="transmit power must be finite"):
        ChannelParams(transmit_power_db=float("inf"))


@pytest.mark.parametrize("field", ["frequency_khz", "sound_speed_mps",
                                   "spreading_factor", "transmit_power_db",
                                   "signal_design_gain"])
def test_params_reject_non_finite_fields(field):
    with pytest.raises(DomainError, match="must be finite"):
        ChannelParams(**{field: math.inf})


def test_scalar_absorption_equals_the_array_path_bit_for_bit():
    # Scalars are worked in Python floats and arrays in numpy; both take
    # the same IEEE operations in the same order.
    grid = np.geomspace(1e-3, 1e150, 4001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vec = absorption_db_per_km(grid)
        scalars = [absorption_db_per_km(f) for f in grid.tolist()]
        numpy_scalars = [absorption_db_per_km(f) for f in grid]
    assert all(type(a) is float for a in scalars)
    assert np.array(scalars).tobytes() == vec.tobytes()
    assert np.array(numpy_scalars).tobytes() == vec.tobytes()
    for f, kind in ((10, int), (np.float32(10.0), float), (np.int64(10), int)):
        assert absorption_db_per_km(f) == absorption_db_per_km(kind(f))


@pytest.mark.parametrize("bad, message", [
    (0, "frequency must be positive"),
    (-1e-300, "frequency must be positive"),
    (np.float64("nan"), "frequency must be positive"),
    (-math.inf, "frequency must be positive"),
    (2e154, "absorption overflows"),
    (np.float64(1e300), "absorption overflows"),
])
def test_scalar_absorption_refusals_are_typed_and_silent(bad, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message):
            absorption_db_per_km(bad)
        with pytest.raises(DomainError, match=message):
            absorption_db_per_km(np.array([10.0, bad]))


@pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 0)])
def test_noise_model_passes_empty_distance_arrays_through(shape):
    # The checks are reductions, which empty arrays skip: the results are
    # empty float arrays of the broadcast shape, as before.
    d = np.empty(shape)
    params = ChannelParams()
    powers = np.array([40.0, 50.0]).reshape(2, 1, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for result, expected_shape in (
                (pathloss_db(d, params), shape),
                (distance_noise_variance(d, params), shape),
                (_noise_variance(d, params, powers),
                 np.broadcast_shapes(shape, powers.shape))):
            assert type(result) is np.ndarray and result.dtype == float
            assert result.shape == expected_shape


@pytest.mark.parametrize("bad", [0.0, -0.0, math.nan, -math.inf, math.inf,
                                 [500.0, math.nan], [[500.0, 0.0]],
                                 [math.nan, 0.0], [[300.0], [-1.0]]])
def test_noise_model_refuses_zero_nan_and_infinite_distances(bad):
    # min and max propagate NaN, so a NaN anywhere is refused as the
    # elementwise checks refused it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (pathloss_db, distance_noise_variance):
            with pytest.raises(DomainError, match="distance must be positive"):
                call(bad, ChannelParams())
        with pytest.raises(DomainError, match="distance must be positive"):
            _noise_variance(np.asarray(bad, dtype=float), ChannelParams(),
                            np.array([40.0, 50.0]).reshape(2, 1, 1))


def test_noise_model_keeps_its_result_types():
    params = ChannelParams()
    assert type(pathloss_db(500, params)) is float
    assert type(distance_noise_variance(500, params)) is float
    assert type(pathloss_db(np.asarray(500.0), params)) is np.float64
    assert type(distance_noise_variance(np.asarray(500.0), params)
                ) is np.float64
