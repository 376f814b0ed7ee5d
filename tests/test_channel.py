"""Absorption, pathloss, and range-noise variance against hand-derived values."""

from fractions import Fraction
import math

import numpy as np
import pytest

from uwauth import (
    ChannelParams,
    DomainError,
    absorption_db_per_km,
    distance_noise_variance,
    pathloss_db,
)

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


def test_variance_drops_tenfold_per_10db_of_power():
    d = 800.0
    base = distance_noise_variance(d, ChannelParams(transmit_power_db=40.0))
    for extra in (10.0, 20.0, 30.0):
        params = ChannelParams(transmit_power_db=40.0 + extra)
        assert distance_noise_variance(d, params) == pytest.approx(
            base / 10.0 ** (extra / 10.0), rel=1e-12)


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
