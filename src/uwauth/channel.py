"""Underwater acoustic channel model.

Frequency-dependent absorption (Thorp), log-distance pathloss with an
absorption term, and the variance of time-of-arrival range estimates as a
function of pathloss and transmit power.

Unit conventions: frequencies in kHz, distances in meters, absorption in
dB/km, pathloss and transmit power in dB, sound speed in m/s, range
variance in m^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "ChannelParams",
    "absorption_db_per_km",
    "pathloss_db",
    "distance_noise_variance",
]


@dataclass(frozen=True)
class ChannelParams:
    """Channel and transceiver configuration.

    signal_design_gain is the scalar processing gain of the ranging
    waveform (matched-filter curvature); ToA variance scales as its
    inverse.
    """

    frequency_khz: float = 10.0
    sound_speed_mps: float = 1500.0
    spreading_factor: float = 1.5
    transmit_power_db: float = 50.0
    signal_design_gain: float = 1.0

    def __post_init__(self):
        for name, value, positive in (
                ("frequency", self.frequency_khz, True),
                ("sound speed", self.sound_speed_mps, True),
                ("spreading factor", self.spreading_factor, True),
                ("signal design gain", self.signal_design_gain, True),
                ("transmit power", self.transmit_power_db, False)):
            if positive and not value > 0:
                raise DomainError(f"{name} must be positive")
            if not np.isfinite(value):
                raise DomainError(f"{name} must be finite")


def absorption_db_per_km(frequency_khz):
    """Thorp absorption coefficient in dB/km for a frequency in kHz.

    Accepts a scalar or an ndarray; the result has the input's shape.
    Raises DomainError where the coefficient overflows, as for finite
    frequencies above ~2e153 kHz.
    """
    if np.isscalar(frequency_khz):
        # Python floats: the same IEEE double operations as numpy's, without
        # its per-call overhead on 0-d values, and overflow to inf silently.
        f = float(frequency_khz)
        if not 0.0 < f < math.inf:
            raise DomainError("frequency must be positive")
        alpha = _thorp(f)
        finite = math.isfinite(alpha)
    else:
        f = np.asarray(frequency_khz, dtype=float)
        if np.any(f <= 0) or not np.all(np.isfinite(f)):
            raise DomainError("frequency must be positive")
        with np.errstate(all="ignore"):
            alpha = _thorp(f)
        finite = np.all(np.isfinite(alpha))
    if not finite:
        raise DomainError("frequency is too large: absorption overflows")
    return alpha


def _thorp(f):
    """Thorp's coefficient in dB/km at f kHz, a float or an array."""
    f2 = f * f
    return (0.11 * f2 / (1.0 + f2)
            + 44.0 * f2 / (4100.0 + f2)
            + 2.75e-4 * f2
            + 0.003)


def pathloss_db(distance_m, params: ChannelParams):
    """Pathloss in dB over a propagation distance in meters.

    Combines geometric spreading against a 1 m reference with Thorp
    absorption accumulated over the path; the absorption term converts
    the distance to km to match the dB/km coefficient. Raises DomainError
    where the pathloss is not finite, as over 1e300 m at 1e10 kHz.
    """
    d = np.asarray(distance_m, dtype=float)
    # min and max propagate NaN, so each comparison with them is False.
    if d.size and not (d.min() > 0 and d.max() < np.inf):
        raise DomainError("distance must be positive")
    alpha = absorption_db_per_km(params.frequency_khz)
    # In place where pl is an array; the operations and their order are
    # those of spreading * 10 * log10(d) + (d / 1000) * alpha.
    with np.errstate(all="ignore"):
        pl = np.log10(d)
        pl *= params.spreading_factor * 10.0
        km = d / 1000.0
        km *= alpha
        pl += km
    if pl.size and not (pl.min() > -np.inf and pl.max() < np.inf):
        raise DomainError("pathloss is not finite: the distance or the "
                          "spreading factor is too large")
    return float(pl) if np.isscalar(distance_m) else pl


# ln(10) / 10, so that 10^(x / 10) = exp(x * _LN10_OVER_10).
_LN10_OVER_10 = math.log(10.0) / 10.0


def distance_noise_variance(distance_m, params: ChannelParams):
    """Variance (m^2) of a ToA-based range estimate at a given distance.

    Grows with pathloss (linear scale) and shrinks with transmit power
    and the ranging waveform's design gain. Raises DomainError where the
    variance is not finite and positive, as at transmit powers of +-4000 dB.
    """
    var = _noise_variance(distance_m, params, params.transmit_power_db)
    return float(var) if np.isscalar(distance_m) else var


def _noise_variance(distance_m, params: ChannelParams, powers_db):
    """distance_noise_variance with the transmit powers powers_db, which
    broadcast against distance_m, in place of params.transmit_power_db."""
    var = np.asarray(pathloss_db(distance_m, params))
    powers = np.asarray(powers_db, dtype=float)
    # numpy scalars, unlike Python floats, overflow and divide by 0 to inf.
    with np.errstate(all="ignore"):
        # In place, in the order of
        # exp(pl ln(10) / 10) * c * c * (1 / (4 * 10^(p / 10) * gain)).
        var *= _LN10_OVER_10
        np.exp(var, out=var)
        c = params.sound_speed_mps
        var *= c * c
        # Power by power: array ** rounds differently from scalar **.
        p_lin = np.array([np.float64(10.0) ** (p / 10.0)
                          for p in powers.ravel().tolist()]
                         ).reshape(powers.shape)
        var = var * (1.0 / (4.0 * p_lin * params.signal_design_gain))
    if var.size and not (var.min() > 0.0 and var.max() < np.inf):
        raise DomainError("range variance is not finite and positive")
    return var
