"""Underwater acoustic channel model.

Frequency-dependent absorption (Thorp), log-distance pathloss with an
absorption term, and the variance of time-of-arrival range estimates as a
function of pathloss and transmit power.

Unit conventions: frequencies in kHz, distances in meters, absorption in
dB/km, pathloss and transmit power in dB, sound speed in m/s, range
variance in m^2.
"""

from __future__ import annotations

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
    """
    f = np.asarray(frequency_khz, dtype=float)
    if np.any(f <= 0) or not np.all(np.isfinite(f)):
        raise DomainError("frequency must be positive")
    f2 = f * f
    alpha = (0.11 * f2 / (1.0 + f2)
             + 44.0 * f2 / (4100.0 + f2)
             + 2.75e-4 * f2
             + 0.003)
    return float(alpha) if np.isscalar(frequency_khz) else alpha


def pathloss_db(distance_m, params: ChannelParams):
    """Pathloss in dB over a propagation distance in meters.

    Combines geometric spreading against a 1 m reference with Thorp
    absorption accumulated over the path; the absorption term converts
    the distance to km to match the dB/km coefficient.
    """
    d = np.asarray(distance_m, dtype=float)
    if np.any(d <= 0) or not np.all(np.isfinite(d)):
        raise DomainError("distance must be positive")
    alpha = absorption_db_per_km(params.frequency_khz)
    pl = params.spreading_factor * 10.0 * np.log10(d) + (d / 1000.0) * alpha
    return float(pl) if np.isscalar(distance_m) else pl


def distance_noise_variance(distance_m, params: ChannelParams):
    """Variance (m^2) of a ToA-based range estimate at a given distance.

    Grows with pathloss (linear scale) and shrinks with transmit power
    and the ranging waveform's design gain.
    """
    pl_db = pathloss_db(distance_m, params)
    pl_lin = 10.0 ** (pl_db / 10.0)
    p_lin = 10.0 ** (params.transmit_power_db / 10.0)
    c = params.sound_speed_mps
    var = c * c * pl_lin / (4.0 * p_lin * params.signal_design_gain)
    return float(var) if np.isscalar(distance_m) else var
