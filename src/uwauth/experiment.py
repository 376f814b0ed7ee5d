"""Power sweeps and ROC curves for the position authentication test.

A sweep evaluates analytic (and optionally Monte Carlo) error rates on a
grid of transmit powers for a family of fixed thresholds. The impersonator
is either pinned to the scenario's eve position or averaged over the
deployment region. The analytic average uses a low-discrepancy point set,
so reruns are reproducible, but it is not free of sampling error: the
miss mass sits in a small region around the claimed position that the
default 1000 points miss, so on configs/baseline.json p_md_analytic
prints 0.0 from 45 dB on, where the true average is ~1e-7 to 3e-6
(item 1 of ROADMAP.md).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ._fields import _equal_fields
from .authentication import (
    calibrate_threshold,
    check_eve_mode,
    count_error_rates,
    simulate_test_statistics,
    statistic_form,
)
# perfbench/spans.py traces distance_noise_variance at this (unused) name.
from .channel import ChannelParams, distance_noise_variance  # noqa: F401
from .errors import DomainError
from .localization import AnchorArray, Scenario
from .quadform import cdf_grid

__all__ = [
    "SweepSpec",
    "SweepRow",
    "run_sweep",
    "roc_curve",
    "baseline_scenario",
    "default_power_grid",
    "default_thresholds",
]


@dataclass(frozen=True, eq=False)
class SweepSpec:
    """Inputs for one power sweep.

    The scenario's own transmit power is ignored; each grid point
    replaces it. trials_per_point = 0 skips the Monte Carlo columns.
    analytic_eve_count controls how many region points the analytic
    missed-detection average uses in 'uniform' mode.
    """

    scenario: Scenario
    power_grid_db: np.ndarray
    thresholds: np.ndarray
    trials_per_point: int = 0
    master_seed: int = 0
    eve_mode: str = "fixed"
    analytic_eve_count: int = 1000

    __eq__ = _equal_fields
    __hash__ = None

    def __post_init__(self):
        grid = np.atleast_1d(np.asarray(self.power_grid_db, dtype=float))
        ths = np.atleast_1d(np.asarray(self.thresholds, dtype=float))
        object.__setattr__(self, "power_grid_db", grid)
        object.__setattr__(self, "thresholds", ths)
        if grid.size == 0 or not np.all(np.isfinite(grid)):
            raise DomainError("power grid must be nonempty and finite")
        if ths.size == 0 or not np.all(np.isfinite(ths)) or np.any(ths < 0):
            raise DomainError("thresholds must be nonnegative and finite")
        if self.trials_per_point < 0:
            raise DomainError("trials_per_point must be nonnegative")
        check_eve_mode(self.eve_mode, self.scenario)
        if self.analytic_eve_count < 1:
            raise DomainError("analytic_eve_count must be positive")


@dataclass(frozen=True)
class SweepRow:
    """One (power, threshold) cell. Monte Carlo fields are None when the
    sweep ran without trials."""

    power_db: float
    threshold: float
    p_fa_analytic: float
    p_md_analytic: float
    p_fa_emp: float | None = None
    p_md_emp: float | None = None
    stderr_fa: float | None = None
    stderr_md: float | None = None


def run_sweep(spec: SweepSpec, *, workers: int = 1) -> list[SweepRow]:
    """Evaluate the sweep, power-major then threshold.

    Output is a pure function of the sweep settings: Monte Carlo trials
    at grid index i derive their generators from (master_seed, i), so
    neither worker count nor scheduling affects the numbers.
    """
    if workers < 1:
        raise DomainError("workers must be at least 1")
    scen = spec.scenario
    if spec.eve_mode == "uniform":
        d_eve = scen.anchors.distances_to(
            region_point_set(spec.analytic_eve_count, scen.region))
    else:
        d_eve = scen.eve_distances()[None]

    rows: list[SweepRow] = []
    for i, power in enumerate(spec.power_grid_db):
        scen_i = _with_power(scen, float(power))
        p_fa, miss = _error_grid(scen_i, d_eve, spec.thresholds)
        # Each threshold's miss column is averaged as a contiguous copy, so
        # it sums in the order of a 1-d list.
        p_md = [float(np.mean(col.copy())) for col in miss.T]

        if spec.trials_per_point > 0:
            ts0, ts1 = simulate_test_statistics(
                scen_i, spec.trials_per_point, (spec.master_seed, i),
                eve_mode=spec.eve_mode, workers=workers)

        for th, fa_analytic, md_analytic in zip(spec.thresholds, p_fa, p_md):
            th = float(th)
            row = {
                "power_db": float(power),
                "threshold": th,
                "p_fa_analytic": float(fa_analytic),
                "p_md_analytic": md_analytic,
            }
            if spec.trials_per_point > 0:
                emp = count_error_rates(ts0, ts1, th)
                row.update(p_fa_emp=emp.p_fa, p_md_emp=emp.p_md,
                           stderr_fa=emp.stderr_fa, stderr_md=emp.stderr_md)
            rows.append(SweepRow(**row))
    return rows


# Upper limit on roc_curve's points: every level bisects at once, so the
# work and memory of one call grow with it.
MAX_ROC_POINTS = 100_000


def roc_curve(scenario: Scenario, points: int = 101
              ) -> tuple[np.ndarray, np.ndarray]:
    """Analytic ROC for a fixed impersonator position.

    Sweeps false-alarm targets over [1e-6, 1 - 1e-6], calibrates the
    exact threshold for each, and returns (p_fa, p_d) arrays. p_fa is
    the achieved rate at the calibrated threshold, which matches the
    target up to quantile tolerance. points lies in [2, MAX_ROC_POINTS].
    """
    if not 2 <= points <= MAX_ROC_POINTS:
        raise DomainError(
            f"a ROC needs between 2 and {MAX_ROC_POINTS} points")
    targets = np.linspace(1e-6, 1.0 - 1e-6, points)
    th = [cfg.threshold for cfg in calibrate_threshold(scenario, targets)]
    p_fa, miss = _error_grid(scenario, scenario.eve_distances()[None], th)
    return p_fa, 1.0 - miss[0]


def baseline_scenario(*, transmit_power_db: float = 50.0,
                      signal_design_gain: float = 1.0e6,
                      eve=(100.0, 100.0)) -> Scenario:
    """Reference three-anchor deployment used by the shipped config.

    A 1 km x 1 km region centered on the origin, anchors at (0, 500),
    (-500, -500), (-500, 500), the legitimate node at the origin, and a
    10 kHz carrier. The default signal design gain models a long
    spread-spectrum probe; it keeps ranging errors small enough that
    both error rates improve monotonically over the 0-100 dB grid.
    """
    return Scenario(
        anchors=AnchorArray(np.array([[0.0, 500.0],
                                      [-500.0, -500.0],
                                      [-500.0, 500.0]])),
        alice=np.zeros(2),
        eve=None if eve is None else np.asarray(eve, dtype=float),
        channel=ChannelParams(transmit_power_db=transmit_power_db,
                              signal_design_gain=signal_design_gain),
    )


def default_power_grid() -> np.ndarray:
    """Transmit powers 0 through 100 dB in 5 dB steps."""
    return np.arange(0.0, 101.0, 5.0)


def default_thresholds(scenario: Scenario, *, at_power_db: float = 50.0,
                       h0_quantiles=(0.5, 0.9, 0.99)) -> np.ndarray:
    """Thresholds pinned to legitimate-statistic quantiles.

    Each quantile level q yields the threshold whose false-alarm rate is
    1 - q at the calibration power, so the defaults target rates 0.5,
    0.1, and 0.01 there. Thresholds stay fixed as the sweep varies power.
    """
    pfa = 1.0 - np.asarray(h0_quantiles, dtype=float)
    configs = calibrate_threshold(_with_power(scenario, at_power_db), pfa)
    return np.array([cfg.threshold for cfg in configs])


def region_point_set(count: int, region: tuple[float, float]) -> np.ndarray:
    """Deterministic low-discrepancy points covering the region.

    The unscrambled 2-d Halton points 1..count: point i is the radical
    inverse of i in base 2 and in base 3, its digits summed lowest first.
    Point 0 is dropped; it would land exactly on the region corner, which
    a deployment may use as an anchor site.
    """
    unit = np.zeros((count, 2))
    for column, base in zip(unit.T, (2, 3)):
        q = np.arange(1, count + 1)
        scale = 1.0 / base
        while q.any():
            q, digit = np.divmod(q, base)
            column += digit * scale
            scale /= base
    w, h = region
    return (unit - 0.5) * np.array([w, h])


def _error_grid(scenario: Scenario, d_eve: np.ndarray, thresholds
                ) -> tuple[np.ndarray, np.ndarray]:
    """Analytic error rates at each threshold: the false-alarm rate (K,)
    and the miss rate (E, K) of each impersonator position, given by its
    anchor distances d_eve (E, n_anchors)."""
    d_alice = scenario.alice_distances()
    # One form per transmitter: row 0 the legitimate node (H0), the rest
    # one impersonator position each (H1).
    d_tx = np.vstack([d_alice, d_eve])
    grid = cdf_grid(*statistic_form(d_tx, d_alice, scenario.channel),
                    thresholds)
    return 1.0 - grid[0], grid[1:]


def _with_power(scenario: Scenario, power_db: float) -> Scenario:
    channel = dataclasses.replace(scenario.channel, transmit_power_db=power_db)
    return dataclasses.replace(scenario, channel=channel)
