"""Power sweeps and ROC curves for the position authentication test.

A sweep evaluates analytic (and optionally Monte Carlo) error rates on a
grid of transmit powers for a family of fixed thresholds. The impersonator
is either pinned to the scenario's eve position or averaged over the
deployment region. The analytic average uses a low-discrepancy point set,
so reruns are reproducible, but it is not free of sampling error: the
miss mass sits in a small region around the claimed position that the
default 1000 points miss, so on configs/baseline.json p_md_analytic
prints 0.0 from 40 dB on (2.4e-17 at 40 dB, threshold 3), where the true
average is ~1e-7 to 3e-6 (item 4 of ROADMAP.md).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ._fields import _equal_fields, _is_integer
from .authentication import (
    _count_errors,
    _error_rates,
    _simulate,
    calibrate_threshold,
    statistic_form,
)
# perfbench/spans.py traces simulate_test_statistics and
# distance_noise_variance at these (unused) names.
from .authentication import simulate_test_statistics  # noqa: F401
from .channel import ChannelParams, distance_noise_variance  # noqa: F401
from .errors import DomainError
from .localization import AnchorArray, Scenario
from .quadform import cdf_grid, quantile_grid

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
    The scenario's eve decides where the impersonator transmits: from
    that point, or, when it is None, uniformly over the region. In the
    uniform case the analytic missed-detection rate is averaged over
    analytic_eve_count region points; a fixed eve ignores that count.
    trials_per_point, master_seed and analytic_eve_count are integers,
    not bools, and the seed is nonnegative; other values raise
    DomainError, as does a power grid that is not 1-d.
    """

    scenario: Scenario
    power_grid_db: np.ndarray
    thresholds: np.ndarray
    trials_per_point: int = 0
    master_seed: int = 0
    analytic_eve_count: int = 1000

    __eq__ = _equal_fields
    __hash__ = None

    def __post_init__(self):
        grid = np.atleast_1d(np.asarray(self.power_grid_db, dtype=float))
        ths = np.atleast_1d(np.asarray(self.thresholds, dtype=float))
        object.__setattr__(self, "power_grid_db", grid)
        object.__setattr__(self, "thresholds", ths)
        if (grid.ndim != 1 or grid.size == 0
                or not np.all(np.isfinite(grid))):
            raise DomainError("power grid must be 1-d, nonempty and finite")
        if ths.size == 0 or not np.all(np.isfinite(ths)) or np.any(ths < 0):
            raise DomainError("thresholds must be nonnegative and finite")
        if not _is_integer(self.trials_per_point):
            raise DomainError("trials_per_point must be an integer")
        if self.trials_per_point < 0:
            raise DomainError("trials_per_point must be nonnegative")
        if not _is_integer(self.master_seed) or self.master_seed < 0:
            raise DomainError("master_seed must be a nonnegative integer")
        if not _is_integer(self.analytic_eve_count):
            raise DomainError("analytic_eve_count must be an integer")
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


# Forms per cdf_grid call in run_sweep: a block of consecutive grid powers
# holds as many as fit, and at least one power. The limit keeps a batch's
# working set from growing with the grid, while small sweeps (21 powers of
# 21 forms) solve their saddle-curve points and invert their cells in one
# call.
_BLOCK_FORMS = 1024


def run_sweep(spec: SweepSpec, *, workers: int = 1) -> list[SweepRow]:
    """Evaluate the sweep, power-major then threshold.

    The analytic columns of a block of consecutive grid powers come from
    one cdf_grid call over the statistic forms of every (power,
    transmitter) pair: the legitimate node and each impersonator position.
    A block holds as many powers as fit in _BLOCK_FORMS forms, at least
    one; a cell's value does not depend on the block it is evaluated in.
    The Monte Carlo columns are then simulated in batches of whole grid
    powers, as many as fit in one block of trials and at least one, each
    block counted against every threshold; workers run (batch, block)
    pairs side by side.

    Output is a pure function of the sweep settings: Monte Carlo trials
    at grid index i draw exactly the stream simulate_test_statistics draws
    for master_seed (master_seed, i), so neither batching, worker count
    nor scheduling affects the numbers. workers is an int or numpy
    integer, not a bool, of at least 1; other values raise DomainError.
    """
    if not _is_integer(workers) or workers < 1:
        raise DomainError("workers must be a positive integer")
    scen = spec.scenario
    if scen.eve is None:
        d_eve = scen.anchors.distances_to(
            region_point_set(spec.analytic_eve_count, scen.region))
    else:
        d_eve = scen.eve_distances()[None]
    block = max(1, _BLOCK_FORMS // (1 + len(d_eve)))

    grid = spec.power_grid_db
    p_fa, p_md = [], []
    for start in range(0, grid.size, block):
        fa, miss = _error_grid(scen, grid[start:start + block], d_eve,
                               spec.thresholds)
        p_fa.extend(fa.tolist())
        # Each threshold's miss column is averaged as a contiguous copy,
        # (P, K, E) with E innermost, so it sums in the order of a 1-d list.
        by_threshold = np.ascontiguousarray(miss.transpose(0, 2, 1))
        p_md.extend((by_threshold.sum(axis=-1) / miss.shape[1]).tolist())

    trials = int(spec.trials_per_point)
    if trials > 0:
        counts = np.zeros((2, grid.size, spec.thresholds.size), dtype=int)
        seeds = [(int(spec.master_seed), i) for i in range(grid.size)]
        for batch, _, ts0, ts1 in _simulate(scen, grid, seeds, trials,
                                            workers):
            counts[:, batch] += _count_errors(ts0[:, None], ts1[:, None],
                                              spec.thresholds[:, None])
        false_alarms, misses = counts
    rows: list[SweepRow] = []
    for i, power in enumerate(grid.tolist()):
        for j, th in enumerate(spec.thresholds.tolist()):
            emp = ()
            if trials > 0:
                rates = _error_rates(false_alarms[i, j], misses[i, j], trials)
                emp = (rates.p_fa, rates.p_md,
                       rates.stderr_fa, rates.stderr_md)
            rows.append(SweepRow(power, th, p_fa[i][j], p_md[i][j], *emp))
    return rows


# Upper limit on roc_curve's points: every level is solved at once, each
# CDF pass over the levels still open, so the work and memory of one call
# grow with it.
MAX_ROC_POINTS = 100_000


def roc_curve(scenario: Scenario, points: int = 101
              ) -> tuple[np.ndarray, np.ndarray]:
    """Analytic ROC for a fixed impersonator position.

    Sweeps false-alarm targets over [1e-6, 1 - 1e-6] and returns (p_fa,
    p_d) arrays at the calibrated threshold of each: the legitimate
    statistic's (H0) quantile at 1 - target. p_fa is the achieved rate
    there, which matches the target up to quantile tolerance, and p_d
    the impersonator's (H1) detection rate. Both come from one
    quantile_grid call over the H0 and H1 forms: one saddle-curve solve,
    and p_fa is the H0 CDF the quantile search already evaluated at its
    threshold. Bit for bit, the thresholds are calibrate_threshold's,
    p_fa is h0_distribution's sf and p_d h1_distribution's sf there.
    points is an integer in [2, MAX_ROC_POINTS].
    A scenario whose eve is None raises DomainError before any threshold
    is calibrated.
    """
    if not (_is_integer(points) and 2 <= points <= MAX_ROC_POINTS):
        raise DomainError(
            f"a ROC needs an integer number of points, 2 to {MAX_ROC_POINTS}")
    d_eve = scenario.eve_distances()
    d_alice = scenario.alice_distances()
    targets = np.linspace(1e-6, 1.0 - 1e-6, points)
    # Row 0 is the H0 form, as h0_distribution builds it; row 1 the H1.
    forms = statistic_form(np.vstack([d_alice, d_eve]), d_alice,
                           scenario.channel)
    _, cdf = quantile_grid(*forms, 1.0 - targets)
    return 1.0 - cdf[0], 1.0 - cdf[1]


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


def _error_grid(scenario: Scenario, powers_db, d_eve: np.ndarray,
                thresholds) -> tuple[np.ndarray, np.ndarray]:
    """Analytic error rates at each transmit power (P,) and threshold (K,):
    the false-alarm rate (P, K) and the miss rate (P, E, K) of each
    impersonator position, given by its anchor distances d_eve
    (E, n_anchors), from one cdf_grid call."""
    d_alice = scenario.alice_distances()
    # One form per power and transmitter: in each power's block of rows,
    # row 0 is the legitimate node (H0), the rest one impersonator
    # position each (H1).
    d_tx = np.vstack([d_alice, d_eve])
    scales, offsets = statistic_form(d_tx, d_alice, scenario.channel,
                                     powers_db=powers_db)
    offsets = np.broadcast_to(offsets, scales.shape)
    grid = cdf_grid(scales.reshape(-1, d_tx.shape[1]),
                    offsets.reshape(-1, d_tx.shape[1]), thresholds)
    grid = grid.reshape(scales.shape[0], len(d_tx), -1)
    return 1.0 - grid[:, 0], grid[:, 1:]


def _with_power(scenario: Scenario, power_db: float) -> Scenario:
    channel = dataclasses.replace(scenario.channel, transmit_power_db=power_db)
    return dataclasses.replace(scenario, channel=channel)
