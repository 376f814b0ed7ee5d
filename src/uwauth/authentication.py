"""Hypothesis test for claimed transmitter positions.

The fusion center knows the legitimate node's claimed coordinates. For
each received packet it forms the lifted linear system from the squared
range observations and evaluates the squared residual against the claim,

    TS = || b - A chi(claim) ||^2,  chi(x, y) = (x, y, x^2 + y^2),

declaring impersonation when TS exceeds a threshold. Substituting the
observation model gives residual entries 2 d_i n_i + (d_i^2 - d_claim_i^2)
with d_i the actual transmitter-to-anchor distances, so TS is a weighted
noncentral chi-square sum under either hypothesis and both error rates
have exact expressions through QuadFormDist.

H0 throughout: the legitimate node transmitted. H1: an impersonator did.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._fields import _is_integer
from .channel import _noise_variance, distance_noise_variance
from .errors import DomainError
from .localization import (
    AnchorArray,
    NoisySquaredDistances,
    Scenario,
    _is_frozen,
    _observe,
    _pinv_t,
    _right_hand_side,
    build_system,
)
from .quadform import QuadFormDist

__all__ = [
    "Hypothesis",
    "DecisionConfig",
    "ErrorRates",
    "residual_vector",
    "test_statistic",
    "test_statistic_pinv",
    "decide",
    "h0_distribution",
    "h1_distribution",
    "statistic_form",
    "p_fa_analytic",
    "p_md_analytic",
    "calibrate_threshold",
    "simulate_test_statistics",
    "count_error_rates",
]

# Trials are simulated in fixed-size blocks; block g draws its generator
# from (master_seed, g), so results never depend on worker scheduling.
# _simulate also bounds its batches of whole powers by it.
_BLOCK = 4096


class Hypothesis(Enum):
    H0_NO_IMPERSONATION = 0
    H1_IMPERSONATION = 1


# decide's verdicts, without an enum member lookup per packet.
_H0, _H1 = Hypothesis.H0_NO_IMPERSONATION, Hypothesis.H1_IMPERSONATION


@dataclass(frozen=True)
class DecisionConfig:
    """Decision threshold for the residual test statistic."""

    threshold: float

    def __post_init__(self):
        if not (np.isfinite(self.threshold) and self.threshold >= 0):
            raise DomainError("threshold must be finite and nonnegative")


@dataclass(frozen=True)
class ErrorRates:
    """Monte Carlo false-alarm and missed-detection rates, their binomial
    standard errors, and the number of trials behind them."""

    p_fa: float
    p_md: float
    stderr_fa: float
    stderr_md: float
    trials: int


def residual_vector(observed: NoisySquaredDistances, anchors: AnchorArray,
                    claimed) -> np.ndarray:
    """Residual of the lifted system at the claimed position, shape (L,)."""
    return _residual(anchors, observed.observed_sq_m2, claimed)


def test_statistic(residual) -> float:
    """Squared Euclidean norm of a residual vector."""
    r = np.asarray(residual, dtype=float)
    return float(r.dot(r))


def test_statistic_pinv(observed: NoisySquaredDistances, anchors: AnchorArray,
                        claimed) -> float:
    """Position-space variant of the statistic.

    Maps the gap between the least-squares position estimate and the
    claim back into observation space through the Moore-Penrose
    pseudoinverse of the truncated estimator matrix E. Equals
    test_statistic exactly when the residual lies in the row space of
    that matrix and never exceeds it otherwise. The claim is checked as
    residual_vector checks it: one that is not a finite (x, y) pair, or
    whose x^2 + y^2 overflows, raises DomainError.
    """
    A, b = build_system(anchors, observed.observed_sq_m2)
    estimator_rows = _pinv_t(A).T[:2]
    gap = estimator_rows @ b - _lift(claimed)[:2]
    e1, e2 = estimator_rows
    # For E^T = QR, |pinv(E) gap|^2 = |R^-T gap|^2. Two Gram-Schmidt steps
    # give R with an error of order cond(E) * eps; solving with E E^T
    # instead squares that condition number.
    r11 = math.sqrt(e1 @ e1)
    r12 = e1 @ e2 / r11
    rest = e2 - r12 / r11 * e1
    y1 = gap[0] / r11
    y2 = (gap[1] - r12 * y1) / math.sqrt(rest @ rest)
    return float(y1 * y1 + y2 * y2)


def decide(ts: float, config: DecisionConfig) -> Hypothesis:
    """Threshold test; ties go to the legitimate hypothesis and an infinite
    statistic to the impersonator. A NaN statistic raises DomainError
    rather than pass the packet as legitimate."""
    threshold = config.threshold
    if ts > threshold:
        return _H1
    if ts <= threshold:
        return _H0
    raise DomainError("test statistic must not be NaN")


def h0_distribution(scenario: Scenario) -> QuadFormDist:
    """Exact TS distribution when the legitimate node transmits from its
    claimed position: every residual entry is pure noise."""
    d = scenario.alice_distances()
    return QuadFormDist(*statistic_form(d, d, scenario.channel))


def h1_distribution(scenario: Scenario) -> QuadFormDist:
    """Exact TS distribution when the impersonator transmits while
    claiming the legitimate position.

    Noise scales follow the impersonator's actual distances (that is the
    transmitter the channel acts on); offsets are the squared-distance
    gaps between impersonator and claim.
    """
    return QuadFormDist(*statistic_form(
        scenario.eve_distances(), scenario.alice_distances(), scenario.channel))


def statistic_form(d_tx, d_claim, channel, *,
                   powers_db=None) -> tuple[np.ndarray, np.ndarray]:
    """QuadFormDist scales 2 d_tx sigma and offsets d_tx^2 - d_claim^2 of TS
    for a transmitter at anchor distances d_tx claiming the position at
    distances d_claim; inputs (L,) or (N, L), one form per row.

    With powers_db, shaped (P,), the scales are those at each of these
    transmit powers in place of the channel's, shaped (P, L) or (P, N, L),
    from one noise-model call; the offsets do not depend on power.
    """
    if powers_db is None:
        var = distance_noise_variance(d_tx, channel)
    else:
        var = _noise_variance(d_tx, channel, np.reshape(
            powers_db, (-1,) + (1,) * np.ndim(d_tx)))
    return 2.0 * d_tx * np.sqrt(var), d_tx ** 2 - d_claim ** 2


def p_fa_analytic(scenario: Scenario, config: DecisionConfig) -> float:
    """False-alarm probability P(TS > threshold | H0)."""
    return h0_distribution(scenario).sf(config.threshold)


def p_md_analytic(scenario: Scenario, config: DecisionConfig) -> float:
    """Missed-detection probability P(TS <= threshold | H1)."""
    return h1_distribution(scenario).cdf(config.threshold)


def calibrate_threshold(scenario: Scenario, target_pfa):
    """Threshold whose analytic false-alarm rate equals target_pfa.

    A single rate gives one DecisionConfig; a sequence of rates gives a
    list of them, one per rate, solved as one batch of H0 quantiles.
    """
    targets = np.asarray(target_pfa, dtype=float)
    if not np.all((0.0 < targets) & (targets < 1.0)):
        raise DomainError("target false-alarm rate must lie in (0, 1)")
    th = h0_distribution(scenario).quantile(1.0 - targets)
    if targets.ndim == 0:
        return DecisionConfig(th)
    return [DecisionConfig(float(t)) for t in th.ravel()]


def simulate_test_statistics(scenario: Scenario, trials: int, master_seed,
                             *, eve_mode: str | None = None,
                             workers: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Simulate TS through the full pipeline under both hypotheses.

    Returns (ts_h0, ts_h1), each of shape (trials,). A scenario with an
    eve transmits every H1 packet from that point; with eve None the
    impersonator position is redrawn uniformly over the deployment region
    per trial. eve_mode, when given, must name that same choice ('fixed'
    or 'uniform'); it adds nothing. Results are a pure function of
    (master_seed, trials): trials are processed in fixed blocks whose
    generators derive from the seed and the block index, so worker count
    and scheduling cannot change them. At most one thread runs per core
    the process may use, however many workers are asked for. trials and
    workers are positive integers and master_seed a nonnegative integer or
    a tuple or list of them, integers meaning ints or numpy integers but
    not bools; other values raise DomainError.
    """
    if not _is_integer(trials) or trials <= 0:
        raise DomainError("trials must be a positive integer")
    if not _is_integer(workers) or workers < 1:
        raise DomainError("workers must be a positive integer")
    mode = "uniform" if scenario.eve is None else "fixed"
    if eve_mode not in (None, mode):
        raise DomainError(
            f"eve_mode must be {mode!r} for this scenario, not {eve_mode!r}")

    ts_h0, ts_h1 = np.empty((2, trials))
    for _, cols, t0, t1 in _simulate(
            scenario, [scenario.channel.transmit_power_db],
            [_seed_entropy(master_seed)], trials, workers):
        ts_h0[cols], ts_h1[cols] = t0[0], t1[0]
    return ts_h0, ts_h1


def _simulate(scenario: Scenario, powers_db, seeds, trials: int,
              workers: int):
    """TS under H0 and H1 of trials trials at each transmit power
    powers_db[j], in place of the scenario's, seeded by seeds[j].

    Yields (rows, cols, ts_h0, ts_h1), ts_* shaped (powers, trials), for
    each batch of whole powers, slice rows of powers_db, as many as fit in
    one block of _BLOCK trials and at least one, and within it for each
    block g of trials, slice cols. Block g at powers_db[j] draws from
    default_rng(seeds[j] + (g,)) the H0 normals, then, for a scenario
    without an eve, the impersonator positions, then the H1 normals. Each
    position is low + (high - low) u per coordinate, with low and high the
    region's edges and u from Generator.random: the bits of
    Generator.uniform(low, high). The rest is computed for the whole batch
    at once: the impersonator's distances by AnchorArray.distances_to, as
    sqrt(dx * dx + dy * dy), and each hypothesis's statistic in one buffer
    stored anchor by anchor, one anchor at a time (_statistic). Workers
    run the (batch, block) pairs side by side; the pairs are yielded in
    order.
    """
    anchors = scenario.anchors
    powers = np.reshape(powers_db, (-1, 1, 1))
    # Scales that do not depend on the draws, from one noise model call
    # each: it is elementwise in the powers. Stored anchor by anchor,
    # (L, P, 1), as the statistics are.
    d0 = scenario.alice_distances()
    s0 = _anchor_major(np.sqrt(_noise_variance(d0, scenario.channel,
                                               powers)))
    fixed = scenario.eve is not None
    if fixed:
        d1 = scenario.eve_distances()
        s1 = _anchor_major(np.sqrt(_noise_variance(d1, scenario.channel,
                                                   powers)))
    else:
        low = [-w / 2 for w in scenario.region]
        span = [w / 2 - lo for w, lo in zip(scenario.region, low)]
    per_batch = max(1, _BLOCK // trials)

    def run(pair):
        rows, g = pair
        batch = seeds[rows]
        cols = slice(g * _BLOCK, min(trials, (g + 1) * _BLOCK))
        n = cols.stop - cols.start
        z0 = np.empty((len(batch), n, len(anchors)))
        z1 = np.empty_like(z0)
        if not fixed:
            eve = np.empty((len(batch), n, 2))
        for j, seed in enumerate(batch):
            rng = np.random.default_rng(seed + (g,))
            rng.standard_normal(out=z0[j])
            if not fixed:
                rng.random(out=eve[j])
            rng.standard_normal(out=z1[j])
        if fixed:
            d, s = d1, s1[:, rows]
        else:
            for k in range(2):
                coord = eve[..., k]
                coord *= span[k]
                coord += low[k]
            # The distances' contiguous anchor-major array, (L, powers, n),
            # and the noise model on it.
            d = _anchor_major(anchors.distances_to(eve))
            s = _noise_variance(d, scenario.channel,
                                powers[rows].reshape(1, -1, 1))
            np.sqrt(s, out=s)
        return (rows, cols,
                _statistic(anchors, scenario.alice, d0, s0[:, rows], z0),
                _statistic(anchors, scenario.alice, d, s, z1))

    pairs = [(slice(i, i + per_batch), g)
             for i in range(0, len(seeds), per_batch)
             for g in range((trials + _BLOCK - 1) // _BLOCK)]
    yield from _map(run, pairs, workers)


def _statistic(anchors: AnchorArray, claimed, d, sigma, z) -> np.ndarray:
    """TS at the claim of the observations _observe(d, sigma, z), z shaped
    (powers, n, L), with d and sigma stored anchor by anchor: d[i] and
    sigma[i] broadcast against anchor i's (powers, n) plane of the trials.
    Formed in place in one anchor-major buffer, a plane at a time, so that
    every operand is a scalar or has the plane's shape: numpy runs several
    times slower along the L anchors, or with an operand broadcast across
    planes. _observe and _residual keep their operation order on each
    plane, so the bits are those of z whole."""
    batch, n, L = z.shape
    buf = np.empty((L, batch, n))
    r = buf.transpose(1, 2, 0)
    np.copyto(r, z)
    for i, plane in enumerate(buf):
        _observe(d[i], sigma[i], plane, out=plane)
        _residual(anchors, plane, claimed, out=plane, anchor=i)
    return _squared_norms(r, r)


def _anchor_major(a: np.ndarray) -> np.ndarray:
    """a, shaped (..., L), as a C-ordered array shaped (L, ...): a view
    when a is a transposed view of one, else a copy."""
    return np.ascontiguousarray(np.moveaxis(a, -1, 0))


def _squared_norms(r: np.ndarray, out=None) -> np.ndarray:
    """(r ** 2).sum(axis=-1) of a C-ordered r, bit for bit, whatever r's
    memory order; the squares go to out when given, which may be r
    itself, and fewer than 8 of them are summed in place in their first
    column. numpy adds fewer than 8 terms in order, and adding whole
    columns in that order is many times faster than reducing rows that
    short; from 8 terms on it sums pairwise, in an order that depends on
    the memory layout."""
    s = np.multiply(r, r, out=out)
    if s.shape[-1] >= 8:
        return np.ascontiguousarray(s).sum(axis=-1)
    total = s[..., 0]
    for j in range(1, s.shape[-1]):
        total += s[..., j]
    return total


def _map(fn, items, workers: int):
    """fn over items, results in order, on at most workers threads and at
    most one per core the process may use."""
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    workers = min(workers, cores)
    if workers == 1:
        yield from map(fn, items)
        return
    # Imported here: with the logging it pulls in, it costs a serial run's
    # set-up several milliseconds.
    import concurrent.futures
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, items)


def count_error_rates(ts_h0: np.ndarray, ts_h1: np.ndarray,
                      threshold: float) -> ErrorRates:
    """Shares of H0 statistics above and H1 statistics at or below the
    threshold, with their binomial standard errors sqrt(p (1 - p) / n).

    Both samples must hold the same number n > 0 of statistics and the
    threshold must not be NaN; otherwise DomainError.
    """
    n = np.size(ts_h0)
    if n == 0 or np.size(ts_h1) != n:
        raise DomainError("error rates need equally many H0 and H1 "
                          "statistics, at least one of each")
    if np.isnan(threshold):
        raise DomainError("threshold must not be NaN")
    return _error_rates(*_count_errors(np.ravel(ts_h0), np.ravel(ts_h1),
                                       threshold), n)


def _count_errors(ts_h0, ts_h1, thresholds):
    """False alarms (ts_h0 > thresholds) and misses (ts_h1 <= thresholds)
    along the last axis, as np.intp counts, the dtype np.count_nonzero
    gives."""
    # A bool sum along the axis is ~10 % faster than np.count_nonzero.
    return ((ts_h0 > thresholds).sum(axis=-1, dtype=np.intp),
            (ts_h1 <= thresholds).sum(axis=-1, dtype=np.intp))


def _error_rates(false_alarms, misses, trials: int) -> ErrorRates:
    """ErrorRates from counts of false alarms and misses among trials
    statistics under each hypothesis."""
    p_fa = float(false_alarms) / trials
    p_md = float(misses) / trials
    return ErrorRates(
        p_fa=p_fa,
        p_md=p_md,
        stderr_fa=float(np.sqrt(p_fa * (1.0 - p_fa) / trials)),
        stderr_md=float(np.sqrt(p_md * (1.0 - p_md) / trials)),
        trials=trials,
    )


def _lift(claimed) -> np.ndarray:
    """chi(claim) of the claim as a float64 array; a claim that is not of
    shape (2,), is not finite, or whose x^2 + y^2 overflows raises
    DomainError."""
    claim = np.asarray(claimed, dtype=float)
    if claim.shape != (2,):
        raise DomainError("claimed position must be a finite (x, y) pair")
    # Python floats: x ** 2 calls the same libm pow as a float64 scalar
    # does, without numpy's per-scalar overhead.
    x, y = claim.tolist()
    try:
        norm_sq = x ** 2 + y ** 2
    except OverflowError:
        norm_sq = math.inf
    if not math.isfinite(norm_sq):  # NaN or inf in x or y, or overflow
        raise DomainError(
            "claimed position and its squared norm must be finite")
    return np.array([x, y, norm_sq])


def _residual(anchors: AnchorArray, observed_sq, claimed,
              out=None, anchor=None) -> np.ndarray:
    """b - A chi(claim) for observations shaped (L,) or (n, L), formed in
    out when given, which may be observed_sq itself. With an anchor index
    i, observed_sq holds anchor i's observations alone, of any shape, and
    the result is row i of b - A chi(claim) at each of them.

    The anchors keep one slot, (owner, model): a frozen claim, a view of
    immutable bytes such as Scenario.alice whose values can never change,
    and its model A chi(claim). A claim that is the owner is a hit with no
    further work. Any other claim is checked and lifted afresh, so one of
    the wrong shape or not finite raises DomainError; it takes the slot
    only when it is frozen. A new slot replaces the old one whole, with
    one store, so threads sharing the anchors always read a matching pair.
    """
    b = _right_hand_side(anchors, observed_sq, out, anchor)
    owner, model = anchors._claim_model[0]
    if claimed is not owner:
        # ndarray.dot makes the BLAS call that A @ chi makes, with less
        # dispatch; so do test_statistic and solve_position.
        model = anchors._design.dot(_lift(claimed))
        if _is_frozen(claimed):
            anchors._claim_model[0] = claimed, model
    b -= model if anchor is None else model[anchor]
    return b


def _seed_entropy(master_seed) -> tuple:
    """master_seed as the tuple of ints that each block's generator key
    extends with its block index."""
    seed = (tuple(master_seed) if isinstance(master_seed, (tuple, list))
            else (master_seed,))
    if not all(_is_integer(s) and s >= 0 for s in seed):
        raise DomainError("master_seed must be a nonnegative integer or a "
                          "tuple or list of them")
    return tuple(int(s) for s in seed)
