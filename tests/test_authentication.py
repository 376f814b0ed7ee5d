"""Residual test statistic and its distributions under both hypotheses."""

import itertools
import json
import math
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from uwauth import authentication, localization
from uwauth import test_statistic as statistic
from uwauth import test_statistic_pinv as statistic_pinv
from uwauth import (
    AnchorArray,
    ChannelParams,
    DecisionConfig,
    DomainError,
    Hypothesis,
    NoisySquaredDistances,
    Scenario,
    calibrate_threshold,
    decide,
    distance_noise_variance,
    empirical_rates,
    h0_distribution,
    h1_distribution,
    p_fa_analytic,
    p_md_analytic,
    residual_vector,
    simulate_test_statistics,
)
from uwauth.authentication import count_error_rates, statistic_form

TRIANGLE = AnchorArray(np.array([[0.0, 500.0], [-500.0, -500.0], [-500.0, 500.0]]))


def make_scenario(power_db=50.0, gain=1.0, eve=(100.0, 100.0)):
    channel = ChannelParams(transmit_power_db=power_db, signal_design_gain=gain)
    return Scenario(TRIANGLE, alice=(0.0, 0.0), eve=eve, channel=channel)


def obs_from_squared(values):
    v = np.asarray(values, dtype=float)
    return NoisySquaredDistances(np.sqrt(np.abs(v)), np.zeros_like(v), v)


def test_residual_identity_random_geometry():
    # r_i = 2 d_i n_i + (d_i^2 - d_claim_i^2) whenever the observations
    # follow the linearized model, independent of who transmits.
    rng = np.random.default_rng(8)
    for _ in range(300):
        anchors = AnchorArray(rng.uniform(-500.0, 500.0, (rng.integers(3, 7), 2)))
        src = rng.uniform(-400.0, 400.0, 2)
        claim = rng.uniform(-400.0, 400.0, 2)
        d = anchors.distances_to(src)
        dc = anchors.distances_to(claim)
        noise = rng.normal(0.0, 5.0, d.shape)
        obs = obs_from_squared(d * d + 2.0 * noise * d)
        r = residual_vector(obs, anchors, claim)
        expected = 2.0 * d * noise + (d * d - dc * dc)
        np.testing.assert_allclose(r, expected, rtol=1e-9, atol=1e-6)


def test_statistic_known_noise_pattern():
    # Claim equals the true position, so the residual is pure noise:
    # r = 2 * d * n with d = (500, 500*sqrt(2), 500*sqrt(2)).
    d = TRIANGLE.distances_to((0.0, 0.0))
    noise = np.array([1.0, -2.0, 0.5])
    obs = obs_from_squared(d * d + 2.0 * noise * d)
    r = residual_vector(obs, TRIANGLE, (0.0, 0.0))
    np.testing.assert_allclose(
        r, [1000.0, -2828.42712474619, 707.1067811865476], rtol=1e-12)
    assert statistic(r) == pytest.approx(9.5e6, rel=1e-12)


def test_statistic_noiseless_impersonation():
    # An impersonator at (100, 100) claiming the origin leaves squared
    # distance gaps (-80000, 220000, 20000) against these anchors.
    scen = make_scenario()
    d_eve = scen.eve_distances()
    obs = obs_from_squared(d_eve ** 2)
    r = residual_vector(obs, TRIANGLE, scen.alice)
    np.testing.assert_allclose(r, [-80000.0, 220000.0, 20000.0],
                               rtol=0, atol=1e-6)
    assert statistic(r) == pytest.approx(5.52e10, rel=1e-9)


def test_legitimate_distribution_terms():
    # Scales are 2 * d_i * sigma_i at the claimed position, offsets zero.
    scen = make_scenario(power_db=50.0, gain=1.0e6)
    dist = h0_distribution(scen)
    d = scen.alice_distances()
    sigma = np.sqrt(distance_noise_variance(d, scen.channel))
    np.testing.assert_allclose(dist.scales, 2.0 * d * sigma, rtol=1e-12)
    np.testing.assert_allclose(
        dist.scales,
        [268.51250432492185, 506.5914536130651, 506.5914536130651],
        rtol=1e-12)
    np.testing.assert_array_equal(dist.offsets, np.zeros(3))
    assert dist.mean() == pytest.approx(585368.7667264377, rel=1e-12)


def test_impersonator_distribution_terms():
    scen = make_scenario(power_db=50.0, gain=1.0e6)
    dist = h1_distribution(scen)
    d_eve = scen.eve_distances()
    sigma = np.sqrt(distance_noise_variance(d_eve, scen.channel))
    np.testing.assert_allclose(dist.scales, 2.0 * d_eve * sigma, rtol=1e-12)
    np.testing.assert_allclose(
        dist.offsets, [-80000.0, 220000.0, 20000.0], rtol=0, atol=1e-6)
    scen_no_eve = Scenario(TRIANGLE, alice=(0.0, 0.0), eve=None,
                           channel=scen.channel)
    with pytest.raises(DomainError, match="no eve position"):
        h1_distribution(scen_no_eve)


def test_decide_tie_goes_to_legitimate():
    cfg = DecisionConfig(10.0)
    assert decide(10.0, cfg) is Hypothesis.H0_NO_IMPERSONATION
    assert decide(9.999, cfg) is Hypothesis.H0_NO_IMPERSONATION
    assert decide(10.001, cfg) is Hypothesis.H1_IMPERSONATION
    with pytest.raises(DomainError, match="finite and nonnegative"):
        DecisionConfig(-1.0)
    with pytest.raises(DomainError, match="finite and nonnegative"):
        DecisionConfig(float("nan"))


def test_calibration_round_trip():
    scen = make_scenario(gain=1.0e6)
    targets = (0.5, 0.1, 0.01, 1e-4)
    # A sequence of rates is solved as one batch, and each rate gets the
    # threshold it gets alone.
    batch = calibrate_threshold(scen, np.array(targets))
    assert len(batch) == len(targets)
    for target, batched in zip(targets, batch):
        cfg = calibrate_threshold(scen, target)
        assert p_fa_analytic(scen, cfg) == pytest.approx(target, abs=2e-6)
        assert isinstance(batched, DecisionConfig) and batched == cfg
    for bad in (0.0, 1.0, (0.1, 0.0), [0.5, 1.0], [float("nan")]):
        with pytest.raises(DomainError):
            calibrate_threshold(scen, bad)


def test_false_alarm_and_miss_move_oppositely_in_threshold():
    scen = make_scenario(power_db=20.0, gain=1.0e6)
    cfgs = [calibrate_threshold(scen, t) for t in (0.5, 0.1, 0.01)]
    fas = [p_fa_analytic(scen, c) for c in cfgs]
    mds = [p_md_analytic(scen, c) for c in cfgs]
    assert fas[0] > fas[1] > fas[2]
    assert mds[0] <= mds[1] <= mds[2]


def test_simulated_statistics_match_analytic_distributions():
    scen = make_scenario(power_db=55.0, gain=1.0)
    ts0, ts1 = simulate_test_statistics(scen, 60_000, 314)
    assert ts0.shape == ts1.shape == (60_000,)
    h0 = h0_distribution(scen)
    h1 = h1_distribution(scen)
    for dist, ts in ((h0, ts0), (h1, ts1)):
        qs = np.quantile(ts, [0.1, 0.5, 0.9])
        for q, level in zip(qs, (0.1, 0.5, 0.9)):
            emp = float((ts <= q).mean())
            se = math.sqrt(level * (1 - level) / ts.size)
            assert abs(dist.cdf(float(q)) - emp) <= 4.0 * se + 1e-4


def test_simulation_is_reproducible_and_worker_invariant():
    scen = make_scenario()
    a0, a1 = simulate_test_statistics(scen, 9000, (1, 2))
    b0, b1 = simulate_test_statistics(scen, 9000, (1, 2))
    c0, c1 = simulate_test_statistics(scen, 9000, (1, 2), workers=5)
    np.testing.assert_array_equal(a0, b0)
    np.testing.assert_array_equal(a1, b1)
    np.testing.assert_array_equal(a0, c0)
    np.testing.assert_array_equal(a1, c1)
    d0, _ = simulate_test_statistics(scen, 9000, (1, 3))
    assert not np.array_equal(a0, d0)


@pytest.mark.parametrize("workers", [1.5, True, "2", None])
def test_simulation_refuses_a_worker_count_that_is_not_an_integer(workers):
    with pytest.raises(DomainError, match="workers must be a positive"):
        simulate_test_statistics(make_scenario(), 10, 1, workers=workers)


def test_simulation_takes_a_numpy_integer_worker_count():
    scen = make_scenario()
    a0, a1 = simulate_test_statistics(scen, 9000, 4)
    b0, b1 = simulate_test_statistics(scen, 9000, 4, workers=np.int64(2))
    assert a0.tobytes() == b0.tobytes() and a1.tobytes() == b1.tobytes()


def test_workers_never_exceed_the_usable_cores(monkeypatch):
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    threads = set()
    squared_norms = authentication._squared_norms

    # Every (batch, block) pair that _simulate hands to its workers ends
    # in this call.
    def spy(*args):
        threads.add(threading.get_ident())
        return squared_norms(*args)

    monkeypatch.setattr(authentication, "_squared_norms", spy)
    # Eight blocks, so a pool sized by the request would start 8 threads.
    scen = make_scenario()
    a0, a1 = simulate_test_statistics(scen, 8 * 4096, 7, workers=64)
    assert 1 <= len(threads) <= cores
    b0, b1 = simulate_test_statistics(scen, 8 * 4096, 7)
    np.testing.assert_array_equal(a0, b0)
    np.testing.assert_array_equal(a1, b1)


# Nine anchors on a circle: from 8 terms on numpy sums a row pairwise.
NONAGON = AnchorArray(450.0 * np.column_stack(
    [np.cos(np.arange(9) * 0.7 + 0.3), np.sin(np.arange(9) * 0.7 + 0.3)]))


def test_simulated_stream_follows_the_documented_contract():
    _check_the_documented_stream(TRIANGLE)


def test_simulated_stream_sums_rows_of_eight_or_more_terms_as_numpy_does():
    _check_the_documented_stream(NONAGON)


def _check_the_documented_stream(anchors):
    # Recomputes the stream from its contract with plain numpy: block g
    # of 4096 trials draws from default_rng(seed + (g,)) the H0 normals,
    # then (uniform mode) the impersonator positions, then the H1
    # normals; observations are d^2 + 2 (z sigma) d and TS is the squared
    # residual of the lifted system at the claim.
    trials = 2 * 4096 + 37
    xy = anchors.xy
    L = len(xy)
    A = np.column_stack([-2.0 * xy[:, 0], -2.0 * xy[:, 1], np.ones(L)])
    anchor_sq = (xy ** 2).sum(axis=1)
    for eve_mode, eve in (("fixed", (100.0, 100.0)), ("uniform", None)):
        scen = Scenario(anchors, alice=(0.0, 0.0), eve=eve,
                        channel=ChannelParams(transmit_power_db=40.0))
        chi = np.array([scen.alice[0], scen.alice[1], scen.alice @ scen.alice])
        w, h = scen.region

        def distances(p):
            return np.hypot(p[..., 0, None] - xy[:, 0], p[..., 1, None] - xy[:, 1])

        def noise_std(d):
            return np.sqrt(distance_noise_variance(d, scen.channel))

        def stat(z, d, s):
            obs = d ** 2 + 2.0 * (z * s) * d
            return (((obs - anchor_sq) - A @ chi) ** 2).sum(axis=1)

        d_a = distances(scen.alice)
        expected0, expected1 = [], []
        for g in range(3):
            n = min(4096, trials - g * 4096)
            rng = np.random.default_rng((11, g))
            z0 = rng.standard_normal((n, L))
            if eve_mode == "fixed":
                d_e = distances(np.asarray(eve))
            else:
                d_e = distances(rng.uniform([-w / 2, -h / 2], [w / 2, h / 2],
                                            size=(n, 2)))
            z1 = rng.standard_normal((n, L))
            expected0.append(stat(z0, d_a, noise_std(d_a)))
            expected1.append(stat(z1, d_e, noise_std(d_e)))
        # The scenario's eve alone decides the placement; naming the
        # matching eve_mode changes nothing.
        ts0, ts1 = simulate_test_statistics(scen, trials, 11)
        np.testing.assert_array_equal(ts0, np.concatenate(expected0))
        np.testing.assert_array_equal(ts1, np.concatenate(expected1))
        named0, named1 = simulate_test_statistics(scen, trials, 11,
                                                  eve_mode=eve_mode)
        np.testing.assert_array_equal(named0, ts0)
        np.testing.assert_array_equal(named1, ts1)


def test_simulation_argument_validation():
    scen = make_scenario()
    with pytest.raises(DomainError):
        simulate_test_statistics(scen, 0, 1)
    with pytest.raises(DomainError, match="eve_mode"):
        simulate_test_statistics(scen, 10, 1, eve_mode="nope")
    with pytest.raises(DomainError, match="eve_mode"):
        simulate_test_statistics(scen, 10, 1, eve_mode="uniform")
    for workers in (0, -2):
        with pytest.raises(DomainError, match="workers"):
            simulate_test_statistics(scen, 10, 1, workers=workers)
    scen_no_eve = Scenario(TRIANGLE, alice=(0.0, 0.0), eve=None,
                           channel=ChannelParams())
    with pytest.raises(DomainError):
        simulate_test_statistics(scen_no_eve, 10, 1, eve_mode="fixed")
    # uniform mode draws impersonator positions, so no fixed eve needed
    u0, u1 = simulate_test_statistics(scen_no_eve, 64, 5, eve_mode="uniform")
    assert u1.shape == (64,)


def _empirical_rates(scenario, trials, master_seed):
    return empirical_rates(scenario, DecisionConfig(1.0), trials, master_seed)


@pytest.mark.parametrize("entry", [simulate_test_statistics, _empirical_rates],
                         ids=["simulate", "empirical"])
@pytest.mark.parametrize("trials, master_seed, name", [
    (10.5, 1, "trials"),
    (True, 1, "trials"),
    (10, -1, "master_seed"),
    (10, (1, -2), "master_seed"),
    (10, 2.5, "master_seed"),
    (10, (1, 2.5), "master_seed"),
], ids=["trials-float", "trials-bool", "seed-negative", "seed-tuple-negative",
        "seed-float", "seed-tuple-float"])
def test_monte_carlo_entry_points_refuse_non_integer_counts_and_seeds(
        entry, trials, master_seed, name):
    # Before, these trials raised an untyped TypeError, the negative seeds
    # numpy's ValueError, and seeds 2.5 and (1, 2.5) ran as 2 and (1, 2).
    with pytest.raises(DomainError, match=name):
        entry(make_scenario(), trials, master_seed)


def test_integer_counts_and_seeds_of_every_accepted_type_agree():
    scen = make_scenario()
    ts0, ts1 = simulate_test_statistics(scen, 100, 7)
    for trials, master_seed in ((np.int64(100), 7), (100, np.int64(7)),
                                (100, np.uint8(7)), (100, [7]),
                                (100, (np.int32(7),))):
        a0, a1 = simulate_test_statistics(scen, trials, master_seed)
        assert a0.tobytes() == ts0.tobytes() and a1.tobytes() == ts1.tobytes()
    pair = simulate_test_statistics(scen, 100, (1, 2))
    for master_seed in ([1, 2], (np.int64(1), np.uint16(2))):
        again = simulate_test_statistics(scen, 100, master_seed)
        assert [a.tobytes() for a in again] == [a.tobytes() for a in pair]


def test_empirical_rates_against_analytic():
    scen = make_scenario(power_db=60.0, gain=1.0)
    cfg = calibrate_threshold(scen, 0.2)
    rates = empirical_rates(scen, cfg, 40_000, 77)
    assert rates.trials == 40_000
    assert abs(rates.p_fa - 0.2) <= 3.0 * rates.stderr_fa + 1e-3
    md = p_md_analytic(scen, cfg)
    assert abs(rates.p_md - md) <= 3.0 * rates.stderr_md + 1e-3
    assert rates.stderr_fa == pytest.approx(
        math.sqrt(rates.p_fa * (1 - rates.p_fa) / rates.trials), rel=1e-9)


def test_error_rates_count_each_hypothesis_over_its_own_statistics():
    rates = count_error_rates(np.array([1.0, 3.0, 5.0, 7.0]),
                              np.array([0.5, 2.0, 6.0, 8.0]), 4.0)
    assert rates == authentication.ErrorRates(
        p_fa=0.5, p_md=0.5, stderr_fa=0.25, stderr_md=0.25, trials=4)


@pytest.mark.parametrize("ts_h0, ts_h1, threshold, message", [
    # 10 H0 and 5 H1 statistics, all misses, once read as p_md = 0.5.
    (np.zeros(10), np.zeros(5), 1.0, "equally many"),
    (np.zeros(5), np.zeros(10), 1.0, "equally many"),
    # Empty samples once raised an untyped ZeroDivisionError.
    (np.zeros(0), np.zeros(0), 1.0, "at least one"),
    # A NaN threshold once counted nothing and reported 0 +- 0.
    (np.zeros(3), np.zeros(3), float("nan"), "NaN"),
], ids=["short-h1", "short-h0", "empty", "nan-threshold"])
def test_error_rates_refuse_mismatched_empty_or_nan_inputs(
        ts_h0, ts_h1, threshold, message):
    with pytest.raises(DomainError, match=message):
        count_error_rates(ts_h0, ts_h1, threshold)


def test_power_axis_forms_are_the_per_power_forms_bit_for_bit():
    scen = make_scenario(gain=2.5)
    d_tx = np.vstack([scen.alice_distances(), scen.eve_distances()])
    powers = np.linspace(-37.3, 141.1, 23)
    scales, offsets = statistic_form(d_tx, d_tx[0], scen.channel,
                                     powers_db=powers)
    assert scales.shape == (23, 2, 3)
    for p, got in zip(powers, scales):
        channel = ChannelParams(transmit_power_db=float(p),
                                signal_design_gain=2.5)
        want, want_offsets = statistic_form(d_tx, d_tx[0], channel)
        assert got.tobytes() == want.tobytes()
        assert offsets.tobytes() == want_offsets.tobytes()


def test_position_space_statistic_never_exceeds_residual_norm():
    rng = np.random.default_rng(21)
    for _ in range(50):
        anchors = AnchorArray(rng.uniform(-500.0, 500.0, (5, 2)))
        src = rng.uniform(-300.0, 300.0, 2)
        claim = rng.uniform(-300.0, 300.0, 2)
        d = anchors.distances_to(src)
        obs = obs_from_squared(d * d + 2.0 * rng.normal(0, 3.0, 5) * d)
        ts = statistic(residual_vector(obs, anchors, claim))
        ts_p = statistic_pinv(obs, anchors, claim)
        assert ts_p <= ts * (1.0 + 1e-9) + 1e-9


def test_position_space_statistic_matches_the_pseudoinverse_oracle():
    # The statistic is |pinv(E) (E b - claim)|^2 for the estimator rows E;
    # the oracle takes pinv(E) from numpy's SVD. Anchors lie anywhere in a
    # square, or within 2 m of a line, where cond(E) reaches ~2e4 and a
    # solve with E E^T is off by ~1e-8.
    rng = np.random.default_rng(23)
    for L, spread in itertools.product((3, 5, 7), (None, 2.0)):
        for _ in range(50):
            if spread is None:
                xy = rng.uniform(-500.0, 500.0, (L, 2))
            else:
                u = rng.normal(size=2)
                u /= np.hypot(*u)
                xy = (np.outer(rng.uniform(-500.0, 500.0, L), u)
                      + np.outer(rng.uniform(-spread, spread, L),
                                 [-u[1], u[0]]))
            anchors = AnchorArray(xy)
            d = anchors.distances_to(rng.uniform(-300.0, 300.0, 2))
            obs = obs_from_squared(d * d + 2.0 * rng.normal(0, 3.0, L) * d)
            claim = rng.uniform(-300.0, 300.0, 2)
            A, b = localization.build_system(anchors, obs.observed_sq_m2)
            E = np.linalg.pinv(A)[:2]
            back = np.linalg.pinv(E) @ (E @ b - claim)
            assert statistic_pinv(obs, anchors, claim) == pytest.approx(
                back @ back, rel=1e-10)


def test_position_space_statistic_equality_in_row_space():
    # With three anchors the truncated estimator annihilates exactly the
    # all-ones direction; any residual orthogonal to it is reproduced.
    rng = np.random.default_rng(22)
    A = TRIANGLE.design_matrix()
    anchor_sq = (TRIANGLE.xy ** 2).sum(axis=1)
    ones = np.ones(3) / math.sqrt(3.0)
    for _ in range(25):
        claim = rng.uniform(-300.0, 300.0, 2)
        r = rng.normal(0.0, 1000.0, 3)
        r -= (r @ ones) * ones
        lift = np.array([claim[0], claim[1], claim @ claim])
        obs = obs_from_squared(A @ lift + anchor_sq + r)
        ts = statistic(residual_vector(obs, TRIANGLE, claim))
        ts_p = statistic_pinv(obs, TRIANGLE, claim)
        assert ts_p == pytest.approx(ts, rel=1e-8, abs=1e-8)


PACKETS = Path(__file__).resolve().parent / "data" / "baseline-packets.json"


def test_packet_stream_reproduces_the_recorded_outputs_bit_for_bit():
    # Written by tools/packet_reference.py: 200 seeded packets on the
    # baseline geometry at 50 dB, half from the claim and half from
    # uniformly placed impersonators, with the statistic, verdict and
    # position the program gave each.
    recorded = json.loads(PACKETS.read_text())
    anchors = AnchorArray(np.array(recorded["anchors"]))
    claim = np.array(recorded["claim"])
    config = DecisionConfig(recorded["threshold"])
    packets = recorded["packets"]
    assert {(p["from_eve"], p["verdict"]) for p in packets} >= {
        (False, "H0_NO_IMPERSONATION"), (True, "H1_IMPERSONATION")}
    for pkt in packets:
        obs = obs_from_squared(pkt["observed_sq_m2"])
        ts = statistic(residual_vector(obs, anchors, claim))
        X = localization.solve_position(
            *localization.build_system(anchors, obs.observed_sq_m2))
        assert (ts, decide(ts, config).name, X.tolist()) == (
            pkt["ts"], pkt["verdict"], pkt["position"])


def test_stacked_residuals_are_the_per_packet_residuals_bit_for_bit():
    recorded = json.loads(PACKETS.read_text())
    anchors = AnchorArray(np.array(recorded["anchors"]))
    # Off the origin, so that the claim's model is not zero.
    claim = np.array([120.37, -33.91])
    observed = np.array([p["observed_sq_m2"] for p in recorded["packets"]])
    rows = [residual_vector(obs_from_squared(o), anchors, claim)
            for o in observed]
    stacked = authentication._residual(anchors, observed, claim)
    assert stacked.tobytes() == np.array(rows).tobytes()


def test_residual_follows_a_claim_mutated_in_place_or_given_as_a_sequence():
    obs = obs_from_squared([260000.0, 510000.0, 490000.0])
    A, b = localization.build_system(TRIANGLE, obs.observed_sq_m2)

    def expected(x, y):
        return b - A @ np.array([x, y, x ** 2 + y ** 2])

    claim = np.array([10.3, -20.7])
    first = residual_vector(obs, TRIANGLE, claim)
    np.testing.assert_array_equal(first, expected(10.3, -20.7))
    claim[0] = 300.9
    moved = residual_vector(obs, TRIANGLE, claim)
    np.testing.assert_array_equal(moved, expected(300.9, -20.7))
    assert not np.array_equal(first, moved)
    np.testing.assert_array_equal(
        residual_vector(obs, TRIANGLE, [300.9, -20.7]), moved)
    np.testing.assert_array_equal(
        residual_vector(obs, TRIANGLE, (10.3, -20.7)), first)
    np.testing.assert_array_equal(
        residual_vector(obs, TRIANGLE, (10, -20)), expected(10.0, -20.0))
    # The lift in Python floats rounds as float64 scalars do.
    rng = np.random.default_rng(21)
    for _ in range(50):
        anchors = AnchorArray(rng.uniform(-500.0, 500.0, (5, 2)))
        x, y = rng.uniform(-450.0, 450.0, 2)
        obs = obs_from_squared(rng.uniform(1e4, 1e6, 5))
        A, b = localization.build_system(anchors, obs.observed_sq_m2)
        np.testing.assert_array_equal(
            residual_vector(obs, anchors, (x, y)),
            b - A @ np.array([x, y, x ** 2 + y ** 2]))


def fresh_residual(anchors, observed_sq, claim):
    # The residual formed from scratch, with no model kept between packets.
    A, b = localization.build_system(anchors, observed_sq)
    return b - A.dot(authentication._lift(np.asarray(claim, dtype=float)))


def test_residuals_alternating_claims_and_geometries_are_fresh_bit_for_bit():
    # Every packet changes the claim, the anchors or both, so each one
    # replaces the model the anchors keep, or meets another anchors' slot.
    rng = np.random.default_rng(31)
    geometries = [TRIANGLE, AnchorArray(rng.uniform(-500.0, 500.0, (5, 2)))]
    claims = [np.array([120.37, -33.91]), (-250.5, 310.25)]
    for k in range(40):
        anchors = geometries[k % 2]
        claim = claims[(k // 2) % 2]
        obs = obs_from_squared(rng.uniform(1e4, 1e6, len(anchors)))
        r = residual_vector(obs, anchors, claim)
        assert r.tobytes() == fresh_residual(
            anchors, obs.observed_sq_m2, claim).tobytes()


def test_a_negative_zero_claim_after_a_zero_claim_is_lifted_again():
    obs = obs_from_squared([260000.0, 510000.0, 490000.0])
    for claim in ([0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0],
                  [0.0, 0.0]):
        r = residual_vector(obs, TRIANGLE, np.array(claim))
        assert r.tobytes() == fresh_residual(
            TRIANGLE, obs.observed_sq_m2, claim).tobytes()
        assert TRIANGLE._claim_model[0][0] == ((2,), np.array(claim).tobytes())


@pytest.mark.parametrize("shape, error", [
    ((1, 2), ValueError), ((2, 1), TypeError), ((3,), ValueError)])
def test_a_refused_claim_is_refused_after_a_hit_on_its_values(shape, error):
    obs = obs_from_squared([260000.0, 510000.0, 490000.0])
    values = np.array([10.3, -20.7, 0.0])
    claim = values[:2]
    for _ in range(2):
        residual_vector(obs, TRIANGLE, claim)
    with pytest.raises(error):
        residual_vector(obs, TRIANGLE, values[:np.prod(shape)].reshape(shape))
    assert residual_vector(obs, TRIANGLE, claim).tobytes() == fresh_residual(
        TRIANGLE, obs.observed_sq_m2, claim).tobytes()


def test_threads_sharing_the_anchors_read_a_matching_claim_model():
    # Every call alternates between two claims, so each one replaces the
    # slot; a model read next to the other claim's key would show as a
    # wrong residual.
    rng = np.random.default_rng(32)
    anchors = AnchorArray(rng.uniform(-500.0, 500.0, (4, 2)))
    obs = obs_from_squared(rng.uniform(1e4, 1e6, 4))
    claims = [rng.uniform(-400.0, 400.0, 2) for _ in range(2)]
    expected = [fresh_residual(anchors, obs.observed_sq_m2, c).tobytes()
                for c in claims]
    wrong = []

    def run(k):
        for i in range(2000):
            j = (i + k) % 2
            if residual_vector(obs, anchors, claims[j]).tobytes() != expected[j]:
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_packet_stream_off_the_origin_lifts_the_claim_once(monkeypatch):
    # The recorded stream claims the origin, where the model A chi(claim)
    # is exactly zero; off it, every packet after the first reuses the
    # model, which must round as the packet's own formula does. At this
    # claim, adding the model's three terms in any other order changes
    # the statistic of some of the 200 packets.
    recorded = json.loads(PACKETS.read_text())
    anchors = AnchorArray(np.array(recorded["anchors"]))
    claim = np.array([87.65, 43.21])
    lift = authentication._lift
    lifts = []

    def counted_lift(point):
        lifts.append(point)
        return lift(point)

    monkeypatch.setattr(authentication, "_lift", counted_lift)
    for pkt in recorded["packets"]:
        obs = obs_from_squared(pkt["observed_sq_m2"])
        A, b = localization.build_system(anchors, obs.observed_sq_m2)
        r = b - A.dot(np.array([claim[0], claim[1],
                                claim[0] ** 2 + claim[1] ** 2]))
        assert statistic(residual_vector(obs, anchors, claim)) == float(
            r.dot(r))
    assert len(lifts) == 1
