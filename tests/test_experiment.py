"""Power sweeps, ROC curves, and the packaged reference scenario."""

import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from uwauth import (
    DomainError,
    QuadFormDist,
    SweepSpec,
    baseline_scenario,
    calibrate_threshold,
    default_power_grid,
    default_thresholds,
    h0_distribution,
    h1_distribution,
    p_fa_analytic,
    quadform,
    region_point_set,
    roc_curve,
    run_sweep,
)
from uwauth import authentication, cli, experiment
from uwauth.authentication import (
    count_error_rates,
    simulate_test_statistics,
    statistic_form,
)
from uwauth.experiment import MAX_ROC_POINTS


def small_spec(**kw):
    scen = baseline_scenario(signal_design_gain=1.0, eve=(150.0, -80.0))
    ths = default_thresholds(scen, at_power_db=52.5, h0_quantiles=(0.5, 0.9))
    args = dict(scenario=scen, power_grid_db=[50.0, 55.0],
                thresholds=ths, trials_per_point=2000, master_seed=9)
    args.update(kw)
    return SweepSpec(**args)


def test_rows_are_power_major_and_complete():
    spec = small_spec()
    t1, t2 = (float(t) for t in spec.thresholds)
    rows = run_sweep(spec)
    assert len(rows) == 4
    assert [(r.power_db, r.threshold) for r in rows] == [
        (50.0, t1), (50.0, t2), (55.0, t1), (55.0, t2)]
    for r in rows:
        assert 0.0 <= r.p_fa_analytic <= 1.0
        assert 0.0 <= r.p_md_analytic <= 1.0
        assert r.p_fa_emp is not None and r.stderr_fa is not None


def test_analytic_columns_match_library_calls():
    spec = small_spec(trials_per_point=0)
    rows = run_sweep(spec)
    for r in rows:
        assert r.p_fa_emp is None and r.p_md_emp is None
        assert r.stderr_fa is None and r.stderr_md is None
        scen = dataclasses.replace(
            spec.scenario,
            channel=dataclasses.replace(spec.scenario.channel,
                                        transmit_power_db=r.power_db))
        assert r.p_fa_analytic == h0_distribution(scen).sf(r.threshold)
        assert r.p_md_analytic == h1_distribution(scen).cdf(r.threshold)


def test_sweep_is_deterministic_and_worker_invariant():
    r1 = run_sweep(small_spec())
    r2 = run_sweep(small_spec())
    r3 = run_sweep(small_spec(), workers=4)
    assert r1 == r2 == r3
    r4 = run_sweep(small_spec(master_seed=10))
    assert [x.p_fa_emp for x in r4] != [x.p_fa_emp for x in r1]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("eve", [(150.0, -80.0), None],
                         ids=["fixed", "uniform"])
@pytest.mark.parametrize("trials", [1, 2000, 2049, 4096, 4097, 9000])
def test_monte_carlo_columns_are_per_power_empirical_rates_bit_for_bit(
        trials, eve, workers):
    # Batches hold whole powers, as many as fit in 4096 trials: all five
    # powers at 1 trial, two, two and one at 2000, one from 2049 on; 4097
    # and 9000 trials take more than one block per power.
    scen = baseline_scenario(signal_design_gain=1.0, eve=eve)
    grid = [35.0, 42.5, 50.0, 57.5, 65.0]
    ths = default_thresholds(scen, h0_quantiles=(0.5, 0.9))
    spec = SweepSpec(scenario=scen, power_grid_db=grid, thresholds=ths,
                     trials_per_point=trials, master_seed=5,
                     analytic_eve_count=3)
    rows = iter(run_sweep(spec, workers=workers))
    for i, power in enumerate(grid):
        at_power = dataclasses.replace(scen, channel=dataclasses.replace(
            scen.channel, transmit_power_db=power))
        for th in ths:
            row = next(rows)
            rates = count_error_rates(
                *simulate_test_statistics(at_power, trials, (5, i)),
                float(th))
            got = (row.p_fa_emp, row.p_md_emp, row.stderr_fa, row.stderr_md)
            want = (rates.p_fa, rates.p_md, rates.stderr_fa, rates.stderr_md)
            assert [repr(v) for v in got] == [repr(v) for v in want]


@pytest.mark.parametrize("power_db", [4000.0, -4000.0])
def test_sweep_and_simulation_refuse_powers_without_a_finite_variance(
        power_db):
    scen = baseline_scenario(signal_design_gain=1.0, eve=None)
    spec = SweepSpec(scenario=scen, power_grid_db=[50.0, power_db],
                     thresholds=[1e5], trials_per_point=10)
    at_power = baseline_scenario(transmit_power_db=power_db)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: run_sweep(spec),
                     lambda: list(authentication._simulate(
                         scen, spec.power_grid_db, [(0, 0), (0, 1)], 10, 1)),
                     lambda: simulate_test_statistics(at_power, 10, 1)):
            with pytest.raises(DomainError, match="variance"):
                call()


@pytest.mark.parametrize("eve", [None, (150.0, -80.0)],
                         ids=["uniform", "fixed"])
def test_sweep_monte_carlo_takes_the_fixed_noise_scales_once(eve,
                                                             monkeypatch):
    # 21 powers of 2000 trials run as 11 batches of at most two powers;
    # the legitimate node's scales, and a fixed eve's, still come from one
    # noise-model call for the whole grid.
    scen = baseline_scenario(eve=eve)
    spec = SweepSpec(scenario=scen, power_grid_db=default_power_grid(),
                     thresholds=[1.0, 100.0], trials_per_point=2000,
                     analytic_eve_count=5)
    calls = []
    noise_variance = authentication._noise_variance

    def spy(d, *args):
        calls.append(np.array(d, copy=True))
        return noise_variance(d, *args)

    monkeypatch.setattr(authentication, "_noise_variance", spy)
    run_sweep(spec)

    def count(d):
        return sum(c.shape == d.shape and np.array_equal(c, d) for c in calls)

    assert count(scen.alice_distances()) == 1
    if eve is None:
        assert sum(c.ndim == 3 for c in calls) == 11
    else:
        assert count(scen.eve_distances()) == 1


def test_sweep_counts_ties_as_count_error_rates_does():
    # Thresholds exactly on a drawn H0 and a drawn H1 statistic: the tie
    # is no false alarm but is a miss, in both counts. 5000 trials span
    # two blocks.
    trials, seed = 5000, 11
    scen = baseline_scenario(signal_design_gain=1.0, eve=None)
    at_power = baseline_scenario(transmit_power_db=50.0,
                                 signal_design_gain=1.0, eve=None)
    ts0, ts1 = simulate_test_statistics(at_power, trials, (seed, 0))
    ths = [np.sort(ts0)[trials // 3], np.sort(ts1)[trials // 3]]
    spec = SweepSpec(scenario=scen, power_grid_db=[50.0], thresholds=ths,
                     trials_per_point=trials, master_seed=seed,
                     analytic_eve_count=5)
    rows = run_sweep(spec)
    for row, th in zip(rows, ths):
        rates = count_error_rates(ts0, ts1, th)
        assert (row.p_fa_emp, row.p_md_emp) == (rates.p_fa, rates.p_md)
    assert np.count_nonzero(ts0 == ths[0]) == 1
    assert rows[0].p_fa_emp == np.count_nonzero(ts0 > ths[0]) / trials
    assert np.count_nonzero(ts1 == ths[1]) == 1
    assert rows[1].p_md_emp == (np.count_nonzero(ts1 < ths[1]) + 1) / trials


@pytest.mark.parametrize("workers", [1.5, True, "2", None])
def test_sweep_refuses_a_worker_count_that_is_not_an_integer(workers):
    with pytest.raises(DomainError, match="workers must be a positive"):
        run_sweep(small_spec(), workers=workers)


def test_sweep_takes_a_numpy_integer_worker_count():
    assert run_sweep(small_spec(), workers=np.int64(2)) == run_sweep(
        small_spec())


def test_empirical_columns_track_analytic_ones():
    spec = small_spec(trials_per_point=30_000,
                      thresholds=[3e5], power_grid_db=[55.0])
    (row,) = run_sweep(spec, workers=3)
    assert abs(row.p_fa_emp - row.p_fa_analytic) <= 3 * row.stderr_fa + 1e-3
    assert abs(row.p_md_emp - row.p_md_analytic) <= 3 * row.stderr_md + 1e-3


def test_uniform_impersonator_averages_the_analytic_miss_rate():
    scen = baseline_scenario(signal_design_gain=1.0, eve=None)
    spec = SweepSpec(scenario=scen, power_grid_db=[50.0], thresholds=[2e5],
                     analytic_eve_count=16)
    (row,) = run_sweep(spec)
    pts = region_point_set(16, scen.region)
    mds = []
    for p in pts:
        s = dataclasses.replace(scen, eve=np.asarray(p))
        mds.append(h1_distribution(s).cdf(2e5))
    assert row.p_md_analytic == float(np.mean(mds))
    # false-alarm side never depends on the impersonator
    assert row.p_fa_analytic == pytest.approx(
        h0_distribution(scen).sf(2e5), abs=1e-12)


def test_uniform_sweep_makes_no_per_cell_cdf_calls(monkeypatch):
    # Both powers' 26 forms fit one block, so the sweep is one cdf_grid
    # call: one saddle-curve solve, and no QuadFormDist.cdf call per
    # (region point, threshold) cell.
    solves, cdf_calls = [], []
    curve_points, scalar_cdf = quadform._curve_points, QuadFormDist.cdf

    def counting_curve_points(w, lam):
        solves.append(w.shape[0])
        return curve_points(w, lam)

    def counting_cdf(self, x):
        cdf_calls.append(x)
        return scalar_cdf(self, x)

    monkeypatch.setattr(quadform, "_curve_points", counting_curve_points)
    monkeypatch.setattr(QuadFormDist, "cdf", counting_cdf)
    scen = baseline_scenario(signal_design_gain=1.0, eve=None)
    spec = SweepSpec(scenario=scen, power_grid_db=[40.0, 50.0],
                     thresholds=[1e5, 2e5], analytic_eve_count=25)
    rows = run_sweep(spec)
    assert len(rows) == 4
    assert solves == [2 * 26]
    assert cdf_calls == []


def test_blocking_the_power_grid_cannot_change_a_number(monkeypatch):
    scen = baseline_scenario(signal_design_gain=1.0, eve=None)
    spec = SweepSpec(scenario=scen,
                     power_grid_db=[20.0, 35.0, 50.0, 65.0, 80.0],
                     thresholds=[1e5, 2e5], analytic_eve_count=12)
    runs = []
    # Blocks of one power (a 1-form limit still takes one), of two powers'
    # 26 forms, and the default's one block of all five.
    for forms in (1, 2 * 13, experiment._BLOCK_FORMS):
        monkeypatch.setattr(experiment, "_BLOCK_FORMS", forms)
        runs.append(run_sweep(spec))
    assert len(runs[0]) == 10
    assert runs[0] == runs[1] == runs[2]


@pytest.fixture
def scalar_quadform_calls(monkeypatch):
    """Record every QuadFormDist.cdf/sf call and the number of levels of
    every quantile search, which QuadFormDist.quantile and quantile_grid
    each make once."""
    calls = {"cdf": [], "sf": [], "quantile": []}
    cdf, sf = QuadFormDist.cdf, QuadFormDist.sf
    search = quadform._quantile_search

    def counting_cdf(self, x):
        calls["cdf"].append(x)
        return cdf(self, x)

    def counting_sf(self, x):
        calls["sf"].append(x)
        return sf(self, x)

    def counting_search(form, p):
        calls["quantile"].append(np.size(p))
        return search(form, p)

    monkeypatch.setattr(QuadFormDist, "cdf", counting_cdf)
    monkeypatch.setattr(QuadFormDist, "sf", counting_sf)
    monkeypatch.setattr(quadform, "_quantile_search", counting_search)
    return calls


def test_batched_paths_make_no_scalar_cdf_or_per_level_quantile_calls(
        scalar_quadform_calls):
    calls = scalar_quadform_calls
    scen = baseline_scenario(signal_design_gain=1.0)
    fa, pd = roc_curve(scen, points=7)
    assert fa.shape == pd.shape == (7,)
    assert calls == {"cdf": [], "sf": [], "quantile": [7]}

    calls["quantile"].clear()
    ths = default_thresholds(scen, h0_quantiles=(0.5, 0.9, 0.99))
    assert ths.shape == (3,)
    assert calls == {"cdf": [], "sf": [], "quantile": [3]}

    calls["quantile"].clear()
    for eve in ((100.0, 100.0), None):
        spec = SweepSpec(
            scenario=baseline_scenario(signal_design_gain=1.0, eve=eve),
            power_grid_db=[40.0, 50.0], thresholds=ths, analytic_eve_count=9)
        assert len(run_sweep(spec)) == 6
    assert calls == {"cdf": [], "sf": [], "quantile": []}


def test_roc_point_count_is_bounded():
    scen = baseline_scenario(signal_design_gain=1.0)
    for points in (1, MAX_ROC_POINTS + 1, 2.5, True):
        with pytest.raises(DomainError, match=str(MAX_ROC_POINTS)):
            roc_curve(scen, points=points)


def test_spec_validation():
    scen = baseline_scenario()
    with pytest.raises(DomainError):
        SweepSpec(scenario=scen, power_grid_db=[], thresholds=[1.0])
    with pytest.raises(DomainError):
        SweepSpec(scenario=scen, power_grid_db=[10.0], thresholds=[-1.0])
    with pytest.raises(DomainError):
        SweepSpec(scenario=scen, power_grid_db=[10.0], thresholds=[1.0],
                  trials_per_point=-5)
    with pytest.raises(DomainError):
        SweepSpec(scenario=scen, power_grid_db=[10.0], thresholds=[1.0],
                  analytic_eve_count=0)
    with pytest.raises(DomainError, match="1-d"):
        SweepSpec(scenario=scen, power_grid_db=np.zeros((2, 2)),
                  thresholds=[1.0])
    for field, value in (("analytic_eve_count", 2.5),
                         ("analytic_eve_count", True),
                         ("trials_per_point", 10.5),
                         ("master_seed", 2.5),
                         ("master_seed", -1)):
        with pytest.raises(DomainError, match=f"{field} must be a"):
            SweepSpec(scenario=scen, power_grid_db=[10.0], thresholds=[1.0],
                      **{field: value})


def test_roc_refuses_a_uniform_impersonator_before_any_quantile(
        monkeypatch):
    def fail(a, d):
        raise AssertionError("forms prepared")

    monkeypatch.setattr(quadform, "_prepare", fail)
    with pytest.raises(DomainError, match="eve"):
        roc_curve(baseline_scenario(eve=None), points=11)


def test_roc_equals_its_definition_bit_for_bit():
    # p_fa is the H0 sf and p_d the H1 sf at each calibrated threshold; at
    # gain 1.0, 0 and 50 dB, every p_d here is inverted, not saturated.
    for power in (0.0, 50.0):
        scen = baseline_scenario(signal_design_gain=1.0,
                                 transmit_power_db=power)
        targets = np.linspace(1e-6, 1.0 - 1e-6, 51)
        ths = [c.threshold for c in calibrate_threshold(scen, targets)]
        h0, h1 = h0_distribution(scen), h1_distribution(scen)
        fa, pd = roc_curve(scen, points=51)
        assert fa.tolist() == [h0.sf(t) for t in ths]
        assert pd.tolist() == [1.0 - h1.cdf(t) for t in ths]
        assert np.all((pd > 0.0) & (pd < 1.0))


def test_roc_h0_row_is_the_h0_form_bit_for_bit():
    # roc_curve builds the H0 and H1 forms in one statistic_form call.
    for power in np.arange(-20.0, 120.5, 0.5):
        scen = baseline_scenario(transmit_power_db=power)
        d_alice = scen.alice_distances()
        scales, offsets = statistic_form(
            np.vstack([d_alice, scen.eve_distances()]), d_alice,
            scen.channel)
        h0 = h0_distribution(scen)
        assert np.array_equal(scales[0], h0.scales)
        assert np.array_equal(offsets[0], h0.offsets)


def test_roc_solves_once_and_inverts_no_h0_cell_after_its_search(
        monkeypatch):
    # The shipped fixed-eve scenario at 50 dB: one saddle-curve solve for
    # both forms, a search of at most 6 passes over the H0 form, and then
    # one pass over the H1 form alone, since p_fa is the search's own CDF.
    config = cli._load_config(str(Path(__file__).resolve().parents[1]
                                  / "configs" / "fixed-eve.json"))
    scen = cli._scenario_from(config, power_db=50.0)
    h0_w = h0_distribution(scen)._form[0]
    h1_w = h1_distribution(scen)._form[0]
    curve_points, search = quadform._curve_points, quadform._quantile_search
    lower_prob = quadform._lower_prob
    events = []

    def counting_curve_points(w, lam):
        events.append(("curve", w.shape[0]))
        return curve_points(w, lam)

    def counting_search(form, p):
        events.append(("search", None))
        result = search(form, p)
        events.append(("searched", None))
        return result

    def recording_lower_prob(*args):
        events.append(("pass", args[0].copy()))
        return lower_prob(*args)

    monkeypatch.setattr(quadform, "_curve_points", counting_curve_points)
    monkeypatch.setattr(quadform, "_quantile_search", counting_search)
    monkeypatch.setattr(quadform, "_lower_prob", recording_lower_prob)
    roc_curve(scen, points=101)
    passes = len(events) - 4
    assert [kind for kind, _ in events] == (
        ["curve", "search"] + ["pass"] * passes + ["searched", "pass"])
    assert events[0] == ("curve", 2) and passes <= 6
    assert all(np.array_equal(w, h0_w) for _, w in events[2:-2])
    assert np.array_equal(events[-1][1], h1_w)


def test_roc_spans_both_corners_and_is_monotone():
    scen = baseline_scenario(signal_design_gain=1.0)
    fa, pd = roc_curve(scen, points=51)
    assert fa.shape == pd.shape == (51,)
    assert fa[0] == pytest.approx(1e-6, abs=2e-6)
    assert fa[-1] == pytest.approx(1.0, abs=2e-6)
    assert np.all(np.diff(fa) > -1e-9)
    assert np.all(np.diff(pd) > -1e-9)
    # detection can never do worse than chance here
    assert np.all(pd >= fa - 1e-6)


def test_roc_collapses_to_diagonal_for_colocated_impersonator():
    scen = baseline_scenario(signal_design_gain=1.0, eve=(0.0, 0.0))
    fa, pd = roc_curve(scen, points=21)
    np.testing.assert_allclose(pd, fa, atol=1e-6)


def test_roc_two_points_are_the_extremes():
    scen = baseline_scenario(signal_design_gain=1.0)
    fa, pd = roc_curve(scen, points=2)
    assert fa[0] < 1e-5 and fa[1] > 1 - 1e-5
    assert pd[1] > 1 - 1e-5


def test_reference_scenario_shape():
    scen = baseline_scenario()
    np.testing.assert_array_equal(
        scen.anchors.xy, [[0.0, 500.0], [-500.0, -500.0], [-500.0, 500.0]])
    np.testing.assert_array_equal(scen.alice, [0.0, 0.0])
    np.testing.assert_array_equal(scen.eve, [100.0, 100.0])
    assert scen.channel.signal_design_gain == 1.0e6
    assert scen.region == (1000.0, 1000.0)
    grid = default_power_grid()
    assert grid[0] == 0.0 and grid[-1] == 100.0 and len(grid) == 21
    assert np.all(np.diff(grid) == 5.0)


def test_default_thresholds_are_h0_quantiles():
    scen = baseline_scenario()
    ths = default_thresholds(scen, at_power_db=50.0,
                             h0_quantiles=(0.5, 0.9, 0.99))
    assert list(ths) == sorted(ths)
    for q, th in zip((0.5, 0.9, 0.99), ths):
        cfg = calibrate_threshold(scen, 1.0 - q)
        assert th == cfg.threshold


def test_region_points_fill_the_rectangle_deterministically():
    pts = region_point_set(64, (1000.0, 600.0))
    again = region_point_set(64, (1000.0, 600.0))
    np.testing.assert_array_equal(pts, again)
    assert pts.shape == (64, 2)
    assert np.all(np.abs(pts[:, 0]) <= 500.0)
    assert np.all(np.abs(pts[:, 1]) <= 300.0)
    # low-discrepancy stream: no duplicates, not stuck in one quadrant
    assert len(np.unique(pts.round(9), axis=0)) == 64
    assert np.any(pts[:, 0] > 0) and np.any(pts[:, 0] < 0)
    assert np.any(pts[:, 1] > 0) and np.any(pts[:, 1] < 0)


@pytest.mark.parametrize("count", [1, 16, 1000, 100_000])
def test_region_points_are_the_unscrambled_halton_set(count):
    from scipy.stats import qmc

    sampler = qmc.Halton(d=2, scramble=False)
    sampler.fast_forward(1)
    expected = (sampler.random(count) - 0.5) * np.array([1000.0, 600.0])
    got = region_point_set(count, (1000.0, 600.0))
    assert got.shape == (count, 2)
    assert np.array_equal(got, expected)


def test_region_points_avoid_the_corner_start():
    pts = region_point_set(4, (1000.0, 1000.0))
    assert not np.any(np.all(pts == [-500.0, -500.0], axis=1))


def test_array_holding_specs_compare_by_value():
    dist = QuadFormDist([1.0, 2.0], [0.5, -1.5])
    assert (dist == QuadFormDist(np.array([1.0, 2.0]), [0.5, -1.5])) is True
    assert (dist == QuadFormDist([1.0, 2.0], [0.5, -1.0])) is False
    assert (dist == QuadFormDist([1.0, 2.0, 1.0], [0.5, -1.5, 0.0])) is False
    assert dist != QuadFormDist([1.0, 3.0], [0.5, -1.5])
    assert not dist != QuadFormDist([1.0, 2.0], [0.5, -1.5])
    dist.cdf(3.0)  # cached solver state is not a field
    assert (dist == QuadFormDist([1.0, 2.0], [0.5, -1.5])) is True
    spec = small_spec(trials_per_point=0)
    assert (spec == small_spec(trials_per_point=0)) is True
    assert (spec == small_spec(trials_per_point=0,
                               power_grid_db=[50.0, 60.0])) is False
    assert (spec == small_spec(trials_per_point=0,
                               thresholds=spec.thresholds[:1])) is False
    assert spec != small_spec()
    assert spec != small_spec(trials_per_point=0, scenario=baseline_scenario())
    assert not spec != small_spec(trials_per_point=0)
    assert spec != dist
    for value in (dist, spec):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
