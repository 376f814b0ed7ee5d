"""Power sweeps, ROC curves, and the packaged reference scenario."""

import dataclasses
import math

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
    region_point_set,
    roc_curve,
    run_sweep,
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


def test_empirical_columns_track_analytic_ones():
    spec = small_spec(trials_per_point=30_000,
                      thresholds=[3e5], power_grid_db=[55.0])
    (row,) = run_sweep(spec, workers=3)
    assert abs(row.p_fa_emp - row.p_fa_analytic) <= 3 * row.stderr_fa + 1e-3
    assert abs(row.p_md_emp - row.p_md_analytic) <= 3 * row.stderr_md + 1e-3


def test_uniform_impersonator_averages_the_analytic_miss_rate():
    scen = baseline_scenario(signal_design_gain=1.0, eve=None)
    spec = SweepSpec(scenario=scen, power_grid_db=[50.0], thresholds=[2e5],
                     eve_mode="uniform", analytic_eve_count=16)
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
    # The region average is one batched cdf_grid call per power, not one
    # QuadFormDist.cdf call per (region point, threshold) cell.
    calls = []
    scalar_cdf = QuadFormDist.cdf

    def counting_cdf(self, x):
        calls.append(x)
        return scalar_cdf(self, x)

    monkeypatch.setattr(QuadFormDist, "cdf", counting_cdf)
    scen = baseline_scenario(signal_design_gain=1.0, eve=None)
    spec = SweepSpec(scenario=scen, power_grid_db=[40.0, 50.0],
                     thresholds=[1e5, 2e5], eve_mode="uniform",
                     analytic_eve_count=25)
    rows = run_sweep(spec)
    assert len(rows) == 4
    assert calls == []


@pytest.fixture
def scalar_quadform_calls(monkeypatch):
    """Record every QuadFormDist.cdf/sf call and the number of levels of
    every quantile call."""
    calls = {"cdf": [], "sf": [], "quantile": []}
    cdf, sf, quantile = QuadFormDist.cdf, QuadFormDist.sf, QuadFormDist.quantile

    def counting_cdf(self, x):
        calls["cdf"].append(x)
        return cdf(self, x)

    def counting_sf(self, x):
        calls["sf"].append(x)
        return sf(self, x)

    def counting_quantile(self, p):
        calls["quantile"].append(np.size(p))
        return quantile(self, p)

    monkeypatch.setattr(QuadFormDist, "cdf", counting_cdf)
    monkeypatch.setattr(QuadFormDist, "sf", counting_sf)
    monkeypatch.setattr(QuadFormDist, "quantile", counting_quantile)
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
    for eve_mode, eve in (("fixed", (100.0, 100.0)), ("uniform", None)):
        spec = SweepSpec(
            scenario=baseline_scenario(signal_design_gain=1.0, eve=eve),
            power_grid_db=[40.0, 50.0], thresholds=ths, eve_mode=eve_mode,
            analytic_eve_count=9)
        assert len(run_sweep(spec)) == 6
    assert calls == {"cdf": [], "sf": [], "quantile": []}


def test_roc_point_count_is_bounded():
    scen = baseline_scenario(signal_design_gain=1.0)
    for points in (1, MAX_ROC_POINTS + 1):
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
    with pytest.raises(DomainError, match="eve_mode"):
        SweepSpec(scenario=scen, power_grid_db=[10.0], thresholds=[1.0],
                  eve_mode="sometimes")
    with pytest.raises(DomainError):
        SweepSpec(scenario=scen, power_grid_db=[10.0], thresholds=[1.0],
                  eve_mode="uniform", analytic_eve_count=0)


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
