"""Lifted least-squares localization: system assembly, recovery, noise model."""

import copy
import pickle

import numpy as np
import pytest

from uwauth import authentication, localization
from uwauth import (
    AnchorArray,
    ChannelParams,
    DomainError,
    GeometryError,
    Scenario,
    build_system,
    consistency_gap,
    distance_noise_variance,
    sample_noisy_squared_distances,
    solve_position,
)
from uwauth.localization import draw_squared_distances

TRIANGLE = AnchorArray(np.array([[0.0, 500.0], [-500.0, -500.0], [-500.0, 500.0]]))


def lifted(point):
    x, y = point
    return np.array([x, y, x * x + y * y])


def test_design_matrix_rows_are_exact():
    A = TRIANGLE.design_matrix()
    np.testing.assert_array_equal(
        A,
        np.array([[0.0, -1000.0, 1.0],
                  [1000.0, 1000.0, 1.0],
                  [1000.0, -1000.0, 1.0]]))


def test_design_matrix_is_read_only():
    with pytest.raises(ValueError):
        TRIANGLE.design_matrix()[0, 0] = 1.0
    A, _ = build_system(TRIANGLE, np.ones(3))
    with pytest.raises(ValueError):
        A[1, 2] = 0.0


def test_build_system_subtracts_anchor_norms():
    obs = np.array([1.0, 2.0, 3.0])
    A, b = build_system(TRIANGLE, obs)
    np.testing.assert_allclose(b, obs - np.array([250000.0, 500000.0, 500000.0]))
    refusal = "one squared observation per anchor"
    with pytest.raises(DomainError, match=refusal):
        build_system(TRIANGLE, np.ones(4))
    # Stacked, (n, L), observations are checked the same way.
    with pytest.raises(DomainError, match=refusal):
        build_system(TRIANGLE, np.ones((5, 4)))
    with pytest.raises(DomainError, match=refusal):
        authentication._residual(TRIANGLE, np.ones((5, 2)),
                                 np.array([10.0, -20.0]))


def test_exact_lifted_vector_round_trips():
    # Solving A X = A X0 for full-rank A must return X0 itself, even when
    # the lifted coordinate is inconsistent with (x, y).
    rng = np.random.default_rng(11)
    for _ in range(25):
        X0 = rng.uniform(-400.0, 400.0, 3)
        X0[2] = abs(X0[2]) * 1000.0
        A = TRIANGLE.design_matrix()
        X = solve_position(A, A @ X0)
        np.testing.assert_allclose(X, X0, rtol=1e-10, atol=1e-7)


def test_noiseless_recovery_over_region():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        p = rng.uniform(-490.0, 490.0, 2)
        d = TRIANGLE.distances_to(p)
        A, b = build_system(TRIANGLE, d * d)
        X = solve_position(A, b)
        worst = max(worst, float(np.hypot(*(X[:2] - p))))
        assert consistency_gap(X) < 1e-6 * max(1.0, abs(X[2]))
    assert worst < 1e-9


def test_recovery_with_many_anchors_is_least_squares():
    # Over-determined noiseless system still reproduces the source.
    anchors = AnchorArray(np.array(
        [[0.0, 500.0], [-500.0, -500.0], [-500.0, 500.0],
         [500.0, 0.0], [250.0, -400.0]]))
    p = np.array([123.0, -77.0])
    obs = anchors.distances_to(p) ** 2
    X = solve_position(*build_system(anchors, obs))
    np.testing.assert_allclose(X[:2], p, atol=1e-9)


def test_true_distance_and_coincidence():
    anchors = AnchorArray(np.array([[3.0, 4.0], [0.0, 0.0], [-6.0, 8.0]]))
    np.testing.assert_allclose(anchors.distances_to((0.0, 3.0)),
                               [np.hypot(3.0, 1.0), 3.0, np.hypot(6.0, 5.0)])
    with pytest.raises(GeometryError, match="coincides"):
        anchors.distances_to((3.0, 4.0))


def test_distances_to_many_points_matches_single_calls():
    pts = np.random.default_rng(5).uniform(-500.0, 500.0, (40, 2))
    d = TRIANGLE.distances_to(pts)
    assert d.shape == (40, 3)
    for p, row in zip(pts, d):
        np.testing.assert_array_equal(row, TRIANGLE.distances_to(p))
    with pytest.raises(GeometryError, match="coincides"):
        TRIANGLE.distances_to(np.vstack([pts, [[-500.0, 500.0]]]))


def test_anchor_array_validation():
    with pytest.raises(GeometryError, match="at least 3"):
        AnchorArray(np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(GeometryError, match="rank deficient"):
        AnchorArray(np.array([[0.0, 0.0], [100.0, 100.0], [200.0, 200.0]]))
    with pytest.raises(GeometryError, match="finite"):
        AnchorArray(np.array([[0.0, 0.0], [1.0, np.nan], [0.0, 1.0]]))


def test_solver_rejects_rank_deficient_system():
    A = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [3.0, 6.0, 0.0]])
    with pytest.raises(GeometryError, match="rank deficient"):
        solve_position(A, np.ones(3))


def test_solver_rejects_rank_deficient_system_on_every_call():
    # A failed factorization is not cached, so no call returns a solution.
    A = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0]])
    for _ in range(3):
        with pytest.raises(GeometryError, match="rank deficient"):
            solve_position(A, np.ones(3))


@pytest.mark.parametrize("A", [
    TRIANGLE.design_matrix()[:2],
    TRIANGLE.design_matrix()[0],
    np.zeros((0, 3)),
], ids=["two-rows", "one-dimensional", "empty"])
def test_solver_rejects_a_design_matrix_with_too_few_rows(A):
    with pytest.raises(GeometryError, match="at least as many rows"):
        solve_position(A, np.ones(3)[:len(A)])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solver_rejects_non_finite_design_matrix_before_lapack(
        bad, monkeypatch, capfd):
    A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, bad]])
    with pytest.raises(GeometryError, match="design matrix must be finite"):
        solve_position(A, np.ones(3))
    assert capfd.readouterr().err == ""

    def no_lapack(*args, **kwargs):
        raise AssertionError("np.linalg.svd called on a non-finite matrix")

    monkeypatch.setattr(np.linalg, "svd", no_lapack)
    with pytest.raises(GeometryError, match="design matrix must be finite"):
        solve_position(A, np.ones(3))


def test_anchor_array_factorizes_its_design_matrix_once(monkeypatch):
    anchors = AnchorArray(np.array([[1.0, 2.0], [-310.0, 40.0],
                                    [75.0, -260.0], [190.0, 205.0]]))

    def no_lapack(*args, **kwargs):
        raise AssertionError("design matrix factorized again")

    monkeypatch.setattr(np.linalg, "svd", no_lapack)
    p = np.array([-12.0, 34.0])
    X = solve_position(*build_system(anchors, anchors.distances_to(p) ** 2))
    np.testing.assert_allclose(X, lifted(p), rtol=1e-9, atol=1e-9)


def test_solver_follows_a_design_matrix_mutated_in_place():
    # A matrix that is not an AnchorArray's own is factorized afresh on
    # every call, in either memory order.
    for order in "CF":
        A = np.array(TRIANGLE.design_matrix(), order=order)
        X0 = np.array([30.0, -40.0, 2500.0])
        b = A @ X0
        np.testing.assert_allclose(solve_position(A, b), X0, rtol=1e-12)
        A[0] = [700.0, -300.0, 1.0]
        expected = np.linalg.lstsq(A, b, rcond=None)[0]
        np.testing.assert_allclose(solve_position(A, b), expected, rtol=1e-12)
        assert np.abs(expected - X0).max() > 1.0


@pytest.mark.parametrize("xy", [
    TRIANGLE.xy,
    np.random.default_rng(3).uniform(-500.0, 500.0, (5, 2)),
    np.array([[-500.0, 0.0], [0.0, 6.7e-4], [500.0, 0.0]]),
    np.array([[8000.0, 8000.0], [8001.0, 8000.0], [8000.0, 8001.0]]),
], ids=["triangle", "random-5", "near-collinear", "far-cluster"])
def test_batch_solve_matches_lstsq_oracle(xy):
    anchors = AnchorArray(xy)
    A = anchors.design_matrix()
    pts = np.random.default_rng(8).uniform(-500.0, 500.0, (2000, 2))
    _, b = build_system(anchors, anchors.distances_to(pts) ** 2)
    X = solve_position(A, b)
    assert X.shape == (2000, 3)
    oracle = np.linalg.lstsq(A, b.T, rcond=None)[0].T
    worst = np.hypot(*(X[:, :2] - pts).T).max()
    worst_oracle = np.hypot(*(oracle[:, :2] - pts).T).max()
    assert worst <= 2.0 * worst_oracle + 1e-12


@pytest.mark.parametrize("xy, n", [
    (TRIANGLE.xy, 3),
    (TRIANGLE.xy, 5),
    (np.array([[0.0, 500.0], [-500.0, -500.0], [-500.0, 500.0],
               [500.0, 0.0], [250.0, -400.0]]), 2),
])
def test_batch_solve_equals_row_by_row_solves(xy, n):
    # Each row of b is one transmission, including when n equals L; the
    # batched product may round differently from the one-row product.
    anchors = AnchorArray(xy)
    pts = np.array([[10.0, 20.0], [-100.0, 50.0], [200.0, -300.0],
                    [-450.0, -5.0], [333.0, 444.0]])[:n]
    A, b = build_system(anchors, anchors.distances_to(pts) ** 2)
    X = solve_position(A, b)
    assert X.shape == (n, 3)
    for row, b_row in zip(X, b):
        np.testing.assert_allclose(row, solve_position(A, b_row),
                                   rtol=1e-13, atol=1e-9)
    np.testing.assert_allclose(X, [lifted(p) for p in pts],
                               rtol=1e-9, atol=1e-7)


def test_sampler_reproduces_linearized_model():
    channel = ChannelParams(transmit_power_db=60.0)
    p = np.array([150.0, -200.0])
    draws = np.random.default_rng(7).standard_normal((1, 3))
    obs = sample_noisy_squared_distances(
        p, TRIANGLE, channel, np.random.default_rng(7))
    d = TRIANGLE.distances_to(p)
    sigma = np.sqrt(distance_noise_variance(d, channel))
    np.testing.assert_allclose(obs.true_distance_m, d, rtol=1e-13)
    np.testing.assert_allclose(obs.noise_std_m, sigma, rtol=1e-13)
    np.testing.assert_allclose(
        obs.observed_sq_m2, d * d + 2.0 * draws[0] * sigma * d, rtol=1e-12)


def test_sampler_moments():
    # The packet sampler draws one row of draw_squared_distances, whose
    # rows carry the model's mean d^2 and standard deviation 2 d sigma.
    channel = ChannelParams(transmit_power_db=30.0)
    p = np.array([-120.0, 340.0])
    n = 40000
    one = sample_noisy_squared_distances(p, TRIANGLE, channel,
                                         np.random.default_rng(100))
    d, sigma = one.true_distance_m, one.noise_std_m
    np.testing.assert_array_equal(d, TRIANGLE.distances_to(p))
    np.testing.assert_array_equal(
        sigma, np.sqrt(distance_noise_variance(d, channel)))
    obs = draw_squared_distances(d, sigma, np.random.default_rng(100), n)
    assert obs.shape == (n, 3)
    np.testing.assert_array_equal(obs[0], one.observed_sq_m2)
    se_mean = 2.0 * d * sigma / np.sqrt(n)
    assert np.all(np.abs(obs.mean(axis=0) - d * d) < 5.0 * se_mean)
    np.testing.assert_allclose(obs.std(axis=0), 2.0 * d * sigma, rtol=0.05)


def test_scenario_validation():
    channel = ChannelParams()
    with pytest.raises(DomainError, match="outside the deployment region"):
        Scenario(TRIANGLE, alice=(600.0, 0.0), eve=None, channel=channel)
    with pytest.raises(DomainError, match="finite"):
        Scenario(TRIANGLE, alice=(np.nan, 0.0), eve=None, channel=channel)
    with pytest.raises(GeometryError, match="coincides"):
        Scenario(TRIANGLE, alice=(0.0, 500.0), eve=None, channel=channel)
    s = Scenario(TRIANGLE, alice=(0.0, 0.0), eve=None, channel=channel)
    with pytest.raises(DomainError, match="no eve position"):
        s.eve_distances()
    np.testing.assert_allclose(
        s.alice_distances(), [500.0, 707.1067811865476, 707.1067811865476])


def test_array_dataclasses_compare_by_value():
    channel = ChannelParams()
    same = AnchorArray(TRIANGLE.xy.copy())
    moved = AnchorArray(np.array([[0.0, 500.0], [-500.0, -500.0],
                                  [-500.0, 499.0]]))
    assert (TRIANGLE == same) is True
    assert (TRIANGLE == moved) is False
    assert TRIANGLE != moved

    def scenario(anchors=TRIANGLE, eve=(100.0, 100.0), **kw):
        return Scenario(anchors, alice=(0.0, 0.0), eve=eve,
                        channel=ChannelParams(**kw))

    base = scenario()
    assert (base == scenario(anchors=same)) is True
    assert (base == scenario(anchors=moved)) is False
    assert (base == scenario(eve=(100.0, 101.0))) is False
    assert (base == scenario(eve=None)) is False
    assert (scenario(eve=None) == base) is False
    assert (base == scenario(transmit_power_db=channel.transmit_power_db + 1)
            ) is False
    assert base != "scenario"
    with pytest.raises(TypeError, match="unhashable"):
        hash(base)
    obs = sample_noisy_squared_distances(
        (0.0, 0.0), TRIANGLE, channel, np.random.default_rng(1))
    again = sample_noisy_squared_distances(
        (0.0, 0.0), TRIANGLE, channel, np.random.default_rng(1))
    assert (obs == again) is True
    assert (obs == sample_noisy_squared_distances(
        (0.0, 0.0), TRIANGLE, channel, np.random.default_rng(2))) is False


def test_design_matrix_cannot_be_made_writeable_again():
    A = TRIANGLE.design_matrix()
    with pytest.raises(ValueError):
        A.flags.writeable = True
    assert not A.flags.writeable


def test_anchor_coordinates_and_norms_cannot_be_made_writeable_again():
    # Writes re-enabled on xy would move the anchors distances_to uses
    # while the design matrix and the cached norms kept the old ones.
    anchors = AnchorArray(TRIANGLE.xy)
    for a in (anchors.xy, anchors._sq_norms):
        with pytest.raises(ValueError):
            a.flags.writeable = True
        with pytest.raises(ValueError):
            a[0] = 300.0
        assert not a.flags.writeable
    np.testing.assert_array_equal(anchors.distances_to((0.0, 0.0)),
                                  np.hypot(*TRIANGLE.xy.T))


def test_scenario_points_cannot_be_made_writeable_again():
    # The anchors find the claim's model by the claim's identity, so a
    # point written in place would keep the model of its old values.
    s = Scenario(TRIANGLE, alice=np.array([10.0, -20.0]), eve=[100.0, 100.0],
                 channel=ChannelParams())
    for a in (s.alice, s.eve):
        with pytest.raises(ValueError):
            a.flags.writeable = True
        with pytest.raises(ValueError):
            a[0] = 300.0
        assert not a.flags.writeable
        assert localization._is_frozen(a)
    assert s.alice.tolist() == [10.0, -20.0]
    assert s.eve.tolist() == [100.0, 100.0]


@pytest.mark.parametrize("shape", [(1, 2), (2, 1), (3,)])
@pytest.mark.parametrize("name", ["alice", "eve"])
def test_scenario_refuses_points_that_are_not_pairs_before_freezing(shape,
                                                                    name):
    points = {"alice": (0.0, 0.0), "eve": (100.0, 100.0)}
    points[name] = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)
    with pytest.raises(DomainError, match=f"{name} must be a finite"):
        Scenario(TRIANGLE, channel=ChannelParams(), **points)


def test_replacing_a_scenario_field_keeps_its_frozen_points():
    import dataclasses

    s = Scenario(TRIANGLE, alice=(10.0, -20.0), eve=None,
                 channel=ChannelParams())
    assert s.eve is None
    louder = dataclasses.replace(
        s, channel=ChannelParams(transmit_power_db=60.0))
    assert louder.alice is s.alice
    assert louder.alice.tolist() == [10.0, -20.0]
    assert louder.eve is None
    moved = dataclasses.replace(s, eve=(100.0, 100.0))
    assert moved.alice is s.alice
    assert localization._is_frozen(moved.eve)


@pytest.mark.parametrize("clone", [
    lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy])
def test_copied_scenarios_keep_their_points_and_anchors_frozen(clone):
    # A field-by-field copy would give writeable arrays, and a writeable
    # copy of the claim would sit in the copied anchors' slot as its owner.
    anchors = AnchorArray(TRIANGLE.xy)
    s = Scenario(anchors, alice=(10.0, -20.0), eve=(100.0, 100.0),
                 channel=ChannelParams())
    b = np.array([260000.0, 510000.0, 490000.0])
    authentication._residual(anchors, b, s.alice)
    assert anchors._claim_model[0][0] is s.alice
    c = clone(s)
    assert c == s
    for a in (c.alice, c.eve, c.anchors.xy, c.anchors._sq_norms,
              c.anchors.design_matrix()):
        assert localization._is_frozen(a)
        with pytest.raises(ValueError):
            a.flags.writeable = True
    assert c.anchors._claim_model[0][1] is None
    assert solve_position(*build_system(c.anchors, b)).tobytes() == (
        solve_position(*build_system(anchors, b)).tobytes())
    assert copy.copy(s).alice is s.alice


@pytest.mark.parametrize("region", [(0.0, 1000.0), (1000.0, -1.0),
                                    (np.inf, 1000.0), (1000.0, np.nan)])
def test_scenario_refuses_regions_that_are_not_positive_and_finite(region):
    with pytest.raises(DomainError, match="region dimensions"):
        Scenario(TRIANGLE, alice=(0.0, 0.0), eve=None,
                 channel=ChannelParams(), region=region)


def test_batched_distances_equal_point_major_root_of_summed_squares():
    # distances_to computes batches anchor by anchor and returns a view
    # shaped point by anchor; the values are those of the point-major
    # formula sqrt(dx^2 + dy^2), bit for bit, whatever the batch shape.
    rng = np.random.default_rng(46)
    nonagon = AnchorArray(450.0 * np.column_stack(
        [np.cos(np.arange(9) * 0.7 + 0.3), np.sin(np.arange(9) * 0.7 + 0.3)]))
    for anchors in (TRIANGLE, nonagon):
        xy = anchors.xy
        for shape in ((2,), (1, 2), (37, 2), (3, 4097, 2), (2, 0, 2)):
            p = rng.uniform(-500.0, 500.0, shape) * 10.0 ** rng.uniform(-3, 3)
            d = anchors.distances_to(p)
            expected = np.sqrt((p[..., 0, None] - xy[:, 0]) ** 2
                               + (p[..., 1, None] - xy[:, 1]) ** 2)
            assert d.shape == expected.shape
            assert d.tobytes() == expected.tobytes()
            if p[..., 0].size > 1:
                assert not d.flags.c_contiguous  # the anchor-major view
    with pytest.raises(GeometryError, match="coincides"):
        TRIANGLE.distances_to(np.array([[[1.0, 2.0], [0.0, 500.0]]]))


def test_distances_agree_with_hypot_within_one_ulp():
    # sqrt(dx^2 + dy^2) rounds twice more than hypot does, and stays
    # within 1 ulp of it from points near the anchors to points 1e150 m
    # away.
    rng = np.random.default_rng(47)
    for anchors in (TRIANGLE, AnchorArray(rng.uniform(-1e3, 1e3, (9, 2)))):
        xy = anchors.xy
        for scale in (1e-3, 1.0, 1e3, 1e6, 1e150):
            p = rng.uniform(-500.0, 500.0, (3, 4096, 2)) * scale
            d = anchors.distances_to(p)
            ref = np.hypot(p[..., 0, None] - xy[:, 0],
                           p[..., 1, None] - xy[:, 1])
            assert np.all(np.abs(d - ref) <= np.spacing(ref))


# An anchor at the origin, so that points 1e-154 m from it are doubles.
ORIGIN = AnchorArray(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("point", [
    (np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0), (0.0, -np.inf),
    (1.35e154, 0.0), (-1e154, 1e154)])
def test_a_distance_that_is_not_finite_is_refused(point):
    # A NaN or infinite point, or one whose squared distance overflows,
    # alone or in a batch.
    with pytest.raises(DomainError, match="not finite"):
        ORIGIN.distances_to(point)
    with pytest.raises(DomainError, match="not finite"):
        ORIGIN.distances_to(np.array([[0.5, 0.5], point, [2.0, 3.0]]))
    assert ORIGIN.distances_to((1.3e154, 0.0))[0] == 1.3e154


@pytest.mark.parametrize("points", [5.0, [1.0, 2.0, 3.0], [[1.0], [2.0]],
                                    np.zeros((4, 3)), np.zeros((2, 0))])
def test_points_that_are_not_x_y_pairs_are_refused(points):
    # A third coordinate was ignored, and a scalar raised IndexError.
    with pytest.raises(DomainError, match="must be \\(x, y\\) pairs"):
        ORIGIN.distances_to(points)


@pytest.mark.parametrize("point", [
    (0.0, 0.0), (1e-170, 0.0), (0.0, -1e-160), (1e-155, 1e-155),
    (1.4e-154, 0.0), (1e-154, -1e-154)])
def test_a_point_within_1_5e_154_m_of_an_anchor_coincides_with_it(point):
    # Its squared distance is 0 or subnormal: below the smallest normal
    # double, about 2.2e-308.
    with pytest.raises(GeometryError, match="coincides"):
        ORIGIN.distances_to(point)
    with pytest.raises(GeometryError, match="coincides"):
        ORIGIN.distances_to(np.array([[0.5, 0.5], point]))
    d = ORIGIN.distances_to((1.5e-154, 0.0))
    assert d[0] == 1.5e-154


def test_solver_alternating_designs_uses_each_ones_pseudo_inverse():
    # Two geometries' own design matrices and a writeable copy of one of
    # them, changed in place before each of its packets, take turns.
    rng = np.random.default_rng(44)
    square = AnchorArray(np.array([[-400.0, -400.0], [400.0, -400.0],
                                   [400.0, 400.0], [-400.0, 400.0]]))
    copy = np.array(TRIANGLE.design_matrix())
    for k in range(15):
        A = (TRIANGLE.design_matrix(), square.design_matrix(), copy)[k % 3]
        if A is copy:
            copy[0] = [700.0 + k, -300.0, 1.0]
        b = A @ np.array([30.0, -40.0, 2500.0]) + rng.normal(0.0, 50.0, len(A))
        expected = np.linalg.lstsq(A, b, rcond=None)[0]
        np.testing.assert_allclose(solve_position(A, b), expected, rtol=1e-12)


def test_design_pseudo_inverses_go_with_their_anchor_arrays():
    kept = len(localization._DESIGN_PINV_T)
    rng = np.random.default_rng(45)
    for _ in range(20):
        anchors = AnchorArray(rng.uniform(-500.0, 500.0, (4, 2)))
        solve_position(*build_system(anchors, np.ones(4)))
    del anchors
    assert len(localization._DESIGN_PINV_T) == kept
