"""Anchor geometry and least-squares position estimation.

Anchors at known positions measure one-way time of arrival, which yields
noisy squared-distance observations after the linearization
d_hat^2 = d^2 + 2*n*d (n is zero-mean Gaussian range noise). Squared
observations feed a linear system whose unknown is the lifted vector
X = (x, y, x^2 + y^2); positions come out of its least-squares solution.

All coordinates and distances are in meters.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from ._fields import _equal_fields, _reduce_through_init
from .channel import ChannelParams, distance_noise_variance
from .errors import DomainError, GeometryError

__all__ = [
    "AnchorArray",
    "Scenario",
    "NoisySquaredDistances",
    "sample_noisy_squared_distances",
    "draw_squared_distances",
    "build_system",
    "solve_position",
    "consistency_gap",
]

# Smallest acceptable ratio of the design matrix's extreme singular values.
_RANK_RTOL = 1e-9
# Smallest squared distance to an anchor: a smaller one is subnormal or 0.
_TINY = np.finfo(float).tiny
# Each live AnchorArray design matrix's pseudo-inverse, transposed, keyed
# by the matrix's id next to a weak reference to it; an entry goes when
# its matrix does.
_DESIGN_PINV_T: dict[int, tuple[weakref.ref, np.ndarray]] = {}


def _is_frozen(a) -> bool:
    """Whether a is an array over immutable bytes, whose values can never
    change: numpy will not make it, or any view of it, writeable."""
    while isinstance(a, np.ndarray):
        a = a.base
    return type(a) is bytes


def _freeze(a: np.ndarray) -> np.ndarray:
    """a itself when it is frozen, else a read-only view of a copy of its
    values in immutable bytes, with a's shape and dtype."""
    if _is_frozen(a):
        return a
    return np.frombuffer(a.tobytes(), dtype=a.dtype).reshape(a.shape)


@dataclass(frozen=True, eq=False)
class AnchorArray:
    """Fixed anchor positions, shape (L, 2) with L >= 3.

    Construction factorizes the design matrix once and raises
    GeometryError when the coordinates are not finite or that matrix is
    numerically rank deficient. The design matrix is frozen, so
    solve_position finds its pseudo-inverse by identity for every packet,
    one at a time or in a batch. The array also keeps the model
    A chi(claim) of the last frozen claim that residual_vector saw, such
    as Scenario.alice, so a stream of packets against it lifts it once.
    xy is read-only and cannot be made writeable again.
    """

    xy: np.ndarray

    __eq__ = _equal_fields
    __hash__ = None
    # A copy is built afresh, with its own frozen arrays and empty slot.
    __reduce__ = _reduce_through_init

    def __post_init__(self):
        xy = np.atleast_2d(np.array(self.xy, dtype=float))
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise GeometryError("anchors must be an (L, 2) array of coordinates")
        if xy.shape[0] < 3:
            raise GeometryError("at least 3 anchors are required")
        if not np.all(np.isfinite(xy)):
            raise GeometryError("anchor coordinates must be finite")
        design = np.column_stack([-2.0 * xy[:, 0], -2.0 * xy[:, 1],
                                  np.ones(len(xy))])
        # Views of immutable bytes, which numpy refuses to make writeable
        # again: the coordinates, their cached norms and the design matrix
        # stay in step, and the design's pseudo-inverse can be found by
        # identity.
        xy, sq_norms, design = map(_freeze, (xy, (xy ** 2).sum(axis=1),
                                            design))
        pinv = _pseudo_inverse(design)  # also the rank check
        _DESIGN_PINV_T[id(design)] = weakref.ref(design), pinv.T
        weakref.finalize(design, _DESIGN_PINV_T.pop, id(design), None)
        object.__setattr__(self, "xy", xy)
        object.__setattr__(self, "_design", design)
        object.__setattr__(self, "_sq_norms", sq_norms)
        # One (frozen claim, A chi(claim)) pair: see
        # authentication._residual. Empty, its owner is an object no
        # caller holds, where None would be matched by a None claim.
        object.__setattr__(self, "_claim_model", [(object(), None)])

    def __len__(self) -> int:
        return self.xy.shape[0]

    def design_matrix(self) -> np.ndarray:
        """Coefficient matrix of the lifted linear system, shape (L, 3),
        read-only."""
        return self._design

    def distances_to(self, points) -> np.ndarray:
        """Euclidean distances from every anchor to one point, shape (2,),
        or to each point of a batch, shape (..., 2); returns (L,) or
        (..., L), for a batch a view of an array stored anchor by anchor.

        Each distance is sqrt(dx * dx + dy * dy), within 1 ulp of
        np.hypot(dx, dy). Points of any other shape raise DomainError, and
        so does a point that is not finite, or whose squared distance to an
        anchor is not: one about 1.3e154 m away or further. A point whose
        squared distance to an anchor is below the smallest normal double,
        one about 1.5e-154 m away or closer, raises GeometryError as
        coinciding with that anchor: that square would lose precision or
        be 0.
        """
        p = np.asarray(points, dtype=float)
        if p.shape[-1:] != (2,):
            raise DomainError("points must be (x, y) pairs, shaped (2,) or "
                              "(..., 2)")
        # Anchor-major, (L, ...), so the elementwise loops run along the
        # points, many times faster than along the L anchors.
        a = self.xy.T.reshape((2, -1) + (1,) * (p.ndim - 1))
        d = p[..., 0] - a[0]
        dy = p[..., 1] - a[1]
        with np.errstate(over="ignore"):  # refused below
            d *= d
            dy *= dy
            d += dy
        # min and max propagate NaN, so each comparison with them is False.
        if d.size and not d.max() < np.inf:
            raise DomainError("distance to an anchor is not finite")
        if d.size and not d.min() >= _TINY:
            raise GeometryError("point coincides with an anchor")
        np.sqrt(d, out=d)
        return d.transpose(*range(1, d.ndim), 0)


@dataclass(frozen=True, eq=False)
class Scenario:
    """One authentication scenario: geometry plus channel configuration.

    eve is the impersonator's true position. None means no single
    position: sweeps and simulations then place the impersonator
    uniformly over the deployment region, and single-position quantities
    (eve_distances, h1_distribution, roc_curve) raise DomainError. The
    deployment region is a width_m x height_m rectangle centered on the
    origin.

    alice and eve are read-only views of immutable bytes, as an
    AnchorArray's xy is, so numpy will not make them writeable again and
    the claim's model that the anchors keep can be found by identity; a
    point that is already such a view is kept as it is, so
    dataclasses.replace keeps the points themselves.
    """

    anchors: AnchorArray
    alice: np.ndarray
    eve: np.ndarray | None
    channel: ChannelParams
    region: tuple[float, float] = (1000.0, 1000.0)

    __eq__ = _equal_fields
    __hash__ = None
    # A copy's points are frozen again: a writeable one could be found by
    # identity in the anchors' slot after being written.
    __reduce__ = _reduce_through_init

    def __post_init__(self):
        object.__setattr__(self, "alice", np.asarray(self.alice, dtype=float))
        if self.eve is not None:
            object.__setattr__(self, "eve", np.asarray(self.eve, dtype=float))
        w, h = self.region
        # Infinite ones would place a uniform impersonator at NaN.
        if not (0 < w < np.inf and 0 < h < np.inf):
            raise DomainError("region dimensions must be positive and finite")
        for name, pt in (("alice", self.alice), ("eve", self.eve)):
            if pt is None:
                continue
            if pt.shape != (2,) or not np.all(np.isfinite(pt)):
                raise DomainError(f"{name} must be a finite (x, y) pair")
            if abs(pt[0]) > w / 2 or abs(pt[1]) > h / 2:
                raise DomainError(f"{name} lies outside the deployment region")
            self.anchors.distances_to(pt)  # rejects coincidence with an anchor
            object.__setattr__(self, name, _freeze(pt))

    def alice_distances(self) -> np.ndarray:
        return self.anchors.distances_to(self.alice)

    def eve_distances(self) -> np.ndarray:
        if self.eve is None:
            raise DomainError("scenario has no eve position")
        return self.anchors.distances_to(self.eve)


@dataclass(frozen=True, eq=False)
class NoisySquaredDistances:
    """Squared-distance observations for one transmission, all shape (L,)."""

    true_distance_m: np.ndarray
    noise_std_m: np.ndarray
    observed_sq_m2: np.ndarray

    __eq__ = _equal_fields
    __hash__ = None


def sample_noisy_squared_distances(point, anchors: AnchorArray,
                                   channel: ChannelParams,
                                   rng: np.random.Generator
                                   ) -> NoisySquaredDistances:
    """Draw one set of noisy squared-distance observations from a
    transmitter at point, following the linearized model
    d_hat^2 = d^2 + 2*n*d."""
    d = anchors.distances_to(point)
    sigma = np.sqrt(distance_noise_variance(d, channel))
    return NoisySquaredDistances(d, sigma,
                                 draw_squared_distances(d, sigma, rng, 1)[0])


def draw_squared_distances(d, sigma, rng: np.random.Generator,
                           n: int) -> np.ndarray:
    """n rows of d^2 + 2*e*d with range noise e = z * sigma drawn as
    z = rng.standard_normal((n, L)); d and sigma are (L,) or (n, L)."""
    return _observe(d, sigma, rng.standard_normal((n, d.shape[-1])))


def _observe(d, sigma, z, out=None) -> np.ndarray:
    """Squared-distance observations d^2 + 2 (z sigma) d for standard
    normals z, formed in out when given, which may be z itself; d and
    sigma broadcast against z."""
    obs = np.multiply(z, sigma, out=out)
    obs *= 2.0
    obs *= d
    obs += d * d
    return obs


def build_system(anchors: AnchorArray, observed_sq) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the lifted linear system (A, b) from squared observations.

    Row i reads -2*x_i*x - 2*y_i*y + (x^2 + y^2) = d_hat_i^2 - x_i^2 - y_i^2.
    """
    return anchors._design, _right_hand_side(anchors, observed_sq)


def _right_hand_side(anchors: AnchorArray, observed_sq, out=None,
                     anchor=None):
    """b of the lifted system, d_hat_i^2 - x_i^2 - y_i^2, formed in out
    when given, which may be observed_sq itself. With an anchor index i,
    observed_sq holds anchor i's observations alone, of any shape, and
    the result is row i of b at each of them."""
    obs = np.asarray(observed_sq, dtype=float)
    sq_norms = anchors._sq_norms
    if anchor is not None:
        sq_norms = sq_norms[anchor]
    elif obs.shape[-1] != sq_norms.shape[0]:
        raise DomainError("one squared observation per anchor is required")
    if out is None:
        return obs - sq_norms  # the operator parses no keywords per packet
    return np.subtract(obs, sq_norms, out=out)


def solve_position(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-squares solution X = (x, y, s) of the lifted system.

    b is one right-hand side, shape (L,), giving X of shape (3,), or a
    batch of n transmissions, shape (n, L), solved row by row into
    (n, 3). X = b @ pinv(A).T, with the pseudo-inverse taken from an SVD
    of A: an AnchorArray's own design matrix is found by identity and
    brings the pseudo-inverse factorized when the array was built, and
    any other A is factorized afresh on every call. Raises GeometryError
    when A is not finite, is numerically rank deficient, or has fewer
    rows than columns.
    """
    return np.asarray(b, dtype=float).dot(_pinv_t(A))


def _pinv_t(A) -> np.ndarray:
    """pinv(A).T, read-only: that of an AnchorArray's own design matrix,
    found by identity, and for any other A computed afresh and not kept."""
    own = _DESIGN_PINV_T.get(id(A))
    if own is not None and own[0]() is A:
        return own[1]
    return _pseudo_inverse(A).T


def _pseudo_inverse(A) -> np.ndarray:
    """Read-only Moore-Penrose pseudo-inverse of a full-rank A, shape
    (3, L), from an SVD of A on every call."""
    A = np.asarray(A, dtype=float)
    # Fewer rows than unknowns would pass the singular-value test below
    # and return the minimum-norm solution of an underdetermined system.
    if A.ndim != 2 or A.shape[0] < A.shape[1]:
        raise GeometryError("design matrix must be 2-d with at least as "
                            "many rows as columns")
    # LAPACK stalls or fails untyped on NaN or inf, so they never reach it.
    if not np.all(np.isfinite(A)):
        raise GeometryError("design matrix must be finite")
    u, sv, vt = np.linalg.svd(A, full_matrices=False)
    if sv[-1] <= _RANK_RTOL * sv[0]:
        raise GeometryError(
            "degenerate anchor geometry: design matrix is rank deficient")
    pinv = (vt.T / sv) @ u.T
    pinv.flags.writeable = False
    return pinv


def consistency_gap(X) -> float:
    """Distance between the lifted coordinate and x^2 + y^2 for a solution."""
    X = np.asarray(X, dtype=float)
    return float(abs(X[2] - (X[0] ** 2 + X[1] ** 2)))
