"""Anchor geometry and least-squares position estimation.

Anchors at known positions measure one-way time of arrival, which yields
noisy squared-distance observations after the linearization
d_hat^2 = d^2 + 2*n*d (n is zero-mean Gaussian range noise). Squared
observations feed a linear system whose unknown is the lifted vector
X = (x, y, x^2 + y^2); positions come out of its least-squares solution.

All coordinates and distances are in meters.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass

import numpy as np

from ._fields import _equal_fields
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
# Distinct design matrices whose pseudo-inverse is kept.
_PINV_CACHE_SIZE = 8
# Each live AnchorArray design matrix's pseudo-inverse, transposed, keyed
# by the matrix's id next to a weak reference to it; an entry goes when
# its matrix does.
_DESIGN_PINV_T: dict[int, tuple[weakref.ref, np.ndarray]] = {}


@dataclass(frozen=True, eq=False)
class AnchorArray:
    """Fixed anchor positions, shape (L, 2) with L >= 3.

    Construction factorizes the design matrix once, into a cache keyed
    by the matrix's content, and keeps the pseudo-inverse with the
    matrix. It raises GeometryError when the coordinates are not finite
    or that matrix is numerically rank deficient. solve_position then
    reuses the factorization for every packet, one at a time or in a
    batch. The array also keeps the model A chi(claim) of the last claim
    that residual_vector saw, so a stream of packets against one claim
    lifts it once.
    """

    xy: np.ndarray

    __eq__ = _equal_fields
    __hash__ = None

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
        # A view of immutable bytes, which numpy refuses to make writeable
        # again, so its pseudo-inverse can be found by identity.
        design = np.frombuffer(design.tobytes()).reshape(design.shape)
        pinv = _pseudo_inverse(design)  # also the rank check
        _DESIGN_PINV_T[id(design)] = weakref.ref(design), pinv.T
        weakref.finalize(design, _DESIGN_PINV_T.pop, id(design), None)
        # Read-only, so the cached norms stay in step with xy.
        sq_norms = (xy ** 2).sum(axis=1)
        for a in (xy, sq_norms):
            a.flags.writeable = False
        object.__setattr__(self, "xy", xy)
        object.__setattr__(self, "_design", design)
        object.__setattr__(self, "_sq_norms", sq_norms)
        # One (claim key, A chi(claim)) pair: see authentication._residual.
        object.__setattr__(self, "_claim_model", [(None, None)])

    def __len__(self) -> int:
        return self.xy.shape[0]

    def design_matrix(self) -> np.ndarray:
        """Coefficient matrix of the lifted linear system, shape (L, 3),
        read-only."""
        return self._design

    def distances_to(self, points) -> np.ndarray:
        """Euclidean distances from every anchor to one point, shape (2,),
        or to each of N points, shape (N, 2); returns (L,) or (N, L)."""
        p = np.asarray(points, dtype=float)
        d = np.hypot(p[..., 0, None] - self.xy[:, 0],
                     p[..., 1, None] - self.xy[:, 1])
        if np.any(d == 0.0):
            raise GeometryError("point coincides with an anchor")
        return d


@dataclass(frozen=True, eq=False)
class Scenario:
    """One authentication scenario: geometry plus channel configuration.

    eve is the impersonator's true position. None means no single
    position: sweeps and simulations then place the impersonator
    uniformly over the deployment region, and single-position quantities
    (eve_distances, h1_distribution, roc_curve) raise DomainError. The
    deployment region is a width_m x height_m rectangle centered on the
    origin.
    """

    anchors: AnchorArray
    alice: np.ndarray
    eve: np.ndarray | None
    channel: ChannelParams
    region: tuple[float, float] = (1000.0, 1000.0)

    __eq__ = _equal_fields
    __hash__ = None

    def __post_init__(self):
        object.__setattr__(self, "alice", np.asarray(self.alice, dtype=float))
        if self.eve is not None:
            object.__setattr__(self, "eve", np.asarray(self.eve, dtype=float))
        w, h = self.region
        if not (w > 0 and h > 0):
            raise DomainError("region dimensions must be positive")
        for name, pt in (("alice", self.alice), ("eve", self.eve)):
            if pt is None:
                continue
            if pt.shape != (2,) or not np.all(np.isfinite(pt)):
                raise DomainError(f"{name} must be a finite (x, y) pair")
            if abs(pt[0]) > w / 2 or abs(pt[1]) > h / 2:
                raise DomainError(f"{name} lies outside the deployment region")
            self.anchors.distances_to(pt)  # rejects coincidence with an anchor

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


def _observe(d, sigma, z) -> np.ndarray:
    """Squared-distance observations d^2 + 2 (z sigma) d for standard
    normals z; the arrays broadcast."""
    return d * d + 2.0 * (z * sigma) * d


def build_system(anchors: AnchorArray, observed_sq) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the lifted linear system (A, b) from squared observations.

    Row i reads -2*x_i*x - 2*y_i*y + (x^2 + y^2) = d_hat_i^2 - x_i^2 - y_i^2.
    """
    obs = np.asarray(observed_sq, dtype=float)
    sq_norms = anchors._sq_norms
    if obs.shape[-1] != sq_norms.shape[0]:
        raise DomainError("one squared observation per anchor is required")
    return anchors._design, obs - sq_norms


def solve_position(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-squares solution X = (x, y, s) of the lifted system.

    b is one right-hand side, shape (L,), giving X of shape (3,), or a
    batch of n transmissions, shape (n, L), solved row by row into
    (n, 3). X = b @ pinv(A).T, with the pseudo-inverse taken from an SVD
    of A, so a fixed anchor geometry is factorized once: an AnchorArray's
    own design matrix brings its pseudo-inverse, and any other A is
    looked up in a cache keyed by its content. Raises GeometryError when
    A is not finite, is numerically rank deficient, or has fewer rows
    than columns.
    """
    own = _DESIGN_PINV_T.get(id(A))
    if own is not None and own[0]() is A:
        pinv_t = own[1]
    else:
        pinv_t = _pseudo_inverse(A).T
    return np.asarray(b, dtype=float).dot(pinv_t)


def _pseudo_inverse(A) -> np.ndarray:
    """Read-only Moore-Penrose pseudo-inverse of a full-rank A, shape
    (3, L), cached by A's shape and bytes."""
    A = np.asarray(A, dtype=float)
    return _factorize(A.shape, A.tobytes())


@functools.lru_cache(maxsize=_PINV_CACHE_SIZE)
def _factorize(shape: tuple, data: bytes) -> np.ndarray:
    A = np.frombuffer(data, dtype=float).reshape(shape)
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
