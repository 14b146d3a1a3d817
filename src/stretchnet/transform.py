"""Rotation and x-axis stretch that make every edge nearly horizontal.

The stretch is the linear map diag(lambda, 1, 1) composed with a
rotation chosen so no edge is orthogonal to the x-axis.  After it,
every edge direction forms an angle below ``theta_max`` with the
x-axis; the default bound is pi / (20 N) for an N-edge mesh, which is
what the downstream unfolding certification relies on.

This module is the one place that plans a stretch: it resolves
``theta_max``, rejects a bound outside (0, TILT_BOUND) with
``ThetaOutOfRange``, and ``plan_stretch`` chooses the rotation and the
lambda that ``stretch_and_unfold``, ``oracle.census`` and the CLI use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import OrthogonalEdge, ThetaOutOfRange, UnfoldError
from .geometry import EPS, TILT_BOUND
from .mesh import Polyhedron

#: Largest number of edge-candidate margins the rotation search holds at once.
_MARGIN_BLOCK = 1 << 14


def default_theta_max(P: Polyhedron) -> float:
    """Conservative per-edge angle bound pi / (20 N) for an N-edge mesh."""
    return math.pi / (20.0 * P.n_edges)


def _check_theta(theta) -> float:
    """``theta`` as a float, if it lies in (0, TILT_BOUND): the one rule
    for a per-edge angle bound.  Anything else raises ThetaOutOfRange."""
    theta = float(theta)
    if not 0.0 < theta < TILT_BOUND:  # NaN and the infinities fail too
        raise ThetaOutOfRange(f"theta_max must lie in (0, pi/10), got {theta!r}")
    return theta


def _resolve_theta(P: Polyhedron, theta_max: Optional[float]) -> float:
    """The bound a stretch of ``P`` is planned for: ``theta_max``, or
    pi / (20 N) when it is None."""
    return _check_theta(default_theta_max(P) if theta_max is None else theta_max)


@dataclass(frozen=True)
class Stretch:
    """Rotation followed by an x-axis scaling by ``lam`` (>= 1)."""

    rotation: np.ndarray
    lam: float
    theta_max: float

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=float)
        if R.shape != (3, 3):
            raise ValueError("rotation must be a 3x3 matrix")
        if np.abs(R @ R.T - np.eye(3)).max() > 1e-9 or abs(np.linalg.det(R) - 1.0) > 1e-9:
            raise ValueError("rotation must be orthogonal with determinant 1")
        if not self.lam >= 1.0:  # NaN fails too
            raise ValueError("lambda must be >= 1")
        _check_theta(self.theta_max)

    @property
    def matrix(self) -> np.ndarray:
        return np.diag([self.lam, 1.0, 1.0]) @ np.asarray(self.rotation, dtype=float)


@dataclass(frozen=True)
class EdgeAngleReport:
    """The largest edge angle to the x-axis and the edge where it occurs."""

    max_angle: float
    max_edge: tuple


def edge_angle_report(P: Polyhedron) -> EdgeAngleReport:
    d = P.edge_vectors
    tilt = np.arctan2(np.hypot(d[:, 1], d[:, 2]), np.abs(d[:, 0]))
    i = int(np.argmax(tilt))
    return EdgeAngleReport(float(tilt[i]), P.edges[i])


def _quaternion_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def choose_rotation(P: Polyhedron, seed: int = 0, samples: int = 1024) -> np.ndarray:
    """Rotation maximizing the worst edge margin min |dx| / length.

    Candidates are the identity plus ``samples`` seeded-random rotations;
    the winner is selected by margin, ties by candidate index, so the
    result is deterministic for a fixed seed.  A positive margin always
    exists because only finitely many directions are orthogonal to an edge.
    All candidates are scored in one blocked array pass, with the
    arithmetic of scoring them one by one, so the winner is bitwise the same.
    """
    d = P.edge_vectors
    dirs = d / np.linalg.norm(d, axis=1, keepdims=True)
    return _best_rotation(dirs, np.random.default_rng(seed).normal(size=(samples, 4)))


def _margins(dirs: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Margin on unit edge directions ``dirs`` of the rotation of each quaternion in ``q``."""
    w, x, y, z = (q / np.sqrt(q[:, None, :] @ q[:, :, None])[:, 0]).T  # np.linalg.norm's dot per row
    R0 = np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], axis=1)
    margins = np.empty(len(q))
    step = max(1, _MARGIN_BLOCK // len(dirs))
    for k in range(0, len(q), step):
        m = dirs @ R0[k : k + step, :, None]  # one matrix-vector product per candidate, as in a loop
        margins[k : k + step] = np.abs(m, out=m)[..., 0].min(axis=1)
    return margins


def _best_rotation(dirs: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The identity or, if strictly better, the first rotation among
    quaternions ``q`` with the largest margin on unit edge directions ``dirs``."""
    margins = np.append(np.abs(dirs[:, 0]).min(), _margins(dirs, q))
    k = int(np.argmax(margins))  # the first maximum, so the identity wins ties
    if margins[k] <= EPS:
        raise OrthogonalEdge("no sampled rotation cleared an edge off the x-orthogonal plane")
    return np.eye(3) if k == 0 else _quaternion_matrix(q[k - 1])


def _lambda_for_dirs(d: np.ndarray, theta_max: float) -> float:
    dx = np.abs(d[:, 0])
    dyz = np.hypot(d[:, 1], d[:, 2])
    if float(dx.min()) <= EPS:
        raise OrthogonalEdge(f"edge with |dx| = {float(dx.min()):.3e} <= eps")
    ratio = float((dyz / (dx * math.tan(theta_max))).max())
    return max(1.0, 1.01 * ratio)


def required_lambda(P_rotated: Polyhedron, theta_max: float) -> float:
    """Smallest x-scaling (with a 1% safety margin) bringing every edge
    within ``theta_max`` of the x-axis.  Never below 1."""
    return _lambda_for_dirs(P_rotated.edge_vectors, theta_max)


def rotate(P: Polyhedron, R: np.ndarray) -> Polyhedron:
    return P.transformed(R)


def apply_linear(P: Polyhedron, R: np.ndarray, lam: float) -> Polyhedron:
    """Apply diag(lam,1,1) . R to the vertices (no renormalize, no revalidation)."""
    return P.transformed(np.diag([lam, 1.0, 1.0]) @ np.asarray(R, dtype=float))


def apply_stretch(P: Polyhedron, S: Stretch) -> Polyhedron:
    """Stretched copy of ``P``; combinatorics preserved, edge bound enforced."""
    Q = apply_linear(P, S.rotation, S.lam)
    report = edge_angle_report(Q)
    if report.max_angle >= S.theta_max:
        raise UnfoldError(
            f"stretch too weak: edge {report.max_edge} at angle {report.max_angle!r}"
            f" >= theta_max {S.theta_max!r}"
        )
    return Q


def plan_stretch(P: Polyhedron, theta_max: Optional[float] = None, seed: int = 0) -> Stretch:
    """Pick a rotation and the matching lambda for ``P``.

    ``theta_max`` defaults to pi / (20 N) and must lie in (0, TILT_BOUND).
    A bound so small that its lambda cannot be carried in floating point,
    where some stretched edge's squared length overflows (the face frames
    square edge lengths), raises ThetaOutOfRange too.
    """
    theta = _resolve_theta(P, theta_max)
    R = choose_rotation(P, seed=seed)
    P_rot = rotate(P, R)
    lam = required_lambda(P_rot, theta)
    with np.errstate(over="ignore"):
        squared = np.square(P_rot.edge_vectors * [lam, 1.0, 1.0]).sum(axis=1)
    if not np.isfinite(squared).all():
        raise ThetaOutOfRange(
            f"theta_max {theta!r} plans lambda {lam!r}, where a stretched edge's squared length overflows"
        )
    return Stretch(R, lam, theta)


def rotation_to_x(d: Sequence[float]) -> np.ndarray:
    """A rotation taking unit direction ``d`` onto the positive x-axis."""
    d = np.asarray(d, dtype=float)
    d = d / np.linalg.norm(d)
    e1 = np.array([1.0, 0.0, 0.0])
    c = float(d @ e1)
    if c > 1.0 - 1e-12:
        return np.eye(3)
    if c < -1.0 + 1e-12:
        return np.diag([-1.0, -1.0, 1.0])
    axis = np.cross(d, e1)
    s = np.linalg.norm(axis)
    axis = axis / s
    K = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + s * K + (1.0 - c) * (K @ K)


@dataclass(frozen=True)
class SweepRow:
    direction: tuple
    lam: Optional[float]
    status: str  # "ok" | "orthogonal_edge"


def sweep_directions(
    P: Polyhedron,
    k: int,
    seed: int = 0,
    theta_max: Optional[float] = None,
    directions: Optional[Sequence[Sequence[float]]] = None,
) -> list[SweepRow]:
    """Minimal lambda for each of ``k`` sampled stretch directions.

    Directions orthogonal to some edge are recorded as failures rather
    than raised; they form measure-zero great circles, so random samples
    almost surely succeed.  ``theta_max`` obeys ``plan_stretch``'s range
    rule; a lambda here is only reported, never applied, so it may be
    one that ``plan_stretch`` would reject as overflowing.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    theta = _resolve_theta(P, theta_max)
    if directions is None:
        rng = np.random.default_rng(seed)
        dirs = rng.normal(size=(k, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    else:
        dirs = np.asarray(list(directions), dtype=float)[:k]
        dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    edge_dirs = P.edge_vectors
    rows = []
    for d in dirs:
        R = rotation_to_x(d)
        try:
            lam = _lambda_for_dirs(edge_dirs @ R.T, theta)
            rows.append(SweepRow(tuple(float(c) for c in d), lam, "ok"))
        except OrthogonalEdge:
            rows.append(SweepRow(tuple(float(c) for c in d), None, "orthogonal_edge"))
    return rows
