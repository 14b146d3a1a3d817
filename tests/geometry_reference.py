"""Reference 2D predicates: the scalar contact and winding functions, and
the per-segment winding grid, as they stood before ``stretchnet.geometry``
became one set of array kernels; and the first array contact kernel,
which measured each pair's four endpoint distances by four calls on
arrays whose last axis holds x and y.

``tests/test_geometry_equivalence.py`` compares the library with these
functions, and ``certificate_reference`` builds its dense certificate on
them, so neither reference depends on the kernels under test.  The
endpoint policy and the on-curve error are defined here too: the library
decides both through kernel arguments and results, not through types.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Sequence

import numpy as np

from stretchnet.errors import DegenerateSegment, LengthMismatch, UnfoldError
from stretchnet.geometry import EPS, Vec2, arg, orient_raw


class EndpointPolicy(Enum):
    """How segment intersection treats a shared endpoint."""

    INCLUDE = "include"
    EXCLUDE_SHARED_ENDPOINT = "exclude_shared_endpoint"


class PointOnBoundary(UnfoldError):
    """Winding number queried at a point lying on the curve."""


def point_segment_distance(p: Vec2, a: Vec2, b: Vec2) -> float:
    """Euclidean distance from ``p`` to the closed segment ab."""
    ax, ay = float(a[0]), float(a[1])
    dx, dy = float(b[0]) - ax, float(b[1]) - ay
    px, py = float(p[0]) - ax, float(p[1]) - ay
    L2 = dx * dx + dy * dy
    if L2 == 0.0:
        return math.hypot(px, py)
    t = (px * dx + py * dy) / L2
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    return math.hypot(px - t * dx, py - t * dy)


def _proper_crossing(p1: Vec2, p2: Vec2, q1: Vec2, q2: Vec2) -> bool:
    """True when the open segments cross transversally (exact float signs).

    Segments with disjoint bounding boxes never do, whatever the rounded
    signs of (nearly) collinear segments say.
    """
    for k in (0, 1):
        if max(p1[k], p2[k]) < min(q1[k], q2[k]) or max(q1[k], q2[k]) < min(p1[k], p2[k]):
            return False
    o1 = orient_raw(p1, p2, q1)
    o2 = orient_raw(p1, p2, q2)
    o3 = orient_raw(q1, q2, p1)
    o4 = orient_raw(q1, q2, p2)
    if o1 == 0.0 or o2 == 0.0 or o3 == 0.0 or o4 == 0.0:
        return False
    return (o1 > 0.0) != (o2 > 0.0) and (o3 > 0.0) != (o4 > 0.0)


def segment_distance(p1: Vec2, p2: Vec2, q1: Vec2, q2: Vec2) -> float:
    """Minimum distance between two closed segments (0 when they cross)."""
    if _proper_crossing(p1, p2, q1, q2):
        return 0.0
    return min(
        point_segment_distance(p1, q1, q2),
        point_segment_distance(p2, q1, q2),
        point_segment_distance(q1, p1, p2),
        point_segment_distance(q2, p1, p2),
    )


def point_segment_distances(P: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Distances from points ``P`` to the closed segments ``A``->``B``;
    the last axis of each array holds x and y."""
    D = B - A
    L2 = np.maximum((D * D).sum(axis=-1), 1e-300)
    t = np.clip(((P - A) * D).sum(axis=-1) / L2, 0.0, 1.0)
    E = P - (A + t[..., None] * D)
    return np.sqrt((E * E).sum(axis=-1))


def _cross(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    return v[..., 0] * w[..., 1] - v[..., 1] * w[..., 0]


def segment_pair_contacts(A: np.ndarray, B: np.ndarray, I, J, exclude_shared=False) -> tuple:
    """Distance, proper-crossing flag and EPS contact of each pair of
    segments ``A[I]->B[I]`` and ``A[J]->B[J]`` (see
    ``stretchnet.geometry.segment_pair_contacts``)."""
    p1, p2, q1, q2 = A[I], B[I], A[J], B[J]
    dp, dq = p2 - p1, q2 - q1
    o1, o2 = _cross(dp, q1 - p1), _cross(dp, q2 - p1)
    o3, o4 = _cross(dq, p1 - q1), _cross(dq, p2 - q1)
    boxes_meet = (
        (np.maximum(p1, p2) >= np.minimum(q1, q2)) & (np.maximum(q1, q2) >= np.minimum(p1, p2))
    ).all(axis=-1)
    proper = boxes_meet & ((o1 > 0.0) != (o2 > 0.0)) & ((o3 > 0.0) != (o4 > 0.0))
    proper &= (o1 != 0.0) & (o2 != 0.0) & (o3 != 0.0) & (o4 != 0.0)
    d_q1, d_q2 = point_segment_distances(q1, p1, p2), point_segment_distances(q2, p1, p2)
    d_p1, d_p2 = point_segment_distances(p1, q1, q2), point_segment_distances(p2, q1, q2)
    dist = np.where(proper, 0.0, np.minimum(np.minimum(d_q1, d_q2), np.minimum(d_p1, d_p2)))

    c11, c12, c21, c22 = (np.hypot(*(p - q).T) <= EPS for p in (p1, p2) for q in (q1, q2))
    shared = c11.astype(int) + c12 + c21 + c22
    free_touch = (np.where(c11 | c12, d_p2, d_p1) <= EPS) | (np.where(c11 | c21, d_q2, d_q1) <= EPS)
    contact = np.where(exclude_shared & (shared > 0), (shared > 1) | free_touch, dist <= EPS)
    return dist, proper, contact


def crossing_point(p1: Vec2, p2: Vec2, q1: Vec2, q2: Vec2) -> tuple[tuple[float, float], float]:
    """Representative contact point of two intersecting/touching segments.

    Returns (point, t) where t is the parameter of the point along q1->q2.
    For a transversal crossing this is the exact line intersection; for
    touching contacts it is the midpoint of the closest pair.
    """
    if _proper_crossing(p1, p2, q1, q2):
        d = orient_raw(q1, q2, p1) - orient_raw(q1, q2, p2)
        s = orient_raw(q1, q2, p1) / d
        x = p1[0] + s * (p2[0] - p1[0])
        y = p1[1] + s * (p2[1] - p1[1])
        qlen2 = (q2[0] - q1[0]) ** 2 + (q2[1] - q1[1]) ** 2
        t = ((x - q1[0]) * (q2[0] - q1[0]) + (y - q1[1]) * (q2[1] - q1[1])) / qlen2
        return (x, y), t

    def closest_on(seg_a, seg_b, p):
        ax, ay = seg_a
        dx, dy = seg_b[0] - ax, seg_b[1] - ay
        L2 = dx * dx + dy * dy
        t = 0.0 if L2 == 0.0 else ((p[0] - ax) * dx + (p[1] - ay) * dy) / L2
        t = min(1.0, max(0.0, t))
        return (ax + t * dx, ay + t * dy), t

    best = None
    for p in (p1, p2):
        cp, t = closest_on(q1, q2, p)
        d = math.hypot(p[0] - cp[0], p[1] - cp[1])
        if best is None or d < best[0]:
            best = (d, ((p[0] + cp[0]) / 2.0, (p[1] + cp[1]) / 2.0), t)
    for q, tq in ((q1, 0.0), (q2, 1.0)):
        cp, _ = closest_on(p1, p2, q)
        d = math.hypot(q[0] - cp[0], q[1] - cp[1])
        if best is None or d < best[0]:
            best = (d, ((q[0] + cp[0]) / 2.0, (q[1] + cp[1]) / 2.0), tq)
    return best[1], best[2]


def _close(a: Vec2, b: Vec2) -> bool:
    return math.hypot(a[0] - b[0], a[1] - b[1]) <= EPS


def segments_intersect(
    p1: Vec2,
    p2: Vec2,
    q1: Vec2,
    q2: Vec2,
    policy: EndpointPolicy = EndpointPolicy.INCLUDE,
) -> bool:
    """Whether two closed segments meet, within EPS.

    Contacts within EPS count as intersections (conservative).  Under
    EXCLUDE_SHARED_ENDPOINT a single shared endpoint is forgiven: the
    segments intersect only if they also touch away from that endpoint
    (e.g. a collinear doubling-back).
    """
    if math.hypot(p2[0] - p1[0], p2[1] - p1[1]) <= EPS:
        raise DegenerateSegment(f"segment {p1}-{p2} has near-zero length")
    if math.hypot(q2[0] - q1[0], q2[1] - q1[1]) <= EPS:
        raise DegenerateSegment(f"segment {q1}-{q2} has near-zero length")

    if policy is EndpointPolicy.EXCLUDE_SHARED_ENDPOINT:
        shared = [
            (p_other, q_other)
            for (p_at, p_other) in ((p1, p2), (p2, p1))
            for (q_at, q_other) in ((q1, q2), (q2, q1))
            if _close(p_at, q_at)
        ]
        if len(shared) >= 2:
            return True  # identical (or reversed) segments
        if len(shared) == 1:
            p_other, q_other = shared[0]
            # Any contact beyond the shared endpoint shows up as one free
            # endpoint lying on the other segment.
            return (
                point_segment_distance(p_other, q1, q2) <= EPS
                or point_segment_distance(q_other, p1, p2) <= EPS
            )
    return segment_distance(p1, p2, q1, q2) <= EPS


def _as_cycle(polyline: Sequence[Vec2]) -> list[tuple[float, float]]:
    pts = [(float(p[0]), float(p[1])) for p in polyline]
    if len(pts) >= 2 and _close(pts[0], pts[-1]):
        pts.pop()
    if len(pts) < 3:
        raise ValueError("closed polyline needs at least 3 distinct points")
    return pts


def winding_number(polyline: Sequence[Vec2], p: Vec2) -> int:
    """Winding number of a closed polyline around ``p``.

    Signed crossings of the rightward horizontal ray are counted with the
    half-open rule (the ray height is treated as infinitesimally below
    its nominal value), which resolves vertices lying exactly on the ray
    without explicit perturbation.  Raises PointOnBoundary when ``p`` is
    within EPS of the curve, where the winding number is undefined.
    """
    pts = _as_cycle(polyline)
    n = len(pts)
    px, py = float(p[0]), float(p[1])
    for i in range(n):
        if point_segment_distance((px, py), pts[i], pts[(i + 1) % n]) <= EPS:
            raise PointOnBoundary(f"point {(px, py)} lies on the curve")
    w = 0
    for i in range(n):
        sx, sy = pts[i]
        tx, ty = pts[(i + 1) % n]
        if sy <= py:
            if ty > py and orient_raw((sx, sy), (tx, ty), (px, py)) > 0.0:
                w += 1
        elif ty <= py and orient_raw((sx, sy), (tx, ty), (px, py)) < 0.0:
            w -= 1
    return w


def _winding_grid(points: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Winding numbers of a closed polyline around many sample points.

    Vectorized version of the half-open crossing rule used by
    winding_number; both must agree segment for segment.
    """
    w = np.zeros(len(samples), dtype=int)
    px, py = samples[:, 0], samples[:, 1]
    n = len(points)
    for i in range(n):
        sx, sy = points[i]
        tx, ty = points[(i + 1) % n]
        left = (tx - sx) * (py - sy) - (px - sx) * (ty - sy)
        if sy <= ty:
            w += ((sy <= py) & (ty > py) & (left > 0.0)).astype(int)
        if sy >= ty:
            w -= ((sy > py) & (ty <= py) & (left < 0.0)).astype(int)
    return w


def _distance_mask(points: np.ndarray, samples: np.ndarray, radius: float) -> np.ndarray:
    """True for samples farther than ``radius`` from every segment."""
    keep = np.ones(len(samples), dtype=bool)
    n = len(points)
    for i in range(n):
        a = points[i]
        b = points[(i + 1) % n]
        d = b - a
        L2 = float(d @ d)
        rel = samples - a
        t = np.clip((rel @ d) / L2, 0.0, 1.0) if L2 > 0 else np.zeros(len(samples))
        closest = a + t[:, None] * d
        dist = np.linalg.norm(samples - closest, axis=1)
        keep &= dist > radius
    return keep


def check_arm_conclusion(u: Sequence, v: Sequence) -> bool:
    """Whether the two chains avoid crossing and end almost vertically apart.

    Passing means: no contact between the chains except at the shared
    start point, and arg(v_end - u_end) inside (2*pi/5, 3*pi/5).  Touching
    within EPS anywhere else counts as a crossing (conservative).
    """
    if len(u) != len(v):
        raise LengthMismatch(f"chains have {len(u)} and {len(v)} points")
    m = len(u) - 1
    end_diff = (v[m][0] - u[m][0], v[m][1] - u[m][1])
    if math.hypot(*end_diff) <= EPS:
        raise ValueError("chain endpoints coincide; conclusion undefined")
    a = arg(end_diff)
    if not (math.pi / 2 - math.pi / 10 < a < math.pi / 2 + math.pi / 10):
        return False
    for i in range(m):
        for j in range(m):
            policy = (
                EndpointPolicy.EXCLUDE_SHARED_ENDPOINT
                if i == 0 and j == 0
                else EndpointPolicy.INCLUDE
            )
            if segments_intersect(u[i], u[i + 1], v[j], v[j + 1], policy):
                return False
    return True
