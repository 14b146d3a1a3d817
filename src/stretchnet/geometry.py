"""Scalar/vector primitives, angle arithmetic, and tolerant 2D predicates.

All coordinates are plain floats; 2D points are any indexable pair.  A
single absolute tolerance ``EPS`` governs collinearity, point-on-segment
and point-on-curve decisions.  Meshes are rescaled to unit bounding-box
diameter on load, so one absolute epsilon is adequate everywhere.  The
``UNFOLD_EPS`` environment variable overrides it (testing only); any
value but a positive finite number raises ValueError at import.

All functions here are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
import os
from enum import Enum
from typing import Sequence

from .errors import DegenerateDirection, DegenerateSegment, PointOnBoundary

Vec2 = Sequence[float]


def _eps_from_env() -> float:
    raw = os.environ.get("UNFOLD_EPS", "1e-9")
    try:
        eps = float(raw)
    except ValueError:
        eps = math.nan
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"UNFOLD_EPS must be a positive finite number, got {raw!r}")
    return eps


EPS = _eps_from_env()

TWO_PI = 2.0 * math.pi


class EndpointPolicy(Enum):
    """How segment intersection treats a shared endpoint."""

    INCLUDE = "include"
    EXCLUDE_SHARED_ENDPOINT = "exclude_shared_endpoint"


def normalize_angle(a: float) -> float:
    """Reduce an angle to the canonical interval (-pi, pi]."""
    a = math.fmod(a, TWO_PI)
    if a > math.pi:
        a -= TWO_PI
    elif a <= -math.pi:
        a += TWO_PI
    return a


def arg(v: Vec2) -> float:
    """Argument of ``v`` as a complex number, in (-pi, pi].

    Raises DegenerateDirection on the (near-)zero vector.  The boundary
    convention maps the negative x-axis to +pi, never -pi.
    """
    x, y = float(v[0]), float(v[1])
    if math.hypot(x, y) <= EPS:
        raise DegenerateDirection(f"cannot take the argument of {(x, y)}")
    a = math.atan2(y, x)
    if a <= -math.pi:
        a = math.pi
    return a


def ccw_angle(y: Vec2, x: Vec2, z: Vec2) -> float:
    """Angle at ``x`` swept counterclockwise from ray x->y to ray x->z, in [0, 2*pi)."""
    ay = arg((y[0] - x[0], y[1] - x[1]))
    az = arg((z[0] - x[0], z[1] - x[1]))
    return (az - ay) % TWO_PI


def orient_raw(a: Vec2, b: Vec2, c: Vec2) -> float:
    """Twice the signed area of triangle abc (positive for counterclockwise)."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def orient2d(a: Vec2, b: Vec2, c: Vec2) -> int:
    """Sign of the doubled signed area of abc: +1 ccw, -1 cw, 0 if within EPS of collinear.

    The area is evaluated on the points in sorted order and the sign
    flipped for an odd permutation, so every ordering of the same three
    points rounds alike and the predicate is exactly antisymmetric.
    """
    pts = [(float(p[0]), float(p[1])) for p in (a, b, c)]
    order = sorted(range(3), key=pts.__getitem__)
    d = orient_raw(*(pts[k] for k in order))
    if abs(d) <= EPS:
        return 0
    even = order in ([0, 1, 2], [1, 2, 0], [2, 0, 1])
    return 1 if (d > 0.0) == even else -1


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
