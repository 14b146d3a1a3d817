"""Angle arithmetic and tolerant 2D predicates.

Each contact and winding predicate is written once, as an array kernel
over segment pairs or sample points, and has no scalar form: contacts are
asked of segment_pair_contacts and require_segment_lengths, windings of
winding_numbers and curve_distances.  The kernels hold x and y in
separate arrays (on tiny arrays a numpy call costs far more than its
arithmetic, so each operation is one call for all rows).  A single absolute
tolerance ``EPS`` governs collinearity, point-on-segment and
point-on-curve decisions.  Meshes are rescaled to unit bounding-box
diameter on load, but the stretch scales x by its factor, so one
absolute epsilon holds only while one ulp of the largest coordinate
stays below it: at the default bound one ulp of the largest x passes
1e-9 from about 3,000 hull points (README "Limits", the tolerance item;
ROADMAP item 2).

All functions here are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DegenerateDirection, DegenerateSegment

Vec2 = Sequence[float]


EPS = 1e-9

#: Every developed edge must stay within this angle of horizontal: the
#: certificate's tilt check, the arm oracles and the largest admissible
#: per-edge stretch bound all use it.
TILT_BOUND = math.pi / 10.0

TWO_PI = 2.0 * math.pi


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


def orient_raw(a: Vec2, b: Vec2, c: Vec2) -> float:
    """Twice the signed area of triangle abc (positive for counterclockwise)."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


# -- contact and winding kernels -------------------------------------------

#: Segment-sample pairs measured at once by the winding and distance
#: kernels, which bounds their memory on long curves with many samples.
_BLOCK = 1 << 14


def point_segment_distances(P, A, B) -> np.ndarray:
    """Euclidean distances from points ``P`` to the closed segments ``A``->``B``.

    Each argument is an (x, y) pair of arrays, or an array whose first
    axis holds x and y; the x and y arrays of all three broadcast against
    each other.  A zero-length segment measures the distance to its point.
    """
    (px, py), (ax, ay), (bx, by) = P, A, B
    dx, dy = bx - ax, by - ay
    L2 = np.maximum(dx * dx + dy * dy, 1e-300)
    t = np.minimum(np.maximum(((px - ax) * dx + (py - ay) * dy) / L2, 0.0), 1.0)
    ex, ey = px - (ax + t * dx), py - (ay + t * dy)
    return np.sqrt(ex * ex + ey * ey)


def segment_pair_contacts(
    A: np.ndarray, B: np.ndarray, I: np.ndarray, J: np.ndarray, exclude_shared=False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distance, proper-crossing flag and EPS contact of each pair of
    segments ``p = A[I]->B[I]`` and ``q = A[J]->B[J]``.

    A pair crosses properly when the open segments cross transversally by
    the exact float orientation signs and their bounding boxes meet: the
    rounded signs of (nearly) collinear segments can read as a crossing,
    but segments with disjoint boxes cannot cross.  The distance is 0 for
    a proper crossing, else the least endpoint-to-segment distance.

    A pair is in contact when its distance is at most EPS.  Where
    ``exclude_shared`` holds (one flag, or one per pair), a single shared
    endpoint is forgiven: the pair is in contact only if a free endpoint
    lies within EPS of the other segment, as in a collinear doubling-back.
    Two shared endpoints make the same segment, which is in contact.
    Segment lengths are not checked here; see require_segment_lengths.

    Each pair is gathered once as four (point, segment) rows, p1|q, q1|p,
    p2|q and q2|p: one cross product gives the four orientations, and one
    projection the four endpoint distances.
    """
    I, J = np.asarray(I), np.asarray(J)
    k, h = len(I), 2 * len(I)
    # x and y of the measured segments' starts and ends only, in the order
    # p, q, then q, p twice: each row's point, then its other segment
    order = np.concatenate((I, J, J, I, J, I))
    starts, ends = A.take(order, axis=0).T, B.take(order, axis=0).T
    P, a, b = np.concatenate((starts[:, :h], ends[:, :h]), axis=1), starts[:, h:], ends[:, h:]
    (px, py), (ax, ay), (bx, by) = P, a, b
    wx, wy = px - ax, py - ay
    o = (bx - ax) * wy - (by - ay) * wx  # o3, o1, o4, o2
    above, off = o > 0.0, o != 0.0
    crosses = (above[:h] != above[h:]) & off[:h] & off[h:]
    lo, hi = np.minimum(a[:, :h], b[:, :h]), np.maximum(a[:, :h], b[:, :h])
    boxes_meet = (hi[:, :k] >= lo[:, k:]) & (hi[:, k:] >= lo[:, :k])
    proper = boxes_meet[0] & boxes_meet[1] & crosses[:k] & crosses[k:]
    d = point_segment_distances(P, a, b)  # d_p1, d_q1, d_p2, d_q2
    nearest = np.minimum(d[:h], d[h:])
    dist = np.where(proper, 0.0, np.minimum(nearest[:k], nearest[k:]))

    # how many endpoints of the other segment lie within EPS of each row's point
    near = (np.hypot(wx, wy) <= EPS).view(np.uint8) + (np.hypot(px - bx, py - by) <= EPS).view(np.uint8)
    shared = near[:k] + near[h : h + k]  # p1's and p2's
    # each segment's free endpoint: its end where its start is shared
    free_touch = np.where(near[:h] > 0, d[h:], d[:h]) <= EPS
    contact = np.where(exclude_shared & (shared > 0), (shared > 1) | free_touch[:k] | free_touch[k:], dist <= EPS)
    return dist, proper, contact


def require_segment_lengths(A: np.ndarray, B: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Lengths of the segments ``A[s]->B[s]`` of the index sequence ``S``.

    Raises DegenerateSegment at the first of them that is no longer than
    EPS, naming it by its endpoints as float tuples.
    """
    lengths = np.hypot(*(B[S] - A[S]).T)
    short = S[lengths <= EPS]
    if len(short):
        a, b = tuple(A[short[0]].tolist()), tuple(B[short[0]].tolist())
        raise DegenerateSegment(f"segment {a}-{b} has near-zero length")
    return lengths


def _segment_blocks(starts: np.ndarray, ends: np.ndarray, n_samples: int):
    """Segments ``starts``->``ends`` in blocks, as x and y arrays of shape
    (k, 1) that broadcast against ``n_samples`` samples."""
    step = max(1, _BLOCK // max(1, n_samples))
    for lo in range(0, len(starts), step):
        yield starts.T[:, lo : lo + step, None], ends.T[:, lo : lo + step, None]


def winding_numbers(points: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Winding numbers of the closed polyline ``points`` around each sample.

    Signed crossings of the rightward horizontal ray are counted with the
    half-open rule (the ray height is treated as infinitesimally below
    its nominal value), which resolves vertices lying exactly on the ray
    without explicit perturbation.  The count is meaningless for samples
    on the curve; callers drop them with curve_distances.
    """
    w = np.zeros(len(samples), dtype=int)
    px, py = samples[:, 0], samples[:, 1]
    ends = np.roll(points, -1, axis=0)
    rising = points[:, 1] <= ends[:, 1]
    # a rising segment crossing the ray counts +1 with the sample on its
    # left, a falling one -1 with the sample on its right
    for sign, group in ((1, rising), (-1, ~rising)):
        for (sx, sy), (tx, ty) in _segment_blocks(points[group], ends[group], len(samples)):
            left = (tx - sx) * (py - sy) - (px - sx) * (ty - sy)
            w += sign * (((sy <= py) != (ty <= py)) & (sign * left > 0.0)).sum(axis=0)
    return w


def curve_distances(points: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Distance from each sample to the closed polyline ``points``."""
    d = np.full(len(samples), np.inf)
    for s, t in _segment_blocks(points, np.roll(points, -1, axis=0), len(samples)):
        d = np.minimum(d, point_segment_distances(samples.T, s, t).min(axis=0))
    return d


def crossing_point(
    p1: Vec2, p2: Vec2, q1: Vec2, q2: Vec2, proper: bool
) -> tuple[tuple[float, float], float]:
    """Representative contact point of two intersecting/touching segments.

    ``proper`` is the pair's proper-crossing flag from
    segment_pair_contacts.  Returns (point, t) where t is the parameter of
    the point along q1->q2.  For a transversal crossing this is the exact
    line intersection; for touching contacts it is the midpoint of the
    closest pair.
    """
    if proper:
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
