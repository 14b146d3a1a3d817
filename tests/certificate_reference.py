"""Reference certificate: the run decomposition, the dense all-pairs
contact check and the always-on winding grid.

The library's ``verify.certify_boundary`` measures only segment pairs
whose bounding boxes come within the tolerance, and skips the winding
grid on contact-free counterclockwise boundaries.  Its structural checks
are one pass over the segments that builds no runs and does not test
alternation.  This module keeps the exhaustive form all three shortcuts
must agree with, verdict for verdict and witness for witness: the
boundary split into maximal rightward/leftward runs, a turn recorded at
every junction, and an explicit alternation test.

``one_pass_decomposition`` freezes the library's first one-pass
structural loop, which called ``geometry.arg`` per segment; the library's
``decompose_boundary`` takes its angles inline and must return the same
tilt, the same wrong-way switches and the same VerticalSegment text.
"""

import math
from dataclasses import dataclass

import numpy as np

from stretchnet.errors import VerticalSegment
from stretchnet.geometry import EPS, TILT_BOUND, arg, normalize_angle
from stretchnet.verdict import Status, Verdict, Witness

from geometry_reference import EndpointPolicy, _distance_mask, _winding_grid, crossing_point, segments_intersect


@dataclass(frozen=True)
class Run:
    direction: str          # "R" (dx > 0 on every segment) or "L"
    segments: tuple


@dataclass(frozen=True)
class Turn:
    corner: int             # corner index where the runs meet
    from_dir: str
    to_dir: str
    angle: float            # signed turn in (-pi, pi]; > 0 is counterclockwise


@dataclass(frozen=True)
class BoundaryDecomposition:
    runs: tuple
    turns: tuple
    max_tilt: float
    leftmost_corner: int = 0

    @property
    def alternating(self) -> bool:
        n = len(self.runs)
        return n >= 2 and all(
            self.runs[i].direction != self.runs[(i + 1) % n].direction for i in range(n)
        )


def decompose_boundary(B) -> BoundaryDecomposition:
    """Split the closed boundary into maximal rightward/leftward runs.

    Every segment must have |dx| above tolerance; a near-vertical segment
    raises VerticalSegment, the signature of insufficient stretching.
    Runs are listed in traversal order beginning with the run containing
    segment 0, and each junction's signed turn angle is recorded.
    """
    pts = B.points
    n, dirs, angles, max_tilt = len(pts), [], [], 0.0
    for i, (a, b) in enumerate(zip(pts, [*pts[1:], *pts[:1]])):
        dx, dy = b[0] - a[0], b[1] - a[1]
        if abs(dx) <= EPS:
            raise VerticalSegment(f"segment {i} has |dx| = {abs(dx):.3e}")
        dirs.append("R" if dx > 0 else "L")
        angles.append(arg((dx, dy)))
        max_tilt = max(max_tilt, min(abs(angles[i]), math.pi - abs(angles[i])))

    leftmost = min(range(n), key=lambda i: (pts[i][0], pts[i][1]))
    breaks = [i for i in range(n) if dirs[i] != dirs[i - 1]]
    if not breaks:
        return BoundaryDecomposition((Run(dirs[0], tuple(range(n))),), (), max_tilt, leftmost)

    runs = [
        Run(dirs[start], tuple((start + j) % n for j in range((end - start) % n)))
        for start, end in zip(breaks, breaks[1:] + breaks[:1])
    ]
    if breaks[0] != 0:  # the last run wraps through segment 0, so it comes first
        runs = runs[-1:] + runs[:-1]

    turns = []
    for k, run in enumerate(runs):
        nxt = runs[(k + 1) % len(runs)]
        i_prev, i_next = run.segments[-1], nxt.segments[0]
        angle = normalize_angle(angles[i_next] - angles[i_prev])
        turns.append(Turn(i_next, run.direction, nxt.direction, angle))
    return BoundaryDecomposition(tuple(runs), tuple(turns), max_tilt, leftmost)


def one_pass_decomposition(B) -> tuple:
    """``(max_tilt, wrong_turns)`` of the closed boundary in one pass:
    wrong_turns lists ``(corner, direction before, signed turn angle)``
    for every direction switch that turns the wrong way, except at the
    leftmost corner, in ascending corner order with corner 0 last."""
    pts = B.points
    n = len(pts)
    leftmost = min(range(n), key=lambda i: (pts[i][0], pts[i][1]))
    max_tilt, wrong_turns, before = 0.0, [], None
    for i in (*range(n), 0):  # segment 0 again closes the switch at corner 0
        a, b = pts[i], pts[(i + 1) % n]
        dx, dy = b[0] - a[0], b[1] - a[1]
        if abs(dx) <= EPS:
            raise VerticalSegment(f"segment {i} has |dx| = {abs(dx):.3e}")
        direction, angle = "R" if dx > 0 else "L", arg((dx, dy))
        max_tilt = max(max_tilt, min(abs(angle), math.pi - abs(angle)))
        if before is not None and direction != before[0] and i != leftmost:
            turn = normalize_angle(angle - before[1])
            if (turn > 0.0) != (before[0] == "R"):
                wrong_turns.append((i, before[0], turn))
        before = direction, angle
    return max_tilt, wrong_turns


def check_turn_directions(D: BoundaryDecomposition) -> Verdict:
    """Every switch right->left must turn counterclockwise, left->right clockwise.

    The closing junction at the leftmost corner is exempt: the run
    sequence starts and ends there, and at a global extreme the curve is
    locally convex, so that switch always turns counterclockwise.
    """
    witnesses = []
    for t in D.turns:
        if t.from_dir == t.to_dir or t.corner == D.leftmost_corner:
            continue
        ccw = t.angle > 0.0
        want_ccw = t.from_dir == "R"
        if ccw != want_ccw:
            witnesses.append(
                Witness(
                    note=(
                        f"corner {t.corner}: {t.from_dir}->{t.to_dir} turns "
                        f"{'ccw' if ccw else 'cw'} by {t.angle!r}"
                    )
                )
            )
    if witnesses:
        return Verdict(Status.PRECONDITION_FAILURE, tuple(witnesses), {"turn_directions": False})
    return Verdict(Status.NET, (), {"turn_directions": True})


def decomposition_prefixes(B, D: BoundaryDecomposition) -> list:
    """Open polylines R_1, R_1 L_1 R_2, ... ending at each rightward run.

    Only meaningful when the decomposition starts at segment 0 with a
    rightward run (the normal situation for an increasing-tree boundary
    traversed from the minimal corner).
    """
    if D.runs[0].segments[0] != 0:
        raise ValueError("decomposition does not start at segment 0")
    prefixes = []
    for k, run in enumerate(D.runs):
        if run.direction != "R":
            continue
        last = run.segments[-1]
        prefixes.append([B.points[i] for i in range(0, last + 1)] + [B.points[(last + 1) % len(B)]])
    return prefixes


def pairwise_segment_distances(A, B):
    """All-pairs distances between segments A[i]->B[i] and A[j]->B[j]:
    zero where a pair crosses transversally, else the minimum of the four
    endpoint-to-segment distances."""
    D = B - A

    def cross(v, w):
        return v[..., 0] * w[..., 1] - v[..., 1] * w[..., 0]

    Ai = A[:, None, :]
    Di = D[:, None, :]
    o1 = cross(Di, A[None, :, :] - Ai)
    o2 = cross(Di, B[None, :, :] - Ai)
    proper = (
        ((o1 > 0) != (o2 > 0))
        & ((o1.T > 0) != (o2.T > 0))
        & (o1 != 0) & (o2 != 0) & (o1.T != 0) & (o2.T != 0)
    )

    def point_to_segs(P):
        rel = P[None, :, :] - A[:, None, :]
        L2 = np.maximum((D * D).sum(axis=1), 1e-300)
        t = np.clip((rel * D[:, None, :]).sum(axis=2) / L2[:, None], 0.0, 1.0)
        closest = A[:, None, :] + t[..., None] * D[:, None, :]
        return np.linalg.norm(P[None, :, :] - closest, axis=2)

    PA = point_to_segs(A)
    PB = point_to_segs(B)
    dist = np.minimum(np.minimum(PA, PB), np.minimum(PA.T, PB.T))
    return np.where(proper, 0.0, dist)


def polyline_self_intersections(points, closed):
    """Every pair of segments measured, witnesses in traversal order."""
    pts = [(float(p[0]), float(p[1])) for p in points]
    m = len(pts) if closed else len(pts) - 1

    def seg(i):
        return pts[i], pts[(i + 1) % len(pts)]

    A = np.array([seg(i)[0] for i in range(m)])
    B = np.array([seg(i)[1] for i in range(m)])
    dist = pairwise_segment_distances(A, B)

    raw = []
    for j in range(m):
        for i in range(j):
            consecutive = i + 1 == j or (closed and i == 0 and j == m - 1)
            a1, a2 = seg(i)
            b1, b2 = seg(j)
            if consecutive:
                hit = segments_intersect(a1, a2, b1, b2, EndpointPolicy.EXCLUDE_SHARED_ENDPOINT)
            elif dist[i, j] > EPS:
                continue
            else:
                hit = True
            if hit:
                point, t = crossing_point(a1, a2, b1, b2)
                raw.append((j, t, i, point))
    raw.sort()
    return [Witness(seg_a=i, seg_b=j, point=point) for j, t, i, point in raw]


def winding_injectivity_check(B, samples=64, extra_points=()):
    """Every probe farther than EPS from the curve is wound around."""
    pts = np.asarray(B.points, dtype=float)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    gx, gy = np.meshgrid(np.linspace(lo[0], hi[0], samples), np.linspace(lo[1], hi[1], samples))
    probes = np.column_stack([gx.ravel(), gy.ravel()])
    extra = np.asarray(list(extra_points), dtype=float).reshape(-1, 2)
    if len(extra):
        probes = np.vstack([probes, extra])
    probes = probes[_distance_mask(pts, probes, EPS)]
    w = _winding_grid(pts, probes)

    checks = {
        "winding_in_0_1": bool(((w == 0) | (w == 1)).all()),
        "ccw_orientation": bool((w >= 0).all()),
    }
    if checks["winding_in_0_1"]:
        return Verdict(Status.NET, (), checks)
    witnesses = tuple(
        Witness(point=(float(p[0]), float(p[1])), note=f"winding={int(k)}")
        for p, k in zip(probes, w)
        if k < 0 or k > 1
    )
    status = Status.OVERLAP if int(w.max()) > 1 else Status.PRECONDITION_FAILURE
    return Verdict(status, witnesses, checks)


def certify_boundary(B, interior_probes=()):
    """The full check stack with every check always run."""
    checks = {}
    witnesses = []

    decomposition = None
    try:
        decomposition = decompose_boundary(B)
        checks["boundary_decomposition"] = decomposition.alternating
        if not decomposition.alternating:
            witnesses.append(Witness(note="runs do not alternate rightward/leftward"))
    except VerticalSegment as exc:
        checks["boundary_decomposition"] = False
        witnesses.append(Witness(note=str(exc)))

    if decomposition is not None:
        checks["segment_tilt"] = decomposition.max_tilt < TILT_BOUND
        if not checks["segment_tilt"]:
            witnesses.append(
                Witness(note=f"segment tilt {decomposition.max_tilt!r} exceeds pi/10")
            )
        turn = check_turn_directions(decomposition)
        checks.update(turn.checks)
        witnesses.extend(turn.witnesses)

    contacts = polyline_self_intersections(B.points, closed=True)
    checks["self_intersection"] = not contacts
    witnesses.extend(contacts)

    winding = winding_injectivity_check(B, extra_points=interior_probes)
    checks.update(winding.checks)
    witnesses.extend(winding.witnesses)

    if contacts or winding.status is Status.OVERLAP:
        status = Status.OVERLAP
    elif all(checks.values()):
        status = Status.NET
    else:
        status = Status.PRECONDITION_FAILURE
    return Verdict(status, tuple(witnesses), checks)
