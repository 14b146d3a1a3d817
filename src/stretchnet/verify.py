"""Certification that an unfolding is a net.

The certificate stacks three checks on the boundary polyline: it splits
into alternating rightward/leftward runs of nearly horizontal segments,
the run junctions turn the required way, and no two segments collide.
A contact-free closed polyline is a simple polygon, with winding number
sign(area) inside and 0 outside; as the preimage count of an isometric
immersion of a disc equals the winding number, positive shoelace area
then makes the unfolding injective.  The first two checks are the
structural facts the stretching is meant to buy, so their failure, like
a clockwise boundary, is a precondition problem rather than overlap.

The collision check measures only segment pairs whose bounding boxes
come within the tolerance, found by sorting the boxes by x.  It and the
arm oracles decide contacts with ``geometry``'s array kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import LengthMismatch, VerticalSegment
from .geometry import (
    EPS,
    arg,
    crossing_point,
    curve_distances,
    normalize_angle,
    require_segment_lengths,
    segment_pair_contacts,
    winding_numbers,
)
from .unfold import BoundaryCurve, PlanarLayout, boundary_curve
from .verdict import Status, Verdict, Witness

#: Every developed edge must stay within this angle of horizontal.
TILT_BOUND = math.pi / 10.0


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


def decompose_boundary(B: BoundaryCurve) -> BoundaryDecomposition:
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


def _candidate_pairs(A: np.ndarray, B: np.ndarray, margin: float) -> tuple:
    """Index pairs (i < j) of segments whose bounding boxes, each grown by
    ``margin``, overlap.

    Broad phase of the contact check: the boxes are sorted by left edge
    and every box is paired with the later ones that start before it
    ends (argsort plus searchsorted), then pairs are filtered by their
    y-extents.  Nearly horizontal boundaries have short x-extents, so
    few pairs survive.
    """
    lo = np.minimum(A, B) - margin
    hi = np.maximum(A, B) + margin
    order = np.argsort(lo[:, 0])
    xlo, xhi = lo[order, 0], hi[order, 0]
    stop = np.searchsorted(xlo, xhi, side="right")
    counts = np.maximum(stop - np.arange(1, len(order) + 1), 0)
    first = np.repeat(np.arange(len(order)), counts)
    offset = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    p, q = order[first], order[first + 1 + offset]
    keep = (lo[q, 1] <= hi[p, 1]) & (lo[p, 1] <= hi[q, 1])
    p, q = p[keep], q[keep]
    return np.minimum(p, q), np.maximum(p, q)


def polyline_self_intersections(points: Sequence, closed: bool) -> list:
    """Witnesses for all illegal contacts of a polyline with itself.

    Non-consecutive segments may not come within EPS of each other;
    consecutive ones may meet only at their shared endpoint.  Witnesses
    are ordered by discovery along the traversal (the first one is where
    a pen tracing the curve first touches ink), matching how a first
    self-contact would be located while drawing the boundary.

    Only pairs whose bounding boxes come within the contact tolerance are
    measured.  The boxes are grown by EPS plus a rounding allowance
    relative to the coordinate magnitude, so every pair whose computed
    endpoint-to-segment distances can reach EPS is among them.  Grown
    boxes can overlap where the segments' own boxes are disjoint; the
    contact kernel's bounding-box guard keeps such a pair from being read
    as crossing.
    """
    pts = [(float(p[0]), float(p[1])) for p in points]
    m = len(pts) if closed else len(pts) - 1
    ends = [(pts[i], pts[(i + 1) % len(pts)]) for i in range(m)]
    A = np.array([a for a, _ in ends])
    B = np.array([b for _, b in ends])
    scale = float(np.abs(np.array(pts)).max())
    I, J = _candidate_pairs(A, B, EPS + 64.0 * np.finfo(float).eps * scale)
    consecutive = (I + 1 == J) | (closed & (I == 0) & (J == m - 1))
    I, J = I[~consecutive], J[~consecutive]

    # consecutive pairs, which cover every segment, so the lowest-numbered
    # degenerate segment raises, as in a walk over all pairs
    Ia, Ja = np.arange(m - 1), np.arange(1, m)
    if closed and m > 2:
        Ia, Ja = np.append(Ia, 0), np.append(Ja, m - 1)
    require_segment_lengths(ends, A, B, Ia, Ja)

    exclude = np.repeat([False, True], [len(I), len(Ia)])
    I, J = np.concatenate([I, Ia]), np.concatenate([J, Ja])
    _, proper, hit = segment_pair_contacts(A, B, I, J, exclude)
    raw = []
    for i, j, crossing in zip(I[hit].tolist(), J[hit].tolist(), proper[hit].tolist()):
        point, t = crossing_point(*ends[i], *ends[j], crossing)
        raw.append((j, t, i, point))
    raw.sort()
    return [Witness(seg_a=i, seg_b=j, point=point) for j, t, i, point in raw]


def check_self_intersection(B: BoundaryCurve) -> Verdict:
    """Overlap verdict when any two boundary segments collide.

    Touching within EPS counts as overlap (conservative); consecutive
    segments are only allowed their shared corner.  The witness list is
    ordered along the traversal, so the first witness is the analogue of
    the first self-contact point reached from the start corner.
    """
    witnesses = polyline_self_intersections(B.points, closed=True)
    if witnesses:
        return Verdict(Status.OVERLAP, tuple(witnesses), {"self_intersection": False})
    return Verdict(Status.NET, (), {"self_intersection": True})


def winding_injectivity_check(
    B: BoundaryCurve, samples: int = 64, extra_points: Iterable = ()
) -> Verdict:
    """Windings over a samples x samples grid (plus probes) must lie in {0, 1}.

    The certificate does not run it; tests and the benchmark harness keep
    it as the exhaustive oracle.
    Winding 0 means outside, 1 means covered once.  Any value >= 2 is a
    double cover (overlap); negative values mean the curve runs clockwise,
    which is flagged as an orientation precondition failure, not a net.
    Points within EPS of the curve are skipped.
    """
    pts = np.asarray(B.points, dtype=float)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    xs = np.linspace(lo[0], hi[0], samples)
    ys = np.linspace(lo[1], hi[1], samples)
    gx, gy = np.meshgrid(xs, ys)
    probes = np.column_stack([gx.ravel(), gy.ravel()])
    extra = np.asarray(list(extra_points), dtype=float).reshape(-1, 2)
    if len(extra):
        probes = np.vstack([probes, extra])
    w = winding_numbers(pts, probes)
    # only probes with a winding outside {0, 1} can change the verdict,
    # so only they are measured against the curve
    bad = np.flatnonzero((w < 0) | (w > 1))
    bad = bad[curve_distances(pts, probes[bad]) > EPS]

    checks = {
        "winding_in_0_1": len(bad) == 0,
        "ccw_orientation": bool((w[bad] >= 0).all()),
    }
    if checks["winding_in_0_1"]:
        return Verdict(Status.NET, (), checks)
    witnesses = tuple(
        Witness(point=(float(p[0]), float(p[1])), note=f"winding={int(k)}")
        for p, k in zip(probes[bad], w[bad])
    )
    status = Status.OVERLAP if int(w[bad].max()) > 1 else Status.PRECONDITION_FAILURE
    return Verdict(status, witnesses, checks)


# -- two-chain (arm) property oracles -------------------------------------


def check_arm_hypotheses(u: Sequence, v: Sequence) -> bool:
    """Whether two broken lines satisfy the arm-style hypotheses.

    Required: common start point, pairwise equal segment lengths, every
    segment argument inside (-pi/10, pi/10), and the v-chain's arguments
    dominating the u-chain's position by position.
    """
    if len(u) != len(v):
        raise LengthMismatch(f"chains have {len(u)} and {len(v)} points")
    if len(u) < 2:
        raise ValueError("chains need at least two points")
    if math.hypot(u[0][0] - v[0][0], u[0][1] - v[0][1]) > EPS:
        return False
    bound = math.pi / 10.0
    for j in range(1, len(u)):
        du = (u[j][0] - u[j - 1][0], u[j][1] - u[j - 1][1])
        dv = (v[j][0] - v[j - 1][0], v[j][1] - v[j - 1][1])
        lu, lv = math.hypot(*du), math.hypot(*dv)
        if abs(lu - lv) > EPS:
            return False
        au, av = arg(du), arg(dv)
        if not (-bound < au < bound and -bound < av < bound):
            return False
        if av < au:
            return False
    return True


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
    # every u-segment against every v-segment in row-major order: only the
    # shared start may touch, and a zero-length segment raises only in a
    # pair up to the first contact
    A = np.array([*u[:m], *v[:m]], dtype=float).reshape(-1, 2)
    B = np.array([*u[1:], *v[1:]], dtype=float).reshape(-1, 2)
    I, J = np.repeat(np.arange(m), m), m + np.tile(np.arange(m), m)
    hits = np.flatnonzero(segment_pair_contacts(A, B, I, J, (I == 0) & (J == m))[2])
    first = hits[0] + 1 if len(hits) else len(I)
    require_segment_lengths([*zip(u[:m], u[1:]), *zip(v[:m], v[1:])], A, B, I[:first], J[:first])
    return not len(hits)


# -- full certification ----------------------------------------------------


def _signed_area(points: Sequence) -> float:
    """Shoelace signed area of a closed polyline (positive when counterclockwise)."""
    pts = np.asarray(points, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.dot(x, np.concatenate((y[1:], y[:1]))) - np.dot(np.concatenate((x[1:], x[:1])), y))


def certify_boundary(B: BoundaryCurve, interior_probes: Iterable = ()) -> Verdict:
    """Run the full check stack on a boundary polyline.

    A segment contact makes the verdict overlap, without winding flags.
    Otherwise ``winding_in_0_1`` and ``ccw_orientation`` are both
    ``signed area > 0``, a clockwise boundary gets one witness naming its
    area, and all checks must pass for a net.  A corner with a non-finite
    coordinate is a precondition failure before any check: every
    comparison with NaN is false, so no check could fail on it.
    ``interior_probes`` is accepted and ignored, because the benchmark
    harness still passes face centroids to it.
    """
    bad = next((i for i, (x, y) in enumerate(B.points) if not (math.isfinite(x) and math.isfinite(y))), None)
    if bad is not None:
        note = f"corner {bad} has a non-finite coordinate {tuple(B.points[bad])!r}"
        return Verdict(Status.PRECONDITION_FAILURE, (Witness(note=note),), {"finite_coordinates": False})
    checks: dict = {}
    witnesses: list = []

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

    self_int = check_self_intersection(B)
    checks.update(self_int.checks)
    witnesses.extend(self_int.witnesses)
    if not self_int.ok:
        return Verdict(Status.OVERLAP, tuple(witnesses), checks)

    area = _signed_area(B.points)
    checks["winding_in_0_1"] = checks["ccw_orientation"] = area > 0.0
    if area <= 0.0:
        witnesses.append(Witness(note=f"boundary runs clockwise (signed area {area!r})"))
    status = Status.NET if all(checks.values()) else Status.PRECONDITION_FAILURE
    return Verdict(status, tuple(witnesses), checks)


def face_centroids(faces) -> list:
    """Corner mean of each face: ``faces`` is a layout or its face point lists."""
    if isinstance(faces, PlanarLayout):
        faces = faces.face_points
    return [(sum(x for x, _ in pts) / len(pts), sum(y for _, y in pts) / len(pts)) for pts in faces]


def certify_net(L: PlanarLayout, S=None) -> Verdict:
    """Certify a developed layout: net, overlap (with witnesses), or
    precondition failure, from its boundary curve alone."""
    return certify_boundary(boundary_curve(L, S))


def decomposition_prefixes(B: BoundaryCurve, D: BoundaryDecomposition) -> list:
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
