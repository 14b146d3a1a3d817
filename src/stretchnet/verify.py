"""Certification that an unfolding is a net.

The certificate stacks three checks on the boundary polyline: every
segment has |dx| > EPS and tilt below pi/10; each switch between
rightward and leftward segments, except at the leftmost corner, turns
the required way; and no two segments collide.  Alternation needs no
test of its own: on a closed curve with no vertical segment both
directions occur, and maximal runs of two directions alternate.
A contact-free closed polyline is a simple polygon, with winding number
sign(area) inside and 0 outside; as the preimage count of an isometric
immersion of a disc equals the winding number, positive shoelace area
then makes the unfolding injective.  The first two checks are the
structural facts the stretching is meant to buy, so their failure, like
a clockwise boundary, is a precondition problem rather than overlap.

The collision check measures only segment pairs that can touch.  Its
broad phase drops a pair of consecutive segments when each free end is
clear of the other segment.  Of the other pairs it keeps those whose
bounding boxes come within the tolerance, found by sorting the boxes by
x, and then drops every pair with one segment wholly on one side of the
other's line and clear of it, testing both ways.  Both tests use the
contact kernel's own orientation arithmetic.  On a simple boundary no
pair is left, so the kernel is not called.  The check takes the pairs in
blocks of bounded size, so its memory does not grow with their number.
It and the arm oracles decide contacts with ``geometry``'s array
kernels.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateSegment, LengthMismatch, VerticalSegment
from .geometry import (
    EPS,
    TILT_BOUND,
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


def decompose_boundary(B: BoundaryCurve) -> tuple:
    """The boundary's largest tilt and its wrong-way direction switches.

    One pass over the segments.  A segment with |dx| at most EPS raises
    VerticalSegment, the signature of insufficient stretching; the first
    such segment is named.  Otherwise each segment is rightward ("R",
    dx > 0) or leftward ("L"), and its tilt is its angle to the x-axis.
    Returns ``(max_tilt, wrong_turns)``: ``wrong_turns`` lists, as
    ``(corner, direction before, signed turn angle)``, every switch that
    turns the wrong way, in ascending corner order with a switch at
    corner 0 last.  A switch R->L must turn counterclockwise (angle > 0)
    and L->R clockwise.  The switch at the leftmost corner is exempt: at
    a global extreme the curve is locally convex, so it always turns
    counterclockwise.

    Once no segment is vertical the maximal runs of one direction
    alternate, so there is nothing more to check.  A computed dx is the
    correctly rounded difference of two coordinates and has its exact
    sign, so dx > 0 on every segment would make x strictly increase
    around a closed curve.  Hence both directions occur, and two
    neighbouring maximal runs differ in direction by construction.

    Angles are ``geometry.arg``'s, taken inline: its guard against the
    zero vector cannot fire once |dx| > EPS.
    """
    pts = B.points
    n = len(pts)
    leftmost = min(range(n), key=pts.__getitem__)
    max_tilt, wrong_turns, was_right, was_angle = 0.0, [], None, None
    # segment 0 comes again last, to close the switch at corner 0
    for i, (ax, ay), (bx, by) in zip((*range(n), 0), (*pts, pts[0]), (*pts[1:], *pts[:2])):
        dx = bx - ax
        if abs(dx) <= EPS:
            raise VerticalSegment(f"segment {i} has |dx| = {abs(dx):.3e}")
        angle = math.atan2(by - ay, dx)
        if angle <= -math.pi:
            angle = math.pi
        tilt = abs(angle)
        if math.pi - tilt < tilt:
            tilt = math.pi - tilt
        if tilt > max_tilt:
            max_tilt = tilt
        right = dx > 0
        if right != was_right and was_right is not None and i != leftmost:
            turn = normalize_angle(angle - was_angle)
            if (turn > 0.0) != was_right:
                wrong_turns.append((i, "R" if was_right else "L", turn))
        was_right, was_angle = right, angle
    return max_tilt, wrong_turns


#: Largest number of segment pairs the contact check holds at once, in
#: the broad phase and in each call of the contact kernel, which bounds
#: its memory on long boundaries.
_PAIR_BLOCK = 1 << 13

#: The broad phase's rounding allowance per unit of the largest
#: coordinate magnitude: 64 ulps.
_ROUNDING = 64.0 * float(np.finfo(float).eps)


def _near_line(segments: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Which pairs (p, q) the line test keeps: False where both ends of
    segment q lie strictly on one side of segment p's line, each with an
    orientation beyond p's reach.

    ``segments`` holds a row (ax, ay, bx, by, dx, dy, reach) per segment:
    its ends, its direction ``B - A`` and its reach.  The orientation of
    an end c is ``dx*(cy - ay) - dy*(cx - ax)``, the contact kernel's own
    float expression.
    """
    ax, ay, _, _, dx, dy, reach = segments.take(p, axis=0).T
    ends = segments.take(q, axis=0)
    cx, cy = ends[:, 0:4:2].T, ends[:, 1:4:2].T  # q's start and end, each (2, k)
    o = dx * (cy - ay) - dy * (cx - ax)
    # both orientations signed by the first: the nearer end's, if both ends lie on one side
    return ~((o * np.sign(o[0])).min(axis=0) > reach)


def _free_ends_near(segments: np.ndarray, boxes: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Which consecutive pairs (p, q), segment p ending where q starts,
    the free-end test keeps: False where each free end, p's start and
    q's end, is clear of the other segment.

    ``segments`` is as in _near_line, and ``boxes`` holds a row (xlo,
    ylo, xhi, yhi) per segment: its bounding box grown by the margin.  A
    free end is clear of a segment when the magnitude of its orientation
    exceeds the segment's reach, or when it lies outside its grown box.
    """
    k = len(p)
    other = np.concatenate((q, p))
    rows, box = segments.take(other, axis=0), boxes.take(other, axis=0)
    ends = np.concatenate((rows[k:, 0:2], rows[:k, 2:4]))  # p's start against q, q's end against p
    ax, ay, _, _, dx, dy, reach = rows.T
    cx, cy = ends.T
    outside = ((ends < box[:, :2]) | (ends > box[:, 2:])).any(axis=1)
    clear = (np.abs(dx * (cy - ay) - dy * (cx - ax)) > reach) | outside
    return ~(clear[:k] & clear[k:])


def _consecutive(step: np.ndarray, m: int, closed: bool) -> np.ndarray:
    """Which pairs of the ``m`` segments of a polyline, ``step`` apart in
    index, are consecutive."""
    return (step == 1) | (step == m - 1) if closed else step == 1


@lru_cache(maxsize=32)
def _all_pairs(m: int, closed: bool) -> tuple:
    """Every non-consecutive index pair (p, q), p < q, of the ``m``
    segments of a polyline, read-only."""
    p, q = np.triu_indices(m, 1)
    keep = ~_consecutive(q - p, m, closed)
    pairs = p[keep], q[keep]
    for a in pairs:
        a.flags.writeable = False
    return pairs


def _x_overlaps(xlo: np.ndarray, xhi: np.ndarray):
    """Blocks of index pairs (p, q) of intervals [xlo, xhi] that overlap,
    each pair once, at most _PAIR_BLOCK pairs to a block.

    The intervals are sorted by left end and each is paired with the
    later ones that start before it ends (argsort plus searchsorted).
    These pairs are numbered in that order and taken _PAIR_BLOCK at a
    time, so their memory does not grow with their number; a block is
    spelled out by repeating each interval it spans once per pair it has
    there.
    """
    m = len(xlo)
    order = np.argsort(xlo)
    rank = np.arange(1, m + 1)
    counts = np.maximum(np.searchsorted(xlo[order], xhi[order], side="right") - rank, 0)
    ends = np.cumsum(counts)  # pair g belongs to the first interval f with ends[f] > g
    starts = ends - counts
    partner = rank - starts  # the sorted position of f's partner in pair g, less g
    total = int(ends[-1])
    for g0 in range(0, total, _PAIR_BLOCK):
        g1 = min(g0 + _PAIR_BLOCK, total)
        f0, f1 = np.searchsorted(ends, (g0, g1 - 1), side="right") + (0, 1)
        # how many of the block's pairs each interval f0 <= f < f1 has
        share = np.minimum(ends[f0:f1], g1) - np.maximum(starts[f0:f1], g0)
        yield np.repeat(order[f0:f1], share), order[np.repeat(partner[f0:f1], share) + np.arange(g0, g1)]


def _gathered(blocks: Iterable):
    """The pairs of ``blocks`` (p, q), each of at most _PAIR_BLOCK pairs,
    gathered in order into blocks of at most _PAIR_BLOCK pairs, none of
    them empty."""
    held, count = [], 0
    for p, q in blocks:
        if not len(p):
            continue
        if held and count + len(p) > _PAIR_BLOCK:
            yield _joined(held)
            held, count = [], 0
        held.append((p, q))
        count += len(p)
    if held:
        yield _joined(held)


def _joined(held: list) -> tuple:
    """The held blocks of pairs (p, q) as one block."""
    return held[0] if len(held) == 1 else tuple(map(np.concatenate, zip(*held)))


def _candidate_pairs(A: np.ndarray, B: np.ndarray, lengths: np.ndarray, margin: float, closed: bool):
    """Blocks of index pairs (I, J), i < j, of segments ``A->B`` (of
    ``lengths``) that may come within ``margin`` of each other, each pair
    once and at most _PAIR_BLOCK to a block.  Segment i ends where i + 1
    starts, and the last where the first starts if ``closed``.  No block
    is empty, so a polyline with no pair left yields none.

    Broad phase of the contact check.  The consecutive pairs are decided
    in one pass by _free_ends_near, which drops a pair when each free end
    is clear of the other segment.  Every other pair goes through two
    filters (_separated_pairs).  The first keeps the pairs whose bounding
    boxes, each grown by ``margin``, overlap; nearly horizontal
    boundaries have short x-extents, so few pairs get this far.  The
    second, _near_line, drops a pair (p, q) when both ends of q lie
    strictly on one side of p's line with orientations beyond
    2 * margin * |p|, that is, farther than 2 * margin from it, or the
    same with p and q swapped.  On a simple boundary no pair is left.

    The line test loses no contact the kernel would report:

    - It evaluates each orientation with the kernel's own float
      expression, and the kernel measures q's ends against p's line too.
      For a dropped pair it reads both with one strict sign, so it cannot
      report a proper crossing.
    - Nor can it report a distance within EPS.  Let s be the largest
      coordinate magnitude, u = 2**-53 and d = b - a exactly.  Three
      roundings in each product and one in their difference put the
      computed orientation of an end c within
      4u (|dx (cy - ay)| + |dy (cx - ax)|) <= 4u |d| |c - a| < 12us |d|
      of the exact one (Cauchy-Schwarz, and |c - a| <= 2 sqrt(2) s), and
      the computed reach is within 4u of 2 margin |d|.  So each end of
      a dropped q lies farther than 2 margin (1 - 4u) - 12us > margin
      from p's line, both on one side, and all of q lies more than margin
      from p.  That is the box test's own premise: ``margin`` is EPS plus
      an allowance of 64 ulps of s (at least 128us) for the rounding of
      the kernel's endpoint distances, so they read above EPS.
    - The kernel's four rows, p1|q, q1|p, p2|q and q2|p, are symmetric
      in p and q, so the proof holds with their roles swapped.

    Nor does the free-end test.  Consecutive segments share an exact
    endpoint, which the kernel's expression gives the orientation
    dx*dy - dy*dx = 0 exactly, so the line test never drops them.  The
    kernel measures them with ``exclude_shared`` set: it reports a contact
    only if more than one endpoint is shared or a free end lies within
    EPS of the other segment.

    - A clear free end lies more than ``margin`` from the other segment:
      by the bound above when its orientation exceeds the reach, and by
      the box test's premise when it lies outside the grown box.  So the
      kernel reads its distance above EPS, by the same allowance.
    - More than one shared endpoint needs a free end within EPS of an
      endpoint of the other segment, which a clear one is not, or a
      segment no longer than EPS, which require_segment_lengths rejects
      before any pair is measured.
    - A closed polyline of two segments shares both ends: each free end
      is an endpoint of the other segment, with orientation 0 and inside
      its box, so that pair is always measured.
    """
    m = len(A)
    boxes = np.concatenate((np.minimum(A, B) - margin, np.maximum(A, B) + margin), axis=1)
    segments = np.concatenate((A, B, B - A, 2.0 * margin * lengths[:, None]), axis=1)
    p = np.arange(m if closed and m > 2 else m - 1)  # two segments closed make one pair
    q = (p + 1) % m
    keep = _free_ends_near(segments, boxes, p, q)
    p, q = p[keep], q[keep]
    kept = [(p[g : g + _PAIR_BLOCK], q[g : g + _PAIR_BLOCK]) for g in range(0, len(p), _PAIR_BLOCK)]
    for p, q in _gathered(chain(kept, _separated_pairs(segments, boxes, closed))):
        yield np.minimum(p, q), np.maximum(p, q)


def _separated_pairs(segments: np.ndarray, boxes: np.ndarray, closed: bool):
    """Blocks of the non-consecutive pairs (p, q) whose ``boxes`` (as in
    _free_ends_near) overlap and that the line test keeps both ways, at
    most _PAIR_BLOCK pairs to a block.

    When every pair fits in one block, the box test takes every pair but
    the consecutive ones, without sorting, and the line test runs both
    ways at once.  Otherwise _x_overlaps finds the pairs by x, a block at
    a time, and each block is filtered by y and by the line test one way.
    The other way, and the consecutive pairs among the overlaps, are
    tested on those blocks gathered, where few pairs are left: both ways
    over every box pair would double the line test's work on a long
    boundary.
    """
    m = len(segments)
    if m * (m - 1) // 2 <= _PAIR_BLOCK:
        p, q = _all_pairs(m, closed)
        bp, bq = boxes.take(p, axis=0), boxes.take(q, axis=0)
        keep = ((bq[:, :2] <= bp[:, 2:]) & (bp[:, :2] <= bq[:, 2:])).all(axis=1)
        p, q = p[keep], q[keep]
        k = len(p)
        keep = _near_line(segments, np.concatenate((p, q)), np.concatenate((q, p)))
        keep = keep[:k] & keep[k:]
        yield p[keep], q[keep]
        return

    def one_way():
        xlo, ylo, xhi, yhi = boxes.T
        for p, q in _x_overlaps(xlo, xhi):
            keep = (ylo[q] <= yhi[p]) & (ylo[p] <= yhi[q])
            p, q = p[keep], q[keep]
            keep = _near_line(segments, p, q)
            yield p[keep], q[keep]

    for p, q in _gathered(one_way()):
        keep = _near_line(segments, q, p) & ~_consecutive(np.abs(p - q), m, closed)
        yield p[keep], q[keep]


def polyline_self_intersections(points: Sequence, closed: bool) -> list:
    """Witnesses for all illegal contacts of a polyline with itself.

    Non-consecutive segments may not come within EPS of each other;
    consecutive ones may meet only at their shared endpoint.  Witnesses
    are ordered by discovery along the traversal (the first one is where
    a pen tracing the curve first touches ink), matching how a first
    self-contact would be located while drawing the boundary; so their
    order does not depend on how the pairs were split into blocks.

    Only the pairs that the broad phase (_candidate_pairs) finds within
    the contact tolerance are measured, each once.  Its margin is EPS plus
    a rounding allowance relative to the largest coordinate magnitude, so
    every pair whose computed endpoint-to-segment distances can reach EPS
    is among them; a consecutive pair is among them unless each free end
    is clear of the other segment, and the contact kernel forgives the
    shared endpoint.  Grown boxes can overlap where the segments' own
    boxes are disjoint; the contact kernel's bounding-box guard keeps
    such a pair from being read as crossing.  With two or more segments,
    the lowest-numbered segment no longer than EPS raises
    DegenerateSegment.  The pairs are measured one broad-phase block at
    a time, and a polyline with no pair left makes no kernel call.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    m = len(pts) if closed else len(pts) - 1
    margin = EPS + _ROUNDING * float(np.abs(pts).max())
    if m < 2:
        return []
    A, B = pts[:m], np.concatenate((pts[1:], pts[:1]))[:m]
    # a walk over all pairs meets the lowest-numbered short segment first
    lengths = require_segment_lengths(A, B, np.arange(m))
    raw = []
    for I, J in _candidate_pairs(A, B, lengths, margin, closed):
        _, proper, hit = segment_pair_contacts(A, B, I, J, _consecutive(J - I, m, closed))
        if not hit.any():
            continue
        for i, j, crossing in zip(I[hit].tolist(), J[hit].tolist(), proper[hit].tolist()):
            point, t = crossing_point(A[i].tolist(), B[i].tolist(), A[j].tolist(), B[j].tolist(), crossing)
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
    witnesses = polyline_self_intersections(B.array, closed=True)
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
    for j in range(1, len(u)):
        du = (u[j][0] - u[j - 1][0], u[j][1] - u[j - 1][1])
        dv = (v[j][0] - v[j - 1][0], v[j][1] - v[j - 1][1])
        lu, lv = math.hypot(*du), math.hypot(*dv)
        if abs(lu - lv) > EPS:
            return False
        au, av = arg(du), arg(dv)
        if not (abs(au) < TILT_BOUND and abs(av) < TILT_BOUND):
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
    if not (math.pi / 2 - TILT_BOUND < a < math.pi / 2 + TILT_BOUND):
        return False
    # every u-segment against every v-segment in row-major order: only the
    # shared start may touch, and a zero-length segment raises only in a
    # pair up to the first contact
    A = np.array([*u[:m], *v[:m]], dtype=float).reshape(-1, 2)
    B = np.array([*u[1:], *v[1:]], dtype=float).reshape(-1, 2)
    I, J = np.repeat(np.arange(m), m), m + np.tile(np.arange(m), m)
    hits = np.flatnonzero(segment_pair_contacts(A, B, I, J, (I == 0) & (J == m))[2])
    first = hits[0] + 1 if len(hits) else len(I)
    require_segment_lengths(A, B, np.column_stack((I[:first], J[:first])).ravel())
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
    A segment no longer than EPS (which also fails the decomposition)
    leaves the contact check undecided: the verdict is a precondition
    failure with a witness naming that segment, and without
    ``self_intersection`` or winding flags.  Otherwise ``winding_in_0_1``
    and ``ccw_orientation`` are both ``signed area > 0``, a clockwise
    boundary gets one witness naming its area, and all checks must pass
    for a net.  A corner with a non-finite
    coordinate is a precondition failure before any check: every
    comparison with NaN is false, so no check could fail on it.
    ``interior_probes`` is accepted and ignored, because the benchmark
    harness still passes face centroids to it.
    """
    finite = np.isfinite(B.array)
    if not finite.all():
        bad = int(finite.all(axis=1).argmin())
        note = f"corner {bad} has a non-finite coordinate {tuple(B.points[bad])!r}"
        return Verdict(Status.PRECONDITION_FAILURE, (Witness(note=note),), {"finite_coordinates": False})
    checks: dict = {}
    witnesses: list = []

    try:
        max_tilt, wrong_turns = decompose_boundary(B)
    except VerticalSegment as exc:
        checks["boundary_decomposition"] = False
        witnesses.append(Witness(note=str(exc)))
    else:
        checks["boundary_decomposition"] = True
        checks["segment_tilt"] = max_tilt < TILT_BOUND
        if not checks["segment_tilt"]:
            witnesses.append(Witness(note=f"segment tilt {max_tilt!r} exceeds pi/10"))
        checks["turn_directions"] = not wrong_turns
        for corner, before, angle in wrong_turns:
            switch = "R->L turns cw" if before == "R" else "L->R turns ccw"
            witnesses.append(Witness(note=f"corner {corner}: {switch} by {angle!r}"))

    try:
        self_int = check_self_intersection(B)
    except DegenerateSegment as exc:
        witnesses.append(Witness(note=str(exc)))
        return Verdict(Status.PRECONDITION_FAILURE, tuple(witnesses), checks)
    checks.update(self_int.checks)
    witnesses.extend(self_int.witnesses)
    if not self_int.ok:
        return Verdict(Status.OVERLAP, tuple(witnesses), checks)

    area = _signed_area(B.array)
    checks["winding_in_0_1"] = checks["ccw_orientation"] = area > 0.0
    if area <= 0.0:
        witnesses.append(Witness(note=f"boundary runs clockwise (signed area {area!r})"))
    status = Status.NET if all(checks.values()) else Status.PRECONDITION_FAILURE
    return Verdict(status, tuple(witnesses), checks)


def face_centroids(L: PlanarLayout) -> list:
    """Corner mean of each face of the layout, as (x, y) tuples."""
    return [(sum(x for x, _ in pts) / len(pts), sum(y for _, y in pts) / len(pts)) for pts in L.face_points]


def certify_net(L: PlanarLayout) -> Verdict:
    """Certify a developed layout: net, overlap (with witnesses), or
    precondition failure, from its boundary curve alone."""
    return certify_boundary(boundary_curve(L))
