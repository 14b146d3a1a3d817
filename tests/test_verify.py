import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from stretchnet import shapes
from stretchnet.errors import DegenerateSegment, LengthMismatch, VerticalSegment
from stretchnet.geometry import EPS, segment_pair_contacts
from stretchnet.pipeline import stretch_and_unfold
from stretchnet.transform import (
    apply_linear,
    apply_stretch,
    choose_rotation,
    default_theta_max,
    plan_stretch,
    required_lambda,
    rotate,
)
from stretchnet.tree import build_increasing_tree, enumerate_spanning_trees, sample_increasing_trees
from stretchnet.unfold import BoundaryCurve, boundary_curve, cut, develop
from stretchnet.verdict import Status
from stretchnet import verify
from stretchnet.verify import (
    _candidate_pairs,
    certify_boundary,
    certify_net,
    check_arm_conclusion,
    check_arm_hypotheses,
    check_self_intersection,
    decompose_boundary,
    face_centroids,
    polyline_self_intersections,
    winding_injectivity_check,
)

import certificate_reference as reference
from conftest import winding_angle_sum


def synthetic_boundary(points):
    n = len(points)
    return BoundaryCurve(
        points=[(float(x), float(y)) for x, y in points],
        duals=list(range(n)),
    )


# counterclockwise "flat hexagon": rightward along the bottom, leftward
# along the top, starting at its leftmost corner, no vertical segments
FLAT_HEXAGON = [(0, 0), (2, -0.1), (4, 0.05), (4.2, 1.0), (2, 1.1), (0.4, 0.9)]


def test_decompose_two_runs():
    D = reference.decompose_boundary(synthetic_boundary(FLAT_HEXAGON))
    assert [r.direction for r in D.runs] == ["R", "L"]
    assert D.alternating
    assert D.runs[0].segments == (0, 1, 2)
    assert D.runs[1].segments == (3, 4, 5)


def test_decompose_vertical_segment():
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    with pytest.raises(VerticalSegment):
        decompose_boundary(synthetic_boundary(square))


def test_decompose_eight_runs_zigzag():
    # closed zigzag whose open prefix has the run structure R1 L1 R2 L2
    # R3 L3 R4 (a final leftward run closes the curve); run counts are
    # derived from this constructed instance
    pts = [
        (0.0, 0.0), (4.0, 0.2),            # R1
        (2.5, 0.5),                        # L1
        (5.0, 0.9),                        # R2
        (1.5, 1.3),                        # L2
        (4.5, 1.7),                        # R3
        (2.0, 2.1),                        # L3
        (6.0, 2.6), (8.0, 2.5),            # R4 (two segments, then home)
    ]
    D = reference.decompose_boundary(synthetic_boundary(pts))
    assert [r.direction for r in D.runs[:7]] == ["R", "L", "R", "L", "R", "L", "R"]
    assert len(D.runs) == 8 and D.runs[7].direction == "L"
    assert D.alternating
    assert sum(len(r.segments) for r in D.runs) == len(pts)


def structure_outcome(decompose, B):
    """``repr`` of a structural pass's result, or its exception's text."""
    try:
        return repr(decompose(B))
    except VerticalSegment as exc:
        return f"VerticalSegment: {exc}"


# corners anywhere within 1e8, at either zero, or at a small integer
# (ints stay ints, so dx and dy are ints); a few steps in x within EPS
structural_coordinate = st.floats(-1e8, 1e8) | st.sampled_from([0.0, -0.0]) | st.integers(-3, 3)


@st.composite
def structural_polyline(draw):
    """Closed polylines for the structural loop: integer or float corners,
    x-steps of 0 or near EPS, y-values of -0.0 (atan2 gives -pi for a
    leftward segment from y = 0.0 to y = -0.0) and corners that tie for
    the leftmost."""
    pts = draw(st.lists(st.tuples(structural_coordinate, structural_coordinate), min_size=2, max_size=10))
    for k in draw(st.lists(st.integers(1, len(pts) - 1), max_size=3)):
        step = draw(st.sampled_from([0.0, EPS / 2, EPS, 2 * EPS, -2 * EPS]))
        pts[k] = (pts[k - 1][0] + step, draw(structural_coordinate))
    for k in draw(st.lists(st.integers(0, len(pts) - 1), max_size=2)):
        pts[k] = min(pts) if draw(st.booleans()) else (min(pts)[0], draw(structural_coordinate))
    return pts


@given(structural_polyline())
@example([(-5.0, 3.0), (2.0, 0.0), (1.0, -0.0), (2.0, -4.0)])  # corner 2 turns from -pi, read as pi
@example([(0, 0), (3, 1), (1, 2), (0, 5), (2, -1)])
@example([(0, 1), (2, 2), (0, 0), (2, -1)])  # corner 2 is the leftmost, not corner 0
@example([(0.0, 1.0), (2.0, 1.5), (0.0, 1.0), (1.0, -1.0), (0.0, 1.0), (3.0, 0.0)])
@example([(0.0, 0.0), (2.0, -0.1), (4.0, 0.05), (4.0 + EPS, 1.0), (2.0, 1.1)])
def test_decompose_boundary_matches_the_one_pass_reference(points):
    # the inline angles are geometry.arg's, including its -pi -> pi map
    B = BoundaryCurve(points=list(points), duals=list(range(len(points))))
    assert structure_outcome(decompose_boundary, B) == structure_outcome(reference.one_pass_decomposition, B)


def test_turn_directions_two_run_convex_pass():
    assert decompose_boundary(synthetic_boundary(FLAT_HEXAGON))[1] == []


def test_turn_directions_bad_switch_fails():
    # leftward run placed *below* the rightward one: the R->L switch at
    # corner 1 turns clockwise, violating the zigzag rule; the L->R switch
    # at the leftmost corner 3 is exempt
    pts = [(0.0, 0.0), (3.0, 0.1), (2.0, -1.0), (-0.5, -1.1)]
    [(corner, before, angle)] = decompose_boundary(synthetic_boundary(pts))[1]
    assert (corner, before) == (1, "R") and angle < 0.0
    verdict = certify_boundary(synthetic_boundary(pts))
    assert verdict.checks["turn_directions"] is False
    assert f"corner 1: R->L turns cw by {angle!r}" in [w.note for w in verdict.witnesses]


def test_self_intersection_convex_pass():
    verdict = check_self_intersection(synthetic_boundary(FLAT_HEXAGON))
    assert verdict.ok
    assert verdict.witnesses == ()


def test_self_intersection_bowtie():
    bowtie = [(0, 0), (2, 2), (2, 0), (0, 2)]
    verdict = check_self_intersection(synthetic_boundary(bowtie))
    assert verdict.status is Status.OVERLAP
    assert len(verdict.witnesses) == 1
    w = verdict.witnesses[0]
    assert w.point == pytest.approx((1.0, 1.0))


def test_polyline_open_vs_closed():
    # simple open arc whose closing chord crosses its middle segment
    pts = [(0, 0), (1, 2), (2, -0.5), (3, 2)]
    assert polyline_self_intersections(pts, closed=False) == []
    assert polyline_self_intersections(pts, closed=True)


def test_polyline_disjoint_collinear_segments():
    # four corners on one line, in order: rounding makes each pair's
    # orientation signs noise, which once read as a proper crossing of
    # segments 0 and 2, more than 2 apart
    d = (0.8210951084789369, 1e-09)
    pts = [(s * d[0], s * d[1]) for s in (17 / 97, 90 / 97, 369 / 97, 503 / 97)]
    assert polyline_self_intersections(pts, closed=False) == []
    # the contact kernel itself measures the true distance, not 0.0
    dist, proper, _ = segment_pair_contacts(np.array(pts[0::2]), np.array(pts[1::2]), [0], [1])
    assert dist[0] == pytest.approx(2.3617, abs=1e-4)
    assert not proper[0]


@st.composite
def closed_polyline(draw):
    """Corners with coordinates up to 1e8, some a near-zero step (or no
    step) from their predecessor."""
    coordinate = st.floats(-1e8, 1e8, allow_nan=False)
    pts = draw(st.lists(st.tuples(coordinate, coordinate), min_size=2, max_size=12))
    for k in draw(st.lists(st.integers(1, len(pts) - 1), max_size=3)):
        step = draw(st.sampled_from([0.0, 1e-300, 1e-12, EPS]))
        pts[k] = (pts[k - 1][0] + step, pts[k - 1][1] - step)
    return pts


def candidate_pairs(points, closed, block):
    """The segment ends of the polyline ``points`` and the broad phase's
    blocks of pairs for it, with ``_PAIR_BLOCK`` set to ``block``."""
    pts = np.array(points, dtype=float)
    m = len(pts) if closed else len(pts) - 1
    A, B = pts[:m], np.roll(pts, -1, axis=0)[:m]
    lengths = np.hypot(*(B - A).T)
    assume(m >= 2 and lengths.min() > EPS)  # shorter segments raise before the broad phase
    margin = EPS + verify._ROUNDING * np.abs(pts).max()
    with mock.patch.object(verify, "_PAIR_BLOCK", block):
        return A, B, list(_candidate_pairs(A, B, lengths, margin, closed))


@st.composite
def consecutive_fold_back(draw):
    """A polyline at a scale from 1 to 1e8 with a corner placed EPS/2 to
    three broad-phase margins from the segment before the previous one,
    on either side: a fold-back along it, or a straight continuation past
    its end.  That segment is horizontal, vertical or slanted, and the
    polyline may run backwards or start anywhere, so the fold-back can be
    either free end of the pair and, closed, the pair of the last and
    first segments."""
    scale = 10.0 ** draw(st.floats(0.0, 8.0))
    unit = st.floats(-1.0, 1.0) | st.sampled_from([0.0, 1.0, -1.0])
    pts = [(scale * draw(unit), scale * draw(unit)) for _ in range(draw(st.integers(2, 5)))]
    k = draw(st.integers(1, len(pts) - 1))
    (ax, ay), (bx, by) = pts[k - 1], pts[k]
    bx, by = draw(st.sampled_from([(bx, by), (bx, ay), (ax, by)]))
    pts[k] = bx, by
    length = math.hypot(bx - ax, by - ay)
    assume(length > scale * 1e-3)
    margin = EPS + 64.0 * np.finfo(float).eps * max(abs(c) for pt in pts for c in pt)
    t = draw(st.floats(0.0, 1.5) | st.sampled_from([0.0, 0.5, 1.0]))
    gap = draw(st.floats(EPS / 2, 3 * margin)) * draw(st.sampled_from([1.0, -1.0]))
    pts.insert(k + 1, (ax + t * (bx - ax) - gap * (by - ay) / length, ay + t * (by - ay) + gap * (bx - ax) / length))
    if draw(st.booleans()):
        pts.reverse()
    turn = draw(st.integers(0, len(pts) - 1))
    return pts[turn:] + pts[:turn]


def assert_candidate_pairs_leave_out_only_contact_free_pairs(points, closed, block):
    A, B, blocks = candidate_pairs(points, closed, block)
    m = len(A)
    assert all(1 <= len(I) <= block for I, _ in blocks)
    pairs = [(i, j) for I, J in blocks for i, j in zip(I.tolist(), J.tolist())]
    assert len(set(pairs)) == len(pairs) and all(i < j for i, j in pairs)
    out = sorted(set(zip(*np.triu_indices(m, 1))) - set(pairs))
    if out:
        I, J = np.array(out).T
        step = J - I
        consecutive = (step == 1) | (step == m - 1) if closed else step == 1
        assert not segment_pair_contacts(A, B, I, J, consecutive)[2].any()


@pytest.mark.parametrize("block", [2, verify._PAIR_BLOCK], ids=["block-2", "default-block"])
@given(points=closed_polyline() | consecutive_fold_back(), closed=st.booleans())
@example(points=[(1e8, -1e8), (1e8 + 1e-8, -1e8), (-1e8, 1e8)], closed=True)
@example(points=[(0.0, 0.0), (1.0, 0.0), (0.5, EPS / 2)], closed=False)  # fold-back over a flat box
@example(points=[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)], closed=False)  # straight continuations
@example(points=[(0.0, 0.0), (1.0, 0.5), (0.0, 1.0)], closed=True)
def test_candidate_pairs_leave_out_only_contact_free_pairs(block, points, closed):
    # each pair at most once, in non-empty blocks no larger than the
    # block size, and every pair the broad phase leaves out, consecutive
    # or not, is one the contact kernel finds contact-free.  Blocks of two
    # make the pairs of one box span blocks.
    assert_candidate_pairs_leave_out_only_contact_free_pairs(points, closed, block)


def test_polyline_disjoint_segments_with_overlapping_grown_boxes():
    # segment 0 ends 4.4e-9 (more than EPS) left of where segment 3
    # starts; the broad phase grows their boxes by about 1.3e-8 at this
    # coordinate magnitude, so the pair is measured, and the rounded
    # orientation signs once read as a crossing
    pts = [
        (101649.33424810511, -32.061869248571476),
        (331884.43551502423, -104.68180097615365),
        (331884.43551502423, 892853.7297561278),
        (331884.4355150286, -104.68180097615503),
        (385528.68624678906, -121.60207857188706),
    ]
    assert polyline_self_intersections(pts, closed=False) == []


def overlap_census_boundaries():
    """The boundary of every spanning tree of the cube and the octahedron
    at lambda 1 and at the default bound, most of them with contacts."""
    out = []
    for P in (shapes.cube(), shapes.octahedron()):
        R = choose_rotation(P)
        for lam in (1.0, required_lambda(rotate(P, R), default_theta_max(P))):
            Q = apply_linear(P, R, lam)
            out += [boundary_curve(develop(cut(Q, T))).points for T in enumerate_spanning_trees(Q)]
    return out


@pytest.fixture(scope="module")
def hull_boundaries():
    """The 1,000-point hull at pi/40, and unstretched, where it has contacts."""
    P = shapes.random_hull(1000, 0)
    S = plan_stretch(P, theta_max=math.pi / 40)
    out = {}
    for name, lam in (("pi-40", S.lam), ("lambda-1", 1.0)):
        Q = apply_linear(P, S.rotation, lam)
        out[name] = boundary_curve(develop(cut(Q, build_increasing_tree(Q)))).points
    return out


def witnesses_by_block(points, blocks):
    out = []
    for block in blocks:
        with mock.patch.object(verify, "_PAIR_BLOCK", block):
            out.append(polyline_self_intersections(points, closed=True))
    return out


def test_census_witnesses_do_not_depend_on_the_pair_block():
    found = 0
    for points in overlap_census_boundaries()[::3]:
        first, *rest = witnesses_by_block(points, (1, 5, verify._PAIR_BLOCK))
        assert all(w == first for w in rest)
        found += len(first)
    assert found > 300


@pytest.mark.parametrize("name", ["pi-40", "lambda-1"])
def test_hull_witnesses_do_not_depend_on_the_pair_block(hull_boundaries, name):
    # block 1 would take seconds here; 997 splits the pairs of one box
    first, *rest = witnesses_by_block(hull_boundaries[name], (5, 997, verify._PAIR_BLOCK))
    assert all(w == first for w in rest)
    assert (len(first) > 0) == (name == "lambda-1")


def test_contact_check_memory_is_bounded(hull_boundaries):
    # all 187,679 x-overlapping box pairs at once held 9.5 MB
    B = synthetic_boundary(hull_boundaries["pi-40"])
    tracemalloc.start()
    try:
        check_self_intersection(B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def contacts(points, closed):
    """The contact check's witnesses, or the text of the DegenerateSegment
    it raised."""
    try:
        return polyline_self_intersections(points, closed=closed)
    except DegenerateSegment as exc:
        return str(exc)


def keep_every_pair(*args):
    return np.ones(len(args[-1]), dtype=bool)


def assert_line_test_drops_no_contact(points):
    # with the line test (both ways) and the free-end test keeping every
    # pair, the kernel measures every pair whose grown boxes overlap
    for closed in (True, False):
        filtered = contacts(points, closed)
        with mock.patch.object(verify, "_near_line", keep_every_pair), mock.patch.object(
            verify, "_free_ends_near", keep_every_pair
        ):
            assert contacts(points, closed) == filtered


@st.composite
def near_touching_polyline(draw):
    """A closed polyline at a scale from 1 to 1e8 whose last two corners
    each lie EPS/2 to three broad-phase margins from segment 0's line, on
    either side, near or past its ends: the segment between them runs
    alongside segment 0."""
    scale = 10.0 ** draw(st.floats(0.0, 8.0))
    unit = st.floats(-1.0, 1.0)
    pts = [(scale * draw(unit), scale * draw(unit)) for _ in range(draw(st.integers(2, 5)))]
    (ax, ay), (bx, by) = pts[0], pts[1]
    length = math.hypot(bx - ax, by - ay)
    assume(length > scale * 1e-3)
    margin = EPS + 64.0 * np.finfo(float).eps * max(abs(c) for pt in pts for c in pt)
    for _ in range(2):
        t = draw(st.floats(-0.5, 1.5))
        gap = draw(st.floats(EPS / 2, 3 * margin)) * draw(st.sampled_from([1.0, -1.0]))
        pts.append((ax + t * (bx - ax) - gap * (by - ay) / length, ay + t * (by - ay) + gap * (bx - ax) / length))
    return pts


@given(closed_polyline() | near_touching_polyline() | consecutive_fold_back())
@example([(0.0, 0.0), (1.0, 0.0), (0.75, 2 * EPS), (0.25, 2 * EPS)])
@example([(0.0, 0.0), (1.0, 0.0), (0.75, EPS / 2), (0.25, -EPS / 2)])
def test_line_test_drops_no_contact(points):
    # the broad phase's line and free-end tests only save the contact
    # kernel work: keeping every pair they would drop finds the same
    # witnesses
    assert_line_test_drops_no_contact(points)


def test_line_test_drops_no_contact_on_census_and_hull_boundaries(hull_boundaries):
    for points in [*overlap_census_boundaries(), *hull_boundaries.values()]:
        assert_line_test_drops_no_contact(points)


def kernel_pairs(points):
    """The pairs (i, j) the contact kernel measures on the closed polyline
    ``points``, which must have no contact."""
    with mock.patch.object(verify, "segment_pair_contacts", wraps=segment_pair_contacts) as kernel:
        assert polyline_self_intersections(points, closed=True) == []
    return [(i, j) for call in kernel.call_args_list for i, j in zip(call.args[2].tolist(), call.args[3].tolist())]


def test_line_test_leaves_little_more_than_the_consecutive_pairs(hull_boundaries):
    # without the line test the box filter hands the kernel 70,423 pairs
    # of this 1,998-segment boundary; run one way it leaves 168 besides
    # the consecutive ones, and both ways none
    points = hull_boundaries["pi-40"]
    m = len(points)
    with mock.patch.object(verify, "_free_ends_near", keep_every_pair):
        pairs = kernel_pairs(points)
    assert sorted(pairs) == sorted([(i, i + 1) for i in range(m - 1)] + [(0, m - 1)])


@pytest.fixture(scope="module")
def tree_census_boundaries():
    """Boundaries of increasing trees of the Platonic solids and of small
    random hulls at the default bound, every one a net."""
    meshes = [shapes.tetrahedron(), shapes.cube(), shapes.octahedron(), shapes.dodecahedron(), shapes.icosahedron()]
    meshes += [shapes.random_hull(n, seed) for seed in (0, 1) for n in range(6, 11)]
    out = []
    for P in meshes:
        Q = apply_stretch(P, plan_stretch(P))
        out += [boundary_curve(develop(cut(Q, T))).points for T in sample_increasing_trees(Q, 12, seed=0)]
    return out


def test_no_kernel_call_on_a_net(tree_census_boundaries, hull_boundaries):
    # every pair of a net's boundary is dropped by the broad phase, so the
    # contact check makes no kernel call at all
    for points in [*tree_census_boundaries, hull_boundaries["pi-40"]]:
        assert kernel_pairs(points) == []
        assert certify_boundary(synthetic_boundary(points)).status is Status.NET


@pytest.mark.parametrize(
    "points, closed_witnesses, status, notes",
    [
        (
            [(0.0, 0.0), (0.0, 1.4436907060444355), (0.0, 56505740.4436907)],
            [],
            Status.PRECONDITION_FAILURE,
            ["segment 0 has |dx| = 0.000e+00", "boundary runs clockwise (signed area 0.0)"],
        ),
        (
            [(130.0, 0.0), (2.0, 0.0), (1.999999999, 0.0)],
            [(1, 2, (2.0, 0.0)), (0, 2, (130.0, 0.0))],
            Status.OVERLAP,
            [""] * 2,
        ),
        (
            [(0.0, 1.0), (33554432.0, 0.0), (0.0, 0.0), (-2.8624809115118363e-09, 0.0)],
            [],
            Status.PRECONDITION_FAILURE,
            [
                "segment tilt 1.5707963239324156 exceeds pi/10",
                "corner 1: R->L turns cw by -3.1415926237874707",
                "boundary runs clockwise (signed area -16777216.0)",
            ],
        ),
    ],
    ids=["fold-back-at-5.7e7", "free-end-near-corner", "reference-overlap"],
)
def test_contacts_the_kernel_misses_at_large_coordinates_stay_missed(points, closed_witnesses, status, notes):
    # the float kernel misses a contact on each of these (the exact
    # reference finds one); the broad phase must neither hide more nor
    # mend them, so the contact check and the certificate read as before
    closed = polyline_self_intersections(points, closed=True)
    assert [(w.seg_a, w.seg_b, w.point) for w in closed] == closed_witnesses
    assert polyline_self_intersections(points, closed=False) == []
    verdict = certify_boundary(synthetic_boundary(points))
    assert verdict.status is status
    assert [w.note for w in verdict.witnesses] == notes


def test_winding_injectivity_simple_ccw():
    verdict = winding_injectivity_check(synthetic_boundary(FLAT_HEXAGON))
    assert verdict.ok
    assert verdict.checks["winding_in_0_1"]
    assert verdict.checks["ccw_orientation"]


def test_winding_injectivity_clockwise_flagged():
    cw = list(reversed(FLAT_HEXAGON))
    verdict = winding_injectivity_check(synthetic_boundary(cw))
    assert verdict.status is Status.PRECONDITION_FAILURE
    assert not verdict.checks["ccw_orientation"]


def test_winding_injectivity_double_cover():
    # expected winding of the doubly-traversed square core frozen from
    # the angle-summation oracle
    sq = [(1, 0.01), (0.02, 1), (-1, -0.015), (0.01, -1)]
    twice = sq + [(x + 0.003, y + 0.004) for x, y in sq]
    assert winding_angle_sum(twice, (0.0, 0.0)) == 2
    verdict = winding_injectivity_check(
        synthetic_boundary(twice), extra_points=[(0.0, 0.0)]
    )
    assert verdict.status is Status.OVERLAP
    assert any("winding=2" in w.note for w in verdict.witnesses)


# -- arm-style chain checks -------------------------------------------------


def chain_from_args(origin, lengths, args):
    pts = [origin]
    for L, a in zip(lengths, args):
        x, y = pts[-1]
        pts.append((x + L * math.cos(a), y + L * math.sin(a)))
    return pts


def test_arm_hypotheses_identical_chains():
    u = chain_from_args((0, 0), [1, 1, 1], [0.1, -0.05, 0.2])
    assert check_arm_hypotheses(u, list(u))


def test_arm_hypotheses_rotated_chain():
    lengths = [1.0, 0.7, 1.3]
    u_args = [-0.1, 0.0, 0.05]
    v_args = [a + math.pi / 20 for a in u_args]
    u = chain_from_args((0, 0), lengths, u_args)
    v = chain_from_args((0, 0), lengths, v_args)
    assert check_arm_hypotheses(u, v)


def test_arm_hypotheses_window_violation():
    # pi/9 > pi/10: outside the almost-horizontal window
    u = chain_from_args((0, 0), [1, 1], [0.0, math.pi / 9])
    v = chain_from_args((0, 0), [1, 1], [0.0, math.pi / 9])
    assert not check_arm_hypotheses(u, v)


def test_arm_hypotheses_order_violation():
    u = chain_from_args((0, 0), [1.0], [0.1])
    v = chain_from_args((0, 0), [1.0], [-0.1])
    assert not check_arm_hypotheses(u, v)


def test_arm_hypotheses_length_mismatch():
    with pytest.raises(LengthMismatch):
        check_arm_hypotheses([(0, 0), (1, 0)], [(0, 0), (1, 0), (2, 0)])


def test_arm_conclusion_mirror_pair():
    # one segment each, mirrored: the endpoint difference is exactly vertical
    u = chain_from_args((0, 0), [1.0], [-math.pi / 20])
    v = chain_from_args((0, 0), [1.0], [+math.pi / 20])
    assert check_arm_hypotheses(u, v)
    assert check_arm_conclusion(u, v)


def test_arm_conclusion_coincident_endpoints_rejected():
    u = chain_from_args((0, 0), [1.0, 1.0], [0.05, -0.05])
    with pytest.raises(ValueError):
        check_arm_conclusion(u, list(u))


def random_arm_pair(rng, m_max=8):
    m = int(rng.integers(1, m_max + 1))
    lengths = rng.uniform(0.2, 1.0, m)
    bound = math.pi / 10
    a = rng.uniform(-bound, bound, (2, m))
    u = chain_from_args((0.0, 0.0), lengths, np.minimum(a[0], a[1]))
    v = chain_from_args((0.0, 0.0), lengths, np.maximum(a[0], a[1]))
    return u, v


def test_arm_property_small_batch():
    rng = np.random.default_rng(42)
    for _ in range(500):
        u, v = random_arm_pair(rng)
        assert check_arm_hypotheses(u, v)
        assert check_arm_conclusion(u, v)


# -- full certification ------------------------------------------------------


def test_certify_boundary_net_and_prefixes(icosa):
    run = stretch_and_unfold(icosa)
    assert run.verdict.status is Status.NET
    D = reference.decompose_boundary(run.boundary)
    assert D.runs[0].direction == "R"
    assert D.runs[0].segments[0] == 0
    for prefix in reference.decomposition_prefixes(run.boundary, D):
        assert polyline_self_intersections(prefix, closed=False) == []


def test_certify_overlap_reports_traversal_first_witness():
    from stretchnet.oracle import find_overlap_tetrahedron

    ex = find_overlap_tetrahedron()
    assert ex is not None
    v = ex.verdict
    assert v.status is Status.OVERLAP
    seg_pairs = [(w.seg_a, w.seg_b) for w in v.witnesses if w.seg_a is not None]
    assert seg_pairs == sorted(seg_pairs, key=lambda ab: ab[1])


def test_lemma2_consistency_over_census(tetra):
    # whenever self-intersection passes with ccw orientation, the winding
    # check must also pass; tested over every unfolding of the tetrahedron
    Q = apply_stretch(tetra, plan_stretch(tetra))
    for T in enumerate_spanning_trees(Q):
        L = develop(cut(Q, T))
        B = boundary_curve(L)
        si = check_self_intersection(B)
        wv = winding_injectivity_check(B, extra_points=face_centroids(L))
        area = sum(
            B.points[i][0] * B.points[(i + 1) % len(B)][1]
            - B.points[(i + 1) % len(B)][0] * B.points[i][1]
            for i in range(len(B))
        )
        if si.ok and area > 0:
            assert wv.ok


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_certify_non_finite_corner_is_precondition_failure(value):
    # a NaN fails every comparison, so the contact and winding checks
    # would pass it; the corner itself must be reported
    pts = [list(p) for p in FLAT_HEXAGON]
    pts[4][1] = value
    pts[2][0] = value
    verdict = certify_boundary(synthetic_boundary(pts))
    assert verdict.status is Status.PRECONDITION_FAILURE
    assert verdict.checks.get("self_intersection") is not True
    assert verdict.checks.get("winding_in_0_1") is not True
    assert len(verdict.witnesses) == 1
    assert verdict.witnesses[0].note.startswith("corner 2 has a non-finite coordinate")


def test_certify_zero_length_segment_is_precondition_failure():
    # a repeated corner is a segment no longer than EPS: the contact check
    # cannot measure it, so the verdict is reached without that check
    verdict = certify_boundary(synthetic_boundary([(0, 0), (1, 0.1), (1, 0.1), (2, 0), (1, -0.2)]))
    assert verdict.status is Status.PRECONDITION_FAILURE
    assert verdict.checks == {"boundary_decomposition": False}
    assert [w.note for w in verdict.witnesses] == [
        "segment 1 has |dx| = 0.000e+00",
        "segment (1.0, 0.1)-(1.0, 0.1) has near-zero length",
    ]


def test_certify_net_statuses(tetra):
    run = stretch_and_unfold(tetra)
    verdict = certify_net(run.layout)
    assert verdict.status is Status.NET
    assert verdict.witnesses == ()
    assert set(verdict.checks) == {
        "boundary_decomposition",
        "segment_tilt",
        "turn_directions",
        "self_intersection",
        "winding_in_0_1",
        "ccw_orientation",
    }


@pytest.mark.parametrize("points", [FLAT_HEXAGON, [(0, 0), (1, 0), (1, 1), (0, 1)]], ids=["net", "vertical"])
def test_certificate_decomposes_once_through_the_module(points):
    # the benchmark harness times the structural checks by wrapping the
    # module's decompose_boundary, so the certificate calls it by name
    B = synthetic_boundary(points)
    with mock.patch.object(verify, "decompose_boundary", wraps=verify.decompose_boundary) as spy:
        certify_boundary(B)
    spy.assert_called_once_with(B)


def test_certify_unstretched_is_not_net(tetra):
    # without stretching the structural checks fail (or an overlap shows
    # up); either way the verdict cannot be a net certificate
    for T in enumerate_spanning_trees(tetra, cap=3):
        verdict = certify_net(develop(cut(tetra, T)))
        assert verdict.status in (Status.PRECONDITION_FAILURE, Status.OVERLAP)


def test_two_face_strip_certifies_net():
    # a strip of two skinny near-horizontal triangles (0, 1, 2) and
    # (1, 3, 2) in the plane, sharing the fold edge (1, 2): two convex
    # polygons joined along an edge cannot overlap, and with this geometry
    # the structural checks hold too.  The boundary runs 0, 1, 3, 2.
    B = synthetic_boundary([(0.0, 0.0), (10.0, 0.1), (14.0, 0.35), (4.0, 0.3)])
    verdict = certify_boundary(B)
    assert verdict.status is Status.NET, verdict.to_json()
