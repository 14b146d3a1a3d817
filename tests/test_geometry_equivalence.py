"""The array kernels in ``stretchnet.geometry`` decide every contact and
winding question as the scalar predicates kept in ``geometry_reference``.

Inputs are dyadic near-touching corners (see test_certificate_equivalence):
segment pairs that share an endpoint, double back, coincide or have
(near-)zero length, singly and as lists for the pair kernel, which must
equal the four-call kernel it replaced bit for bit; closed polylines with query points on and off the
curve; and chain pairs for the arm oracle, some with zero-length
segments.  Results must be equal, or both calls must raise the same
exception type with the same message.  A single pair or point is put to
the kernels through the helpers of test_geometry.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stretchnet import geometry
from stretchnet.verify import check_arm_conclusion

import geometry_reference as reference
from geometry_reference import EndpointPolicy
from test_certificate_equivalence import NUDGE, corner, polyline
from test_geometry import distance, segment_pair, touches, winding
from test_verify import chain_from_args


def outcome(fn, *args):
    """The result of a call, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # both sides must raise the same way
        return ("raised", type(exc).__name__, str(exc))


@settings(max_examples=400, deadline=None)
@given(segment_pair(), st.sampled_from(EndpointPolicy))
@example(((0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.5, NUDGE)), EndpointPolicy.EXCLUDE_SHARED_ENDPOINT)
@example(((0.0, 0.0), (0.0, NUDGE), (0.0, 0.0), (0.0, NUDGE)), EndpointPolicy.INCLUDE)
def test_segments_intersect(seg, policy):
    exclude_shared = policy is EndpointPolicy.EXCLUDE_SHARED_ENDPOINT
    assert outcome(touches, *seg, exclude_shared) == outcome(reference.segments_intersect, *seg, policy)


@settings(max_examples=400, deadline=None)
@given(segment_pair())
def test_segment_distance(seg):
    assert distance(*seg) == pytest.approx(reference.segment_distance(*seg), abs=1e-12)


@st.composite
def pair_list(draw):
    """Segments from segment_pair(), each drawn pair among the measured
    ones plus random pairs of the segments, and an exclude_shared flag
    or per-pair mask."""
    segs = [s for p1, p2, q1, q2 in draw(st.lists(segment_pair(), min_size=1, max_size=8)) for s in ((p1, p2), (q1, q2))]
    A, B = np.array([a for a, _ in segs], dtype=float), np.array([b for _, b in segs], dtype=float)
    index = st.integers(0, len(segs) - 1)
    pairs = [(i, i + 1) for i in range(0, len(segs), 2)] + draw(st.lists(st.tuples(index, index), max_size=12))
    pairs = draw(st.permutations(pairs))
    I, J = np.array([i for i, _ in pairs], dtype=np.intp), np.array([j for _, j in pairs], dtype=np.intp)
    exclude = draw(st.one_of(st.booleans(), st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)).map(np.array)))
    return A, B, I, J, exclude


@settings(max_examples=400, deadline=None)
@given(pair_list())
def test_segment_pair_contacts_equal_the_four_call_kernel(case):
    got, want = geometry.segment_pair_contacts(*case), reference.segment_pair_contacts(*case)
    for name, a, b in zip(("dist", "proper", "contact"), got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_segment_pair_contacts_of_no_pairs():
    A = np.array([[0.0, 0.0], [1.0, 1.0]])
    none = np.array([], dtype=np.intp)
    for got, want in zip(geometry.segment_pair_contacts(A, A + 1.0, none, none, True), reference.segment_pair_contacts(A, A + 1.0, none, none, True)):
        assert got.shape == want.shape == (0,) and got.dtype == want.dtype


@settings(max_examples=200, deadline=None)
@given(st.lists(corner, min_size=3, max_size=3), st.lists(st.tuples(corner, corner), min_size=1, max_size=6))
def test_point_segment_distances_equal_the_reference(points, segments):
    # every point against every segment, through broadcasting as curve_distances does
    P = np.array(points, dtype=float)
    A, B = (np.array([s[k] for s in segments], dtype=float)[:, None] for k in (0, 1))
    got = geometry.point_segment_distances(P.T, np.moveaxis(A, -1, 0), np.moveaxis(B, -1, 0))
    assert np.array_equal(got, reference.point_segment_distances(P, A, B))


@st.composite
def curve_and_point(draw):
    """A polyline, sometimes with a closing duplicate, and a query point
    that is often one of its corners or near a segment midpoint."""
    points = draw(polyline)
    if draw(st.booleans()):
        points = points + [points[0]]
    i = draw(st.integers(0, len(points) - 1))
    a, b = points[i], points[(i + 1) % len(points)]
    di, dj = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    near = ((a[0] + b[0]) / 2 + di * NUDGE, (a[1] + b[1]) / 2 + dj * NUDGE)
    return points, draw(st.sampled_from([draw(corner), a, near]))


@settings(max_examples=400, deadline=None)
@given(curve_and_point())
@example(([(0.0, 0.0), (1.0, 0.0), (0.0, 0.0)], (0.5, 0.5)))
def test_winding_number(case):
    # the kernels take the cycle the reference winds around: its last
    # point dropped when within EPS of the first
    points, p = case
    try:
        cycle = reference._as_cycle(points)
    except ValueError:  # fewer than three distinct points: a curve that doubles back
        assert winding(points, p) in (0, None)
        return
    try:
        expected = reference.winding_number(points, p)
    except reference.PointOnBoundary:
        expected = None
    assert winding(cycle, p) == expected


@st.composite
def chain_pair(draw):
    """Two chains from a common start whose ends are almost vertically
    apart, so the pairwise contact loop decides; a drawn corner may repeat
    its predecessor, making a zero-length segment."""
    m = draw(st.integers(1, 5))
    start = draw(corner)
    u = [start] + [draw(corner) for _ in range(m)]
    v = [start] + [draw(corner) for _ in range(m - 1)]
    v.append((u[-1][0] + draw(st.integers(-1, 1)) / 16, u[-1][1] + draw(st.integers(1, 8)) / 4))
    for chain in (u, v):
        if m > 1 and draw(st.booleans()):
            k = draw(st.integers(1, m - 1))
            chain[k] = chain[k - 1]
    return u, v


@settings(max_examples=400, deadline=None)
@given(chain_pair())
def test_check_arm_conclusion(chains):
    assert outcome(check_arm_conclusion, *chains) == outcome(
        reference.check_arm_conclusion, *chains
    )


def test_check_arm_conclusion_random_chains():
    # float chains with independent arguments in the arm window, the
    # v-chain's end lifted above the u-chain's: some pairs cross on the
    # way, some do not
    rng = np.random.default_rng(8)
    bound = math.pi / 10
    verdicts = []
    for _ in range(2000):
        m = int(rng.integers(1, 9))
        u, v = (
            chain_from_args((0.0, 0.0), rng.uniform(0.2, 1.0, m), rng.uniform(-bound, bound, m))
            for _ in range(2)
        )
        v[-1] = (u[-1][0] + rng.uniform(-0.05, 0.05), u[-1][1] + rng.uniform(0.05, 0.5))
        expected = outcome(reference.check_arm_conclusion, u, v)
        assert outcome(check_arm_conclusion, u, v) == expected
        verdicts.append(expected)
    assert 200 < verdicts.count(True) < 1800
