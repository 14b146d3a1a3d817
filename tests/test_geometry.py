import math

import pytest
from hypothesis import given, strategies as st

from stretchnet.errors import DegenerateDirection, DegenerateSegment, PointOnBoundary
from stretchnet.geometry import (
    EndpointPolicy,
    arg,
    segment_distance,
    segments_intersect,
    winding_number,
)

from conftest import winding_angle_sum
from test_certificate_equivalence import NUDGE, corner

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
coord = st.tuples(finite, finite)


def test_arg_axes():
    assert arg((1, 0)) == 0.0
    assert arg((0, 1)) == pytest.approx(math.pi / 2)
    assert arg((-1, 0)) == math.pi  # boundary convention: pi, never -pi
    assert arg((-1, -0.0)) == math.pi


def test_arg_zero_vector():
    with pytest.raises(DegenerateDirection):
        arg((0.0, 0.0))


@given(coord)
def test_arg_range_and_antipode(v):
    x, y = v
    if math.hypot(x, y) <= 1e-6:
        return
    a = arg(v)
    assert -math.pi < a <= math.pi
    b = arg((-x, -y))
    assert abs((a - b) % (2 * math.pi) - math.pi) < 1e-12


def test_segments_intersect_crossing():
    assert segments_intersect((0, 0), (2, 0), (1, -1), (1, 1))


def test_segments_intersect_parallel_disjoint():
    assert not segments_intersect((0, 0), (1, 0), (0, 1), (1, 1))


def test_segments_intersect_endpoint_policy():
    # consecutive polyline edges share (1, 0)
    args = ((0, 0), (1, 0), (1, 0), (2, 0))
    assert segments_intersect(*args, EndpointPolicy.INCLUDE)
    assert not segments_intersect(*args, EndpointPolicy.EXCLUDE_SHARED_ENDPOINT)
    # doubling back onto itself is still an intersection
    back = ((0, 0), (1, 0), (1, 0), (0.5, 0))
    assert segments_intersect(*back, EndpointPolicy.EXCLUDE_SHARED_ENDPOINT)


def test_segments_intersect_degenerate():
    with pytest.raises(DegenerateSegment):
        segments_intersect((0, 0), (0, 0), (1, 1), (2, 2))


@st.composite
def segment_pair(draw):
    """Two dyadic near-touching segments (p1, p2, q1, q2) that often share
    an endpoint, double back, coincide or have (near-)zero length."""
    p1, p2, q1, q2 = (draw(corner) for _ in range(4))
    shape = draw(st.sampled_from(["free", "chained", "tail_to_tail", "doubled_back", "same", "short"]))
    if shape == "chained":
        q1 = p2
    elif shape == "tail_to_tail":
        q2 = p2
    elif shape == "doubled_back":
        di, dj = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        q1, q2 = p2, ((p1[0] + p2[0]) / 2 + di * NUDGE, (p1[1] + p2[1]) / 2 + dj * NUDGE)
    elif shape == "same":
        q1, q2 = p2, p1
    elif shape == "short":
        di, dj = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        p2 = (p1[0] + di * NUDGE / 4, p1[1] + dj * NUDGE / 4)
    return p1, p2, q1, q2


def intersects(p1, p2, q1, q2, policy):
    try:
        return segments_intersect(p1, p2, q1, q2, policy)
    except DegenerateSegment:
        return "degenerate"


@given(segment_pair(), st.sampled_from(EndpointPolicy))
def test_segments_intersect_permutation_invariance(seg, policy):
    p1, p2, q1, q2 = seg
    expected = intersects(p1, p2, q1, q2, policy)
    assert intersects(q1, q2, p1, p2, policy) == expected
    assert intersects(p2, p1, q1, q2, policy) == expected
    assert intersects(p1, p2, q2, q1, policy) == expected


@given(segment_pair())
def test_segment_distance_permutation_invariance(seg):
    p1, p2, q1, q2 = seg
    d = segment_distance(p1, p2, q1, q2)
    assert segment_distance(q1, q2, p1, p2) == d
    assert segment_distance(p2, p1, q1, q2) == pytest.approx(d, abs=1e-12)
    assert segment_distance(p1, p2, q2, q1) == pytest.approx(d, abs=1e-12)


def test_segment_distance_touching():
    assert segment_distance((0, 0), (1, 0), (0.5, 0), (0.5, 1)) == 0.0
    assert segment_distance((0, 0), (1, 0), (0, 1), (1, 1)) == pytest.approx(1.0)


UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


def test_disjoint_collinear_segments_do_not_cross():
    # four corners on one line, in order: the float orientation signs of
    # segments 0 and 2 are rounding noise and once read as a crossing
    d = (0.8210951084789369, 1e-09)
    a, b, c, e = [(s * d[0], s * d[1]) for s in (17 / 97, 90 / 97, 369 / 97, 503 / 97)]
    for p1, p2, q1, q2 in ((a, b, c, e), (c, e, a, b)):
        assert segment_distance(p1, p2, q1, q2) == pytest.approx(2.3617, abs=1e-4)
        assert not segments_intersect(p1, p2, q1, q2)


def test_winding_square():
    assert winding_number(UNIT_SQUARE, (0.5, 0.5)) == 1
    assert winding_number(UNIT_SQUARE, (5, 5)) == 0


def test_winding_point_on_boundary():
    with pytest.raises(PointOnBoundary):
        winding_number(UNIT_SQUARE, (0.5, 0.0))


def test_winding_figure_eight():
    # expected values frozen from the angle-summation oracle: the lobe
    # traversed clockwise winds -1, the counterclockwise one +1
    fig8 = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    assert winding_angle_sum(fig8, (0.6, 0.0)) == -1
    assert winding_angle_sum(fig8, (-0.6, 0.0)) == 1
    assert winding_number(fig8, (0.6, 0.0)) == -1
    assert winding_number(fig8, (-0.6, 0.0)) == 1


def test_winding_vertex_on_ray():
    # query point level with two vertices of the diamond: the half-open
    # crossing rule must still classify inside/outside correctly
    diamond = [(0, -1), (1, 0), (0, 1), (-1, 0)]
    assert winding_number(diamond, (0.2, 0.0)) == 1
    assert winding_number(diamond, (2.0, 0.0)) == 0


def _ray_cast_inside(points, p):
    """Independent even-odd oracle with a vertical upward ray."""
    n = len(points)
    crossings = 0
    for i in range(n):
        (ax, ay), (bx, by) = points[i], points[(i + 1) % n]
        if (ax <= p[0]) != (bx <= p[0]):
            y_at = ay + (p[0] - ax) * (by - ay) / (bx - ax)
            if y_at > p[1]:
                crossings += 1
    return crossings % 2 == 1


def test_winding_simple_curves_against_ray_casting():
    import numpy as np

    rng = np.random.default_rng(7)
    for trial in range(4):
        # random simple star-shaped polygon around the origin
        k = int(rng.integers(5, 12))
        angles = np.sort(rng.uniform(0, 2 * math.pi, k))
        radii = rng.uniform(0.5, 1.5, k)
        poly = [(r * math.cos(a), r * math.sin(a)) for r, a in zip(radii, angles)]
        checked = 0
        for _ in range(1500):
            p = tuple(rng.uniform(-2, 2, 2))
            try:
                w = winding_number(poly, p)
            except PointOnBoundary:
                continue
            checked += 1
            assert w in (0, 1)
            assert (w == 1) == _ray_cast_inside(poly, p)
        assert checked >= 1000
