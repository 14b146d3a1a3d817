import math

import pytest
from hypothesis import example, given, strategies as st

from stretchnet.errors import DegenerateDirection, DegenerateSegment, PointOnBoundary
from stretchnet.geometry import (
    EndpointPolicy,
    arg,
    ccw_angle,
    orient2d,
    segment_distance,
    segments_intersect,
    winding_number,
)

from conftest import winding_angle_sum

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


def test_ccw_angle_quarter_turns():
    assert ccw_angle((1, 0), (0, 0), (0, 1)) == pytest.approx(math.pi / 2)
    assert ccw_angle((0, 1), (0, 0), (1, 0)) == pytest.approx(3 * math.pi / 2)
    assert ccw_angle((1, 0), (0, 0), (1, 0)) == 0.0


def test_ccw_angle_coincident_point():
    with pytest.raises(DegenerateDirection):
        ccw_angle((0, 0), (0, 0), (1, 1))


@given(coord, coord)
def test_ccw_angle_complement(y, z):
    x = (0.0, 0.0)
    if math.hypot(*y) <= 1e-6 or math.hypot(*z) <= 1e-6:
        return
    a = ccw_angle(y, x, z)
    b = ccw_angle(z, x, y)
    if a > 1e-9 and b > 1e-9:
        assert a + b == pytest.approx(2 * math.pi)


def test_orient2d_basic():
    assert orient2d((0, 0), (1, 0), (0, 1)) == 1
    assert orient2d((0, 0), (0, 1), (1, 0)) == -1
    assert orient2d((0, 0), (1, 1), (2, 2)) == 0


@given(coord, coord, coord)
@example((0.0, 1e-9), (1.0, -1.0), (0.0, 0.0))
def test_orient2d_antisymmetry(a, b, c):
    assert orient2d(a, b, c) == -orient2d(b, a, c)
    assert orient2d(a, b, c) == -orient2d(a, c, b)


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


def test_segment_distance_touching():
    assert segment_distance((0, 0), (1, 0), (0.5, 0), (0.5, 1)) == 0.0
    assert segment_distance((0, 0), (1, 0), (0, 1), (1, 1)) == pytest.approx(1.0)


UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


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
