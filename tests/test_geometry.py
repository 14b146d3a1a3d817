"""Angles and the contact and winding kernels of ``stretchnet.geometry``,
asked one segment pair or one point at a time through the helpers below.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stretchnet.errors import DegenerateDirection, DegenerateSegment
from stretchnet.geometry import (
    EPS,
    arg,
    curve_distances,
    require_segment_lengths,
    segment_pair_contacts,
    winding_numbers,
)

from conftest import winding_angle_sum
from test_certificate_equivalence import NUDGE, corner


def distance(p1, p2, q1, q2):
    """The pair kernel's distance between segments p1->p2 and q1->q2."""
    A, B = np.array([p1, q1], dtype=float), np.array([p2, q2], dtype=float)
    return float(segment_pair_contacts(A, B, [0], [1])[0][0])


def touches(p1, p2, q1, q2, exclude_shared=False):
    """Whether segments p1->p2 and q1->q2 touch within EPS, asked as the
    certificate asks it: DegenerateSegment for a segment no longer than
    EPS, else the pair kernel's contact flag."""
    A, B = np.array([p1, q1], dtype=float), np.array([p2, q2], dtype=float)
    require_segment_lengths(A, B, np.arange(2))
    return bool(segment_pair_contacts(A, B, [0], [1], exclude_shared)[2][0])


def winding(points, p):
    """The kernels' winding number of the closed polyline ``points``
    around ``p``, or None where ``p`` lies within EPS of the curve."""
    P, sample = np.array(points, dtype=float), np.array([p], dtype=float)
    if curve_distances(P, sample)[0] <= EPS:
        return None
    return int(winding_numbers(P, sample)[0])


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
    assert touches((0, 0), (2, 0), (1, -1), (1, 1))


def test_segments_intersect_parallel_disjoint():
    assert not touches((0, 0), (1, 0), (0, 1), (1, 1))


def test_segments_intersect_endpoint_policy():
    # consecutive polyline edges share (1, 0)
    args = ((0, 0), (1, 0), (1, 0), (2, 0))
    assert touches(*args)
    assert not touches(*args, exclude_shared=True)
    # doubling back onto itself is still an intersection
    back = ((0, 0), (1, 0), (1, 0), (0.5, 0))
    assert touches(*back, exclude_shared=True)


def test_segments_intersect_degenerate():
    with pytest.raises(DegenerateSegment):
        touches((0, 0), (0, 0), (1, 1), (2, 2))


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


def intersects(p1, p2, q1, q2, exclude_shared):
    try:
        return touches(p1, p2, q1, q2, exclude_shared)
    except DegenerateSegment:
        return "degenerate"


@given(segment_pair(), st.booleans())
def test_segments_intersect_permutation_invariance(seg, exclude_shared):
    p1, p2, q1, q2 = seg
    expected = intersects(p1, p2, q1, q2, exclude_shared)
    assert intersects(q1, q2, p1, p2, exclude_shared) == expected
    assert intersects(p2, p1, q1, q2, exclude_shared) == expected
    assert intersects(p1, p2, q2, q1, exclude_shared) == expected


@given(segment_pair())
def test_segment_distance_permutation_invariance(seg):
    p1, p2, q1, q2 = seg
    d = distance(p1, p2, q1, q2)
    assert distance(q1, q2, p1, p2) == d
    assert distance(p2, p1, q1, q2) == pytest.approx(d, abs=1e-12)
    assert distance(p1, p2, q2, q1) == pytest.approx(d, abs=1e-12)


def test_segment_distance_touching():
    assert distance((0, 0), (1, 0), (0.5, 0), (0.5, 1)) == 0.0
    assert distance((0, 0), (1, 0), (0, 1), (1, 1)) == pytest.approx(1.0)


UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


def test_disjoint_collinear_segments_do_not_cross():
    # four corners on one line, in order: the float orientation signs of
    # segments 0 and 2 are rounding noise and once read as a crossing
    d = (0.8210951084789369, 1e-09)
    a, b, c, e = [(s * d[0], s * d[1]) for s in (17 / 97, 90 / 97, 369 / 97, 503 / 97)]
    for p1, p2, q1, q2 in ((a, b, c, e), (c, e, a, b)):
        assert distance(p1, p2, q1, q2) == pytest.approx(2.3617, abs=1e-4)
        assert not touches(p1, p2, q1, q2)


def test_winding_square():
    assert winding(UNIT_SQUARE, (0.5, 0.5)) == 1
    assert winding(UNIT_SQUARE, (5, 5)) == 0


def test_winding_point_on_boundary():
    assert winding(UNIT_SQUARE, (0.5, 0.0)) is None


def test_winding_figure_eight():
    # expected values frozen from the angle-summation oracle: the lobe
    # traversed clockwise winds -1, the counterclockwise one +1
    fig8 = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    assert winding_angle_sum(fig8, (0.6, 0.0)) == -1
    assert winding_angle_sum(fig8, (-0.6, 0.0)) == 1
    assert winding(fig8, (0.6, 0.0)) == -1
    assert winding(fig8, (-0.6, 0.0)) == 1


def test_winding_vertex_on_ray():
    # query point level with two vertices of the diamond: the half-open
    # crossing rule must still classify inside/outside correctly
    diamond = [(0, -1), (1, 0), (0, 1), (-1, 0)]
    assert winding(diamond, (0.2, 0.0)) == 1
    assert winding(diamond, (2.0, 0.0)) == 0


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
    rng = np.random.default_rng(7)
    for trial in range(4):
        # random simple star-shaped polygon around the origin
        k = int(rng.integers(5, 12))
        angles = np.sort(rng.uniform(0, 2 * math.pi, k))
        radii = rng.uniform(0.5, 1.5, k)
        poly = [(r * math.cos(a), r * math.sin(a)) for r, a in zip(radii, angles)]
        P, samples = np.array(poly), rng.uniform(-2, 2, (1500, 2))
        off = curve_distances(P, samples) > EPS
        w = winding_numbers(P, samples)[off]
        assert off.sum() >= 1000
        assert set(w.tolist()) <= {0, 1}
        assert (w == 1).tolist() == [_ray_cast_inside(poly, p) for p in samples[off]]
