"""The certificate's shortcuts change no verdict and no witness.

``verify.certify_boundary`` measures only segment pairs with nearby
bounding boxes and skips the winding grid on contact-free
counterclockwise boundaries.  Each test compares its status, ``checks``
and ordered witnesses with the exhaustive reference in
``certificate_reference``.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from stretchnet.transform import (
    apply_linear,
    apply_stretch,
    choose_rotation,
    default_theta_max,
    plan_stretch,
    required_lambda,
    rotate,
)
from stretchnet.tree import (
    SpanningTree,
    enumerate_increasing_trees,
    enumerate_spanning_trees,
    sample_increasing_trees,
    vertex_order,
)
from stretchnet.unfold import boundary_curve, cut, develop
from stretchnet.verify import certify_boundary, face_centroids, polyline_self_intersections

import certificate_reference as reference
from test_acceptance import specimen_meshes
from test_verify import synthetic_boundary

#: increasing trees per criterion-1 mesh: a spread of every mesh, kept
#: small because the reference grid costs about 7 ms a boundary
TREES_PER_MESH = 5


def outcome(fn, *args, **kwargs):
    """The result of a call, or the type and message of what it raised."""
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # both sides must raise the same way
        return ("raised", type(exc).__name__, str(exc))
    if isinstance(result, list):
        return result
    return (result.status, result.checks, result.witnesses)


def assert_same_certificate(layout):
    B = boundary_curve(layout)
    probes = face_centroids(layout)
    assert outcome(certify_boundary, B, interior_probes=probes) == outcome(
        reference.certify_boundary, B, interior_probes=probes
    )


@pytest.mark.parametrize("lam", ["1", "auto"])
def test_every_cube_spanning_tree(cube, lam):
    R = choose_rotation(cube, seed=0)
    scale = 1.0 if lam == "1" else required_lambda(rotate(cube, R), default_theta_max(cube))
    Q = apply_linear(cube, R, scale)
    root = vertex_order(Q).x_max
    trees = list(enumerate_spanning_trees(cube))
    assert len(trees) == 384
    for T in trees:
        assert_same_certificate(develop(cut(Q, SpanningTree.from_edges(Q.n_vertices, T.edges, root))))


def test_criterion_1_increasing_trees():
    for _, P in specimen_meshes():
        Q = apply_stretch(P, plan_stretch(P))
        if P.n_vertices <= 8:
            trees = list(enumerate_increasing_trees(Q))
            trees = trees[:: max(1, len(trees) // TREES_PER_MESH)]
        else:
            trees = sample_increasing_trees(Q, TREES_PER_MESH, seed=0)
        for T in trees:
            assert_same_certificate(develop(cut(Q, T)))


# Near-touching polylines.  Corners sit on a quarter-unit grid, each
# nudged by a few steps of 2**-30 (about EPS), so contacts fall on both
# sides of the tolerance.  Every coordinate then has few enough bits that
# coordinate differences are exact and no orientation sign is flipped by
# rounding, only possibly zeroed.  Where rounding does flip them, on
# collinear segments with inexact coordinates, the reference can report
# a crossing of two disjoint segments that the bounding boxes rule out:
# see test_verify.test_polyline_disjoint_collinear_segments.
NUDGE = 2.0**-30
corner = st.builds(
    lambda i, j, di, dj: (i / 4 + di * NUDGE, j / 4 + dj * NUDGE),
    st.integers(0, 12),
    st.integers(0, 12),
    st.integers(-3, 3),
    st.integers(-3, 3),
)
polyline = st.lists(corner, min_size=3, max_size=9)


@settings(max_examples=100, deadline=None)
@given(polyline)
@example([(0.0, 0.0), (1.0, 0.0), (1.0 + NUDGE, 0.5), (0.5, 0.0)])
@example([(0.0, 0.0), (2.0, 0.25), (1.0, 1.0), (1.0, 0.125 + NUDGE)])
def test_near_touching_polylines(points):
    assert outcome(polyline_self_intersections, points, closed=False) == outcome(
        reference.polyline_self_intersections, points, closed=False
    )
    B = synthetic_boundary(points)
    assert outcome(certify_boundary, B) == outcome(reference.certify_boundary, B)
    assert outcome(certify_boundary, B, interior_probes=[B.points[0]]) == outcome(
        reference.certify_boundary, B, interior_probes=[B.points[0]]
    )


def test_shortcut_is_taken_on_simple_ccw_boundaries(monkeypatch):
    # the winding grid must not run on a contact-free counterclockwise
    # boundary, and must run on a clockwise one
    from stretchnet import verify

    calls = []
    real = verify.winding_injectivity_check
    monkeypatch.setattr(
        verify, "winding_injectivity_check", lambda *a, **k: calls.append(1) or real(*a, **k)
    )
    hexagon = [(0, 0), (2, -0.1), (4, 0.05), (4.2, 1.0), (2, 1.1), (0.4, 0.9)]
    verdict = verify.certify_boundary(synthetic_boundary(hexagon))
    assert verdict.checks["self_intersection"] and verdict.checks["winding_in_0_1"]
    assert calls == []
    verdict = verify.certify_boundary(synthetic_boundary(hexagon[::-1]))
    assert not verdict.checks["ccw_orientation"]
    assert calls == [1]
