"""The certificate decides as the exhaustive reference does, without the
winding grid.

``verify.certify_boundary`` checks the boundary's structure in one pass
without building runs, measures only segment pairs with nearby bounding
boxes, calls any contact overlap, and reads both winding flags from the
signed area of a contact-free boundary.  ``certificate_reference`` keeps
the run decomposition with its alternation test, the all-pairs contact
check and the always-on 64 x 64 winding grid.
On every corpus below the status, or the raised exception, is the same;
the checks other than the two winding flags are equal; and the ordered
witnesses are the reference's without its ``winding=`` probes, apart
from the one orientation note of a clockwise contact-free boundary.
Where the reference's contact check raises on a segment no longer than
EPS, the certificate gives a precondition failure instead
(``reference_certificate``).
"""

from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from stretchnet import oracle
from stretchnet.errors import VerticalSegment
from stretchnet.geometry import EPS
from stretchnet.mesh import load_off
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
from stretchnet.verdict import Status, Verdict, Witness
from stretchnet.verify import _signed_area, certify_boundary, face_centroids, polyline_self_intersections

import certificate_reference as reference
from test_acceptance import specimen_meshes
from test_verify import FLAT_HEXAGON, synthetic_boundary

DATA = Path(__file__).resolve().parent.parent / "data"

#: increasing trees per criterion-1 mesh: a spread of every mesh, kept
#: small because the reference grid costs about 7 ms a boundary
TREES_PER_MESH = 5

WINDING_KEYS = {"winding_in_0_1", "ccw_orientation"}


def outcome(fn, *args, **kwargs):
    """The result of a call, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # both sides must raise the same way
        return ("raised", type(exc).__name__, str(exc))


def is_grid_probe(w) -> bool:
    return w.note.startswith("winding=")


def is_orientation_note(w) -> bool:
    return w.note.startswith("boundary runs clockwise")


def reference_certificate(B, **kwargs):
    """The reference's certificate, or what it raised.  Where the
    reference's contact check raises DegenerateSegment, the certificate
    gives a precondition failure instead: its witnesses name the vertical
    segment that a short segment also is, then the short segment."""
    want = outcome(reference.certify_boundary, B, **kwargs)
    if isinstance(want, tuple) and want[1] == "DegenerateSegment":
        vertical = outcome(reference.decompose_boundary, B)
        assert vertical[1] == "VerticalSegment"
        witnesses = (Witness(note=vertical[2]), Witness(note=want[2]))
        return Verdict(Status.PRECONDITION_FAILURE, witnesses, {"boundary_decomposition": False})
    return want


def assert_same_certificate(B, **kwargs):
    got = outcome(certify_boundary, B, **kwargs)
    want = reference_certificate(B, **kwargs)
    if isinstance(got, tuple) or isinstance(want, tuple):
        assert got == want
        return
    assert got.status is want.status
    assert {k: v for k, v in got.checks.items() if k not in WINDING_KEYS} == {
        k: v for k, v in want.checks.items() if k not in WINDING_KEYS
    }
    assert [w for w in got.witnesses if not is_orientation_note(w)] == [
        w for w in want.witnesses if not is_grid_probe(w)
    ]
    if got.checks.get("self_intersection"):
        ccw = _signed_area(B.points) > 0.0
        assert got.checks["winding_in_0_1"] is got.checks["ccw_orientation"] is ccw
        assert sum(map(is_orientation_note, got.witnesses)) == (not ccw)
    else:
        assert WINDING_KEYS.isdisjoint(got.checks)


def assert_same_layout_certificate(layout):
    assert_same_certificate(boundary_curve(layout), interior_probes=face_centroids(layout))


@pytest.mark.parametrize("lam", ["1", "auto"])
def test_every_cube_spanning_tree(cube, lam):
    R = choose_rotation(cube, seed=0)
    scale = 1.0 if lam == "1" else required_lambda(rotate(cube, R), default_theta_max(cube))
    Q = apply_linear(cube, R, scale)
    root = vertex_order(Q).x_max
    trees = list(enumerate_spanning_trees(cube))
    assert len(trees) == 384
    for T in trees:
        assert_same_layout_certificate(develop(cut(Q, SpanningTree.from_edges(Q.n_vertices, T.edges, root))))


def test_criterion_1_increasing_trees():
    for _, P in specimen_meshes():
        Q = apply_stretch(P, plan_stretch(P))
        if P.n_vertices <= 8:
            trees = list(enumerate_increasing_trees(Q))
            trees = trees[:: max(1, len(trees) // TREES_PER_MESH)]
        else:
            trees = sample_increasing_trees(Q, TREES_PER_MESH, seed=0)
        for T in trees:
            assert_same_layout_certificate(develop(cut(Q, T)))


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
    assert_same_certificate(B)
    assert_same_certificate(B, interior_probes=[B.points[0]])


# General closed polylines for the structural checks: corners start
# anywhere within 1e8 (where one ulp is about 15 EPS), or at either zero,
# and step by up to 1e8 in each direction.  A quarter of the steps in x
# are within a few EPS, so |dx| falls on both sides of the vertical-segment
# tolerance, or rounds to 0 at large coordinates.  Every step rises or
# falls by at least 1e-6, so no segment but the closing one is shorter
# than EPS.  The full certificates are not compared here: the library's
# point-to-segment distance rounds by about an ulp of the coordinates,
# which exceeds EPS from about 5e6, so on such polylines the two contact
# checks can disagree (for one, on a collinear fold-back at 5e7).
sign = st.sampled_from([1.0, -1.0])
coordinate = st.floats(-1e8, 1e8) | st.sampled_from([0.0, -0.0])
step = st.builds(lambda s, d: s * d, sign, st.floats(1e-6, 1e8))
near_eps = st.builds(lambda s, d: s * d, sign, st.floats(EPS / 2, 4 * EPS) | st.sampled_from([EPS, 0.0]))


@st.composite
def closed_polylines(draw):
    points = [(draw(coordinate), draw(coordinate))]
    for _ in range(draw(st.integers(2, 8))):
        x, y = points[-1]
        dx = draw(near_eps) if draw(st.integers(0, 3)) == 0 else draw(step)
        points.append((x + dx, y + draw(step)))
    return points


STRUCTURAL_KEYS = {"boundary_decomposition", "segment_tilt", "turn_directions"}


def structure(result):
    """The structural checks of a certificate, in order, and the notes of
    their witnesses; or what the certificate raised."""
    if isinstance(result, tuple):
        return result
    checks = [(k, v) for k, v in result.checks.items() if k in STRUCTURAL_KEYS]
    notes = [w.note for w in result.witnesses if w.seg_a is None and not (is_grid_probe(w) or is_orientation_note(w))]
    return checks, notes


@settings(max_examples=300, deadline=None)
@given(closed_polylines())
@example([(0.0, 0.0), (2.0, -0.1), (4.0, 0.05), (4.0 + EPS, 1.0), (2.0, 1.1), (0.4, 0.9)])
@example([(1e8, 0.0), (1e8 + 2.0**-30, 1.0), (0.0, 0.5)])
@example([(-0.0, 0.0), (0.0, 1.0), (1.0, 0.5)])
@example([(0.0, 0.0), (3.0, 0.1), (2.0, -1.0), (-0.5, -1.1)])
@example([(0.0, 0.0), (1.0, 0.1), (1.0, 0.1), (2.0, 0.0), (1.0, -0.2)])
def test_a_closed_polyline_without_vertical_segments_alternates(points):
    # the deletion argument: every computed dx has the sign of its exact
    # coordinate difference, so a closed curve with no |dx| <= EPS moves
    # both ways, and its maximal runs alternate
    B = synthetic_boundary(points)
    try:
        assert reference.decompose_boundary(B).alternating is True
    except VerticalSegment:
        pass
    assert structure(outcome(certify_boundary, B)) == structure(reference_certificate(B))


def test_certificate_never_runs_the_winding_grid(monkeypatch):
    from stretchnet import verify

    def forbidden(*args, **kwargs):
        raise AssertionError("the certificate ran the winding grid")

    monkeypatch.setattr(verify, "winding_injectivity_check", forbidden)
    monkeypatch.setattr(verify, "winding_numbers", forbidden)

    verdict = certify_boundary(synthetic_boundary(FLAT_HEXAGON))
    assert verdict.checks["self_intersection"]
    assert verdict.checks["winding_in_0_1"] and verdict.checks["ccw_orientation"]
    assert not any(map(is_orientation_note, verdict.witnesses))

    verdict = certify_boundary(synthetic_boundary(FLAT_HEXAGON[::-1]))
    assert verdict.status is Status.PRECONDITION_FAILURE
    assert verdict.checks["ccw_orientation"] is False
    assert [w.note for w in verdict.witnesses if is_orientation_note(w)] == [
        "boundary runs clockwise (signed area -4.135)"
    ]

    bow_tie = [(0.0, 0.0), (2.0, 1.0), (2.2, 0.0), (0.1, 1.0)]
    verdict = certify_boundary(synthetic_boundary(bow_tie))
    assert verdict.status is Status.OVERLAP
    assert WINDING_KEYS.isdisjoint(verdict.checks)
    assert [(w.seg_a, w.seg_b) for w in verdict.witnesses if w.seg_a is not None] == [(0, 2)]


@pytest.mark.parametrize("off", sorted(DATA.glob("*.off")), ids=lambda p: p.stem)
def test_census_rows_match_the_reference(off, monkeypatch):
    # the golden census CSVs moved only by the reference's winding probes:
    # every row keeps its tree, flag, verdict and lambda, and an overlap
    # row lists exactly its grid witnesses fewer
    P = load_off(off.read_text())
    shipped = oracle.census(P, lambdas=(1.0, "auto"))
    probes = []

    def reference_net(L):
        verdict = reference.certify_boundary(boundary_curve(L), interior_probes=face_centroids(L))
        probes.append(sum(map(is_grid_probe, verdict.witnesses)))
        return verdict

    monkeypatch.setattr(oracle, "certify_net", reference_net)
    expected = oracle.census(P, lambdas=(1.0, "auto"))
    assert len(shipped) == len(expected) == len(probes)
    for row, want, dropped in zip(shipped, expected, probes):
        assert (row.tree_id, row.increasing, row.verdict, row.lam) == (
            want.tree_id,
            want.increasing,
            want.verdict,
            want.lam,
        )
        assert want.witnesses - row.witnesses == (dropped if row.verdict is Status.OVERLAP else 0)
