"""The vectorised validator agrees with the per-face reference.

``Polyhedron.build`` and ``tests/mesh_reference.reference_build`` must
accept and reject the same inputs, raise the same exception type with
the same message, emit the same warnings, and on acceptance give the
same vertices, faces, edges and adjacency, and cone angles within 1e-12.
One message differs by design: where the reference's hull finds vertices
that are not extreme, the library builds no hull and its cone-angle test
names one of them (see ``Polyhedron._validate``).
``Polyhedron.transformed`` must equal a full rebuild of the mapped
vertices wherever that rebuild succeeds.
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from stretchnet import shapes
from stretchnet.mesh import Polyhedron
from stretchnet.transform import choose_rotation

from mesh_reference import face_points3d, local_coords, reference_build
from test_mesh import CUBE_FACES as CUBE_F, CUBE_VERTS as CUBE_V


def outcome(build, verts, faces, normalize=True):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = build(verts, faces, normalize=normalize)
        except Exception as exc:  # compared, not swallowed
            result = exc
    return result, [(w.category, str(w.message)) for w in caught]


def assert_same_mesh(P, R):
    np.testing.assert_array_equal(P.vertices, R.vertices)
    assert P.faces == R.faces
    assert P.edges == R.edges
    assert P.edge_faces == R.edge_faces
    assert P.adjacency == R.adjacency
    np.testing.assert_allclose(P.cone_angles, R.cone_angles, rtol=0.0, atol=1e-12)


def assert_equivalent(verts, faces, normalize=True):
    got, got_warn = outcome(Polyhedron.build, verts, faces, normalize)
    want, want_warn = outcome(reference_build, verts, faces, normalize)
    assert got_warn == want_warn
    if isinstance(want, Exception):
        assert type(got) is type(want)
        hull = re.fullmatch(r"vertices \[([\d, ]+)\] are not extreme points of the hull", str(want))
        if hull:
            assert str(got) in {f"vertex {k} has total intrinsic angle >= 2*pi" for k in hull[1].split(", ")}
        else:
            assert str(got) == str(want)
    else:
        assert not isinstance(got, Exception), got
        assert_same_mesh(got, want)
    return want


def raw(points):
    pts = np.asarray(points, dtype=float)
    return pts, shapes.faces_from_hull(pts)


def sphere_points(n, seed):
    pts = np.random.default_rng(seed).normal(size=(n, 3))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


PLATONIC = {name: (P.vertices, P.faces) for name, P in shapes.platonic_solids().items()}
HULLS = {f"hull{6 + s % 5}-{s}": raw(sphere_points(6 + s % 5, s)) for s in range(20)}


OCTA = shapes.octahedron()
ARROW = [(0, 0), (2, 1), (0, 2), (0.5, 1)]  # concave quadrilateral

INVALID = {
    "pushed-in cube corner": (np.where(np.arange(8)[:, None] == 0, -0.2, CUBE_V), CUBE_F),
    "bent cube face": (CUBE_V + np.where(np.arange(8)[:, None] == 0, [0, 0, -0.3], 0.0), CUBE_F),
    "open cube": (CUBE_V, CUBE_F[:-1]),
    # the first failing corner is not the one with the smallest edge key
    "cube without two faces": (CUBE_V, CUBE_F[1:2] + CUBE_F[3:]),
    "cube with two faces repeated": (CUBE_V, CUBE_F + [CUBE_F[5], CUBE_F[0]]),
    "flipped cube face": (CUBE_V, [CUBE_F[0][::-1]] + CUBE_F[1:]),
    "octahedron tip inside": (np.where(np.arange(6)[:, None] == 0, -0.05, 1.0) * OCTA.vertices, OCTA.faces),
    "coplanar split cube": (
        CUBE_V,
        [(0, 1, 2), (0, 2, 3)] + CUBE_F[1:],
    ),
    "doubly covered square": (
        np.array([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)], float),
        [(0, 1, 2, 3), (3, 2, 1, 0)],
    ),
    "three vertices": (np.eye(3), [(0, 1, 2), (2, 1, 0)]),
    "no faces": (CUBE_V, []),
    "non-finite vertex": (np.where(np.arange(8)[:, None] == 3, np.nan, CUBE_V), CUBE_F),
    "coincident vertices": (np.zeros((8, 3)), CUBE_F),
    "two-vertex face": (CUBE_V, CUBE_F + [(0, 1)]),
    "repeated vertex": (CUBE_V, [(0, 1, 2, 1)] + CUBE_F[1:]),
    "missing vertex": (CUBE_V, CUBE_F[:-1] + [(3, 7, 4, 8)]),
    "collinear face": (
        np.vstack([CUBE_V, [(0.0, -1.0, -1.0)]]),
        CUBE_F + [(0, 8, 1)],
    ),
    "duplicated face": (CUBE_V, CUBE_F + [CUBE_F[0]]),
    "skew quad through the centroid": (CUBE_V, CUBE_F + [(0, 2, 5, 7)]),
    "isolated vertex": (np.vstack([CUBE_V, [(0.0, 0.0, 0.0)]]), CUBE_F),
    "flat fan in a face": (
        np.vstack([CUBE_V, [(0.0, 0.0, -1.0)]]),
        [(0, 1, 8), (1, 2, 8), (2, 3, 8), (3, 0, 8)] + CUBE_F[1:],
    ),
    "concave prism": (
        np.array([(x, y, z) for z in (0.0, 1.0) for x, y in ARROW]),
        [(0, 1, 2, 3), (4, 5, 6, 7), (0, 1, 5, 4), (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7)],
    ),
}


@pytest.mark.parametrize("name", sorted(PLATONIC) + sorted(HULLS))
def test_valid_meshes_agree(name):
    verts, faces = {**PLATONIC, **HULLS}[name]
    assert not isinstance(assert_equivalent(verts, faces), Exception)


@pytest.mark.parametrize("name", sorted(INVALID))
def test_invalid_meshes_agree(name):
    verts, faces = INVALID[name]
    assert_equivalent(verts, faces)


def test_every_failure_kind_is_covered():
    kinds = set()
    for verts, faces in INVALID.values():
        result, warned = outcome(reference_build, verts, faces)
        kinds.add(type(result).__name__ if isinstance(result, Exception) else "accepted")
        kinds |= {w.__name__ for w, _ in warned}
    assert kinds >= {"ValueError", "NotClosed", "NotConvex", "NonPlanarFace", "accepted", "CoplanarFacesWarning"}


STRETCHED = [(name, lam) for name in sorted(PLATONIC) for lam in (1e3, 1e9)]
STRETCHED += [(f"hull80-{s}", 1e8) for s in range(3)]


@pytest.mark.parametrize("name, lam", STRETCHED)
def test_stretched_rebuilds_agree(name, lam):
    # at lambda 1e9 a face of a Platonic solid passes within tol of the
    # centroid; on the 80-vertex hulls at 1e8 a cone angle comes within
    # EPS of 2*pi, the failure that re-validating a stretched mesh raised
    mesh = PLATONIC[name] if name in PLATONIC else raw(sphere_points(80, int(name[-1])))
    P = Polyhedron.build(*mesh)
    M = np.diag([lam, 1.0, 1.0]) @ choose_rotation(P)
    assert_equivalent(P.vertices @ M.T, P.faces, normalize=False)


@st.composite
def perturbed_meshes(draw):
    verts, faces = draw(st.sampled_from([*PLATONIC.values(), *list(HULLS.values())[:5]]))
    verts = np.array(verts, dtype=float)
    v = draw(st.integers(0, len(verts) - 1))
    if draw(st.booleans()):
        # pushed off its face planes, by a step from far below EPS to large
        d = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
        if np.linalg.norm(d) < 1e-3:
            d = np.array([1.0, 0.0, 0.0])
        step = 10.0 ** draw(st.floats(-12.0, -0.3))
        verts[v] = verts[v] + step * d / np.linalg.norm(d)
    else:
        # pulled towards the centre, inside the hull
        c = verts.mean(axis=0)
        verts[v] = c + draw(st.floats(0.0, 0.999)) * (verts[v] - c)
    return verts, faces


@settings(max_examples=200, deadline=None)
@given(perturbed_meshes())
def test_perturbed_meshes_agree(mesh):
    assert_equivalent(*mesh)


# -- Polyhedron.transformed -------------------------------------------------

matrices = st.lists(st.floats(-3.0, 3.0), min_size=9, max_size=9).map(lambda xs: np.reshape(xs, (3, 3)))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(PLATONIC)), matrices)
def test_transformed_equals_rebuild(name, M):
    assume(abs(np.linalg.det(M)) > 1e-6)
    if np.linalg.det(M) < 0.0:
        M = M @ np.diag([1.0, 1.0, -1.0])
    P = Polyhedron.build(*PLATONIC[name])
    Q = P.transformed(M)
    rebuilt, _ = outcome(Polyhedron.build, P.vertices @ M.T, P.faces, normalize=False)
    if isinstance(rebuilt, Exception):
        return
    assert_same_mesh(Q, rebuilt)
    np.testing.assert_array_equal(Q.corners.twin, rebuilt.corners.twin)
    assert Q.face_frames == rebuilt.face_frames


def test_transformed_shares_combinatorics_and_drops_vertex_caches():
    P = shapes.cube()
    before = (P.cone_angles, P.face_frames, P.edge_vectors)
    plan = P.plan
    Q = P.transformed(np.array([[3.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    for attr in ("faces", "edges", "edge_faces", "adjacency", "corners", "edge_ends", "plan"):
        assert getattr(Q, attr) is getattr(P, attr)
    assert Q.corners.twin is P.corners.twin
    assert all(a is b for a, b in zip((P.cone_angles, P.face_frames, P.edge_vectors), before))
    assert "face_frames" not in vars(Q)
    assert Q.face_frames != P.face_frames
    with pytest.raises(AttributeError):
        plan.twin = ()
    with pytest.raises(TypeError):
        plan.by_neighbour[0] = ()
    with pytest.raises(TypeError):
        plan.by_neighbour[0][0] = 0
    np.testing.assert_allclose(Q.edge_vectors, P.edge_vectors @ np.array([[3.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]).T, atol=1e-15)
    assert not Q.edge_vectors.flags.writeable
    assert not np.allclose(Q.cone_angles, P.cone_angles)
    assert math.isclose(Q.cone_angles.sum(), 2 * math.pi * 8 - 4 * math.pi)  # Gauss-Bonnet
    for frame, pts in zip(Q.face_frames, face_points3d(Q)):
        assert np.asarray(frame).tobytes() == local_coords(pts).tobytes()


@pytest.mark.parametrize("make", [shapes.cube, shapes.dodecahedron, lambda: shapes.random_hull(60, 1)], ids=["cube", "dodecahedron", "hull-60"])
def test_plan_orders_each_face_as_a_per_face_sort(make):
    # develop once sorted each face's corners by the face across them
    P = make()
    plan, c = P.plan, P.corners
    for name in ("face", "start", "next", "twin", "vertex"):
        assert getattr(plan, name) == tuple(getattr(c, name).tolist())
    face, twin = plan.face, plan.twin
    for f, lo in enumerate(plan.start):
        corners = range(lo, lo + len(P.faces[f]))
        assert plan.by_neighbour[f] == tuple(k for _, k in sorted((face[twin[k]], k) for k in corners))
    assert {type(k) for ks in plan.by_neighbour for k in ks} == {int}


@pytest.mark.parametrize(
    "M",
    [np.diag([-1.0, 1.0, 1.0]), np.diag([1.0, 1.0, 0.0]), np.ones((3, 3)), np.full((3, 3), np.nan), np.eye(2)],
    ids=["reflection", "flattening", "rank-one", "nan", "2x2"],
)
def test_transformed_rejects_maps_without_positive_determinant(M):
    with pytest.raises(ValueError):
        shapes.tetrahedron().transformed(M)
