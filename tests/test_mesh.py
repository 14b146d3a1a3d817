import math

import numpy as np
import pytest

from stretchnet import shapes
from stretchnet.errors import (
    CoplanarFacesWarning,
    NonPlanarFace,
    NotClosed,
    NotConvex,
    OffParseError,
)
from stretchnet.mesh import (
    Polyhedron,
    export_off,
    load_off,
)

CUBE_OFF = """OFF
8 6 12
-1 -1 -1
 1 -1 -1
 1  1 -1
-1  1 -1
-1 -1  1
 1 -1  1
 1  1  1
-1  1  1
4 0 1 2 3
4 4 7 6 5
4 0 4 5 1
4 1 5 6 2
4 2 6 7 3
4 3 7 4 0
"""
CUBE_VERTS = np.array([[float(t) for t in ln.split()] for ln in CUBE_OFF.splitlines()[2:10]])
CUBE_FACES = [tuple(int(t) for t in ln.split()[1:]) for ln in CUBE_OFF.splitlines()[10:16]]


def test_load_off_cube_counts():
    P = load_off(CUBE_OFF)
    assert (P.n_vertices, P.n_edges, P.n_faces) == (8, 12, 6)


def test_load_off_tetra_counts(tetra):
    P = load_off(export_off(tetra))
    assert (P.n_vertices, P.n_edges, P.n_faces) == (4, 6, 4)


def test_load_off_normalizes_to_unit_diameter():
    P = load_off(CUBE_OFF)
    lo = P.vertices.min(axis=0)
    hi = P.vertices.max(axis=0)
    assert np.linalg.norm(hi - lo) == pytest.approx(1.0)
    assert np.abs((lo + hi) / 2).max() < 1e-12


def test_load_off_roundtrip(icosa):
    again = load_off(export_off(icosa))
    assert np.allclose(again.vertices, icosa.vertices, atol=1e-12)
    assert again.faces == icosa.faces


def test_load_off_rejects_pushed_in_vertex():
    # on a cube the quad faces bend first; on a triangulated solid the
    # faces stay planar and the plane test must do the rejecting
    bad_cube = CUBE_OFF.replace("-1 -1 -1", "-0.2 -0.2 -0.2", 1)
    with pytest.raises((NotConvex, NonPlanarFace)):
        load_off(bad_cube)
    octa = load_off(export_off(shapes.octahedron()))
    verts = octa.vertices.copy()
    verts[0] *= -0.05  # pull one tip past the center: strictly interior
    with pytest.raises(NotConvex):
        Polyhedron.build(verts, octa.faces)


@pytest.mark.parametrize(
    "point, faces",
    [
        ((0.0, 0.0, -1.0), [(0, 1, 8), (1, 2, 8), (2, 3, 8), (3, 0, 8)] + CUBE_FACES[1:]),
        ((0.0, -1.0, -1.0), [(0, 8, 1, 2, 3), CUBE_FACES[1], (0, 4, 5, 1, 8)] + CUBE_FACES[3:]),
    ],
    ids=["face-centre", "edge-midpoint"],
)
def test_non_extreme_vertex_rejected_by_cone_angle(point, faces):
    # vertex 8 lies inside a face or an edge of the cube, so it is not
    # extreme; the faces around it are flat there, so its cone angle is 2*pi
    verts = np.vstack([CUBE_VERTS, point])
    with pytest.raises(NotConvex, match=r"^vertex 8 has total intrinsic angle >= 2\*pi$"):
        Polyhedron.build(verts, faces)


def test_load_off_rejects_nonplanar_face():
    bad = CUBE_OFF.replace("-1 -1 -1", "-1 -1 -1.3", 1)
    with pytest.raises((NonPlanarFace, NotConvex)):
        load_off(bad)


def test_load_off_rejects_open_surface():
    lines = CUBE_OFF.strip().splitlines()
    lines[1] = "8 5 12"
    with pytest.raises(NotClosed):
        load_off("\n".join(lines[:-1]) + "\n")


def test_load_off_parse_error_line_numbers():
    with pytest.raises(OffParseError) as err:
        load_off("OFF\n4 4 6\n0 0\n")
    assert err.value.line == 3
    with pytest.raises(OffParseError):
        load_off("NOT_OFF\n")
    with pytest.raises(OffParseError):
        load_off("")


def test_load_off_skips_comments_and_blanks():
    text = "# made by hand\nOFF\n\n# counts\n" + "\n".join(CUBE_OFF.splitlines()[1:])
    assert load_off(text).n_faces == 6


def test_faces_reoriented_outward():
    flipped = CUBE_OFF.replace("4 0 1 2 3", "4 3 2 1 0")
    P = load_off(flipped)
    assert P.faces == load_off(CUBE_OFF).faces


def test_intrinsic_angle_tetrahedron(tetra):
    # every corner of a regular tetrahedron is pi/3, so every cone angle is pi
    np.testing.assert_allclose(tetra.corner_angles, math.pi / 3, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(tetra.cone_angles, math.pi, rtol=0.0, atol=1e-12)


def test_cone_angles_cube(cube):
    for v in range(cube.n_vertices):
        assert cube.cone_angles[v] == pytest.approx(3 * math.pi / 2)


def test_check_alexandrov_platonic():
    # Alexandrov's condition: every cone angle below 2*pi
    for P in shapes.platonic_solids().values():
        assert (P.cone_angles < 2 * math.pi).all()


def test_edge_graph_regularity(tetra, cube, icosa):
    assert tetra.adjacency == ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))  # K4
    assert [len(a) for a in cube.adjacency] == [3] * 8
    assert [len(a) for a in icosa.adjacency] == [5] * 12


@pytest.mark.parametrize(
    "name", [*sorted(shapes.platonic_solids()), "hull-8-0", "hull-8-1", "hull-300-2", "hull-1000-3"]
)
def test_corner_twins_are_the_opposite_half_edges(name):
    if name.startswith("hull-"):
        n, seed = map(int, name.split("-")[1:])
        P = shapes.random_hull(n, seed)
    else:
        P = shapes.platonic_solids()[name]
    c = P.corners
    t = c.twin
    np.testing.assert_array_equal(t[t], np.arange(len(t)))
    assert (t != np.arange(len(t))).all()
    np.testing.assert_array_equal(c.vertex[t], c.vertex[c.next])
    np.testing.assert_array_equal(c.vertex[c.next[t]], c.vertex)
    assert (c.face[t] != c.face).all()
    # each edge is the corner from its smaller vertex, and its faces are
    # those of that corner and its twin, the smaller corner id first
    ec = np.flatnonzero(c.vertex < c.vertex[c.next])
    ec = ec[np.lexsort((c.vertex[c.next[ec]], c.vertex[ec]))]
    assert P.edges == tuple(zip(c.vertex[ec].tolist(), c.vertex[c.next[ec]].tolist()))
    pairs = np.sort(np.stack([ec, t[ec]], axis=1), axis=1)
    assert P.edge_faces == tuple(map(tuple, c.face[pairs].tolist()))


def test_coplanar_faces_warn_but_load():
    # cube with the bottom face split along a diagonal: dihedral angle pi
    faces = [
        (0, 1, 2),
        (0, 2, 3),
        (4, 7, 6, 5),
        (0, 4, 5, 1),
        (1, 5, 6, 2),
        (2, 6, 7, 3),
        (3, 7, 4, 0),
    ]
    verts = [
        (-1, -1, -1),
        (1, -1, -1),
        (1, 1, -1),
        (-1, 1, -1),
        (-1, -1, 1),
        (1, -1, 1),
        (1, 1, 1),
        (-1, 1, 1),
    ]
    with pytest.warns(CoplanarFacesWarning):
        P = Polyhedron.build(np.array(verts, float), faces)
    assert (P.n_vertices, P.n_edges, P.n_faces) == (8, 13, 7)


def test_build_requires_factory():
    with pytest.raises(TypeError):
        Polyhedron(np.zeros((4, 3)), ())


def test_flat_doubly_covered_square_rejected():
    # degenerate "pillow": two coincident square faces; the coplanar
    # vertex set fails convex validation before anything downstream
    verts = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]
    faces = [(0, 1, 2, 3), (3, 2, 1, 0)]
    with pytest.raises((NotConvex, NotClosed, ValueError)):
        Polyhedron.build(np.array(verts, float), faces)


def faces_by_plane_scan(points, tol=1e-8):
    """Reference for shapes.faces_from_hull: every hull triangle is compared
    with the first plane of each group found so far (quadratic in F)."""
    from scipy.spatial import ConvexHull

    pts = np.asarray(points, dtype=float)
    hull = ConvexHull(pts)
    groups = []
    for simplex, eq in zip(hull.simplices, hull.equations):
        a, b, c = (int(i) for i in simplex)
        if float(np.cross(pts[b] - pts[a], pts[c] - pts[a]) @ eq[:3]) < 0.0:
            b, c = c, b
        for geq, members in groups:
            if np.abs(geq - eq).max() <= tol:
                members.append((a, b, c))
                break
        else:
            groups.append((eq, [(a, b, c)]))
    faces = []
    for _, members in groups:
        edges = {(u, v) for a, b, c in members for u, v in ((a, b), (b, c), (c, a))}
        nxt = {u: v for u, v in edges if (v, u) not in edges}
        cycle = [min(nxt)]
        while nxt[cycle[-1]] != cycle[0]:
            cycle.append(nxt[cycle[-1]])
        faces.append(tuple(cycle))
    return faces


def sphere_points(n, seed):
    # the points shapes.random_hull(n, seed) takes the hull of
    pts = np.random.default_rng(seed).normal(size=(n, 3))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


@pytest.mark.parametrize(
    "points",
    [P.vertices for P in shapes.platonic_solids().values()]
    + [sphere_points(6 + seed % 5, seed) for seed in range(20)]
    + [sphere_points(200, 0)],
)
def test_faces_from_hull_matches_plane_scan(points):
    assert shapes.faces_from_hull(points) == faces_by_plane_scan(points)
