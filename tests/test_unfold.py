import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from stretchnet import shapes
from stretchnet.errors import NotSpanningTree
from stretchnet.mesh import Polyhedron, _frames
from stretchnet.pipeline import stretch_and_unfold
from stretchnet.transform import apply_linear, apply_stretch, plan_stretch
from stretchnet.tree import (
    SpanningTree,
    build_increasing_tree,
    enumerate_increasing_trees,
    enumerate_spanning_trees,
    vertex_order,
)
from stretchnet.unfold import (
    cut,
    develop,
    export_json,
    export_svg,
    load_layout_json,
    rebuild_boundary,
)

import mesh_reference
from mesh_reference import face_points3d
from conftest import prism


def polygon_area(pts):
    n = len(pts)
    return 0.5 * sum(
        pts[i][0] * pts[(i + 1) % n][1] - pts[(i + 1) % n][0] * pts[i][1] for i in range(n)
    )


def face_area_3d(pts3d):
    total = np.zeros(3)
    for i in range(1, len(pts3d) - 1):
        total += np.cross(pts3d[i] - pts3d[0], pts3d[i + 1] - pts3d[0])
    return 0.5 * float(np.linalg.norm(total))


@pytest.fixture(scope="module")
def tetra_run():
    return stretch_and_unfold(shapes.tetrahedron())


def test_cut_boundary_length_tetra(tetra):
    for T in enumerate_spanning_trees(tetra):
        S = cut(tetra, T)
        assert len(S.boundary) == 6  # 2 (V - 1)
        assert len(S.folds) == 3
        assert {e for e, _, _ in S.folds}.isdisjoint(T.edges)


def test_cut_boundary_length_cube(cube):
    T = next(enumerate_spanning_trees(cube, cap=1))
    assert len(cut(cube, T).boundary) == 14


def test_kept_cut_surfaces_hold_no_mesh_data(icosa):
    # a surface holds the tree's cut mask, not per-tree copies of the
    # mesh's faces or fold edges: keeping 1,000 of them must stay small
    Q = apply_stretch(icosa, plan_stretch(icosa))
    trees = list(itertools.islice(enumerate_increasing_trees(Q), 1000))
    assert len(trees) == 1000
    S = cut(Q, trees[0])  # fills the mesh's own caches first
    assert S.faces is Q.faces
    assert not S.is_cut.flags.writeable
    with pytest.raises(ValueError):
        S.is_cut[0] = not S.is_cut[0]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [cut(Q, T) for T in trees]
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown / len(kept) < 6000, f"{grown / len(kept):.0f} bytes per kept surface"


def test_cut_dual_pairing(tetra):
    for T in enumerate_spanning_trees(tetra, cap=4):
        S = cut(tetra, T)
        for i, rec in enumerate(S.boundary):
            partner = S.boundary[rec.dual]
            assert partner.dual == i
            assert partner.edge == rec.edge
            assert i != rec.dual


def test_cut_rejects_non_spanning_tree(tetra):
    bad = SpanningTree(root=0, parent=(0, 0, 0, 5))
    with pytest.raises(NotSpanningTree, match=r"^tree edge \(3, 5\) is not a mesh edge$"):
        cut(tetra, bad)
    # a valid tree of the wrong mesh
    with pytest.raises(NotSpanningTree):
        cut(tetra, SpanningTree(0, (0, 0, 0, 0, 0)))


def test_develop_path_tree_strip(tetra):
    # a path tree unfolds the tetrahedron into a 4-triangle strip
    path = None
    for T in enumerate_spanning_trees(tetra):
        degrees = {}
        for a, b in T.edges:
            degrees[a] = degrees.get(a, 0) + 1
            degrees[b] = degrees.get(b, 0) + 1
        if max(degrees.values()) == 2:
            path = T
            break
    assert path is not None
    L = develop(cut(tetra, path))
    assert len(L.face_points) == 4
    area_2d = sum(polygon_area(pts) for pts in L.face_points)
    points3d = face_points3d(L.surface.mesh)
    area_3d = sum(face_area_3d(p) for p in points3d)
    assert area_2d == pytest.approx(area_3d, rel=1e-12)
    assert area_2d == pytest.approx(4 * face_area_3d(points3d[0]), rel=1e-12)


def test_develop_icosahedron_precision(icosa):
    Q = apply_stretch(icosa, plan_stretch(icosa))
    T = build_increasing_tree(Q)
    L = develop(cut(Q, T))
    assert len(L.face_points) == 20
    assert L.max_fold_mismatch < 1e-9


def test_isometry_per_face(tetra_run):
    L = tetra_run.layout
    for pts3d, pts2d in zip(face_points3d(L.surface.mesh), L.face_points):
        k = len(pts2d)
        for i in range(k):
            d3 = np.linalg.norm(pts3d[(i + 1) % k] - pts3d[i])
            d2 = math.hypot(
                pts2d[(i + 1) % k][0] - pts2d[i][0], pts2d[(i + 1) % k][1] - pts2d[i][1]
            )
            assert d2 == pytest.approx(d3, rel=1e-9)


def test_boundary_counterclockwise_and_closed(tetra_run):
    B = tetra_run.boundary
    assert polygon_area(B.points) > 0
    # the boundary starts at y', a copy of the x-minimal vertex
    assert tetra_run.surface.boundary[0].tail == vertex_order(tetra_run.stretched).x_min


def test_boundary_length_twice_tree_length(tetra_run):
    B = tetra_run.boundary
    total = sum(math.dist(*B.segment(i)) for i in range(len(B)))
    Q = tetra_run.stretched
    tree_len = sum(np.linalg.norm(Q.edge_vector(e)) for e in tetra_run.tree.edges)
    assert total == pytest.approx(2 * tree_len, rel=1e-9)


def test_boundary_dual_segments_equal_length(tetra_run):
    B = tetra_run.boundary
    for i in range(len(B)):
        a, b = B.segment(i)
        c, d = B.segment(B.duals[i])
        assert math.hypot(b[0] - a[0], b[1] - a[1]) == pytest.approx(
            math.hypot(d[0] - c[0], d[1] - c[1]), rel=1e-9
        )


def test_boundary_segments_almost_horizontal(tetra_run):
    from stretchnet.geometry import arg

    B = tetra_run.boundary
    for i in range(len(B)):
        (x0, y0), (x1, y1) = B.segment(i)
        a = abs(arg((x1 - x0, y1 - y0)))
        assert min(a, math.pi - a) < math.pi / 10


def test_develop_essentially_unique(tetra):
    Q = apply_stretch(tetra, plan_stretch(tetra))
    T = build_increasing_tree(Q)
    S = cut(Q, T)
    base = develop(S, root_face=0)
    for root in range(1, 4):
        other = develop(S, root_face=root)
        a = np.array(base.face_points[0])
        b = np.array(other.face_points[0])
        ang = math.atan2(a[1][1] - a[0][1], a[1][0] - a[0][0]) - math.atan2(
            b[1][1] - b[0][1], b[1][0] - b[0][0]
        )
        R = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
        t = a[0] - R @ b[0]
        for fa, fb in zip(base.face_points, other.face_points):
            moved = (R @ np.array(fb).T).T + t
            assert np.abs(moved - np.array(fa)).max() < 1e-8


def test_json_roundtrip_exact(tetra_run, tmp_path):
    path = tmp_path / "layout.json"
    export_json(tetra_run.layout, path, meta={"lambda": tetra_run.stretch.lam, "seed": 0})
    doc = load_layout_json(path)
    for stored, live in zip(doc["faces"], tetra_run.layout.face_points):
        for (sx, sy), (lx, ly) in zip(stored, live):
            assert sx == lx and sy == ly  # 17 significant digits round-trip losslessly
    assert doc["meta"]["lambda"] == tetra_run.stretch.lam
    rebuilt = rebuild_boundary(doc)
    assert rebuilt.points == tetra_run.boundary.points


def test_svg_export(tetra_run, tmp_path):
    path = tmp_path / "net.svg"
    export_svg(tetra_run.layout, path)
    text = path.read_text()
    assert text.count("<polygon") == 4
    assert 'class="fold"' in text
    assert 'class="cut"' in text
    assert "viewBox" in text


def test_svg_marks_overlap_witnesses(tmp_path):
    from stretchnet.oracle import find_overlap_tetrahedron

    ex = find_overlap_tetrahedron()
    assert ex is not None
    path = tmp_path / "overlap.svg"
    export_svg(ex.layout, path, witnesses=ex.verdict.witnesses)
    assert 'class="witness"' in path.read_text()


def test_develop_compatibility_failure_on_tampered_surface(cube):
    # at theta_max = 1e-12 the stretch is so large that the two placements
    # of a fold edge disagree, on a valid mesh cut along an increasing tree
    from stretchnet.errors import CompatibilityFailure

    Q = apply_stretch(cube, plan_stretch(cube, theta_max=1e-12))
    S = cut(Q, build_increasing_tree(Q))
    with pytest.raises(CompatibilityFailure, match=r"^fold edge \(2, 3\) placements disagree by 2\.296e-05$"):
        develop(S)


def test_develop_rejects_a_face_cut_off_from_the_rest(cube):
    # every surface cut along a spanning tree passes the reachability
    # guard; a hand-built mask that also cuts all four edges of a face
    # away from the root face leaves that face unreachable
    Q = apply_stretch(cube, plan_stretch(cube))
    S = cut(Q, build_increasing_tree(Q))
    c = Q.corners
    f = next(f for f, face in enumerate(Q.faces) if S.root_vertex not in face)
    is_cut = S.is_cut.copy()
    is_cut[c.face == f] = True
    is_cut[c.twin[c.face == f]] = True
    with pytest.raises(NotSpanningTree, match="^fold edges left some faces unreachable$"):
        develop(replace(S, is_cut=is_cut))


def triangular_prism():
    return prism(3)


def heptagonal_prism():
    return prism(7)


def square_pyramid():
    verts = [(1, 1, 0), (-1, 1, 0), (-1, -1, 0), (1, -1, 0), (0, 0, 1.3)]
    return Polyhedron.build(verts, [(0, 1, 2, 3), (0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)])


def hull_1000():
    return shapes.random_hull(1000, 2)


def _stretches(P):
    """``P``, stretched at the default bound, at pi/40 and at lambda = 1e9."""
    plan = plan_stretch(P)
    return (P, apply_stretch(P, plan), apply_stretch(P, plan_stretch(P, math.pi / 40)), apply_linear(P, plan.rotation, 1e9))


def assert_frames_match_reference(frames, points3d):
    # compared as bytes, so a -0.0 where the reference has 0.0 fails
    assert len(frames) == len(points3d)
    for frame, pts in zip(frames, points3d):
        expected = mesh_reference.local_coords(np.asarray(pts, dtype=float))
        frame = np.asarray(frame)
        assert frame.shape == expected.shape and frame.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "make",
    [
        shapes.cube,
        shapes.dodecahedron,
        lambda: shapes.random_hull(60, 1),
        triangular_prism,
        square_pyramid,
        heptagonal_prism,
        hull_1000,
    ],
)
def test_face_frames_equal_local_coords(make):
    # faces of one size are framed in one stacked pass; every frame must
    # be bitwise the one-face reference, at every stretch
    for M in _stretches(make()):
        assert_frames_match_reference(M.face_frames, face_points3d(M))
        assert M.face_frames is M.face_frames
        assert all(type(c) is float for frame in M.face_frames for xy in frame for c in xy)


DEGENERATE_FACES = [
    # corners 0, 1, 2 collinear: the normal comes from corner 3
    [(0, 0, 0), (1, 0, 0), (2, 0, 0), (2, 1, 0), (0, 1, 0)],
    # corners 0 to 3 collinear: the search runs twice
    [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (3, 1, 0), (0, 1, 0)],
    # corner 2 almost collinear, below the 1e-12 test
    [(0, 0, 0), (1, 0, 0), (2, 1e-14, 0), (2, 1, 0), (0, 1, 0)],
    # the same face, but above it
    [(0, 0, 0), (1, 0, 0), (2, 1e-9, 0), (2, 1, 0), (0, 1, 0)],
    # a stop is final: corner 2 passes against corner 3, not against the
    # far, slightly off-plane corner 4, whose normal would tilt the frame
    [(0, 0, 0), (1, 0, 0), (2, 1e-9, 0), (2, 1, 0), (0, 1e4, 1)],
    # corners 0, 1, 2 collinear in a tilted plane
    [(0, 0, 1), (0, 1, 1), (0, 2, 1), (1, 3, 2), (1, 0, 2)],
]


@pytest.mark.parametrize("face", DEGENERATE_FACES)
def test_local_coords_searches_past_collinear_corners(face):
    pts = np.array(face, dtype=float)
    frame = _frames(pts[None])[0]
    assert_frames_match_reference([frame], [pts])
    assert frame[:, 1].min() >= 0.0 and frame[:, 1].max() > 0.0  # counterclockwise about +n


def test_local_frames_mix_degenerate_and_regular_rows():
    rng = np.random.default_rng(4)
    faces = [np.array(f, dtype=float) for f in DEGENERATE_FACES]
    faces += [rng.normal(size=(k, 3)) for k in (3, 5, 5, 6, 4)]
    faces = [faces[i] for i in rng.permutation(len(faces))]
    # one stack per face size, as Polyhedron.face_frames stacks them
    for k in sorted({len(f) for f in faces}):
        stack = [f for f in faces if len(f) == k]
        assert_frames_match_reference(_frames(np.stack(stack)), stack)
