"""Tests of the benchmark's independent output checks.

Each check must pass a true net.  A layout with one face shifted and a
known overlapping unfolding (the skinny tetrahedron the program's own
overlap search finds at lambda = 1) must be flagged by the checks built
to see them.  Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
from stretchnet import mesh, oracle, pipeline  # noqa: E402


def _case(P, faces, layout, rotation, lam):
    Q = P.vertices @ checks.stretch_matrix(rotation, lam).T
    S = layout.surface
    T = S.tree
    return {
        "P": P,
        "Q": Q,
        "edges": checks.mesh_edges(faces),
        "faces": faces,
        "layout_faces": S.faces,
        "points": [list(map(tuple, pts)) for pts in layout.face_points],
        "records": [(r.face, r.tail, r.head) for r in S.boundary],
        "tree": T,
        "cut": [(min(v, p), max(v, p)) for v, p in enumerate(T.parent) if v != T.root],
    }


@pytest.fixture(scope="module")
def net():
    text = inputs.platonic_off(HERE.parent, "cube")
    P = mesh.load_off(text)
    run = pipeline.stretch_and_unfold(P)
    case = _case(P, inputs.parse_off(text)[1], run.layout, run.stretch.rotation, run.stretch.lam)
    case.update(matrix=run.stretch.matrix, theta=run.stretch.theta_max, rotation=run.stretch.rotation)
    return case


@pytest.fixture(scope="module")
def overlap():
    ex = oracle.find_overlap_tetrahedron()
    return _case(ex.polyhedron, ex.polyhedron.faces, ex.layout, np.eye(3), 1.0)


def shifted(case):
    """The case with the face of boundary segment 0 moved by a tenth of the
    layout's height."""
    f = case["records"][0][0]
    ys = [y for pts in case["points"] for _, y in pts]
    dy = 0.1 * (max(ys) - min(ys))
    points = list(case["points"])
    points[f] = [(x, y + dy) for x, y in points[f]]
    return dict(case, points=points)


def boundary(case):
    return checks.assemble_boundary(case["points"], case["layout_faces"], case["records"])


def area(case):
    return checks.surface_area(case["Q"], case["faces"])


def test_ingest_passes_the_loaded_mesh_and_flags_a_moved_vertex(net):
    # data/cube.off is already normalised; ingest must undo any shift and scale
    raw = inputs.parse_off(inputs.platonic_off(HERE.parent, "cube"))[0]
    ingested = net["P"].vertices
    assert checks.check_ingest(raw, ingested) == []
    assert checks.check_ingest(3.0 * raw + 1.0, ingested) == []
    assert checks.check_ingest(3.0 * raw + 1.0, 3.0 * raw + 1.0)  # not normalised
    moved = ingested.copy()
    moved[3, 1] += 1e-6
    assert checks.check_ingest(raw, moved)
    assert checks.check_ingest(raw, ingested[:-1])


def test_stretch_bound_passes_the_planned_stretch_and_flags_no_stretch(net):
    assert checks.check_stretch_bound(net["P"].vertices, net["edges"], net["matrix"], net["theta"]) == []
    unstretched = checks.stretch_matrix(net["rotation"], 1.0)
    assert checks.check_stretch_bound(net["P"].vertices, net["edges"], unstretched, net["theta"])


def test_tree_passes_an_increasing_tree_and_flags_broken_ones(net):
    T, x = net["tree"], net["Q"][:, 0]
    assert checks.check_tree(T.parent, T.root, net["edges"], x) == []
    assert checks.check_tree(T.parent, T.root, net["edges"], -x)  # decreasing
    leaf = min(v for v in range(len(T.parent)) if v != T.root)
    to_self = list(T.parent)
    to_self[leaf] = leaf
    assert checks.check_tree(to_self, T.root, net["edges"], x)  # not spanning
    non_edge = list(T.parent)
    non_edge[leaf] = next(u for u in range(len(x)) if u != leaf and (min(u, leaf), max(u, leaf)) not in net["edges"])
    assert checks.check_tree(non_edge, T.root, net["edges"], x)


def test_faces_pass_a_net_and_flag_a_shifted_face(net, overlap):
    args = lambda c: (c["points"], c["layout_faces"], c["Q"], c["cut"])  # noqa: E731
    assert checks.check_faces(*args(net)) == []
    assert any("torn" in p for p in checks.check_faces(*args(shifted(net))))
    # An overlapping unfolding is still a true development; check_net sees the overlap.
    assert checks.check_faces(*args(overlap)) == []


def test_net_passes_a_net_and_flags_a_shifted_face_and_an_overlap(net, overlap):
    assert checks.check_net(*boundary(net), area(net)) == []
    assert checks.check_net(*boundary(shifted(net)), area(net))
    assert checks.check_net(*boundary(overlap), area(overlap))


def test_overlap_is_found_only_in_an_overlap(net, overlap):
    points, _ = boundary(overlap)
    assert checks.overlaps(points, checks.centroids(overlap["points"]))
    points, _ = boundary(net)
    assert not checks.overlaps(points, checks.centroids(net["points"]))


@pytest.mark.parametrize(
    "name, count",
    [("tetrahedron", 16), ("cube", 384), ("octahedron", 384), ("icosahedron", 5184000), ("dodecahedron", 5184000)],
)
def test_spanning_tree_count(name, count):
    verts, faces = inputs.parse_off(inputs.platonic_off(HERE.parent, name))
    assert checks.spanning_tree_count(len(verts), checks.mesh_edges(faces)) == count


def test_winding_angle_sum():
    square = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    assert checks.winding_angle_sum(square, (0.5, 0.5)) == 1
    assert checks.winding_angle_sum(square[::-1], (0.5, 0.5)) == -1
    assert checks.winding_angle_sum(np.vstack([square, square]), (0.5, 0.5)) == 2
    assert checks.winding_angle_sum(square, (2.0, 0.5)) == 0
    assert checks.shoelace_area(square) == pytest.approx(1.0)


def test_contacts_cover_crossing_touching_and_folding_back():
    bowtie = np.array([(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)])
    assert checks.contacts(bowtie, 0.0) == [(0, 2)]
    spike = np.array([(0.0, 0.0), (2.0, 0.0), (1.0, 0.0), (1.0, 1.0)])
    assert (0, 1) in checks.contacts(spike, 0.0)
    square = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    assert checks.contacts(square, 0.0) == []
    assert checks.contacts(square, 1e-3) == []
