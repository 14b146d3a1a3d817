"""Layout JSON, the spanning check and the cut agree with their reference forms.

``unfold.layout_to_json`` formats records with %-formats, and
``unfold.cut`` walks corner ids and takes its boundary length as the
proof that the parent links form one spanning tree.
``tests/unfold_reference.py`` keeps the recursive serializer, the
parent-chain walk from every vertex and the dict-based cut; the
documents must be byte for byte equal, the cut must reject exactly the
parent maps the reference rejects, and the cut surfaces must have the
same boundary records, folds and root.
"""

import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from stretchnet import shapes, unfold
from stretchnet.errors import NotSpanningTree
from stretchnet.pipeline import stretch_and_unfold
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
    build_increasing_tree,
    enumerate_increasing_trees,
    enumerate_spanning_trees,
    vertex_order,
)

import unfold_reference as reference
from conftest import prism
from test_acceptance import specimen_meshes

META = {"lambda": 3.25, "theta_max": math.pi / 40, "seed": 0}


@pytest.fixture(scope="module")
def hull_layouts():
    return {
        (n, theta): stretch_and_unfold(shapes.random_hull(n, 7), theta_max=theta).layout
        for n in (300, 1000)
        for theta in (math.pi / 40, None)
    }


@pytest.mark.parametrize("theta", [math.pi / 40, None], ids=["pi-40", "default"])
@pytest.mark.parametrize("n", [300, 1000])
def test_hull_layout_json_is_byte_identical(hull_layouts, n, theta):
    L = hull_layouts[(n, theta)]
    for meta in (None, META):
        assert unfold.layout_to_json(L, meta) == reference.layout_to_json(L, meta)


@pytest.mark.parametrize("name", sorted(shapes.platonic_solids()))
def test_platonic_layout_json_is_byte_identical(name):
    L = stretch_and_unfold(shapes.platonic_solids()[name]).layout
    assert unfold.layout_to_json(L, META) == reference.layout_to_json(L, META)


CRAFTED_META = {
    "flags": [True, False],
    "ints": [np.int64(-7), np.int32(3), np.uint8(255), 0, 10**20],
    "none": None,
    "text": 'say "hi" \\ back, déjà vu — 数学 \U0001f600',
    "floats": [-0.0, 1e-300, float("inf"), -float("inf"), 5e-324, 0.1, np.float64(2.5)],
    "nested": {"a": (1, 2.0), "b": {"c": []}},
    'quote"key': "x",
}


def test_crafted_meta_is_byte_identical(hull_layouts):
    L = hull_layouts[(300, math.pi / 40)]
    assert unfold.layout_to_json(L, CRAFTED_META) == reference.layout_to_json(L, CRAFTED_META)


def test_numpy_and_int_corners_are_byte_identical(cube):
    # %.17g formats any real number as format(float(x), ".17g") does
    L = stretch_and_unfold(cube).layout
    mixed = [
        [(np.float64(x), np.float32(y)) if i % 2 else (int(round(x)), -0.0 * y) for i, (x, y) in enumerate(pts)]
        for pts in L.face_points
    ]
    odd = replace(L, face_points=mixed)
    assert unfold.layout_to_json(odd) == reference.layout_to_json(odd)


# -- cut ---------------------------------------------------------------------


def assert_same_cut(Q, T):
    got = unfold.cut(Q, T)
    boundary, folds, root_vertex = reference.cut(Q, T)
    assert got.boundary == boundary
    want = [(e, fa, fb) for e, (fa, fb) in sorted(folds.items())]
    # repr also tells a numpy integer from a Python int
    assert got.folds == want and repr(got.folds) == repr(want)
    assert got.root_vertex == root_vertex
    assert got.faces is Q.faces and got.tree is T and got.mesh is Q
    return got, boundary


@pytest.mark.parametrize("name", ["cube", "octahedron"])
def test_cut_matches_reference_on_every_spanning_tree(name):
    # the trees and stretches of the overlap census: lambda 1 and the default bound
    P = shapes.platonic_solids()[name]
    R = choose_rotation(P)
    trees = list(enumerate_spanning_trees(P))
    assert len(trees) == 384
    for lam in (1.0, required_lambda(rotate(P, R), default_theta_max(P))):
        Q = apply_linear(P, R, lam)
        root = vertex_order(Q).x_max
        for T in trees:
            assert_same_cut(Q, SpanningTree.from_edges(Q.n_vertices, T.edges, root))


def test_cut_matches_reference_on_every_increasing_tree():
    # every increasing tree of the meshes of acceptance criterion 1
    count = 0
    for _, P in specimen_meshes():
        Q = apply_stretch(P, plan_stretch(P))
        for T in enumerate_increasing_trees(Q):
            assert_same_cut(Q, T)
            count += 1
    assert count > 40000


@pytest.mark.parametrize("theta", [math.pi / 40, None], ids=["pi-40", "default"])
@pytest.mark.parametrize("n", [300, 1000])
def test_hull_cut_matches_reference(hull_layouts, n, theta):
    S = hull_layouts[(n, theta)].surface
    got, boundary = assert_same_cut(S.mesh, S.tree)
    assert repr(got.boundary) == repr(boundary)


# -- the spanning check ------------------------------------------------------


def outcome(check, Q, T):
    try:
        check(Q, T)
    except NotSpanningTree as exc:
        return str(exc)
    return None


def assert_same_rejection(Q, T):
    """``cut`` raises NotSpanningTree exactly when the reference check
    does, with the same message, except that a parent chain that never
    reaches the root shows as a short boundary; returns the reference's
    message, or None."""
    want = outcome(reference.check_spanning, Q, T)
    got = outcome(unfold.cut, Q, T)
    if want is not None and want.endswith("never reaches the root"):
        assert re.fullmatch(rf"boundary has \d+ edges, expected {2 * (Q.n_vertices - 1)}", got)
    else:
        assert got == want
    return want


def test_parent_cycle_away_from_root_is_rejected(cube):
    # vertex 0 hangs off a 4-cycle that avoids the root: every link is a
    # mesh edge, and the boundary walk stays on one side of the cycle
    root = cube.adjacency[0][0]
    parent, queue = {root: root}, [root]
    for v in queue:  # breadth-first tree from the root
        for w in cube.adjacency[v]:
            if w not in parent:
                parent[w] = v
                queue.append(w)
    top = next(f for f in cube.faces if root not in f and 0 not in f)
    a, b, c, d = top
    parent[a], parent[b], parent[c], parent[d] = b, c, d, a
    parent[0] = next(v for v in cube.adjacency[0] if v in top)
    bad = SpanningTree(root, tuple(parent[v] for v in range(cube.n_vertices)))
    assert outcome(reference.check_spanning, cube, bad) == "vertex 0 never reaches the root"
    assert outcome(unfold._check_spanning, cube, bad) is None
    with pytest.raises(NotSpanningTree, match=r"^boundary has 8 edges, expected 14$"):
        unfold.cut(cube, bad)


def test_random_parent_maps_match_reference():
    # random maps sending each vertex to a neighbour: most hold a cycle
    P = shapes.random_hull(14, 3)
    tree = build_increasing_tree(P)
    rng = np.random.default_rng(0)
    messages = set()
    for _ in range(400):
        if rng.random() < 0.5:
            root = int(rng.integers(P.n_vertices))
            parent = [int(rng.choice(P.adjacency[v])) for v in range(P.n_vertices)]
        else:  # a spanning tree with at most one vertex re-pointed
            root, parent = tree.root, list(tree.parent)
            v = int(rng.integers(P.n_vertices))
            if v != root:
                parent[v] = int(rng.choice(P.adjacency[v]))
        parent[root] = root
        messages.add(assert_same_rejection(P, SpanningTree(root, tuple(parent))))
    assert None in messages and len(messages) > 3


@pytest.mark.parametrize("name, trees", [("tetrahedron", 16), ("octahedron", 384)])
def test_every_parent_map_matches_reference(name, trees):
    # every root, and every vertex (itself included) as each other
    # vertex's parent: 256 maps of the tetrahedron, 46,656 of the octahedron
    P = shapes.platonic_solids()[name]
    V = P.n_vertices
    accepted = 0
    for root in range(V):
        for choice in itertools.product(range(V), repeat=V - 1):
            parent = (*choice[:root], root, *choice[root:])
            accepted += assert_same_rejection(P, SpanningTree(root, parent)) is None
    assert accepted == trees * V


class CountingParents(tuple):
    """A parent tuple that counts its lookups by index."""

    lookups = 0

    def __getitem__(self, i):
        CountingParents.lookups += 1
        return super().__getitem__(i)


def test_long_path_tree_is_checked_in_linear_time():
    # a Hamiltonian path of a 1,000-gon prism: every walk from every vertex
    # to the root would take about V^2 / 2 = 2e6 parent lookups
    n = 1000
    Q = prism(n)
    parent = [0] + list(range(n - 1)) + [n + i + 1 for i in range(n - 1)] + [n - 1]
    T = SpanningTree(0, CountingParents(parent))
    CountingParents.lookups = 0
    unfold._check_spanning(Q, T)
    assert CountingParents.lookups <= 2 * Q.n_vertices
    assert len(unfold.cut(Q, T).boundary) == 2 * (Q.n_vertices - 1)
