import itertools
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stretchnet import oracle, shapes
from stretchnet.errors import NoRightwardEdge, NotSpanningTree
from stretchnet.transform import apply_stretch, plan_stretch
from stretchnet.tree import (
    SpanningTree,
    TieRule,
    build_increasing_tree,
    enumerate_increasing_trees,
    enumerate_spanning_trees,
    is_increasing,
    rightward_neighbors,
    sample_increasing_trees,
    spanning_tree_edge_sets,
    vertex_order,
)


@pytest.fixture(scope="module")
def stretched_tetra():
    P = shapes.tetrahedron()
    return apply_stretch(P, plan_stretch(P))


def brute_force_spanning_trees(n, edges):
    """Independent oracle: filter all (n-1)-subsets of the edge list."""
    found = set()
    for combo in itertools.combinations(range(len(edges)), n - 1):
        parent = list(range(n))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        ok = True
        for i in combo:
            a, b = edges[i]
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if ok and len({find(v) for v in range(n)}) == 1:
            found.add(frozenset(combo))
    return found


def test_vertex_order_extremes(stretched_tetra):
    order = vertex_order(stretched_tetra)
    xs = stretched_tetra.x
    assert xs[order.x_min] == xs.min()
    assert xs[order.x_max] == xs.max()


def test_vertex_order_ties_on_the_cube(cube):
    # unrotated, four vertices share the smallest x and four the largest
    xs = cube.x
    low, high = np.flatnonzero(xs == xs.min()), np.flatnonzero(xs == xs.max())
    assert len(low) == len(high) == 4
    order = vertex_order(cube)
    assert (order.x_min, order.x_max) == (low.min(), high.max())


TIED_X = st.sampled_from([-1.0, -0.0, 0.0, 0.25, 1.0])


@given(st.lists(st.one_of(TIED_X, st.floats(allow_nan=False, allow_infinity=False)), min_size=1, max_size=40))
def test_vertex_order_matches_the_key_form(xs):
    # the smallest index wins for x_min and the largest for x_max, with
    # -0.0 == 0.0, as when each vertex is ranked by the key (float(x), i)
    ranked = [(float(x), i) for i, x in enumerate(xs)]
    order = vertex_order(SimpleNamespace(x=np.array(xs, dtype=float)))
    assert (order.x_min, order.x_max) == (min(ranked)[1], max(ranked)[1])
    assert type(order.x_min) is int and type(order.x_max) is int


def test_build_increasing_tree_parents_go_right(stretched_tetra):
    T = build_increasing_tree(stretched_tetra)
    xs = stretched_tetra.x
    root = vertex_order(stretched_tetra).x_max
    assert T.root == root
    assert T.parent[root] == root
    for v in range(4):
        if v != root:
            assert xs[T.parent[v]] > xs[v]
    assert is_increasing(stretched_tetra, T)


def test_steepest_ascent_is_the_argmax_tree(stretched_tetra):
    # brute force: among all per-vertex rightward choices, steepest
    # ascent picks the parent with maximal x at every vertex
    T = build_increasing_tree(stretched_tetra, TieRule.STEEPEST_ASCENT)
    xs = stretched_tetra.x
    rw = rightward_neighbors(stretched_tetra)
    for v in range(4):
        if v != T.root:
            assert xs[T.parent[v]] == max(xs[u] for u in rw[v])


def test_tie_rules_differ_only_in_choice(stretched_tetra):
    for rule in TieRule:
        T = build_increasing_tree(stretched_tetra, rule, seed=11)
        assert is_increasing(stretched_tetra, T)


def test_no_rightward_edge_on_unstretched():
    # axis-aligned cube: whole faces tie in x, so some vertex has no
    # strictly rightward neighbor
    with pytest.raises(NoRightwardEdge):
        build_increasing_tree(shapes.cube())


def test_enumerate_k4_is_cayley(tetra):
    trees = list(enumerate_spanning_trees(tetra))
    assert len(trees) == 16
    assert len({t.edges for t in trees}) == 16
    # cross-check against the brute-force subset oracle
    oracle = brute_force_spanning_trees(4, list(tetra.edges))
    assert len(oracle) == 16
    enum_sets = {
        frozenset(tetra.edges.index(e) for e in t.edges) for t in trees
    }
    assert enum_sets == oracle


def test_enumerate_cube_count(cube):
    assert sum(1 for _ in enumerate_spanning_trees(cube)) == 384


def test_enumerate_cap_deterministic(cube):
    first = [t.edges for t in enumerate_spanning_trees(cube, cap=5)]
    second = [t.edges for t in enumerate_spanning_trees(cube, cap=5)]
    assert len(first) == 5
    assert first == second


def test_enumerate_random_graph_against_oracle():
    rng = np.random.default_rng(2)
    for _ in range(5):
        n = int(rng.integers(4, 7))
        all_edges = list(itertools.combinations(range(n), 2))
        keep = sorted(rng.choice(len(all_edges), size=max(n, int(rng.integers(n, len(all_edges) + 1))), replace=False))
        edges = [all_edges[i] for i in keep]
        adj = {v: [] for v in range(n)}
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) != n:
            continue
        enumerated = set(spanning_tree_edge_sets(n, edges))
        assert enumerated == brute_force_spanning_trees(n, edges)


def test_is_increasing_classifies_all_16(stretched_tetra):
    xs = stretched_tetra.x
    count = 0
    for T in enumerate_spanning_trees(stretched_tetra):
        expected = all(xs[T.parent[v]] > xs[v] for v in range(4) if v != T.root)
        assert is_increasing(stretched_tetra, T) == expected
        count += expected
    assert count == sum(1 for _ in enumerate_increasing_trees(stretched_tetra))


@pytest.mark.parametrize("make, flagged", [(shapes.cube, 0), (shapes.octahedron, 4)], ids=["cube", "octahedron"])
def test_census_flags_only_strictly_increasing_trees(make, flagged):
    # unrotated at lambda 1, the cube and octahedron have vertices tied in
    # x: only trees whose every parent lies strictly right are increasing
    P = make()
    rows = oracle.census(P, (1.0,), rotate_first=False)
    assert len(rows) == 384
    assert sum(r.increasing for r in rows) == flagged
    if flagged:
        assert flagged == sum(1 for _ in enumerate_increasing_trees(P))
    else:
        with pytest.raises(NoRightwardEdge):
            next(enumerate_increasing_trees(P))


def test_increasing_count_is_rightward_product(stretched_tetra):
    rw = rightward_neighbors(stretched_tetra)
    root = vertex_order(stretched_tetra).x_max
    product = 1
    for v in range(4):
        if v != root:
            product *= len(rw[v])
    assert sum(1 for _ in enumerate_increasing_trees(stretched_tetra)) == product


def test_sample_increasing_trees_distinct(cube):
    Q = apply_stretch(cube, plan_stretch(cube))
    total = sum(1 for _ in enumerate_increasing_trees(Q))
    k = min(10, total)
    sampled = sample_increasing_trees(Q, k, seed=1)
    assert len({t.parent for t in sampled}) == k
    assert all(is_increasing(Q, t) for t in sampled)


def test_spanning_tree_json_roundtrip(stretched_tetra):
    T = build_increasing_tree(stretched_tetra)
    doc = json.loads(json.dumps(T.to_json()))
    assert len(doc["pairs"]) == len(T.parent) - 1
    again = SpanningTree.from_edges(len(T.parent), doc["pairs"], doc["root"])
    assert again == T


def test_from_edges_rejects_non_trees(tetra):
    edges = list(tetra.edges)
    with pytest.raises(NotSpanningTree):
        SpanningTree.from_edges(4, edges[:2], root=0)  # too few
    with pytest.raises(NotSpanningTree):
        # a triangle plus isolated vertex
        SpanningTree.from_edges(4, [(0, 1), (1, 2), (0, 2)], root=0)


@pytest.mark.parametrize(
    "root, parent",
    [(5, (0, 0, 0, 0)), (4, (0, 0, 0, 0)), (0, ()), (-1, (3, 3, 3, -1))],
    ids=["past-the-end", "one-past", "no-vertices", "negative"],
)
def test_spanning_tree_rejects_a_root_outside_the_vertices(root, parent):
    # a negative root would otherwise index from the end and pass as vertex 3
    with pytest.raises(NotSpanningTree, match=rf"^root {root} is not one of the {len(parent)} vertices$"):
        SpanningTree(root, parent)


@pytest.mark.parametrize("root", [4, -1])
def test_from_edges_rejects_a_root_outside_the_vertices(root):
    edges = [(0, 1), (0, 2), (0, 3)]
    with pytest.raises(NotSpanningTree, match=rf"^root {root} is not one of the 4 vertices$"):
        SpanningTree.from_edges(4, edges, root)


@pytest.mark.parametrize("far", [7, -1])
def test_from_edges_rejects_an_endpoint_outside_the_vertices(far):
    edges = [(0, 1), (0, 2), (0, far)]
    edge = (min(0, far), max(0, far))
    with pytest.raises(NotSpanningTree, match=rf"^edge \({edge[0]}, {edge[1]}\) has an endpoint outside the 4 vertices$"):
        SpanningTree.from_edges(4, edges, 0)
