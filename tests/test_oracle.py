import itertools

import numpy as np
import pytest

from stretchnet import oracle, shapes, tree, unfold
from stretchnet.oracle import (
    CensusRow,
    census,
    census_csv,
    find_overlap_tetrahedron,
    matrix_tree_count,
)
from stretchnet.transform import apply_linear, choose_rotation, default_theta_max, required_lambda, rotate
from stretchnet.tree import SpanningTree, VertexOrder, enumerate_spanning_trees, is_increasing, spanning_tree_edge_sets
from stretchnet.verify import certify_net
from stretchnet.verdict import Status


def test_matrix_tree_k4(tetra):
    assert matrix_tree_count((tetra.n_vertices, tetra.edges)) == 16  # Cayley: 4^2


def test_matrix_tree_cube(cube):
    assert matrix_tree_count((cube.n_vertices, cube.edges)) == 384


def test_matrix_tree_matches_enumeration_random_graphs():
    rng = np.random.default_rng(5)
    done = 0
    while done < 10:
        n = int(rng.integers(4, 8))
        pairs = list(itertools.combinations(range(n), 2))
        m = int(rng.integers(n, len(pairs) + 1))
        chosen = [pairs[i] for i in rng.choice(len(pairs), size=m, replace=False)]
        # need a connected graph
        adj = {v: set() for v in range(n)}
        for a, b in chosen:
            adj[a].add(b)
            adj[b].add(a)
        seen, stack = {0}, [0]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) != n:
            continue
        count = sum(1 for _ in spanning_tree_edge_sets(n, chosen))
        assert count == matrix_tree_count((n, chosen))
        done += 1


def test_census_tetra_auto_lambda(tetra):
    rows = census(tetra, lambdas=("auto",), cap=100)
    assert len(rows) == 16
    increasing = [r for r in rows if r.increasing]
    assert increasing, "the stretched tetrahedron has increasing trees"
    assert all(r.verdict is Status.NET for r in increasing)


def test_census_multiple_lambdas_deterministic(tetra):
    a = census(tetra, lambdas=(1.0, "auto"), cap=16)
    b = census(tetra, lambdas=(1.0, "auto"), cap=16)
    assert a == b
    assert len(a) == 32
    assert census_csv(a) == census_csv(b)


def test_census_csv_format(tetra):
    rows = census(tetra, lambdas=("auto",), cap=4)
    text = census_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "tree_id,increasing,verdict,witnesses,lambda"
    assert len(lines) == 5
    tid, inc, verdict, wit, lam = lines[1].split(",")
    assert tid == "0" and inc in ("true", "false")
    assert verdict in ("net", "overlap", "precondition_failure")
    float(lam)


def test_overlap_search_finds_witness():
    ex = find_overlap_tetrahedron()
    assert ex is not None
    assert ex.verdict.status is Status.OVERLAP
    assert ex.verdict.witnesses
    assert 0 <= ex.tree_id < 16


def test_overlap_search_covered_centroid():
    ex = find_overlap_tetrahedron(require_covered_centroid=True)
    assert ex is not None
    from stretchnet.geometry import EPS, curve_distances, winding_numbers
    from stretchnet.unfold import boundary_curve
    from stretchnet.verify import face_centroids

    P = np.asarray(boundary_curve(ex.layout).points, dtype=float)
    C = np.asarray(face_centroids(ex.layout), dtype=float)
    assert (curve_distances(P, C) > EPS).all()
    assert winding_numbers(P, C).max() >= 2


def test_torn_development_is_a_census_row_not_a_crash(cube):
    # at lambda 1e11 the cube's fold edges disagree by more than
    # COMPAT_TOL: every row is a precondition failure with one witness
    rows = census(cube, lambdas=(1e11,), cap=3)
    assert [(r.verdict, r.witnesses) for r in rows] == [(Status.PRECONDITION_FAILURE, 1)] * 3
    # the overlap search skips torn trees and still finds an overlap
    ex = find_overlap_tetrahedron(n_shapes=3, lam=1e12)
    assert ex is not None and ex.verdict.status is Status.OVERLAP


def overlap_share(rows, lam):
    sel = [r for r in rows if r.lam == lam]
    return sum(r.verdict is Status.OVERLAP for r in sel) / len(sel)


def test_overlap_fraction_reported(tetra):
    rows = census(tetra, lambdas=(1.0,), cap=16, rotate_first=False)
    assert len(rows) == 16
    assert 0.0 <= overlap_share(rows, 1.0) <= 1.0


def test_census_cube_all_384_trees(cube):
    # every spanning tree of the cube unfolds; 100% of the increasing
    # ones certify as nets at the auto lambda (tree count cross-checked
    # against the Laplacian cofactor)
    rows = census(cube, lambdas=("auto",), cap=500)
    assert len(rows) == matrix_tree_count((cube.n_vertices, cube.edges)) == 384
    increasing = [r for r in rows if r.increasing]
    assert increasing
    assert all(r.verdict is Status.NET for r in increasing)


def test_overlap_fraction_trend_reported(capsys):
    # the overlap share among *all* trees tends to fall as lambda grows;
    # reported for inspection, not asserted (no monotonicity claim)
    P = shapes.skinny_tetrahedron(1.0)
    rows = census(P, lambdas=(1.0, 4.0, 16.0), cap=16, rotate_first=False)
    fracs = [(lam, overlap_share(rows, lam)) for lam in (1.0, 4.0, 16.0)]
    print("overlap fraction by lambda:", fracs)
    assert all(0.0 <= f <= 1.0 for _, f in fracs)


# -- the census against its per-(tree, lambda) loop ---------------------------


def reference_census(P, lambdas, cap, rotate_first=True):
    """``census`` as a loop that roots and cuts every tree once per lambda:
    its rows, and the layout each row certified."""
    theta = default_theta_max(P)
    R = choose_rotation(P) if rotate_first else np.eye(3)
    P_rot = rotate(P, R) if rotate_first else P
    resolved = [required_lambda(P_rot, theta) if lam == "auto" else float(lam) for lam in lambdas]
    trees = list(enumerate_spanning_trees(P, cap=cap))
    rows, layouts = [], []
    for lam in resolved:
        Q = apply_linear(P, R, lam) if (rotate_first or lam != 1.0) else P
        root = tree.vertex_order(Q).x_max
        for tid, T in enumerate(trees):
            rooted = SpanningTree.from_edges(Q.n_vertices, T.edges, root)
            layout = unfold.develop(unfold.cut(Q, rooted))
            verdict = certify_net(layout)
            rows.append(CensusRow(tid, is_increasing(Q, rooted), verdict.status, len(verdict.witnesses), lam))
            layouts.append(layout)
    return rows, layouts


def census_with_layouts(monkeypatch, P, lambdas, cap, rotate_first=True):
    """``census``'s rows, each row's layout, and the number of cuts it made."""
    layouts, cuts = [], []

    def certify(layout):
        layouts.append(layout)
        return certify_net(layout)

    def counted_cut(Q, T):
        cuts.append(T)
        return unfold.cut(Q, T)

    monkeypatch.setattr(oracle, "certify_net", certify)
    monkeypatch.setattr(oracle, "cut", counted_cut)
    return census(P, lambdas=lambdas, cap=cap, rotate_first=rotate_first), layouts, len(cuts)


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # both sides must raise the same way
        return ("raised", type(exc).__name__, str(exc))


def assert_same_layouts(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.face_points == b.face_points and a.max_fold_mismatch == b.max_fold_mismatch
        assert a.surface.boundary == b.surface.boundary and a.surface.tree == b.surface.tree
        assert np.array_equal(a.surface.is_cut, b.surface.is_cut)
        assert np.array_equal(a.surface.mesh.vertices, b.surface.mesh.vertices)


CENSUS_MESHES = {
    "cube": shapes.cube,
    "octahedron": shapes.octahedron,
    "tetrahedron": shapes.tetrahedron,
    **{f"hull-{n}": (lambda n=n: shapes.random_hull(n, n)) for n in (6, 7, 8)},
}


@pytest.mark.parametrize("rotate_first", [True, False], ids=["rotated", "as-given"])
@pytest.mark.parametrize("lambdas", [(1, 3, "auto"), (1, 1 + 1e-15, "auto")], ids=["1-3-auto", "1-near-1-auto"])
@pytest.mark.parametrize("name", CENSUS_MESHES)
def test_census_matches_the_per_tree_loop(monkeypatch, name, lambdas, rotate_first):
    P = CENSUS_MESHES[name]()
    want = outcome(reference_census, P, lambdas, 50, rotate_first)
    got = outcome(census_with_layouts, monkeypatch, P, lambdas, 50, rotate_first)
    if want[0] == "raised":  # an edge orthogonal to x leaves "auto" undefined
        assert got == want and not rotate_first
        return
    (rows, layouts), (got_rows, got_layouts, n_cuts) = want, got
    assert got_rows == rows
    assert_same_layouts(got_layouts, layouts)
    assert n_cuts == len(rows) // len(lambdas)  # one cut per tree


def test_census_cuts_again_for_a_new_vertex_order(monkeypatch):
    # two lambdas can round a near-tie in x apart; here lambdas above 1
    # swap the x-extreme vertices, so the trees are rooted and cut twice
    real = tree.vertex_order

    def order(Q):
        o = real(Q)
        return VertexOrder(o.x_max, o.x_min) if Q.x.max() > 1.0 else o

    for module in (tree, unfold, oracle):
        monkeypatch.setattr(module, "vertex_order", order)
    P = shapes.random_hull(7, 7)
    rows, layouts = reference_census(P, (1, 3, "auto"), 50)
    got_rows, got_layouts, n_cuts = census_with_layouts(monkeypatch, P, (1, 3, "auto"), 50)
    assert got_rows == rows
    assert_same_layouts(got_layouts, layouts)
    assert n_cuts == 2 * len(rows) // 3
    assert got_layouts[0].surface.root_vertex != got_layouts[-1].surface.root_vertex
