import itertools

import numpy as np

from stretchnet import shapes
from stretchnet.oracle import (
    census,
    census_csv,
    find_overlap_tetrahedron,
    matrix_tree_count,
)
from stretchnet.tree import spanning_tree_edge_sets
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
    from stretchnet.geometry import winding_number
    from stretchnet.unfold import boundary_curve
    from stretchnet.verify import face_centroids

    B = boundary_curve(ex.layout)
    windings = [winding_number(B.points, c) for c in face_centroids(ex.layout)]
    assert max(windings) >= 2


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
