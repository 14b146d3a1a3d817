"""Brute-force ground truth: tree censuses and independent counting checks.

The census unfolds every spanning tree (up to a cap) of a small mesh at
each requested stretch factor and certifies the result, giving an
empirical table against which the main claims are tested: increasing
trees of a properly stretched mesh always certify as nets, while an
unstretched sliver admits overlapping unfoldings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from . import shapes
from .geometry import EPS
from .mesh import Polyhedron
from .transform import apply_linear, choose_rotation, default_theta_max, required_lambda, rotate
from .tree import SpanningTree, enumerate_spanning_trees, is_increasing, vertex_order
from .unfold import boundary_curve, cut, develop
from .verdict import Status, Verdict
from .verify import _distance_mask, _winding_grid, certify_net, face_centroids


@dataclass(frozen=True)
class CensusRow:
    tree_id: int
    increasing: bool
    verdict: Status
    witnesses: int
    lam: float


def census(
    P: Polyhedron,
    lambdas: Sequence[Union[float, str]] = ("auto",),
    cap: int = 1000,
    seed: int = 0,
    theta_max: Optional[float] = None,
    rotate_first: bool = True,
) -> list[CensusRow]:
    """Unfold and certify every spanning tree (up to ``cap``) per lambda.

    ``"auto"`` resolves a lambda to the one required for ``theta_max``
    (default pi / (20 N)).  With ``rotate_first`` false, lambda = 1 rows
    exercise the mesh exactly as given.  Rows are deterministic and
    ordered by (lambda position, tree id).
    """
    theta = default_theta_max(P) if theta_max is None else float(theta_max)
    R = choose_rotation(P, seed=seed) if rotate_first else np.eye(3)
    P_rot = rotate(P, R) if rotate_first else P

    resolved = [required_lambda(P_rot, theta) if lam == "auto" else float(lam) for lam in lambdas]

    trees = list(enumerate_spanning_trees(P, cap=cap))
    rows = []
    for lam in resolved:
        Q = apply_linear(P, R, lam) if (rotate_first or lam != 1.0) else P
        root = vertex_order(Q).z_max
        for tid, T in enumerate(trees):
            rooted = SpanningTree.from_edges(Q.n_vertices, T.edges, root)
            layout = develop(cut(Q, rooted))
            verdict = certify_net(layout)
            rows.append(
                CensusRow(tid, is_increasing(Q, rooted), verdict.status, len(verdict.witnesses), lam)
            )
    return rows


def census_csv(rows: Sequence[CensusRow]) -> str:
    out = ["tree_id,increasing,verdict,witnesses,lambda"]
    for r in rows:
        out.append(
            f"{r.tree_id},{str(r.increasing).lower()},{r.verdict.value},"
            f"{r.witnesses},{format(r.lam, '.17g')}"
        )
    return "\n".join(out) + "\n"


def overlap_fraction(rows: Sequence[CensusRow], lam: float) -> float:
    """Share of trees whose unfolding overlaps at the given lambda (reported,
    not asserted: no monotonicity in lambda is claimed)."""
    sel = [r for r in rows if r.lam == lam]
    return sum(r.verdict is Status.OVERLAP for r in sel) / len(sel)


# -- matrix-tree count ------------------------------------------------------


def _det_bareiss(M: list[list[int]]) -> int:
    """Exact determinant of an integer matrix via fraction-free elimination."""
    n = len(M)
    if n == 0:
        return 1
    A = [row[:] for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for r in range(k + 1, n):
                if A[r][k] != 0:
                    A[k], A[r] = A[r], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def matrix_tree_count(graph: Union[Mapping[int, Sequence[int]], tuple]) -> int:
    """Number of spanning trees via the Laplacian cofactor (exact integers).

    Accepts an adjacency mapping (as from mesh.edge_graph) or a pair
    (n_vertices, edge list).
    """
    if isinstance(graph, Mapping):
        n = len(graph)
        edges = sorted(
            {(min(u, v), max(u, v)) for u, vs in graph.items() for v in vs}
        )
    else:
        n, edge_list = graph
        edges = [(min(u, v), max(u, v)) for u, v in edge_list]
    L = [[0] * n for _ in range(n)]
    for u, v in edges:
        L[u][u] += 1
        L[v][v] += 1
        L[u][v] -= 1
        L[v][u] -= 1
    minor = [row[1:] for row in L[1:]]
    return _det_bareiss(minor)


# -- overlap search ---------------------------------------------------------


@dataclass
class OverlapExample:
    polyhedron: Polyhedron
    tree: SpanningTree
    layout: object
    verdict: Verdict
    pull: float
    tree_id: int


def find_overlap_tetrahedron(
    n_shapes: int = 50, lam: float = 1.0, require_covered_centroid: bool = False
) -> Optional[OverlapExample]:
    """Search skinny tetrahedra for an unfolding that overlaps.

    Shapes have one vertex pulled along the z-axis by a distance swept
    over ``n_shapes`` samples; each of the 16 spanning trees is unfolded
    at the given lambda (default 1: no stretching) and certified.
    Returns the first overlap found, demonstrating that stretching does
    real work.  With ``require_covered_centroid`` the search continues
    until the doubly covered region contains some face centroid (winding
    number 2 at that probe).
    """
    pulls = np.geomspace(0.02, 40.0, n_shapes)
    for pull in pulls:
        P = shapes.skinny_tetrahedron(float(pull))
        if lam != 1.0:
            P = apply_linear(P, np.eye(3), lam)
        for tid, T in enumerate(enumerate_spanning_trees(P, cap=16)):
            layout = develop(cut(P, T))
            verdict = certify_net(layout)
            if verdict.status is not Status.OVERLAP:
                continue
            if require_covered_centroid and not _covers_a_centroid(layout):
                continue
            return OverlapExample(P, T, layout, verdict, float(pull), tid)
    return None


def _covers_a_centroid(layout) -> bool:
    """Whether some face centroid off the boundary has winding number >= 2."""
    pts = np.asarray(boundary_curve(layout).points, dtype=float)
    c = np.asarray(face_centroids(layout), dtype=float)
    return bool(((_winding_grid(pts, c) >= 2) & _distance_mask(pts, c, EPS)).any())
