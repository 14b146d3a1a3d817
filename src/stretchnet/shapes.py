"""Canonical convex polyhedra used by tests, experiments, and the docs.

Face cycles are recovered from the vertex sets by merging coplanar
triangles of the convex hull, so the tables below only pin coordinates.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import ConvexHull

from .mesh import Polyhedron

_PHI = (1.0 + math.sqrt(5.0)) / 2.0


def faces_from_hull(points: np.ndarray, tol: float = 1e-8) -> list[tuple[int, ...]]:
    """Face cycles of the convex hull of ``points``, coplanar triangles merged.

    Hull simplices are oriented outward, neighbouring simplices whose
    plane equations agree within ``tol`` are merged with a union-find,
    and each group's once-used directed edges are chained into a single
    cycle.  Faces are listed in the order of their first hull simplex.
    """
    pts = np.asarray(points, dtype=float)
    hull = ConvexHull(pts)
    tris = []
    for simplex, eq in zip(hull.simplices, hull.equations):
        a, b, c = (int(i) for i in simplex)
        n = eq[:3]
        if float(np.cross(pts[b] - pts[a], pts[c] - pts[a]) @ n) < 0.0:
            b, c = c, b
        tris.append((a, b, c))

    parent = list(range(len(tris)))

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    nbr = hull.neighbors
    own = np.repeat(np.arange(len(tris)), nbr.shape[1])
    other = nbr.ravel()
    coplanar = np.abs(hull.equations[own] - hull.equations[other]).max(axis=1) <= tol
    for t, u in zip(own[coplanar].tolist(), other[coplanar].tolist()):
        rt, ru = find(t), find(u)
        if rt != ru:
            parent[max(rt, ru)] = min(rt, ru)

    groups: dict[int, list[tuple[int, int, int]]] = {}
    for t, tri in enumerate(tris):
        groups.setdefault(find(t), []).append(tri)

    faces = []
    for members in groups.values():
        counts: dict[tuple[int, int], int] = {}
        for a, b, c in members:
            for u, v in ((a, b), (b, c), (c, a)):
                counts[(u, v)] = counts.get((u, v), 0) + 1
        nxt = {}
        for (u, v), cnt in counts.items():
            if cnt == 1 and counts.get((v, u), 0) == 0:
                nxt[u] = v
        start = min(nxt)
        cycle = [start]
        cur = nxt[start]
        while cur != start:
            cycle.append(cur)
            cur = nxt[cur]
        faces.append(tuple(cycle))
    return faces


def _from_points(points) -> Polyhedron:
    pts = np.asarray(points, dtype=float)
    return Polyhedron.build(pts, faces_from_hull(pts), normalize=True)


def tetrahedron() -> Polyhedron:
    """Regular tetrahedron (alternate cube corners)."""
    return _from_points(
        [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    )


def cube() -> Polyhedron:
    return _from_points([(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])


def octahedron() -> Polyhedron:
    return _from_points(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    )


def icosahedron() -> Polyhedron:
    pts = []
    for a in (-1.0, 1.0):
        for b in (-_PHI, _PHI):
            pts += [(0.0, a, b), (a, b, 0.0), (b, 0.0, a)]
    return _from_points(pts)


def dodecahedron() -> Polyhedron:
    pts = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    for a in (-1 / _PHI, 1 / _PHI):
        for b in (-_PHI, _PHI):
            pts += [(0.0, a, b), (a, b, 0.0), (b, 0.0, a)]
    return _from_points(pts)


def platonic_solids() -> dict[str, Polyhedron]:
    return {
        "tetrahedron": tetrahedron(),
        "cube": cube(),
        "octahedron": octahedron(),
        "dodecahedron": dodecahedron(),
        "icosahedron": icosahedron(),
    }


def skinny_tetrahedron(pull: float) -> Polyhedron:
    """Thin tetrahedron strung along the z-axis, top vertex pulled ``pull`` beyond.

    The first three vertices sit near the axis at heights 0, 1, 2; the
    fourth is pulled to height 2 + ``pull``.  Small lateral offsets keep
    the shape generic (non-degenerate, no exact symmetries).
    """
    return _from_points(
        [
            (0.0, 0.0, 0.0),
            (0.3, 0.1, 1.0),
            (0.12, 0.28, 2.0),
            (0.2, 0.15, 2.0 + pull),
        ]
    )


def random_hull(n_points: int, seed: int) -> Polyhedron:
    """Convex hull of ``n_points`` pseudo-random points on the unit sphere."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n_points, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return _from_points(pts)
