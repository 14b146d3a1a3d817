"""Output checks written apart from the program under test.

Nothing here imports ``stretchnet``: every predicate (edge angles, tree
shape, congruence, segment contact, winding numbers, areas, spanning-tree
counts) is computed again from plain arrays, so a fault in the program's
geometry cannot hide itself by also being in the check.  Each check
returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

#: Contact tolerance used to confirm an ``overlap`` verdict: the program's
#: documented default, touching within 1e-9 counts as a collision.
CONTACT_TOL = 1e-9

#: Relative tolerance of the congruence, gluing and closure checks.
REL_TOL = 1e-9

#: Rows of segment pairs the brute-force contact test handles at once.
CHUNK = 256


def mesh_edges(faces: Iterable[Sequence[int]]) -> list[tuple[int, int]]:
    """Sorted undirected edges (u < v) of a list of face cycles."""
    out = set()
    for f in faces:
        for k, a in enumerate(f):
            b = f[(k + 1) % len(f)]
            out.add((min(a, b), max(a, b)))
    return sorted(out)


def normalise(vertices: np.ndarray) -> np.ndarray:
    """Vertices moved so their bounding box is centred on the origin and
    scaled to a bounding-box diagonal of 1: the documented ingest."""
    V = np.asarray(vertices, dtype=float)
    lo, hi = V.min(axis=0), V.max(axis=0)
    return (V - (lo + hi) / 2.0) / float(np.linalg.norm(hi - lo))


def check_ingest(raw: np.ndarray, ingested: np.ndarray) -> list[str]:
    """The program's ingested vertices are the raw OFF vertices, normalised."""
    want = normalise(raw)
    if np.shape(ingested) != want.shape:
        return [f"{len(ingested)} ingested vertices for {len(want)} in the OFF document"]
    err = float(np.abs(np.asarray(ingested, dtype=float) - want).max())
    if err > REL_TOL:
        return [f"ingested vertices differ from the normalised OFF vertices by {err:.3e}"]
    return []


def stretch_matrix(rotation, lam: float) -> np.ndarray:
    return np.diag([float(lam), 1.0, 1.0]) @ np.asarray(rotation, dtype=float)


def surface_area(vertices: np.ndarray, faces: Iterable[Sequence[int]]) -> float:
    """Total area of planar faces, each split into a fan of triangles."""
    total = 0.0
    for f in faces:
        p = vertices[list(f)]
        cross = np.cross(p[1:-1] - p[0], p[2:] - p[0])
        total += 0.5 * float(np.linalg.norm(cross.sum(axis=0)))
    return total


def spanning_tree_count(n_vertices: int, edges: Sequence[tuple[int, int]]) -> int:
    """Matrix-tree theorem: any cofactor of the graph Laplacian."""
    L = np.zeros((n_vertices, n_vertices))
    for u, v in edges:
        L[u, u] += 1.0
        L[v, v] += 1.0
        L[u, v] -= 1.0
        L[v, u] -= 1.0
    return int(round(float(np.linalg.det(L[1:, 1:]))))


# -- stretch and tree -------------------------------------------------------


def check_stretch_bound(vertices: np.ndarray, edges, matrix: np.ndarray, theta: float) -> list[str]:
    """Every edge of ``matrix @ vertices`` lies within ``theta`` of the x-axis."""
    d = np.array([vertices[b] - vertices[a] for a, b in edges]) @ np.asarray(matrix).T
    angle = np.arctan2(np.hypot(d[:, 1], d[:, 2]), np.abs(d[:, 0]))
    worst = int(np.argmax(angle))
    if angle[worst] >= theta:
        return [f"edge {edges[worst]} at {float(angle[worst])!r} rad >= theta {theta!r}"]
    return []


def check_tree(parent: Sequence[int], root: int, edges, x: np.ndarray) -> list[str]:
    """``parent`` is a spanning tree of mesh edges, increasing in ``x`` towards ``root``."""
    n = len(parent)
    problems = []
    edge_set = set(edges)
    tree = [(v, p) for v, p in enumerate(parent) if v != root]
    if parent[root] != root or len(tree) != n - 1:
        problems.append(f"{len(tree)} tree edges for {n} vertices")
    for v, p in tree:
        if (min(v, p), max(v, p)) not in edge_set:
            problems.append(f"tree edge ({v}, {p}) is not a mesh edge")
        elif not x[p] > x[v]:
            problems.append(f"tree edge {v} -> {p} does not increase in x")
    if problems:
        return problems
    depth = {root: 0}
    for v in range(n):
        path = []
        while v not in depth and len(path) <= n:
            path.append(v)
            v = parent[v]
        if v not in depth:
            return [f"vertex {path[0]} never reaches the root"]
        for k, u in enumerate(reversed(path), start=1):
            depth[u] = depth[v] + k
    return []


# -- developed faces --------------------------------------------------------


def _pairwise(p: np.ndarray) -> np.ndarray:
    return np.linalg.norm(p[:, None, :] - p[None, :, :], axis=2)


def check_faces(
    face_points: Sequence, faces: Sequence[Sequence[int]], stretched: np.ndarray,
    cut_edges,
) -> list[str]:
    """Each developed face is congruent to its stretched 3D face (all sides
    and diagonals), and the two faces of every uncut edge place its
    endpoints at the same points."""
    problems = []
    scale = 1.0
    corner, owners = {}, {}
    for f, (pts, cyc) in enumerate(zip(face_points, faces)):
        p2 = np.asarray(pts, dtype=float)
        scale = max(scale, float(np.abs(p2).max()))
        d2, d3 = _pairwise(p2), _pairwise(stretched[list(cyc)])
        err = float(np.abs(d2 - d3).max())
        if err > REL_TOL * float(d3.max()):
            problems.append(f"face {f} is not congruent (distance error {err:.3e})")
        for k, v in enumerate(cyc):
            corner[(f, v)] = p2[k]
            w = cyc[(k + 1) % len(cyc)]
            owners.setdefault((min(v, w), max(v, w)), []).append(f)
    cut = set(cut_edges)
    for e, fs in owners.items():
        if e in cut or len(fs) != 2:
            continue
        f, g = fs
        gap = max(float(np.linalg.norm(corner[(f, v)] - corner[(g, v)])) for v in e)
        if gap > REL_TOL * scale:
            problems.append(f"uncut edge {e} is torn between faces {f} and {g} by {gap:.3e}")
    return problems


def assemble_boundary(face_points: Sequence, faces: Sequence[Sequence[int]], records) -> tuple[np.ndarray, float]:
    """Closed boundary polyline from ``(face, tail, head)`` records, and the
    largest gap between one segment's head and the next segment's tail."""
    tails, heads = [], []
    for f, tail, head in records:
        cyc = list(faces[f])
        tails.append(face_points[f][cyc.index(tail)])
        heads.append(face_points[f][cyc.index(head)])
    tails = np.asarray(tails, dtype=float)
    heads = np.asarray(heads, dtype=float)
    gap = float(np.linalg.norm(heads - np.roll(tails, -1, axis=0), axis=1).max())
    return tails, gap


# -- contacts, winding, area ------------------------------------------------


def _cross(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    return u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0]


def _point_segment(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = b - a
    L2 = np.maximum((d * d).sum(axis=-1), 1e-300)
    t = np.clip(((p - a) * d).sum(axis=-1) / L2, 0.0, 1.0)
    return np.linalg.norm(p - (a + t[..., None] * d), axis=-1)


def contacts(points: np.ndarray, tol: float) -> list[tuple[int, int]]:
    """Brute force over every pair of segments of a closed polyline.

    Non-adjacent segments collide when they cross or come within ``tol``;
    adjacent ones when either folds back onto the other beyond their
    shared corner.  Every pair's bounding boxes, grown by ``tol``, are
    compared; only pairs whose boxes meet are measured exactly.  Rows go
    CHUNK at a time to bound memory.
    """
    A = np.asarray(points, dtype=float)
    B = np.roll(A, -1, axis=0)
    m = len(A)
    lo_xy, hi_xy = np.minimum(A, B) - tol, np.maximum(A, B) + tol
    found = []
    for lo in range(0, m, CHUNK):
        i = np.arange(lo, min(lo + CHUNK, m))[:, None]
        j = np.arange(lo, m)[None, :]
        boxes_meet = (
            (lo_xy[i, 0] <= hi_xy[j, 0]) & (lo_xy[j, 0] <= hi_xy[i, 0])
            & (lo_xy[i, 1] <= hi_xy[j, 1]) & (lo_xy[j, 1] <= hi_xy[i, 1])
        )
        nonadjacent = (j > i + 1) & ~((i == 0) & (j == m - 1))
        ii, jj = np.nonzero(boxes_meet & nonadjacent)
        p, q = i[ii, 0], j[0, jj]
        a, b, c, d = A[p], B[p], A[q], B[q]
        crossing = (_cross(b - a, c - a) * _cross(b - a, d - a) < 0) & (
            _cross(d - c, a - c) * _cross(d - c, b - c) < 0
        )
        dist = np.minimum(
            np.minimum(_point_segment(c, a, b), _point_segment(d, a, b)),
            np.minimum(_point_segment(a, c, d), _point_segment(b, c, d)),
        )
        hit = crossing | (dist <= tol)
        found += list(zip(p[hit].tolist(), q[hit].tolist()))
    # segment k (A -> B) and its successor (B -> D): the far ends must stay clear
    D = np.roll(B, -1, axis=0)
    fold = (_point_segment(D, A, B) <= tol) | (_point_segment(A, B, D) <= tol)
    found += [(min(k, (k + 1) % m), max(k, (k + 1) % m)) for k in np.nonzero(fold)[0].tolist()]
    return sorted(found)


def winding_angle_sum(points: np.ndarray, p) -> int:
    """Winding number of a closed polyline around ``p``: the summed signed
    angles its segments subtend at ``p``, over 2*pi."""
    A = np.asarray(points, dtype=float) - np.asarray(p, dtype=float)
    B = np.roll(A, -1, axis=0)
    total = float(np.arctan2(_cross(A, B), (A * B).sum(axis=1)).sum())
    return int(round(total / (2.0 * math.pi)))


def centroids(face_points: Sequence) -> list[tuple[float, float]]:
    """Vertex centroid of each developed face."""
    return [tuple(np.asarray(pts, dtype=float).mean(axis=0)) for pts in face_points]


def shoelace_area(points: np.ndarray) -> float:
    P = np.asarray(points, dtype=float)
    return 0.5 * float(_cross(P, np.roll(P, -1, axis=0)).sum())


def check_net(points: np.ndarray, gap: float, area: float) -> list[str]:
    """A ``net`` verdict holds: the boundary is closed, no two of its
    segments come within CONTACT_TOL, and it encloses the stretched surface
    area."""
    problems = []
    scale = max(1.0, float(np.abs(points).max()))
    if gap > REL_TOL * scale:
        problems.append(f"boundary is torn by {gap:.3e}")
    hits = contacts(points, CONTACT_TOL)
    if hits:
        problems.append(f"{len(hits)} segment contact(s), first {hits[0]}")
    enclosed = shoelace_area(points)
    if abs(enclosed - area) > 1e-6 * area:
        problems.append(f"boundary encloses {enclosed!r}, surface area is {area!r}")
    return problems


def overlaps(points: np.ndarray, probes: Iterable) -> bool:
    """Whether two segments collide within CONTACT_TOL, or some probe point
    off the curve is wound around at least twice: what makes a verdict
    ``overlap``."""
    if contacts(points, CONTACT_TOL):
        return True
    A = np.asarray(points, dtype=float)
    B = np.roll(A, -1, axis=0)
    for p in probes:
        p = np.asarray(p, dtype=float)
        if _point_segment(p, A, B).min() > CONTACT_TOL and winding_angle_sum(A, p) >= 2:
            return True
    return False
