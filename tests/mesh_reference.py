"""Per-face reference for mesh validation, kept for the equivalence test.

This is the scalar validator that ``Polyhedron.build`` replaced: every
check loops over faces or vertices in Python and recomputes each face's
Newell normal where it needs it.  ``reference_build`` runs the same
checks in the same order and returns the accepted mesh's data instead of
a Polyhedron, so ``tests/test_mesh_equivalence.py`` can compare the two
on every input.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from stretchnet.errors import CoplanarFacesWarning, NonPlanarFace, NotClosed, NotConvex
from stretchnet.geometry import EPS, TWO_PI


class ReferenceMesh(NamedTuple):
    vertices: np.ndarray
    faces: tuple
    edges: tuple
    edge_faces: tuple
    adjacency: tuple
    cone_angles: tuple


def reference_build(vertices, faces, normalize: bool = True) -> ReferenceMesh:
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 3:
        raise ValueError("vertices must be an (V, 3) array")
    if not np.isfinite(verts).all():
        raise ValueError("vertex coordinates must be finite")
    nv = len(verts)
    if nv < 4:
        raise NotClosed("a closed polyhedron needs at least 4 vertices")

    cycles = []
    for i, f in enumerate(faces):
        cyc = tuple(int(v) for v in f)
        if len(cyc) < 3:
            raise ValueError(f"face {i} has fewer than 3 vertices")
        if len(set(cyc)) != len(cyc):
            raise ValueError(f"face {i} repeats a vertex")
        if min(cyc) < 0 or max(cyc) >= nv:
            raise ValueError(f"face {i} references a missing vertex")
        cycles.append(cyc)

    if normalize:
        lo, hi = verts.min(axis=0), verts.max(axis=0)
        diag = float(np.linalg.norm(hi - lo))
        if diag <= 0.0:
            raise NotConvex("all vertices coincide")
        verts = (verts - (lo + hi) / 2.0) / diag

    centroid = verts.mean(axis=0)
    diameter = float(np.linalg.norm(verts.max(axis=0) - verts.min(axis=0)))
    tol = EPS * diameter

    oriented = []
    for i, cyc in enumerate(cycles):
        pts = verts[list(cyc)]
        normal = newell_normal(pts)
        nrm = np.linalg.norm(normal)
        if nrm <= tol:
            raise NonPlanarFace(f"face {i} is degenerate (zero area)")
        normal = normal / nrm
        rel = pts - pts.mean(axis=0)
        dev = float(np.abs(rel @ normal).max())
        if dev > tol:
            raise NonPlanarFace(f"face {i} deviates {dev:.3e} from planar (tol {tol:.3e})")
        side = float(normal @ (pts.mean(axis=0) - centroid))
        if abs(side) <= tol:
            raise NotConvex(f"face {i} passes through the body centroid")
        if side < 0.0:
            cyc = tuple(reversed(cyc))
            normal = -normal
        if not face_is_convex(verts[list(cyc)], normal, tol):
            raise ValueError(f"face {i} is not a convex polygon")
        k = cyc.index(min(cyc))
        oriented.append(cyc[k:] + cyc[:k])
    faces = tuple(oriented)

    half, edges, edge_faces, adjacency = derive(nv, faces)
    cones = validate(verts, faces, edges, edge_faces, adjacency, tol)
    return ReferenceMesh(verts, faces, edges, edge_faces, adjacency, cones)


def derive(nv: int, faces: tuple):
    half = {}
    for fi, cyc in enumerate(faces):
        k = len(cyc)
        for pos in range(k):
            a, b = cyc[pos], cyc[(pos + 1) % k]
            if (a, b) in half:
                raise NotClosed(f"directed edge {a}->{b} appears twice (inconsistent orientation)")
            half[(a, b)] = (fi, pos)
    edge_faces = {}
    for (a, b), (fi, _) in half.items():
        edge_faces.setdefault((min(a, b), max(a, b)), []).append(fi)
    for e, fs in edge_faces.items():
        if len(fs) != 2:
            raise NotClosed(f"edge {e} borders {len(fs)} face(s), expected 2")
    edges = tuple(sorted(edge_faces))
    adj = [set() for _ in range(nv)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return (
        half,
        edges,
        tuple(tuple(edge_faces[e]) for e in edges),
        tuple(tuple(sorted(s)) for s in adj),
    )


def validate(verts, faces, edges, edge_faces, adjacency, tol) -> tuple:
    nv, ne, nf = len(verts), len(edges), len(faces)
    if nv - ne + nf != 2:
        raise NotClosed(f"Euler characteristic V-E+F = {nv - ne + nf}, expected 2")
    if any(len(a) == 0 for a in adjacency):
        raise NotClosed("isolated vertex")
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in adjacency[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    if len(seen) != nv:
        raise NotClosed("edge graph is disconnected")

    for fi, cyc in enumerate(faces):
        pts = verts[list(cyc)]
        normal = newell_normal(pts)
        normal = normal / np.linalg.norm(normal)
        offset = float(normal @ pts[0])
        worst = float((verts @ normal).max()) - offset
        if worst > tol:
            raise NotConvex(f"a vertex lies {worst:.3e} outside the plane of face {fi}")

    try:
        hull = ConvexHull(verts)
    except QhullError as exc:
        raise NotConvex(f"degenerate vertex set: {exc}") from exc
    if len(set(hull.vertices)) != nv:
        missing = sorted(set(range(nv)) - set(hull.vertices))
        raise NotConvex(f"vertices {missing} are not extreme points of the hull")

    cones = tuple(cone_angle(verts, faces, v) for v in range(nv))
    for v in range(nv):
        if cones[v] >= TWO_PI - EPS:
            raise NotConvex(f"vertex {v} has total intrinsic angle >= 2*pi")

    for e, (f, g) in zip(edges, edge_faces):
        nf_ = newell_normal(verts[list(faces[f])])
        ng_ = newell_normal(verts[list(faces[g])])
        cosang = float(nf_ @ ng_ / (np.linalg.norm(nf_) * np.linalg.norm(ng_)))
        if cosang >= 1.0 - 1e-12:
            warnings.warn(
                f"faces {f} and {g} are coplanar across edge {e}; kept unmerged",
                CoplanarFacesWarning,
                stacklevel=3,
            )
    return cones


def cone_angle(verts, faces, a: int) -> float:
    total = 0.0
    for cyc in faces:
        if a in cyc:
            k, pos = len(cyc), cyc.index(a)
            p = verts[cyc[pos]]
            u = verts[cyc[(pos + 1) % k]] - p
            w = verts[cyc[(pos - 1) % k]] - p
            total += math.atan2(float(np.linalg.norm(np.cross(u, w))), float(u @ w))
    return total


def newell_normal(pts: np.ndarray) -> np.ndarray:
    nxt = np.roll(pts, -1, axis=0)
    return np.array(
        [
            float(((pts[:, 1] - nxt[:, 1]) * (pts[:, 2] + nxt[:, 2])).sum()),
            float(((pts[:, 2] - nxt[:, 2]) * (pts[:, 0] + nxt[:, 0])).sum()),
            float(((pts[:, 0] - nxt[:, 0]) * (pts[:, 1] + nxt[:, 1])).sum()),
        ]
    )


def face_is_convex(pts: np.ndarray, normal: np.ndarray, tol: float) -> bool:
    k = len(pts)
    for i in range(k):
        u = pts[(i + 1) % k] - pts[i]
        w = pts[(i + 2) % k] - pts[(i + 1) % k]
        if float(np.cross(u, w) @ normal) < -tol:
            return False
    return True
