"""Benchmark inputs: OFF documents written by the benchmark itself.

Random hulls are the convex hulls of points drawn uniformly on the unit
sphere and triangulated with ``scipy.spatial.ConvexHull``; the Platonic
solids come from the repository's ``data/*.off``.  The program under test
only ever receives the OFF text.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull

PLATONIC = ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron")


def sphere_hull(rng: np.random.Generator, n: int) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """Vertices and outward-oriented triangles of the hull of ``n`` sphere points."""
    pts = rng.normal(size=(n, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    hull = ConvexHull(pts)
    if len(hull.vertices) != n:
        raise ValueError(f"only {len(hull.vertices)} of {n} sphere points are hull vertices")
    tris = []
    for (a, b, c), eq in zip(hull.simplices, hull.equations):
        a, b, c = int(a), int(b), int(c)
        if float(np.cross(pts[b] - pts[a], pts[c] - pts[a]) @ eq[:3]) < 0.0:
            b, c = c, b
        tris.append((a, b, c))
    return pts, tris


def off_text(vertices: np.ndarray, faces) -> str:
    out = ["OFF", f"{len(vertices)} {len(faces)} 0"]
    out += [" ".join(format(float(c), ".17g") for c in v) for v in vertices]
    out += [f"{len(f)} " + " ".join(str(i) for i in f) for f in faces]
    return "\n".join(out) + "\n"


def parse_off(text: str) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Vertices and face cycles of a plain OFF document (no comments)."""
    rows = [ln.split() for ln in text.splitlines() if ln.strip()]
    nv, nf = int(rows[1][0]), int(rows[1][1])
    verts = np.array([[float(t) for t in r] for r in rows[2:2 + nv]])
    faces = [tuple(int(t) for t in r[1:]) for r in rows[2 + nv:2 + nv + nf]]
    return verts, faces


def platonic_off(root: Path, name: str) -> str:
    return (root / "data" / f"{name}.off").read_text()
