"""Convex polyhedron representation, OFF I/O, and intrinsic angles.

A Polyhedron is immutable after construction and validated once, on
ingestion: closed orientable surface with sphere topology, planar convex
faces oriented counterclockwise as seen from outside, every vertex an
extreme point of the hull, and total intrinsic angle below 2*pi at each
vertex.  Coordinates are normalized to unit bounding-box diameter.
Validation is vectorised over flat per-corner arrays, with one Newell
normal per face and the plane test run in blocks of faces.  A linear map
with positive determinant preserves every validated property, so
``Polyhedron.transformed`` shares the combinatorics and maps only the
vertices; vertex-derived data is computed on first use, once per mesh.
"""

from __future__ import annotations

import copy
import itertools
import warnings
from functools import cached_property
from typing import IO, Mapping, NamedTuple, Union

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from . import verdict as vd
from .errors import (
    CoplanarFacesWarning,
    NonPlanarFace,
    NotAnEdge,
    NotClosed,
    NotConvex,
    OffParseError,
)
from .geometry import EPS, TWO_PI

#: Largest number of vertex-plane distances the plane test holds at once.
_PLANE_BLOCK = 1 << 18

#: Cached attributes that depend on the vertex coordinates.
_VERTEX_CACHES = ("corner_angles", "cone_angles", "face_points3d", "face_frames")


class Corners(NamedTuple):
    """Flat per-corner arrays of a face list, faces in order, corners in cycle order."""

    face: np.ndarray    # face id of each corner
    vertex: np.ndarray  # vertex id of each corner
    next: np.ndarray    # next corner of the same face
    prev: np.ndarray    # previous corner of the same face
    start: np.ndarray   # first corner of each face


def _corners(cycles) -> Corners:
    sizes = np.fromiter(map(len, cycles), dtype=np.intp, count=len(cycles))
    start = np.cumsum(sizes) - sizes
    vertex = np.fromiter(itertools.chain.from_iterable(cycles), dtype=np.intp, count=int(sizes.sum()))
    face = np.repeat(np.arange(len(cycles)), sizes)
    first, k = start[face], sizes[face]
    pos = np.arange(len(vertex)) - first
    return Corners(face, vertex, first + (pos + 1) % k, first + (pos - 1) % k, start)


class Polyhedron:
    """Validated convex mesh with derived edge and half-edge structure.

    Attributes
    ----------
    vertices : (V, 3) float array of coordinates.
    faces : tuple of vertex-index cycles, counterclockwise from outside.
    edges : tuple of (u, v) pairs with u < v, sorted.
    edge_faces : per edge, the pair of incident face indices.
    corners : flat per-corner arrays of ``faces`` (see ``Corners``).
    n_edges : edge count (the N of the stretch bound pi / (20 N)).
    """

    def __init__(self, vertices: np.ndarray, faces: tuple, _validated: bool = False):
        if not _validated:
            raise TypeError("use Polyhedron.build(...) or load_off(...)")
        self.vertices = vertices
        self.faces = faces
        self._derive()

    # -- construction -------------------------------------------------

    @classmethod
    def build(cls, vertices, faces, normalize: bool = True) -> "Polyhedron":
        """Validate raw vertex/face data and construct a Polyhedron.

        Faces may arrive with inconsistent winding; each cycle is
        reoriented to counterclockwise-from-outside using the body
        centroid, then rotated so its smallest vertex index comes first.
        The first failing face (or vertex) is named in the exception.
        """
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

        c = _corners(cycles)
        pts, nxt = verts[c.vertex], verts[c.vertex[c.next]]
        d, s = pts - nxt, pts + nxt
        terms = (d[:, 1] * s[:, 2], d[:, 2] * s[:, 0], d[:, 0] * s[:, 1])  # Newell normal
        normal = np.stack([np.bincount(c.face, weights=t) for t in terms], axis=1)
        nrm = np.sqrt((normal * normal).sum(axis=1))
        with np.errstate(divide="ignore", invalid="ignore"):
            normal = normal / nrm[:, None]
            mean = np.stack([np.bincount(c.face, weights=pts[:, j]) for j in range(3)], axis=1)
            mean = mean / np.diff(np.append(c.start, len(pts)))[:, None]
            # planarity: residual against the plane through the corner mean
            dev = np.maximum.reduceat(np.abs(((pts - mean[c.face]) * normal[c.face]).sum(axis=1)), c.start)
            side = ((mean - centroid) * normal).sum(axis=1)
            # convexity: every corner turns the way of the face's own normal
            turn = np.cross(pts - verts[c.vertex[c.prev]], nxt - pts)
            concave = np.minimum.reduceat((turn * normal[c.face]).sum(axis=1), c.start) < -tol
        bad = np.flatnonzero((nrm <= tol) | (dev > tol) | (np.abs(side) <= tol) | concave)
        if bad.size:
            i = int(bad[0])
            if nrm[i] <= tol:
                raise NonPlanarFace(f"face {i} is degenerate (zero area)")
            if dev[i] > tol:
                raise NonPlanarFace(f"face {i} deviates {dev[i]:.3e} from planar (tol {tol:.3e})")
            if abs(side[i]) <= tol:
                raise NotConvex(f"face {i} passes through the body centroid")
            raise ValueError(f"face {i} is not a convex polygon")

        oriented = []
        for cyc, flip in zip(cycles, (side < 0.0).tolist()):
            if flip:
                cyc = cyc[::-1]
            k = cyc.index(min(cyc))
            oriented.append(cyc[k:] + cyc[:k])

        poly = cls(verts, tuple(oriented), _validated=True)
        poly._validate(tol, np.where(side < 0.0, -1.0, 1.0)[:, None] * normal)
        return poly

    def transformed(self, M) -> "Polyhedron":
        """Image under the linear map ``M`` (``v -> M v``), not validated again.

        A positive determinant keeps convexity, planarity, orientation and
        the combinatorics, so faces, edges, half-edges and adjacency are
        shared; any other map raises ValueError.
        """
        M = np.asarray(M, dtype=float)
        if M.shape != (3, 3) or not np.isfinite(M).all():
            raise ValueError("linear map must be a finite 3x3 matrix")
        det = float(np.linalg.det(M))
        if not det > 0.0:
            raise ValueError(f"linear map must have positive determinant, got {det!r}")
        Q = copy.copy(self)
        Q.vertices = self.vertices @ M.T
        for name in _VERTEX_CACHES:
            Q.__dict__.pop(name, None)
        return Q

    def _derive(self):
        half: dict[tuple[int, int], tuple[int, int]] = {}
        for fi, cyc in enumerate(self.faces):
            for pos, (a, b) in enumerate(zip(cyc, cyc[1:] + cyc[:1])):
                if (a, b) in half:
                    raise NotClosed(f"directed edge {a}->{b} appears twice (inconsistent orientation)")
                half[(a, b)] = (fi, pos)
        edge_faces: dict[tuple[int, int], list[int]] = {}
        for (a, b), (fi, _) in half.items():
            edge_faces.setdefault((min(a, b), max(a, b)), []).append(fi)
        for e, fs in edge_faces.items():
            if len(fs) != 2:
                raise NotClosed(f"edge {e} borders {len(fs)} face(s), expected 2")
        self.half = half
        self.edges = tuple(sorted(edge_faces))
        self.edge_index = {e: i for i, e in enumerate(self.edges)}
        self.edge_faces = tuple(tuple(edge_faces[e]) for e in self.edges)
        adj: list[set[int]] = [set() for _ in range(len(self.vertices))]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        self.adjacency = tuple(tuple(sorted(s)) for s in adj)
        self.corners = _corners(self.faces)

    def _validate(self, tol: float, normals: np.ndarray):
        """Global checks; ``normals`` are the outward unit face normals."""
        nv, ne, nf = len(self.vertices), len(self.edges), len(self.faces)
        if nv - ne + nf != 2:
            raise NotClosed(f"Euler characteristic V-E+F = {nv - ne + nf}, expected 2")
        if any(len(a) == 0 for a in self.adjacency):
            raise NotClosed("isolated vertex")
        seen, stack = {0}, [0]
        while stack:
            new = set(self.adjacency[stack.pop()]) - seen
            seen |= new
            stack.extend(new)
        if len(seen) != nv:
            raise NotClosed("edge graph is disconnected")

        # convexity: every vertex inside (or on) every face's supporting plane
        offset = (normals * self.vertices[self.corners.vertex[self.corners.start]]).sum(axis=1)
        block = max(1, _PLANE_BLOCK // nv)
        for lo in range(0, nf, block):
            worst = (self.vertices @ normals[lo : lo + block].T).max(axis=0) - offset[lo : lo + block]
            out = np.flatnonzero(worst > tol)
            if out.size:
                raise NotConvex(
                    f"a vertex lies {worst[out[0]]:.3e} outside the plane of face {lo + int(out[0])}"
                )

        # every vertex is an extreme point of the hull
        try:
            hull = ConvexHull(self.vertices)
        except QhullError as exc:
            raise NotConvex(f"degenerate vertex set: {exc}") from exc
        if len(set(hull.vertices)) != nv:
            missing = sorted(set(range(nv)) - set(hull.vertices))
            raise NotConvex(f"vertices {missing} are not extreme points of the hull")

        # positive curvature at every vertex
        flat = np.flatnonzero(self.cone_angles >= TWO_PI - EPS)
        if flat.size:
            raise NotConvex(f"vertex {int(flat[0])} has total intrinsic angle >= 2*pi")

        # accepted but reported: coplanar neighbors across an edge
        f, g = np.array(self.edge_faces).T
        for i in np.flatnonzero((normals[f] * normals[g]).sum(axis=1) >= 1.0 - 1e-12):
            warnings.warn(
                f"faces {f[i]} and {g[i]} are coplanar across edge {self.edges[i]}; kept unmerged",
                CoplanarFacesWarning,
                stacklevel=3,
            )

    # -- vertex-derived data, computed once per mesh ---------------------

    @cached_property
    def corner_angles(self) -> np.ndarray:
        """Interior angle at every corner, indexed like ``corners``."""
        c = self.corners
        p = self.vertices[c.vertex]
        u = self.vertices[c.vertex[c.next]] - p
        w = self.vertices[c.vertex[c.prev]] - p
        # atan2 form stays accurate for the tiny angles of stretched slivers
        return np.arctan2(np.linalg.norm(np.cross(u, w), axis=1), (u * w).sum(axis=1))

    @cached_property
    def cone_angles(self) -> np.ndarray:
        """Total intrinsic angle around every vertex."""
        return np.bincount(self.corners.vertex, weights=self.corner_angles, minlength=len(self.vertices))

    @cached_property
    def face_points3d(self) -> tuple:
        """Per face, the read-only (k, 3) array of its corner coordinates."""
        pts = self.vertices[self.corners.vertex]
        pts.flags.writeable = False
        return tuple(np.split(pts, self.corners.start[1:]))

    @cached_property
    def face_frames(self) -> tuple:
        """Per face, its isometric 2D coordinates (``local_coords``), read-only."""
        frames = tuple(local_coords(p) for p in self.face_points3d)
        for fr in frames:
            fr.flags.writeable = False
        return frames

    # -- queries -------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @property
    def x(self) -> np.ndarray:
        return self.vertices[:, 0]

    def edge_vector(self, e: tuple[int, int]) -> np.ndarray:
        return self.vertices[e[1]] - self.vertices[e[0]]

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edge_index

    def corner_angle(self, face: int, pos: int) -> float:
        """Interior angle of ``face`` at cycle position ``pos``."""
        return float(self.corner_angles[self.corners.start[face] + pos % len(self.faces[face])])

    def ccw_neighbor(self, a: int, b: int) -> tuple[int, int]:
        """From edge a->b, the next neighbor of ``a`` counterclockwise (seen from outside).

        Returns (next_vertex, face crossed), where the face is the one
        containing the directed edge a->b.
        """
        fi, pos = self.half[(a, b)]
        cyc = self.faces[fi]
        prev = cyc[(pos - 1) % len(cyc)]
        return prev, fi

    def vertex_star(self, a: int) -> tuple[int, ...]:
        """Neighbors of ``a`` in counterclockwise order (seen from outside)."""
        b0 = self.adjacency[a][0]
        star = [b0]
        cur = b0
        while True:
            cur, _ = self.ccw_neighbor(a, cur)
            if cur == b0:
                break
            star.append(cur)
            if len(star) > len(self.adjacency[a]):
                raise NotClosed(f"vertex {a} has a broken edge fan")
        return tuple(star)

    def cone_angle(self, a: int) -> float:
        """Total intrinsic angle around vertex ``a``."""
        return float(self.cone_angles[a])


def local_coords(pts3d: np.ndarray) -> np.ndarray:
    """Isometric 2D coordinates of a planar face, orientation preserved.

    The basis is chosen right-handed with respect to the outward normal,
    so a counterclockwise-from-outside cycle stays counterclockwise.
    """
    origin = pts3d[0]
    u = pts3d[1] - origin
    u = u / np.linalg.norm(u)
    n = _cross3(u, pts3d[2] - origin)
    for q in pts3d[3:]:
        if np.linalg.norm(n) > 1e-12 * np.linalg.norm(q - origin):
            break
        n = _cross3(u, q - origin)
    n = n / np.linalg.norm(n)
    w = _cross3(n, u)
    rel = pts3d - origin
    return np.stack([rel @ u, rel @ w], axis=1)


def _cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.cross's own products and differences, without its per-call overhead
    return np.array([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]])


# -- OFF format ---------------------------------------------------------


def load_off(source: Union[str, bytes, IO]) -> Polyhedron:
    """Parse ASCII OFF text into a validated, normalized Polyhedron.

    Accepts a string, bytes, or a readable file object.  The edge count
    field is ignored and recomputed.  Comment lines (``#``) and blank
    lines are skipped.  Parse failures report the 1-based line number.
    """
    text = source.read() if hasattr(source, "read") else source
    if isinstance(text, bytes):
        text = text.decode("utf-8")

    lines = [(no, raw.split("#", 1)[0].strip()) for no, raw in enumerate(text.splitlines(), start=1)]
    lines = [(no, payload) for no, payload in lines if payload]

    if not lines:
        raise OffParseError(1, "empty input")
    it = iter(lines)
    no, header = next(it)
    if header != "OFF":
        raise OffParseError(no, f"expected 'OFF' header, got {header!r}")
    try:
        no, counts = next(it)
    except StopIteration:
        raise OffParseError(no, "missing vertex/face/edge counts") from None
    parts = counts.split()
    if len(parts) != 3:
        raise OffParseError(no, "expected 'V F E' counts")
    try:
        nv, nf = int(parts[0]), int(parts[1])
        int(parts[2])
    except ValueError:
        raise OffParseError(no, f"bad counts {counts!r}") from None

    verts = []
    for _ in range(nv):
        try:
            no, row = next(it)
        except StopIteration:
            raise OffParseError(no, f"expected {nv} vertex lines, file ended early") from None
        toks = row.split()
        if len(toks) != 3:
            raise OffParseError(no, f"expected 3 coordinates, got {len(toks)}")
        try:
            verts.append([float(t) for t in toks])
        except ValueError:
            raise OffParseError(no, f"bad coordinate in {row!r}") from None

    faces = []
    for _ in range(nf):
        try:
            no, row = next(it)
        except StopIteration:
            raise OffParseError(no, f"expected {nf} face lines, file ended early") from None
        toks = row.split()
        try:
            k = int(toks[0])
            idx = [int(t) for t in toks[1:]]
        except ValueError:
            raise OffParseError(no, f"bad face line {row!r}") from None
        if len(idx) != k:
            raise OffParseError(no, f"face declares {k} vertices but lists {len(idx)}")
        faces.append(tuple(idx))

    return Polyhedron.build(np.array(verts, dtype=float), faces, normalize=True)


def export_off(P: Polyhedron) -> str:
    """Serialize a Polyhedron to OFF text (17-significant-digit floats)."""
    out = ["OFF", f"{P.n_vertices} {P.n_faces} {P.n_edges}"]
    for v in P.vertices:
        out.append(" ".join(format(float(c), ".17g") for c in v))
    for cyc in P.faces:
        out.append(str(len(cyc)) + " " + " ".join(str(i) for i in cyc))
    return "\n".join(out) + "\n"


# -- intrinsic angles ----------------------------------------------------


def intrinsic_angle(P: Polyhedron, a: int, b: int, c: int) -> float:
    """Surface angle at ``a`` swept counterclockwise from edge ab to edge ac.

    The sweep direction is counterclockwise as seen from outside; the
    result is the sum of the face-corner angles crossed, in [0, 2*pi).
    """
    for other in (b, c):
        if not P.has_edge(a, other):
            raise NotAnEdge(f"({a}, {other}) is not an edge")
    if b == c:
        return 0.0
    total = 0.0
    cur = b
    for _ in range(len(P.adjacency[a]) + 1):
        nxt, face = P.ccw_neighbor(a, cur)
        total += P.corner_angle(face, P.faces[face].index(a))
        cur = nxt
        if cur == c:
            return total
    raise NotAnEdge(f"edge ({a}, {c}) not reachable in the fan of {a}")


def check_alexandrov(P: Polyhedron) -> vd.Verdict:
    """Check that every vertex has total intrinsic angle strictly below 2*pi.

    Equivalently, for every pair of edges ab, ac the two intrinsic angles
    between them sum below 2*pi.  Returns a witness triple on violation.
    """
    flat = np.flatnonzero(P.cone_angles >= TWO_PI - EPS)
    if flat.size:
        a = int(flat[0])
        star = P.vertex_star(a)
        w = vd.Witness(note=f"vertex {a}: angle {P.cone_angle(a)!r} via edges to {star[0]} and {star[1 % len(star)]}")
        return vd.Verdict(vd.Status.PRECONDITION_FAILURE, (w,), {"alexandrov": False})
    return vd.Verdict(vd.Status.NET, (), {"alexandrov": True})


def edge_graph(P: Polyhedron) -> Mapping[int, tuple[int, ...]]:
    """Undirected vertex adjacency of the mesh (connected, N edges)."""
    return {v: P.adjacency[v] for v in range(P.n_vertices)}
