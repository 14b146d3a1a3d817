"""Convex polyhedron representation and OFF I/O.

A Polyhedron is immutable after construction and validated once, on
ingestion: closed orientable surface with sphere topology, planar convex
faces oriented counterclockwise as seen from outside, every vertex inside
every face's plane, and every cone angle (the sum of a vertex's corner
angles) below 2*pi.  The last two make every vertex extreme, since one
that is not has a flat star of cone angle 2*pi, so no hull is computed.
Coordinates are normalized to unit bounding-box diameter.  Validation is
vectorised over flat per-corner arrays, with one Newell normal per face
and the plane test run in blocks of faces.  A linear map with positive
determinant preserves every validated property, so
``Polyhedron.transformed`` shares the combinatorics and maps only the
vertices; vertex-derived data is computed on first use, once per mesh.
Each face's planar frame is computed once, in one cache
(``Polyhedron.face_frames``), from stacks of equal-size faces gathered
straight from the corner arrays.

The corner arrays are the mesh's one half-edge structure.  Corner ``c``
runs from ``vertex[c]`` to ``vertex[next[c]]`` in face ``face[c]``, at
position ``c - start[face[c]]`` of its cycle, and ``twin[c]`` is the
corner of the neighbouring face that runs the other way.  Twins, edges,
edge faces and adjacency all come from one sort of the directed edges.
"""

from __future__ import annotations

import copy
import itertools
import warnings
from functools import cached_property
from typing import IO, NamedTuple, Optional, Union

import numpy as np

from .errors import (
    CoplanarFacesWarning,
    NonPlanarFace,
    NotClosed,
    NotConvex,
    OffParseError,
)
from .geometry import EPS, TWO_PI

#: Largest number of vertex-plane distances the plane test holds at once.
_PLANE_BLOCK = 1 << 18

#: Cached attributes that depend on the vertex coordinates.
_VERTEX_CACHES = ("corner_angles", "cone_angles", "face_frames", "edge_vectors")


class Corners(NamedTuple):
    """Flat per-corner arrays of a face list, faces in order, corners in cycle order."""

    face: np.ndarray    # face id of each corner
    vertex: np.ndarray  # vertex id of each corner
    next: np.ndarray    # next corner of the same face
    prev: np.ndarray    # previous corner of the same face
    start: np.ndarray   # first corner of each face
    twin: Optional[np.ndarray] = None  # corner running the other way (set by Polyhedron)


class WalkPlan(NamedTuple):
    """The corner arrays as tuples, for walks that step one corner at a time."""

    face: tuple
    start: tuple
    next: tuple
    twin: tuple
    vertex: tuple
    by_neighbour: tuple  # per face, its corners in order of the face across them


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
    edge_ends : (E, 2) int array of ``edges``.
    corners : flat per-corner arrays of ``faces`` with their ``twin``
        corners, the half-edges of the mesh (see ``Corners``).
    plan : the same corners as tuples, for per-tree walks (see ``WalkPlan``).
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
        """Twin corners, edges, edge faces and adjacency from one sort of
        the directed-edge keys ``tail * V + head``."""
        c = _corners(self.faces)
        nv = len(self.vertices)
        tail, head = c.vertex, c.vertex[c.next]
        key = tail * nv + head
        order = np.argsort(key, kind="stable")
        keys = key[order]
        repeats = order[1:][keys[1:] == keys[:-1]]
        if repeats.size:
            k = int(repeats.min())
            raise NotClosed(f"directed edge {int(tail[k])}->{int(head[k])} appears twice (inconsistent orientation)")
        back = head * nv + tail
        at = np.minimum(np.searchsorted(keys, back), len(keys) - 1)
        lone = np.flatnonzero(keys[at] != back)
        if lone.size:
            k = int(lone[0])
            e = (int(min(tail[k], head[k])), int(max(tail[k], head[k])))
            raise NotClosed(f"edge {e} borders 1 face(s), expected 2")
        twin = order[at]
        self.corners = c._replace(twin=twin)
        # in key order, the corners that run from the smaller vertex are the sorted edges
        ec = order[tail[order] < head[order]]
        self.edge_ends = np.stack([tail[ec], head[ec]], axis=1)
        self.edges = tuple(map(tuple, self.edge_ends.tolist()))
        first, second = np.minimum(ec, twin[ec]), np.maximum(ec, twin[ec])
        self.edge_faces = tuple(zip(c.face[first].tolist(), c.face[second].tolist()))
        # the sorted keys, grouped by tail, list each vertex's neighbours in order
        ends = np.cumsum(np.bincount(tail, minlength=nv)).tolist()
        heads = head[order].tolist()
        self.adjacency = tuple(tuple(heads[lo:hi]) for lo, hi in zip([0] + ends[:-1], ends))

    def _validate(self, tol: float, normals: np.ndarray):
        """Global checks; ``normals`` are the outward unit face normals.

        No hull is needed: once the plane test passes, the surface bounds
        conv(V), and a vertex that is not extreme lies inside a face or an
        edge of conv(V), so its star is flat, its cone angle is 2*pi and the
        cone-angle test rejects it.  ``build`` has already rejected a flat
        vertex set: every face plane then passes through the body centroid.
        """
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

        # positive curvature at every vertex, which also makes it extreme
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

    @cached_property
    def plan(self) -> WalkPlan:
        """``corners`` as tuples, and each face's corners ordered by the face
        across them; it depends only on the corners, so ``transformed``
        shares it."""
        c = self.corners
        order = np.lexsort((c.face[c.twin], c.face)).tolist()
        bounds = [*c.start.tolist(), len(order)]
        return WalkPlan(
            *(tuple(a.tolist()) for a in (c.face, c.start, c.next, c.twin, c.vertex)),
            tuple(tuple(order[lo:hi]) for lo, hi in zip(bounds, bounds[1:])),
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
    def face_frames(self) -> tuple:
        """Per face, its isometric 2D corner coordinates as [x, y] floats.

        Faces of one size are gathered from the corner arrays as one
        (m, k, 3) stack and framed together by ``_frames``: the same
        elementwise operations, and the same BLAS dot and matrix-vector
        products per face through stacked ``matmul``, as framing each face
        alone, so every frame is bitwise the one-face result
        (``tests/test_unfold.py``).
        """
        c = self.corners
        sizes = np.bincount(c.face)
        frames: list = [None] * len(sizes)
        for k in np.unique(sizes).tolist():
            ids = np.flatnonzero(sizes == k)
            F = _frames(self.vertices[c.vertex[c.start[ids, None] + np.arange(k)]])
            for f, frame in zip(ids.tolist(), F.tolist()):
                frames[f] = frame
        return tuple(frames)

    @cached_property
    def edge_vectors(self) -> np.ndarray:
        """Read-only (E, 3) array of ``edge_vector(e)`` for every edge, in ``edges`` order."""
        d = self.vertices[self.edge_ends[:, 1]] - self.vertices[self.edge_ends[:, 0]]
        d.flags.writeable = False
        return d

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


def _frames(pts: np.ndarray) -> np.ndarray:
    """Isometric 2D coordinates of each face of an (m, k, 3) stack, as an
    (m, k, 2) array, orientation preserved.

    The basis is right-handed with respect to the outward normal, so a
    counterclockwise-from-outside cycle stays counterclockwise.  The
    origin is corner 0 and the first axis runs to corner 1.  The normal
    is u x (corner 2 - origin) unless it is tiny against the next
    corner's offset, in which case that corner is tried instead, and so on.
    """
    rel = pts - pts[:, :1]
    u = rel[:, 1] / _norms(rel[:, 1])[:, None]
    n = np.cross(u, rel[:, 2])
    search = np.ones(len(rel), dtype=bool)
    for j in range(3, rel.shape[1]):
        q = rel[:, j]
        search &= ~(_norms(n) > 1e-12 * _norms(q))
        if not search.any():
            break
        n[search] = np.cross(u[search], q[search])
    n = n / _norms(n)[:, None]
    w = np.cross(n, u)
    return np.concatenate([rel @ u[:, :, None], rel @ w[:, :, None]], axis=2)


def _norms(v: np.ndarray) -> np.ndarray:
    # per row, the dot product np.linalg.norm takes the square root of
    return np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0, 0]


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
