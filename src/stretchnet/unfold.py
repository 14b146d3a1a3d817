"""Cut a polyhedron along a spanning tree and develop it into the plane.

Cutting along a spanning tree of the vertex-edge graph leaves the faces
glued across the remaining (fold) edges, whose dual graph is a spanning
tree of the face adjacency; the surface is therefore a topological disc.
A cut surface is its mesh plus a per-corner cut mask: everything else
(faces, fold edges, face frames) is read from the mesh.  Each face is
mapped isometrically into the plane by a breadth-first walk over the
uncut corners and their twins, and the boundary of the disc becomes a
closed polyline with the two copies of each cut edge marked as duals.
"""

from __future__ import annotations

import json
import math
import os
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import IO, Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import CompatibilityFailure, MalformedLayout, NotSpanningTree
from .mesh import Polyhedron
from .tree import SpanningTree, vertex_order

#: Fold-edge placement disagreement above this aborts development; it is
#: two orders of magnitude above the drift observed at desk scale.
COMPAT_TOL = 1e-6


class BoundaryEdge(NamedTuple):
    """One side of a cut edge on the disc boundary."""

    face: int
    pos: int                # position of the directed edge in the face cycle
    tail: int               # source vertex ids
    head: int
    edge: tuple             # undirected mesh edge (u, v), u < v
    dual: int               # index of the other copy of the same cut edge


@dataclass
class CutSurface:
    """A mesh cut along a spanning tree.

    The tree decides only which edges are cut: ``is_cut`` is the
    read-only per-corner mask of ``mesh.corners`` that is true where the
    corner or its twin runs from a vertex to its parent.  Every other
    corner lies on a fold edge.  Faces, fold edges and face frames are
    read from the mesh, so a surface holds no per-tree copy of them.
    """

    mesh: Polyhedron
    tree: SpanningTree
    is_cut: np.ndarray              # per corner of mesh.corners, read-only
    boundary: tuple                 # BoundaryEdge cycle, counterclockwise from a copy of the minimal vertex
    root_vertex: int                # the x-maximal vertex

    @property
    def faces(self) -> tuple:
        return self.mesh.faces

    @property
    def folds(self) -> list:
        """``(edge, (face_a, pos_a), (face_b, pos_b))`` for each uncut edge,
        in ``mesh.edges`` order: the edge runs from its smaller vertex at
        ``pos_a`` in ``face_a``, and back at ``pos_b`` in ``face_b``."""
        c = self.mesh.corners
        tail, head = c.vertex, c.vertex[c.next]
        k = np.flatnonzero(~self.is_cut & (tail < head))
        k = k[np.lexsort((head[k], tail[k]))]
        t = c.twin[k]
        fa, fb = c.face[k], c.face[t]
        return list(zip(
            zip(tail[k].tolist(), head[k].tolist()),
            zip(fa.tolist(), (k - c.start[fa]).tolist()),
            zip(fb.tolist(), (t - c.start[fb]).tolist()),
        ))


@dataclass
class PlanarLayout:
    """Rigid placement of every face in the plane."""

    surface: CutSurface
    face_points: list               # per face, list of (x, y) corner images
    max_fold_mismatch: float


@dataclass
class BoundaryCurve:
    """Closed polyline image of the disc boundary with dual annotations.

    Segment i runs from points[i] to points[(i+1) % n]; it is the image
    of boundary edge i of the cut surface, and ``duals[i]`` is the index
    of the segment that is the other copy of the same cut edge.
    """

    points: list
    duals: list

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def array(self) -> np.ndarray:
        """``points`` as an (n, 2) float array, made once on first use:
        ``points`` must not change after that."""
        return np.asarray(self.points, dtype=float).reshape(-1, 2)

    def segment(self, i: int) -> tuple:
        return self.points[i], self.points[(i + 1) % len(self.points)]


def _check_spanning(Q: Polyhedron, T: SpanningTree) -> np.ndarray:
    """Raise NotSpanningTree unless every tree edge is a mesh edge of ``Q``.

    Returns the mask of corners that run from a vertex to its parent.
    Whether the links form one tree is left to ``cut``'s boundary walk:
    it follows one orbit of the face-tracing permutation of the cut
    graph, so it never leaves one component, and it reaches 2(V - 1)
    steps only if it holds all 2 |cut edges| <= 2(V - 1) cut corners.
    Then both sides of every cut edge lie on one facial walk, so every
    cut edge is a bridge, and V - 1 bridges in one component form a
    spanning tree, along which every parent chain reaches the root.
    """
    if len(T.parent) != Q.n_vertices:
        raise NotSpanningTree("tree and mesh disagree on the vertex count")
    c = Q.corners
    up = np.asarray(T.parent)[c.vertex] == c.vertex[c.next]
    linked = np.zeros(Q.n_vertices, dtype=bool)
    linked[c.vertex[up]] = True
    linked[T.root] = True
    unlinked = np.flatnonzero(~linked)
    if unlinked.size:
        v = int(unlinked[0])
        raise NotSpanningTree(f"tree edge ({v}, {T.parent[v]}) is not a mesh edge")
    return up


def cut(Q: Polyhedron, T: SpanningTree) -> CutSurface:
    """Cut ``Q`` along the tree edges and trace the resulting disc boundary.

    The boundary is walked over corner ids keeping the surface on the
    left (so its planar image is counterclockwise) and rotated to start
    at a copy of the x-minimal vertex.  A corner is cut when it or its
    twin runs from a vertex to its parent.  The walk and the records run
    on the mesh's ``plan``: census meshes are too small to repay numpy calls.

    Raises NotSpanningTree when a tree edge is not a mesh edge, or when
    the boundary does not have 2(V - 1) edges: that length test is the
    check that the parent links form one spanning tree (see
    ``_check_spanning``).
    """
    up = _check_spanning(Q, T)
    is_cut = up | up[Q.corners.twin]
    is_cut.flags.writeable = False
    plan, cuts = Q.plan, is_cut.tolist()
    tails, nxt, twin = plan.vertex, plan.next, plan.twin

    # the successor of a cut corner turns about its head to the next cut corner
    start = cuts.index(True)
    walk, k = [], start
    while True:
        walk.append(k)
        k = nxt[k]
        while not cuts[k]:
            k = nxt[twin[k]]
        if k == start:
            break
    if len(walk) != 2 * (Q.n_vertices - 1):
        raise NotSpanningTree(
            f"boundary has {len(walk)} edges, expected {2 * (Q.n_vertices - 1)}"
        )

    order = vertex_order(Q)
    shift = walk.index(min(k for k in walk if tails[k] == order.x_min))
    walk = walk[shift:] + walk[:shift]

    position = dict(zip(walk, range(len(walk))))
    face, first = plan.face, plan.start
    records = []
    for k in walk:
        a, b, f = tails[k], tails[nxt[k]], face[k]
        records.append(BoundaryEdge(f, k - first[f], a, b, (min(a, b), max(a, b)), position[twin[k]]))

    return CutSurface(mesh=Q, tree=T, is_cut=is_cut, boundary=tuple(records), root_vertex=order.x_max)


def develop(S: CutSurface, root_face: Optional[int] = None) -> PlanarLayout:
    """Map the cut surface isometrically face by face into the plane.

    Faces are placed breadth-first over the fold tree starting from the
    root face (by default the first face around ``S.root_vertex``).  A
    face steps to its neighbours across its uncut corners, in order of
    the neighbour face, and places each unseen one by the unique
    orientation-preserving rigid motion matching the shared edge.  The
    global pose is fixed by sending the root face's first edge, with 3D
    direction (dx, dy, dz), to the 2D direction (dx, sqrt(dy^2 + dz^2));
    on a stretched mesh this keeps every developed edge nearly horizontal.

    Raises CompatibilityFailure when a fold edge's two placements
    disagree beyond COMPAT_TOL, or by NaN, which signals accumulated
    numerical error, non-finite coordinates or an invalid surface.

    The face frames (as float lists) and the walk plan come from the
    mesh's caches.  Corners are placed with float arithmetic: faces are
    too small to repay numpy calls.
    """
    Q = S.mesh
    plan = Q.plan
    n_faces = len(Q.faces)
    face, first, twin = plan.face, plan.start, plan.twin
    cuts = S.is_cut.tolist()
    # by default, the face of the first corner at the root vertex
    root = face[plan.vertex.index(S.root_vertex)] if root_face is None else root_face
    local = Q.face_frames

    face_points: list = [None] * n_faces

    def place(f: int, c: float, s: float, tx: float, ty: float):
        face_points[f] = [(c * x - s * y + tx, s * x + c * y + ty) for x, y in local[f]]

    d3 = Q.vertices[Q.faces[root][1]] - Q.vertices[Q.faces[root][0]]
    target = math.atan2(math.hypot(d3[1], d3[2]), d3[0])
    l0, l1 = local[root][0], local[root][1]
    phi = target - math.atan2(l1[1] - l0[1], l1[0] - l0[0])
    c, s = math.cos(phi), math.sin(phi)
    place(root, c, s, -(c * l0[0] - s * l0[1]), -(s * l0[0] + c * l0[1]))

    max_mismatch = 0.0
    queue = deque([root])
    seen = {root}
    while queue:
        f = queue.popleft()
        lo = first[f]
        n = len(local[f])
        for k in plan.by_neighbour[f]:
            g = face[twin[k]]
            if cuts[k] or g in seen:
                continue
            # the fold runs a -> b from position pa in f, and b -> a from pb in g
            pa, pb = k - lo, twin[k] - first[g]
            ga, gb = face_points[f][pa], face_points[f][(pa + 1) % n]
            lb, la = local[g][pb], local[g][(pb + 1) % len(local[g])]
            phi = math.atan2(gb[1] - ga[1], gb[0] - ga[0]) - math.atan2(
                lb[1] - la[1], lb[0] - la[0]
            )
            c, s = math.cos(phi), math.sin(phi)
            place(g, c, s, ga[0] - (c * la[0] - s * la[1]), ga[1] - (s * la[0] + c * la[1]))
            gb2 = face_points[g][pb]
            mismatch = math.hypot(gb2[0] - gb[0], gb2[1] - gb[1])
            max_mismatch = max(max_mismatch, mismatch)
            if not mismatch <= COMPAT_TOL:  # NaN fails too
                a, b = Q.faces[f][pa], Q.faces[g][pb]
                raise CompatibilityFailure(
                    f"fold edge {(min(a, b), max(a, b))} placements disagree by {mismatch:.3e}"
                )
            seen.add(g)
            queue.append(g)
    if len(seen) != n_faces:
        raise NotSpanningTree("fold edges left some faces unreachable")

    return PlanarLayout(surface=S, face_points=face_points, max_fold_mismatch=max_mismatch)


def boundary_curve(L: PlanarLayout) -> BoundaryCurve:
    """Planar image of the disc boundary, counterclockwise, starting at y'.

    Corner i is the image of boundary edge i's tail vertex in its own
    face; consecutive corners agree across the fold fan within the
    development tolerance.
    """
    return _assemble_boundary(L.face_points, ((r.face, r.pos, r.dual) for r in L.surface.boundary))


def _assemble_boundary(face_points: Sequence, records: Iterable) -> BoundaryCurve:
    """The polyline through corner ``face_points[face][pos]`` of each
    ``(face, pos, dual)`` record, in order.

    Raises CompatibilityFailure where the head of segment i, the corner
    after ``pos`` in its face, lies more than COMPAT_TOL (or NaN) from
    corner i + 1.
    """
    points, heads, duals = [], [], []
    for f, pos, dual in records:
        face = face_points[f]
        x, y = face[pos]
        points.append((float(x), float(y)))
        heads.append(face[(pos + 1) % len(face)])
        duals.append(dual)
    for i, (head, nxt) in enumerate(zip(heads, [*points[1:], *points[:1]])):
        gap = math.hypot(head[0] - nxt[0], head[1] - nxt[1])
        if not gap <= COMPAT_TOL:  # NaN fails too
            raise CompatibilityFailure(f"boundary breaks after segment {i} by {gap:.3e}")
    return BoundaryCurve(points, duals)


# -- serialization --------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _json_dumps(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    if isinstance(obj, dict):
        inner = ",".join(f"\"{k}\":{_json_dumps(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_json_dumps(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


_LAYOUT = '{"faces":[%s],"tree":%s,"boundary":[%s],"folds":[%s],"meta":%s}\n'
_BOUNDARY = '{"face":%d,"pos":%d,"tail":%d,"head":%d,"edge":[%d,%d],"dual":%d}'
_FOLD = '{"edge":[%d,%d],"a":[%d,%d],"b":[%d,%d]}'


def layout_to_json(L: PlanarLayout, meta: Optional[dict] = None) -> str:
    """The layout as one deterministic JSON document.

    All face corners are written by one %-format, and each boundary and
    fold record by one more.  ``%.17g`` formats a number as
    ``format(float(x), ".17g")`` does and ``%d`` an int as ``str`` does,
    so the text is byte for byte what the recursive ``_json_dumps`` gives
    on the whole document (``tests/test_unfold_equivalence.py``).
    ``tree`` and ``meta`` still go through ``_json_dumps``.
    """
    S = L.surface
    corners = ",".join(["[" + ",".join(["[%.17g,%.17g]"] * len(pts)) + "]" for pts in L.face_points])
    faces = corners % tuple(chain.from_iterable(chain.from_iterable(L.face_points)))
    boundary = ",".join(
        _BOUNDARY % (rec.face, rec.pos, rec.tail, rec.head, *rec.edge, rec.dual)
        for rec in S.boundary
    )
    folds = ",".join(_FOLD % (*e, *fa, *fb) for e, fa, fb in S.folds)
    return _LAYOUT % (faces, _json_dumps(S.tree.to_json()), boundary, folds, _json_dumps(dict(meta or {})))


def export_json(L: PlanarLayout, path, meta: Optional[dict] = None) -> None:
    with open(path, "w") as fh:
        fh.write(layout_to_json(L, meta))


def load_layout_json(source: Union[str, os.PathLike, IO]) -> dict:
    """Parse a layout JSON document: a ``str`` is the text itself, a
    path-like is opened and a file object is read.

    Raises MalformedLayout unless the document is an object whose
    ``faces``, ``boundary`` and (optional) ``folds`` are lists, ``tree`` is
    ``{"pairs": [[child, parent], ...], "root": r}`` and ``meta`` an object.
    """
    if isinstance(source, os.PathLike):
        with open(source) as fh:
            doc = json.load(fh)
    else:
        doc = json.loads(source.read() if hasattr(source, "read") else source)
    parts = (doc.get("faces"), doc.get("boundary"), doc.get("folds", [])) if isinstance(doc, dict) else ()
    if not parts or not all(isinstance(p, list) for p in parts) or not isinstance(doc.get("meta"), dict):
        raise MalformedLayout("not a layout document")
    tree = doc.get("tree")
    pairs = tree.get("pairs") if isinstance(tree, dict) else None
    if not isinstance(pairs, list) or not _is_index(tree.get("root")) or not all(
        isinstance(p, list) and len(p) == 2 and all(map(_is_index, p)) for p in pairs
    ):
        raise MalformedLayout('layout tree is not {"pairs": [[child, parent], ...], "root": r}')
    return doc


def _is_index(i) -> bool:
    # JSON's true would read as 1, and a negative index from the end of a list
    return type(i) is int and i >= 0


#: What reading a record unlike ``layout_to_json``'s can raise.
_MALFORMED = (ArithmeticError, LookupError, TypeError, ValueError)


def _stored_edge(faces: list, f, pos, *indices) -> tuple:
    """Corners ``pos`` and ``pos + 1`` (cyclically) of stored face ``f``,
    as float pairs, where ``f``, ``pos`` and the record's other
    ``indices`` are non-negative ints and both corners pairs of ints or
    floats, as ``layout_to_json`` writes them (a bool is neither: JSON's
    ``true`` would read as 1).  Anything else raises one of _MALFORMED.
    """
    for i in (f, pos, *indices):
        if not _is_index(i):
            raise ValueError(f"{i!r} is not an index")
    face = faces[f]
    (x, y), (hx, hy) = face[pos], face[(pos + 1) % len(face)]
    if not {type(x), type(y), type(hx), type(hy)} <= {int, float}:
        raise ValueError("a corner is not a pair of numbers")
    return (float(x), float(y)), (float(hx), float(hy))


def check_fold_consistency(doc: dict) -> None:
    """Check that both faces of every stored fold edge agree on its image.

    A fold edge appears at position a in one face and position b in the
    other, traversed in opposite directions; tampering with any face
    (even one with no boundary corner) breaks the matching and raises
    CompatibilityFailure; a record unlike ``layout_to_json``'s raises
    MalformedLayout.
    """
    faces = doc["faces"]
    for rec in doc.get("folds", ()):
        try:
            (fa, pa), (fb, pb), (u, v) = rec["a"], rec["b"], rec["edge"]
            (a0, a1), (b0, b1) = _stored_edge(faces, fa, pa, u, v), _stored_edge(faces, fb, pb)
        except _MALFORMED as exc:
            raise MalformedLayout(f"malformed fold record {rec!r}") from exc
        for (ax, ay), (bx, by) in ((a0, b1), (a1, b0)):
            if not math.hypot(ax - bx, ay - by) <= COMPAT_TOL:  # NaN fails too
                raise CompatibilityFailure(f"fold edge {rec['edge']} disagrees between faces {fa} and {fb}")


def rebuild_boundary(doc: dict) -> BoundaryCurve:
    """Reassemble the boundary polyline of a stored layout from its faces.

    Points are recomputed from the face polygons at each record's stored
    face and pos, so tampering with a face shows up as a torn
    or mismatched boundary (CompatibilityFailure) or as an overlap.  An
    empty boundary or a record or corner unlike ``layout_to_json``'s
    raises MalformedLayout.
    """
    faces, records = doc["faces"], []
    for rec in doc["boundary"]:
        try:
            f, pos, (u, v), dual = rec["face"], rec["pos"], rec["edge"], rec["dual"]
            _stored_edge(faces, f, pos, rec["tail"], rec["head"], u, v, dual)
        except _MALFORMED as exc:
            raise MalformedLayout(f"malformed boundary record {rec!r}") from exc
        records.append((f, pos, dual))
    if not records:
        raise MalformedLayout("layout has an empty boundary")
    if sorted(r[2] for r in records) != list(range(len(records))):
        raise CompatibilityFailure("dual indices are not a permutation of the segments")
    curve = _assemble_boundary(faces, records)
    for i, j in enumerate(curve.duals):
        la, lb = math.dist(*curve.segment(i)), math.dist(*curve.segment(j))
        if abs(la - lb) > COMPAT_TOL:
            raise CompatibilityFailure(f"dual segments {i} and {j} have lengths {la!r} != {lb!r}")
    return curve


def export_svg(L: PlanarLayout, path, witnesses: Sequence = ()) -> None:
    """Write the layout as SVG 1.1: faces, fold edges (light), cut edges
    (dark), and optional overlap witness markers."""
    S = L.surface
    xs = [x for pts in L.face_points for x, _ in pts]
    ys = [-y for pts in L.face_points for _, y in pts]
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    span = max(maxx - minx, maxy - miny, 1e-12)
    margin = 0.05 * span
    vb = (minx - margin, miny - margin, (maxx - minx) + 2 * margin, (maxy - miny) + 2 * margin)
    stroke = 0.002 * span

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="'
        + " ".join(_fmt(v) for v in vb)
        + '">'
    )
    out.append(
        "<style>.face{fill:#f2e8c9;stroke:none}"
        f".fold{{stroke:#b0b0b0;stroke-width:{_fmt(stroke)};fill:none}}"
        f".cut{{stroke:#222222;stroke-width:{_fmt(2 * stroke)};fill:none}}"
        ".witness{fill:#d62728;stroke:none}</style>"
    )
    for pts in L.face_points:
        coords = " ".join(f"{_fmt(x)},{_fmt(-y)}" for x, y in pts)
        out.append(f'<polygon class="face" points="{coords}"/>')
    for _, (fa, pa), _ in S.folds:
        pts = L.face_points[fa]
        a, b = pts[pa], pts[(pa + 1) % len(pts)]
        out.append(
            f'<line class="fold" x1="{_fmt(a[0])}" y1="{_fmt(-a[1])}"'
            f' x2="{_fmt(b[0])}" y2="{_fmt(-b[1])}"/>'
        )
    for rec in S.boundary:
        pts = L.face_points[rec.face]
        a, b = pts[rec.pos], pts[(rec.pos + 1) % len(pts)]
        out.append(
            f'<line class="cut" x1="{_fmt(a[0])}" y1="{_fmt(-a[1])}"'
            f' x2="{_fmt(b[0])}" y2="{_fmt(-b[1])}"/>'
        )
    for w in witnesses:
        if getattr(w, "point", None) is None:
            continue
        px, py = w.point
        out.append(
            f'<circle class="witness" cx="{_fmt(px)}" cy="{_fmt(-py)}" r="{_fmt(4 * stroke)}"/>'
        )
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
