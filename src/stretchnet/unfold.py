"""Cut a polyhedron along a spanning tree and develop it into the plane.

Cutting along a spanning tree of the vertex-edge graph leaves the faces
glued across the remaining (fold) edges, whose dual graph is a spanning
tree of the face adjacency; the surface is therefore a topological disc.
Each face is mapped isometrically into the plane by a breadth-first
walk over the fold edges, and the boundary of the disc becomes a closed
polyline with the two copies of each cut edge marked as duals.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import IO, Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import CompatibilityFailure, MalformedLayout, NotSpanningTree
from .mesh import Polyhedron, local_frames
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
    """Faces of the mesh with each edge flagged cut (tree) or fold."""

    faces: tuple                    # vertex cycles
    face_points3d: tuple            # per face, (k, 3) coordinate array (the mesh's own, read-only)
    cut_edges: frozenset
    fold_edges: frozenset
    fold_adjacency: dict            # fold edge -> ((face_a, pos_a), (face_b, pos_b))
    boundary: tuple                 # BoundaryEdge cycle, counterclockwise from a copy of the minimal vertex
    tree: Optional[SpanningTree] = None
    root_vertex: Optional[int] = None
    mesh: Optional[Polyhedron] = None  # source of face_points3d and its cached frames


@dataclass
class PlanarLayout:
    """Rigid placement of every face in the plane."""

    surface: CutSurface
    face_points: list               # per face, list of (x, y) corner images
    root_face: int
    max_fold_mismatch: float
    y_prime: Optional[tuple] = None  # image of the minimal vertex at the boundary start


@dataclass
class BoundaryCurve:
    """Closed polyline image of the disc boundary with dual annotations.

    Segment i runs from points[i] to points[(i+1) % n]; it is the image
    of boundary edge i of the cut surface.
    """

    points: list
    duals: list
    source_edges: list
    source_vertices: list
    provenance: list                # per segment, (face, pos) in the layout

    def __len__(self) -> int:
        return len(self.points)

    def segment(self, i: int) -> tuple:
        return self.points[i], self.points[(i + 1) % len(self.points)]

    def segment_vector(self, i: int) -> tuple:
        a, b = self.segment(i)
        return (b[0] - a[0], b[1] - a[1])


def _check_spanning(Q: Polyhedron, T: SpanningTree):
    if len(T.parent) != Q.n_vertices:
        raise NotSpanningTree("tree and mesh disagree on the vertex count")
    for v, p in enumerate(T.parent):
        if v != T.root and not Q.has_edge(v, p):
            raise NotSpanningTree(f"tree edge ({v}, {p}) is not a mesh edge")
    # parent links must all reach the root (no stray cycles); the walk
    # from v stops at the first vertex an earlier walk showed to reach it,
    # so each vertex is stepped over at most twice
    parent, reaches = T.parent, Q.n_vertices
    mark = [-1] * Q.n_vertices  # the last walk through a vertex, or ``reaches``
    mark[T.root] = reaches
    for v in range(Q.n_vertices):
        cur = v
        while mark[cur] != reaches:
            if mark[cur] == v:
                raise NotSpanningTree(f"vertex {v} never reaches the root")
            mark[cur] = v
            cur = parent[cur]
        cur = v
        while mark[cur] != reaches:
            mark[cur] = reaches
            cur = parent[cur]


def cut(Q: Polyhedron, T: SpanningTree) -> CutSurface:
    """Cut ``Q`` along the tree edges and trace the resulting disc boundary.

    The boundary is walked keeping the surface on the left (so its planar
    image is counterclockwise) and rotated to start at a copy of the
    x-minimal vertex.
    """
    _check_spanning(Q, T)
    cut_set = frozenset(T.edges)
    fold_set = frozenset(e for e in Q.edges if e not in cut_set)
    # fold edges of a spanning tree connect all faces; the walk below rejects other cut sets
    fold_adjacency = {(u, v): (Q.half[(u, v)], Q.half[(v, u)]) for u, v in fold_set}

    def next_in_face(face: int, pos: int) -> tuple[int, int]:
        return face, (pos + 1) % len(Q.faces[face])

    def directed(face: int, pos: int) -> tuple[int, int]:
        cyc = Q.faces[face]
        return cyc[pos], cyc[(pos + 1) % len(cyc)]

    def boundary_successor(face: int, pos: int) -> tuple[int, int]:
        f, p = next_in_face(face, pos)
        while True:
            a, b = directed(f, p)
            if (min(a, b), max(a, b)) in cut_set:
                return f, p
            f, p = next_in_face(*Q.half[(b, a)])

    # collect all boundary half-edges and walk the single cycle
    remaining = {Q.half[h] for u, v in cut_set for h in ((u, v), (v, u))}
    walk = [min(remaining)]
    remaining.discard(walk[0])
    while True:
        nxt = boundary_successor(*walk[-1])
        if nxt == walk[0]:
            break
        if nxt not in remaining:
            raise NotSpanningTree("boundary walk left the cut-edge cycle")
        remaining.discard(nxt)
        walk.append(nxt)
    if remaining:
        raise NotSpanningTree("boundary is not a single cycle")
    if len(walk) != 2 * (Q.n_vertices - 1):
        raise NotSpanningTree(
            f"boundary has {len(walk)} edges, expected {2 * (Q.n_vertices - 1)}"
        )

    order = vertex_order(Q)
    candidates = [i for i, (f, p) in enumerate(walk) if Q.faces[f][p] == order.x_min]
    shift = min(candidates, key=lambda i: walk[i])
    walk = walk[shift:] + walk[:shift]

    position = {he: i for i, he in enumerate(walk)}
    records = []
    for f, p in walk:
        a, b = directed(f, p)
        e = (min(a, b), max(a, b))
        dual = position[Q.half[(b, a)]]
        records.append(BoundaryEdge(f, p, a, b, e, dual))

    return CutSurface(
        faces=Q.faces,
        face_points3d=Q.face_points3d,
        cut_edges=cut_set,
        fold_edges=fold_set,
        fold_adjacency=fold_adjacency,
        boundary=tuple(records),
        tree=T,
        root_vertex=order.x_max,
        mesh=Q,
    )


def _default_root_face(S: CutSurface) -> int:
    return next((f for f, cyc in enumerate(S.faces) if S.root_vertex in cyc), 0)


def develop(S: CutSurface, root_face: Optional[int] = None) -> PlanarLayout:
    """Map the cut surface isometrically face by face into the plane.

    Faces are placed breadth-first over the fold edges starting from the
    root face, each by the unique orientation-preserving rigid motion
    matching the shared edge.  The global pose is fixed by sending the
    root face's first edge, with 3D direction (dx, dy, dz), to the 2D
    direction (dx, sqrt(dy^2 + dz^2)); on a stretched mesh this keeps
    every developed edge nearly horizontal.

    Raises CompatibilityFailure when a fold edge's two placements
    disagree beyond COMPAT_TOL, which signals accumulated numerical
    error or an invalid surface.

    Face frames come from the mesh's cache when ``S.face_points3d`` is
    the mesh's own tuple, and are recomputed otherwise.  Corners are
    placed with float arithmetic: faces are too small to repay numpy calls.
    """
    n_faces = len(S.faces)
    root = _default_root_face(S) if root_face is None else root_face
    if S.mesh is not None and S.face_points3d is S.mesh.face_points3d:
        frames = S.mesh.face_frames
    else:
        frames = local_frames(S.face_points3d)
    local = [fr.tolist() for fr in frames]

    neighbors: dict[int, list[tuple]] = {f: [] for f in range(n_faces)}
    for e, ((fa, pa), (fb, pb)) in S.fold_adjacency.items():
        neighbors[fa].append((fb, e))
        neighbors[fb].append((fa, e))
    for f in neighbors:
        neighbors[f].sort()

    face_points: list = [None] * n_faces

    def place(f: int, c: float, s: float, tx: float, ty: float):
        face_points[f] = [(c * x - s * y + tx, s * x + c * y + ty) for x, y in local[f]]

    d3 = S.face_points3d[root][1] - S.face_points3d[root][0]
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
        for g, e in neighbors[f]:
            if g in seen:
                continue
            (fa, pa), (fb, pb) = S.fold_adjacency[e]
            if fa != f:
                (fa, pa), (fb, pb) = (fb, pb), (fa, pa)
            cyc_f, cyc_g = S.faces[fa], S.faces[fb]
            a = cyc_f[pa]
            b = cyc_f[(pa + 1) % len(cyc_f)]
            ga = face_points[f][cyc_f.index(a)]
            gb = face_points[f][cyc_f.index(b)]
            la = local[g][cyc_g.index(a)]
            lb = local[g][cyc_g.index(b)]
            phi = math.atan2(gb[1] - ga[1], gb[0] - ga[0]) - math.atan2(
                lb[1] - la[1], lb[0] - la[0]
            )
            c, s = math.cos(phi), math.sin(phi)
            place(g, c, s, ga[0] - (c * la[0] - s * la[1]), ga[1] - (s * la[0] + c * la[1]))
            gb2 = face_points[g][cyc_g.index(b)]
            mismatch = math.hypot(gb2[0] - gb[0], gb2[1] - gb[1])
            max_mismatch = max(max_mismatch, mismatch)
            if mismatch > COMPAT_TOL:
                raise CompatibilityFailure(
                    f"fold edge {e} placements disagree by {mismatch:.3e}"
                )
            seen.add(g)
            queue.append(g)
    if len(seen) != n_faces:
        raise NotSpanningTree("fold edges left some faces unreachable")

    y_prime = None
    if S.boundary:
        b0 = S.boundary[0]
        y_prime = face_points[b0.face][b0.pos]

    return PlanarLayout(
        surface=S,
        face_points=face_points,
        root_face=root,
        max_fold_mismatch=max_mismatch,
        y_prime=y_prime,
    )


def boundary_curve(L: PlanarLayout, S: Optional[CutSurface] = None) -> BoundaryCurve:
    """Planar image of the disc boundary, counterclockwise, starting at y'.

    Corner i is the image of boundary edge i's tail vertex in its own
    face; consecutive corners agree across the fold fan within the
    development tolerance.
    """
    S = L.surface if S is None else S
    return _assemble_boundary(L.face_points, ((r.face, r.pos, r.tail, r.edge, r.dual) for r in S.boundary))


def _assemble_boundary(face_points: Sequence, records: Iterable) -> BoundaryCurve:
    """The polyline through corner ``face_points[face][pos]`` of each
    ``(face, pos, tail, edge, dual)`` record, in order.

    Raises CompatibilityFailure where the head of segment i, the corner
    after ``pos`` in its face, lies more than COMPAT_TOL from corner i + 1.
    """
    points, heads, duals, sources, vertices, provenance = [], [], [], [], [], []
    for f, pos, tail, edge, dual in records:
        face = face_points[f]
        x, y = face[pos]
        points.append((float(x), float(y)))
        heads.append(face[(pos + 1) % len(face)])
        duals.append(dual)
        sources.append(edge)
        vertices.append(tail)
        provenance.append((f, pos))
    for i, (head, nxt) in enumerate(zip(heads, [*points[1:], *points[:1]])):
        gap = math.hypot(head[0] - nxt[0], head[1] - nxt[1])
        if gap > COMPAT_TOL:
            raise CompatibilityFailure(f"boundary breaks after segment {i} by {gap:.3e}")
    return BoundaryCurve(points, duals, sources, vertices, provenance)


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
        import json

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
    folds = ",".join(_FOLD % (*e, *fa, *fb) for e, (fa, fb) in sorted(S.fold_adjacency.items()))
    tree = _json_dumps(S.tree.to_json() if S.tree is not None else None)
    return _LAYOUT % (faces, tree, boundary, folds, _json_dumps(dict(meta or {})))


def export_json(L: PlanarLayout, path, meta: Optional[dict] = None) -> None:
    with open(path, "w") as fh:
        fh.write(layout_to_json(L, meta))


def load_layout_json(source: Union[str, IO]) -> dict:
    """Parse a layout JSON document (text, path-like, or file object)."""
    import json

    if hasattr(source, "read"):
        text = source.read()
    else:
        text = str(source)
        if not text.lstrip().startswith("{"):
            with open(text) as fh:
                text = fh.read()
    return json.loads(text)


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
            (fa, pa), (fb, pb) = rec["a"], rec["b"]
            if min(fa, pa, fb, pb) < 0:  # not read from the end of a list
                raise IndexError(min(fa, pa, fb, pb))
            A, B = faces[fa], faces[fb]
            for (ax, ay), (bx, by) in ((A[pa], B[(pb + 1) % len(B)]), (A[(pa + 1) % len(A)], B[pb])):
                if not math.hypot(ax - bx, ay - by) <= COMPAT_TOL:  # NaN fails too
                    raise CompatibilityFailure(f"fold edge {rec.get('edge')} disagrees between faces {fa} and {fb}")
        except (LookupError, TypeError, ValueError) as exc:
            raise MalformedLayout(f"malformed fold record {rec!r}") from exc


def rebuild_boundary(doc: dict) -> BoundaryCurve:
    """Reassemble the boundary polyline of a stored layout from its faces.

    Points are recomputed from the face polygons via the stored
    (face, pos) provenance, so tampering with a face shows up as a torn
    or mismatched boundary (CompatibilityFailure) or as an overlap.  An
    empty boundary or a record unlike ``layout_to_json``'s raises MalformedLayout.
    """
    faces, records = doc["faces"], []
    for rec in doc["boundary"]:
        try:
            f, pos, tail, (u, v), dual = rec["face"], rec["pos"], rec["tail"], rec["edge"], rec["dual"]
            face = faces[f]
            (x, y), (hx, hy) = face[pos], face[(pos + 1) % len(face)]
        except (LookupError, TypeError, ValueError) as exc:
            raise MalformedLayout(f"malformed boundary record {rec!r}") from exc
        if not (
            type(f) is type(pos) is type(tail) is type(u) is type(v) is type(dual) is int
            and f >= 0 <= pos  # not read from the end of a list
            and {type(x), type(y), type(hx), type(hy)} <= {int, float}
        ):
            raise MalformedLayout(f"malformed boundary record {rec!r}")
        records.append((f, pos, tail, (u, v), dual))
    if not records:
        raise MalformedLayout("layout has an empty boundary")
    if sorted(r[4] for r in records) != list(range(len(records))):
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
    for e, ((fa, pa), _) in sorted(S.fold_adjacency.items()):
        cyc = S.faces[fa]
        a = L.face_points[fa][pa]
        b = L.face_points[fa][(pa + 1) % len(cyc)]
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
