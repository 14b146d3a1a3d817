"""Reference serialization, spanning check and cut, kept for the equivalence tests.

``unfold.layout_to_json`` formats each record with one %-format,
``unfold._check_spanning`` walks each vertex only up to the first vertex
already known to reach the root, and ``unfold.cut`` walks corner ids
through ``Corners.twin``.  This module keeps the forms they replaced:
the recursive ``_json_dumps`` applied to the whole layout, a walk from
every vertex to the root, and a cut that walks ``(face, pos)`` pairs
through a dict of half-edges and returns its fold edges as a dict.  The
half-edge dict and the edge list come from ``mesh_reference.derive``,
not from the mesh under test, and the reference serializer writes the
folds of that dict-based cut, not ``CutSurface.folds``.
``tests/test_unfold_equivalence.py`` compares each pair on every input.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from stretchnet.errors import NotSpanningTree
from stretchnet.tree import vertex_order
from stretchnet.unfold import BoundaryEdge

import mesh_reference

# the equivalence tests cut many trees of one mesh
derive = lru_cache(maxsize=4)(mesh_reference.derive)


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


def layout_to_json(L, meta: Optional[dict] = None) -> str:
    S = L.surface
    data = {
        "faces": [[[float(x), float(y)] for x, y in pts] for pts in L.face_points],
        "tree": S.tree.to_json(),
        "boundary": [
            {
                "face": rec.face,
                "pos": S.faces[rec.face].index(rec.tail),
                "tail": rec.tail,
                "head": rec.head,
                "edge": list(rec.edge),
                "dual": rec.dual,
            }
            for rec in S.boundary
        ],
        "folds": [
            {"edge": list(e), "a": list(fa), "b": list(fb)}
            for e, (fa, fb) in sorted(cut(S.mesh, S.tree)[1].items())
        ],
        "meta": dict(meta or {}),
    }
    return _json_dumps(data) + "\n"


def check_spanning(Q, T):
    if len(T.parent) != Q.n_vertices:
        raise NotSpanningTree("tree and mesh disagree on the vertex count")
    edges = set(derive(Q.n_vertices, Q.faces)[1])
    for v, p in enumerate(T.parent):
        if v != T.root and (min(v, p), max(v, p)) not in edges:
            raise NotSpanningTree(f"tree edge ({v}, {p}) is not a mesh edge")
    # parent links must all reach the root (no stray cycles)
    for v in range(Q.n_vertices):
        cur, hops = v, 0
        while cur != T.root:
            cur = T.parent[cur]
            hops += 1
            if hops > Q.n_vertices:
                raise NotSpanningTree(f"vertex {v} never reaches the root")


def cut(Q, T) -> tuple:
    """``(boundary records, fold edge -> ((face_a, pos_a), (face_b, pos_b)), root vertex)``."""
    check_spanning(Q, T)
    half, edges, _, _ = derive(Q.n_vertices, Q.faces)
    cut_set = T.edges
    # fold edges of a spanning tree connect all faces; the walk below rejects other cut sets
    fold_adjacency = {
        (u, v): (half[(u, v)], half[(v, u)]) for u, v in edges if (u, v) not in cut_set
    }

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
            f, p = next_in_face(*half[(b, a)])

    # collect all boundary half-edges and walk the single cycle
    remaining = {half[h] for u, v in cut_set for h in ((u, v), (v, u))}
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
        dual = position[half[(b, a)]]
        records.append(BoundaryEdge(f, p, a, b, e, dual))

    return tuple(records), fold_adjacency, order.x_max
