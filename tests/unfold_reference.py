"""Reference serialization and spanning check, kept for the equivalence tests.

``unfold.layout_to_json`` formats each record with one %-format, and
``unfold._check_spanning`` walks each vertex only up to the first vertex
already known to reach the root.  This module keeps the forms they
replaced: the recursive ``_json_dumps`` applied to the whole layout, and
a walk from every vertex to the root.  ``tests/test_unfold_equivalence.py``
compares the two on every input.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from stretchnet.errors import NotSpanningTree


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
        "tree": S.tree.to_json() if S.tree is not None else None,
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
            for e, (fa, fb) in sorted(S.fold_adjacency.items())
        ],
        "meta": dict(meta or {}),
    }
    return _json_dumps(data) + "\n"


def check_spanning(Q, T):
    if len(T.parent) != Q.n_vertices:
        raise NotSpanningTree("tree and mesh disagree on the vertex count")
    for v, p in enumerate(T.parent):
        if v != T.root and not Q.has_edge(v, p):
            raise NotSpanningTree(f"tree edge ({v}, {p}) is not a mesh edge")
    # parent links must all reach the root (no stray cycles)
    for v in range(Q.n_vertices):
        cur, hops = v, 0
        while cur != T.root:
            cur = T.parent[cur]
            hops += 1
            if hops > Q.n_vertices:
                raise NotSpanningTree(f"vertex {v} never reaches the root")
