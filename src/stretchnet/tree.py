"""Vertex ordering by x-coordinate and increasing spanning trees.

A spanning tree rooted at the x-maximal vertex is *increasing* when every
tree edge points from child to a parent with larger x, so each vertex's
tree path ascends in x all the way to the root.  On a properly stretched
convex mesh every non-maximal vertex has a strictly rightward neighbor,
so such trees always exist.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional

import numpy as np

from . import verdict as vd
from .errors import NoRightwardEdge, NotSpanningTree
from .mesh import Polyhedron


@dataclass(frozen=True)
class VertexOrder:
    """Vertices ordered by x-coordinate, ties broken by index."""

    keys: tuple
    y_min: int
    z_max: int


def vertex_order(P: Polyhedron) -> VertexOrder:
    keys = tuple((float(x), i) for i, x in enumerate(P.x))
    return VertexOrder(keys, min(range(len(keys)), key=keys.__getitem__),
                       max(range(len(keys)), key=keys.__getitem__))


class TieRule(Enum):
    STEEPEST_ASCENT = "steepest"
    FIRST_BY_INDEX = "first"
    RANDOM = "random"


@dataclass(frozen=True)
class SpanningTree:
    """Rooted spanning tree; ``parent[v]`` indexes v's parent, root maps to itself."""

    root: int
    parent: tuple

    def __post_init__(self):
        if self.parent[self.root] != self.root:
            raise NotSpanningTree("root must be its own parent")

    @property
    def edges(self) -> frozenset:
        return frozenset(
            (min(v, p), max(v, p)) for v, p in enumerate(self.parent) if v != self.root
        )

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {v: [] for v in range(len(self.parent))}
        for v, p in enumerate(self.parent):
            if v != self.root:
                out[p].append(v)
        return out

    def leaves(self) -> tuple[int, ...]:
        kids = self.children()
        return tuple(v for v in range(len(self.parent)) if v != self.root and not kids[v])

    def to_json(self) -> dict:
        pairs = [[v, p] for v, p in enumerate(self.parent) if v != self.root]
        return {"pairs": pairs, "root": self.root}

    @classmethod
    def from_json(cls, data: dict) -> "SpanningTree":
        root = int(data["root"])
        pairs = [(int(c), int(p)) for c, p in data["pairs"]]
        parent = [None] * (len(pairs) + 1)
        parent[root] = root
        for c, p in pairs:
            parent[c] = p
        if any(p is None for p in parent):
            raise NotSpanningTree("pairs do not cover every non-root vertex")
        return cls(root, tuple(parent))

    @classmethod
    def from_edges(cls, n_vertices: int, edges: Iterable, root: int) -> "SpanningTree":
        """Root an undirected edge set; raises NotSpanningTree if it is not one."""
        es = [(min(a, b), max(a, b)) for a, b in edges]
        if len(set(es)) != len(es) or len(es) != n_vertices - 1:
            raise NotSpanningTree(f"expected {n_vertices - 1} distinct edges, got {len(es)}")
        adj: dict[int, list[int]] = {v: [] for v in range(n_vertices)}
        for a, b in es:
            adj[a].append(b)
            adj[b].append(a)
        parent = [None] * n_vertices
        parent[root] = root
        queue = [root]
        seen = {root}
        while queue:
            v = queue.pop(0)
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    parent[u] = v
                    queue.append(u)
        if len(seen) != n_vertices:
            raise NotSpanningTree("edge set does not span all vertices")
        return cls(root, tuple(parent))


def rightward_neighbors(Q: Polyhedron) -> tuple:
    """Per vertex, the neighbors with strictly larger x (sorted by index)."""
    x = Q.x
    return tuple(
        tuple(u for u in Q.adjacency[v] if x[u] > x[v]) for v in range(Q.n_vertices)
    )


def _rightward_choices(Q: Polyhedron) -> tuple:
    """(root, non-root vertices, rightward neighbors); NoRightwardEdge if one has none."""
    root = vertex_order(Q).z_max
    rw = rightward_neighbors(Q)
    vs = [v for v in range(Q.n_vertices) if v != root]
    for v in vs:
        if not rw[v]:
            raise NoRightwardEdge(f"vertex {v} has no neighbor with larger x")
    return root, vs, rw


def build_increasing_tree(
    Q: Polyhedron, rule: TieRule = TieRule.STEEPEST_ASCENT, seed: int = 0
) -> SpanningTree:
    """Increasing spanning tree rooted at the x-maximal vertex.

    Each non-root vertex picks a strictly rightward neighbor as parent
    (by the tie rule); since x increases strictly along parent links, the
    result is automatically acyclic and rooted.  Raises NoRightwardEdge
    when some vertex has none, which signals insufficient stretching.
    """
    root, vs, rw = _rightward_choices(Q)
    x = Q.x
    rng = np.random.default_rng(seed) if rule is TieRule.RANDOM else None
    parent = [root] * Q.n_vertices
    for v in vs:
        options = rw[v]
        if rule is TieRule.STEEPEST_ASCENT:
            parent[v] = max(options, key=lambda u: (x[u], -u))
        elif rule is TieRule.FIRST_BY_INDEX:
            parent[v] = min(options)
        else:
            parent[v] = int(options[rng.integers(len(options))])
    return SpanningTree(root, tuple(parent))


def is_increasing(Q: Polyhedron, T: SpanningTree) -> bool:
    """True iff every tree edge (v, parent) satisfies x(parent) >= x(v)."""
    x = Q.x
    return all(x[p] >= x[v] for v, p in enumerate(T.parent) if v != T.root)


def count_increasing_trees(Q: Polyhedron) -> int:
    """Product over non-root vertices of their strictly-rightward degree."""
    _, vs, rw = _rightward_choices(Q)
    return math.prod(len(rw[v]) for v in vs)


def enumerate_increasing_trees(Q: Polyhedron) -> Iterator[SpanningTree]:
    """All increasing trees, in deterministic parent-choice order."""
    root, vs, rw = _rightward_choices(Q)
    for combo in itertools.product(*(rw[v] for v in vs)):
        parent = [root] * Q.n_vertices
        for v, p in zip(vs, combo):
            parent[v] = p
        yield SpanningTree(root, tuple(parent))


def sample_increasing_trees(Q: Polyhedron, k: int, seed: int = 0) -> list[SpanningTree]:
    """Up to ``k`` distinct increasing trees; exhaustive when fewer exist."""
    root, vs, rw = _rightward_choices(Q)
    if math.prod(len(rw[v]) for v in vs) <= k:
        return list(enumerate_increasing_trees(Q))
    rng = np.random.default_rng(seed)
    seen = set()
    out = []
    while len(out) < k:
        parent = [root] * Q.n_vertices
        for v in vs:
            parent[v] = int(rw[v][rng.integers(len(rw[v]))])
        key = tuple(parent)
        if key not in seen:
            seen.add(key)
            out.append(SpanningTree(root, key))
    return out


# -- exhaustive spanning-tree enumeration --------------------------------


def _connected(n_labels: int, labels: list, edges: list) -> bool:
    if n_labels == 1:
        return True
    adj: dict[int, set[int]] = {}
    for _, u, v in edges:
        lu, lv = labels[u], labels[v]
        adj.setdefault(lu, set()).add(lv)
        adj.setdefault(lv, set()).add(lu)
    if len(adj) != n_labels:
        return False
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        a = stack.pop()
        for b in adj[a]:
            if b not in seen:
                seen.add(b)
                stack.append(b)
    return len(seen) == n_labels


def _tree_edge_sets(labels: list, n_labels: int, edges: list, chosen: list) -> Iterator[frozenset]:
    """Deletion/contraction on a multigraph; parallel edges stay distinct."""
    if n_labels == 1:
        yield frozenset(chosen)
        return
    eid, u, v = edges[0]
    rest = edges[1:]
    # contract: trees containing this edge
    lu, lv = labels[u], labels[v]
    merged = [lu if l == lv else l for l in labels]
    alive = [(i, a, b) for i, a, b in rest if merged[a] != merged[b]]
    yield from _tree_edge_sets(merged, n_labels - 1, alive, chosen + [eid])
    # delete: trees avoiding it (only if the rest still connects everything)
    if _connected(n_labels, labels, rest):
        yield from _tree_edge_sets(labels, n_labels, rest, chosen)


def spanning_tree_edge_sets(n_vertices: int, edges: list) -> Iterator[frozenset]:
    """Stream every spanning tree of a connected graph as a frozenset of edge ids.

    Edges are (u, v) pairs; ids are their positions in ``edges``.  The
    order is deterministic: trees containing earlier edges come first.
    """
    indexed = [(i, u, v) for i, (u, v) in enumerate(edges)]
    labels = list(range(n_vertices))
    yield from _tree_edge_sets(labels, n_vertices, indexed, [])


def enumerate_spanning_trees(Q: Polyhedron, cap: Optional[int] = None) -> Iterator[SpanningTree]:
    """Distinct spanning trees of the edge graph, rooted at the x-maximal vertex.

    Yields all of them when their count is at most ``cap``, else the
    first ``cap`` in deterministic order.
    """
    if cap is not None and cap <= 0:
        raise ValueError("cap must be positive")
    root = vertex_order(Q).z_max
    gen = spanning_tree_edge_sets(Q.n_vertices, list(Q.edges))
    if cap is not None:
        gen = itertools.islice(gen, cap)
    for ids in gen:
        yield SpanningTree.from_edges(Q.n_vertices, [Q.edges[i] for i in ids], root)


def terminal_edge_check(Q: Polyhedron, T: SpanningTree, bound: float = math.pi / 10.0) -> vd.Verdict:
    """Check that every leaf edge, oriented leaf -> parent, points rightward.

    The leaf edge direction (dx, dy, dz) is judged by the development
    convention (dx, sqrt(dy^2 + dz^2)); passing means its angle to the
    positive x-axis stays below ``bound``.
    """
    witnesses = []
    for leaf in T.leaves():
        d = Q.vertices[T.parent[leaf]] - Q.vertices[leaf]
        angle = math.atan2(math.hypot(d[1], d[2]), d[0])
        if not (-bound < angle < bound):
            witnesses.append(vd.Witness(note=f"leaf {leaf}: edge angle {angle!r} outside (+-{bound!r})"))
    if witnesses:
        return vd.Verdict(vd.Status.PRECONDITION_FAILURE, tuple(witnesses), {"terminal_edges": False})
    return vd.Verdict(vd.Status.NET, (), {"terminal_edges": True})
