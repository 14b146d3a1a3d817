"""The benchmark's workloads.

Each workload writes its OFF inputs, then runs rounds of operations
through stretchnet's public API.  A round always attempts the same
operations, so every run attempts whole rounds.  The first timed round
keeps its outputs for the independent checks in ``checks``; later
rounds must reproduce its verdicts exactly.

- ``hull-large``: one operation is ``stretchnet unfold`` followed by
  ``stretchnet verify`` on one large random hull, minus file I/O.
- ``tree-census``: one operation is one increasing tree of a small mesh
  cut, developed and certified; each mesh is stretched once per round.
- ``overlap-census``: one operation is one row of ``oracle.census`` over
  every spanning tree of the cube and the octahedron at lambda 1 and auto.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import inputs
from stretchnet import mesh, oracle, pipeline, transform, tree, unfold, verify
from stretchnet.verdict import Status


@dataclass
class Doc:
    """One input mesh: its OFF text and the benchmark's own reading of it."""

    name: str
    text: str
    theta: float | None = None  # None: the default bound pi / (20 N)

    def __post_init__(self):
        self.vertices, self.faces = inputs.parse_off(self.text)
        self.edges = checks.mesh_edges(self.faces)


@dataclass
class Round:
    attempted: int = 0
    failed: int = 0
    fingerprint: list = field(default_factory=list)
    kept: list = field(default_factory=list)  # outputs for the checks


def write_docs(workdir: Path, texts: list[tuple[str, str, float | None]]) -> list[Doc]:
    """Write each OFF document to ``workdir`` and read it back."""
    docs = []
    for name, text, theta in texts:
        path = workdir / f"{name}.off"
        path.write_text(text)
        docs.append(Doc(name, path.read_text(), theta))
    return docs


def _default_theta(doc: Doc) -> float:
    return math.pi / (20.0 * len(doc.edges)) if doc.theta is None else doc.theta


def check_mesh(doc: Doc, P, rotation, lam, theta) -> tuple[np.ndarray, float, list[str]]:
    """Stretched vertices and surface area, computed here from the OFF
    document, and the ingest and stretch-bound checks."""
    V = checks.normalise(doc.vertices)
    M = checks.stretch_matrix(rotation, lam)
    Q = V @ M.T
    problems = checks.check_ingest(doc.vertices, P.vertices)
    problems += checks.check_stretch_bound(V, doc.edges, M, theta)
    return Q, checks.surface_area(Q, doc.faces), [f"{doc.name}: {p}" for p in problems]


def check_layout(Q, T, layout) -> tuple[list[str], np.ndarray, float]:
    """Faces check of one unfolding of ``Q`` along ``T``, and its boundary
    polyline assembled from the face corners, with the largest gap."""
    S = layout.surface
    cut = [(min(v, p), max(v, p)) for v, p in enumerate(T.parent) if v != T.root]
    problems = checks.check_faces(layout.face_points, S.faces, Q, cut)
    records = [(r.face, r.tail, r.head) for r in S.boundary]
    return (problems, *checks.assemble_boundary(layout.face_points, S.faces, records))


def check_unfolding(doc: Doc, Q, area, T, layout, verdict) -> list[str]:
    """Tree, faces and net checks for one increasing-tree unfolding of ``Q``."""
    problems = checks.check_tree(T.parent, T.root, doc.edges, Q[:, 0])
    found, points, gap = check_layout(Q, T, layout)
    problems += found + checks.check_net(points, gap, area)
    if verdict.status is not Status.NET:
        problems.append(f"increasing tree certified {verdict.status.value}")
    return [f"{doc.name}: {p}" for p in problems]


# -- hull-large ---------------------------------------------------------------

PI_40 = math.pi / 40.0


class HullLarge:
    """Three 300-vertex hulls and one 1000-vertex hull at theta = pi/40, and
    one 150-vertex hull at the default bound pi / (20 N).

    At the default bound ``stretch_and_unfold`` raises ``NotConvex`` on a
    few hulls of 300 vertices or more (see README.md), so the hull at that
    bound stays small.  The 300-vertex hulls are spread through the round
    and hold the median operation, so it does not rest on one stretch of
    time.
    """

    name = "hull-large"
    SIZES = ((300, PI_40), (150, None), (300, PI_40), (1000, PI_40), (300, PI_40))

    def write_inputs(self, seed: int, workdir: Path) -> list[Doc]:
        rng = np.random.default_rng(seed)
        texts = []
        for k, (n, theta) in enumerate(self.SIZES):
            texts.append((f"hull{k}-{n}", inputs.off_text(*inputs.sphere_hull(rng, n)), theta))
        return write_docs(workdir, texts)

    @staticmethod
    def operation(doc: Doc):
        P = mesh.load_off(doc.text)
        run = pipeline.stretch_and_unfold(P, theta_max=doc.theta)
        meta = {"lambda": run.stretch.lam, "theta_max": run.stretch.theta_max, "seed": 0}
        stored = unfold.load_layout_json(unfold.layout_to_json(run.layout, meta=meta))
        unfold.check_fold_consistency(stored)
        B = unfold.rebuild_boundary(stored)
        centroids = [
            (sum(x for x, _ in pts) / len(pts), sum(y for _, y in pts) / len(pts))
            for pts in stored["faces"]
        ]
        return P, run, verify.certify_boundary(B, interior_probes=centroids)

    def warmup(self, docs):
        self.operation(min(docs, key=lambda d: len(d.vertices)))

    def round(self, docs, op_times: list, keep: bool) -> Round:
        out = Round()
        for doc in docs:
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                P, run, recheck = self.operation(doc)
            except Exception as exc:  # a failed operation is counted, not fatal
                out.failed += 1
                out.fingerprint.append((doc.name, repr(exc)))
                continue
            op_times.append(time.perf_counter() - t0)
            out.fingerprint.append((doc.name, run.verdict.to_json(), run.stretch.lam))
            if keep:
                out.kept.append((doc, P, run, recheck))
        return out

    def check(self, kept) -> list[str]:
        problems = []
        for doc, P, run, recheck in kept:
            st = run.stretch
            if not math.isclose(st.theta_max, _default_theta(doc), rel_tol=1e-12):
                problems.append(f"{doc.name}: theta {st.theta_max!r} is not the requested bound")
            Q, area, found = check_mesh(doc, P, st.rotation, st.lam, st.theta_max)
            problems += found + check_unfolding(doc, Q, area, run.tree, run.layout, run.verdict)
            if recheck.to_json() != run.verdict.to_json():
                problems.append(f"{doc.name}: verdict re-certified from JSON differs")
        return problems


# -- tree-census --------------------------------------------------------------


class TreeCensus:
    """The acceptance suite's criterion-1 set: Platonic solids and twenty
    random hulls of 6-10 vertices, with up to 50 increasing trees each.

    ``sample_increasing_trees`` returns every tree of a mesh that has at
    most 50.  Capping every mesh, not only those above 8 vertices as the
    acceptance suite does, keeps the mix of mesh sizes nearly the same for
    every seed (an 8-vertex hull has anywhere from 160 to 432 trees).  At
    50 the median operation falls in the middle of the 8-vertex hulls'
    trees, not at the step between two mesh sizes, so it is steady.
    """

    name = "tree-census"
    SAMPLE = 50

    def __init__(self, root: Path):
        self.root = root

    def write_inputs(self, seed: int, workdir: Path) -> list[Doc]:
        rng = np.random.default_rng(seed)
        texts = [(name, inputs.platonic_off(self.root, name), None) for name in inputs.PLATONIC]
        for k in range(20):
            n = 6 + k % 5
            texts.append((f"hull{k}-{n}", inputs.off_text(*inputs.sphere_hull(rng, n)), None))
        return write_docs(workdir, texts)

    def stretch(self, doc: Doc):
        P = mesh.load_off(doc.text)
        S = transform.plan_stretch(P)
        Q = transform.apply_stretch(P, S)
        return P, S, Q, tree.sample_increasing_trees(Q, self.SAMPLE, seed=0)

    @staticmethod
    def operation(Q, T):
        layout = unfold.develop(unfold.cut(Q, T))
        B = unfold.boundary_curve(layout)
        return layout, verify.certify_boundary(B, interior_probes=verify.face_centroids(layout))

    def warmup(self, docs):
        _, _, Q, trees = self.stretch(docs[0])
        self.operation(Q, trees[0])

    def round(self, docs, op_times: list, keep: bool) -> Round:
        out = Round()
        for doc in docs:
            try:
                P, S, Q, trees = self.stretch(doc)
            except Exception as exc:  # the mesh's trees are unknown: one failure
                out.attempted += 1
                out.failed += 1
                out.fingerprint.append((doc.name, repr(exc)))
                continue
            for T in trees:
                out.attempted += 1
                t0 = time.perf_counter()
                try:
                    layout, verdict = self.operation(Q, T)
                except Exception as exc:
                    out.failed += 1
                    out.fingerprint.append((doc.name, T.parent, repr(exc)))
                    continue
                op_times.append(time.perf_counter() - t0)
                out.fingerprint.append((doc.name, T.parent, verdict.status, len(verdict.witnesses)))
                if keep:
                    out.kept.append((doc, P, S, T, layout, verdict))
        return out

    def check(self, kept) -> list[str]:
        problems, meshes = [], {}
        for doc, P, S, T, layout, verdict in kept:
            if doc.name not in meshes:
                Q, area, found = check_mesh(doc, P, S.rotation, S.lam, _default_theta(doc))
                meshes[doc.name] = Q, area
                problems += found
            problems += check_unfolding(doc, *meshes[doc.name], T, layout, verdict)
        return problems


# -- overlap-census -----------------------------------------------------------


class OverlapCensus:
    """``oracle.census`` of every spanning tree of the cube and the
    octahedron at lambda 1 and at the default-bound lambda."""

    name = "overlap-census"
    MESHES = ("cube", "octahedron")
    LAMBDAS = (1.0, "auto")

    def __init__(self, root: Path):
        self.root = root

    def write_inputs(self, seed: int, workdir: Path) -> list[Doc]:
        # The census covers every tree of two fixed solids: nothing to seed.
        return write_docs(workdir, [(n, inputs.platonic_off(self.root, n), None) for n in self.MESHES])

    def warmup(self, docs):
        oracle.census(mesh.load_off(docs[0].text), lambdas=(1.0,), cap=1)

    def round(self, docs, op_times: list, keep: bool) -> Round:
        """Each census row ends with one ``certify_net`` call; a row's time
        runs from the end of the previous row (or the census call) to its end."""
        out = Round()
        original = oracle.certify_net
        for doc in docs:
            rows_seen = []

            def certify_and_stamp(layout, *args, **kwargs):
                verdict = original(layout, *args, **kwargs)
                rows_seen.append((time.perf_counter(), layout if keep else None, verdict))
                return verdict

            oracle.certify_net = certify_and_stamp
            t0 = time.perf_counter()
            try:
                P = mesh.load_off(doc.text)
                rows = oracle.census(P, lambdas=self.LAMBDAS, cap=1000)
            except Exception as exc:
                expected = len(self.LAMBDAS) * checks.spanning_tree_count(len(doc.vertices), doc.edges)
                out.attempted += expected
                out.failed += expected
                out.fingerprint.append((doc.name, repr(exc)))
                continue
            finally:
                oracle.certify_net = original
            stamps = [t0] + [t for t, _, _ in rows_seen]
            op_times.extend(b - a for a, b in zip(stamps, stamps[1:]))
            out.attempted += len(rows)
            out.fingerprint.append((doc.name, [(r.tree_id, r.increasing, r.verdict, r.witnesses, r.lam) for r in rows]))
            if keep:
                out.kept.append((doc, P, rows, [(layout, v) for _, layout, v in rows_seen]))
        return out

    def check(self, kept) -> list[str]:
        problems = []
        for doc, P, rows, made in kept:
            if len(made) != len(rows):
                problems.append(f"{doc.name}: {len(made)} certificates for {len(rows)} rows")
                continue
            n_trees = checks.spanning_tree_count(len(doc.vertices), doc.edges)
            R = transform.choose_rotation(P, seed=0)
            auto = max(r.lam for r in rows)
            for lam in sorted({r.lam for r in rows}):
                got = sum(r.lam == lam for r in rows)
                if got != n_trees:
                    problems.append(f"{doc.name}: {got} rows at lambda {lam!r}, {n_trees} spanning trees")
                Q, area, found = check_mesh(doc, P, R, lam, _default_theta(doc))
                if lam == auto:
                    problems += found
                for row, (layout, verdict) in zip(rows, made):
                    if row.lam == lam:
                        problems += [f"{doc.name} tree {row.tree_id} lambda {lam!r}: {p}"
                                     for p in self._check_row(doc, Q, area, lam == auto, row, layout, verdict)]
        return problems

    @staticmethod
    def _check_row(doc, Q, area, at_bound, row, layout, verdict) -> list[str]:
        T = layout.surface.tree
        problems, points, gap = check_layout(Q, T, layout)
        if verdict.status is not row.verdict or len(verdict.witnesses) != row.witnesses:
            problems.append("row differs from its certificate")
        increasing = not checks.check_tree(T.parent, T.root, doc.edges, Q[:, 0])
        if increasing != row.increasing:
            problems.append(f"row says increasing={row.increasing}, tree check says {increasing}")
        if at_bound and increasing and row.verdict is not Status.NET:
            problems.append(f"increasing tree at the default bound certified {row.verdict.value}")
        if row.verdict is Status.NET:
            problems += checks.check_net(points, gap, area)
        probes = [w.point for w in verdict.witnesses if w.point is not None]
        if checks.overlaps(points, probes + checks.centroids(layout.face_points)) != (row.verdict is Status.OVERLAP):
            problems.append(f"{row.verdict.value} row, but the overlap test disagrees")
        return problems
