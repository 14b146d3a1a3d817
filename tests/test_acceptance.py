"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they happen; without ``-s`` they still appear in captured output.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from stretchnet import shapes
from stretchnet.cli import main as cli_main
from stretchnet.geometry import EPS, curve_distances, winding_numbers
from stretchnet.mesh import Polyhedron, export_off
from stretchnet.oracle import find_overlap_tetrahedron
from stretchnet.transform import apply_stretch, plan_stretch
from stretchnet.tree import (
    enumerate_increasing_trees,
    is_increasing,
    sample_increasing_trees,
    spanning_tree_edge_sets,
)
from stretchnet.unfold import boundary_curve, cut, develop
from stretchnet.verdict import Status
from stretchnet.verify import (
    certify_boundary,
    check_arm_conclusion,
    check_arm_hypotheses,
    face_centroids,
    polyline_self_intersections,
)

import certificate_reference as reference
from mesh_reference import face_points3d
from matrix_tree import matrix_tree_count


def report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {num}: {detail}"


@dataclass
class NetRecord:
    name: str
    stretched: Polyhedron
    tree: object
    layout: object
    boundary: object
    verdict: object
    exhaustive: bool


def specimen_meshes():
    out = list(shapes.platonic_solids().items())
    for seed in range(20):
        n = 6 + seed % 5
        out.append((f"hull(n={n},seed={seed})", shapes.random_hull(n, seed)))
    return out


@pytest.fixture(scope="module")
def net_suite():
    """Criterion 1 workload; criteria 4-6 reuse the produced layouts."""
    t0 = time.time()
    records = []
    for name, P in specimen_meshes():
        Q = apply_stretch(P, plan_stretch(P))  # theta_max = pi / (20 N)
        if P.n_vertices <= 8:
            trees = list(enumerate_increasing_trees(Q))
            exhaustive = True
        else:
            trees = sample_increasing_trees(Q, 100, seed=0)
            exhaustive = False
        assert all(is_increasing(Q, T) for T in trees)
        for T in trees:
            layout = develop(cut(Q, T))
            B = boundary_curve(layout)
            verdict = certify_boundary(B, interior_probes=face_centroids(layout))
            records.append(NetRecord(name, Q, T, layout, B, verdict, exhaustive))
    elapsed = time.time() - t0
    print(f"\n[net-suite] {len(records)} increasing-tree unfoldings in {elapsed:.1f}s")
    return {"records": records, "elapsed": elapsed}


def test_criterion_1_increasing_trees_certify_net(net_suite):
    records = net_suite["records"]
    failures = [r for r in records if r.verdict.status is not Status.NET]
    solids = {r.name for r in records}
    exhaustive = sum(1 for r in records if r.exhaustive)
    report(
        1,
        not failures and len(solids) == 25 and net_suite["elapsed"] < 300.0,
        f"{len(records)} increasing-tree unfoldings over {len(solids)} solids "
        f"({exhaustive} exhaustive) all certify Net in {net_suite['elapsed']:.1f}s; "
        f"failures={len(failures)}",
    )


def test_criterion_2_overlap_exists_without_stretch():
    t0 = time.time()
    ex = find_overlap_tetrahedron()
    elapsed = time.time() - t0
    ok = ex is not None and ex.verdict.status is Status.OVERLAP and elapsed < 60.0
    detail = (
        f"skinny-tetrahedron search at lambda=1 found overlap "
        f"(pull={ex.pull:.3f}, tree={ex.tree_id}, witnesses={len(ex.verdict.witnesses)}) "
        f"in {elapsed:.1f}s"
        if ex
        else f"no overlap found in {elapsed:.1f}s"
    )
    report(2, ok, detail)


def test_criterion_3_arm_property_10k():
    rng = np.random.default_rng(2024)
    bound = math.pi / 10
    failures = 0
    trials = 10_000
    for trial in range(trials):
        # per-trial independent generator, as per the concurrency contract
        sub = np.random.default_rng((2024, trial))
        m = int(sub.integers(1, 9))
        lengths = sub.uniform(0.2, 1.0, m)
        a = sub.uniform(-bound, bound, (2, m))
        lo, hi = np.minimum(a[0], a[1]), np.maximum(a[0], a[1])
        u, v = [(0.0, 0.0)], [(0.0, 0.0)]
        for L, au, av in zip(lengths, lo, hi):
            u.append((u[-1][0] + L * math.cos(au), u[-1][1] + L * math.sin(au)))
            v.append((v[-1][0] + L * math.cos(av), v[-1][1] + L * math.sin(av)))
        if not check_arm_hypotheses(u, v):
            failures += 1
            continue
        if math.hypot(v[-1][0] - u[-1][0], v[-1][1] - u[-1][1]) <= 1e-9:
            continue  # endpoints coincide: conclusion undefined, skip
        if not check_arm_conclusion(u, v):
            failures += 1
    report(3, failures == 0, f"{trials} random chain pairs (m <= 8): {failures} failures")
    _ = rng


def test_criterion_4_winding_consistency(net_suite):
    records = [r for r in net_suite["records"] if r.verdict.status is Status.NET]
    nets_checked = sum(
        1
        for r in records
        if r.verdict.checks.get("winding_in_0_1") and r.verdict.checks.get("ccw_orientation")
    )
    ex = find_overlap_tetrahedron(require_covered_centroid=True)
    double = 0
    if ex is not None:
        P = np.asarray(boundary_curve(ex.layout).points, dtype=float)
        C = np.asarray(face_centroids(ex.layout), dtype=float)
        off = curve_distances(P, C) > EPS
        double = int((winding_numbers(P, C)[off] == 2).sum())
    report(
        4,
        nets_checked >= 100 and double >= 1,
        f"{nets_checked} Net boundaries with positive signed area (windings in {{0,1}}); "
        f"overlap layout has {double} face centroid(s) at winding 2",
    )


def test_criterion_5_isometry_and_conservation(net_suite):
    worst_len = worst_ang = worst_area = worst_bnd = 0.0
    for r in net_suite["records"]:
        area3 = area2 = 0.0
        for pts3, pts2 in zip(face_points3d(r.layout.surface.mesh), r.layout.face_points):
            k = len(pts2)
            for i in range(k):
                u3 = pts3[(i + 1) % k] - pts3[i]
                w3 = pts3[(i - 1) % k] - pts3[i]
                d3 = float(np.linalg.norm(u3))
                d2 = math.hypot(
                    pts2[(i + 1) % k][0] - pts2[i][0], pts2[(i + 1) % k][1] - pts2[i][1]
                )
                worst_len = max(worst_len, abs(d2 - d3) / d3)
                # atan2-based angles stay well conditioned for sliver corners
                a3 = math.atan2(float(np.linalg.norm(np.cross(u3, w3))), float(u3 @ w3))
                ux = (pts2[(i + 1) % k][0] - pts2[i][0], pts2[(i + 1) % k][1] - pts2[i][1])
                wx = (pts2[(i - 1) % k][0] - pts2[i][0], pts2[(i - 1) % k][1] - pts2[i][1])
                a2 = math.atan2(
                    abs(ux[0] * wx[1] - ux[1] * wx[0]), ux[0] * wx[0] + ux[1] * wx[1]
                )
                worst_ang = max(worst_ang, abs(a2 - a3) / a3)
            # areas
            total = np.zeros(3)
            for i in range(1, k - 1):
                total += np.cross(pts3[i] - pts3[0], pts3[i + 1] - pts3[0])
            area3 += 0.5 * float(np.linalg.norm(total))
            area2 += 0.5 * abs(
                sum(
                    pts2[i][0] * pts2[(i + 1) % k][1] - pts2[(i + 1) % k][0] * pts2[i][1]
                    for i in range(k)
                )
            )
        worst_area = max(worst_area, abs(area2 - area3) / area3)
        blen = sum(
            math.dist(*r.boundary.segment(i)) for i in range(len(r.boundary))
        )
        tlen = 2 * sum(
            float(np.linalg.norm(r.stretched.edge_vector(e))) for e in r.tree.edges
        )
        worst_bnd = max(worst_bnd, abs(blen - tlen) / tlen)
    ok = worst_len < 1e-9 and worst_ang < 1e-9 and worst_area < 1e-9 and worst_bnd < 1e-9
    report(
        5,
        ok,
        f"relative errors: edge length {worst_len:.2e}, corner angle {worst_ang:.2e}, "
        f"area {worst_area:.2e}, boundary-vs-tree length {worst_bnd:.2e} (all < 1e-9)",
    )


def test_criterion_6_boundary_structure(net_suite):
    tilt_bound = math.pi / 10
    bad = 0
    prefixes_checked = 0
    for r in net_suite["records"]:
        if r.verdict.status is not Status.NET:
            continue
        D = reference.decompose_boundary(r.boundary)
        if not (D.alternating and D.max_tilt < tilt_bound and reference.check_turn_directions(D).ok):
            bad += 1
            continue
        if D.runs[0].segments[0] != 0 or D.runs[0].direction != "R":
            bad += 1
            continue
        for prefix in reference.decomposition_prefixes(r.boundary, D):
            prefixes_checked += 1
            if polyline_self_intersections(prefix, closed=False):
                bad += 1
                break
    report(
        6,
        bad == 0,
        f"alternation, tilt < pi/10, turn rules, and {prefixes_checked} "
        f"self-intersection-free zigzag prefixes; violations={bad}",
    )


def test_criterion_7_enumeration_matches_matrix_tree(tetra, cube):
    checks = []
    checks.append(matrix_tree_count((tetra.n_vertices, tetra.edges)) == 16)
    checks.append(sum(1 for _ in spanning_tree_edge_sets(4, list(tetra.edges))) == 16)
    checks.append(matrix_tree_count((cube.n_vertices, cube.edges)) == 384)
    checks.append(sum(1 for _ in spanning_tree_edge_sets(8, list(cube.edges))) == 384)
    rng = np.random.default_rng(11)
    import itertools as it

    done = 0
    while done < 10:
        n = int(rng.integers(4, 8))
        pairs = list(it.combinations(range(n), 2))
        m = int(rng.integers(n, len(pairs) + 1))
        edges = [pairs[i] for i in rng.choice(len(pairs), size=m, replace=False)]
        adj = {v: set() for v in range(n)}
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        seen, stack = {0}, [0]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) != n:
            continue
        done += 1
        checks.append(
            sum(1 for _ in spanning_tree_edge_sets(n, edges)) == matrix_tree_count((n, edges))
        )
    report(
        7,
        all(checks),
        f"K4=16, cube=384, and {done} random graphs: enumeration equals the "
        f"Laplacian-cofactor count ({sum(checks)}/{len(checks)} checks)",
    )


def test_criterion_8_deterministic_artifacts(tmp_path, capsys):
    off = tmp_path / "tetra.off"
    off.write_text(export_off(shapes.tetrahedron()))
    for tag in ("one", "two"):
        cli_main(
            ["unfold", "--input", str(off), "--out", str(tmp_path / tag), "--format", "both"]
        )
        cli_main(
            [
                "census",
                "--input",
                str(off),
                "--lambda-list",
                "1.25,auto",
                "--seed",
                "3",
                "--out",
                str(tmp_path / f"{tag}.csv"),
            ]
        )
        cli_main(
            [
                "sweep",
                "--input",
                str(off),
                "--sweep-k",
                "25",
                "--out",
                str(tmp_path / f"{tag}_sweep.csv"),
            ]
        )
    capsys.readouterr()
    same = (
        (tmp_path / "one.svg").read_bytes() == (tmp_path / "two.svg").read_bytes()
        and (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()
        and (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
        and (tmp_path / "one_sweep.csv").read_bytes()
        == (tmp_path / "two_sweep.csv").read_bytes()
    )
    report(8, same, "two identical runs produce byte-identical SVG/JSON/CSV artifacts")
