import math

import numpy as np
import pytest

from stretchnet.errors import OrthogonalEdge
from stretchnet.transform import (
    Stretch,
    _lambda_for_dirs,
    apply_linear,
    apply_stretch,
    choose_rotation,
    default_theta_max,
    edge_angle_report,
    plan_stretch,
    required_lambda,
    rotate,
    rotation_to_x,
    sweep_directions,
)


def test_lambda_single_edge_45_degrees():
    # direction (1,1,0) sits exactly at pi/4; the 1% margin pushes under
    lam = _lambda_for_dirs(np.array([[1.0, 1.0, 0.0]]), math.pi / 4)
    assert lam == pytest.approx(1.01)


def test_lambda_single_edge_atan_half():
    lam = _lambda_for_dirs(np.array([[1.0, 1.0, 0.0]]), math.atan(0.5))
    assert lam == pytest.approx(2.0 * 1.01)


def test_lambda_never_below_one():
    lam = _lambda_for_dirs(np.array([[1.0, 0.001, 0.0]]), math.pi / 4)
    assert lam == 1.0


def test_lambda_orthogonal_edge():
    with pytest.raises(OrthogonalEdge):
        _lambda_for_dirs(np.array([[0.0, 1.0, 0.0]]), math.pi / 4)


def test_choose_rotation_clears_cube_axes(cube):
    # the axis-aligned cube has 8 edges with dx = 0, so the identity
    # candidate loses to any generic rotation
    R = choose_rotation(cube, seed=0)
    assert not np.allclose(R, np.eye(3))
    d = np.array([rotate(cube, R).edge_vector(e) for e in rotate(cube, R).edges])
    margins = np.abs(d[:, 0]) / np.linalg.norm(d, axis=1)
    assert margins.min() > 0.01


def test_choose_rotation_deterministic(tetra):
    assert np.array_equal(choose_rotation(tetra, seed=3), choose_rotation(tetra, seed=3))


def test_required_lambda_satisfies_bound(tetra):
    theta = default_theta_max(tetra)
    assert theta == pytest.approx(math.pi / 120)
    R = choose_rotation(tetra)
    P_rot = rotate(tetra, R)
    lam = required_lambda(P_rot, theta)
    Q = apply_linear(tetra, R, lam)
    assert edge_angle_report(Q).max_angle < theta


def test_required_lambda_monotone_in_theta(tetra):
    P_rot = rotate(tetra, choose_rotation(tetra))
    thetas = [0.002, 0.01, 0.05, 0.2]
    lams = [required_lambda(P_rot, t) for t in thetas]
    assert all(a >= b for a, b in zip(lams, lams[1:]))


def test_apply_linear_identity(tetra):
    Q = apply_linear(tetra, np.eye(3), 1.0)
    assert np.allclose(Q.vertices, tetra.vertices)
    assert Q.faces == tetra.faces


def test_apply_stretch_cube_bound(cube):
    S = plan_stretch(cube)
    assert S.theta_max == pytest.approx(math.pi / 240)
    Q = apply_stretch(cube, S)
    assert edge_angle_report(Q).max_angle < math.pi / 240
    # combinatorics preserved
    assert Q.faces == cube.faces
    assert Q.edges == cube.edges


def test_stretch_validation():
    with pytest.raises(ValueError):
        Stretch(np.eye(3) * 2.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        Stretch(np.eye(3), 0.5, 0.1)
    with pytest.raises(ValueError):
        Stretch(np.eye(3), float("nan"), 0.01)
    with pytest.raises(ValueError):
        Stretch(np.eye(3), 1.0, 3.0)


def test_stretch_preserves_convexity(dodeca):
    S = plan_stretch(dodeca)
    Q = apply_stretch(dodeca, S)  # revalidation happens inside build
    assert Q.n_faces == 12


def test_rotation_to_x():
    for d in [(0, 0, 1), (0, 1, 0), (1, 0, 0), (-1, 0, 0), (0.3, -0.5, 0.8)]:
        R = rotation_to_x(d)
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0)
        out = R @ (np.array(d, float) / np.linalg.norm(d))
        assert np.allclose(out, [1, 0, 0], atol=1e-9)


def test_sweep_tetra_mostly_finite(tetra):
    rows = sweep_directions(tetra, 100, seed=0)
    assert len(rows) == 100
    assert sum(r.status == "ok" for r in rows) >= 99


def test_sweep_cube_axis_flagged(cube):
    rows = sweep_directions(cube, 1, directions=[(1.0, 0.0, 0.0)])
    assert rows[0].status == "orthogonal_edge"
    assert rows[0].lam is None


def test_sweep_direction_feeds_pipeline(tetra):
    # any direction with finite lambda must yield a certified net downstream
    from stretchnet.tree import build_increasing_tree
    from stretchnet.unfold import cut, develop
    from stretchnet.verify import certify_net

    rows = sweep_directions(tetra, 3, seed=5)
    theta = default_theta_max(tetra)
    for row in rows:
        if row.status != "ok":
            continue
        R = rotation_to_x(row.direction)
        Q = apply_linear(tetra, R, row.lam)
        T = build_increasing_tree(Q)
        verdict = certify_net(develop(cut(Q, T)))
        assert verdict.ok
