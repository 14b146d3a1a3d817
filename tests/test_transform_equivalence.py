"""The blocked rotation search picks the rotation of the one-by-one loop.

``transform.choose_rotation`` scores every candidate in one array pass;
``tests/transform_reference.choose_rotation`` keeps the loop that built
and scored one candidate at a time.  The chosen rotations must be
bitwise equal, ties included: the identity is kept unless a candidate is
strictly better, and among equal candidates the first wins.  Every
candidate's margin must be bitwise the loop's too.
"""

import tracemalloc

import numpy as np
import pytest

from stretchnet import shapes
from stretchnet.errors import OrthogonalEdge
from stretchnet.transform import _best_rotation, _margins, _quaternion_matrix, apply_linear, choose_rotation, rotate

import transform_reference as reference

HULLS = [(n, seed) for n in (6, 40, 200, 1000) for seed in range(4)]
NAMES = ["tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron"]
NAMES += [f"hull-{n}-{seed}" for n, seed in HULLS]


@pytest.fixture(scope="module")
def meshes():
    return {**shapes.platonic_solids(), **{f"hull-{n}-{seed}": shapes.random_hull(n, seed) for n, seed in HULLS}}


def unit_dirs(P):
    d = np.array([P.edge_vector(e) for e in P.edges])
    return d / np.linalg.norm(d, axis=1, keepdims=True)


@pytest.mark.parametrize("name", NAMES)
def test_edge_vectors_are_the_per_edge_loop(meshes, name):
    # one fancy-indexed difference per mesh feeds the rotation search, the
    # lambda bound, the edge-angle check and the direction sweep
    P = meshes[name]
    for M in (P, rotate(P, choose_rotation(P)), apply_linear(P, np.eye(3), 1e9)):
        assert M.edge_vectors.tobytes() == np.array([M.edge_vector(e) for e in M.edges]).tobytes()
        assert not M.edge_vectors.flags.writeable
        assert M.edge_vectors is M.edge_vectors


@pytest.mark.parametrize("samples", [0, 1, 7, 1024])
@pytest.mark.parametrize("name", NAMES)
def test_choose_rotation_matches_loop(meshes, name, samples):
    P = meshes[name]
    for seed in (0, 3):
        try:
            expected = reference.choose_rotation(P, seed=seed, samples=samples)
        except OrthogonalEdge:
            with pytest.raises(OrthogonalEdge):
                choose_rotation(P, seed=seed, samples=samples)
            continue
        assert np.array_equal(choose_rotation(P, seed=seed, samples=samples), expected)


@pytest.mark.parametrize("name", ["cube", "dodecahedron", "hull-6-1", "hull-200-2", "hull-1000-3"])
def test_margins_match_loop(meshes, name):
    # the winner is rebuilt from its quaternion, so a margin off by one
    # rounding would show only where it reorders two candidates
    dirs = unit_dirs(meshes[name])
    q = np.random.default_rng(11).normal(size=(1024, 4))
    assert np.array_equal(_margins(dirs, q), reference.margins(dirs, q))


def test_draws_are_the_per_sample_stream():
    rows = np.random.default_rng(5).normal(size=(7, 4))
    rng = np.random.default_rng(5)
    assert np.array_equal(rows, np.array([rng.normal(size=4) for _ in range(7)]))


def test_tie_with_identity_keeps_identity(meshes):
    # q = (0, 1, 0, 0) is the half-turn about x, whose first row is e_x:
    # its margin equals the identity's exactly, so it is not strictly better
    dirs = unit_dirs(meshes["hull-40-0"])
    q = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 3.0, 0.0, 0.0]])
    assert np.array_equal(_quaternion_matrix(q[0]), np.diag([1.0, -1.0, -1.0]))
    assert np.array_equal(_best_rotation(dirs, q), np.eye(3))
    assert np.array_equal(reference.best_rotation(dirs, q), np.eye(3))


def test_tie_between_candidates_keeps_the_first(cube):
    # (w, x, y, z) and (-x, w, -z, y) differ by a half-turn about x applied
    # after them, so their first rows are equal; with integer entries the
    # norms are exact, so the first rows, and margins, are bitwise equal
    dirs = unit_dirs(cube)
    a, b = np.array([1.0, 2.0, 3.0, 4.0]), np.array([-2.0, 1.0, -4.0, 3.0])
    Ra, Rb = _quaternion_matrix(a), _quaternion_matrix(b)
    assert np.array_equal(Ra[0], Rb[0]) and not np.array_equal(Ra, Rb)
    for q, first in ((np.array([a, b]), Ra), (np.array([b, a]), Rb)):
        assert np.array_equal(_best_rotation(dirs, q), first)
        assert np.array_equal(reference.best_rotation(dirs, q), first)


def test_identity_margin_too_small_raises(cube):
    # every cube edge but the four along x has dx = 0
    with pytest.raises(OrthogonalEdge):
        choose_rotation(cube, samples=0)


def test_margins_are_blocked(meshes):
    # 2,994 edges x 1,024 candidates would be a 24 MB margin matrix; the
    # largest block is 128 KB, below the edge-vector list built before it
    P = meshes["hull-1000-0"]
    choose_rotation(P)
    tracemalloc.start()
    try:
        choose_rotation(P)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert P.n_edges > 2900
    assert peak < 2**20
