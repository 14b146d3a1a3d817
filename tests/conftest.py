import math
import os
from pathlib import Path

import numpy as np
import pytest

import stretchnet
from stretchnet import shapes
from stretchnet.mesh import Polyhedron


@pytest.fixture(scope="session")
def tetra():
    return shapes.tetrahedron()


@pytest.fixture(scope="session")
def cube():
    return shapes.cube()


@pytest.fixture(scope="session")
def octa():
    return shapes.octahedron()


@pytest.fixture(scope="session")
def icosa():
    return shapes.icosahedron()


@pytest.fixture(scope="session")
def dodeca():
    return shapes.dodecahedron()


def prism(n):
    """Right prism over a regular n-gon: vertex i of the bottom cap lies
    under vertex n + i of the top one; two n-gon caps and n quads."""
    t = 2 * np.pi * np.arange(n) / n
    ring = np.stack([np.cos(t), np.sin(t)], axis=1)
    verts = np.vstack([np.hstack([ring, np.zeros((n, 1))]), np.hstack([ring, np.ones((n, 1))])])
    faces = [tuple(range(n)), tuple(range(n, 2 * n))]
    faces += [(i, (i + 1) % n, n + (i + 1) % n, n + i) for i in range(n)]
    return Polyhedron.build(verts, faces)


def winding_angle_sum(points, p, subdiv=32):
    """Independent winding oracle: accumulated argument change along a
    densely sampled traversal of the curve, divided by 2*pi."""
    total = 0.0
    n = len(points)
    prev = None
    for i in range(n + 1):
        a = points[i % n]
        b = points[(i + 1) % n]
        for k in range(subdiv):
            t = k / subdiv
            q = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
            ang = math.atan2(q[1] - p[1], q[0] - p[0])
            if prev is not None:
                d = ang - prev
                while d > math.pi:
                    d -= 2 * math.pi
                while d <= -math.pi:
                    d += 2 * math.pi
                total += d
            prev = ang
        if i == n:
            break
    return round(total / (2 * math.pi))


def child_env(**overrides):
    # a fresh interpreter must import the same stretchnet as this session,
    # whether it comes from an uninstalled src/ checkout or an installation
    env = dict(os.environ)
    root = str(Path(stretchnet.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    env.update(overrides)
    return env
