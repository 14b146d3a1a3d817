"""Reference rotation search: one candidate rotation at a time.

The library's ``transform.choose_rotation`` scores all candidates in one
blocked array pass.  This module keeps the loop it must agree with,
bitwise, on every
candidate's margin and on the chosen rotation.
"""

import numpy as np

from stretchnet.errors import OrthogonalEdge
from stretchnet.geometry import EPS
from stretchnet.transform import _quaternion_matrix


def margins(dirs, draws):
    """Margin of each candidate, scored one at a time."""
    return [float(np.abs(dirs @ _quaternion_matrix(q)[0]).min()) for q in draws]


def best_rotation(dirs, draws):
    """The identity or the first candidate of ``draws`` (quaternions) whose
    margin on unit edge directions ``dirs`` beats every earlier one."""
    best_R, best_margin = np.eye(3), float(np.abs(dirs[:, 0]).min())
    for q in draws:
        R = _quaternion_matrix(q)
        margin = float(np.abs(dirs @ R[0]).min())
        if margin > best_margin:
            best_R, best_margin = R, margin
    if best_margin <= EPS:
        raise OrthogonalEdge("no sampled rotation cleared an edge off the x-orthogonal plane")
    return best_R


def choose_rotation(P, seed=0, samples=1024):
    dirs = np.array([P.edge_vector(e) for e in P.edges])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    rng = np.random.default_rng(seed)
    return best_rotation(dirs, (rng.normal(size=4) for _ in range(samples)))
