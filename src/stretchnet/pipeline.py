"""End-to-end run: rotate, stretch, build an increasing tree, unfold, certify."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .mesh import Polyhedron
from .transform import Stretch, apply_stretch, plan_stretch
from .tree import SpanningTree, TieRule, build_increasing_tree
from .unfold import BoundaryCurve, CutSurface, PlanarLayout, boundary_curve, cut, develop
from .verdict import Verdict
from .verify import certify_boundary


@dataclass
class UnfoldRun:
    polyhedron: Polyhedron
    stretch: Stretch
    stretched: Polyhedron
    tree: SpanningTree
    surface: CutSurface
    layout: PlanarLayout
    boundary: BoundaryCurve
    verdict: Verdict


def stretch_and_unfold(
    P: Polyhedron,
    theta_max: Optional[float] = None,
    tie_rule: TieRule = TieRule.STEEPEST_ASCENT,
    seed: int = 0,
) -> UnfoldRun:
    """Produce a certified net of a linear stretch of ``P``.

    The rotation/stretch pair is planned so every edge lies within
    ``theta_max`` (default pi / (20 N)) of the x-axis, an increasing
    spanning tree is cut, and the development is certified.  With the
    default bound the verdict is expected to be a net for every valid
    convex input; anything else indicates a bug or a hand-tuned bound.
    """
    S = plan_stretch(P, theta_max=theta_max, seed=seed)
    Q = apply_stretch(P, S)
    T = build_increasing_tree(Q, rule=tie_rule, seed=seed)
    surface = cut(Q, T)
    layout = develop(surface)
    boundary = boundary_curve(layout)
    verdict = certify_boundary(boundary)
    return UnfoldRun(P, S, Q, T, surface, layout, boundary, verdict)
