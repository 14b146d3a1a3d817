"""Exception types shared across the package."""


class UnfoldError(Exception):
    """Base class for all stretchnet errors."""


class DegenerateDirection(UnfoldError):
    """A direction was requested for a (near-)zero vector."""


class DegenerateSegment(UnfoldError):
    """A segment with (near-)coincident endpoints was passed to a predicate."""


class OffParseError(UnfoldError):
    """Malformed OFF input. Carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class NotClosed(UnfoldError):
    """Mesh is not a closed orientable surface of sphere topology."""


class NotConvex(UnfoldError):
    """Mesh failed the convexity test."""


class NonPlanarFace(UnfoldError):
    """A face deviates from its best-fit plane beyond tolerance."""


class OrthogonalEdge(UnfoldError):
    """An edge is (near-)orthogonal to the stretch axis."""


class NoRightwardEdge(UnfoldError):
    """A non-maximal vertex has no neighbor with strictly larger x."""


class NotSpanningTree(UnfoldError):
    """Edge set is not a spanning tree of the mesh's vertex-edge graph."""


class CompatibilityFailure(UnfoldError):
    """Placements of two faces disagree across a shared fold edge."""


class MalformedLayout(UnfoldError):
    """A stored layout document is not of the form ``layout_to_json`` writes."""


class LengthMismatch(UnfoldError):
    """Two chains that must have equal point counts do not."""


class VerticalSegment(UnfoldError):
    """A boundary segment has |dx| below tolerance; decomposition undefined."""


class CoplanarFacesWarning(UserWarning):
    """Two adjacent faces are coplanar (dihedral angle ~ pi). Kept unmerged."""
