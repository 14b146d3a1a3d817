"""Structured certification results.

A Verdict is the outcome of a geometric check: ``net`` when everything
passed, ``overlap`` when two pieces of the unfolding collide, and
``precondition_failure`` when the input violates an assumption the check
relies on (insufficient stretch, wrong orientation, invalid mesh).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional


class Status(str, Enum):
    NET = "net"
    OVERLAP = "overlap"
    PRECONDITION_FAILURE = "precondition_failure"


@dataclass(frozen=True)
class Witness:
    """Evidence for a failed check.

    For segment intersections ``seg_a``/``seg_b`` are segment indices and
    ``point`` the collision point.  Other failures use ``point`` and/or a
    free-form ``note``.
    """

    seg_a: Optional[int] = None
    seg_b: Optional[int] = None
    point: Optional[tuple] = None
    note: str = ""

    def to_json(self) -> dict:
        return {
            "seg_a": self.seg_a,
            "seg_b": self.seg_b,
            "point": None if self.point is None else [float(c) for c in self.point],
            "note": self.note,
        }


@dataclass
class Verdict:
    status: Status
    witnesses: tuple = ()
    checks: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status is Status.NET

    def to_json(self) -> dict:
        return {
            "status": self.status.value,
            "witnesses": [w.to_json() for w in self.witnesses],
            "checks": dict(self.checks),
        }


def inconsistent_layout(exc: Exception) -> Verdict:
    """The verdict on a layout whose faces or boundary do not fit together
    (a ``CompatibilityFailure``), with its message as the one witness."""
    return Verdict(Status.PRECONDITION_FAILURE, (Witness(note=str(exc)),), {"layout_consistency": False})
