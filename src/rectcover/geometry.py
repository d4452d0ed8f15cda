"""Axis-parallel rectangle arithmetic.

Everything downstream (reward evaluation, candidate generation, trimming of
already-served demand) reduces to intersecting rectangles and decomposing the
part of a rectangle that survives outside another one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

#: The brute-force oracle's default absolute tolerance for merging candidate
#: coordinates.  The solvers take no absolute tolerance: theirs are derived
#: from the data (``bnb`` module docstring, Tolerances).
EPS = 1e-9


class Axis(Enum):
    """Coordinate axis selector."""

    X = "x"
    Y = "y"


@dataclass(frozen=True)
class Rect:
    """Axis-parallel rectangle anchored at its lower-left corner.

    ``w`` extends along x and ``l`` along y.  Degenerate rectangles (zero
    width or zero length) are allowed; they have zero area and intersect
    nothing.
    """

    x: float
    y: float
    w: float
    l: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "w", "l"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"Rect.{name} must be finite, got {value!r}")
        if self.w < 0 or self.l < 0:
            raise ValueError(f"Rect extents must be non-negative, got w={self.w}, l={self.l}")

    @property
    def x2(self) -> float:
        """Right edge coordinate."""
        return self.x + self.w

    @property
    def y2(self) -> float:
        """Top edge coordinate."""
        return self.y + self.l


def area(r: Rect) -> float:
    """Area of ``r`` (zero for degenerate rectangles)."""
    return r.w * r.l


def intersect(a: Rect, b: Rect) -> Rect | None:
    """Largest rectangle contained in both ``a`` and ``b``.

    Returns ``None`` when the interiors are disjoint; rectangles that only
    touch along an edge or at a corner do not count as intersecting.
    """
    x1 = a.x if a.x > b.x else b.x
    y1 = a.y if a.y > b.y else b.y
    x2 = min(a.x2, b.x2)
    y2 = min(a.y2, b.y2)
    if x2 - x1 <= 0 or y2 - y1 <= 0:
        return None
    return Rect(x1, y1, x2 - x1, y2 - y1)


def _trim_bounds(
    dx1: float, dy1: float, dx2: float, dy2: float,
    sx1: float, sy1: float, sx2: float, sy2: float,
) -> list[tuple[float, float, float, float]]:
    """Decompose ``d minus s`` into disjoint boxes, in bounds form.

    Boxes are ``(x1, y1, x2, y2)``.  The convention is fixed so results are
    reproducible: a full-width bottom strip, a full-width top strip, then the
    left and right strips between them.  Zero-area pieces are dropped.
    """
    ix1 = dx1 if dx1 > sx1 else sx1
    iy1 = dy1 if dy1 > sy1 else sy1
    ix2 = dx2 if dx2 < sx2 else sx2
    iy2 = dy2 if dy2 < sy2 else sy2
    if ix2 - ix1 <= 0 or iy2 - iy1 <= 0:
        return [(dx1, dy1, dx2, dy2)]
    pieces: list[tuple[float, float, float, float]] = []
    if iy1 > dy1:
        pieces.append((dx1, dy1, dx2, iy1))
    if dy2 > iy2:
        pieces.append((dx1, iy2, dx2, dy2))
    if ix1 > dx1:
        pieces.append((dx1, iy1, ix1, iy2))
    if dx2 > ix2:
        pieces.append((ix2, iy1, dx2, iy2))
    return pieces


def trim_out(d: Rect, s: Rect) -> list[Rect]:
    """Disjoint rectangles covering exactly the part of ``d`` outside ``s``.

    Returns 0 to 4 pieces.  When ``d`` and ``s`` do not overlap the result is
    ``[d]`` unchanged; when ``s`` covers ``d`` entirely the result is empty.
    The decomposition order (bottom strip, top strip, left strip, right
    strip) is part of the contract so that downstream bookkeeping is
    deterministic.
    """
    if d.w <= 0 or d.l <= 0:
        return []
    if intersect(d, s) is None:
        return [d]
    return [
        Rect(x1, y1, x2 - x1, y2 - y1)
        for x1, y1, x2, y2 in _trim_bounds(d.x, d.y, d.x2, d.y2, s.x, s.y, s.x2, s.y2)
    ]
