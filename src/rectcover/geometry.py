"""Axis-parallel rectangle arithmetic.

Trimming already-served demand (``reward.serve_zone``) reduces to
decomposing the part of a box that survives outside another one
(:func:`_trim_bounds`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class Axis:
    """A coordinate axis as the index into per-axis pairs, x first: ``(x, y)[Axis.Y]`` is ``y``.

    ``1 - axis`` is the other axis.  Compare axes with ``==``, never by
    truth: x is 0.
    """

    X = 0
    Y = 1


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


def _trim_bounds(
    dx1: float, dy1: float, dx2: float, dy2: float,
    ix1: float, iy1: float, ix2: float, iy2: float,
) -> list[tuple[float, float, float, float]]:
    """Decompose ``d minus i`` into disjoint boxes, in bounds form, for ``i`` the overlap of ``d`` with another box.

    Boxes are ``(x1, y1, x2, y2)``; ``i`` lies inside ``d`` and has positive
    extents, as the caller computed it.  The convention is fixed so results
    are reproducible: a full-width bottom strip, a full-width top strip, then
    the left and right strips between them.  Strips of zero extent are
    dropped.
    """
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
