"""Finite candidate coordinates for service-zone placement.

Along each axis the marginal reward of a single zone is piecewise linear in
its position, with slope changes only where a zone edge meets a demand-zone
edge.  Restricting the search to those breakpoints is lossless.  Two families
matter:

* demand breakpoints — induced by demand-zone edges for a given scale; the
  *inner* pair aligns the zone flush inside a demand span and carries every
  single-zone maximum, and the grid of inner values over all demand zones is
  the basic search grid per scale;
* service breakpoints — induced by an already-positioned zone; the *outer*
  pair places a new zone snugly against the fixed one (the relevant extra
  candidates when several zones interact), while the *inner* pair nests it
  against the far edge.

:func:`abutment_pins` alone decides where the exact search pins a zone off
its grid and which block of the grid bounds each pin.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .model import BaseServiceZone, DemandZone, demand_rows

#: Relative tolerance on coordinates: two values of one grid closer than it
#: times the grid's largest magnitude are one value (about 1e-9 at the
#: generator's extent of about 1,000).
COORD_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class CriticalValueSet:
    """Sorted, deduplicated candidate coordinates along one axis for one scale.

    ``array`` holds them as floats; :attr:`values` is the same grid as a
    tuple, built on first read.  The search indexes and bisects the tuple,
    while greedy's single-zone solves read only the array.
    """

    array: np.ndarray

    @cached_property
    def values(self) -> tuple[float, ...]:
        return tuple(self.array.tolist())

    def __len__(self) -> int:
        return len(self.array)


def grid_tol(sorted_values: Sequence[float]) -> float:
    """The coordinate tolerance of sorted values: ``COORD_RTOL`` times their largest magnitude (0 for none)."""
    return COORD_RTOL * max(abs(sorted_values[0]), abs(sorted_values[-1])) if len(sorted_values) else 0.0


def inner_demand_grid(
    dzs: Sequence[DemandZone] | np.ndarray,
    z: float,
    base: BaseServiceZone,
    axis: int,
) -> CriticalValueSet:
    """Grid of inner demand breakpoints over all of ``dzs`` for scale ``z``.

    ``dzs`` is a sequence of zones or their :func:`~rectcover.model.demand_rows`
    array.  Empty input yields an empty grid.  Cardinality is at most ``2 *
    len(dzs)``.  The values are every zone's inner pair on ``axis``, ``lo``
    and ``(lo + extent) - reach``, where a scale-``z`` zone of extent
    ``reach`` lies flush inside the zone's span, sorted, a value dropped
    when it equals the last value kept or lies closer than ``tol`` above
    it.  ``tol`` is :func:`grid_tol` of the values, so the grid scales with
    its units; it is 0 when every value is 0, and exact duplicates are
    dropped all the same.
    They are computed with numpy: after a stable sort, a value at least
    ``tol`` above its predecessor, and not equal to it, is kept.  The rare
    values closer than ``tol`` to a distinct predecessor are resolved in
    order against the last kept value.
    """
    # rows are (x, y, w, l, v)
    rows = demand_rows(dzs)
    reach = (base.w0, base.l0)[axis] * z
    values = np.empty(2 * len(rows))
    # each zone's pair, lo first
    values[0::2] = rows[:, axis]
    values[1::2] = (rows[:, axis] + rows[:, axis + 2]) - reach
    values.sort(kind="stable")
    if not values.size:
        return CriticalValueSet(values)
    tol = grid_tol(values)
    gap = values[1:] - values[:-1]
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.logical_and(gap >= tol, gap > 0.0, out=keep[1:])
    for i in (((gap > 0.0) & (gap < tol)).nonzero()[0] + 1).tolist():
        last = i - 1
        while not keep[last]:
            last -= 1
        keep[i] = values[i] - values[last] >= tol
    return CriticalValueSet(values[keep])


def service_breakpoints(
    coord: float, owner_scale: float, z: float, base: BaseServiceZone, axis: int
) -> tuple[float, float, float, float]:
    """Positions where a scale-``z`` zone interacts with a fixed zone's edges.

    ``coord`` is the fixed zone's lower corner coordinate on ``axis`` and
    ``owner_scale`` its scale.  Returned as ``(outer_lo, inner_lo, inner_hi,
    outer_hi)``: the outer pair abuts the new zone against either side of the
    fixed one, the inner pair nests it flush inside.
    """
    unit = (base.w0, base.l0)[axis]
    reach = unit * z
    size = unit * owner_scale
    return (coord - reach, coord, coord + size - reach, coord + size)


def abutment_pins(
    fixed: Iterable[tuple[float, float]],
    z: float,
    base: BaseServiceZone,
    axis: int,
    full: bool,
    grid: Sequence[float],
) -> list[tuple[int, int, float]]:
    """Service breakpoints of positioned zones at which to pin a scale-``z`` zone, each with its block.

    ``fixed`` holds ``(coordinate, scale)`` pairs of already-positioned zones.
    The outer values of every fixed zone come first, then, when ``full``,
    their inner values.  ``grid`` is the zone's sorted own-scale grid on
    ``axis``, and the tolerance is its own (:func:`grid_tol`, 0 when it is
    empty).  Each value ``v`` is bisected into the grid once, at ``i``; it is
    dropped when it equals, or lies closer than the tolerance to, a
    neighbouring grid value (``grid[i - 1]`` or ``grid[i]``) or a value
    already kept, so every value kept lies off the grid by the grid's own
    test, and the search reaches the dropped ones as grid values.  A kept
    value is returned as the candidate set ``(max(i - 1, 0), min(i + 1,
    len(grid)), v)``: the block of its two bracketing grid values, or of the
    nearest endpoint when it lies outside the grid's range.  That block
    bounds it, as the isolated reward is piecewise linear with no local
    maximum strictly between neighbouring grid values.
    """
    points = [service_breakpoints(coord, owner, z, base, axis) for coord, owner in fixed]
    raw = [v for o1, _, _, o2 in points for v in (o1, o2)]
    if full:
        raw += [v for _, i1, i2, _ in points for v in (i1, i2)]
    tol = grid_tol(grid)
    pins: list[tuple[int, int, float]] = []
    for v in raw:
        i = bisect_left(grid, v)
        near = (*grid[max(i - 1, 0) : i + 1], *(u for _, _, u in pins))  # neighbouring grid values, then kept pins
        if not any(u == v or abs(u - v) < tol for u in near):
            pins.append((max(i - 1, 0), min(i + 1, len(grid)), v))
    return pins
