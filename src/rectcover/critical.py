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
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .geometry import EPS, Axis
from .model import BaseServiceZone, DemandZone, demand_rows


@dataclass(frozen=True)
class CriticalValueSet:
    """Sorted, deduplicated candidate coordinates along one axis for one scale."""

    values: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.values)


def dedup_sorted(values: Iterable[float], eps: float = EPS) -> tuple[float, ...]:
    """Sort ``values`` and merge any pair closer than ``eps`` to the smaller one."""
    out: list[float] = []
    for v in sorted(float(v) for v in values):
        if not out or v - out[-1] >= eps:
            out.append(v)
    return tuple(out)


def contains_value(sorted_values: Sequence[float], v: float, eps: float = EPS) -> bool:
    """Membership test in a sorted sequence with absolute tolerance ``eps``."""
    i = bisect_left(sorted_values, v)
    if i < len(sorted_values) and abs(sorted_values[i] - v) < eps:
        return True
    return i > 0 and abs(sorted_values[i - 1] - v) < eps


def _span(d: DemandZone, base: BaseServiceZone, z: float, axis: Axis) -> tuple[float, float, float]:
    if axis is Axis.X:
        return d.rect.x, d.rect.w, base.w0 * z
    return d.rect.y, d.rect.l, base.l0 * z


def demand_breakpoints(
    d: DemandZone, z: float, base: BaseServiceZone, axis: Axis
) -> tuple[float, float, float, float]:
    """Positions where a scale-``z`` zone's overlap with ``d`` changes slope.

    Returned in ascending structure ``(outer_lo, inner_lo, inner_hi,
    outer_hi)``: outside the outer pair the zone misses ``d`` entirely; between
    the inner pair (when the demand span is at least the zone extent) the zone
    lies flush inside the span.
    """
    lo, extent, reach = _span(d, base, z, axis)
    return (lo - reach, lo, lo + extent - reach, lo + extent)


def inner_demand_grid(
    dzs: Sequence[DemandZone] | np.ndarray,
    z: float,
    base: BaseServiceZone,
    axis: Axis,
    eps: float = EPS,
) -> CriticalValueSet:
    """Grid of inner demand breakpoints over all of ``dzs`` for scale ``z``.

    ``dzs`` is a sequence of zones or their :func:`~rectcover.model.demand_rows`
    array.  Empty input yields an empty grid.  Cardinality is at most ``2 *
    len(dzs)``.  The values are exactly ``dedup_sorted`` of every zone's
    inner pair from :func:`demand_breakpoints`, computed with numpy: after a
    stable sort, a value at least ``eps`` above its predecessor is kept and
    an exact duplicate is dropped.  The rare values closer than ``eps`` to a
    distinct predecessor are resolved in order against the last kept value.
    """
    # rows are (x, y, w, l, v); the inner pair is (lo, (lo + extent) - reach)
    rows = demand_rows(dzs)
    k = 0 if axis is Axis.X else 1
    reach = (base.w0 if axis is Axis.X else base.l0) * z
    values = np.empty(2 * len(rows))
    # pairs interleaved as demand_breakpoints lists them, so ties sort alike
    values[0::2] = rows[:, k]
    values[1::2] = (rows[:, k] + rows[:, k + 2]) - reach
    values.sort(kind="stable")
    if not values.size:
        return CriticalValueSet(())
    gap = values[1:] - values[:-1]
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.greater_equal(gap, eps, out=keep[1:])
    for i in (((gap > 0.0) & (gap < eps)).nonzero()[0] + 1).tolist():
        last = i - 1
        while not keep[last]:
            last -= 1
        keep[i] = values[i] - values[last] >= eps
    return CriticalValueSet(tuple(values[keep].tolist()))


def service_breakpoints(
    coord: float, owner_scale: float, z: float, base: BaseServiceZone, axis: Axis
) -> tuple[float, float, float, float]:
    """Positions where a scale-``z`` zone interacts with a fixed zone's edges.

    ``coord`` is the fixed zone's lower corner coordinate on ``axis`` and
    ``owner_scale`` its scale.  Returned as ``(outer_lo, inner_lo, inner_hi,
    outer_hi)``: the outer pair abuts the new zone against either side of the
    fixed one, the inner pair nests it flush inside.
    """
    unit = base.w0 if axis is Axis.X else base.l0
    reach = unit * z
    size = unit * owner_scale
    return (coord - reach, coord, coord + size - reach, coord + size)


def abutment_values(
    fixed: Iterable[tuple[float, float]],
    z: float,
    base: BaseServiceZone,
    axis: Axis,
    full: bool,
    exclude: Sequence[float] = (),
    eps: float = EPS,
) -> list[float]:
    """Service breakpoints of positioned zones at which to try a scale-``z`` zone.

    ``fixed`` holds ``(coordinate, scale)`` pairs of already-positioned zones.
    The outer values of every fixed zone come first, then, when ``full``,
    their inner values.  A value within ``eps`` of a member of the sorted
    ``exclude`` or of an earlier value is dropped.
    """
    points = [service_breakpoints(coord, owner, z, base, axis) for coord, owner in fixed]
    raw = [v for o1, _, _, o2 in points for v in (o1, o2)]
    if full:
        raw += [v for _, i1, i2, _ in points for v in (i1, i2)]
    out: list[float] = []
    for v in raw:
        if not contains_value(exclude, v, eps) and not any(abs(v - u) < eps for u in out):
            out.append(v)
    return out
