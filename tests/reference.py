"""Reference implementations that only the tests use.

``area``, ``overlap_bounds``, ``intersect`` and ``trim_out`` are rectangle
arithmetic on :class:`~rectcover.geometry.Rect`; ``trim_out`` runs the
package's own strip decomposition (``geometry._trim_bounds``) on the overlap
bounds that ``reward.serve_zone`` computes, so its tests check the one that
trimming uses.  ``single_zone_reward`` values one zone on the object path,
rectangle by rectangle; ``dedup_sorted`` is the definition of a candidate
grid that ``critical.inner_demand_grid`` computes with numpy.
``full_grid_entries`` tabulates a scale's in-order single-zone rewards over
whole grids, one outer product per demand zone added in demand order: the
exact contract of ``reward.RewardMatrix``, whose entries are one matrix
product instead.
"""

from typing import Iterable, Sequence

import numpy as np

from rectcover.critical import COORD_RTOL
from rectcover.geometry import Rect, _trim_bounds
from rectcover.model import (
    BaseServiceZone,
    DemandZone,
    Eta,
    Placement,
    planar_form,
    reward_rate,
    service_rect,
)


def area(r: Rect) -> float:
    """Area of ``r`` (zero for degenerate rectangles)."""
    return r.w * r.l


def overlap_bounds(a: Rect, b: Rect) -> tuple[float, float, float, float] | None:
    """``(x1, y1, x2, y2)`` of the overlap of ``a`` and ``b``, as ``reward.serve_zone`` computes it.

    Returns ``None`` when the interiors are disjoint; rectangles that only
    touch along an edge or at a corner do not count as intersecting.
    """
    ax2, ay2, bx2, by2 = a.x2, a.y2, b.x2, b.y2
    x1 = a.x if a.x > b.x else b.x
    y1 = a.y if a.y > b.y else b.y
    x2 = ax2 if ax2 < bx2 else bx2
    y2 = ay2 if ay2 < by2 else by2
    if x2 - x1 <= 0 or y2 - y1 <= 0:
        return None
    return x1, y1, x2, y2


def intersect(a: Rect, b: Rect) -> Rect | None:
    """Largest rectangle contained in both ``a`` and ``b``, or ``None`` (:func:`overlap_bounds`)."""
    bounds = overlap_bounds(a, b)
    if bounds is None:
        return None
    x1, y1, x2, y2 = bounds
    return Rect(x1, y1, x2 - x1, y2 - y1)


def trim_out(d: Rect, s: Rect) -> list[Rect]:
    """Disjoint rectangles covering exactly the part of ``d`` outside ``s``.

    Returns 0 to 4 pieces.  When ``d`` and ``s`` do not overlap the result is
    ``[d]`` unchanged; when ``s`` covers ``d`` entirely the result is empty.
    The pieces come in ``_trim_bounds``'s order: bottom strip, top strip,
    left strip, right strip.  ``_trim_bounds`` takes the overlap's own
    bounds, as ``serve_zone`` passes them: the far edges of
    :func:`intersect`'s rectangle, recomputed as ``x1 + (x2 - x1)``, need
    not give them back.
    """
    if d.w <= 0 or d.l <= 0:
        return []
    bounds = overlap_bounds(d, s)
    if bounds is None:
        return [d]
    return [
        Rect(x1, y1, x2 - x1, y2 - y1)
        for x1, y1, x2, y2 in _trim_bounds(d.x, d.y, d.x2, d.y2, *bounds)
    ]


def single_zone_reward(
    dzs: Sequence[DemandZone],
    x: float,
    y: float,
    z: float,
    base: BaseServiceZone,
    eta: Eta,
) -> float:
    """Reward collected by one scale-``z`` zone at ``(x, y)`` in isolation."""
    pdzs, pbase = planar_form(dzs, base)
    zone = service_rect(pbase, Placement(x, y, z))
    total = 0.0
    for d in pdzs:
        overlap = intersect(d.rect, zone)
        if overlap is not None:
            total += reward_rate(d.v, z, eta) * area(overlap)
    return total


def dedup_sorted(values: Iterable[float]) -> tuple[float, ...]:
    """Sort ``values``; drop each one equal to the last kept or closer than ``tol`` above it.

    ``tol`` is ``COORD_RTOL`` times the largest magnitude among the values.
    """
    ordered = sorted(float(v) for v in values)
    tol = COORD_RTOL * max(map(abs, ordered), default=0.0)
    out: list[float] = []
    for v in ordered:
        if not out or (v != out[-1] and v - out[-1] >= tol):
            out.append(v)
    return tuple(out)


def full_grid_entries(dzs, z, base, eta, xs, ys) -> np.ndarray:
    """The in-order reward matrix of scale ``z`` over the grids ``xs`` and ``ys``.

    Each demand zone, in order, adds its rate times the outer product of its
    x and y overlaps with the zone at every grid value to an array of +0.0.
    """
    pdzs, pbase = planar_form(dzs, base)
    xv = np.asarray(xs)
    yv = np.asarray(ys)
    entries = np.zeros((len(xv), len(yv)))
    wz = pbase.w0 * z
    lz = pbase.l0 * z
    for d in pdzs:
        r = reward_rate(d.v, z, eta)
        ox = np.clip(np.minimum(xv + wz, d.rect.x2) - np.maximum(xv, d.rect.x), 0.0, None)
        oy = np.clip(np.minimum(yv + lz, d.rect.y2) - np.maximum(yv, d.rect.y), 0.0, None)
        entries += r * np.outer(ox, oy)
    return entries
