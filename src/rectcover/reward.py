"""Reward evaluation.

The value of a set of placements is the sum over demand zones of the covered
area, weighted by the demand rate divided by the covering zone's decay value,
where any point covered several times pays at its best (smallest-scale)
covering zone.  Equivalently: process placements from best scale to worst,
pay each for what it newly covers, and trim the paid region out of the
demand set.

One-dimensional instances (``base.l0 == 0``) reuse the planar machinery by
lifting every demand segment to a unit-height box, so covered length and
covered area coincide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .geometry import EPS, Axis, _trim_bounds, area, intersect
from .critical import CriticalValueSet, inner_demand_grid, service_breakpoints
from .model import (
    BaseServiceZone,
    DemandZone,
    Eta,
    Placement,
    QosSet,
    planar_form,
    reward_rate,
    service_rect,
)

#: Signature shared by the exact single-zone solver and any approximate
#: substitute: ``(dzs, qos, base, eta) -> (reward, x, y, z)``.
SingleZoneSolver = Callable[
    [Sequence[DemandZone], QosSet, BaseServiceZone, Eta],
    tuple[float, float, float, float],
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


@dataclass(frozen=True, eq=False)
class RewardMatrix:
    """Single-zone rewards of one scale tabulated over its candidate grid.

    ``entries[i, j]`` is the isolated reward of a scale-``scale`` zone placed
    at ``(xs.values[i], ys.values[j])``.  The exact search's candidate sets
    are index ranges into these two grids.

    :meth:`block_max` memoises the maximum of each index block it is asked
    for.  The search bounds every node by such blocks, and one solve asks for
    few distinct ones (on the order of a thousand at planar n=30) many times
    over, so the memo lives as long as the matrix, which is one solve.
    """

    scale: float
    xs: CriticalValueSet
    ys: CriticalValueSet
    entries: np.ndarray
    _block_maxima: dict[tuple[int, int, int, int], float] = field(
        default_factory=dict, init=False, repr=False
    )

    @cached_property
    def max_entry(self) -> float:
        return float(self.entries.max()) if self.entries.size else 0.0

    def block_max(self, xlo: int, xhi: int, ylo: int, yhi: int) -> float:
        """``float(entries[xlo:xhi, ylo:yhi].max())``, computed once per block."""
        key = (xlo, xhi, ylo, yhi)
        try:
            return self._block_maxima[key]
        except KeyError:
            value = self._block_maxima[key] = float(self.entries[xlo:xhi, ylo:yhi].max())
            return value


def _overlaps(grid: Sequence[float], ext: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Overlap length of ``[g, g + ext]`` with ``[lo[k], hi[k]]``, one row per ``k``."""
    g = np.asarray(grid)
    return np.clip(np.minimum(g + ext, hi[:, None]) - np.maximum(g, lo[:, None]), 0.0, None)


def _support(overlaps: np.ndarray) -> tuple[list[int], list[int]]:
    """Per row, the half-open range from its first to its last nonzero entry.

    A row without a nonzero entry gets the empty range ``(0, 0)``.
    """
    nonzero = overlaps > 0.0
    start = nonzero.argmax(axis=1)
    stop = np.where(
        nonzero.any(axis=1), overlaps.shape[1] - nonzero[:, ::-1].argmax(axis=1), 0
    )
    return start.tolist(), stop.tolist()


def build_reward_matrix(
    dzs: Sequence[DemandZone],
    z: float,
    base: BaseServiceZone,
    eta: Eta,
    eps: float = EPS,
) -> RewardMatrix:
    """Tabulate isolated single-zone rewards of scale ``z`` over its grid.

    The grid is the inner-demand grid per axis.  For one-dimensional input
    the y axis collapses to the single index ``y = 0``.

    Each demand zone adds ``r * outer(ox, oy)`` (rate times its x and y
    overlap with the zone at every grid value) only over its support block,
    the rows from its first to its last nonzero ``ox`` and the columns from
    its first to its last nonzero ``oy``.  Outside that block the term is an
    exact zero, so every cell receives the same terms in the same demand
    order as a sum over the whole grid, and the entries are bitwise equal to
    that sum.
    """
    one_d = base.l0 == 0
    pdzs, pbase = planar_form(dzs, base)
    xs = inner_demand_grid(dzs, z, base, Axis.X, eps)
    if one_d:
        ys = CriticalValueSet((0.0,), Axis.Y, z)
    else:
        ys = inner_demand_grid(dzs, z, base, Axis.Y, eps)
    entries = np.zeros((len(xs.values), len(ys.values)))
    if entries.size == 0:
        return RewardMatrix(z, xs, ys, entries)
    rects = [d.rect for d in pdzs]
    ox = _overlaps(
        xs.values, pbase.w0 * z, np.array([b.x for b in rects]), np.array([b.x2 for b in rects])
    )
    oy = _overlaps(
        ys.values, pbase.l0 * z, np.array([b.y for b in rects]), np.array([b.y2 for b in rects])
    )
    x_start, x_stop = _support(ox)
    y_start, y_stop = _support(oy)
    for k, d in enumerate(pdzs):
        i0, i1, j0, j1 = x_start[k], x_stop[k], y_start[k], y_stop[k]
        if i0 < i1 and j0 < j1:
            r = reward_rate(d.v, z, eta)
            entries[i0:i1, j0:j1] += r * np.outer(ox[k, i0:i1], oy[k, j0:j1])
    return RewardMatrix(z, xs, ys, entries)


def covered_reward(
    dzs: Sequence[DemandZone],
    placements: Sequence[Placement],
    base: BaseServiceZone,
    eta: Eta,
    eps: float = EPS,
) -> float:
    """Total reward of ``placements`` with best-scale payment on overlaps.

    Placements are processed by ascending scale (ties by original order);
    each is paid for its overlap with the not-yet-served demand set, which is
    then trimmed.  Near-degenerate trim slivers (area below ``eps**2``) are
    dropped to bound bookkeeping growth.  Each demand zone's bounds come from
    its ``DemandZone.box``, built once per zone.
    """
    if not placements or not dzs:
        return 0.0
    return _serve(dzs, placements, base, eta, eps)[0]


Box = tuple[float, float, float, float, float]


def _serve(
    dzs: Sequence[DemandZone],
    placements: Sequence[Placement],
    base: BaseServiceZone,
    eta: Eta,
    eps: float,
    paid: list[tuple[Box, float]] | None = None,
) -> tuple[float, list[Box]]:
    """The trimming loop of :func:`covered_reward`: ``(reward, unserved boxes)``.

    Boxes are ``(x1, y1, x2, y2, v)`` in planar form.  When ``paid`` is a
    list, every served piece is appended to it with the rate it was paid.
    """
    pdzs, pbase = planar_form(dzs, base)
    order = sorted(range(len(placements)), key=lambda i: (placements[i].z, i))
    boxes = [d.box for d in pdzs]
    min_area = eps * eps
    w0 = pbase.w0
    l0 = pbase.l0
    total = 0.0
    for i in order:
        pl = placements[i]
        sx1 = pl.x
        sy1 = pl.y
        sx2 = pl.x + w0 * pl.z
        sy2 = pl.y + l0 * pl.z
        eta_z = eta.apply(pl.z)
        remaining: list[Box] = []
        for box in boxes:
            x1, y1, x2, y2, v = box
            ix1 = x1 if x1 > sx1 else sx1
            iy1 = y1 if y1 > sy1 else sy1
            ix2 = x2 if x2 < sx2 else sx2
            iy2 = y2 if y2 < sy2 else sy2
            if ix2 - ix1 <= 0 or iy2 - iy1 <= 0:
                remaining.append(box)
                continue
            total += (v / eta_z) * ((ix2 - ix1) * (iy2 - iy1))
            if paid is not None:
                paid.append(((ix1, iy1, ix2, iy2, v), v / eta_z))
            for px1, py1, px2, py2 in _trim_bounds(x1, y1, x2, y2, sx1, sy1, sx2, sy2):
                if (px2 - px1) * (py2 - py1) >= min_area:
                    remaining.append((px1, py1, px2, py2, v))
        boxes = remaining
        if not boxes:
            break
    return total, boxes


class ResidualDemand:
    """The demand a set of placements ``S`` leaves, for marginal gains over ``S``.

    ``served`` is ``f(S)``, the covered reward of ``S``.  Every piece of
    demand carries the rate it is already paid: the rate of the zone of
    ``S`` that served it, or 0 for the unserved pieces.  Adding a scale-``z``
    zone gains ``max(0, v / eta(z) - paid)`` per unit of a piece it covers,
    because covered reward pays each point at its best rate.
    """

    def __init__(
        self,
        dzs: Sequence[DemandZone],
        placements: Sequence[Placement],
        base: BaseServiceZone,
        eta: Eta,
        eps: float = EPS,
    ) -> None:
        paid: list[tuple[Box, float]] = []
        self.served, unserved = _serve(dzs, placements, base, eta, eps, paid)
        pieces = [box for box, _ in paid] + unserved
        self._x1, self._y1, self._x2, self._y2, self._v = np.array(pieces, dtype=float).reshape(-1, 5).T
        self._paid = np.array([rate for _, rate in paid] + [0.0] * len(unserved))
        self._placements = tuple(placements)
        self._base = planar_form((), base)[1]
        self._eta = eta
        self._gains: dict[tuple[float, float, bool], tuple[np.ndarray, float]] = {}

    def gains(
        self, z: float, fixed: float, axis: Axis, grid: Sequence[float]
    ) -> tuple[np.ndarray, float]:
        """Gains ``f(S + t) - f(S)`` of a scale-``z`` zone ``t``: ``(column, best)``.

        ``t``'s lower corner is at ``fixed`` on the other axis and moves
        along ``axis``.  ``column`` holds its gain at each ``grid`` value:
        each piece's weight (gain rate times its overlap with ``t``'s fixed
        span) times its ``_overlaps`` with ``t`` on ``axis``.  ``best`` is the
        largest gain over every real position, which lies on ``t``'s
        own-scale inner demand grid (``grid`` must be that grid) or on a
        ``service_breakpoints`` value of a zone of ``S``; ``best`` looks at
        both (the argument is in the ``bnb`` module docstring).  Memoised
        per ``(z, fixed, axis)``, so one ``grid`` per scale and axis must be
        used.
        """
        on_x = axis is Axis.X
        key = (z, fixed, on_x)
        try:
            return self._gains[key]
        except KeyError:
            pass
        w0, l0 = self._base.w0, self._base.l0
        if on_x:
            lo, hi, ext, other_lo, other_hi, other_ext = self._x1, self._x2, w0 * z, self._y1, self._y2, l0 * z
        else:
            lo, hi, ext, other_lo, other_hi, other_ext = self._y1, self._y2, l0 * z, self._x1, self._x2, w0 * z
        overlap = np.maximum(np.minimum(fixed + other_ext, other_hi) - np.maximum(fixed, other_lo), 0.0)
        # a piece already paid at least t's rate has a weight <= 0 and is dropped
        weights = (self._v / self._eta.apply(z) - self._paid) * overlap
        keep = weights > 0.0
        points = list(grid)
        for pl in self._placements:
            points += service_breakpoints(pl.x if on_x else pl.y, pl.z, z, self._base, axis)
        full = weights[keep] @ _overlaps(points, ext, lo[keep], hi[keep])
        out = self._gains[key] = (full[: len(grid)], float(full.max(initial=0.0)))
        return out


def solve_single_zone(
    dzs: Sequence[DemandZone],
    qos: QosSet,
    base: BaseServiceZone,
    eta: Eta,
    eps: float = EPS,
) -> tuple[float, float, float, float]:
    """Best single placement ``(reward, x, y, z)`` over the candidate grids.

    Searches every scale in ``qos`` over its inner-demand grid (times
    ``{0}`` on y for one-dimensional input), which contains an exact optimum
    for the isolated one-zone problem.  Ties break toward the smallest scale,
    then smallest x, then smallest y.  An empty demand set returns reward 0 at
    the origin with the smallest scale.
    """
    if not dzs:
        return 0.0, 0.0, 0.0, qos.min_factor
    best_r = -1.0
    best = (0.0, 0.0, 0.0, qos.min_factor)
    for z in qos.factors:
        m = build_reward_matrix(dzs, z, base, eta, eps)
        if m.entries.size == 0:
            continue
        flat = int(np.argmax(m.entries))
        i, j = divmod(flat, m.entries.shape[1])
        r = float(m.entries[i, j])
        if r > best_r:
            best_r = r
            best = (r, m.xs.values[i], m.ys.values[j], z)
    return best
