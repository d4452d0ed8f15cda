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
from .critical import CriticalValueSet, inner_demand_grid
from .model import (
    BaseServiceZone,
    DemandZone,
    Eta,
    Placement,
    QosSet,
    demand_rows,
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

    ``entries[i, j]`` is the isolated reward of a zone of that scale placed
    at ``(xs.values[i], ys.values[j])``.  The exact search's candidate sets
    are index ranges into these two grids.

    :meth:`block_max` memoises the maximum of each index block it is asked
    for.  The search bounds every node by such blocks, and one solve asks for
    few distinct ones (on the order of a thousand at planar n=30) many times
    over, so the memo lives as long as the matrix, which is one solve.
    """

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


#: Grid values per tile side in :func:`solve_single_zone`'s tile-bounded argmax.
TILE = 8
#: Relative slack under which a tile bound counts as below the lower bound.
TILE_MARGIN = 1e-9


def _overlaps(grid: Sequence[float], ext: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Overlap length of ``[g, g + ext]`` with ``[lo[k], hi[k]]``, one row per ``k``."""
    g = np.asarray(grid)
    return np.maximum(np.minimum(g + ext, hi[:, None]) - np.maximum(g, lo[:, None]), 0.0)


@dataclass(frozen=True)
class _Axis:
    """One axis of one scale: the grid, the zone's extent, each piece's span and support.

    ``[start[k], stop[k])`` is the index range of ``grid`` outside which
    piece ``k``'s ``_overlaps`` row is an exact zero.  ``_overlaps`` is
    positive exactly where ``g + ext > lo``, ``g < hi``, ``lo < hi`` and
    ``g + ext > g`` hold as computed.  The first two hold on a suffix and a
    prefix of the sorted grid, so the range is found by bisection.  It runs
    from the first to the last nonzero entry whenever ``ext`` is not lost in
    rounding (``g + ext > g`` on the whole grid), and contains that range
    otherwise.
    """

    grid: np.ndarray
    ext: float
    lo: np.ndarray
    hi: np.ndarray
    start: np.ndarray
    stop: np.ndarray

    @classmethod
    def of(cls, grid: Sequence[float], ext: float, lo: np.ndarray, hi: np.ndarray) -> "_Axis":
        g = np.array(grid, dtype=float)
        start = (g + ext).searchsorted(lo, side="right")
        stop = np.where(lo < hi, np.maximum(g.searchsorted(hi, side="left"), start), start)
        return cls(g, ext, lo, hi, start, stop)

    def overlaps(
        self, pieces: np.ndarray | slice = slice(None), at: np.ndarray | slice = slice(None)
    ) -> np.ndarray:
        """``_overlaps`` of ``pieces`` at the grid positions ``at``."""
        return _overlaps(self.grid[at], self.ext, self.lo[pieces], self.hi[pieces])

    def tile_bounds(self) -> np.ndarray:
        """Per piece and tile of ``TILE`` grid values, an upper bound on its overlaps there.

        The overlap of ``[g, g + ext]`` with ``[lo, hi]`` is a trapezoid in
        ``g``: ``min(g + ext - lo, hi - g, ext, hi - lo)``, clipped at 0.  Over
        a tile the first term peaks at its last value ``g_last`` and the
        second at its first value ``g_first``.  Each term is bounded as
        ``_overlaps`` rounds it, ``ext`` by the tile's largest ``(g + ext) -
        g``, so the bound holds for the computed overlaps, not only for exact
        ones.
        """
        n = len(self.grid)
        starts = np.arange(0, n, TILE)
        reach = self.grid + self.ext
        plateau = np.maximum.reduceat(reach - self.grid, starts)
        rising = reach[np.minimum(starts + TILE - 1, n - 1)] - self.lo[:, None]
        falling = self.hi[:, None] - self.grid[starts]
        bound = np.minimum(np.minimum(rising, falling), plateau)
        return np.maximum(np.minimum(bound, (self.hi - self.lo)[:, None]), 0.0)


class _Demand:
    """Demand zones as planar-form arrays, from which each scale's grids and axes are built.

    ``dzs`` is a sequence of zones or their :func:`demand_rows` array, which
    is read without a copy.
    """

    def __init__(self, dzs: Sequence[DemandZone] | np.ndarray, base: BaseServiceZone) -> None:
        self.rows = demand_rows(dzs)
        self.base = base
        self.pbase = planar_form((), base)[1]
        x, y, w, l, self.v = self.rows.T
        self.x1, self.x2 = x, x + w
        if base.l0 == 0:  # planar_form lifts a segment to the box [0, 1] in y
            self.y1, self.y2 = np.zeros(len(x)), np.ones(len(x))
        else:
            self.y1, self.y2 = y, y + l

    def scale(
        self, z: float, eta: Eta, eps: float
    ) -> tuple[CriticalValueSet, CriticalValueSet, np.ndarray, _Axis, _Axis]:
        """``(xs, ys, rates, x, y)`` of scale ``z``.

        The grid is the inner-demand grid per axis.  For one-dimensional
        input the y axis collapses to the single value ``y = 0``.
        """
        xs = inner_demand_grid(self.rows, z, self.base, Axis.X, eps)
        if self.base.l0 == 0:
            ys = CriticalValueSet((0.0,))
        else:
            ys = inner_demand_grid(self.rows, z, self.base, Axis.Y, eps)
        rates = self.v / eta.apply(z)  # reward_rate per piece
        x = _Axis.of(xs.values, self.pbase.w0 * z, self.x1, self.x2)
        y = _Axis.of(ys.values, self.pbase.l0 * z, self.y1, self.y2)
        return xs, ys, rates, x, y


def _add_blocks(
    entries: np.ndarray,
    rates: np.ndarray,
    ox: np.ndarray,
    oy: np.ndarray,
    x_start: np.ndarray,
    x_stop: np.ndarray,
    y_start: np.ndarray,
    y_stop: np.ndarray,
) -> None:
    """Add ``rates[k] * outer(ox[k], oy[k])`` to ``entries`` over each piece's block, in order.

    Piece ``k``'s block is rows ``[x_start[k], x_stop[k])`` by columns
    ``[y_start[k], y_stop[k])``; outside it the term must be an exact zero.
    Then every cell receives the same nonzero terms in the same order as a
    sum over the whole array, and the entries are bitwise equal to that sum.
    """
    bounds = (x_start.tolist(), x_stop.tolist(), y_start.tolist(), y_stop.tolist())
    for r, ax, ay, i0, i1, j0, j1 in zip(rates.tolist(), ox, oy, *bounds):
        if i0 < i1 and j0 < j1:
            entries[i0:i1, j0:j1] += r * (ax[i0:i1, None] * ay[j0:j1])


def build_reward_matrix(
    dzs: Sequence[DemandZone] | np.ndarray,
    z: float,
    base: BaseServiceZone,
    eta: Eta,
    eps: float = EPS,
) -> RewardMatrix:
    """Tabulate isolated single-zone rewards of scale ``z`` over its grid.

    ``dzs`` is a sequence of zones or their :func:`demand_rows` array.  The
    grid is the inner-demand grid per axis.  For one-dimensional input the y
    axis collapses to the single index ``y = 0``.

    Each demand zone adds ``r * outer(ox, oy)`` (rate times its x and y
    overlap with the zone at every grid value) only over its support block
    (:class:`_Axis`), so the entries are bitwise equal to the sum over the
    whole grid (:func:`_add_blocks`).
    """
    xs, ys, rates, x, y = _Demand(dzs, base).scale(z, eta, eps)
    entries = np.zeros((len(xs), len(ys)))
    _add_blocks(entries, rates, x.overlaps(), y.overlaps(), x.start, x.stop, y.start, y.stop)
    return RewardMatrix(xs, ys, entries)


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
    zone ``t`` gains ``max(0, v / eta(z) - paid)`` per unit of a piece it
    covers, because covered reward pays each point at its best rate.

    ``t``'s lower corner is at ``fixed`` on the axis other than ``axis`` and
    moves along ``axis``.  Its gain is then a sum over the pieces of a
    weight (gain rate times the piece's overlap with ``t``'s fixed span)
    times the piece's ``_overlaps`` with ``t`` on ``axis``; pieces with a
    weight ``<= 0`` (already paid at least ``t``'s rate, or off the span)
    are dropped.  :meth:`best_gain` and :meth:`gain_column` are memoised per
    ``(z, fixed, axis)``.
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
        self._base = planar_form((), base)[1]
        self._eta = eta
        self._best: dict[tuple[float, float, bool], float] = {}
        self._columns: dict[tuple[float, float, bool], np.ndarray] = {}

    def _terms(self, z: float, fixed: float, on_x: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """``(weights, lo, hi, ext)``: the kept pieces' weights and spans on the axis; ``t``'s extent."""
        w0, l0 = self._base.w0, self._base.l0
        if on_x:
            lo, hi, ext, other_lo, other_hi, other_ext = self._x1, self._x2, w0 * z, self._y1, self._y2, l0 * z
        else:
            lo, hi, ext, other_lo, other_hi, other_ext = self._y1, self._y2, l0 * z, self._x1, self._x2, w0 * z
        overlap = np.maximum(np.minimum(fixed + other_ext, other_hi) - np.maximum(fixed, other_lo), 0.0)
        weights = (self._v / self._eta.apply(z) - self._paid) * overlap
        keep = weights > 0.0
        return weights[keep], lo[keep], hi[keep], ext

    def best_gain(self, z: float, fixed: float, axis: Axis) -> float:
        """The largest gain ``f(S + t) - f(S)`` over every real position of ``t``.

        A piece's overlap with ``t`` is a trapezoid in ``t``'s position ``c``
        with corners ``lo - ext``, ``min(lo, hi - ext)``, ``max(lo, hi - ext)``
        and ``hi``; the gain, a positive-weighted sum of them, is piecewise
        linear and reaches its maximum at a concave kink, where ``t`` sits
        flush inside a piece: ``c = lo`` or ``c = hi - ext`` of some piece.
        Only those positions are evaluated; the gain is 0 with no piece.
        """
        key = (z, fixed, axis is Axis.X)
        best = self._best.get(key)
        if best is None:
            weights, lo, hi, ext = self._terms(*key)
            flush = np.concatenate((lo, hi - ext))
            best = self._best[key] = float((weights @ _overlaps(flush, ext, lo, hi)).max(initial=0.0))
        return best

    def gain_column(self, z: float, fixed: float, axis: Axis, grid: Sequence[float]) -> np.ndarray:
        """The gain of ``t`` at each ``grid`` value; one ``grid`` per scale and axis must be used."""
        key = (z, fixed, axis is Axis.X)
        column = self._columns.get(key)
        if column is None:
            weights, lo, hi, ext = self._terms(*key)
            column = self._columns[key] = weights @ _overlaps(grid, ext, lo, hi)
        return column


def _kept_argmax(kept: np.ndarray, rates: np.ndarray, x: _Axis, y: _Axis) -> tuple[float, int, int]:
    """First maximum ``(reward, i, j)`` in row-major order over the cells of the ``kept`` tiles.

    The cells are those of the full reward matrix, bit for bit.  They are
    summed on the grid rows of every tile row and the grid columns of every
    tile column that holds a kept tile, from the pieces whose support block
    meets a kept tile, in demand order (:func:`_add_blocks`); a piece that
    meets no kept tile adds only exact zeros to kept cells.  Cells outside
    the kept tiles are left out of the maximum.
    """
    rows = np.repeat(kept.any(axis=1), TILE)[: len(x.grid)].nonzero()[0]
    cols = np.repeat(kept.any(axis=0), TILE)[: len(y.grid)].nonzero()[0]
    # summed-area table of the kept tiles: one lookup per piece block
    table = np.zeros((kept.shape[0] + 1, kept.shape[1] + 1), dtype=np.int64)
    kept.cumsum(axis=0).cumsum(axis=1, out=table[1:, 1:])
    a0, a1 = x.start // TILE, (x.stop + TILE - 1) // TILE
    b0, b1 = y.start // TILE, (y.stop + TILE - 1) // TILE
    hits = table[a1, b1] - table[a0, b1] - table[a1, b0] + table[a0, b0]
    touch = ((x.start < x.stop) & (y.start < y.stop) & (hits > 0)).nonzero()[0]
    entries = np.zeros((len(rows), len(cols)))
    _add_blocks(
        entries,
        rates[touch],
        x.overlaps(touch, rows),
        y.overlaps(touch, cols),
        rows.searchsorted(x.start[touch]),
        rows.searchsorted(x.stop[touch]),
        cols.searchsorted(y.start[touch]),
        cols.searchsorted(y.stop[touch]),
    )
    entries[~kept[(rows // TILE)[:, None], cols // TILE]] = -np.inf
    i, j = divmod(int(entries.argmax()), len(cols))
    return float(entries[i, j]), int(rows[i]), int(cols[j])


def solve_single_zone(
    dzs: Sequence[DemandZone] | np.ndarray,
    qos: QosSet,
    base: BaseServiceZone,
    eta: Eta,
    eps: float = EPS,
) -> tuple[float, float, float, float]:
    """Best single placement ``(reward, x, y, z)`` over the candidate grids.

    ``dzs`` is a sequence of zones or their :func:`demand_rows` array.
    Searches every scale in ``qos`` over its inner-demand grid (times
    ``{0}`` on y for one-dimensional input), which contains an exact optimum
    for the isolated one-zone problem.  Ties break toward the smallest scale,
    then smallest x, then smallest y.  An empty demand set returns reward 0 at
    the origin with the smallest scale.

    The result is bitwise that of taking the first maximum in row-major
    order of each scale's :func:`build_reward_matrix` and keeping a later
    scale only when its maximum is strictly larger, but most cells are never
    summed.  Per scale:

    * Both grids are cut into tiles of ``TILE`` consecutive values.  A
      piece's overlap with the zone is a trapezoid in the zone's position,
      so its maximum over a tile's span is the trapezoid at the plateau
      start clipped into that span.  :meth:`_Axis.tile_bounds` bounds it as
      the overlaps are rounded.  One matrix product of the rate times the x
      bounds with the y bounds then bounds every tile.
    * The lower bound is the larger of the best-bounded tile's maximum and
      the best reward of the earlier scales.  A tile whose bound is below it
      times ``1 - TILE_MARGIN`` cannot hold a maximum and is skipped.  The
      margin absorbs rounding: the tile bounds and that tile's maximum are
      sums of nonnegative terms taken by matrix products, in another order
      than the matrix entries, so they differ from the entries' sums by a
      relative error of about the number of pieces times 2**-52.
    * The cells of the kept tiles receive, in demand order, the terms of
      every piece whose support block meets a kept tile
      (:func:`_kept_argmax`), so they equal the matrix entries bit for bit.
      Every cell that holds the scale's maximum lies in a kept tile, so the
      first maximum over the kept tiles, in row-major order, is the
      matrix's first maximum; a later scale replaces it only when strictly
      larger.
    """
    if len(dzs) == 0:
        return 0.0, 0.0, 0.0, qos.min_factor
    demand = _Demand(dzs, base)
    best_r = -1.0
    best = (0.0, 0.0, 0.0, qos.min_factor)
    for z in qos.factors:
        xs, ys, rates, x, y = demand.scale(z, eta, eps)
        bound = (x.tile_bounds() * rates[:, None]).T @ y.tile_bounds()
        a, b = divmod(int(bound.argmax()), bound.shape[1])
        tile_x, tile_y = slice(a * TILE, (a + 1) * TILE), slice(b * TILE, (b + 1) * TILE)
        tile = (x.overlaps(at=tile_x) * rates[:, None]).T @ y.overlaps(at=tile_y)
        lower = max(float(tile.max()), best_r)
        kept = bound >= lower * (1.0 - TILE_MARGIN)
        if not kept.any():
            continue  # no tile of this scale can beat the earlier scales
        r, i, j = _kept_argmax(kept, rates, x, y)
        if r > best_r:
            best_r = r
            best = (r, xs.values[i], ys.values[j], z)
    return best
