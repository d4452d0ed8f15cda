"""Reward evaluation.

The value of a set of placements is the sum over demand zones of the covered
area, weighted by the demand rate divided by the covering zone's decay value,
where any point covered several times pays at its best (smallest-scale)
covering zone.  Equivalently: process placements from best scale to worst,
pay each for what it newly covers, and trim the paid region out of the
demand set.  One routine, :func:`serve_zone`, pays and trims for one zone;
:func:`covered_reward`, :class:`ResidualDemand` and greedy's rounds all
trim served demand through it.

One-dimensional instances (``base.l0 == 0``) reuse the planar machinery by
lifting every demand segment to a unit-height box, so covered length and
covered area coincide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .geometry import EPS, Axis, _trim_bounds
from .critical import CriticalValueSet, inner_demand_grid
from .model import (
    BaseServiceZone,
    DemandZone,
    Eta,
    Placement,
    QosSet,
    demand_rows,
    planar_form,
)

#: Signature shared by the exact single-zone solver and any approximate
#: substitute: ``(dzs, qos, base, eta) -> (reward, x, y, z)``.
SingleZoneSolver = Callable[
    [Sequence[DemandZone], QosSet, BaseServiceZone, Eta],
    tuple[float, float, float, float],
]


@dataclass(frozen=True, eq=False)
class RewardMatrix:
    """Single-zone rewards of one scale tabulated over its candidate grid, with the tables they sum.

    ``entries[i, j]`` is the isolated reward of a zone of that scale placed
    at ``(xs.values[i], ys.values[j])``.  The exact search's candidate sets
    are index ranges into these two grids.  ``rates[d]`` is demand zone
    ``d``'s reward per unit area at this scale, and ``ox[d, i]`` and
    ``oy[d, j]`` its overlap with the zone at ``xs.values[i]`` on x and at
    ``ys.values[j]`` on y, so that ``entries[i, j]`` is the sum over ``d``
    of ``rates[d] * ox[d, i] * oy[d, j]`` (summed as
    :func:`build_reward_matrix` states).  :meth:`reweighted` reads the same
    tables with other rates.

    :meth:`block_max` memoises the maximum of each index block it is asked
    for.  The search bounds every node by such blocks, and one solve asks for
    few distinct ones (on the order of a thousand at planar n=30) many times
    over, so the memo lives as long as the matrix, which is one solve.
    """

    xs: CriticalValueSet
    ys: CriticalValueSet
    entries: np.ndarray
    rates: np.ndarray
    ox: np.ndarray
    oy: np.ndarray
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

    def reweighted(self, weights: np.ndarray) -> "RewardMatrix":
        """The same demand paying ``weights[d]`` per unit area instead of ``rates[d]``, on the same grids.

        Its entries are one matrix product, ``(ox * weights).T @ oy``, so
        they are summed in another order than :func:`build_reward_matrix`'s
        and ``reweighted(rates)`` equals ``entries`` only to a relative
        error of about the number of demand zones times 2**-52.  Its block
        maxima get a memo of their own.
        """
        return RewardMatrix(self.xs, self.ys, self.reweighted_entries(weights), weights, self.ox, self.oy)

    def reweighted_entries(self, weights: np.ndarray) -> np.ndarray:
        """The entries of :meth:`reweighted`, without a matrix around them."""
        return (self.ox * weights[:, None]).T @ self.oy


#: Grid values per tile side in :func:`solve_single_zone`'s tile-bounded argmax.
TILE = 8
#: Relative slack under which a tile bound counts as below the lower bound,
#: and a cell's product sum as below the best one in :func:`_kept_argmax`.
TILE_MARGIN = 1e-9
#: Cells re-summed at once in :func:`_kept_argmax`, which bounds its memory
#: to this many times the number of pieces when many cells tie.
RESUM_CHUNK = 256


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

    def overlaps(self, at: np.ndarray | slice = slice(None)) -> np.ndarray:
        """``_overlaps`` of every piece at the grid positions ``at``."""
        return _overlaps(self.grid[at], self.ext, self.lo, self.hi)

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
    whole grid (:func:`_add_blocks`).  The rates and the two overlap tables
    stay on the matrix, one row per demand zone in input order, for
    :meth:`RewardMatrix.reweighted`.
    """
    xs, ys, rates, x, y = _Demand(dzs, base).scale(z, eta, eps)
    ox, oy = x.overlaps(), y.overlaps()
    entries = np.zeros((len(xs), len(ys)))
    _add_blocks(entries, rates, ox, oy, x.start, x.stop, y.start, y.stop)
    return RewardMatrix(xs, ys, entries, rates, ox, oy)


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
    then trimmed (:func:`serve_zone`).  Near-degenerate pieces (area below
    ``eps**2``) are dropped to bound bookkeeping growth.
    """
    if not placements or not dzs:
        return 0.0
    return _serve(dzs, placements, base, eta, eps)[0]


def serve_zone(
    rows: Sequence[Sequence[float]],
    zone: tuple[float, float, float, float],
    eta_z: float,
    eps: float,
    total: float = 0.0,
    paid: list[tuple[float, ...]] | None = None,
) -> tuple[float, list[Sequence[float]]]:
    """Serve the demand ``rows`` by the zone with bounds ``(x1, y1, x2, y2)``: ``(total, rows left)``.

    Rows are ``(x, y, w, l, v)`` in planar rect form, as :class:`Rect`
    stores a rectangle: a far edge is recomputed as ``x + w``, exactly as
    ``Rect.x2`` does.  (In bounds form ``x1 + (x2 - x1)`` need not give back
    ``x2``, and the result would drift off the object path by a bit.)  So
    the result equals, bit for bit, the loop over ``Rect`` pieces: each
    piece the zone meets adds ``reward_rate * area(intersect)`` to
    ``total``, one piece after another in row order, and the rows left are
    ``trim_out`` of every piece, in row order, without those of area below
    ``eps**2``.  When ``paid`` is a list, every served piece is appended to
    it as ``(x, y, w, l, v, rate)``, with the rate it was paid.
    """
    sx1, sy1, sx2, sy2 = zone
    min_area = eps * eps
    left: list[Sequence[float]] = []
    for row in rows:
        x1, y1, w, l, v = row
        x2 = x1 + w
        y2 = y1 + l
        ix1 = x1 if x1 > sx1 else sx1
        iy1 = y1 if y1 > sy1 else sy1
        ix2 = x2 if x2 < sx2 else sx2
        iy2 = y2 if y2 < sy2 else sy2
        if ix2 - ix1 <= 0 or iy2 - iy1 <= 0:
            if w > 0 and l > 0 and w * l >= min_area:
                left.append(row)
            continue
        rate = v / eta_z
        total += rate * ((ix2 - ix1) * (iy2 - iy1))
        if paid is not None:
            paid.append((ix1, iy1, ix2 - ix1, iy2 - iy1, v, rate))
        for px1, py1, px2, py2 in _trim_bounds(x1, y1, x2, y2, sx1, sy1, sx2, sy2):
            if (px2 - px1) * (py2 - py1) >= min_area:
                left.append((px1, py1, px2 - px1, py2 - py1, v))
    return total, left


def _serve(
    dzs: Sequence[DemandZone],
    placements: Sequence[Placement],
    base: BaseServiceZone,
    eta: Eta,
    eps: float,
    paid: list[tuple[float, ...]] | None = None,
) -> tuple[float, list[Sequence[float]]]:
    """:func:`serve_zone` for each placement by ascending scale: ``(reward, unserved rows)``."""
    pdzs, pbase = planar_form(dzs, base)
    rows: list[Sequence[float]] = [d.row for d in pdzs]
    total = 0.0
    for pl in sorted(placements, key=lambda q: q.z):  # stable: ties keep their order
        zone = (pl.x, pl.y, pl.x + pbase.w0 * pl.z, pl.y + pbase.l0 * pl.z)
        total, rows = serve_zone(rows, zone, eta.apply(pl.z), eps, total, paid)
        if not rows:
            break
    return total, rows


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
        paid: list[tuple[float, ...]] = []
        self.served, unserved = _serve(dzs, placements, base, eta, eps, paid)
        pieces = np.array(paid + [(*row, 0.0) for row in unserved], dtype=float).reshape(-1, 6)
        self._x1, self._y1, w, l, self._v, self._paid = pieces.T
        self._x2, self._y2 = self._x1 + w, self._y1 + l
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

    The reward is the full reward matrix's cell, bit for bit.  One matrix
    product over the grid rows and columns that hold a kept tile filters the
    cells: those at or above its maximum over the kept tiles times ``1 -
    TILE_MARGIN`` are re-summed exactly, ``RESUM_CHUNK`` at a time, each
    as every piece's ``rate * (ox * oy)`` added in demand order from +0.0,
    as :func:`build_reward_matrix` adds them (a piece's terms outside its
    support block are exact zeros).  :func:`solve_single_zone` states why
    every cell that ties the maximum survives the filter.
    """
    rows = np.repeat(kept.any(axis=1), TILE)[: len(x.grid)].nonzero()[0]
    cols = np.repeat(kept.any(axis=0), TILE)[: len(y.grid)].nonzero()[0]
    scaled = x.overlaps(at=rows)
    scaled *= rates[:, None]
    approx = scaled.T @ y.overlaps(at=cols)
    approx[~kept[(rows // TILE)[:, None], cols // TILE]] = -np.inf
    near = (approx >= approx.max() * (1.0 - TILE_MARGIN)).nonzero()
    cells_i, cells_j = rows[near[0]], cols[near[1]]
    best, bi, bj = -np.inf, 0, 0
    for k in range(0, len(cells_i), RESUM_CHUNK):
        i, j = cells_i[k : k + RESUM_CHUNK], cells_j[k : k + RESUM_CHUNK]
        terms = rates[:, None] * (x.overlaps(at=i) * y.overlaps(at=j))
        # a sequential sum; adding +0.0 turns a -0.0 total into the matrix's +0.0
        sums = terms.cumsum(axis=0)[-1] + 0.0
        a = int(sums.argmax())
        if sums[a] > best:
            best, bi, bj = float(sums[a]), int(i[a]), int(j[a])
    return best, bi, bj


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
    summed, and few are summed in the matrix's order.  Per scale:

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
    * One matrix product over the kept tiles' rows and columns sums every
      kept cell in another order; only the cells at or above its maximum
      times ``1 - TILE_MARGIN`` are re-summed in demand order from +0.0,
      which gives the matrix entries bit for bit (:func:`_kept_argmax`).
      No cell that ties the matrix's maximum ``M`` is filtered out.  With
      ``n`` pieces, the product and the matrix each sum nonnegative terms,
      so each is within a relative ``g`` of about ``n * 2**-53`` of the
      exact sum.  A cell worth ``M`` in the matrix then reads at least
      ``M * (1 - 2g)`` in the product, and no kept cell reads above ``M *
      (1 + 2g)``; so it is within about ``4g`` of the product's maximum,
      below ``TILE_MARGIN`` for any ``n`` below a million.
    * Every cell that holds the scale's maximum lies in a kept tile and
      survives the filter, so the first maximum over the re-summed cells,
      in row-major order, is the matrix's first maximum; a later scale
      replaces it only when strictly larger.
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
