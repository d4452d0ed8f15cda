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
from typing import Callable, Mapping, Sequence

import numpy as np

from .geometry import Axis, _trim_bounds
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

    ``rates[d]`` is demand zone ``d``'s reward per unit area at this scale,
    and ``ox[d, i]`` and ``oy[d, j]`` its overlap with the zone at
    ``xs.values[i]`` on x and at ``ys.values[j]`` on y.  The isolated reward
    of a zone of that scale placed at ``(xs.values[i], ys.values[j])`` is the
    sum over ``d`` of ``rates[d] * (ox[d, i] * oy[d, j])``, added in demand
    order from +0.0: that in-order sum is the exact contract, the value
    ``covered_reward`` gives the zone alone, and :meth:`cell_sums` takes it.
    ``entries`` is the one matrix product ``(ox * rates).T @ oy``, which sums
    the same terms in another order, so each entry is within a relative
    error of about the number of demand zones times 2**-52 of its in-order
    sum.  The exact search's candidate sets are index ranges into the two
    grids.  :meth:`reweighted` takes the same product with other rates, and
    ``reweighted(rates)`` gives back ``entries`` bit for bit.  A
    tile-by-tile single-zone search tabulates only the grid rows and columns
    of the tiles it keeps, and only the pieces that reach them, and sets
    ``entries`` to -inf off those tiles (:func:`_tiled_table`).  In-order
    sums are taken only where greedy breaks ties (:meth:`first_max`).

    :meth:`block_max` memoises the maximum of ``entries`` over each index
    block it is asked for.  The search bounds every node, leaves included,
    by such blocks, and one solve asks for few distinct ones (on the order
    of a thousand at planar n=30) many times over, so the memo lives as long
    as the matrix, which is one solve.
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

    def cell_sums(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """The in-order sums of the cells ``(i[k], j[k])``: every piece's term added in demand order from +0.0.

        A piece whose overlap is zero at a cell adds an exact zero there, so
        leaving such pieces out, or reading them, changes no sum: a -0.0 total
        would be the only change, and the final +0.0 turns it into +0.0.
        """
        terms = self.rates[:, None] * (self.ox[:, i] * self.oy[:, j])
        # a sequential sum; adding +0.0 turns a -0.0 total into +0.0
        return terms.cumsum(axis=0)[-1] + 0.0

    def first_max(self) -> tuple[float, int, int]:
        """First maximum ``(reward, i, j)`` of the in-order sums, in row-major order.

        Only the entries at or above ``max_entry`` times ``1 - TILE_MARGIN``
        are summed again in demand order, ``RESUM_CHUNK`` cells at a time;
        :func:`solve_single_zone` states why every cell that ties the
        in-order maximum is among them.
        """
        cells_i, cells_j = (self.entries >= self.max_entry * (1.0 - TILE_MARGIN)).nonzero()
        best, bi, bj = -np.inf, 0, 0
        for k in range(0, len(cells_i), RESUM_CHUNK):
            i, j = cells_i[k : k + RESUM_CHUNK], cells_j[k : k + RESUM_CHUNK]
            chunk = self.cell_sums(i, j)
            a = int(chunk.argmax())
            if chunk[a] > best:
                best, bi, bj = float(chunk[a]), int(i[a]), int(j[a])
        return best, bi, bj

    def reweighted(self, weights: np.ndarray) -> "RewardMatrix":
        """The same demand paying ``weights[d]`` per unit area instead of ``rates[d]``, on the same grids.

        Its entries are :func:`table_product` of ``weights``, taken as
        ``entries`` is (:func:`_tabulate`); ``bnb.Lagrangian.of`` reads them
        for multipliers found outside the fit, which steps on bare products.
        Its block maxima get a memo of their own.
        """
        return _tabulate(self.xs, self.ys, weights, self.ox, self.oy)


#: Grid values per tile side in :func:`solve_single_zone`'s tile-bounded argmax.
TILE = 8
#: Relative slack under which a tile bound counts as below the lower bound,
#: and a cell's product sum as below the best one when cells are picked to
#: be summed again in demand order (:meth:`RewardMatrix.first_max`).
TILE_MARGIN = 1e-9
#: Cells summed at once in :meth:`RewardMatrix.first_max`, which bounds its
#: memory to this many times the number of pieces when many cells tie.
RESUM_CHUNK = 256
#: A scale whose grid holds at most this many cells is tabulated whole in
#: :func:`solve_single_zone`, without tile bounds, which cost more than they
#: save on small grids.  Per call, on a two-core VM with one BLAS thread
#: (median over ten seeds): planar n=30 (3,600 cells) 301 us with tiles,
#: 185 us whole; the line at n=12, 135 and 52 us; planar n=75 (22,500
#: cells) 0.67 and 1.11 ms; n=150 (90,000 cells, the size of the greedy
#: benchmark's grids) 1.1 and 5.3 ms.
FULL_CELLS = 8192


def _overlaps(grid: Sequence[float], ext: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Overlap length of ``[g, g + ext]`` with ``[lo[k], hi[k]]``, one row per ``k``."""
    g = np.asarray(grid)
    return np.maximum(np.minimum(g + ext, hi[:, None]) - np.maximum(g, lo[:, None]), 0.0)


@dataclass(frozen=True)
class _Axis:
    """One axis of one scale: the grid, the zone's extent and each piece's span ``[lo, hi]``."""

    grid: np.ndarray
    ext: float
    lo: np.ndarray
    hi: np.ndarray

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


def _scale(
    rows: np.ndarray, z: float, base: BaseServiceZone, eta: Eta
) -> tuple[CriticalValueSet, CriticalValueSet, np.ndarray, _Axis, _Axis]:
    """``(xs, ys, rates, x, y)`` of scale ``z`` over the :func:`demand_rows` array ``rows``.

    The grid is the inner-demand grid per axis, and each axis spans every
    piece in planar form.  For one-dimensional input the y axis collapses
    to the single value ``y = 0``.
    """
    px, py, w, l, v = rows.T
    xs = inner_demand_grid(rows, z, base, Axis.X)
    x = _Axis(xs.array, base.w0 * z, px, px + w)
    if base.l0 == 0:  # planar_form lifts a segment to the box [0, 1] in y, and the base to length 1
        ys = CriticalValueSet(np.zeros(1))
        y = _Axis(ys.array, z, np.zeros(len(px)), np.ones(len(px)))
    else:
        ys = inner_demand_grid(rows, z, base, Axis.Y)
        y = _Axis(ys.array, base.l0 * z, py, py + l)
    return xs, ys, v / eta.apply(z), x, y  # v / eta(z) is each piece's reward_rate


def table_product(rates: np.ndarray, ox: np.ndarray, oy: np.ndarray) -> np.ndarray:
    """The one product ``(ox * rates).T @ oy`` of the overlap tables: each cell's rate-weighted overlap sum."""
    return (ox * rates[:, None]).T @ oy


def _tabulate(
    xs: CriticalValueSet, ys: CriticalValueSet, rates: np.ndarray, ox: np.ndarray, oy: np.ndarray
) -> RewardMatrix:
    """The reward matrix over ``xs`` and ``ys`` of the overlap tables ``ox`` and ``oy``, with their one product."""
    return RewardMatrix(xs, ys, table_product(rates, ox, oy), rates, ox, oy)


def build_reward_matrix(
    dzs: Sequence[DemandZone] | np.ndarray,
    z: float,
    base: BaseServiceZone,
    eta: Eta,
) -> RewardMatrix:
    """Tabulate isolated single-zone rewards of scale ``z`` over its grid.

    ``dzs`` is a sequence of zones or their :func:`demand_rows` array.  The
    grid is the inner-demand grid per axis.  For one-dimensional input the y
    axis collapses to the single index ``y = 0``.

    The entries are one matrix product of the overlap tables, one row per
    demand zone in input order, which stay on the matrix with the rates for
    :meth:`RewardMatrix.reweighted` and the in-order sums
    (:class:`RewardMatrix`).
    """
    xs, ys, rates, x, y = _scale(demand_rows(dzs), z, base, eta)
    return _tabulate(xs, ys, rates, x.overlaps(), y.overlaps())


def covered_reward(
    dzs: Sequence[DemandZone],
    placements: Sequence[Placement],
    base: BaseServiceZone,
    eta: Eta,
) -> float:
    """Total reward of ``placements`` with best-scale payment on overlaps.

    Placements are processed by ascending scale (ties by original order);
    each is paid for its overlap with the not-yet-served demand set, which is
    then trimmed (:func:`serve_zone`, which drops the pieces of area 0),
    until no demand is left.
    """
    if not placements or not dzs:
        return 0.0
    pdzs, pbase = planar_form(dzs, base)
    rows: list[Sequence[float]] = [d.row for d in pdzs]
    total = 0.0
    for pl in sorted(placements, key=lambda q: q.z):  # stable: ties keep their order
        total, rows = serve_zone(rows, _bounds(pl, pbase.w0, pbase.l0), eta.apply(pl.z), total)
        if not rows:
            break
    return total


def serve_zone(
    rows: Sequence[Sequence[float]],
    zone: tuple[float, float, float, float],
    eta_z: float,
    total: float = 0.0,
    paid: list[tuple[float, ...]] | None = None,
) -> tuple[float, list[Sequence[float]]]:
    """Serve the demand ``rows`` by the zone with bounds ``(x1, y1, x2, y2)``: ``(total, rows left)``.

    Rows are ``(x, y, w, l, v)`` in planar rect form, as :class:`Rect`
    stores a rectangle: a far edge is recomputed as ``x + w``, exactly as
    ``Rect.x2`` does.  (In bounds form ``x1 + (x2 - x1)`` need not give back
    ``x2``, and the result would drift off the object path by a bit.)  So
    the result equals, bit for bit, the loop over ``Rect`` pieces that the
    tests' reference (``tests/reference.py``) runs: each piece the zone
    meets adds ``reward_rate * area(intersect)`` to ``total``, one piece
    after another in row order, and the rows left are ``trim_out`` of every
    piece, in row order, without those whose computed area is 0 (an extent
    of 0, or a product of extents that underflows), in any units.  When ``paid`` is a list, every served piece is appended to
    it as ``(x, y, w, l, v, rate)``, with the rate it was paid.
    """
    sx1, sy1, sx2, sy2 = zone
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
            if w * l > 0:
                left.append(row)
            continue
        rate = v / eta_z
        total += rate * ((ix2 - ix1) * (iy2 - iy1))
        if paid is not None:
            paid.append((ix1, iy1, ix2 - ix1, iy2 - iy1, v, rate))
        for px1, py1, px2, py2 in _trim_bounds(x1, y1, x2, y2, ix1, iy1, ix2, iy2):
            if (px2 - px1) * (py2 - py1) > 0:
                left.append((px1, py1, px2 - px1, py2 - py1, v))
    return total, left


def _bounds(pl: Placement, w0: float, l0: float) -> tuple[float, float, float, float]:
    """The bounds ``(x1, y1, x2, y2)`` :func:`serve_zone` takes of ``pl`` on a base of extents ``w0`` by ``l0``."""
    return pl.x, pl.y, pl.x + w0 * pl.z, pl.y + l0 * pl.z


class ResidualDemand:
    """The demand a set of placements ``S`` leaves, for marginal gains over ``S``.

    ``served`` is ``f(S)``, the covered reward of ``S``.  Every piece of
    demand carries the rate it is already paid: the rate of the zone of
    ``S`` that served it, or 0 for the unserved pieces.  Adding a scale-``z``
    zone ``t`` gains ``max(0, v / eta(z) - paid)`` per unit of a piece it
    covers, because covered reward pays each point at its best rate.

    The state keeps the trimming loop's unserved rows and paid pieces.  One
    loop (``_serve``) serves placements over them: the constructor runs it
    from the demand, over ``placements`` by ascending scale (ties in order),
    and :meth:`extended` from where a state ends, so the state of ``S``
    plus zones served last equals, bit for bit, the state built from the
    demand.

    ``t``'s lower corner is at ``fixed`` on the axis other than ``axis`` and
    moves along ``axis``.  Its gain is then a sum over the pieces of a
    weight (gain rate times the piece's overlap with ``t``'s fixed span)
    times the piece's ``_overlaps`` with ``t`` on ``axis``; pieces with a
    weight ``<= 0`` (already paid at least ``t``'s rate, or off the span)
    are dropped.  The search reads only open candidate sets, so a gain is
    wanted only as a maximum: over every real position (:meth:`best_gain`)
    or over a slice of a grid (:meth:`gain_column`), each memoised per
    ``(z, fixed, axis)``.  The two share that key's terms, computed once
    (:meth:`_key_terms`).

    The pieces' lower and upper edges, ``_lo`` and ``_hi``, and the lifted
    base's extents, ``_unit``, are ``(x, y)`` pairs, so each axis reads its
    own by index (:class:`~rectcover.geometry.Axis`).
    """

    def __init__(
        self,
        dzs: Sequence[DemandZone],
        placements: Sequence[Placement],
        base: BaseServiceZone,
        eta: Eta,
    ) -> None:
        pdzs, pbase = planar_form(dzs, base)
        self.served, self._paid_pieces, self._unserved = 0.0, [], [d.row for d in pdzs]
        self._unit, self._eta = (pbase.w0, pbase.l0), eta  # the lifted base's extents
        self._serve(sorted(placements, key=lambda q: q.z))  # stable: ties keep their order

    def extended(self, *placements: Placement) -> "ResidualDemand":
        """The state of ``S`` plus ``placements``, served in the order given after every zone of ``S``.

        A new state starts where this one ends, with ``f(S)``, the paid
        pieces and the unserved rows, and serves them in the constructor's
        loop: the steps the trimming loop over ``S`` and then
        ``placements`` takes, so the result equals the state built from the
        demand when ``placements`` come last in the loop's order (ascending
        scale, ties in order).  It sets the fields the constructor sets, in
        its order; copying ``__dict__`` instead (as ``copy.copy`` does)
        slows every later attribute read of the state.
        """
        state = object.__new__(ResidualDemand)
        state.served, state._paid_pieces, state._unserved = self.served, self._paid_pieces, self._unserved
        state._unit, state._eta = self._unit, self._eta
        state._serve(placements)
        return state

    def _serve(self, placements: Sequence[Placement]) -> None:
        """Serve ``placements`` in the order given (:func:`serve_zone`), then hold the piece columns the gains read.

        The one serve loop of a state.  It copies the paid pieces before it
        appends to them, so a state extended from another shares no list
        that changes.
        """
        served, paid, rows = self.served, list(self._paid_pieces), self._unserved
        for pl in placements:
            served, rows = serve_zone(rows, _bounds(pl, *self._unit), self._eta.apply(pl.z), served, paid)
        self.served, self._paid_pieces, self._unserved = served, paid, rows
        pieces = np.array(paid + [row + (0.0,) for row in rows], dtype=float).reshape(-1, 6)
        x1, y1, w, l, self._v, self._paid = pieces.T
        self._lo, self._hi = (x1, y1), (x1 + w, y1 + l)
        self._terms_of: dict[tuple[float, float, int], tuple[np.ndarray, np.ndarray, np.ndarray, float]] = {}
        self._best: dict[tuple[float, float, int], float] = {}
        self._columns: dict[tuple[float, float, int], np.ndarray] = {}

    def _terms(self, z: float, fixed: float, axis: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """``(weights, lo, hi, ext)``: the kept pieces' weights and spans on ``axis``; ``t``'s extent on it.

        Each pair is read at ``axis`` and, for ``t``'s fixed span from
        ``fixed``, at the other axis ``1 - axis``.
        """
        lo, hi, unit, other = self._lo, self._hi, self._unit, 1 - axis
        overlap = np.maximum(np.minimum(fixed + unit[other] * z, hi[other]) - np.maximum(fixed, lo[other]), 0.0)
        weights = (self._v / self._eta.apply(z) - self._paid) * overlap
        keep = weights > 0.0
        return weights[keep], lo[axis][keep], hi[axis][keep], unit[axis] * z

    def _key_terms(self, key: tuple[float, float, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """:meth:`_terms` of ``key``, computed at its first read."""
        terms = self._terms_of.get(key)
        if terms is None:
            terms = self._terms_of[key] = self._terms(*key)
        return terms

    def best_gain(self, z: float, fixed: float, axis: int) -> float:
        """The largest gain ``f(S + t) - f(S)`` over every real position of ``t``.

        A piece's overlap with ``t`` is a trapezoid in ``t``'s position ``c``
        with corners ``lo - ext``, ``min(lo, hi - ext)``, ``max(lo, hi - ext)``
        and ``hi``; the gain, a positive-weighted sum of them, is piecewise
        linear and reaches its maximum at a concave kink, where ``t`` sits
        flush inside a piece: ``c = lo`` or ``c = hi - ext`` of some piece.
        Only those positions are evaluated; the gain is 0 with no piece.
        """
        key = (z, fixed, axis)
        best = self._best.get(key)
        if best is None:
            weights, lo, hi, ext = self._key_terms(key)
            flush = np.concatenate((lo, hi - ext))
            best = self._best[key] = float((weights @ _overlaps(flush, ext, lo, hi)).max(initial=0.0))
        return best

    def gain_column(self, z: float, fixed: float, axis: int, grid: Sequence[float]) -> np.ndarray:
        """The gain of ``t`` at each ``grid`` value; one ``grid`` per scale and axis must be used."""
        key = (z, fixed, axis)
        column = self._columns.get(key)
        if column is None:
            weights, lo, hi, ext = self._key_terms(key)
            column = self._columns[key] = weights @ _overlaps(grid, ext, lo, hi)
        return column


def _tiled_table(rates: np.ndarray, x: _Axis, y: _Axis, best_r: float) -> tuple[RewardMatrix | None, float]:
    """:func:`solve_single_zone`'s tile-bounded search of one scale: ``(table, cap)``.

    ``bound`` bounds every tile (:meth:`_Axis.tile_bounds`), ``lower`` is
    the larger of ``best_r`` and the largest overlap sum in the
    best-bounded tile, and the tiles with ``bound >= lower * (1 -
    TILE_MARGIN)`` are kept.  ``table`` is None when none is.  Otherwise it
    spans the grid rows and columns that hold a kept tile, and its entries
    read -inf off the kept tiles, so its :meth:`~RewardMatrix.first_max` is
    the first maximum over the kept tiles' cells in row-major order.

    It holds only the pieces that reach the box those rows and columns
    span: ``hi > gx[0]`` and ``lo < gx[-1] + ext`` on x, with ``gx`` the
    rows' grid values, and the same on y.  ``gx[-1] + ext`` is the sum
    ``_overlaps`` takes at that row, so a piece left out overlaps the zone
    by an exact 0 at every row and column, and adds exact zeros to every
    in-order sum (:meth:`RewardMatrix.cell_sums`).  The table holds at least
    one piece, as its in-order sums need.  With a positive ``lower`` every
    kept tile's bound is positive, so some piece's x and y tile bounds are
    positive there, and that piece reaches the box.  With ``lower`` 0 every
    tile is kept, and so is every piece: no piece need reach the box then,
    as when every zone's extent is lost in rounding against its position.
    """
    bound = (x.tile_bounds() * rates[:, None]).T @ y.tile_bounds()
    a, b = divmod(int(bound.argmax()), bound.shape[1])
    tile_x, tile_y = slice(a * TILE, (a + 1) * TILE), slice(b * TILE, (b + 1) * TILE)
    tile = (x.overlaps(at=tile_x) * rates[:, None]).T @ y.overlaps(at=tile_y)
    lower = max(float(tile.max()), best_r)
    kept = bound >= lower * (1.0 - TILE_MARGIN)
    cap = float(bound.max(where=~kept, initial=0.0)) * (1.0 + TILE_MARGIN)
    if not kept.any():
        return None, cap
    kr, kc = kept.any(axis=1), kept.any(axis=0)
    rows = np.repeat(kr, TILE)[: len(x.grid)].nonzero()[0]
    cols = np.repeat(kc, TILE)[: len(y.grid)].nonzero()[0]
    gx, gy = x.grid[rows], y.grid[cols]
    near = (x.hi > gx[0]) & (x.lo < gx[-1] + x.ext) & (y.hi > gy[0]) & (y.lo < gy[-1] + y.ext)
    near |= lower == 0.0
    ox = _overlaps(gx, x.ext, x.lo[near], x.hi[near])
    oy = _overlaps(gy, y.ext, y.lo[near], y.hi[near])
    m = _tabulate(CriticalValueSet(gx), CriticalValueSet(gy), rates[near], ox, oy)
    on_tiles = np.repeat(np.repeat(kept[kr][:, kc], TILE, axis=0), TILE, axis=1)
    m.entries[~on_tiles[: len(rows), : len(cols)]] = -np.inf
    return m, cap


def solve_single_zone(
    dzs: Sequence[DemandZone] | np.ndarray,
    qos: QosSet,
    base: BaseServiceZone,
    eta: Eta,
    caps: dict[float, float] | None = None,
    tables: Mapping[float, RewardMatrix] | None = None,
) -> tuple[float, float, float, float]:
    """Best single placement ``(reward, x, y, z)`` over the candidate grids.

    ``dzs`` is a sequence of zones or their :func:`demand_rows` array.
    Searches every scale in ``qos`` over its inner-demand grid (times
    ``{0}`` on y for one-dimensional input), which contains an exact optimum
    for the isolated one-zone problem.  Ties break toward the smallest scale,
    then smallest x, then smallest y.  An empty demand set returns reward 0 at
    the origin with the smallest scale.

    The result is bitwise that of taking, for each scale, the first maximum
    in row-major order of the in-order sums over its grid
    (:class:`RewardMatrix`), and keeping the scale with the largest maximum,
    the smallest of equal ones; but few cells are summed in that order.
    Every scale's first maximum is read off one :class:`RewardMatrix`
    (:meth:`RewardMatrix.first_max`): the scale's entry of ``tables``, when
    given, which maps each scale of ``qos`` to the
    :func:`build_reward_matrix` of exactly this demand (an exact search
    builds them anyway); otherwise the whole table, when the scale's grid
    holds at most :data:`FULL_CELLS` cells; otherwise the table of the tiles
    a tile-by-tile search keeps (:func:`_tiled_table`).

    ``caps`` maps a scale to its *cap*, an upper bound on its largest
    reward, and receives the cap of every scale solved here.  A cap that is
    read must hold for this demand: :func:`~rectcover.greedy.greedy` keeps
    one dict per run and passes it to every round, as a round only removes
    demand (:mod:`rectcover.greedy`).  By default no cap is read and none is
    kept.  The scales are visited:

    * by decreasing cap, the uncapped ones first, in menu order;
    * except a scale whose cap times ``1 + TILE_MARGIN`` is below the best
      reward found so far, which is skipped, as its maximum cannot reach
      that reward (the margin absorbs rounding, as below);
    * and a scale's reward replaces the best one when it is larger, or
      equal on a smaller scale.

    A whole table filters its cells by its product entries: those at or
    above their maximum times ``1 - TILE_MARGIN`` are summed again in demand
    order, and the scale's cap is its first maximum.  No cell that ties the
    in-order maximum ``M`` is filtered out.  With ``n`` pieces, the product
    and the in-order sum each sum nonnegative terms, so each is within a
    relative ``g`` of about ``n * 2**-53`` of the exact sum.  A cell worth
    ``M`` in order then reads at least ``M * (1 - 2g)`` in the product, and
    no cell reads above ``M * (1 + 2g)``; so it is within about ``4g`` of
    the product's maximum, below ``TILE_MARGIN`` for any ``n`` below a
    million.

    Per scale searched tile by tile:

    * Both grids are cut into tiles of ``TILE`` consecutive values.  A
      piece's overlap with the zone is a trapezoid in the zone's position,
      so its maximum over a tile's span is the trapezoid at the plateau
      start clipped into that span.  :meth:`_Axis.tile_bounds` bounds it as
      the overlaps are rounded.  One matrix product of the rate times the x
      bounds with the y bounds then bounds every tile.
    * The lower bound is the larger of the best-bounded tile's maximum and
      the best reward of the scales visited before.  A tile whose bound is
      below it times ``1 - TILE_MARGIN`` cannot hold a winning maximum and
      is pruned.  The margin absorbs rounding: the tile bounds and that
      tile's maximum are sums of nonnegative terms taken by matrix
      products, in another order than the in-order sums, so they differ
      from them by a relative error of about the number of pieces times
      2**-52.
    * The table of the kept tiles' rows and columns sums every kept cell
      in its one product, over the pieces that reach the box those rows and
      columns span (the others add exact zeros to every cell there), reads
      -inf at every other cell, and filters its cells as a whole table does.
    * Every cell that holds the scale's maximum lies in a kept tile and
      survives the filter whenever that maximum can win, so the first
      maximum over the re-summed cells, in row-major order, is the scale's
      first maximum.
    * The scale's cap is the largest bound of a pruned tile times ``1 +
      TILE_MARGIN`` (0 when none is pruned), or the re-summed maximum ``r``
      when that is larger.  ``r`` alone is no cap: when another scale's
      reward set the lower bound, a pruned tile may hold this scale's
      maximum, which exceeds its tile's bound by at most the rounding
      above.
    """
    if len(dzs) == 0:
        return 0.0, 0.0, 0.0, qos.min_factor
    caps = {} if caps is None else caps
    rows = demand_rows(dzs) if tables is None else None
    best_r = -1.0
    best = (0.0, 0.0, 0.0, qos.min_factor)
    for z in sorted(qos.factors, key=lambda z: -caps.get(z, np.inf)):  # stable: ties keep menu order
        if caps.get(z, np.inf) * (1.0 + TILE_MARGIN) < best_r:
            continue  # this scale cannot reach the best reward so far
        if rows is None:
            m, cap = tables[z], 0.0
        else:
            xs, ys, rates, x, y = _scale(rows, z, base, eta)
            if len(xs) * len(ys) <= FULL_CELLS:
                m, cap = _tabulate(xs, ys, rates, x.overlaps(), y.overlaps()), 0.0
            else:
                m, cap = _tiled_table(rates, x, y, best_r)
        if m is None:
            caps[z] = cap  # no tile of this scale can reach the best reward so far
            continue
        r, i, j = m.first_max()
        caps[z] = max(cap, r)
        if r > best_r or (r == best_r and z < best[3]):
            best_r = r
            best = (r, m.xs.array.item(i), m.ys.array.item(j), z)
    return best
