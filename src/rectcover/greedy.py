"""Greedy placement with a constant-factor guarantee.

One zone is placed per round at the exact best single-zone position for the
demand still unserved, and the area it covers is trimmed away.  With ``p``
zones this collects at least ``1 - ((p-1)/p)**p`` of the optimum (which is
always better than ``1 - 1/e``).  :func:`pseudo_greedy` runs the same loop
with a pluggable, possibly approximate single-zone solver; a solver within
factor ``a`` of the exact one yields at least ``1 - ((p-a)/p)**p``.

The unserved demand is one float array from the lifted instance to the last
round (:func:`~rectcover.model.demand_rows`): a row ``(x, y, w, l, v)`` per
piece, in planar form.  Each round's single-zone solve reads it directly,
and one pass over it (:func:`_take`) yields both the round's gain and the
pieces left.  The rows are kept in rect form, like :class:`Rect`, because a
far edge is then always recomputed as ``x + w``, exactly as ``Rect.x2``
does; in bounds form ``x1 + (x2 - x1)`` need not give back ``x2``, and the
rounds would drift off the object path by a bit.  So every round matches,
bit for bit, the loop over pieces it replaces: ``single_zone_reward`` for
the gain and ``trim_out`` for the trim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import EPS, Rect
from .model import (
    BaseServiceZone,
    Eta,
    Instance,
    Placement,
    QosSet,
    Solution,
    demand_rows,
    demand_zones,
    service_rect,
)
from .reward import SingleZoneSolver, solve_single_zone


@dataclass(frozen=True)
class GreedyTrace:
    """Per-round marginal rewards plus the assembled solution."""

    rewards: tuple[float, ...]
    solution: Solution


#: Bounds ``(x1, y1, x2, y2)`` of the five pieces :func:`_take` may leave of
#: a row (untouched, bottom, top, left and right strip), as columns of the
#: row's ``(x, y, x2, y2, ix1, iy1, ix2, iy2)``: its bounds, then those of
#: its overlap with the zone.  The bottom strip, for one, is ``(x, y, x2, iy1)``.
_PIECE_BOUNDS = np.array([
    [0, 1, 2, 3],
    [0, 1, 2, 5],
    [0, 7, 2, 3],
    [0, 5, 4, 7],
    [6, 5, 2, 7],
])


def _take(rows: np.ndarray, zone: Rect, eta_z: float, eps: float) -> tuple[float, np.ndarray]:
    """What ``zone`` collects from the demand ``rows`` and the rows it leaves.

    The gain pays each piece its rate ``v / eta_z`` times its overlap with
    ``zone``, added one piece after another in row order, as
    ``single_zone_reward`` adds them (``cumsum``, neither numpy's pairwise
    sum nor the builtin ``sum``, which compensates on Python 3.12).

    The rows left are ``trim_out`` of every piece, in row order: the piece
    itself when ``zone`` misses it (if it is not degenerate), else its
    bottom, top, left and right strips outside ``zone``, each where the
    piece reaches past the zone on that side.  The comparisons are those of
    ``intersect`` and ``_trim_bounds`` (``a if a > b else b`` as
    ``np.where``), a strip's extents are its bounds' differences as
    ``trim_out`` takes them, and a piece with area under ``eps**2`` is
    dropped, so every row equals the ``Rect`` the loop over pieces builds.
    """
    lo, ext, v = rows[:, :2], rows[:, 2:4], rows[:, 4]
    hi = lo + ext
    zlo, zhi = np.array([zone.x, zone.y]), np.array([zone.x2, zone.y2])
    ilo = np.where(lo > zlo, lo, zlo)
    ihi = np.where(hi < zhi, hi, zhi)
    iext = ihi - ilo
    hit = (iext[:, 0] > 0) & (iext[:, 1] > 0)
    terms = ((v / eta_z) * (iext[:, 0] * iext[:, 1]))[hit]
    gain = float(terms.cumsum()[-1]) if terms.size else 0.0
    bounds = np.concatenate([lo, hi, ilo, ihi], axis=1)[:, _PIECE_BOUNDS]
    pieces = np.empty((len(rows), 5, 5))
    pieces[:, :, :2] = bounds[:, :, :2]
    np.subtract(bounds[:, :, 2:], bounds[:, :, :2], out=pieces[:, :, 2:4])
    pieces[:, :, 4] = v[:, None]
    pieces[:, 0] = rows  # an untouched piece keeps its own extents
    keep = np.empty((len(rows), 5), dtype=bool)
    keep[:, 0] = ~hit & (ext[:, 0] > 0) & (ext[:, 1] > 0)
    # the extent across the cut: the bottom and top strips' l, the left and right strips' w
    np.greater(pieces[:, [1, 2, 3, 4], [3, 3, 2, 2]], 0.0, out=keep[:, 1:])
    keep[:, 1:] &= hit[:, None]
    keep &= pieces[:, :, 2] * pieces[:, :, 3] >= eps * eps
    return gain, pieces[keep]


#: A round's single-zone solver on the demand rows: ``(rows, qos, base, eta)
#: -> (reward, x, y, z)``.
_RowSolver = Callable[[np.ndarray, QosSet, BaseServiceZone, Eta], tuple[float, float, float, float]]


def _run(instance: Instance, solver: _RowSolver, eps: float) -> GreedyTrace:
    lifted, lifted_base = instance.planar
    rows = demand_rows(lifted)
    placements: list[Placement] = []
    rewards: list[float] = []
    for j in range(instance.p):
        _, x, y, z = solver(rows, instance.qos_for(j), instance.base, instance.eta)
        pl = Placement(x, y, z)
        # Marginal value is re-evaluated at the returned position so the trace
        # stays truthful even if the solver's own reward claim is off.
        gain, rows = _take(rows, service_rect(lifted_base, pl), instance.eta.apply(z), eps)
        rewards.append(gain)
        placements.append(pl)
    # The claimed value is what the rounds actually collected: each round pays
    # for fresh coverage only, so the sum is a certified lower bound even when
    # a zero-gain round parks its zone somewhere arbitrary.
    return GreedyTrace(tuple(rewards), Solution(tuple(placements), sum(rewards)))


def greedy(instance: Instance, eps: float = EPS) -> GreedyTrace:
    """Place all ``instance.p`` zones greedily using the exact one-zone solver."""

    def exact(rows, qos, base, eta):
        return solve_single_zone(rows, qos, base, eta, eps)

    return _run(instance, exact, eps)


def pseudo_greedy(instance: Instance, approx: SingleZoneSolver, eps: float = EPS) -> GreedyTrace:
    """Greedy rounds driven by a caller-supplied single-zone solver.

    ``approx`` must return a feasible ``(reward, x, y, z)`` with ``z`` drawn
    from the menu it is given.  It is handed the unserved demand as
    :class:`DemandZone` objects built from the rows, which are exact because
    the rows are in rect form.  Plugging in the exact solver reproduces
    :func:`greedy` exactly.
    """

    def plugged(rows, qos, base, eta):
        return approx(demand_zones(rows), qos, base, eta)

    return _run(instance, plugged, eps)
