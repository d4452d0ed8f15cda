"""Greedy placement with a constant-factor guarantee.

One zone is placed per round at the exact best single-zone position for the
demand still unserved, and the area it covers is trimmed away.  With ``p``
zones this collects at least ``1 - ((p-1)/p)**p`` of the optimum (which is
always better than ``1 - 1/e``).  :func:`pseudo_greedy` runs the same loop
with a pluggable, possibly approximate single-zone solver; a solver within
factor ``a`` of the exact one yields at least ``1 - ((p-a)/p)**p``.

Both run one round loop, which takes one callback, ``solve_round(j, rows)
-> (reward, x, y, z)``, the placement of round ``j``.  The unserved demand
is a list of planar rect-form rows ``(x, y, w, l, v)`` from the lifted
instance to the last round.  Each round's callback reads them as one array
(:func:`~rectcover.model.demand_rows` form), and
:func:`~rectcover.reward.serve_zone`, the trimming loop of
:func:`~rectcover.reward.covered_reward`, yields both the round's gain and
the rows left.

A greedy run is lazy over scales, as Minoux's accelerated greedy (1978) is
over elements: it keeps each scale's *cap*, an upper bound on that scale's
best single-zone reward, from the round that last solved the scale, and
:func:`~rectcover.reward.solve_single_zone` visits a round's menu by
decreasing cap and skips a scale whose cap cannot reach the best reward
found so far.  A cap stays valid in every later round:

* a round only removes demand (the rows it leaves are pieces of the rows it
  was given), so no position's reward grows from one round to the next;
* the inner-demand grid holds an exact single-zone maximum, so a scale's
  best reward on its grid is its best reward anywhere, and it cannot grow
  either;
* a cap and a later reward differ from exact sums only by the rounding of
  sums of nonnegative terms, far below the ``TILE_MARGIN`` the skip test
  adds.

So the trace is bit for bit that of solving every scale of every round.
The caps belong to one :func:`greedy` call, whose callback hands the same
dict to every round; :func:`pseudo_greedy` keeps none.

The first round sees the whole demand, whose reward matrices an exact
search builds anyway (``bnb.CandidateGrids``).  Given them, :func:`greedy`'s
callback reads its first round off them (``solve_single_zone``'s
``tables``), with the same result and caps bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .model import Instance, Placement, Solution, demand_rows, demand_zones, service_rect
from .reward import RewardMatrix, SingleZoneSolver, serve_zone, solve_single_zone


@dataclass(frozen=True)
class GreedyTrace:
    """Per-round marginal rewards plus the assembled solution."""

    rewards: tuple[float, ...]
    solution: Solution


def _run(instance: Instance, solve_round: Callable[[int, np.ndarray], tuple[float, float, float, float]]) -> GreedyTrace:
    """The greedy rounds: round ``j`` places the zone ``solve_round(j, rows)`` returns as ``(reward, x, y, z)``.

    ``rows`` is the demand the earlier rounds left, as one array.
    """
    lifted, lifted_base = instance.planar
    rows = demand_rows(lifted).tolist()
    placements: list[Placement] = []
    rewards: list[float] = []
    for j in range(instance.p):
        _, x, y, z = solve_round(j, np.array(rows, dtype=float).reshape(-1, 5))
        pl = Placement(x, y, z)
        # Marginal value is re-evaluated at the returned position so the trace
        # stays truthful even if the solver's own reward claim is off.
        zone = service_rect(lifted_base, pl)
        gain, rows = serve_zone(rows, (zone.x, zone.y, zone.x2, zone.y2), instance.eta.apply(z))
        rewards.append(gain)
        placements.append(pl)
    # The claimed value is what the rounds actually collected: each round pays
    # for fresh coverage only, so the sum is a certified lower bound even when
    # a zero-gain round parks its zone somewhere arbitrary.
    return GreedyTrace(tuple(rewards), Solution(tuple(placements), sum(rewards)))


def greedy(instance: Instance, tables: Mapping[float, RewardMatrix] | None = None) -> GreedyTrace:
    """Place all ``instance.p`` zones greedily using the exact one-zone solver.

    ``tables``, when given, maps every scale of zone 0's menu to the
    :func:`~rectcover.reward.build_reward_matrix` of ``instance.dzs``; the
    first round reads them, and the trace is the same bit for bit.
    """
    caps: dict[float, float] = {}

    def solve_round(j: int, rows: np.ndarray) -> tuple[float, float, float, float]:
        return solve_single_zone(rows, instance.qos_for(j), instance.base, instance.eta, caps, None if j else tables)

    return _run(instance, solve_round)


def pseudo_greedy(instance: Instance, approx: SingleZoneSolver) -> GreedyTrace:
    """Greedy rounds driven by a caller-supplied single-zone solver.

    ``approx`` must return a feasible ``(reward, x, y, z)`` with ``z`` drawn
    from the menu it is given.  It is handed the unserved demand as
    :class:`DemandZone` objects built from the rows, which are exact because
    the rows are in rect form, and no caps.  Plugging in the exact solver
    reproduces :func:`greedy` exactly.
    """

    def solve_round(j: int, rows: np.ndarray) -> tuple[float, float, float, float]:
        return approx(demand_zones(rows), instance.qos_for(j), instance.base, instance.eta)

    return _run(instance, solve_round)
