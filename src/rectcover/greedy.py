"""Greedy placement with a constant-factor guarantee.

One zone is placed per round at the exact best single-zone position for the
demand still unserved, and the area it covers is trimmed away.  With ``p``
zones this collects at least ``1 - ((p-1)/p)**p`` of the optimum (which is
always better than ``1 - 1/e``).  :func:`pseudo_greedy` runs the same loop
with a pluggable, possibly approximate single-zone solver; a solver within
factor ``a`` of the exact one yields at least ``1 - ((p-a)/p)**p``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import EPS, area, trim_out
from .model import BaseServiceZone, DemandZone, Instance, Placement, Solution, service_rect
from .reward import (
    SingleZoneSolver,
    planar_form,
    single_zone_reward,
    solve_single_zone,
)


@dataclass(frozen=True)
class GreedyTrace:
    """Per-round marginal rewards plus the assembled solution."""

    rewards: tuple[float, ...]
    solution: Solution


def _trim(
    dzs: list[DemandZone], zone_base: BaseServiceZone, placement: Placement, eps: float
) -> list[DemandZone]:
    srect = service_rect(zone_base, placement)
    min_area = eps * eps
    out: list[DemandZone] = []
    for d in dzs:
        for piece in trim_out(d.rect, srect):
            if area(piece) >= min_area:
                out.append(DemandZone(piece, d.v))
    return out


def _run(instance: Instance, solver: SingleZoneSolver, eps: float) -> GreedyTrace:
    lifted, lifted_base = planar_form(instance.dzs, instance.base)
    current = list(lifted)
    placements: list[Placement] = []
    rewards: list[float] = []
    for j in range(instance.p):
        _, x, y, z = solver(current, instance.qos_for(j), instance.base, instance.eta)
        pl = Placement(x, y, z)
        # Marginal value is re-evaluated at the returned position so the trace
        # stays truthful even if the solver's own reward claim is off.
        rewards.append(single_zone_reward(current, x, y, z, instance.base, instance.eta))
        placements.append(pl)
        current = _trim(current, lifted_base, pl, eps)
    # The claimed value is what the rounds actually collected: each round pays
    # for fresh coverage only, so the sum is a certified lower bound even when
    # a zero-gain round parks its zone somewhere arbitrary.
    return GreedyTrace(tuple(rewards), Solution(tuple(placements), sum(rewards)))


def greedy(instance: Instance, eps: float = EPS) -> GreedyTrace:
    """Place all ``instance.p`` zones greedily using the exact one-zone solver."""

    def exact(dzs, qos, base, eta):
        return solve_single_zone(dzs, qos, base, eta, eps)

    return _run(instance, exact, eps)


def pseudo_greedy(instance: Instance, approx: SingleZoneSolver, eps: float = EPS) -> GreedyTrace:
    """Greedy rounds driven by a caller-supplied single-zone solver.

    ``approx`` must return a feasible ``(reward, x, y, z)`` with ``z`` drawn
    from the menu it is given.  Plugging in the exact solver reproduces
    :func:`greedy` exactly.
    """
    return _run(instance, approx, eps)
