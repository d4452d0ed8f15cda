"""Reference implementations that only the tests use.

``single_zone_reward`` values one zone on the object path, rectangle by
rectangle; ``dedup_sorted`` is the definition of a candidate grid that
``critical.inner_demand_grid`` computes with numpy.
"""

from typing import Iterable, Sequence

from rectcover.critical import COORD_RTOL
from rectcover.geometry import area, intersect
from rectcover.model import (
    BaseServiceZone,
    DemandZone,
    Eta,
    Placement,
    planar_form,
    reward_rate,
    service_rect,
)


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
