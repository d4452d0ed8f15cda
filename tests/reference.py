"""Reference implementations that only the tests use.

``single_zone_reward`` values one zone on the object path, rectangle by
rectangle; ``dedup_sorted`` is the definition of a candidate grid that
``critical.inner_demand_grid`` computes with numpy.
"""

from typing import Iterable, Sequence

from rectcover.geometry import EPS, area, intersect
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


def dedup_sorted(values: Iterable[float], eps: float = EPS) -> tuple[float, ...]:
    """Sort ``values`` and merge any pair closer than ``eps`` to the smaller one."""
    out: list[float] = []
    for v in sorted(float(v) for v in values):
        if not out or v - out[-1] >= eps:
            out.append(v)
    return tuple(out)
