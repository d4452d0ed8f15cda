"""Shared test helpers.

``square_instance`` is the hand-checkable micro case used all over the suite:
a single 4x4 demand square paying 1 per unit area, a 2x2 base footprint, two
zones to place, and a {1, 2} scale menu.  Every number asserted against it was
worked out by hand and cross-checked with the brute-force reference.

The ``small_2d`` / ``small_1d`` helpers produce generated instances shrunk to
a 100x100 region with a (10, 8) base so the brute-force reference stays
tractable.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

from rectcover import bnb
from rectcover import (
    BaseServiceZone,
    DemandZone,
    Dimension,
    GenConfig,
    Instance,
    QosSet,
    Rect,
    generate,
    generate_1d,
)
from rectcover.geometry import EPS


def square_instance(m: int = 2, p: int = 2) -> Instance:
    return Instance(
        dzs=(DemandZone(Rect(0.0, 0.0, 4.0, 4.0), 1.0),),
        base=BaseServiceZone(2.0, 2.0),
        p=p,
        qos=QosSet(tuple(float(k) for k in range(1, m + 1))),
    )


def small_2d(seed: int, n: int, m: int, p: int = 2) -> Instance:
    return generate(
        GenConfig(
            seed=seed,
            n=n,
            p=p,
            m=m,
            region=100.0,
            r=27.0,
            dim_range=(1.0, 10.0),
            base_dims=(10.0, 8.0),
        )
    )


def micro_line() -> Instance:
    """One segment [0, 4] paying 1 per unit length; zone widths 2 and 4."""
    return Instance(
        dzs=(DemandZone(Rect(0.0, 0.0, 4.0, 0.0), 1.0),),
        base=BaseServiceZone(2.0, 0.0),
        p=2,
        qos=(QosSet((1.0,)), QosSet((2.0,))),
        dimension=Dimension.ONE_D,
    )


def small_1d(seed: int, n: int, p: int) -> Instance:
    # base_dims[1] is unused on the line but the config validates both entries,
    # so a harmless positive value is passed.
    return generate_1d(
        GenConfig(
            seed=seed,
            n=n,
            p=p,
            m=1,
            region=100.0,
            r=27.0,
            dim_range=(1.0, 10.0),
            base_dims=(10.0, 8.0),
            dimension=Dimension.ONE_D,
        )
    )


def candidate_values(s, grid):
    """The coordinates a search node's candidate set ``(lo, hi, v)`` on ``grid`` stands for."""
    lo, hi, v = s
    return tuple(grid[lo:hi]) if v is None else (v,)


def reference_indices(candidates, grid):
    """Reward-matrix indices of a candidate set by exact grid membership.

    An off-grid singleton takes the grid value within ``EPS`` of it, else its
    bracketing grid values (just one beyond either end of the grid).
    """
    if len(candidates) == 1 and candidates[0] not in grid:
        v = candidates[0]
        near = [k for k, g in enumerate(grid) if abs(g - v) < EPS]
        if near:
            return near
        below = [k for k, g in enumerate(grid) if g < v]
        above = [k for k, g in enumerate(grid) if g > v]
        return below[-1:] + above[:1]
    return [grid.index(v) for v in candidates]


def tick_search_clock(monkeypatch):
    """Make the exact search's clock advance one second per reading.

    The driver reads the clock once before and once after the greedy seed,
    once per popped node and once per incumbent update, so a time limit of
    ``k`` seconds stops the search after a fixed number of nodes.
    """
    ticks = itertools.count()
    monkeypatch.setattr(bnb, "time", SimpleNamespace(perf_counter=lambda: float(next(ticks))))
