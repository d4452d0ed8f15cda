"""Random instance generation.

Demand zones cluster around a few concentration centres inside a square
region, with a small fraction placed free-form.  All draws come from one
seeded 64-bit generator (PCG64) in a fixed, documented order so instances are
reproducible and extending ``n`` keeps the existing prefix of demand zones:

1. for each concentration centre: x, then y (x only on a line);
2. per demand zone, grouped: category (one uniform), position (x then y),
   dimensions (w then l), rate — with y/l draws skipped on a line.

Anchored coordinates are normal around their centre and deliberately not
clamped to the region, so demand may spill outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Rect
from .model import (
    BaseServiceZone,
    DemandZone,
    Dimension,
    Eta,
    Instance,
    QosSet,
)

#: Concentration centres per instance.
NUM_CONCENTRATIONS = 3
#: Chance that a demand zone is anchored at one given centre; the rest, 1 -
#: ``NUM_CONCENTRATIONS * ANCHOR_PROB`` = 0.07, places it free-form.
ANCHOR_PROB = 0.31
#: A demand zone's rate is drawn uniformly from this range.
RATE_RANGE = (1.0, 10.0)


@dataclass(frozen=True)
class GenConfig:
    """Generation parameters.

    ``m`` is the number of shared scale factors ``1..m`` (planar only); line
    instances give zone ``j`` the fixed scale ``j`` and ignore ``m``.  The
    settings no caller varies are module constants: each demand zone is
    anchored at one of :data:`NUM_CONCENTRATIONS` centres with chance
    :data:`ANCHOR_PROB` each, else, with the remaining chance 0.07, placed
    free-form, and its rate is drawn from :data:`RATE_RANGE`.
    """

    seed: int = 0
    n: int = 10
    p: int = 2
    m: int = 2
    region: float = 1000.0
    r: float = 270.0
    dim_range: tuple[float, float] = (5.0, 50.0)
    base_dims: tuple[float, float] = (50.0, 40.0)
    dimension: Dimension = Dimension.TWO_D

    def __post_init__(self) -> None:
        if self.n < 0 or self.p < 1 or self.m < 1:
            raise ValueError("n must be >= 0, p and m >= 1")
        if not (0 < self.region < math.inf and 0 < self.r < math.inf):
            raise ValueError("region and r must be finite and positive")
        if not (0 < self.dim_range[0] <= self.dim_range[1]):
            raise ValueError(f"bad dim_range {self.dim_range}")
        if self.base_dims[0] <= 0 or self.base_dims[1] <= 0:
            raise ValueError(f"bad base_dims {self.base_dims}")


def _category(rng: np.random.Generator) -> int:
    """Index of the chosen concentration centre, or -1 for free placement."""
    u = rng.random()
    k = int(u / ANCHOR_PROB)
    return k if k < NUM_CONCENTRATIONS else -1


def _draw(config: GenConfig, plane: bool) -> tuple[DemandZone, ...]:
    """Demand zones in the documented draw order; a line skips every y and l draw."""
    rng = np.random.default_rng(config.seed)
    std = config.r / 3.0
    centers = [
        (rng.uniform(0.0, config.region), rng.uniform(0.0, config.region) if plane else 0.0)
        for _ in range(NUM_CONCENTRATIONS)
    ]
    dzs = []
    for _ in range(config.n):
        k = _category(rng)
        if k >= 0:
            x = rng.normal(centers[k][0], std)
            y = rng.normal(centers[k][1], std) if plane else 0.0
        else:
            x = rng.uniform(0.0, config.region)
            y = rng.uniform(0.0, config.region) if plane else 0.0
        w = rng.uniform(*config.dim_range)
        l = rng.uniform(*config.dim_range) if plane else 0.0
        v = rng.uniform(*RATE_RANGE)
        dzs.append(DemandZone(Rect(x, y, w, l), v))
    return tuple(dzs)


def generate(config: GenConfig) -> Instance:
    """Planar instance with a shared scale menu ``{1, ..., m}``."""
    if config.dimension is not Dimension.TWO_D:
        raise ValueError("generate() builds planar instances; use generate_1d()")
    return Instance(
        dzs=_draw(config, plane=True),
        base=BaseServiceZone(*config.base_dims),
        p=config.p,
        qos=QosSet(tuple(float(k) for k in range(1, config.m + 1))),
        eta=Eta.LINEAR,
        dimension=Dimension.TWO_D,
    )


def generate_1d(config: GenConfig) -> Instance:
    """Line instance: same pipeline projected onto the x axis.

    Demand segments keep their drawn widths but sit on the axis (``y = 0``,
    zero height); the base keeps its width with zero length; zone ``j`` gets
    the fixed scale ``j`` (1-based).
    """
    if config.dimension is not Dimension.ONE_D:
        raise ValueError("generate_1d() needs config.dimension == ONE_D")
    return Instance(
        dzs=_draw(config, plane=False),
        base=BaseServiceZone(config.base_dims[0], 0.0),
        p=config.p,
        qos=tuple(QosSet((float(j),)) for j in range(1, config.p + 1)),
        eta=Eta.LINEAR,
        dimension=Dimension.ONE_D,
    )
