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


@dataclass(frozen=True)
class GenConfig:
    """Generation parameters.

    ``anchor_prob`` applies to each concentration centre separately;
    ``num_concentrations * anchor_prob + free_prob`` must equal 1.  ``m`` is
    the number of shared scale factors ``1..m`` (planar only); line instances
    give zone ``j`` the fixed scale ``j`` and ignore ``m``.
    """

    seed: int = 0
    n: int = 10
    p: int = 2
    m: int = 2
    region: float = 1000.0
    r: float = 270.0
    num_concentrations: int = 3
    anchor_prob: float = 0.31
    free_prob: float = 0.07
    dim_range: tuple[float, float] = (5.0, 50.0)
    rate_range: tuple[float, float] = (1.0, 10.0)
    base_dims: tuple[float, float] = (50.0, 40.0)
    dimension: Dimension = Dimension.TWO_D

    def __post_init__(self) -> None:
        if self.n < 0 or self.p < 1 or self.m < 1:
            raise ValueError("n must be >= 0, p and m >= 1")
        if not (0 < self.region < math.inf and 0 < self.r < math.inf) or self.num_concentrations < 1:
            raise ValueError("region and r must be finite and positive, num_concentrations >= 1")
        if not (0 < self.dim_range[0] <= self.dim_range[1]):
            raise ValueError(f"bad dim_range {self.dim_range}")
        if not (0 < self.rate_range[0] <= self.rate_range[1]):
            raise ValueError(f"bad rate_range {self.rate_range}")
        if self.base_dims[0] <= 0 or self.base_dims[1] <= 0:
            raise ValueError(f"bad base_dims {self.base_dims}")
        total = self.num_concentrations * self.anchor_prob + self.free_prob
        if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-9):
            raise ValueError(f"category probabilities sum to {total}, expected 1")


def _category(rng: np.random.Generator, config: GenConfig) -> int:
    """Index of the chosen concentration centre, or -1 for free placement."""
    u = rng.random()
    k = int(u / config.anchor_prob)
    return k if k < config.num_concentrations else -1


def generate(config: GenConfig) -> Instance:
    """Planar instance with a shared scale menu ``{1, ..., m}``."""
    if config.dimension is not Dimension.TWO_D:
        raise ValueError("generate() builds planar instances; use generate_1d()")
    rng = np.random.default_rng(config.seed)
    std = config.r / 3.0
    centers = [
        (rng.uniform(0.0, config.region), rng.uniform(0.0, config.region))
        for _ in range(config.num_concentrations)
    ]
    dzs = []
    for _ in range(config.n):
        k = _category(rng, config)
        if k >= 0:
            x = rng.normal(centers[k][0], std)
            y = rng.normal(centers[k][1], std)
        else:
            x = rng.uniform(0.0, config.region)
            y = rng.uniform(0.0, config.region)
        w = rng.uniform(*config.dim_range)
        l = rng.uniform(*config.dim_range)
        v = rng.uniform(*config.rate_range)
        dzs.append(DemandZone(Rect(x, y, w, l), v))
    return Instance(
        dzs=tuple(dzs),
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
    rng = np.random.default_rng(config.seed)
    std = config.r / 3.0
    centers = [rng.uniform(0.0, config.region) for _ in range(config.num_concentrations)]
    dzs = []
    for _ in range(config.n):
        k = _category(rng, config)
        if k >= 0:
            x = rng.normal(centers[k], std)
        else:
            x = rng.uniform(0.0, config.region)
        w = rng.uniform(*config.dim_range)
        v = rng.uniform(*config.rate_range)
        dzs.append(DemandZone(Rect(x, 0.0, w, 0.0), v))
    return Instance(
        dzs=tuple(dzs),
        base=BaseServiceZone(config.base_dims[0], 0.0),
        p=config.p,
        qos=tuple(QosSet((float(j),)) for j in range(1, config.p + 1)),
        eta=Eta.LINEAR,
        dimension=Dimension.ONE_D,
    )
