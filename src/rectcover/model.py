"""Problem data model.

A problem instance places ``p`` rectangular service zones anywhere in the
plane to cover weighted rectangular demand zones.  Every service zone is a
scaled copy of a common base shape: picking scale ``z`` from a finite menu
multiplies both base dimensions by ``z`` and divides the per-area reward rate
by ``eta(z)``.  Coverage is partial — a demand zone pays for exactly the part
of its area that is covered, and any doubly-covered point pays at the best
(smallest-scale) covering zone only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from .geometry import Rect


class Eta(Enum):
    """Rate-decay function applied to a scale factor.

    ``LINEAR`` divides the reward rate by the scale itself, so doubling the
    footprint dimensions halves the per-area payout.
    """

    LINEAR = "linear"

    def apply(self, z: float) -> float:
        """Value of the decay function at scale ``z``."""
        if self is Eta.LINEAR:
            return z
        raise ValueError(f"unhandled eta kind: {self!r}")


class Dimension(Enum):
    """Whether the instance lives in the plane or on a line."""

    TWO_D = "2d"
    ONE_D = "1d"


@dataclass(frozen=True)
class DemandZone:
    """A rectangular demand region paying ``v`` per unit area covered."""

    rect: Rect
    v: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.v) and self.v > 0):
            raise ValueError(f"demand rate must be positive and finite, got {self.v!r}")

    @cached_property
    def box(self) -> tuple[float, float, float, float, float]:
        """``(x, y, x2, y2, v)``: the rectangle in bounds form plus the rate, built once."""
        r = self.rect
        return (r.x, r.y, r.x2, r.y2, self.v)


@dataclass(frozen=True)
class BaseServiceZone:
    """Unscaled service-zone shape; a scale ``z`` yields a ``(z*w0, z*l0)`` footprint.

    ``l0 == 0`` marks the one-dimensional variant where zones are segments.
    """

    w0: float
    l0: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.w0) and self.w0 > 0):
            raise ValueError(f"base width must be positive, got {self.w0!r}")
        if not (math.isfinite(self.l0) and self.l0 >= 0):
            raise ValueError(f"base length must be non-negative, got {self.l0!r}")


@dataclass(frozen=True)
class QosSet:
    """Menu of admissible scale factors, strictly increasing and all >= 1."""

    factors: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("QosSet needs at least one factor")
        for z in self.factors:
            if not (math.isfinite(z) and z >= 1):
                raise ValueError(f"scale factors must be >= 1, got {z!r}")
        if any(b <= a for a, b in zip(self.factors, self.factors[1:])):
            raise ValueError("scale factors must be strictly increasing")

    @property
    def min_factor(self) -> float:
        return self.factors[0]


@dataclass(frozen=True)
class Placement:
    """A service zone fixed at lower-left corner ``(x, y)`` with scale ``z``."""

    x: float
    y: float
    z: float


@dataclass(frozen=True)
class Solution:
    """A complete assignment of all ``p`` placements and its total reward."""

    placements: tuple[Placement, ...]
    reward: float


def reward_rate(v: float, z: float, eta: Eta) -> float:
    """Per-area payout of a scale-``z`` zone over demand paying ``v``."""
    return v / eta.apply(z)


def service_rect(base: BaseServiceZone, placement: Placement) -> Rect:
    """Footprint rectangle of ``placement`` for the given base shape."""
    return Rect(placement.x, placement.y, base.w0 * placement.z, base.l0 * placement.z)


def planar_form(
    dzs: Sequence[DemandZone], base: BaseServiceZone
) -> tuple[tuple[DemandZone, ...], BaseServiceZone]:
    """Return a planar equivalent of ``(dzs, base)``.

    Two-dimensional data passes through unchanged.  One-dimensional data
    (``base.l0 == 0``) is lifted: every demand segment becomes a unit-height
    box at ``y = 0`` and the base gets unit length, which makes every overlap
    height exactly 1 and so turns areas into covered lengths.  Lifting is
    idempotent.
    """
    if base.l0 > 0:
        return tuple(dzs), base
    lifted = tuple(
        DemandZone(Rect(d.rect.x, 0.0, d.rect.w, 1.0), d.v) for d in dzs
    )
    return lifted, BaseServiceZone(base.w0, 1.0)


def demand_rows(dzs: Sequence[DemandZone] | np.ndarray) -> np.ndarray:
    """Demand zones as one ``(n, 5)`` float array of rows ``(x, y, w, l, v)``.

    Rows are in rect form, as :class:`Rect` stores a rectangle: a far edge is
    recomputed as ``x + w``, exactly as ``Rect.x2`` does, so every value
    derived from a row equals the one derived from its ``DemandZone``.  (In
    bounds form, ``x1 + (x2 - x1)`` need not give back ``x2``.)  An array
    passes through unchanged.
    """
    if isinstance(dzs, np.ndarray):
        return dzs
    rows = [(d.rect.x, d.rect.y, d.rect.w, d.rect.l, d.v) for d in dzs]
    return np.array(rows, dtype=float).reshape(-1, 5)


def demand_zones(rows: np.ndarray) -> tuple[DemandZone, ...]:
    """The :class:`DemandZone` of every row of a :func:`demand_rows` array."""
    return tuple(DemandZone(Rect(x, y, w, l), v) for x, y, w, l, v in rows.tolist())


@dataclass(frozen=True)
class Instance:
    """A full problem instance.

    ``qos`` is either a single :class:`QosSet` shared by every service zone
    or a tuple with one :class:`QosSet` per zone.  One-dimensional instances
    must use per-zone singleton menus and have all demand segments on the
    x-axis (``y == 0``, ``l == 0``).  Every demand zone's far edge must
    differ from its near edge in floating point: ``x + w != x``, and in the
    plane ``y + l != y``.  Its far edges, and each of its edges moved by the
    largest footprint (``w0 * z_max``, ``l0 * z_max``), must be finite, so
    that no candidate position or service edge overflows.
    """

    dzs: tuple[DemandZone, ...]
    base: BaseServiceZone
    p: int
    qos: QosSet | tuple[QosSet, ...]
    eta: Eta = Eta.LINEAR
    dimension: Dimension = Dimension.TWO_D

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError(f"need at least one service zone, got p={self.p}")
        if isinstance(self.qos, tuple):
            if len(self.qos) != self.p:
                raise ValueError(f"per-zone qos list has {len(self.qos)} entries for p={self.p}")
        one_d = self.dimension is Dimension.ONE_D
        if one_d:
            if self.base.l0 != 0:
                raise ValueError("1d instances need a zero-length base (l0 == 0)")
            if not isinstance(self.qos, tuple) or any(len(q.factors) != 1 for q in self.qos):
                raise ValueError("1d instances need one single-scale menu per service zone")
        elif self.base.l0 <= 0:
            raise ValueError("2d instances need a positive-length base")
        z_max = self.scale_values()[-1]
        reach_x, reach_y = self.base.w0 * z_max, self.base.l0 * z_max
        for i, d in enumerate(self.dzs):
            r = d.rect
            if one_d and (r.l != 0 or r.y != 0):
                raise ValueError(f"dz[{i}] is not a segment on the x-axis")
            # An extent that is 0, or too small for its far edge to differ
            # from its near edge in floating point, leaves nothing to cover.
            if r.x2 == r.x or (not one_d and r.y2 == r.y):
                axes = "x + w == x" if one_d else "x + w == x or y + l == y"
                raise ValueError(f"dz[{i}] must have extents that do not vanish ({axes}), got {r}")
            reach = (max(abs(r.x), abs(r.x2)) + reach_x, max(abs(r.y), abs(r.y2)) + reach_y)
            if not all(map(math.isfinite, reach)):
                raise ValueError(f"dz[{i}] overflows: an edge plus the largest footprint is not finite, got {r}")

    @property
    def one_d(self) -> bool:
        return self.dimension is Dimension.ONE_D

    @cached_property
    def planar(self) -> tuple[tuple[DemandZone, ...], BaseServiceZone]:
        """``(dzs, base)`` through :func:`planar_form`, lifted once per instance."""
        return planar_form(self.dzs, self.base)

    def qos_for(self, j: int) -> QosSet:
        """Scale menu of service zone ``j`` (0-based)."""
        if isinstance(self.qos, QosSet):
            return self.qos
        return self.qos[j]

    def scale_values(self) -> tuple[float, ...]:
        """Sorted distinct scale factors appearing anywhere in the instance."""
        if isinstance(self.qos, QosSet):
            return self.qos.factors
        return tuple(sorted({z for q in self.qos for z in q.factors}))
