"""Brute-force reference solver.

Exhaustively enumerates the finite candidate space that provably contains an
optimum — every scale assignment, every placement order, the first zone of an
order on its scale's demand-edge grid and every later zone on its grid plus
the abutment positions generated by the zones placed before it — and
evaluates the covered reward of every complete assignment.  No search-tree
shortcuts, no bounding, no symmetry reduction: placement orders are
enumerated even where they are redundant.  Candidate arithmetic is written
out locally on purpose so the oracle only shares the reward evaluator with
the real solvers.  Its tolerance is its own: candidate coordinates closer
than :data:`RTOL` times the largest magnitude among them are merged, and so
are exact duplicates, so the enumeration is the same in any units.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, permutations, product

from .model import Dimension, Instance, Placement
from .reward import covered_reward


#: The oracle's relative tolerance for merging candidate coordinates: two
#: values closer than it times the largest magnitude among them are one.
#: The solvers derive theirs from the data in their own code (``bnb``
#: module docstring, Tolerances).
RTOL = 1e-12


class OracleSizeError(ValueError):
    """Raised when the estimated enumeration size exceeds the guard."""


@dataclass(frozen=True)
class OracleResult:
    reward: float
    placements: tuple[Placement, ...]
    evaluations: int


def _dedup(values: list[float]) -> list[float]:
    ordered = sorted(values)
    tol = RTOL * max(abs(ordered[0]), abs(ordered[-1])) if ordered else 0.0
    out: list[float] = []
    for v in ordered:
        if not out or (v != out[-1] and v - out[-1] >= tol):
            out.append(v)
    return out


def _grid(instance: Instance, z: float, axis_x: bool) -> list[float]:
    # Demand-edge candidates for scale z: flush at the low edge and flush
    # inside the high edge of every demand span.
    unit = instance.base.w0 if axis_x else instance.base.l0
    vals: list[float] = []
    for d in instance.dzs:
        lo = d.rect.x if axis_x else d.rect.y
        extent = d.rect.w if axis_x else d.rect.l
        vals.append(lo)
        vals.append(lo + extent - unit * z)
    return _dedup(vals)


def _abutments(fixed: list[tuple[float, float]], z: float, unit: float) -> list[float]:
    # Positions putting the new zone snugly against either side of a fixed one.
    vals: list[float] = []
    for coord, owner_scale in fixed:
        vals.append(coord - unit * z)
        vals.append(coord + unit * owner_scale)
    return vals


def _axis_tuples(
    instance: Instance,
    z_vec: tuple[float, ...],
    axis_x: bool,
) -> list[tuple[float, ...]]:
    """All candidate coordinate vectors along one axis for fixed scales."""
    p = instance.p
    unit = instance.base.w0 if axis_x else instance.base.l0
    grids = {z: _grid(instance, z, axis_x) for z in set(z_vec)}
    tuples: set[tuple[float, ...]] = set()

    def assign(order: tuple[int, ...], k: int, coords: dict[int, float]) -> None:
        if k == len(order):
            tuples.add(tuple(coords[j] for j in range(p)))
            return
        j = order[k]
        cands = list(grids[z_vec[j]])
        if k > 0:
            fixed = [(coords[i], z_vec[i]) for i in order[:k]]
            cands = _dedup(cands + _abutments(fixed, z_vec[j], unit))
        for c in cands:
            coords[j] = c
            assign(order, k + 1, coords)
        del coords[j]

    for order in permutations(range(p)):
        assign(order, 0, {})
    return sorted(tuples)


def _estimate(instance: Instance, limit: int) -> int:
    """The enumeration's size estimate, or ``limit + 1`` once it passes ``limit``.

    The estimate is the product of the menu lengths and, per axis, of
    ``(k + 1) * (2n + 2k)`` for k < p: the placement orders times each zone's
    demand-edge and abutment candidates.  No factor is below 1, so the product
    is multiplied out lazily and stops as soon as it passes ``limit``; the
    axis factors, which are at least 2, come first, so a huge ``p`` stops
    within a few dozen steps.
    """
    n = len(instance.dzs)
    axes = 1 if instance.one_d else 2
    per_axis = ((k + 1) * (2 * n + 2 * k) for _ in range(axes) for k in range(instance.p))
    menus = (len(instance.qos_for(j).factors) for j in range(instance.p))
    estimate = 1
    for factor in chain(per_axis, menus):
        estimate *= factor
        if estimate > limit:
            return limit + 1
    return estimate


def _best(instance: Instance, max_evaluations: int) -> OracleResult:
    if not instance.dzs:
        fallback = tuple(
            Placement(0.0, 0.0, instance.qos_for(j).factors[0]) for j in range(instance.p)
        )
        return OracleResult(0.0, fallback, 0)
    if _estimate(instance, max_evaluations) > max_evaluations:
        raise OracleSizeError(f"more than {max_evaluations} evaluations estimated")
    menus = [instance.qos_for(j).factors for j in range(instance.p)]
    best_reward = -1.0
    best_placements: tuple[Placement, ...] | None = None
    evaluations = 0
    for z_vec in product(*menus):
        x_tuples = _axis_tuples(instance, z_vec, True)
        y_tuples = [(0.0,) * instance.p] if instance.one_d else _axis_tuples(instance, z_vec, False)
        for xt in x_tuples:
            for yt in y_tuples:
                placements = tuple(
                    Placement(xt[j], yt[j], z_vec[j]) for j in range(instance.p)
                )
                r = covered_reward(instance.dzs, placements, instance.base, instance.eta)
                evaluations += 1
                if r > best_reward:
                    best_reward = r
                    best_placements = placements
    assert best_placements is not None
    return OracleResult(best_reward, best_placements, evaluations)


def brute_force_2d(instance: Instance, max_evaluations: int = 10**8) -> OracleResult:
    """Exhaustive reference optimum for a planar instance.

    Raises :class:`OracleSizeError` when the estimated work exceeds
    ``max_evaluations``.
    """
    if instance.dimension is not Dimension.TWO_D:
        raise ValueError("brute_force_2d needs a planar instance")
    return _best(instance, max_evaluations)


def brute_force_1d(instance: Instance, max_evaluations: int = 10**8) -> OracleResult:
    """Exhaustive reference optimum for a line instance."""
    if instance.dimension is not Dimension.ONE_D:
        raise ValueError("brute_force_1d needs a line instance")
    return _best(instance, max_evaluations)
