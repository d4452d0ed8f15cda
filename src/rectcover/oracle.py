"""Brute-force reference solver.

Exhaustively enumerates the finite candidate space that provably contains an
optimum — every scale assignment, every placement order, the first zone of an
order on its scale's demand-edge grid and every later zone on its grid plus
the abutment positions generated by the zones placed before it — and
evaluates the covered reward of every complete assignment.  No search-tree
shortcuts, no bounding, no symmetry reduction: placement orders are
enumerated even where they are redundant.  Candidate arithmetic is written
out locally on purpose so the oracle only shares the reward evaluator with
the real solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from math import perm
from typing import Sequence

from .geometry import EPS
from .model import Dimension, Instance, Placement
from .reward import covered_reward


class OracleSizeError(ValueError):
    """Raised when the estimated enumeration size exceeds the guard."""


@dataclass(frozen=True)
class OracleResult:
    reward: float
    placements: tuple[Placement, ...]
    evaluations: int


def _dedup(values: list[float], eps: float) -> list[float]:
    out: list[float] = []
    for v in sorted(values):
        if not out or v - out[-1] >= eps:
            out.append(v)
    return out


def _grid(instance: Instance, z: float, axis_x: bool, eps: float) -> list[float]:
    # Demand-edge candidates for scale z: flush at the low edge and flush
    # inside the high edge of every demand span.
    unit = instance.base.w0 if axis_x else instance.base.l0
    vals: list[float] = []
    for d in instance.dzs:
        lo = d.rect.x if axis_x else d.rect.y
        extent = d.rect.w if axis_x else d.rect.l
        vals.append(lo)
        vals.append(lo + extent - unit * z)
    return _dedup(vals, eps)


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
    eps: float,
    identity_only: bool,
) -> list[tuple[float, ...]]:
    """All candidate coordinate vectors along one axis for fixed scales."""
    p = instance.p
    unit = instance.base.w0 if axis_x else instance.base.l0
    grids = {z: _grid(instance, z, axis_x, eps) for z in set(z_vec)}
    orders = [tuple(range(p))] if identity_only else list(permutations(range(p)))
    tuples: set[tuple[float, ...]] = set()

    def assign(order: tuple[int, ...], k: int, coords: dict[int, float]) -> None:
        if k == len(order):
            tuples.add(tuple(coords[j] for j in range(p)))
            return
        j = order[k]
        cands = list(grids[z_vec[j]])
        if k > 0:
            fixed = [(coords[i], z_vec[i]) for i in order[:k]]
            cands = _dedup(cands + _abutments(fixed, z_vec[j], unit), eps)
        for c in cands:
            coords[j] = c
            assign(order, k + 1, coords)
        del coords[j]

    for order in orders:
        assign(order, 0, {})
    return sorted(tuples)


def _estimate(instance: Instance, identity_only: bool) -> int:
    n = len(instance.dzs)
    p = instance.p
    orders = 1 if identity_only else perm(p)
    per_axis = orders
    for k in range(p):
        per_axis *= 2 * n + 2 * k
    n_scales = 1
    for j in range(p):
        n_scales *= len(instance.qos_for(j).factors)
    axes = 1 if instance.one_d else 2
    return n_scales * per_axis**axes


def _best(instance: Instance, eps: float, max_evaluations: int, sequences: str) -> OracleResult:
    if sequences not in ("all", "identity"):
        raise ValueError(f"sequences must be 'all' or 'identity', got {sequences!r}")
    identity_only = sequences == "identity"
    if not instance.dzs:
        fallback = tuple(
            Placement(0.0, 0.0, instance.qos_for(j).factors[0]) for j in range(instance.p)
        )
        return OracleResult(0.0, fallback, 0)
    estimate = _estimate(instance, identity_only)
    if estimate > max_evaluations:
        raise OracleSizeError(
            f"estimated {estimate} evaluations exceed the {max_evaluations} guard"
        )
    menus = [instance.qos_for(j).factors for j in range(instance.p)]
    best_reward = -1.0
    best_placements: tuple[Placement, ...] | None = None
    evaluations = 0
    for z_vec in product(*menus):
        x_tuples = _axis_tuples(instance, z_vec, True, eps, identity_only)
        y_tuples = (
            [(0.0,) * instance.p]
            if instance.one_d
            else _axis_tuples(instance, z_vec, False, eps, identity_only)
        )
        for xt in x_tuples:
            for yt in y_tuples:
                placements = tuple(
                    Placement(xt[j], yt[j], z_vec[j]) for j in range(instance.p)
                )
                r = covered_reward(instance.dzs, placements, instance.base, instance.eta, eps)
                evaluations += 1
                if r > best_reward:
                    best_reward = r
                    best_placements = placements
    assert best_placements is not None
    return OracleResult(best_reward, best_placements, evaluations)


def brute_force_2d(
    instance: Instance,
    eps: float = EPS,
    max_evaluations: int = 10**8,
    sequences: str = "all",
) -> OracleResult:
    """Exhaustive reference optimum for a planar instance.

    ``sequences="identity"`` restricts placement orders to 1..p on both axes
    (useful for checking that order enumeration is redundant under a shared
    scale menu).  Raises :class:`OracleSizeError` when the estimated work
    exceeds ``max_evaluations``.
    """
    if instance.dimension is not Dimension.TWO_D:
        raise ValueError("brute_force_2d needs a planar instance")
    return _best(instance, eps, max_evaluations, sequences)


def brute_force_1d(
    instance: Instance,
    eps: float = EPS,
    max_evaluations: int = 10**8,
    sequences: str = "all",
) -> OracleResult:
    """Exhaustive reference optimum for a line instance."""
    if instance.dimension is not Dimension.ONE_D:
        raise ValueError("brute_force_1d needs a line instance")
    return _best(instance, eps, max_evaluations, sequences)
