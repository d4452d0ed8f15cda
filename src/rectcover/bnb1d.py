"""Exact solver for the line variant.

Segments replace rectangles and every zone has a single admissible scale, so
there is no scale step and no y axis.  Because the zones are heterogeneous
(distinct fixed scales), placement order matters; the tree explores orders
explicitly:

* the root spawns one first-level subtree per zone; subtree ``j`` settles
  zone ``j`` first and remembers ``j`` as its first-level index;
* inside a subtree, a zone with more than one candidate is narrowed by the
  same gap-splitting used in the plane;
* once the current zone is down to one candidate, every still-open zone
  ``l`` becomes a branching choice: one child per abutment position generated
  by the already-fixed zones, plus — only when ``l`` exceeds the subtree's
  first-level index, which stops two subtrees from re-deriving the same
  grid-only assignments — one child keeping zone ``l``'s whole grid.

The search loop is the planar solver's (``bnb.branch_and_bound``), run with
this module's root, bound, branching rule and leaf.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Mapping, NamedTuple

from .geometry import EPS, Axis
from .critical import abutment_values
from .model import Dimension, Instance, Placement, Solution
from .reward import ResidualDemand, RewardMatrix, covered_reward
from .bnb import (
    CandidateGrids,
    CandidateSet,
    SolverConfig,
    SolverStats,
    _is_single,
    _pin,
    _replace_at,
    _value,
    branch_and_bound,
    residual_bound,
)


class Node1D(NamedTuple):
    """Per-zone x candidate sets plus branching bookkeeping.

    ``x_sets[j]`` is zone ``j``'s ``bnb.CandidateSet`` on its scale's grid
    (``CandidateGrids.x_by_scale``).  An abutment value ``v`` may equal a grid
    value; it is the placement coordinate either way.  ``bsfl`` is the
    first-level zone index of the enclosing subtree; the root (which only
    dispatches to first-level subtrees) carries ``bsfl == -1``.
    """

    x_sets: tuple[CandidateSet, ...]
    bs: int = 0
    bsfl: int = -1


def is_leaf_1d(node: Node1D) -> bool:
    return node.bsfl >= 0 and all(map(_is_single, node.x_sets))


def leaf_placements_1d(
    node: Node1D, matrices: Mapping[float, RewardMatrix], instance: Instance
) -> tuple[Placement, ...]:
    """A leaf's placements, its grid positions read from its scales' matrices."""
    return tuple(
        Placement(_value(s, matrices[q.factors[0]].xs.values), 0.0, q.factors[0])
        for s, q in zip(node.x_sets, instance.qos)
    )


def branch_1d(
    node: Node1D, instance: Instance, grids: CandidateGrids, config: SolverConfig
) -> list[Node1D]:
    """Children of a non-leaf node, in exploration order."""
    if node.bsfl < 0:
        return [Node1D(node.x_sets, j, j) for j in range(instance.p)]
    j = node.bs
    scale_of = lambda k: instance.qos_for(k).factors[0]
    grid_of = lambda k: grids.x_by_scale[scale_of(k)]
    if not _is_single(node.x_sets[j]):
        parts = grids.split(scale_of(j), Axis.X, node.x_sets[j], config.beta)
        return [Node1D(_replace_at(node.x_sets, j, part), j, node.bsfl) for part in parts]
    # Current zone settled: branch on which open zone to place next.
    fixed = [(_value(s, grid_of(k)), scale_of(k)) for k, s in enumerate(node.x_sets) if _is_single(s)]
    full = config.scv_mode == "full"
    eps = config.epsilon
    children: list[Node1D] = []
    for l, s in enumerate(node.x_sets):
        if _is_single(s):
            continue
        for v in abutment_values(fixed, scale_of(l), instance.base, Axis.X, full, eps=eps):
            children.append(Node1D(_replace_at(node.x_sets, l, _pin(v, grid_of(l), eps)), l, node.bsfl))
        if l > node.bsfl:
            children.append(Node1D(node.x_sets, l, node.bsfl))
    return children


def upper_bound_1d(
    node: Node1D,
    matrices: Mapping[float, RewardMatrix],
    instance: Instance,
    eps: float = EPS,
    floor: float = -math.inf,
    cache: dict[tuple, ResidualDemand] | None = None,
) -> float:
    """Optimistic value below ``node``: sum of per-zone best isolated rewards, or less.

    Each zone contributes the maximum of ``entries[xlo:xhi, 0]`` of its
    scale's reward matrix over its candidate set ``(xlo, xhi, _)``, read
    through the memo ``RewardMatrix.block_max`` (see ``bnb.upper_bound``).  A
    node at or below ``floor + eps`` on that sum returns it.  A leaf above it
    is evaluated exactly, on the demand and base lifted once per instance
    (``Instance.planar``).  Any other node below the root with some zone
    placed returns the smaller of the sum and ``bnb.residual_bound``, taken
    on x with the lifted zones' y fixed at 0, so that every piece's overlap
    on y is 1.  With the default ``floor`` every leaf is exact.
    """
    total = 0.0
    for xs, q in zip(node.x_sets, instance.qos):
        total += matrices[q.factors[0]].block_max(xs[0], xs[1], 0, 1)
    if total <= floor + eps or node.bsfl < 0:
        return total
    placed = []
    opened = []
    for xs, q in zip(node.x_sets, instance.qos):
        z = q.factors[0]
        grid = matrices[z].xs.values
        if _is_single(xs):
            placed.append((z, _value(xs, grid), 0.0))
        else:
            opened.append((z, 0.0, grid, xs))
    if not opened:
        dzs, base = instance.planar
        return covered_reward(dzs, leaf_placements_1d(node, matrices, instance), base, instance.eta, eps)
    return min(total, residual_bound(placed, opened, Axis.X, instance, eps, cache))


def root_node_1d(instance: Instance, grids: CandidateGrids) -> Node1D:
    """Every zone on its own scale's whole grid; dispatches first-level subtrees."""
    scales = [instance.qos_for(j).factors[0] for j in range(instance.p)]
    return Node1D(x_sets=tuple((0, len(grids.x_by_scale[z]), None) for z in scales))


def solve_1d(instance: Instance, config: SolverConfig | None = None) -> tuple[Solution, SolverStats]:
    """Exact solve of a line instance (per-zone fixed scales)."""
    if instance.dimension is not Dimension.ONE_D:
        raise ValueError("solve_1d() handles line instances; use solve() in the plane")
    return branch_and_bound(
        instance,
        config or SolverConfig(),
        root_node_1d,
        upper_bound_1d,
        branch_1d,
        is_leaf_1d,
        partial(leaf_placements_1d, instance=instance),
    )
