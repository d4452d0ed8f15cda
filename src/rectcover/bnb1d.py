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
this module's root and branching rule.  Its bound, leaf test and leaf
placements (``bnb.upper_bound``, ``bnb.is_leaf``, ``bnb.leaf_placements``)
read a line node as a planar one whose every y set is fixed at 0: the
Lagrangian bound is fitted at the root, where each zone takes the maximum
of its own scale's matrix, the residual bound runs on x below the root, and
a leaf is evaluated on the demand lifted once per instance
(``Instance.planar``).
"""

from __future__ import annotations

from typing import NamedTuple

from .geometry import Axis
from .critical import abutment_values
from .model import Dimension, Instance, Solution
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
    upper_bound,
)

#: The bound is ``bnb.upper_bound``; this name stays for the benchmark's tracer.
upper_bound_1d = upper_bound


class Node1D(NamedTuple):
    """Per-zone candidate sets and fixed scales plus branching bookkeeping.

    ``x_sets[j]`` is zone ``j``'s ``bnb.CandidateSet`` on the grid of its
    scale ``z_vec[j]`` (``CandidateGrids.matrices[z_vec[j]].xs``).  An
    abutment value ``v`` may equal a grid value; it is the placement
    coordinate either way.
    ``y_sets[j]`` is ``(0, 1, None)``, the single y value 0 of a line
    matrix.  ``bs`` is the zone being narrowed and ``bsfl`` the first-level
    zone index of the enclosing subtree; the root, which only dispatches to
    first-level subtrees and is never a leaf, carries ``bs == bsfl == -1``.
    """

    x_sets: tuple[CandidateSet, ...]
    y_sets: tuple[CandidateSet, ...]
    z_vec: tuple[float, ...]
    bs: int = -1
    bsfl: int = -1

    @property
    def residual_axis(self) -> Axis | None:
        """The axis the residual bound runs on: x below the root, None at it."""
        return Axis.X if self.bs >= 0 else None


def branch_1d(
    node: Node1D, instance: Instance, grids: CandidateGrids, config: SolverConfig
) -> list[Node1D]:
    """Children of a non-leaf node, in exploration order."""
    x_sets, y_sets, z_vec = node.x_sets, node.y_sets, node.z_vec
    if node.bs < 0:
        return [Node1D(x_sets, y_sets, z_vec, j, j) for j in range(instance.p)]
    j = node.bs
    if not _is_single(x_sets[j]):
        parts = grids.split(z_vec[j], Axis.X, x_sets[j], config.beta)
        return [Node1D(_replace_at(x_sets, j, part), y_sets, z_vec, j, node.bsfl) for part in parts]
    # Current zone settled: branch on which open zone to place next.
    matrices = grids.matrices
    fixed = [(_value(s, matrices[z].xs.values), z) for s, z in zip(x_sets, z_vec) if _is_single(s)]
    full = config.scv_mode == "full"
    eps = config.epsilon
    children: list[Node1D] = []
    for l, (s, z) in enumerate(zip(x_sets, z_vec)):
        if _is_single(s):
            continue
        grid = matrices[z].xs.values
        for v in abutment_values(fixed, z, instance.base, Axis.X, full, eps=eps):
            children.append(Node1D(_replace_at(x_sets, l, _pin(v, grid, eps)), y_sets, z_vec, l, node.bsfl))
        if l > node.bsfl:
            children.append(Node1D(x_sets, y_sets, z_vec, l, node.bsfl))
    return children


def root_node_1d(instance: Instance, grids: CandidateGrids) -> Node1D:
    """Every zone at its scale on its whole grid; dispatches first-level subtrees."""
    z_vec = tuple(q.factors[0] for q in instance.qos)
    x_sets = tuple((0, len(grids.matrices[z].xs), None) for z in z_vec)
    return Node1D(x_sets, ((0, 1, None),) * instance.p, z_vec)


def solve_1d(instance: Instance, config: SolverConfig | None = None) -> tuple[Solution, SolverStats]:
    """Exact solve of a line instance (per-zone fixed scales)."""
    if instance.dimension is not Dimension.ONE_D:
        raise ValueError("solve_1d() handles line instances; use solve() in the plane")
    return branch_and_bound(instance, config or SolverConfig(), root_node_1d, branch_1d)
