"""Exact planar solver: depth-first branch and bound over candidate grids.

Every service zone's corner coordinates can be restricted, without losing any
optimum, to a finite grid: the inner-demand breakpoints of its own scale plus
the outer service breakpoints generated by zones already pinned down.  The
search tree narrows those per-zone candidate sets step by step:

* scale step — while a zone's scale is open, one child per menu entry fixes
  it and swaps in that scale's grids;
* interval step — a zone's x (later y) candidate set is split at its widest
  coordinate gaps; children are visited in order of decreasing demand mass
  near their candidates, and once a set is a singleton the next zone is up.
  When a zone is first split, extra children pin it directly at the abutment
  positions of already-fixed zones (positions no demand grid contains);
* order step — once every x is fixed, y branching picks which zone to settle
  next: the lowest-indexed zone sitting on its own scale's grid
  (interchangeable by symmetry, so one representative suffices) plus every
  zone sitting on an abutment value.

Zones are processed in index order along x, which is harmless because zones
sharing one scale menu are interchangeable.

The depth-first loop, :func:`branch_and_bound`, is shared with the line
solver (``bnb1d.solve_1d``); each solver passes its own root, bound,
branching rule, leaf test and leaf placements.  A greedy run seeds the
incumbent; a node is cut as soon as its optimistic bound cannot beat the
incumbent by more than ``epsilon``.

Per-node work does not scan candidate sets or demand.  A candidate set with
more than one value is always a contiguous slice of its own scale's grid
(splitting only cuts slices), so its reward-matrix rows or columns form one
index range, found from the slice's end values through the matrix's exact
value-to-index map; a zone's bound is the maximum over that block of the
matrix (a range maximum), memoised per block by ``RewardMatrix.block_max``
because a solve asks for few distinct blocks many times.  Only a singleton
may lie off the grid, at an abutment position.  Child priorities are read
from tables built once per solve for every own-scale grid value
(``CandidateGrids``).

The driver passes the incumbent's reward to the bound as ``floor``.  A leaf's
exact value, which trims overlapping coverage, is never above the sum of its
zones' isolated rewards, so a leaf whose isolated sum is already within
``epsilon`` of ``floor`` is cut on that sum and never evaluated exactly.

When the time limit stops a search, every node still on the stack is bounded
once more; the largest of those bounds (at least the incumbent plus
``epsilon``, the margin every cut node was within) is a certified upper bound
on the optimum, reported with the relative gap in :class:`SolverStats`.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from .geometry import EPS, Axis
from .critical import abutment_values, contains_value, dedup_sorted, inner_demand_grid
from .greedy import greedy
from .model import Dimension, Instance, Placement, QosSet, Solution, reward_rate
from .reward import RewardMatrix, build_reward_matrix, covered_reward

_UNSET = 0.0  # marker for a scale not chosen yet (real scales are >= 1)


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by the exact solvers."""

    beta: float = 0.5
    epsilon: float = EPS
    time_limit_s: float = 18000.0
    scv_mode: str = "outer"

    def __post_init__(self) -> None:
        if not 0 < self.beta < 1:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if not self.time_limit_s >= 0:
            raise ValueError(f"time_limit_s must be >= 0, got {self.time_limit_s}")
        if self.scv_mode not in ("outer", "full"):
            raise ValueError(f"scv_mode must be 'outer' or 'full', got {self.scv_mode!r}")


@dataclass(frozen=True)
class Node:
    """Search node: per-zone candidate sets plus branching bookkeeping.

    ``z_vec[j] == 0`` means zone ``j``'s scale is still open (its candidate
    sets then hold the cross-scale grid unions).  ``bs`` is the zone currently
    being narrowed; on the x axis it advances left to right and ``bs == p``
    means every x is fixed.  ``ba`` is the axis being narrowed.
    """

    x_sets: tuple[tuple[float, ...], ...]
    y_sets: tuple[tuple[float, ...], ...]
    z_vec: tuple[float, ...]
    ba: Axis = Axis.X
    bs: int = 0


@dataclass
class SolverStats:
    """Search statistics for one solve call.

    ``upper_bound`` is a certified upper bound on the optimum and ``gap`` the
    relative distance ``(upper_bound - reward) / upper_bound`` of the returned
    reward from it (0 when ``upper_bound`` is 0).  A proven solve reports
    ``upper_bound`` equal to its reward and ``gap == 0``; ``None`` means no
    bound is known (a heuristic run).
    """

    nodes_explored: int = 0
    best_reward_history: list[tuple[int, float]] = field(default_factory=list)
    wall_time: float = 0.0
    optimal_found_time: float = 0.0
    optimal: bool = True
    upper_bound: float | None = None
    gap: float | None = None


@dataclass(frozen=True)
class CandidateGrids:
    """Per-scale candidate grids, their cross-scale unions and child priorities.

    ``x_priority[z][v]`` equals ``priority_score(v, dzs, z, eta, Axis.X)`` for
    every value ``v`` of ``x_by_scale[z]`` (likewise ``y_priority`` on y).  The
    tables are built once per solve, so ordering children looks priorities up
    instead of scanning the demand per candidate.
    """

    x_by_scale: Mapping[float, tuple[float, ...]]
    y_by_scale: Mapping[float, tuple[float, ...]]
    x_union: tuple[float, ...]
    y_union: tuple[float, ...]
    x_priority: Mapping[float, Mapping[float, float]]
    y_priority: Mapping[float, Mapping[float, float]]

    @staticmethod
    def from_instance(instance: Instance, eps: float = EPS) -> "CandidateGrids":
        xs = {}
        ys = {}
        xp = {}
        yp = {}
        for z in instance.scale_values():
            xs[z] = inner_demand_grid(instance.dzs, z, instance.base, Axis.X, eps).values
            ys[z] = inner_demand_grid(instance.dzs, z, instance.base, Axis.Y, eps).values
            xp[z] = {v: priority_score(v, instance.dzs, z, instance.eta, Axis.X) for v in xs[z]}
            yp[z] = {v: priority_score(v, instance.dzs, z, instance.eta, Axis.Y) for v in ys[z]}
        x_union = dedup_sorted([v for vals in xs.values() for v in vals], eps)
        y_union = dedup_sorted([v for vals in ys.values() for v in vals], eps)
        return CandidateGrids(xs, ys, x_union, y_union, xp, yp)


def partition(values: Sequence[float], beta: float) -> list[tuple[float, ...]]:
    """Split sorted ``values`` at every gap wider than ``beta`` times the rest.

    A gap is cut when it exceeds ``beta`` times the widest *other* gap, so a
    two-element set (a single gap, nothing to compare against) always stays
    whole; callers that need progress on an unsplit set enumerate singletons
    instead.
    """
    vals = tuple(values)
    if len(vals) <= 2:
        return [vals]
    gaps = [b - a for a, b in zip(vals, vals[1:])]
    gmax = max(gaps)
    parts: list[tuple[float, ...]] = []
    start = 0
    for i, g in enumerate(gaps):
        if g > beta * gmax:
            parts.append(vals[start : i + 1])
            start = i + 1
    parts.append(vals[start:])
    return parts


def priority_score(
    value: float, dzs, z: float, eta, axis: Axis = Axis.X
) -> float:
    """Decayed demand mass whose span contains ``value`` (spans half-open)."""
    total = 0.0
    for d in dzs:
        if axis is Axis.X:
            lo, size = d.rect.x, d.rect.w
        else:
            lo, size = d.rect.y, d.rect.l
        if lo <= value < lo + size:
            total += reward_rate(d.v, z, eta)
    return total


def is_leaf(node: Node) -> bool:
    return (
        _UNSET not in node.z_vec
        and max(map(len, node.x_sets)) == 1
        and max(map(len, node.y_sets)) == 1
    )


def leaf_placements(node: Node) -> tuple[Placement, ...]:
    return tuple(
        Placement(node.x_sets[j][0], node.y_sets[j][0], node.z_vec[j])
        for j in range(len(node.z_vec))
    )


def _replace_at(sets: tuple[tuple[float, ...], ...], j: int, values: tuple[float, ...]):
    return sets[:j] + (values,) + sets[j + 1 :]


def _order_children(
    parts: list[tuple[float, ...]], priority: Mapping[float, float]
) -> list[tuple[float, ...]]:
    """``parts`` by decreasing priority of their best value, stable on ties."""
    return sorted(parts, key=lambda part: max(priority[v] for v in part), reverse=True)


def _order_step_children(node: Node, instance: Instance, grids: CandidateGrids, eps: float) -> list[Node]:
    """Pick which zone settles its y next (see module docstring, order step).

    Interchangeability holds only for zones sitting on their *own* scale's
    grid (any other assignment of their (x, scale) pairs exists elsewhere in
    the tree); a zone pinned at an abutment position is tied to the zones
    that generated it, even if the value happens to equal some other scale's
    grid value, so each such zone gets its own child.
    """
    open_idx = [j for j in range(instance.p) if len(node.y_sets[j]) > 1]
    chosen: list[int] = []
    rep_found = False
    for j in open_idx:
        if contains_value(grids.x_by_scale[node.z_vec[j]], node.x_sets[j][0], eps):
            if not rep_found:
                chosen.append(j)
                rep_found = True
        else:
            chosen.append(j)
    return [Node(node.x_sets, node.y_sets, node.z_vec, Axis.Y, j) for j in sorted(chosen)]


def branch(
    node: Node, instance: Instance, grids: CandidateGrids, config: SolverConfig
) -> list[Node]:
    """Children of a non-leaf node, in exploration order."""
    j = node.bs
    if node.ba is Axis.X and j < instance.p:
        if node.z_vec[j] == _UNSET:
            # Scale step: one child per menu entry for zone j.
            return [
                Node(
                    _replace_at(node.x_sets, j, grids.x_by_scale[z]),
                    _replace_at(node.y_sets, j, grids.y_by_scale[z]),
                    node.z_vec[:j] + (z,) + node.z_vec[j + 1 :],
                    node.ba,
                    j,
                )
                for z in instance.qos_for(j).factors
            ]
        return _interval_children(node, j, Axis.X, instance, grids, config)
    if node.ba is Axis.X or len(node.y_sets[j]) == 1:
        # Every x fixed, or zone j's y settled: the order step picks who is next.
        return _order_step_children(node, instance, grids, config.epsilon)
    return _interval_children(node, j, Axis.Y, instance, grids, config)


def _interval_children(
    node: Node, j: int, axis: Axis, instance: Instance, grids: CandidateGrids, config: SolverConfig
) -> list[Node]:
    """Interval step: split zone ``j``'s candidate set on ``axis``.

    On its first split (the set is still the whole own-scale grid) zone ``j``
    is also pinned at the abutment positions of zones already fixed on
    ``axis``.  Values on *another* scale's grid stay among them: they are
    never enumerated for this zone otherwise (with a {1, 2} menu,
    left-abutting a scale-1 zone that sits on a scale-1 grid value always
    lands on a scale-2 grid value, so dropping them loses real optima).  On x
    a singleton child moves on to zone ``j + 1``.
    """
    on_x = axis is Axis.X
    sets = node.x_sets if on_x else node.y_sets
    z = node.z_vec[j]
    vals = sets[j]
    parts = partition(vals, config.beta)
    if len(parts) == 1 and len(vals) > 1:
        parts = [(v,) for v in vals]
    parts = _order_children(parts, (grids.x_priority if on_x else grids.y_priority)[z])
    if vals == (grids.x_by_scale if on_x else grids.y_by_scale)[z]:
        fixed = [
            (s[0], zk)
            for k, (s, zk) in enumerate(zip(sets, node.z_vec))
            if k != j and len(s) == 1 and zk != _UNSET
        ]
        full = config.scv_mode == "full"
        parts += [(v,) for v in abutment_values(fixed, z, instance.base, axis, full, vals, config.epsilon)]
    if on_x:
        return [
            Node(_replace_at(sets, j, part), node.y_sets, node.z_vec, Axis.X, j + 1 if len(part) == 1 else j)
            for part in parts
        ]
    return [Node(node.x_sets, _replace_at(sets, j, part), node.z_vec, Axis.Y, j) for part in parts]


def _axis_indices(v: float, grid: Sequence[float], eps: float) -> tuple[int, int]:
    """Half-open matrix index range bounding an off-grid singleton ``v``.

    A value within ``eps`` of a grid value maps to that value alone.
    Otherwise the isolated reward is piecewise linear with no local maximum
    strictly between neighbouring grid values, so ``v`` is bounded by its two
    bracketing grid values, or by the nearest endpoint when it lies outside
    the grid's range.
    """
    n = len(grid)
    i = bisect_left(grid, v)
    if i < n and abs(grid[i] - v) < eps:
        return i, i + 1
    if i > 0 and abs(grid[i - 1] - v) < eps:
        return i - 1, i
    if i == 0:
        return 0, 1
    if i >= n:
        return n - 1, n
    return i - 1, i + 1


def _axis_range(
    candidates: tuple[float, ...], index: Mapping[float, int], grid: Sequence[float], eps: float
) -> tuple[int, int]:
    """Half-open matrix index range ``[lo, hi)`` covering a candidate set.

    ``index`` maps each value of ``grid`` exactly to its position.  A set of
    several values must be a contiguous slice of ``grid``: its first value
    gives ``lo``, its length ``hi``, and its last value must sit at
    ``hi - 1``, which is checked in O(1) rather than value by value.  A
    singleton on the grid maps to its own index; one off the grid is
    bracketed by :func:`_axis_indices`.
    """
    lo = index.get(candidates[0])
    if len(candidates) == 1:
        return (lo, lo + 1) if lo is not None else _axis_indices(candidates[0], grid, eps)
    if lo is not None:
        hi = lo + len(candidates)
        if index.get(candidates[-1]) == hi - 1:
            return lo, hi
    raise ValueError(
        f"candidate set {candidates[0]}..{candidates[-1]} ({len(candidates)} values) "
        "is not a slice of its grid"
    )


def upper_bound(
    node: Node,
    matrices: Mapping[float, RewardMatrix],
    instance: Instance,
    eps: float = EPS,
    floor: float = -math.inf,
) -> float:
    """Optimistic value of the best completion below ``node``.

    Each zone contributes the best isolated reward reachable from its
    candidate sets (overlap between zones only lowers the true value, so the
    sum is a valid bound): the maximum of the block
    ``entries[xlo:xhi, ylo:yhi]`` of its scale's reward matrix, whose ranges
    :func:`_axis_range` finds in O(1) per axis and whose maximum
    ``RewardMatrix.block_max`` memoises.  A zone with an open scale
    contributes the best entry over all scale matrices, taken once per call
    and only when some scale is open.

    A leaf whose sum exceeds ``floor + eps`` is evaluated exactly with
    ``covered_reward``.  A leaf at or below it returns the sum, which is at
    least its exact value, so a caller cutting at ``floor + eps`` cuts the
    same leaves.  With the default ``floor`` every leaf is exact.
    """
    total = 0.0
    best_any = None
    for j in range(instance.p):
        z = node.z_vec[j]
        if z == _UNSET:
            if best_any is None:
                best_any = max(m.max_entry for m in matrices.values())
            total += best_any
            continue
        m = matrices[z]
        xlo, xhi = _axis_range(node.x_sets[j], m.x_index, m.xs.values, eps)
        ylo, yhi = _axis_range(node.y_sets[j], m.y_index, m.ys.values, eps)
        total += m.block_max(xlo, xhi, ylo, yhi)
    if total > floor + eps and is_leaf(node):
        return covered_reward(instance.dzs, leaf_placements(node), instance.base, instance.eta, eps)
    return total


def branch_and_bound(
    instance: Instance,
    config: SolverConfig,
    root: Callable[[Instance, CandidateGrids], Any],
    bound: Callable[[Any, Mapping[float, RewardMatrix], Instance, float, float], float],
    children: Callable[[Any, Instance, CandidateGrids, SolverConfig], list],
    at_leaf: Callable[[Any], bool],
    placements: Callable[[Any], tuple[Placement, ...]],
) -> tuple[Solution, SolverStats]:
    """Depth-first branch and bound, shared by the planar and line solvers.

    A greedy run seeds the incumbent.  ``root(instance, grids)`` builds the
    root node; every popped node is bounded with ``bound(node, matrices,
    instance, eps, lower)``, where ``lower`` is the incumbent's reward, and
    is cut when the bound cannot beat the incumbent by more than ``epsilon``.
    The bound must be exact at a leaf (``at_leaf(node)``) whose value exceeds
    ``lower + eps``, and at least the leaf's exact value otherwise.  A
    surviving leaf becomes the incumbent (``placements(node)``); any other
    node is replaced by ``children(node, instance, grids, config)``, explored
    in the order given.

    When the time limit is hit the incumbent is returned with
    ``stats.optimal == False``; ``stats.upper_bound`` is then the largest of
    ``lower + epsilon`` and the bounds (exact at leaves) of the nodes left on
    the stack.  A proven solve reports ``upper_bound == lower``.
    """
    eps = config.epsilon
    stats = SolverStats()
    start = time.perf_counter()

    trace = greedy(instance, eps)
    incumbent = trace.solution.placements
    lower = trace.solution.reward
    stats.best_reward_history.append((0, lower))
    stats.optimal_found_time = time.perf_counter() - start

    if instance.dzs:
        grids = CandidateGrids.from_instance(instance, eps)
        matrices = {
            z: build_reward_matrix(instance.dzs, z, instance.base, instance.eta, eps)
            for z in instance.scale_values()
        }
        stack = [root(instance, grids)]
        while stack:
            if time.perf_counter() - start > config.time_limit_s:
                stats.optimal = False
                break
            node = stack.pop()
            stats.nodes_explored += 1
            value = bound(node, matrices, instance, eps, lower)
            if value <= lower + eps:
                continue
            if at_leaf(node):
                lower = value
                incumbent = placements(node)
                stats.best_reward_history.append((stats.nodes_explored, lower))
                stats.optimal_found_time = time.perf_counter() - start
                continue
            stack.extend(reversed(children(node, instance, grids, config)))

    if stats.optimal:
        stats.upper_bound = lower
    else:
        # Every cut node was within eps of an incumbent no better than the
        # last; the open nodes are bounded once more, exactly at leaves.
        stats.upper_bound = max([lower + eps] + [bound(n, matrices, instance, eps) for n in stack])
    stats.gap = (stats.upper_bound - lower) / stats.upper_bound if stats.upper_bound > 0 else 0.0
    stats.wall_time = time.perf_counter() - start
    return Solution(incumbent, lower), stats


def root_node(instance: Instance, grids: CandidateGrids) -> Node:
    """Every zone open: scale unset, candidate sets the cross-scale unions."""
    p = instance.p
    return Node(x_sets=(grids.x_union,) * p, y_sets=(grids.y_union,) * p, z_vec=(_UNSET,) * p)


def solve(instance: Instance, config: SolverConfig | None = None) -> tuple[Solution, SolverStats]:
    """Exact solve of a planar instance with a shared scale menu.

    Returns the optimal solution unless the time limit is hit first, in which
    case the best feasible solution found is returned with
    ``stats.optimal == False``.
    """
    if instance.dimension is not Dimension.TWO_D:
        raise ValueError("solve() handles planar instances; use solve_1d() for segments")
    if not isinstance(instance.qos, QosSet):
        raise ValueError("solve() needs a shared scale menu")
    return branch_and_bound(
        instance, config or SolverConfig(), root_node, upper_bound, branch, is_leaf, leaf_placements
    )
