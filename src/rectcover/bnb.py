"""Exact solver, plane and line: depth-first branch and bound over candidate grids.

Every service zone's corner coordinates can be restricted, without losing any
optimum, to a finite grid: the inner-demand breakpoints of its own scale plus
the outer service breakpoints generated by zones already pinned down.  A line
instance is searched as its lifted demand (``Instance.planar``), whose y
grids hold the one value 0, so one tree serves both.  Zones with equal menus
form a *class*.  The tree narrows the per-zone candidate sets step by step:

* root — a zone whose menu holds one scale (every zone on the line) starts
  at that scale on its whole grids; every other zone starts open;
* scale step — an open zone's first step gives one child per menu entry,
  which fixes its scale and swaps in that scale's grids;
* interval step — a zone's x (later y) candidate set is split at its widest
  coordinate gaps; children are visited by decreasing best isolated reward
  over their candidates (their block of the scale's reward matrix, taken
  over every position on the other axis), until the set is a singleton.
  When a zone is first split, extra children pin it directly at the abutment
  positions of already-fixed zones (positions no own-scale grid value is
  within ``epsilon`` of);
* next zone on x — when no zone is being narrowed on x, the candidates are
  the lowest-indexed zone of each class whose x is not fixed yet.  The
  children are, candidate by candidate in index order, its first step: the
  scale step while its scale is open, else its interval step.  With one
  class this is index order;
* grid-order rule — at a zone's first x split, the grid parts are generated
  only when its index is above every zone already placed on its own grid
  (``v`` None, a grid of one value aside); the abutment pins always are;
* order step — once every x is fixed, y branching picks which zone to settle
  next: in each class the lowest-indexed zone sitting on its own scale's
  grid, plus every zone sitting on an abutment value.

Completeness.  On each axis the candidate set holds an optimum in which some
order of the zones puts each one on its own scale's grid or at an abutment
of a zone placed before it (the oracle, ``oracle._axis_tuples``, enumerates
every such order).  Take such an order on x.  The zones on their grid depend
on no other zone, so they can all move to the front, and every abutment
still follows the zone it abuts.  Zones of one class share a menu, so
swapping two of their labels changes no reward: relabel each class so that
its zones come in index order along the order, then sort the front by index
(the class's grid zones hold its lowest labels, as they come first).  The
search reaches that order: each next zone is the lowest-indexed unplaced
zone of its class, so a candidate; its scale is one of its scale step's
children; and it is either a grid part, its index being above every grid
zone before it, or a pin of a zone before it.  On y the same swaps, among
the zones of one class on their own x grid, which sit at the front on x and
can take any labels there, make each next zone to settle the lowest-indexed
of its class, and a zone pinned on x gets a child of its own.  A zone whose
grid holds one value ``a`` on an axis is placed at ``a`` from the root:
every demand zone then spans exactly its width from ``a`` on that axis, so
``a`` covers a superset of what any other position covers, and a zone that
abuts it there covers no demand on that axis and can sit on its own grid
instead; the grid-order rule leaves such zones out.

The residual axis of a node follows from its sets: y once every x set is a
singleton, x once every y set is (the line, from its root on), none
otherwise.  The bound (:func:`upper_bound`), the leaf test (:func:`is_leaf`)
and the leaf placements (:func:`leaf_placements`) read only the sets, the
scales and that axis.  The bound and the branching rule take the solve's
state as one :class:`CandidateGrids`: its matrices, its Lagrangian bound,
greedy's prefixes for the reference-set bound and its memos.  The covered
reward of a greedy run's placements seeds the incumbent; a node is cut as
soon as its optimistic bound cannot beat the incumbent by more than
``epsilon``.

Per-node work scans no candidate set or demand and maps no value to an
index.  Each scale's reward matrix, and with it the grids it is tabulated
over, is built once per solve (``CandidateGrids``), and a candidate set is a
triple ``(lo, hi, v)`` of positions in its zone's own-scale grid: the slice
``grid[lo:hi]`` when ``v`` is None (splitting only cuts slices), else the
abutment position ``v``, on no grid, bounded by the block ``[lo, hi)``
(:func:`_axis_indices`, computed once per child).  A zone's bound is its
matrix's maximum over the block its two sets name, memoised by
``RewardMatrix.block_max`` because a solve asks for few distinct blocks many
times; a child's rank is the same memoised maximum over its range on one
axis and the whole grid on the other.  A slice's interval split depends only
on its scale, axis and range (``beta`` is fixed per solve), so
:meth:`CandidateGrids.split` computes and ranks it once per solve and keeps
the parts as a tuple.

The driver passes the incumbent's reward to the bound as ``floor``.  A leaf's
exact value, which trims overlapping coverage, is never above the sum of its
zones' isolated rewards, so a leaf whose isolated sum is already within
``epsilon`` of ``floor`` is cut on that sum and never evaluated exactly.

Residual bound.  The isolated sum ignores that zones already placed have
served demand.  Let ``S`` be the zones whose coordinates are all singletons
and ``T`` the others.  Covered reward ``f`` in best-rate form (each point
paid once, at the best rate covering it) is a weighted-coverage function,
which is monotone submodular, so ``f(S + T) <= f(S) + sum over t in T of
max_c [f(S + t@c) - f(S)]`` (Nemhauser, Wolsey and Fisher, 1978).  One run
of the trimming loop of ``covered_reward`` over ``S`` gives ``f(S)`` and the
demand pieces with the rate each is already paid (0 if unserved); adding
``t`` at scale ``z`` gains ``max(0, v / eta(z) - paid)`` per unit of piece
it covers (``reward.ResidualDemand``).  The bound applies once every scale
and x is fixed (the y phase), or every y (the line), where ``t`` has
a fixed corner on one axis and a candidate set on the other, so its gain
is a function of one coordinate ``c``.  Which positions the maximum must
cover:

* a strict slice of the grid: its own values, because the search adds
  abutment positions only at a set's first split; the gain column over the
  grid is computed only when such a slice asks for it;
* the whole grid: ``t`` may still be pinned at an abutment of a zone that is
  open now, so every real position.  A piece ``[lo, hi]`` on the axis
  overlaps ``t``'s span ``[c, c + ext]`` by a trapezoid in ``c`` whose
  concave kinks are the flush positions ``c = lo`` and ``c = hi - ext``.
  The gain is a positive-weighted sum of these trapezoids, so it is
  piecewise linear and its maximum over all real positions lies at a
  concave kink of one of them: the gain is evaluated at the flush positions
  of the pieces it keeps, and is 0 with none (whatever ``scv_mode`` is; no
  grid value and no ``service_breakpoints`` of ``S`` are needed).

With ``S`` empty this is the isolated sum again, so it is taken only once a
zone is placed on the residual axis.

Reference-set bound.  The inequality holds with any set of placements ``A``
in place of ``S``: ``f(X) <= f(A + X) <= f(A) + sum over t in X of [f(A +
t) - f(A)]``, the first step by monotonicity, the second by submodularity
(adding ``X``'s zones to ``A`` one at a time, each gains at most what it
gains over ``A`` alone).  The sum now runs over every zone, a zone of ``X``
that ``A`` already holds gaining 0.  A node that has a residual axis but no
zone placed on it (the plane's y phase before the first y is settled, the
line before the first zone is placed) takes ``min over A of
f(A) + sum over zones t of max gain_A(t)`` over ``t``'s candidate set, with
``A`` each proper prefix ``g1..gk`` (``k = 1 .. p - 1``) of the greedy seed's
placements, in round order: greedy's first zones serve the most demand, so
``f(A)`` is large and what any completion gains over it small.  Each ``A``
is one :class:`~rectcover.reward.ResidualDemand`, built once per solve on
first use and kept in ``CandidateGrids.reference_states``, outside the
cache of per-``S`` states, so its memoised gains serve every node.  A
zone's term follows the residual bound's rules: the gain's maximum over
every real position for a whole grid (pins may still follow), over the
slice's values for a strict slice, the grid value's gain for a grid
singleton and the gain at the pinned value for an abutment singleton
(``ResidualDemand.gain_at``).  The x phase is left out: a zone with both
coordinates open needs its gain's maximum over two dimensions.  ``f(A)``
and the gains are sums of nonnegative terms taken in another order than
``covered_reward``'s, as for the residual bound, and ``epsilon`` covers
their rounding as it does there.

Lagrangian bound.  The isolated sum pays demand that several zones reach
once per zone.  Dualising the coverage constraints of the maximal-covering
LP (Church and ReVelle 1974; Fisher 1981) prices that away: take any
multipliers ``mu[d, z] >= 0``, one reward density per demand zone ``d`` and
scale ``z``, and let ``r[d, z] = v_d / eta(z)``.  Then

    f(X) <= T1 + sum over t in X of L_{z_t}(t),
    T1 = sum_d area(d) * max(0, max_z (r[d, z] - mu[d, z])),
    L_z(t) = sum_d mu[d, z] * area(t ∩ d).

Proof: a covered point of ``d`` is paid the rate ``r[d, z*]`` of the best
zone ``t*`` covering it, and ``r[d, z*] = (r[d, z*] - mu[d, z*]) + mu[d,
z*]``.  The first part is at most ``T1``'s integrand, the second at most the
sum of ``mu[d, z_t]`` over the zones ``t`` that cover the point, as every
``mu`` is nonnegative; an uncovered point is paid 0.  Integrating over every
demand zone gives the bound.  ``mu = r`` gives back the isolated sum (``T1 =
0``) and ``mu = 0`` the total demand reward at the best rate.

``L_z`` is the isolated reward of a scale-``z`` zone on demand that pays
``mu`` instead of ``r``: the same rectangles reweighted.  Its overlap with
one demand zone is a trapezoid in each coordinate, so on one axis ``L_z`` is
a nonnegative-weighted sum of trapezoids whose concave kinks are the
inner-demand grid values; between two neighbouring grid values it is convex,
and outside the grid's range monotone toward it.  So its maximum over any
block of the grid, over every real position in it and over a bracketed
abutment position alike, is read at grid values, exactly as for the reward
matrix, whatever the nonnegative weights.  ``L_z`` is tabulated over scale
``z``'s own grids as ``RewardMatrix.reweighted(mu[:, z])``, the one product
``(ox * mu[:, z]).T @ oy`` of the overlap tables that
``build_reward_matrix`` sums and keeps on scale ``z``'s matrix
(:meth:`Lagrangian.of`), and a node's Lagrangian bound is ``T1`` plus one
memoised ``block_max`` per zone (an open zone takes the best entry over its
menu's matrices), what the isolated sum costs.

``mu`` is fitted once per solve, at the root, by projected subgradient
(:func:`fit_lagrangian`): it starts at ``mu = r``, where the root bound is
the isolated sum, and steps toward ``lower`` (greedy's covered reward) with
a Polyak step.  A subgradient of the root bound is ``-area(d)`` at each
demand zone's maximising scale in ``T1`` (where positive), plus, per zone,
the overlap with every demand zone of the argmax of its ``L_z``.  At most
:data:`FIT_STEPS` steps; the step factor starts at :data:`FIT_STEP` and
halves after :data:`FIT_HALVE_AFTER` steps without a new best; the fit stops
after :data:`FIT_STALL` steps without a gain of :data:`FIT_GAIN` relative,
or once the bound is at or below ``lower``.  The best ``mu`` seen is kept.
When it does not beat the start by :data:`FIT_GAIN` the solve keeps no
Lagrangian state, and its nodes and cost per node are those of the other
two bounds alone.

The bound is not bit-exact: ``T1`` and ``L_z`` are matrix products summed
in another order than the reward matrix and ``covered_reward``, each a sum of
nonnegative terms off by a relative error of about the number of demand
zones times 2**-52.  So it is scaled by ``1 + LAG_MARGIN``
(:data:`LAG_MARGIN`, relative, 1e-12) before it is compared.  The prune test
then adds ``epsilon``, the absolute slack every bound shares.

A node's bound is the smallest of the isolated sum, the Lagrangian bound
and the residual or reference-set bound, each computed only while the ones
before it leave the node above the incumbent plus ``epsilon``, so nodes the
sum already cuts cost what they did.  Every gain is at least 0, so a sum of
gains stops once it is above the least bound taken so far, which it can no
longer lower; every value returned is still a bound.  The residual bound's
per-``S`` state is cached for the solve in ``CandidateGrids.residuals``, at
most :data:`RESIDUAL_CACHE_SIZE` states, least recently used dropped.

No placement earns more than ``ceiling``, every demand zone's area paid
at the smallest scale's rate, so the search stops, proven, once the
incumbent is within a relative ``LAG_MARGIN`` of it.  The margin is
relative because the incumbent's covered reward and ``ceiling`` sum the
same terms in another order: an incumbent that earns all the demand can
fall a few ulps short of ``ceiling``, more than an absolute ``epsilon`` at
large coordinates.

When the time limit stops a search, every node still on the stack is bounded
once more; the largest of those bounds (at least the incumbent plus
``epsilon``, the margin every cut node was within) is a certified upper bound
on the optimum, reported with the relative gap in :class:`SolverStats`.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .geometry import EPS, Axis
from .critical import abutment_values
from .greedy import greedy
from .model import Instance, Placement, Solution, demand_rows, reward_rate
from .reward import ResidualDemand, RewardMatrix, build_reward_matrix, covered_reward

_UNSET = 0.0  # marker for a scale not chosen yet (real scales are >= 1)

#: A candidate set ``(lo, hi, v)`` on one axis of a zone's own-scale grid:
#: the slice ``grid[lo:hi]`` when ``v`` is None, else the single value ``v``
#: bounded by the block ``[lo, hi)``.
CandidateSet = tuple[int, int, float | None]

#: The candidate set of a zone whose scale is still open; it indexes no grid.
_OPEN: CandidateSet = (0, 0, None)

#: Most residual states a solve keeps, least recently used dropped first.
#: At planar p=3 m=2 n=8 (seed 9, 161k nodes) a solve builds 9.5k distinct
#: states: keeping all of them raises its peak memory by about 35 MB,
#: keeping 1024 rebuilds 6% more of them, and keeping only those on the
#: current search path rebuilds 5x more and runs 1.8x slower.
RESIDUAL_CACHE_SIZE = 1024

#: The Lagrangian fit (module docstring): most steps, first Polyak step
#: factor, steps without a new best before it halves, steps without a
#: relative gain of ``FIT_GAIN`` before the fit stops.
FIT_STEPS = 40
FIT_STEP = 2.0
FIT_HALVE_AFTER = 5
FIT_STALL = 10
FIT_GAIN = 1e-3
#: Relative margin on the Lagrangian bound and on the total demand reward,
#: for their rounding.
LAG_MARGIN = 1e-12


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


class Node(NamedTuple):
    """Search node: per-zone candidate sets plus branching bookkeeping.

    ``x_sets[j]`` and ``y_sets[j]`` are zone ``j``'s :data:`CandidateSet` on
    the grids of its scale ``z_vec[j]`` (the ``xs`` and ``ys`` of
    ``CandidateGrids.matrices[z_vec[j]]``); ``z_vec[j] == 0`` means that
    scale is still open and both sets are :data:`_OPEN`.  ``ba`` is the axis
    being narrowed and ``bs`` the zone being narrowed on it, -1 when none
    is (on x, the next zone is then chosen; module docstring).
    """

    x_sets: tuple[CandidateSet, ...]
    y_sets: tuple[CandidateSet, ...]
    z_vec: tuple[float, ...]
    ba: Axis = Axis.X
    bs: int = -1

    @property
    def residual_axis(self) -> Axis | None:
        """The axis the residual bound runs on: y once every x is fixed, x once every y is, else None."""
        if self.ba is Axis.Y or all(map(_is_single, self.x_sets)):  # y is narrowed only once every x is fixed
            return Axis.Y
        return Axis.X if all(map(_is_single, self.y_sets)) else None


@dataclass
class SolverStats:
    """Search statistics for one solve call.

    ``upper_bound`` is a certified upper bound on the optimum and ``gap`` the
    relative distance ``(upper_bound - reward) / upper_bound`` of the returned
    reward from it (0 when ``upper_bound`` is 0).  A proven solve reports
    ``upper_bound`` equal to its reward and ``gap == 0``; ``None`` means no
    bound is known (a heuristic run).  ``greedy_reward`` is the reward the
    greedy seed claims (the sum of its rounds' gains) and ``greedy_time`` its
    run time; ``optimal_found_time`` is when the incumbent was last improved,
    the seed counting at the end of its greedy run.  ``root_bound`` is the
    certified bound of the root once the Lagrangian fit is done (``None``
    when no root was bounded: a heuristic run, or a seed that already earns
    all the demand) and ``fit_s`` the fit's run time.
    """

    nodes_explored: int = 0
    best_reward_history: list[tuple[int, float]] = field(default_factory=list)
    wall_time: float = 0.0
    optimal_found_time: float = 0.0
    greedy_reward: float = 0.0
    greedy_time: float = 0.0
    optimal: bool = True
    upper_bound: float | None = None
    gap: float | None = None
    root_bound: float | None = None
    fit_s: float = 0.0


class Lagrangian(NamedTuple):
    """The Lagrangian bound of one choice of ``mu`` (module docstring).

    ``t1`` is ``T1`` and ``matrices[z]`` tabulates ``L_z`` over the grids of
    the reward matrix of scale ``z``, so a node's candidate sets index it.
    """

    t1: float
    matrices: Mapping[float, RewardMatrix]

    @classmethod
    def of(
        cls, mu: np.ndarray, rates: np.ndarray, area: np.ndarray, matrices: Mapping[float, RewardMatrix]
    ) -> "Lagrangian":
        """The bound of the multipliers ``mu[d, s]``, column ``s`` for the ``s``-th scale of ``matrices``.

        ``matrices`` are a solve's reward matrices, ``rates[d, s]`` the
        ``rates[d]`` of the ``s``-th of them, and ``area[d]`` demand zone
        ``d``'s area in planar form; ``L_z`` is
        ``matrices[z].reweighted(mu[:, s])``.
        """
        t1 = float(area @ (rates - mu).max(axis=1, initial=0.0))
        return cls(t1, {z: m.reweighted(mu[:, s]) for s, (z, m) in enumerate(matrices.items())})

    def bound(self, node: Node) -> float:
        """``T1`` plus each zone's best ``L`` over its candidate sets, with the rounding margin."""
        return (self.t1 + _block_sum(node, self.matrices)) * (1.0 + LAG_MARGIN)


@dataclass(frozen=True)
class CandidateGrids:
    """A solve's state: per-scale reward matrices, built once, its Lagrangian bound and its two memos.

    ``matrices[z]`` is tabulated over scale ``z``'s grids, ``xs.values`` and
    ``ys.values``; every candidate set of a scale-``z`` zone indexes them.
    ``lagrangian`` is the fitted Lagrangian bound, or None when the solve
    keeps none (:func:`fit_lagrangian`).  ``splits`` tabulates :meth:`split` and
    ``residuals`` is the residual bound's cache, one
    :class:`~rectcover.reward.ResidualDemand` per set of placed zones, at
    most :data:`RESIDUAL_CACHE_SIZE`, least recently used dropped; both
    live as long as the solve.  ``references`` are the reference sets ``A``
    of the reference-set bound and ``reference_states`` their states,
    :meth:`reference`, kept for the solve outside that cache.
    :func:`upper_bound` reads ``matrices``, ``lagrangian``, ``residuals`` and
    the reference states; the branching rules read ``matrices`` and
    ``splits``.
    """

    matrices: Mapping[float, RewardMatrix]
    lagrangian: Lagrangian | None = None
    splits: dict[tuple, tuple[CandidateSet, ...]] = field(default_factory=dict, compare=False, repr=False)
    residuals: dict[tuple, ResidualDemand] = field(default_factory=dict, compare=False, repr=False)
    references: tuple[tuple[Placement, ...], ...] = ()
    reference_states: dict[int, ResidualDemand] = field(default_factory=dict, compare=False, repr=False)

    @staticmethod
    def from_instance(instance: Instance, eps: float = EPS) -> "CandidateGrids":
        dzs, base, eta = instance.dzs, instance.base, instance.eta
        return CandidateGrids({z: build_reward_matrix(dzs, z, base, eta, eps) for z in instance.scale_values()})

    def split(self, z: float, axis: Axis, s: CandidateSet, beta: float) -> tuple[CandidateSet, ...]:
        """Interval step on the slice ``s`` of scale ``z``'s grid on ``axis``, shared by plane and line.

        :func:`partition` cuts the slice at its widest gaps; a slice it
        leaves whole falls apart into singletons.  The parts come by
        decreasing maximum of the reward matrix over the block they span
        (every index on the other axis), stable on ties, read through
        ``RewardMatrix.block_max``.  They depend only on ``(z, axis, lo,
        hi)``, as ``beta`` is fixed per solve, so each range is split once
        and its parts kept in ``splits``: at most ``2 * len(grid) - 1``
        ranges per scale and axis, the nodes of the grid's partition tree.
        The tuple is shared, so callers build new sequences from it.
        """
        lo, hi, _ = s
        on_x = axis is Axis.X
        key = (z, on_x, lo, hi)
        out = self.splits.get(key)
        if out is None:
            m = self.matrices[z]
            nx, ny = len(m.xs), len(m.ys)
            parts = [(lo + a, lo + b, None) for a, b in partition(_grid(m, axis)[lo:hi], beta)]
            if len(parts) == 1 and hi - lo > 1:
                parts = [(i, i + 1, None) for i in range(lo, hi)]
            if on_x:
                parts.sort(key=lambda part: m.block_max(part[0], part[1], 0, ny), reverse=True)
            else:
                parts.sort(key=lambda part: m.block_max(0, nx, part[0], part[1]), reverse=True)
            out = self.splits[key] = tuple(parts)
        return out

    def reference(self, k: int, instance: Instance, eps: float) -> ResidualDemand:
        """The :class:`~rectcover.reward.ResidualDemand` of ``references[k]``, built on first use."""
        state = self.reference_states.get(k)
        if state is None:
            dzs, base = instance.planar
            state = self.reference_states[k] = ResidualDemand(dzs, self.references[k], base, instance.eta, eps)
        return state


def _grid(m: RewardMatrix, axis: Axis) -> tuple[float, ...]:
    """The grid ``m`` is tabulated over on ``axis``."""
    return m.xs.values if axis is Axis.X else m.ys.values


def partition(values: Sequence[float], beta: float) -> list[tuple[int, int]]:
    """Split sorted ``values`` at every gap wider than ``beta`` times the rest.

    The parts are returned in order as half-open position ranges ``(start,
    stop)`` into ``values``.  A gap is cut when it exceeds ``beta`` times the
    widest *other* gap, so a two-element set (a single gap, nothing to
    compare against) always stays whole; callers that need progress on an
    unsplit set enumerate singletons instead.
    """
    n = len(values)
    if n <= 2:
        return [(0, n)]
    gaps = [b - a for a, b in zip(values, values[1:])]
    gmax = max(gaps)
    parts: list[tuple[int, int]] = []
    start = 0
    for i, g in enumerate(gaps):
        if g > beta * gmax:
            parts.append((start, i + 1))
            start = i + 1
    parts.append((start, n))
    return parts


def priority_score(
    value: float, dzs, z: float, eta, axis: Axis = Axis.X
) -> float:
    """Decayed demand mass whose span contains ``value`` (spans half-open).

    The search no longer orders children by it (:meth:`CandidateGrids.split`
    ranks them by the reward matrix); it is kept only for the benchmark's
    tracer, which wraps it by name, and for its unit test.
    """
    total = 0.0
    for d in dzs:
        if axis is Axis.X:
            lo, size = d.rect.x, d.rect.w
        else:
            lo, size = d.rect.y, d.rect.l
        if lo <= value < lo + size:
            total += reward_rate(d.v, z, eta)
    return total


def _is_single(s: CandidateSet) -> bool:
    return s[2] is not None or s[1] - s[0] == 1


def _value(s: CandidateSet, grid: Sequence[float]) -> float:
    """The coordinate of a singleton set on ``grid``."""
    return grid[s[0]] if s[2] is None else s[2]


def _pin(v: float, grid: Sequence[float], eps: float) -> CandidateSet:
    """The singleton set of an abutment position ``v``, with its bounding block."""
    return (*_axis_indices(v, grid, eps), v)


def is_leaf(node: Node) -> bool:
    """Every candidate set fixed, and with them every scale (:data:`_OPEN` is no singleton).

    This holds in the x phase too when each of a scale's grids holds one
    value, so such a node is evaluated there and not branched.
    """
    return all(map(_is_single, node.x_sets)) and all(map(_is_single, node.y_sets))


def leaf_placements(node: Node, matrices: Mapping[float, RewardMatrix]) -> tuple[Placement, ...]:
    """A leaf's placements, its grid positions read from its scales' matrices (y is 0 on the line)."""
    return tuple(
        Placement(_value(xs, matrices[z].xs.values), _value(ys, matrices[z].ys.values), z)
        for xs, ys, z in zip(node.x_sets, node.y_sets, node.z_vec)
    )


def _replace_at(sets: tuple[CandidateSet, ...], j: int, s: CandidateSet) -> tuple[CandidateSet, ...]:
    return sets[:j] + (s,) + sets[j + 1 :]


def _first_per_class(zones: Sequence[int], instance: Instance) -> list[int]:
    """Of ``zones``, given in index order, the lowest-indexed zone of each class of equal menus."""
    first: dict[tuple[float, ...], int] = {}
    for j in zones:
        first.setdefault(instance.qos_for(j).factors, j)
    return list(first.values())


def _order_step_children(node: Node, instance: Instance) -> list[Node]:
    """Pick which zone settles its y next (see module docstring, order step).

    Interchangeability holds only for zones of one class sitting on their
    *own* scale's grid (any other assignment of their (x, scale) pairs
    exists elsewhere in the tree); a zone pinned at an abutment position is
    tied to the zones that generated it, even if the value happens to equal
    some other scale's grid value, so each such zone gets its own child.
    Abutment positions lie more than ``epsilon`` off the own-scale grid, so a
    set without ``v`` is on it.
    """
    open_idx = [j for j in range(instance.p) if not _is_single(node.y_sets[j])]
    pinned = [j for j in open_idx if node.x_sets[j][2] is not None]
    on_grid = [j for j in open_idx if node.x_sets[j][2] is None]
    chosen = sorted(_first_per_class(on_grid, instance) + pinned)
    return [Node(node.x_sets, node.y_sets, node.z_vec, Axis.Y, j) for j in chosen]


def _with_scale(node: Node, j: int, z: float, grids: CandidateGrids) -> Node:
    """``node`` with zone ``j`` at scale ``z`` on its whole grids, narrowed next on x."""
    m = grids.matrices[z]
    return Node(
        _replace_at(node.x_sets, j, (0, len(m.xs), None)),
        _replace_at(node.y_sets, j, (0, len(m.ys), None)),
        node.z_vec[:j] + (z,) + node.z_vec[j + 1 :],
        Axis.X,
        j,
    )


def _x_step(node: Node, j: int, instance: Instance, grids: CandidateGrids, config: SolverConfig) -> list[Node]:
    """Zone ``j``'s next step on x: the scale step while its scale is open, else the interval step."""
    if node.z_vec[j] == _UNSET:
        return [_with_scale(node, j, z, grids) for z in instance.qos_for(j).factors]
    return _interval_children(node, j, Axis.X, instance, grids, config)


def branch(
    node: Node, instance: Instance, grids: CandidateGrids, config: SolverConfig
) -> list[Node]:
    """Children of a non-leaf node, plane or line, in exploration order (module docstring)."""
    j = node.bs
    if node.ba is Axis.X:
        if j >= 0:
            return _x_step(node, j, instance, grids, config)
        unplaced = [k for k, s in enumerate(node.x_sets) if not _is_single(s)]
        if unplaced:
            # no zone is being narrowed: each class's lowest unplaced zone takes its first step
            return [c for k in _first_per_class(unplaced, instance) for c in _x_step(node, k, instance, grids, config)]
    elif not _is_single(node.y_sets[j]):
        return _interval_children(node, j, Axis.Y, instance, grids, config)
    # Every x fixed, or zone j's y settled: the order step picks who is next.
    return _order_step_children(node, instance)


def _interval_children(
    node: Node, j: int, axis: Axis, instance: Instance, grids: CandidateGrids, config: SolverConfig
) -> list[Node]:
    """Interval step: split zone ``j``'s candidate set on ``axis``.

    On its first split (the set is still the whole own-scale grid) zone ``j``
    is also pinned at the abutment positions of zones already fixed on
    ``axis``.  Values on *another* scale's grid stay among them: they are
    never enumerated for this zone otherwise (with a {1, 2} menu,
    left-abutting a scale-1 zone that sits on a scale-1 grid value always
    lands on a scale-2 grid value, so dropping them loses real optima).  On
    x the grid parts of a first split follow the grid-order rule (module
    docstring): a zone above ``j`` already on a grid of more than one value
    leaves only the pins.  On x a singleton child is placed and no zone is
    narrowed next (``bs == -1``).
    """
    on_x = axis is Axis.X
    sets = node.x_sets if on_x else node.y_sets
    z = node.z_vec[j]
    grid = _grid(grids.matrices[z], axis)
    parts = grids.split(z, axis, sets[j], config.beta)
    if sets[j] == (0, len(grid), None):
        fixed = [
            (_value(s, _grid(grids.matrices[zk], axis)), zk)
            for k, (s, zk) in enumerate(zip(sets, node.z_vec))
            if k != j and zk != _UNSET and _is_single(s)
        ]
        # grid-order rule: a zone above j already on a grid value, of a grid of more than one
        if on_x and any(s[2] is None and s[1] - s[0] == 1 < len(grids.matrices[zk].xs)
                        for s, zk in zip(sets[j + 1 :], node.z_vec[j + 1 :])):
            parts = ()
        full = config.scv_mode == "full"
        eps = config.epsilon
        pins = abutment_values(fixed, z, instance.base, axis, full, grid, eps)
        parts += tuple(_pin(v, grid, eps) for v in pins)
    if on_x:
        return [
            Node(_replace_at(sets, j, part), node.y_sets, node.z_vec, Axis.X, -1 if _is_single(part) else j)
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


def _block_sum(node: Node, matrices: Mapping[float, RewardMatrix]) -> float:
    """Each zone's best entry of its scale's matrix over the block its sets name, summed.

    A zone with an open scale takes the best entry of every matrix, taken
    once per call and only when some scale is open.
    """
    total = 0.0
    best_any = None
    for xs, ys, z in zip(node.x_sets, node.y_sets, node.z_vec):
        if z == _UNSET:
            if best_any is None:
                best_any = max(m.max_entry for m in matrices.values())
            total += best_any
            continue
        total += matrices[z].block_max(xs[0], xs[1], ys[0], ys[1])
    return total


def _gain_sum(
    residual: ResidualDemand,
    zones: Sequence[tuple[float, float, Sequence[float], CandidateSet]],
    axis: Axis,
    limit: float = math.inf,
) -> float:
    """``f(A)`` plus each of ``zones``' best gain over ``A`` across its set on ``axis`` (module docstring).

    ``A`` is ``residual``'s placements and each of ``zones`` is ``(z, c,
    grid, s)``: its scale, its fixed corner on the other axis, its grid and
    its set on ``axis``.
    A whole grid takes the gain's maximum over every real position, a slice
    (a grid singleton too) its maximum over the slice's values and an
    abutment singleton its gain at the pinned value.  Every gain is at least
    0, so the sum stops, short of its full value, once it is above
    ``limit``.
    """
    total = residual.served
    for z, c, grid, (lo, hi, v) in zones:
        if total > limit:
            break
        if v is not None:
            total += residual.gain_at(z, c, axis, v)
        elif lo == 0 and hi == len(grid):
            total += residual.best_gain(z, c, axis)
        else:
            total += float(residual.gain_column(z, c, axis, grid)[lo:hi].max())
    return total


def upper_bound(
    node: Node, grids: CandidateGrids, instance: Instance, eps: float = EPS, floor: float = -math.inf
) -> float:
    """Optimistic value of the best completion below ``node``, plane or line.

    Each zone contributes the best isolated reward reachable from its
    candidate sets (overlap between zones only lowers the true value, so the
    sum is a valid bound): the maximum of the block
    ``entries[xlo:xhi, ylo:yhi]`` of its scale's reward matrix, whose index
    ranges its sets ``(xlo, xhi, _)`` and ``(ylo, yhi, _)`` hold and whose
    maximum ``RewardMatrix.block_max`` memoises (:func:`_block_sum`).
    ``grids.matrices`` must be tabulated over the grids the node's sets
    index.  A line zone's y set is the single index of its matrix's one y
    value, 0.

    A node at or below ``floor + eps`` on that isolated sum returns it.  A
    leaf above it is evaluated exactly with ``covered_reward`` on
    ``instance.planar``.  Any other node takes the smaller of the sum and
    ``grids.lagrangian``'s bound when the solve keeps one, and returns it
    when it is at or below ``floor + eps``.  Past that, a node with a
    ``residual_axis`` (the plane's y phase, every line node), where every
    coordinate on the other axis is fixed, takes one more bound
    (module docstring).  With a zone placed on that axis it is the residual
    bound: ``f(S)`` plus each other zone's best gain over ``S``, read from
    the :class:`~rectcover.reward.ResidualDemand` of ``S`` that
    ``grids.residuals`` keeps.  With none placed it is the reference-set
    bound, the least over the sets ``A`` of ``grids.references`` of ``f(A)``
    plus every zone's best gain over ``A`` (:func:`_gain_sum`); with no
    reference set it is not taken.  Both read a set that is its zone's whole
    grid at every real position, a strict slice at its values.  With the
    default ``floor`` every leaf is exact.
    """
    matrices, lagrangian = grids.matrices, grids.lagrangian
    total = _block_sum(node, matrices)
    if total <= floor + eps:
        return total
    axis = node.residual_axis  # y at every leaf
    if axis is None:
        return total if lagrangian is None else min(total, lagrangian.bound(node))
    # the other axis is fixed from here on, so the node is a leaf when no set is open
    on_x = axis is Axis.X
    placed = []
    opened = []
    for xs, ys, z in zip(node.x_sets, node.y_sets, node.z_vec):
        m = matrices[z]
        free, grid = (xs, m.xs.values) if on_x else (ys, m.ys.values)
        if _is_single(free):
            placed.append((z, _value(xs, m.xs.values), _value(ys, m.ys.values)))
        else:
            opened.append((z, _value(ys, m.ys.values) if on_x else _value(xs, m.xs.values), grid, free))
    if not opened:
        dzs, base = instance.planar
        return covered_reward(dzs, leaf_placements(node, matrices), base, instance.eta, eps)
    if lagrangian is not None:
        total = min(total, lagrangian.bound(node))
        if total <= floor + eps:
            return total
    if not placed:
        for k in range(len(grids.references)):
            total = min(total, _gain_sum(grids.reference(k, instance, eps), opened, axis, total))
            if total <= floor + eps:
                break
        return total
    key = tuple(sorted(placed))
    cache = grids.residuals
    residual = cache.pop(key, None)
    if residual is None:
        dzs, base = instance.planar
        residual = ResidualDemand(dzs, [Placement(x, y, z) for z, x, y in key], base, instance.eta, eps)
        if len(cache) >= RESIDUAL_CACHE_SIZE:
            del cache[next(iter(cache))]
    cache[key] = residual
    return min(total, _gain_sum(residual, opened, axis, total))


def fit_lagrangian(
    root: Node, instance: Instance, matrices: Mapping[float, RewardMatrix], lower: float
) -> Lagrangian | None:
    """The Lagrangian bound of the best ``mu`` a subgradient fit at ``root`` finds (module docstring).

    ``matrices`` are the solve's reward matrices, one per scale, whose rates
    and overlap tables the fit reads.  Returns None when the fit does not
    lower ``root``'s Lagrangian bound below its start, the isolated sum, by
    a relative ``FIT_GAIN``.  Zones with the same scale and candidate sets
    (at the root, every zone on the plane and every zone of one scale on the
    line) share their argmax, so each such group adds its subgradient once,
    times its size.  A step tabulates each scale's ``L_z`` as
    :meth:`Lagrangian.of` does and takes its first maximum once; the
    :class:`Lagrangian` itself is built once, for the best ``mu``.
    """
    x, y, w, l, _ = demand_rows(instance.planar[0]).T
    area = ((x + w) - x) * ((y + l) - y)
    scales = list(matrices)
    rates = np.stack([matrices[z].rates for z in scales], axis=1)
    groups = Counter(zip(root.x_sets, root.y_sets, root.z_vec)).items()
    rows = np.arange(len(area))
    mu = best_mu = rates
    best, mark = math.inf, math.inf
    step, since_best, since_gain = FIT_STEP, 0, 0
    for n in range(FIT_STEPS):
        slack = rates - mu
        top = slack.argmax(axis=1)
        paid = slack[rows, top] > 0.0
        grad = np.zeros_like(mu)
        grad[rows[paid], top[paid]] = -area[paid]
        value = float(area @ slack.max(axis=1, initial=0.0))  # T1
        # every scale's L_z, as Lagrangian.of tabulates it, and its first maximum
        tables = [m.reweighted_entries(mu[:, s]) for s, m in enumerate(matrices.values())]
        peaks = [int(t.argmax()) for t in tables]
        for (xs, ys, z), count in groups:
            if z == _UNSET:  # an open zone takes the best scale's whole grid
                z = scales[max(range(len(scales)), key=lambda s: tables[s].flat[peaks[s]])]
                xs, ys = (0, len(matrices[z].xs), None), (0, len(matrices[z].ys), None)
            s = scales.index(z)
            m, table = matrices[z], tables[s]
            block = table[xs[0] : xs[1], ys[0] : ys[1]]
            i, k = divmod(peaks[s] if block.shape == table.shape else int(block.argmax()), block.shape[1])
            value += count * float(block[i, k])
            grad[:, s] += count * m.ox[:, xs[0] + i] * m.oy[:, ys[0] + k]
        start = value if n == 0 else start
        if value < best:
            best, best_mu, since_best = value, mu, 0
        else:
            since_best += 1
            if since_best >= FIT_HALVE_AFTER:
                step, since_best = step / 2.0, 0
        if value < mark * (1.0 - FIT_GAIN):
            mark, since_gain = value, 0
        else:
            since_gain += 1
        norm = float((grad * grad).sum())
        if value <= lower or since_gain >= FIT_STALL or norm == 0.0:
            break
        mu = np.maximum(mu - (step * (value - lower) / norm) * grad, 0.0)
    return Lagrangian.of(best_mu, rates, area, matrices) if best < start * (1.0 - FIT_GAIN) else None


def root_node(instance: Instance, grids: CandidateGrids) -> Node:
    """Each zone whose menu holds one scale at that scale on its whole grids, every other zone open."""
    p = instance.p
    node = Node((_OPEN,) * p, (_OPEN,) * p, (_UNSET,) * p)
    for j in range(p):
        factors = instance.qos_for(j).factors
        if len(factors) == 1:
            node = _with_scale(node, j, factors[0], grids)
    return node._replace(bs=-1)


def solve(instance: Instance, config: SolverConfig | None = None) -> tuple[Solution, SolverStats]:
    """Exact solve of a plane or line instance by depth-first branch and bound.

    Returns the optimal solution unless the time limit is hit first, in which
    case the best feasible solution found is returned with
    ``stats.optimal == False``.

    A greedy run seeds the incumbent, valued at the covered reward of its
    placements; ``stats`` keeps greedy's claimed reward and run time.
    ``grids`` (:class:`CandidateGrids`) is built once, :func:`root_node`
    builds the root, and the Lagrangian bound is fitted at it
    (:func:`fit_lagrangian`; ``stats.fit_s``, and the root's bound in
    ``stats.root_bound``) and kept in ``grids``, with the greedy seed's
    proper prefixes as the reference sets of the reference-set bound.
    Every popped node is bounded with ``upper_bound(node, grids, ...)``
    against ``lower``, the incumbent's reward, and is cut when the bound
    cannot beat the incumbent by more than ``epsilon``.  A
    surviving leaf (:func:`is_leaf`), whose bound is then its exact value,
    becomes the incumbent (:func:`leaf_placements`); any other node is
    replaced by its children (:func:`branch`), explored in the order given.

    No placement earns more than ``ceiling``, every demand zone's area paid
    at the smallest scale's rate, so the search stops, proven, as soon as
    the incumbent is at least ``ceiling * (1 - LAG_MARGIN)`` (the greedy
    seed included), a relative tolerance of 1e-12 for the two sums' rounding
    (module docstring).
    When the time limit is hit the incumbent is returned with
    ``stats.optimal == False``; ``stats.upper_bound`` is then the largest of
    ``lower + epsilon`` and the bounds (exact at leaves) of the nodes left on
    the stack.  A proven solve reports ``upper_bound == lower``.
    """
    config = config or SolverConfig()
    eps = config.epsilon
    stats = SolverStats()
    start = time.perf_counter()

    seed = greedy(instance, eps).solution
    stats.greedy_time = stats.optimal_found_time = time.perf_counter() - start
    stats.greedy_reward = seed.reward
    incumbent = seed.placements
    # Greedy claims the sum of its rounds' gains, which pays a later round's
    # smaller zone nothing over demand an earlier, larger zone already
    # served; the covered reward pays the better rate there.
    lower = covered_reward(instance.dzs, incumbent, instance.base, instance.eta, eps)
    stats.best_reward_history.append((0, lower))
    dzs, _ = instance.planar
    z_min = instance.scale_values()[0]
    # the docstring's ceiling, less its relative margin
    enough = sum(reward_rate(d.v, z_min, instance.eta) * d.rect.w * d.rect.l for d in dzs) * (1.0 - LAG_MARGIN)

    if lower < enough:
        grids = CandidateGrids.from_instance(instance, eps)
        top = root_node(instance, grids)
        references = tuple(seed.placements[:k] for k in range(1, instance.p))  # greedy's proper prefixes
        fit_start = time.perf_counter()
        grids = replace(grids, lagrangian=fit_lagrangian(top, instance, grids.matrices, lower), references=references)
        stats.fit_s = time.perf_counter() - fit_start
        stats.root_bound = upper_bound(top, grids, instance, eps)
        stack = [top]
        while stack:
            if time.perf_counter() - start > config.time_limit_s:
                stats.optimal = False
                break
            node = stack.pop()
            stats.nodes_explored += 1
            value = upper_bound(node, grids, instance, eps, lower)
            if value <= lower + eps:
                continue
            if is_leaf(node):
                lower = value
                incumbent = leaf_placements(node, grids.matrices)
                stats.best_reward_history.append((stats.nodes_explored, lower))
                stats.optimal_found_time = time.perf_counter() - start
                if lower >= enough:
                    break
                continue
            stack.extend(reversed(branch(node, instance, grids, config)))

    if stats.optimal:
        stats.upper_bound = lower
    else:
        # Every cut node was within eps of an incumbent no better than the
        # last; the open nodes are bounded once more, exactly at leaves.
        stats.upper_bound = max([lower + eps] + [upper_bound(n, grids, instance, eps) for n in stack])
    stats.gap = (stats.upper_bound - lower) / stats.upper_bound if stats.upper_bound > 0 else 0.0
    stats.wall_time = time.perf_counter() - start
    return Solution(incumbent, lower), stats

