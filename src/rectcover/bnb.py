"""Exact solver, plane and line: depth-first branch and bound over candidate grids.

Every service zone's corner coordinates can be restricted, without losing any
optimum, to a finite grid: the inner-demand breakpoints of its own scale plus
the outer service breakpoints generated by zones already pinned down.  A line
instance is searched as its lifted demand (``Instance.planar``), whose y
grids hold the one value 0, so one tree serves both.  Zones with equal menus
form a *class*.  The tree narrows the per-zone candidate sets step by step,
first on x, then on y; the phase is not stored, as a node is in the y phase
exactly when every x set is a singleton:

* root — a zone whose menu holds one scale (every zone on the line) starts
  at that scale on its whole grids; every other zone starts open;
* scale step — an open zone's first step gives one child per menu entry,
  which fixes its scale and swaps in that scale's grids (a zone whose x grid
  at that scale holds one value is then placed, and no zone is narrowed
  next);
* interval step — a zone's x (later y) candidate set, a slice of its grid,
  is cut into :data:`PARTS` runs of near-equal length (fewer when it holds
  fewer positions; :func:`partition`), whatever the coordinates; children
  are visited by decreasing :func:`priority_score`, the best isolated reward
  over their candidates (their block of the scale's reward matrix, taken
  over every position on the other axis), until the set is a singleton.
  When a zone is first split, extra children pin it directly at the abutment
  positions of already-fixed zones (positions off its own-scale grid, to the
  grid's own tolerance);
* next zone — when no zone is being narrowed on the current axis (x while
  some x set is open, else y), the candidates are the zones whose set on
  it is open: the lowest-indexed zone of each class among those on their
  own scale's grid on the other axis, plus every zone pinned there at an
  abutment value (none in the x phase, as no y is narrowed before it ends).
  The children are, candidate by candidate in index order, its first step:
  the scale step while its scale is open, else its interval step.  With one
  class and no pin this is index order;
* grid-order rule — at a zone's first split on either axis, the grid parts
  are generated only when its index is above every zone already settled on
  its own grid on that axis (``v`` None, a grid of one value aside); the
  abutment pins always are.

Completeness.  On each axis the candidate set holds an optimum in which some
order of the zones puts each one on its own scale's grid or at an abutment
of a zone placed before it (the oracle, ``oracle._axis_tuples``, enumerates
every such order).  A zone whose abutment value lies on its own grid counts
as on its grid: ``critical.abutment_pins`` drops that pin, and the search
reaches the value as a grid part.  Take such an optimum, and such an order
on each axis in turn, x then y.  The zones on their grid depend on no other
zone, so they can all move to the front, and every abutment still follows
the zone it abuts.  Zones of one class share a menu, so swapping two of
their labels changes no reward: relabel each class so that its zones come
in index order along the order (on y only its zones on their own x grid;
zones pinned on x keep their labels), then sort the front by index.  The
relabelled zones of a class stay in index order, as its front zones come
first and so hold its lowest labels.  The y relabelling leaves the x
search's reach alone: it permutes labels only among a class's zones on
their own x grid, which sit at the front on x in index order and may take
any grid values there.  The search reaches the order: each next zone is a
candidate of the next-zone rule (on y a zone pinned on x, tied to the zones
it abuts, is a candidate of its own); its scale is one of its scale step's
children; and it is either a grid part, its index being above every grid
zone before it, or a pin of a zone before it.

A zone whose grid holds one value ``a`` on an axis is placed at ``a`` as
soon as its scale is fixed, from the root or by its scale step, and is
never pinned on that axis: every demand zone then spans exactly its width
from ``a`` on that axis, so at ``a`` the zone covers a superset of what it
covers at any other position, an abutment pin included, and covered reward
is monotone in what each zone covers, so the pins are dominated.  A zone
that abuts it there covers no demand on that axis and can sit on its own
grid instead; the grid-order rule leaves such zones out on both axes, and
is not applied to them either, which only keeps more of the tree.

The residual axis of a node follows from its sets: y once every x set is a
singleton, x once every y set is (the line, from its root on), none
otherwise.  The bound (:func:`upper_bound`), the leaf test (:func:`is_leaf`)
and the leaf placements (:func:`leaf_placements`) read only the sets, the
scales and that axis.  The bound and the branching rule take the solve's
state as one :class:`CandidateGrids`: its matrices, its Lagrangian bound,
the keys of greedy's prefixes for the residual-demand bound, and its memos,
one of which holds every residual-demand state.  The covered reward of a
greedy run's placements seeds the incumbent; a node is cut as soon as its
optimistic bound cannot beat the incumbent by more than a relative
:data:`RTOL` (Tolerances, below).

Per-node work scans no candidate set or demand and maps no value to an
index.  Each scale's reward matrix, and with it the grids it is tabulated
over, is built once per solve (``CandidateGrids``), before the greedy seed,
whose first round reads the same matrices; its entries are one matrix
product of the matrix's overlap tables (``reward.RewardMatrix``).  A
candidate set is a triple ``(lo, hi, v)`` of positions in its zone's
own-scale grid: the slice ``grid[lo:hi]`` when ``v`` is None (splitting only
cuts slices), else the abutment position ``v``, on no grid, bounded by the
block ``[lo, hi)`` (``critical.abutment_pins``, once per child).  A zone's
bound is its matrix's maximum over the block its two sets name, memoised by
``RewardMatrix.block_max`` because a solve asks for few distinct blocks many
times; a child's rank (:func:`priority_score`) is the same memoised maximum
over its range on one axis and the whole grid on the other.  A slice's
interval split depends only on its length, and its ranking on its scale,
axis and range, so :meth:`CandidateGrids.split` computes and ranks it once
per solve and keeps the parts as a tuple.

The driver passes the incumbent's reward to the bound as ``floor``.  A leaf's
exact value, which trims overlapping coverage, is never above the sum of its
zones' isolated rewards, so a leaf whose isolated sum is already at most
``floor * (1 + RTOL)`` is cut on that sum and never evaluated exactly.  A
leaf's sum reads the same memoised product entries as any other node's (each
zone's block holds at most 2 x 2 cells), and is scaled once by ``1 + RTOL``
before it is compared, so a cut leaf's returned sum is never below its exact
value by rounding (Tolerances, below).  A leaf that survives is valued by
``covered_reward`` alone.  A node is a leaf when its residual axis is y
and every y set is a singleton.

Residual-demand bound.  The isolated sum ignores that zones already placed
have served demand.  Covered reward ``f`` in best-rate form (each point paid
once, at the best rate covering it) is a weighted-coverage function, which
is monotone submodular, so for any set of placements ``A``, ``f(X) <= f(A +
X) <= f(A) + sum over t in X of [f(A + t) - f(A)]`` (Nemhauser, Wolsey and
Fisher, 1978): the first step by monotonicity, the second by submodularity
(adding ``X``'s zones to ``A`` one at a time, each gains at most what it
gains over ``A`` alone), a zone of ``X`` that ``A`` already holds gaining 0.
One run of the trimming loop of ``covered_reward`` over ``A`` gives ``f(A)``
and the demand pieces with the rate each is already paid (0 if unserved);
adding ``t`` at scale ``z`` gains ``max(0, v / eta(z) - paid)`` per unit of
piece it covers (``reward.ResidualDemand``).  The bound applies once every
scale and x is fixed (the y phase), or every y (the line), where ``t`` has a
fixed corner on one axis and a candidate set on the other, so its gain is a
function of one coordinate ``c``.  Two choices of ``A`` are taken, never
mixed:

* with some zone placed on that axis, ``A = S``, the zones whose
  coordinates are all singletons.  They gain 0 over ``S``, so the sum runs
  over the others, the open zones ``T``;
* with none placed in the plane's y phase (before the first y is
  settled; ``S`` empty would give back the isolated sum), ``A`` is each
  proper prefix ``g1..gk`` (``k = 1 .. p - 1``) of the greedy seed's
  placements, in round order, and the least of the sums is taken:
  greedy's first zones serve the most demand, so ``f(A)`` is large and
  what any completion gains over it small.  Every zone is open there.

A node on x with no zone placed, as a line node above the first
placement, takes no residual-demand bound: there greedy's prefixes cut 2 of
the 16,972 nodes of the ``line`` fingerprint set (``tools/fingerprint.py``)
and none of ``line-p4``'s 75,698, for ``p - 1`` states per solve and a sum
of gains over each at every such node.

Each ``A`` is one :class:`~rectcover.reward.ResidualDemand`, named by a
key (:data:`Key`): its zones ``(z, x, y)`` in the trimming loop's order, by
ascending scale with ties in order (``S`` sorted, greedy's prefixes with
ties in round order).  Every state lives in one cache,
``CandidateGrids.residuals``, at most :data:`RESIDUAL_CACHE_SIZE`, least
recently used dropped, so its memoised gains serve many nodes, and is built
one way (``CandidateGrids.residual``): a missing state extends the longest
cached prefix of its key, or the demand itself when none is cached, by
serving the rest of the key over the prefix's unserved rows
(``ResidualDemand.extended``).  The loop serves the key's zones in the
key's order, so the rows a prefix leaves are those the loop leaves before
the rest, and the state is the one built from the demand, bit for bit.
``CandidateGrids.references`` holds greedy's prefixes as keys alone, so a
solve whose bound never reads them, as a line solve, builds none of their
states.  An open zone's term (:func:`_gain_sum`) is its
gain's maximum over the positions its set may still reach:

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
  grid value and no ``service_breakpoints`` of ``A`` are needed).

A reference set at nodes with settled zones would need each settled zone's
gain over ``A`` at its one position as well, which no term here takes; the
x phase is left out, as a zone with both coordinates open needs its gain's
maximum over two dimensions.  ``f(A)`` and the gains are sums of
nonnegative terms taken in another order than ``covered_reward``'s; their
rounding is relative, and :data:`RTOL` covers it.

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
``z``'s own grids as the ``RewardMatrix`` of rates ``mu[:, z]`` on the
overlap tables kept on scale ``z``'s matrix: its entries are the one
product ``(ox * mu[:, z]).T @ oy`` (``reward.table_product``) that
``build_reward_matrix`` takes at ``mu = r``.  A node's Lagrangian bound is
``T1`` plus one memoised ``block_max`` per zone of those tables (an open
zone takes the best entry over its menu's tables), what the isolated sum
costs.  One constructor, :meth:`Lagrangian.of`, builds the bound of any
multipliers, the fit's and those found by other means alike, reading each
scale's rates off its matrix.

``mu`` is fitted once per solve, at the root, by projected subgradient
(:func:`fit_lagrangian`): it starts at ``mu = r``, where the root bound is
the isolated sum, and steps toward ``lower`` (greedy's covered reward) with
a Polyak step.  A subgradient of the root bound is ``-area(d)`` at each
demand zone's maximising scale in ``T1`` (where positive), plus, per zone,
the overlap with every demand zone of the argmax of its ``L_z``.  At most
:data:`FIT_STEPS` steps; the step factor starts at :data:`FIT_STEP` and
halves after :data:`FIT_HALVE_AFTER` steps without a new best; the fit stops
after :data:`FIT_STALL` steps without a gain of :data:`FIT_GAIN` relative,
or once the bound is at or below ``lower``.  Every solve keeps the bound of
the best ``mu`` seen, however little it gains over the start.  Each step,
the first at ``mu = r`` included, tabulates each scale's ``L_z`` as a bare
array, one ``table_product`` per scale; the fit keeps only the best step's
``mu`` and returns ``Lagrangian.of`` of it, one more product per scale.

The bound is not bit-exact: ``T1`` and ``L_z`` are matrix products summed
in another order than the in-order sums and ``covered_reward``, each a sum
of nonnegative terms off by a relative error of about the number of demand
zones times 2**-52.  So it is scaled by ``1 + RTOL`` before it is compared
(Tolerances, below).

A node's bound is the smallest of the isolated sum, the Lagrangian bound
and the residual-demand bound, each computed only while the ones before it
leave the node above the incumbent's reward times ``1 + RTOL``, so nodes
the sum already cuts cost what they did.  Every gain is at least 0, so a
sum of gains stops once it is above the least bound taken so far, which it
can no longer lower; every value returned is still a bound.

No placement earns more than ``ceiling``, every demand zone's area paid
at the smallest scale's rate, so the search stops, proven, once the
incumbent is at least ``ceiling * (1 - RTOL)``.  The incumbent's covered
reward and ``ceiling`` sum the same terms in another order, so an incumbent
that earns all the demand can fall a few ulps short of ``ceiling``.

Tolerances.  A solve that reports ``optimal`` returns a reward ``R`` such
that no placement earns more than ``R * (1 + RTOL)``, with :data:`RTOL` =
1e-12, up to rounding that is relative and far smaller (a few ulps per
demand zone): the isolated sums of inner nodes read matrix products, which
differ from the in-order sums by such rounding.  A product entry over ``n``
demand pieces differs from its in-order sum, the zone's reward alone as
``covered_reward`` sums it, by at most about ``n * 2**-52`` relative, below
``RTOL`` for ``n`` up to about 4,500.  That premise carries both margins
that must stay above an exact value: a leaf's sum scaled by ``1 + RTOL``
before its cut, and the Lagrangian bound's.  Inner nodes' sums are compared
unscaled: their rounding is the far smaller slack above, and scaling them as
well only grows the search.  A surviving leaf is valued by
``covered_reward`` alone, so every incumbent is an exact covered reward.
When the time limit stops a search, every node still on the stack is
bounded once more; the largest of those bounds and ``R * (1 + RTOL)``, the
margin every cut node was within, is a certified upper bound on the
optimum, reported with the relative gap in :class:`SolverStats`.  No
tolerance is a setting.  Each is in the unit of the numbers it compares and
taken from them, so a change of units scales it with the data:

* rewards: a node is cut when its bound is at most the incumbent's reward
  times ``1 + RTOL``; a leaf's isolated sum and the Lagrangian bound are
  scaled by ``1 + RTOL``, and the total-demand stop is taken at ``ceiling *
  (1 - RTOL)``;
* coordinates: two values of one grid are one value when they are closer
  than ``critical.COORD_RTOL`` (1e-12) times the grid's largest magnitude
  (``critical.grid_tol``), and an abutment position is pinned only when it
  lies off its own-scale grid by that grid's test;
* areas: trimming drops only the pieces whose computed area is 0
  (``reward.serve_zone``).
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .geometry import Axis
from .critical import abutment_pins
from .greedy import greedy
from .model import Instance, Placement, Solution, demand_rows, reward_rate
from .reward import ResidualDemand, RewardMatrix, build_reward_matrix, covered_reward, table_product

_UNSET = 0.0  # marker for a scale not chosen yet (real scales are >= 1)

#: A candidate set ``(lo, hi, v)`` on one axis of a zone's own-scale grid:
#: the slice ``grid[lo:hi]`` when ``v`` is None, else the single value ``v``
#: bounded by the block ``[lo, hi)``.
CandidateSet = tuple[int, int, float | None]

#: The candidate set of a zone whose scale is still open; it indexes no grid.
_OPEN: CandidateSet = (0, 0, None)

#: The key of a placement set's residual-demand state: each zone's ``(z, x,
#: y)``, in the order the trimming loop serves them (:func:`_key`).
Key = tuple[tuple[float, float, float], ...]

#: Most residual states a solve keeps, least recently used dropped first.
#: At planar p=3 m=2 n=8 (seed 9, 161k nodes) a solve builds 9.5k distinct
#: states: keeping all of them raises its peak memory by about 35 MB,
#: keeping 1024 rebuilds 6% more of them, and keeping only those on the
#: current search path rebuilds 5x more and runs 1.8x slower.
RESIDUAL_CACHE_SIZE = 1024

#: The Lagrangian fit (module docstring): most steps, first Polyak step
#: factor, steps without a new best before it halves, steps without a
#: relative gain of ``FIT_GAIN`` before the fit stops.  The fit takes at
#: least one step, so ``FIT_STEPS`` is at least 1.
FIT_STEPS = 40
FIT_STEP = 2.0
FIT_HALVE_AFTER = 5
FIT_STALL = 10
FIT_GAIN = 1e-3
#: The one reward tolerance, relative (module docstring, Tolerances).
RTOL = 1e-12
#: The interval step cuts a slice into this many runs of near-equal length
#: (:func:`partition`).
PARTS = 4


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by the exact solvers: the time limit and which service breakpoints pin a zone.

    The search's tolerances are no setting: each is derived from the data
    (``bnb`` module docstring, Tolerances), and the interval step cuts a
    slice into the constant :data:`PARTS` runs.
    """

    time_limit_s: float = 18000.0
    scv_mode: str = "outer"

    def __post_init__(self) -> None:
        if not self.time_limit_s >= 0:
            raise ValueError(f"time_limit_s must be >= 0, got {self.time_limit_s}")
        if self.scv_mode not in ("outer", "full"):
            raise ValueError(f"scv_mode must be 'outer' or 'full', got {self.scv_mode!r}")


class Node(NamedTuple):
    """Search node: per-zone candidate sets plus the zone being narrowed.

    ``x_sets[j]`` and ``y_sets[j]`` are zone ``j``'s :data:`CandidateSet` on
    the grids of its scale ``z_vec[j]`` (the ``xs`` and ``ys`` of
    ``CandidateGrids.matrices[z_vec[j]]``); ``z_vec[j] == 0`` means that
    scale is still open and both sets are :data:`_OPEN`.  The two come
    first, x then y, so ``node[axis]`` is the sets on ``axis`` and
    ``node[1 - axis]`` those on the other (:class:`~rectcover.geometry.Axis`).
    The phase follows from the sets: x while some x set is open, y once
    every x set is a singleton.  ``bs`` is the zone being narrowed on that
    axis, -1 when none is: at the root, once the zone's set on the axis is
    a singleton, and after a scale step onto an x grid of one value (the
    next zone is then chosen; module docstring).
    """

    x_sets: tuple[CandidateSet, ...]
    y_sets: tuple[CandidateSet, ...]
    z_vec: tuple[float, ...]
    bs: int = -1

    @property
    def residual_axis(self) -> int | None:
        """The axis the residual-demand bound runs on: y once every x is fixed, x once every y is, else None."""
        if all(map(_is_single, self.x_sets)):
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
    def of(cls, mu: np.ndarray, area: np.ndarray, matrices: Mapping[float, RewardMatrix]) -> "Lagrangian":
        """The bound of the multipliers ``mu[d, s]``, column ``s`` for the ``s``-th scale of ``matrices``.

        ``matrices`` are a solve's reward matrices, whose ``rates`` are the
        ``r[d, z]`` of ``T1``, and ``area[d]`` is demand zone ``d``'s area
        in planar form.  ``L_z`` is the ``RewardMatrix`` of ``mu[:, s]`` on
        ``matrices[z]``'s grids and overlap tables, one product per scale.
        Every Lagrangian bound is built here, the fit's included, so no
        table can disagree with the rates it pairs.
        """
        rates = np.stack([m.rates for m in matrices.values()], axis=1)
        t1 = float(area @ (rates - mu).max(axis=1, initial=0.0))
        return cls(t1, {z: RewardMatrix(m.xs, m.ys, mu[:, s], m.ox, m.oy) for s, (z, m) in enumerate(matrices.items())})

    def bound(self, node: Node) -> float:
        """``T1`` plus each zone's best ``L`` over its candidate sets, with the rounding margin."""
        return (self.t1 + _block_sum(node, self.matrices)) * (1.0 + RTOL)


@dataclass(frozen=True)
class CandidateGrids:
    """A solve's state: per-scale reward matrices, built once, its Lagrangian bound, greedy's prefixes and two memos.

    ``matrices[z]`` is tabulated over scale ``z``'s grids, ``xs.values`` and
    ``ys.values``; every candidate set of a scale-``z`` zone indexes them.
    ``lagrangian`` is the Lagrangian bound :func:`fit_lagrangian` fitted,
    None only on a bare ``CandidateGrids`` before the fit.  ``references``
    holds the keys of the reference sets ``A`` of the residual-demand bound
    at y-phase nodes with nothing placed: greedy's proper prefixes, each its
    zones ``(z, x, y)`` in the trimming loop's order (:func:`solve`).
    ``splits`` tabulates :meth:`split`, whose parts :func:`priority_score`
    ranks, and ``residuals`` holds every
    :class:`~rectcover.reward.ResidualDemand` state, of a set ``S`` of placed
    zones or of a reference key, at most :data:`RESIDUAL_CACHE_SIZE`, least
    recently used dropped (:meth:`residual`); both live as long as the
    solve.  :func:`upper_bound` reads ``matrices``, ``lagrangian``,
    ``references`` and ``residuals``; the branching rules read ``matrices``
    and ``splits``.
    """

    matrices: Mapping[float, RewardMatrix]
    lagrangian: Lagrangian | None = None
    splits: dict[tuple, tuple[CandidateSet, ...]] = field(default_factory=dict, compare=False, repr=False)
    residuals: dict[tuple, ResidualDemand] = field(default_factory=dict, compare=False, repr=False)
    references: tuple[Key, ...] = ()

    @staticmethod
    def from_instance(instance: Instance) -> "CandidateGrids":
        dzs, base, eta = instance.dzs, instance.base, instance.eta
        return CandidateGrids({z: build_reward_matrix(dzs, z, base, eta) for z in instance.scale_values()})

    def split(self, z: float, axis: int, s: CandidateSet) -> tuple[CandidateSet, ...]:
        """Interval step on the slice ``s`` of scale ``z``'s grid on ``axis``, shared by plane and line.

        :func:`partition` cuts the slice into runs of near-equal length.
        The parts come by decreasing :func:`priority_score`, stable on ties
        (equal scores keep grid order).  They depend only on ``(z,
        axis, lo, hi)``, so each range is split once and its parts kept in
        ``splits``: at most ``2 * len(grid) - 1`` ranges per scale and axis,
        the nodes of the grid's partition tree.
        The tuple is shared, so callers build new sequences from it.
        """
        lo, hi, _ = s
        key = (z, axis, lo, hi)
        out = self.splits.get(key)
        if out is None:
            m = self.matrices[z]
            parts = [(lo + a, lo + b, None) for a, b in partition(hi - lo)]
            parts.sort(key=lambda part: priority_score(m, axis, part[0], part[1]), reverse=True)
            out = self.splits[key] = tuple(parts)
        return out

    def residual(self, key: Key, instance: Instance) -> ResidualDemand:
        """The state of the placements ``key``, read from ``residuals`` and moved to its end.

        A missing state extends the longest cached prefix of ``key`` by the
        rest of it (``ResidualDemand.extended``); the empty prefix holds the
        demand itself, built when it is missing.  The least recently used
        state is dropped once :data:`RESIDUAL_CACHE_SIZE` are kept.
        """
        cache = self.residuals
        state = cache.pop(key, None)
        if state is None:
            k = len(key)
            while state is None and k > 0:
                k -= 1
                state = cache.get(key[:k])
            if state is None:  # the demand itself
                dzs, base = instance.planar
                state = cache[()] = ResidualDemand(dzs, (), base, instance.eta)
            state = state.extended(*[Placement(x, y, z) for z, x, y in key[k:]])
            while len(cache) >= RESIDUAL_CACHE_SIZE:
                del cache[next(iter(cache))]
        cache[key] = state
        return state


def _key(placements: Sequence[Placement]) -> Key:
    """The :data:`Key` of ``placements``: by ascending scale, as the trimming loop serves them, ties in order."""
    return tuple((q.z, q.x, q.y) for q in sorted(placements, key=lambda q: q.z))


def _grid(m: RewardMatrix, axis: int) -> tuple[float, ...]:
    """The grid ``m`` is tabulated over on ``axis``."""
    return (m.xs, m.ys)[axis].values


def partition(n: int) -> list[tuple[int, int]]:
    """Cut a slice of ``n`` grid positions into ``min(n, PARTS)`` runs of near-equal length.

    The runs are ``[n * i // PARTS, n * (i + 1) // PARTS)`` for ``i`` in
    ``range(PARTS)``, the empty ones left out, returned in order as
    half-open position ranges ``(start, stop)`` into the slice.  Their
    lengths differ by at most one, and a slice of two or more positions
    always falls into two or more runs.
    """
    cuts = sorted({n * i // PARTS for i in range(PARTS + 1)})
    return list(zip(cuts, cuts[1:]))


def priority_score(m: RewardMatrix, axis: int, lo: int, hi: int) -> float:
    """The best entry of ``m`` with its ``axis`` index in ``[lo, hi)`` and any index on the other axis.

    An interval child's rank (:meth:`CandidateGrids.split`): the best
    isolated reward of a zone of ``m``'s scale whose ``axis`` coordinate is
    one of grid positions ``lo .. hi - 1``, read through the memoised
    ``RewardMatrix.block_max``.
    """
    if axis == Axis.X:
        return m.block_max(lo, hi, 0, len(m.ys))
    return m.block_max(0, len(m.xs), lo, hi)


def _is_single(s: CandidateSet) -> bool:
    return s[2] is not None or s[1] - s[0] == 1


def _value(s: CandidateSet, grid: Sequence[float]) -> float:
    """The coordinate of a singleton set on ``grid``."""
    return grid[s[0]] if s[2] is None else s[2]


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


def _next_zones(node: Node, axis: int, instance: Instance) -> list[int]:
    """The zones that may be narrowed next on ``axis``, in index order (module docstring, next zone).

    Of the zones whose set on ``axis`` is open: the lowest-indexed zone of
    each class among those on their own scale's grid on the other axis, and
    every zone pinned there.  Interchangeability holds only for zones of one
    class on their *own* grid; a pinned zone is tied to the zones that
    generated its pin, even if the value happens to equal some other scale's
    grid value, so each pinned zone is a class of its own.  Abutment
    positions lie off the own-scale grid, so a set without ``v`` is on it.
    In the x phase no zone is pinned on y.
    """
    sets, other = node[axis], node[1 - axis]
    first: dict[object, int] = {}  # class (a menu, or a pinned zone's index) -> its lowest open zone
    for j, (s, t) in enumerate(zip(sets, other)):
        if not _is_single(s):
            first.setdefault(j if t[2] is not None else instance.qos_for(j).factors, j)
    return list(first.values())


def _with_scale(node: Node, j: int, z: float, grids: CandidateGrids) -> Node:
    """``node`` with zone ``j`` at scale ``z`` on its whole grids, narrowed next on x.

    An x grid of one value places the zone instead (module docstring,
    Completeness), and no zone is narrowed next (``bs == -1``).
    """
    m = grids.matrices[z]
    return Node(
        _replace_at(node.x_sets, j, (0, len(m.xs), None)),
        _replace_at(node.y_sets, j, (0, len(m.ys), None)),
        node.z_vec[:j] + (z,) + node.z_vec[j + 1 :],
        j if len(m.xs) > 1 else -1,
    )


def branch(
    node: Node, instance: Instance, grids: CandidateGrids, config: SolverConfig
) -> list[Node]:
    """Children of a non-leaf node, plane or line, in exploration order (module docstring).

    The axis is x while some x set is open, else y.  Zone ``bs`` takes its
    next interval step on it, or, with no zone narrowed, each of
    :func:`_next_zones` takes its first step, candidate by candidate: the
    scale step while its scale is open, else its interval step.
    """
    axis = node.residual_axis
    axis = Axis.X if axis is None else axis
    children: list[Node] = []
    for j in [node.bs] if node.bs >= 0 else _next_zones(node, axis, instance):
        if node.z_vec[j] == _UNSET:
            children += [_with_scale(node, j, z, grids) for z in instance.qos_for(j).factors]
        else:
            children += _interval_children(node, j, axis, instance, grids, config)
    return children


def _interval_children(
    node: Node, j: int, axis: int, instance: Instance, grids: CandidateGrids, config: SolverConfig
) -> list[Node]:
    """Interval step: split zone ``j``'s candidate set on ``axis``.

    On its first split (the set is still the whole own-scale grid) zone ``j``
    is also pinned at the abutment positions of zones already fixed on
    ``axis``.  Values on *another* scale's grid stay among them: they are
    never enumerated for this zone otherwise (with a {1, 2} menu,
    left-abutting a scale-1 zone that sits on a scale-1 grid value always
    lands on a scale-2 grid value, so dropping them loses real optima).  The
    grid parts of a first split follow the grid-order rule (module
    docstring): a zone above ``j`` already settled on ``axis`` on its own
    grid, of more than one value, leaves only the pins.  A singleton child
    has settled the zone there, so no zone is narrowed next (``bs == -1``).
    """
    sets = node[axis]
    z = node.z_vec[j]
    grid = _grid(grids.matrices[z], axis)
    parts = grids.split(z, axis, sets[j])
    if sets[j] == (0, len(grid), None):
        fixed = [
            (_value(s, _grid(grids.matrices[zk], axis)), zk)
            for k, (s, zk) in enumerate(zip(sets, node.z_vec))
            if k != j and zk != _UNSET and _is_single(s)
        ]
        # grid-order rule: a zone above j already on a grid value, of a grid of more than one
        if any(s[2] is None and s[1] - s[0] == 1 < len(_grid(grids.matrices[zk], axis))
               for s, zk in zip(sets[j + 1 :], node.z_vec[j + 1 :])):
            parts = ()
        parts += tuple(abutment_pins(fixed, z, instance.base, axis, config.scv_mode == "full", grid))
    pair = list(node[:2])  # the x and y sets; each child narrows those on axis
    children = []
    for part in parts:
        pair[axis] = _replace_at(sets, j, part)
        children.append(Node(*pair, node.z_vec, -1 if _is_single(part) else j))
    return children


def _block_sum(node: Node, matrices: Mapping[float, RewardMatrix]) -> float:
    """Each zone's best entry of its scale's matrix over the block its sets name, summed.

    Every entry is the matrix's product, read through the memo
    ``RewardMatrix.block_max``, at a leaf as at any other node.  A zone with
    an open scale takes the best entry of every matrix, taken once per call
    and only when some scale is open.
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
    axis: int,
    limit: float = math.inf,
) -> float:
    """``f(A)`` plus each of ``zones``' best gain over ``A`` across its set on ``axis`` (module docstring).

    ``A`` is ``residual``'s placements and each of ``zones`` is ``(z, c,
    grid, s)``: its scale, its fixed corner on the other axis, its grid and
    its open set on ``axis``, the whole grid or a strict slice of it.  A
    whole grid takes the gain's maximum over every real position, a strict
    slice its maximum over the slice's values.  Every gain is at least 0, so
    the sum stops, short of its full value, once it is above ``limit``.
    """
    total = residual.served
    for z, c, grid, (lo, hi, _) in zones:
        if total > limit:
            break
        if lo == 0 and hi == len(grid):
            total += residual.best_gain(z, c, axis)
        else:
            total += float(residual.gain_column(z, c, axis, grid)[lo:hi].max())
    return total


def upper_bound(node: Node, grids: CandidateGrids, instance: Instance, floor: float = -math.inf) -> float:
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

    At a leaf the sum is scaled by ``1 + RTOL``, which covers the
    product's rounding (module docstring, Tolerances).  A node at or below
    ``cut = floor * (1 + RTOL)`` on that isolated sum returns it.  A leaf
    above it is evaluated exactly with ``covered_reward`` on
    ``instance.planar``.  Any other node takes the smaller of the sum and
    ``grids.lagrangian``'s bound (None only before the fit), and returns it
    when it is at or below ``cut`` or the node has no ``residual_axis``.
    Past that, a node with one (the plane's y phase, every line node), where
    every coordinate on the other axis is fixed, takes the residual-demand
    bound (module docstring): the least, over a tuple of keys of sets
    ``A``, of ``f(A)`` plus each open zone's best gain over ``A``
    (:func:`_gain_sum`), stopping once it is at or below ``cut``.  With a
    zone placed on that axis the tuple is the one key of the placed zones
    ``S``, sorted; with none placed it is ``grids.references`` on y, and on
    x (a line node) or with no reference key the bound is not taken.  Every
    key's :class:`~rectcover.reward.ResidualDemand` state is read through
    the one lookup :meth:`CandidateGrids.residual`.  With the default
    ``floor`` every leaf is exact.
    """
    matrices, lagrangian = grids.matrices, grids.lagrangian
    cut = floor * (1.0 + RTOL)
    axis = node.residual_axis
    leaf = axis == Axis.Y and all(map(_is_single, node.y_sets))
    total = _block_sum(node, matrices)
    if leaf:
        total *= 1.0 + RTOL  # the product's rounding (module docstring, Tolerances)
    if total <= cut:
        return total
    if leaf:
        dzs, base = instance.planar
        return covered_reward(dzs, leaf_placements(node, matrices), base, instance.eta)
    if lagrangian is not None:
        total = min(total, lagrangian.bound(node))
    if total <= cut or axis is None:
        return total
    # the other axis is fixed, and some set on this one is open
    placed, opened = [], []
    for *sets, z in zip(node.x_sets, node.y_sets, node.z_vec):
        m = matrices[z]
        values = (m.xs.values, m.ys.values)
        if _is_single(sets[axis]):
            placed.append((z, _value(sets[0], values[0]), _value(sets[1], values[1])))
        else:
            opened.append((z, _value(sets[1 - axis], values[1 - axis]), values[axis], sets[axis]))
    if placed:  # A = S; greedy's prefixes would leave out the placed zones' gains over them
        keys = (tuple(sorted(placed)),)
    elif axis == Axis.Y:
        keys = grids.references
    else:  # nothing placed on x, as on the line: greedy's prefixes cut almost nothing there
        return total
    for key in keys:
        total = min(total, _gain_sum(grids.residual(key, instance), opened, axis, total))
        if total <= cut:
            break
    return total


def fit_lagrangian(
    root: Node, instance: Instance, matrices: Mapping[float, RewardMatrix], lower: float
) -> Lagrangian:
    """The Lagrangian bound of the best ``mu`` a subgradient fit at ``root`` finds (module docstring).

    ``matrices`` are the solve's reward matrices, one per scale, whose rates
    and overlap tables the fit reads.  It always returns the bound of the
    best ``mu`` it found, however little that gains: ``FIT_GAIN`` only stops
    a fit that stalls, and a fit that never beats its start returns the
    bound of ``mu = r``, the isolated sum to rounding.  ``root`` is a root
    node (:func:`root_node`):
    each zone is open or at its scale's whole grids, so its term is the
    first maximum of a whole table, and zones of one scale share it, each
    group adding its subgradient once, times its size.  Every step, the
    first at ``mu = r`` included, tabulates each scale's ``L_z`` as a bare
    array (``reward.table_product``, the product a ``RewardMatrix`` takes)
    and takes its first maximum once.  The fit keeps only the best step's
    ``mu`` and returns :meth:`Lagrangian.of` of it, which takes the same
    product once more per scale, so its ``T1`` and tables are that step's
    bit for bit.  At ``mu = r`` those tables are the matrices' own entries,
    bit for bit, and ``T1`` is 0.
    """
    x, y, w, l, _ = demand_rows(instance.planar[0]).T
    area = ((x + w) - x) * ((y + l) - y)
    scales = list(matrices)
    mats = list(matrices.values())
    rates = np.stack([m.rates for m in mats], axis=1)
    # per group of zones: its scale's column, None while open, and its size
    groups = [(None if z == _UNSET else scales.index(z), count) for z, count in Counter(root.z_vec).items()]
    rows = np.arange(len(area))
    mu = rates
    best = mark = math.inf
    step, since_best, since_gain = FIT_STEP, 0, 0
    for _ in range(FIT_STEPS):
        tables = [table_product(mu[:, s], m.ox, m.oy) for s, m in enumerate(mats)]
        slack = rates - mu
        top = slack.argmax(axis=1)
        most = slack[rows, top]
        paid = most > 0.0
        grad = np.zeros(mu.shape)
        grad[rows[paid], top[paid]] = -area[paid]
        value = float(area @ np.maximum(most, 0.0))  # T1
        peaks = [int(t.argmax()) for t in tables]
        for s, count in groups:
            if s is None:  # an open zone takes the best scale's whole grid
                s = max(range(len(scales)), key=lambda k: tables[k].flat[peaks[k]])
            m, table = mats[s], tables[s]
            i, k = divmod(peaks[s], table.shape[1])
            value += count * float(table[i, k])
            grad[:, s] += count * m.ox[:, i] * m.oy[:, k]
        if value < best:
            best, since_best, best_mu = value, 0, mu
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
    return Lagrangian.of(best_mu, area, matrices)


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

    ``grids`` (:class:`CandidateGrids`) is built once, first.  A greedy run,
    whose first round reads its matrices, seeds the incumbent, valued at the
    covered reward of its placements; ``stats`` keeps greedy's claimed
    reward and run time.  :func:`root_node` builds the root, and the
    Lagrangian bound is fitted at it (:func:`fit_lagrangian`;
    ``stats.fit_s``, and the root's bound in ``stats.root_bound``) and kept
    in ``grids``, with the keys of the greedy seed's proper prefixes, the
    reference sets of the residual-demand bound at y-phase nodes with
    nothing placed; their states are built only when a bound reads them.
    Every popped node is bounded with ``upper_bound(node, grids, ...)``
    against ``lower``, the incumbent's reward, and is cut when the bound is
    at most ``lower * (1 + RTOL)``.  A
    surviving leaf (:func:`is_leaf`), whose bound is then its exact value,
    becomes the incumbent (:func:`leaf_placements`); any other node is
    replaced by its children (:func:`branch`), explored in the order given.

    No placement earns more than ``ceiling``, every demand zone's area paid
    at the smallest scale's rate, so the search stops, proven, as soon as
    the incumbent is at least ``ceiling * (1 - RTOL)`` (the greedy seed
    included).  The module docstring states what ``optimal`` guarantees.
    When the time limit is hit the incumbent is returned with
    ``stats.optimal == False``; ``stats.upper_bound`` is then the largest of
    ``lower * (1 + RTOL)`` and the bounds (exact at leaves) of the nodes left
    on the stack.  A proven solve reports ``upper_bound == lower``.
    """
    config = config or SolverConfig()
    stats = SolverStats()
    start = time.perf_counter()

    grids = CandidateGrids.from_instance(instance)
    greedy_start = time.perf_counter()
    seed = greedy(instance, grids.matrices).solution
    now = time.perf_counter()
    stats.greedy_time, stats.optimal_found_time = now - greedy_start, now - start
    stats.greedy_reward = seed.reward
    incumbent = seed.placements
    # Greedy claims the sum of its rounds' gains, which pays a later round's
    # smaller zone nothing over demand an earlier, larger zone already
    # served; the covered reward pays the better rate there.
    lower = covered_reward(instance.dzs, incumbent, instance.base, instance.eta)
    stats.best_reward_history.append((0, lower))
    dzs = instance.planar[0]
    z_min = instance.scale_values()[0]
    # the docstring's ceiling, less its relative margin
    enough = sum(reward_rate(d.v, z_min, instance.eta) * d.rect.w * d.rect.l for d in dzs) * (1.0 - RTOL)

    if lower < enough:
        top = root_node(instance, grids)
        references = tuple(_key(seed.placements[:k]) for k in range(1, instance.p))  # greedy's proper prefixes
        fit_start = time.perf_counter()
        grids = replace(grids, lagrangian=fit_lagrangian(top, instance, grids.matrices, lower), references=references)
        stats.fit_s = time.perf_counter() - fit_start
        stats.root_bound = upper_bound(top, grids, instance)
        stack = [top]
        while stack:
            if time.perf_counter() - start > config.time_limit_s:
                stats.optimal = False
                break
            node = stack.pop()
            stats.nodes_explored += 1
            value = upper_bound(node, grids, instance, lower)
            if value <= lower * (1.0 + RTOL):
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
        # Every cut node was within RTOL of an incumbent no better than the
        # last; the open nodes are bounded once more, exactly at leaves.
        stats.upper_bound = max([lower * (1.0 + RTOL)] + [upper_bound(n, grids, instance) for n in stack])
    stats.gap = (stats.upper_bound - lower) / stats.upper_bound if stats.upper_bound > 0 else 0.0
    stats.wall_time = time.perf_counter() - start
    return Solution(incumbent, lower), stats

