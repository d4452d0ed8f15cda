"""Exact planar branch-and-bound: branching rules, bound, end-to-end solves."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from rectcover import (
    BaseServiceZone,
    DemandZone,
    Dimension,
    GenConfig,
    Instance,
    Placement,
    QosSet,
    Rect,
    brute_force_1d,
    brute_force_2d,
    covered_reward,
    generate,
    greedy,
    solve,
    solve_1d,
)
from rectcover import bnb, reward
from rectcover.bnb import (
    FIT_GAIN,
    RTOL,
    CandidateGrids,
    Lagrangian,
    Node,
    SolverConfig,
    _OPEN,
    _UNSET,
    branch,
    fit_lagrangian,
    is_leaf,
    leaf_placements,
    partition,
    priority_score,
    root_node,
    upper_bound,
)
from rectcover.critical import abutment_pins, grid_tol, inner_demand_grid, service_breakpoints
from rectcover.geometry import Axis
from rectcover.reward import ResidualDemand, build_reward_matrix, solve_single_zone

from conftest import (
    candidate_values,
    micro_line,
    reference_indices,
    small_1d,
    small_2d,
    square_instance,
    tick_search_clock,
)


# ---------------------------------------------------------------- partition

def test_partition_cuts_equal_runs():
    # nonempty contiguous runs that cover the slice, min(n, 4) of them, of
    # lengths that differ by at most one
    for n in range(2, 65):
        runs = partition(n)
        assert [i for start, stop in runs for i in range(start, stop)] == list(range(n)), n
        assert all(stop > start for start, stop in runs), n
        assert len(runs) == min(n, 4), n
        lengths = [stop - start for start, stop in runs]
        assert max(lengths) - min(lengths) <= 1, n


def test_partition_uniform_gaps_fall_apart():
    # four positions fall into four singletons, as they did under the gap rule
    assert partition(len((0.0, 1.0, 2.0, 3.0))) == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_partition_pair_splits_in_two():
    assert partition(2) == [(0, 1), (1, 2)]


def test_partition_singleton():
    assert partition(1) == [(0, 1)]


def test_partition_pieces_reassemble():
    vals = (0.0, 1.0, 1.5, 8.0, 8.2, 20.0)
    parts = partition(len(vals))
    flat = tuple(v for start, stop in parts for v in vals[start:stop])
    assert flat == vals
    assert all(stop - start >= 1 for start, stop in parts)


# ------------------------------------------------------------ priority score

def test_priority_score_ranks_interval_children():
    # a range's score is the best entry over it on one axis and the whole
    # grid on the other; split returns its parts in non-increasing score,
    # equal scores in grid order, at every range of the partition tree
    inst = generate(GenConfig(seed=3, n=12, p=2, m=2))
    grids = CandidateGrids.from_instance(inst)
    for z, m in grids.matrices.items():
        for axis, n in ((Axis.X, len(m.xs)), (Axis.Y, len(m.ys))):
            for lo in range(n):
                for hi in range(lo + 1, n + 1):
                    block = m.entries[lo:hi, :] if axis == Axis.X else m.entries[:, lo:hi]
                    assert priority_score(m, axis, lo, hi) == float(block.max())
            stack = [(0, n, None)]
            while stack:
                lo, hi, _ = stack.pop()
                parts = grids.split(z, axis, (lo, hi, None))
                assert sorted(parts) == [(lo + a, lo + b, None) for a, b in partition(hi - lo)]
                ranked = [(-priority_score(m, axis, a, b), a) for a, b, _ in parts]
                assert ranked == sorted(ranked), (z, axis, lo, hi)
                stack += [part for part in parts if part[1] - part[0] > 1]


# ---------------------------------------------------------------- branching

def _square_setup():
    inst = square_instance()
    cfg = SolverConfig()
    grids = CandidateGrids.from_instance(inst)
    mats = {z: build_reward_matrix(inst.dzs, z, inst.base, inst.eta) for z in inst.scale_values()}
    root = root_node(inst, grids)
    assert root == Node(x_sets=(_OPEN,) * inst.p, y_sets=(_OPEN,) * inst.p, z_vec=(_UNSET,) * inst.p)
    # the square's grids: scale 1 (0.0, 2.0) on both axes, scale 2 (0.0,)
    assert {z: m.xs.values for z, m in grids.matrices.items()} == {1.0: (0.0, 2.0), 2.0: (0.0,)}
    assert {z: m.ys.values for z, m in grids.matrices.items()} == {1.0: (0.0, 2.0), 2.0: (0.0,)}
    return inst, cfg, grids, mats, root


def test_scale_step_children():
    inst, cfg, grids, _, root = _square_setup()
    children = branch(root, inst, grids, cfg)
    assert len(children) == 2
    one, two = children
    assert one.z_vec == (1.0, _UNSET)
    # the whole scale-1 grid (0.0, 2.0) on each axis
    assert one.x_sets[0] == (0, 2, None) and one.y_sets[0] == (0, 2, None)
    assert two.z_vec == (2.0, _UNSET)
    # the whole scale-2 grid (0.0,)
    assert two.x_sets[0] == (0, 1, None) and two.y_sets[0] == (0, 1, None)
    # the sibling zone is untouched either way
    assert one.x_sets[1] == two.x_sets[1] == _OPEN


def _narrowed_on_y(node, children):
    """The zones whose y set each child narrows, in child order."""
    return [[j for j, (a, b) in enumerate(zip(node.y_sets, c.y_sets)) if a != b] for c in children]


def test_order_step_single_representative():
    # both zones fixed on x at grid values (0.0 and 2.0): symmetry leaves zone
    # 0 alone to settle its y first (the next zone on y, once the order
    # step), and its first y split gives the children
    inst, cfg, grids, _, _ = _square_setup()
    node = Node(
        x_sets=((0, 1, None), (1, 2, None)),
        y_sets=((0, 2, None), (0, 2, None)),
        z_vec=(1.0, 1.0),
        bs=-1,
    )
    children = branch(node, inst, grids, cfg)
    assert node.residual_axis == Axis.Y  # the y phase: every x set a singleton
    assert children and _narrowed_on_y(node, children) == [[0]] * len(children)
    assert all(c.x_sets == node.x_sets and c.z_vec == node.z_vec for c in children)


def _pins(node):
    return sum(s[2] is not None for s in node.x_sets + node.y_sets)


def test_split_table_survives_abutment_pins():
    # A whole grid's first split also pins the zone at abutment positions.
    # The parts are tabulated once per solve, so the pins must go into a new
    # sequence: appended to the tabulated parts, every later visit of the
    # range would find them there again.
    inst = generate(GenConfig(seed=2, n=15, p=2, m=2))
    grids = CandidateGrids.from_instance(inst)
    cfg = SolverConfig()
    stack, pinned = [root_node(inst, grids)], {Axis.X: 0, Axis.Y: 0}
    for _ in range(3000):
        node = stack.pop()
        if is_leaf(node):
            continue
        children = branch(node, inst, grids, cfg)
        assert branch(node, inst, grids, cfg) == children
        if any(_pins(c) > _pins(node) for c in children):
            pinned[Axis.Y if node.residual_axis == Axis.Y else Axis.X] += 1  # y phase: every x fixed
        stack.extend(reversed(children))
    assert pinned[Axis.X] and pinned[Axis.Y]
    # every entry is a fresh partition of its range, ranked by decreasing
    # maximum of the reward matrix over each part's block (the whole other axis)
    assert grids.splits
    for (z, axis, lo, hi), parts in grids.splits.items():
        m = grids.matrices[z]
        fresh = [(lo + a, lo + b, None) for a, b in partition(hi - lo)]
        block = (lambda a, b: m.entries[a:b, :]) if axis == Axis.X else (lambda a, b: m.entries[:, a:b])
        fresh.sort(key=lambda part: float(block(part[0], part[1]).max()), reverse=True)
        assert parts == tuple(fresh), (z, axis, lo, hi)


def test_abutment_candidates_keep_other_scale_grid_values():
    # Zone 0 sits at x=0 with scale 1 (width 2).  Right-abutting a scale-2
    # zone against it lands at x=2 — a scale-1 grid value but not a scale-2
    # one.  The candidate must survive the own-grid filter; losing it here
    # loses real optima on mixed-scale instances.  A third zone is still
    # open, so the search is in the x phase and zone 1 is narrowed on x.
    inst = square_instance(p=3)
    cfg = SolverConfig()
    grids = CandidateGrids.from_instance(inst)
    node = Node(
        x_sets=((0, 1, None), (0, 1, None), _OPEN),
        y_sets=((0, 2, None), (0, 1, None), _OPEN),
        z_vec=(1.0, 2.0, _UNSET),
        bs=1,
    )
    assert grids.matrices[2.0].xs.values == (0.0,)
    children = branch(node, inst, grids, cfg)
    # the own-grid child (0.0), then the left (-4) and right (2) abutments,
    # each bounded by the grid's one column; the own-grid value 0.0 is not
    # repeated as an abutment
    assert [c.x_sets[1] for c in children] == [(0, 1, None), (0, 1, -4.0), (0, 1, 2.0)]
    # each is a singleton, so no zone is narrowed next
    assert all(c.bs == -1 for c in children)


def test_leaf_detection_and_placements():
    _, _, _, mats, _ = _square_setup()
    # zone 0 on the scale-1 grid at 0.0; zone 1 at 2.0, off the scale-2 grid
    node = Node(
        x_sets=((0, 1, None), (0, 1, 2.0)),
        y_sets=((0, 1, None), (0, 1, 2.0)),
        z_vec=(1.0, 2.0),
        bs=1,
    )
    assert is_leaf(node)
    assert leaf_placements(node, mats) == (Placement(0.0, 0.0, 1.0), Placement(2.0, 2.0, 2.0))
    assert not is_leaf(Node(x_sets=((0, 2, None),), y_sets=((0, 1, None),), z_vec=(1.0,)))
    # an off-grid value is one candidate, however wide the block bounding it
    assert is_leaf(Node(x_sets=((0, 2, 1.0),), y_sets=((0, 1, None),), z_vec=(1.0,)))


@pytest.mark.parametrize("p", [2, 3])
def test_x_phase_node_whose_grids_hold_one_value_is_a_leaf(p):
    # one demand zone of the base's size and the menu {1}: each zone's x and
    # y grids hold one value, and a zone whose menu holds one scale starts at
    # it, so every set of the root is a singleton, and the root is in the y
    # phase before any step.  That node is a leaf, evaluated exactly, not
    # branched on.
    inst = Instance(
        dzs=(DemandZone(Rect(3.0, 4.0, 10.0, 8.0), 2.0),), base=BaseServiceZone(10.0, 8.0), p=p, qos=QosSet((1.0,))
    )
    grids = CandidateGrids.from_instance(inst)
    assert grids.matrices[1.0].xs.values == (3.0,) and grids.matrices[1.0].ys.values == (4.0,)
    node = root_node(inst, grids)
    while not is_leaf(node):
        node = branch(node, inst, grids, SolverConfig())[0]
    assert node.bs == -1 and node.residual_axis == Axis.Y
    assert upper_bound(node, grids, inst) == 160.0
    # The greedy seed already earns all the demand at the menu's one rate,
    # which no placement beats, so the solve stops before its root.
    sol, stats = solve(inst)
    assert stats.nodes_explored == 0
    assert stats.optimal and sol.reward == 160.0


@pytest.mark.parametrize("p, nodes, with_pins", [(2, 25, 52), (3, 193, 371)], ids=["2-30-52", "3-231-371"])
def test_scale_step_onto_a_one_value_grid_places_the_zone(p, nodes, with_pins):
    # one demand zone 20 wide and the base 10 wide: the scale-2 x grid holds
    # the one value 0, where the zone covers all of the demand's width.  Its
    # scale step places it there, with no x step and no abutment pins, which
    # cover a subset of that (bnb module docstring, Completeness).  The ids
    # keep the counts of 30 and 231 nodes from when y branching first pushed
    # a copy of the node per candidate zone, 5 and 38 of them popped.
    inst = Instance(
        dzs=(DemandZone(Rect(0.0, 0.0, 20.0, 20.0), 1.0),), base=BaseServiceZone(10.0, 8.0), p=p, qos=QosSet((1.0, 2.0))
    )
    grids = CandidateGrids.from_instance(inst)
    assert grids.matrices[2.0].xs.values == (0.0,)
    one, two = branch(root_node(inst, grids), inst, grids, SolverConfig())
    assert one.bs == 0 and two.bs == -1 and two.x_sets[0] == (0, 1, None)
    sol, stats = solve(inst)
    assert stats.optimal and sol.reward == brute_force_2d(inst).reward
    # the dominated pins, and the x step that made them, are skipped: with them the search took `with_pins` nodes
    assert stats.nodes_explored == nodes, with_pins


# -------------------------------------------------------------- upper bound

def test_upper_bound_at_root():
    inst, _, _, mats, root = _square_setup()
    assert upper_bound(root, CandidateGrids(mats), inst) == 16.0


def test_upper_bound_at_leaf_is_exact():
    inst, _, _, mats, _ = _square_setup()
    leaf = Node(
        x_sets=((0, 1, None), (0, 1, None)),
        y_sets=((0, 1, None), (0, 1, None)),
        z_vec=(1.0, 2.0),
        bs=2,
    )
    assert upper_bound(leaf, CandidateGrids(mats), inst) == 10.0


def test_upper_bound_ignores_overlap_between_zones():
    # one zone pinned, the other wide open: bound adds the two isolated bests
    inst, _, grids, mats, _ = _square_setup()
    node = Node(
        x_sets=((0, 1, None), _OPEN),
        y_sets=((0, 1, None), _OPEN),
        z_vec=(2.0, _UNSET),
    )
    assert upper_bound(node, CandidateGrids(mats), inst) == 16.0


def test_upper_bound_off_grid_singleton_brackets():
    # an abutment-pinned coordinate between grid values is bounded by the
    # better of its two bracketing grid columns: a scale-1 zone left of a
    # scale-1 zone at x = 3 sits at 1.0, between the grid's 0.0 and 2.0
    inst, _, grids, mats, _ = _square_setup()
    pinned, right = abutment_pins([(3.0, 1.0)], 1.0, inst.base, Axis.X, False, grids.matrices[1.0].xs.values)
    assert pinned == (0, 2, 1.0) and right == (1, 2, 5.0)
    node = Node(
        x_sets=(pinned, (0, 1, None)),
        y_sets=((0, 2, None), (0, 1, None)),
        z_vec=(1.0, 2.0),
        bs=1,
    )
    # the isolated sum, returned whole when the floor is above it
    got = upper_bound(node, CandidateGrids(mats), inst, floor=math.inf)
    assert got == 4.0 + 8.0
    # every x set is a singleton, so the residual bound on y applies too:
    # zone 1 at (0, 0) earns 8, and zone 0 gains half its area's rate, 2
    assert upper_bound(node, CandidateGrids(mats), inst) == 10.0


def _reference_bound(node, mats, inst):
    if is_leaf(node):
        return covered_reward(inst.dzs, leaf_placements(node, mats), inst.base, inst.eta)
    best_any = max(m.max_entry for m in mats.values())
    total = 0.0
    for j in range(inst.p):
        z = node.z_vec[j]
        if z == _UNSET:
            total += best_any
            continue
        m = mats[z]
        xi = reference_indices(candidate_values(node.x_sets[j], m.xs.values), m.xs.values)
        yi = reference_indices(candidate_values(node.y_sets[j], m.ys.values), m.ys.values)
        total += float(m.entries[np.ix_(xi, yi)].max())
    return total


TINY = dict(region=40.0, r=12.0, dim_range=(1.0, 8.0), base_dims=(10.0, 8.0))
#: The full trees walked below: in the plane, the trees acceptance check 8
#: walks; on the line, the micro tree and a generated one.
TREES = {
    "plane": lambda: [generate(GenConfig(seed=seed, n=2, p=2, m=m, **TINY)) for seed in range(5) for m in (1, 2)],
    "line": lambda: [micro_line(), small_1d(seed=1, n=5, p=2)],
}
every_tree = pytest.mark.parametrize("trees", list(TREES))


def full_trees(trees):
    """``(inst, grids, mats, node)`` for every node of each tree of the set ``trees``, walked without pruning.

    On the line every node keeps each zone's one scale and the single y index.
    """
    cfg = SolverConfig()
    for inst in TREES[trees]():
        grids = CandidateGrids.from_instance(inst)
        mats = {z: build_reward_matrix(inst.dzs, z, inst.base, inst.eta) for z in inst.scale_values()}
        scales = tuple(inst.qos_for(j).factors[0] for j in range(inst.p))
        stack = [root_node(inst, grids)]
        while stack:
            node = stack.pop()
            if inst.one_d:
                assert node.z_vec == scales and node.y_sets == ((0, 1, None),) * inst.p, node
            yield inst, grids, mats, node
            if not is_leaf(node):
                stack.extend(branch(node, inst, grids, cfg))


@every_tree
def test_upper_bound_equals_index_set_reference_on_every_node(trees):
    # a leaf's bound is exact; elsewhere the isolated sum (returned whole
    # when the floor is above it) equals the reference, and the bound, which
    # may also take the residual bound, is never above it
    for inst, _, mats, node in full_trees(trees):
        reference = _reference_bound(node, mats, inst)
        if is_leaf(node):
            assert upper_bound(node, CandidateGrids(mats), inst) == reference, node
            continue
        assert upper_bound(node, CandidateGrids(mats), inst, floor=math.inf) == reference, node
        assert upper_bound(node, CandidateGrids(mats), inst) <= reference, node


@every_tree
def test_leaf_pretest_is_exact_or_cut_at_the_floor(trees, monkeypatch):
    exact_calls = []
    monkeypatch.setattr(
        bnb, "covered_reward", lambda *args: exact_calls.append(1) or covered_reward(*args)
    )
    skipped = 0
    for inst, _, mats, node in full_trees(trees):
        if not is_leaf(node):
            continue
        exact = covered_reward(inst.dzs, leaf_placements(node, mats), inst.base, inst.eta)
        for floor in (-math.inf, exact - 1.0, exact, exact + 1.0):
            exact_calls.clear()
            got = upper_bound(node, CandidateGrids(mats), inst, floor=floor)
            if exact_calls:
                assert got == exact, (node, floor)
            else:
                assert floor >= exact, (node, floor)
                assert exact <= got <= floor * (1 + RTOL), (node, floor)
                skipped += 1
    assert skipped > 0


@every_tree
def test_every_node_holds_slices_or_bracketed_abutments(trees):
    # a zone with a fixed scale holds a non-empty slice of its own grid, or
    # an abutment value off that grid (by the grid's own test) with the
    # block bracketing it
    pinned = 0
    for _, grids, _, node in full_trees(trees):
        for xs, ys, z in zip(node.x_sets, node.y_sets, node.z_vec):
            if z == _UNSET:
                assert xs == ys == _OPEN, node
                continue
            for (lo, hi, v), grid in ((xs, grids.matrices[z].xs.values), (ys, grids.matrices[z].ys.values)):
                if v is None:
                    assert 0 <= lo < hi <= len(grid), node
                else:
                    assert all(g != v and abs(g - v) >= grid_tol(grid) for g in grid), node
                    if grid[0] < v < grid[-1]:  # its two neighbouring grid values
                        assert hi - lo == 2 and grid[lo] < v < grid[hi - 1], node
                    else:  # the nearest endpoint
                        assert (lo, hi) == ((0, 1) if v < grid[0] else (len(grid) - 1, len(grid))), node
                    pinned += 1
    assert pinned > 0


@pytest.fixture(scope="module")
def greedy_below_optimum(request):
    """A plane or a line instance (``request.param``) whose greedy seed is below its optimum, and that optimum."""
    if request.param == "plane":
        # greedy 786.13 < optimum 867.86; the incumbent improves at nodes 19
        # and 30 of a 389-node search, which proves at 395 ticks of the clock
        # of tick_search_clock (756 nodes before the reference-set bound)
        inst = small_2d(seed=2, n=4, m=2)
        return inst, brute_force_2d(inst).reward
    # greedy 143.14 < optimum 164.43; the incumbent improves at node 9 of a
    # 27-node search, which proves at 31 ticks of the clock of
    # tick_search_clock (35 nodes, improving at node 12 and proving at 39
    # ticks, while the interval step cut a slice at its wide gaps, so the
    # last limit was 36; 38 nodes, improving at node 16, when the line had a
    # tree of its own, so the last limit was 40)
    inst = small_1d(seed=4, n=6, p=2)
    return inst, brute_force_1d(inst).reward


# plane: limits before the first improvement (0 at the root, 20), between the
# two (30) and after the last (60, 95, and 300, where the open nodes' bounds
# are below the root's); line: 0 at the root, then limits short of the 31
# ticks at which its search proves
@pytest.mark.parametrize(
    "greedy_below_optimum, limit",
    [("plane", limit) for limit in (0, 20, 30, 60, 95, 300)] + [("line", limit) for limit in (0, 10, 14, 20, 30)],
    indirect=["greedy_below_optimum"],
)
def test_timeout_reports_a_certified_upper_bound(limit, greedy_below_optimum, monkeypatch):
    inst, optimum = greedy_below_optimum
    tick_search_clock(monkeypatch)
    sol, stats = solve(inst, SolverConfig(time_limit_s=limit))
    assert not stats.optimal
    assert sol.reward <= optimum + 1e-9
    assert optimum <= stats.upper_bound
    assert stats.upper_bound >= sol.reward * (1 + RTOL)
    assert stats.gap == (stats.upper_bound - sol.reward) / stats.upper_bound
    if limit == 0:
        grids = CandidateGrids.from_instance(inst)
        mats = {z: build_reward_matrix(inst.dzs, z, inst.base, inst.eta) for z in inst.scale_values()}
        root = root_node(inst, grids)
        assert stats.nodes_explored == 0
        if inst.dimension is Dimension.ONE_D:  # the bound of the bare grids
            assert stats.upper_bound == upper_bound(root, CandidateGrids(mats), inst)
        else:  # the root's bound, tightened by the fitted Lagrangian bound below the isolated sum
            grids = replace(grids, lagrangian=fit_lagrangian(root, inst, grids.matrices, stats.best_reward_history[0][1]))
            assert stats.upper_bound == stats.root_bound == upper_bound(root, grids, inst)
            assert stats.upper_bound < upper_bound(root, CandidateGrids(mats), inst)


@pytest.mark.parametrize("seed, nodes", [(35, 51), (47, 79)])
def test_every_solve_keeps_its_fitted_lagrangian(seed, nodes):
    # the fit lowers the root's bound by less than FIT_GAIN here, and the
    # solve still keeps its best multipliers, whose bound is the root's
    inst = generate(GenConfig(seed=seed, n=30, p=2, m=2))
    _, stats = solve(inst)
    grids = CandidateGrids.from_instance(inst)
    root = root_node(inst, grids)
    assert isinstance(fit_lagrangian(root, inst, grids.matrices, stats.best_reward_history[0][1]), Lagrangian)
    isolated = upper_bound(root, grids, inst)
    assert isolated * (1 - FIT_GAIN) < stats.root_bound < isolated
    assert stats.nodes_explored == nodes


@pytest.mark.parametrize("greedy_below_optimum", ["plane", "line"], indirect=True)
def test_proven_solve_reports_zero_gap(greedy_below_optimum):
    inst, optimum = greedy_below_optimum
    sol, stats = solve(inst)
    assert stats.optimal
    assert stats.upper_bound == sol.reward
    assert stats.gap == 0.0
    assert math.isclose(sol.reward, optimum, rel_tol=1e-9)


@pytest.mark.parametrize("p", [3, 5, 12, 3000])
def test_search_stops_once_the_incumbent_earns_all_demand(p):
    # Three demand zones: from p=3 on, the greedy seed already covers all of
    # them at the smallest scale's rate, which no placement can beat.  The
    # search must stop there, proven, instead of enumerating p zones (at
    # p=5 it used to run past 155k nodes without proving).
    inst = generate(GenConfig(seed=1, n=3, p=2))
    inst = Instance(inst.dzs, inst.base, p, inst.qos, inst.eta, inst.dimension)
    dzs, _ = inst.planar
    ceiling = sum(d.v / inst.scale_values()[0] * d.rect.w * d.rect.l for d in dzs)
    sol, stats = solve(inst, SolverConfig(time_limit_s=60))
    assert stats.nodes_explored == 0
    assert stats.optimal and stats.upper_bound == sol.reward and stats.gap == 0.0
    assert math.isclose(sol.reward, ceiling, rel_tol=1e-12)
    assert sol.reward == covered_reward(inst.dzs, sol.placements, inst.base, inst.eta)


def test_search_stops_at_all_demand_at_large_coordinates():
    # Every length times 1e3 and p=6: the greedy seed earns all the demand,
    # but its covered reward sums the terms in another order than the total
    # and falls short of it by more than 1e-9, so an absolute stop tolerance
    # of that size let the search run to its time limit unproven (about 200k
    # nodes in 3 s); the relative stop ends it at once.
    inst = generate(GenConfig(seed=30, n=3, p=2, m=2))
    k = 1e3
    dzs = tuple(DemandZone(Rect(d.rect.x * k, d.rect.y * k, d.rect.w * k, d.rect.l * k), d.v) for d in inst.dzs)
    inst = Instance(dzs, BaseServiceZone(inst.base.w0 * k, inst.base.l0 * k), 6, inst.qos, inst.eta, inst.dimension)
    ceiling = sum(d.v / inst.scale_values()[0] * d.rect.w * d.rect.l for d in dzs)
    sol, stats = solve(inst, SolverConfig(time_limit_s=3))
    assert ceiling - sol.reward > 1e-9
    assert math.isclose(sol.reward, ceiling, rel_tol=1e-12)
    assert stats.nodes_explored == 0
    assert stats.optimal and stats.upper_bound == sol.reward and stats.gap == 0.0


def test_search_stops_at_the_leaf_that_earns_all_demand():
    # greedy's seed misses some demand, and the search finds a placement
    # covering all of it at node 329; the search ends on that node (without
    # the stop it went on to 47,243 nodes)
    inst = generate(GenConfig(seed=2, n=3, p=3, m=2))
    ceiling = sum(d.v / inst.scale_values()[0] * d.rect.w * d.rect.l for d in inst.dzs)
    sol, stats = solve(inst)
    assert stats.best_reward_history[0][1] < 0.95 * ceiling
    assert stats.optimal and stats.upper_bound == sol.reward
    assert math.isclose(sol.reward, ceiling, rel_tol=1e-12)
    assert stats.nodes_explored == stats.best_reward_history[-1][0] > 0


# ------------------------------------------------------------- whole solves


@pytest.mark.parametrize("one_d", [False, True])
def test_each_scale_grids_are_derived_once_per_solve(one_d, monkeypatch):
    # A solve derives each inner-demand grid once, for its reward matrix
    # (one per axis and scale, x only on the line): greedy's first round
    # reads those matrices, so only its later rounds derive grids of their
    # own, and the Lagrangian fit reads the matrices' tables instead of a
    # second set.
    if one_d:
        inst, run, axes = small_1d(seed=3, n=8, p=3), solve_1d, (Axis.X,)
    else:
        inst, run, axes = small_2d(seed=2, n=6, m=2), solve, (Axis.X, Axis.Y)
    calls = Counter()
    grid = reward.inner_demand_grid

    def counted(dzs, z, base, axis):
        calls[z, axis] += 1
        return grid(dzs, z, base, axis)

    monkeypatch.setattr(reward, "inner_demand_grid", counted)
    greedy(inst)
    by_greedy = calls.copy()
    calls.clear()
    _, stats = run(inst)
    assert stats.root_bound is not None  # the search ran and the fit with it
    first_round = Counter({(z, axis): 1 for z in inst.qos_for(0).factors for axis in axes})
    assert calls == by_greedy - first_round + Counter({(z, axis): 1 for z in inst.scale_values() for axis in axes})


@pytest.mark.parametrize(
    "seed, n, mode, nodes, reward",
    [
        pytest.param(3, 30, "outer", 31, 28074.27451427053, id="3-419-28074.27451427053"),
        pytest.param(19, 30, "outer", 1, 25041.271161217206, id="19-451-25041.271161217206"),
        pytest.param(0, 10, "outer", 61, 16855.812708256984, id="0-n10-outer-2895"),
        pytest.param(0, 10, "full", 61, 16855.812708256984, id="0-n10-full-3409"),
    ],
)
def test_node_count_fingerprint(seed, n, mode, nodes, reward):
    # Recorded with the Lagrangian, residual and reference-set bounds; the
    # ids keep the counts of the isolated-sum bound alone (419, 451, 2895,
    # 3409), the residual bound alone took 67, 147, 771 and 869, and with
    # the Lagrangian bound 63, 131, 126 and 126.  The reference-set bound
    # (greedy's prefixes) cuts y-phase nodes before the first y is settled,
    # which the residual bound cannot bound, and the optima stay the same.
    # Seed 19 proves at the root: its root bound is the optimum times 1 +
    # 1e-12, the Lagrangian bound's rounding margin, which the relative prune
    # test allows (it lies 2.5e-8 above the optimum, and an absolute slack
    # of 1e-9 took 71 nodes).  Seed 0 took 60 nodes while y branching first
    # pushed a copy of the node per candidate zone; the 2 copies it popped
    # are gone since the y phase picks its next zone as the x phase does.
    # Seeds 3 and 0 took 29 and 58 nodes while the interval step cut a slice
    # at its wide gaps; cut into four equal runs they take 31 and 61, with
    # the same optima bit for bit.  A pure speed-up or refactor must not
    # move them.
    inst = generate(GenConfig(seed=seed, n=n, p=2, m=2))
    sol, stats = solve(inst, SolverConfig(scv_mode=mode))
    assert stats.nodes_explored == nodes
    assert stats.optimal
    assert math.isclose(sol.reward, reward, rel_tol=1e-9)


PLANE_P3 = [
    (0, 329, "0x1.4311c68deb3d1p+14"),
    (1, 984, "0x1.63d879e5b5bbcp+14"),
    (2, 11735, "0x1.daf392c881e59p+14"),
    (3, 585, "0x1.eb62691900778p+13"),
    (4, 2829, "0x1.70326d4c30f12p+14"),
    (5, 778, "0x1.535c36f896df5p+14"),
    (6, 1075, "0x1.7db9757d19c58p+14"),
    (7, 2121, "0x1.6443a0f472db9p+14"),
    (8, 5326, "0x1.b75f0c5f49548p+13"),
    (9, 9808, "0x1.8bbda8a05a299p+14"),
]


@pytest.mark.parametrize("seed, nodes, reward", PLANE_P3, ids=[f"seed{s}" for s, _, _ in PLANE_P3])
def test_plane_p3_fingerprint(seed, nodes, reward):
    # planar p=3 m=2 n=8 seeds 0-9 (plane-p3), the set node totals are
    # compared on: 35,570 nodes with the interval step cutting a slice into
    # four equal runs (seed 3 rises 580 -> 585, every other seed falls),
    # 39,321 while it cut at every gap wider than half the widest other (with
    # one grid-order rule on both axes), 39,789 while the rule ordered grid
    # placements on x only (seed 9 took 10,809, as its y phase also explored
    # orders that settle a zone on its own y grid after a higher-indexed one),
    # 41,928 while y branching first pushed a copy of the node per candidate
    # zone (seeds 2, 4, 7, 8 and 9 popped 869, 30, 40, 554 and 646 such
    # copies), 44,984 with an absolute slack of 1e-9 (which is below the
    # relative slack at these rewards of about 2e4, so seeds 0, 1, 3 and 8 now
    # cut more), 127,740 without the reference-set bound, and the same optima
    # bit for bit.  A pure speed-up or refactor must not move them.
    sol, stats = solve(generate(GenConfig(seed=seed, n=8, p=3, m=2)))
    assert stats.optimal
    assert stats.nodes_explored == nodes
    assert sol.reward.hex() == reward


def test_square_solved_to_optimum():
    inst = square_instance()
    sol, stats = solve(inst)
    assert stats.optimal
    assert math.isclose(sol.reward, 10.0, rel_tol=0, abs_tol=1e-9)
    assert stats.nodes_explored > 0


def test_square_single_scale_menu():
    sol, stats = solve(square_instance(m=1))
    assert stats.optimal
    assert math.isclose(sol.reward, 8.0, rel_tol=0, abs_tol=1e-9)


def test_single_zone_solve_matches_ssp():
    inst = small_2d(seed=6, n=5, m=2, p=1)
    sol, stats = solve(inst)
    best, *_ = solve_single_zone(inst.dzs, inst.qos, inst.base, inst.eta)
    assert stats.optimal
    assert math.isclose(sol.reward, best, rel_tol=1e-9)


def test_reward_history_is_monotone_and_final():
    inst = small_2d(seed=1, n=6, m=2)
    sol, stats = solve(inst)
    rewards = [r for _, r in stats.best_reward_history]
    assert all(b >= a for a, b in zip(rewards, rewards[1:]))
    assert math.isclose(rewards[-1], sol.reward, rel_tol=0, abs_tol=1e-12)
    assert stats.optimal_found_time <= stats.wall_time + 1e-6


def test_solution_reward_matches_its_placements():
    from rectcover import covered_reward

    inst = small_2d(seed=2, n=5, m=2)
    sol, _ = solve(inst)
    recomputed = covered_reward(inst.dzs, sol.placements, inst.base, inst.eta)
    assert math.isclose(sol.reward, recomputed, rel_tol=1e-9)


@pytest.mark.parametrize("inst", [small_2d(seed=0, n=6, m=2), small_1d(seed=3, n=6, p=2)], ids=["plane", "line"])
def test_zero_time_limit_returns_greedy_incumbent(inst):
    sol, stats = solve(inst, SolverConfig(time_limit_s=0.0))
    assert not stats.optimal
    assert math.isclose(sol.reward, greedy(inst).solution.reward, rel_tol=0, abs_tol=1e-12)


@pytest.mark.parametrize("seed", [24, 41])
def test_greedy_seed_is_the_covered_reward_of_its_placements(seed):
    # plane p=3 m=3 n=150 instances where greedy claims the sum of its rounds'
    # gains, 87733.63 (seed 24) and 84273.37 (seed 41), below what its
    # placements cover, 88116.95 and 84634.18
    inst = generate(GenConfig(seed=seed, n=150, p=3, m=3))
    trace = greedy(inst)
    covered = covered_reward(inst.dzs, trace.solution.placements, inst.base, inst.eta)
    assert covered > trace.solution.reward + 300.0
    sol, stats = solve(inst, SolverConfig(time_limit_s=0.0))
    assert stats.best_reward_history[0] == (0, covered)
    assert sol.reward == covered
    assert sol.placements == trace.solution.placements


def test_mixed_scale_abutment_regression():
    # Instances whose optimum needs a zone abutted against a differently
    # scaled neighbour, landing on the neighbour scale's grid.  Rewards were
    # frozen after cross-checking against the brute-force reference.
    inst = generate(GenConfig(seed=10, n=3, p=2, m=2, region=120.0, r=40.0,
                              dim_range=(5.0, 30.0), base_dims=(18.0, 14.0)))
    sol, stats = solve(inst)
    assert stats.optimal
    assert math.isclose(sol.reward, 3883.6899872147324, rel_tol=1e-12)


def test_empty_demand_solves_to_zero():
    inst = Instance(dzs=(), base=BaseServiceZone(2.0, 2.0), p=2, qos=QosSet((1.0, 2.0)))
    sol, stats = solve(inst)
    assert sol.reward == 0.0
    assert stats.optimal
    assert len(sol.placements) == 2


def test_solve_of_a_line_is_solve_1d_bit_for_bit():
    # solve() takes line instances; solve_1d only checks the dimension first
    inst = small_1d(seed=4, n=8, p=3)
    sol, stats = solve(inst)
    sol_1d, stats_1d = solve_1d(inst)
    assert stats.optimal and stats_1d.optimal and stats.nodes_explored > 0
    assert sol.reward.hex() == sol_1d.reward.hex() and sol.placements == sol_1d.placements
    assert stats.nodes_explored == stats_1d.nodes_explored
    assert stats.best_reward_history == stats_1d.best_reward_history
    assert stats.root_bound == stats_1d.root_bound


def _transposed(inst: Instance) -> Instance:
    """``inst`` with its axes swapped: x<->y and w<->l for every demand zone, w0<->l0 for the base."""
    dzs = tuple(DemandZone(Rect(d.rect.y, d.rect.x, d.rect.l, d.rect.w), d.v) for d in inst.dzs)
    return Instance(dzs, BaseServiceZone(inst.base.l0, inst.base.w0), inst.p, inst.qos, inst.eta, inst.dimension)


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def test_transposing_a_planar_instance_swaps_its_axes():
    # Every choice by axis, in the grids, the service breakpoints, the
    # residual gains and the search, reads the transposed instance's x data
    # where it read the original's y data, and the other way round.
    cases = [(2, 2, 12, range(20)), (3, 2, 8, range(5)), (2, 3, 20, range(20))]  # p, m, n, seeds
    for p, m, n, seeds in cases:
        for seed in seeds:
            inst = generate(GenConfig(seed=seed, n=n, p=p, m=m))
            flip = _transposed(inst)
            empty = ResidualDemand(inst.dzs, [], inst.base, inst.eta)
            flip_empty = ResidualDemand(flip.dzs, [], flip.base, flip.eta)
            for z in inst.scale_values():
                for axis in (Axis.X, Axis.Y):
                    key = (p, m, n, seed, z, axis)
                    grid = inner_demand_grid(inst.dzs, z, inst.base, axis).values
                    assert _bits(inner_demand_grid(flip.dzs, z, flip.base, 1 - axis).values) == _bits(grid), key
                    for d in inst.dzs:
                        coord = (d.rect.x, d.rect.y)[axis]
                        for owner in inst.scale_values():
                            got = service_breakpoints(coord, owner, z, flip.base, 1 - axis)
                            assert _bits(got) == _bits(service_breakpoints(coord, owner, z, inst.base, axis)), key
                    for fixed in inner_demand_grid(inst.dzs, z, inst.base, 1 - axis).values:
                        got = flip_empty.best_gain(z, fixed, 1 - axis)
                        assert got.hex() == empty.best_gain(z, fixed, axis).hex(), key
                        got = flip_empty.gain_column(z, fixed, 1 - axis, grid)
                        assert _bits(got) == _bits(empty.gain_column(z, fixed, axis, grid)), key
            sol, stats = solve(inst)
            flip_sol, flip_stats = solve(flip)
            assert stats.optimal and flip_stats.optimal
            assert abs(flip_sol.reward - sol.reward) <= RTOL * sol.reward, (p, m, n, seed)
            back = [Placement(q.y, q.x, q.z) for q in flip_sol.placements]
            assert math.isclose(covered_reward(inst.dzs, back, inst.base, inst.eta), flip_sol.reward, rel_tol=RTOL)


def _per_zone(seed, n, menus):
    """The demand of a small generated planar instance, with zone ``j`` on the menu ``menus[j]``."""
    inst = generate(GenConfig(seed=seed, n=n, p=len(menus), m=1, **TINY))
    return Instance(inst.dzs, inst.base, inst.p, tuple(QosSet(m) for m in menus), inst.eta)


def test_solve_proves_a_per_zone_planar_instance():
    # zone 0 on the menu {1}, zone 1 on {2, 3}: solve() used to refuse
    # per-zone menus in the plane
    inst = _per_zone(2, 4, ((1.0,), (2.0, 3.0)))
    sol, stats = solve(inst)
    assert stats.optimal and stats.nodes_explored > 0
    assert math.isclose(sol.reward, brute_force_2d(inst).reward, rel_tol=1e-9)
    assert all(pl.z in inst.qos_for(j).factors for j, pl in enumerate(sol.placements))


@pytest.mark.parametrize(
    "seed, n, menus",
    [
        (0, 4, ((1.0,), (2.0, 3.0))),
        (1, 4, ((1.0,), (2.0, 3.0))),
        (0, 4, ((1.0, 2.0), (2.0,))),
        (2, 4, ((1.0, 2.0), (2.0,))),
        (1, 3, ((3.0,), (1.0, 3.0))),
        (2, 3, ((3.0,), (1.0, 3.0))),
        (2, 2, ((1.0,), (2.0,), (2.0, 3.0))),
        (0, 2, ((2.0, 3.0), (1.0,), (2.0, 3.0))),
    ],
)
def test_per_zone_menus_match_the_oracle(seed, n, menus):
    # planar menus that mix one- and two-scale menus, so that zones fall
    # into several classes (the last case has a class of two); the search
    # branches on each case (24 to 8,498 nodes), and most of the time is
    # the oracle's (about 5 s for each p=3 case)
    inst = _per_zone(seed, n, menus)
    sol, stats = solve(inst)
    ref = brute_force_2d(inst)
    assert stats.optimal and stats.nodes_explored > 0
    assert math.isclose(sol.reward, ref.reward, rel_tol=1e-9)
    assert math.isclose(covered_reward(inst.dzs, sol.placements, inst.base, inst.eta), sol.reward, rel_tol=1e-12)


def test_grid_order_rule_on_per_zone_menus():
    # zone 1 (menu {2}) placed on its scale-2 grid, zone 0 (menu {1, 2})
    # still open: zone 0 is the lowest unplaced zone of its class and takes
    # its scale step, and each of its scales then takes only abutment pins,
    # the tree that places zone 0 first holding its grid values
    inst = _per_zone(0, 4, ((1.0, 2.0), (2.0,)))
    grids = CandidateGrids.from_instance(inst)
    cfg = SolverConfig()
    root = root_node(inst, grids)
    assert root.z_vec == (_UNSET, 2.0) and root.x_sets[0] == _OPEN
    assert root.x_sets[1] == (0, len(grids.matrices[2.0].xs), None) and root.bs == -1
    # each zone is a class of its own, so the root's children are zone 0's
    # scale step, then zone 1's first split (grid parts only: nothing is placed)
    children = branch(root, inst, grids, cfg)
    assert [(c.z_vec, c.bs) for c in children[:2]] == [((1.0, 2.0), 0), ((2.0, 2.0), 0)]
    assert [c.x_sets[1] for c in children[2:]] == list(grids.split(2.0, Axis.X, root.x_sets[1]))
    assert all(c.z_vec == root.z_vec and c.x_sets[0] == _OPEN for c in children[2:])
    node = Node(root.x_sets[:1] + ((1, 2, None),), root.y_sets, root.z_vec)
    for child in branch(node, inst, grids, cfg):
        assert child.bs == 0 and child.x_sets[0] == (0, len(grids.matrices[child.z_vec[0]].xs), None)
        pins = branch(child, inst, grids, cfg)
        assert pins and all(c.x_sets[0][2] is not None for c in pins)
    # zone 1 first split with zone 0 placed on its grid: grid parts as well
    node = Node(((0, 1, None), root.x_sets[1]), ((0, len(grids.matrices[1.0].ys), None), root.y_sets[1]), (1.0, 2.0))
    children = branch(node, inst, grids, cfg)
    assert any(c.x_sets[1][2] is None for c in children) and any(c.x_sets[1][2] is not None for c in children)


def test_grid_order_rule_on_y():
    # every x fixed; zone 1 (menu {2}, a class of its own) settled on a y
    # value of its scale-2 grid, zone 0 (menu {1, 2}) at scale 1 with its
    # whole y grid open: zone 0's first y split gives only abutment pins,
    # the tree that settles zone 0 first holding its grid values
    inst = _per_zone(0, 4, ((1.0, 2.0), (2.0,)))
    grids = CandidateGrids.from_instance(inst)
    cfg = SolverConfig()
    ny = {z: len(grids.matrices[z].ys) for z in (1.0, 2.0)}
    assert ny[2.0] > 1
    node = Node(((0, 1, None),) * 2, ((0, ny[1.0], None), (2, 3, None)), (1.0, 2.0))
    assert node.residual_axis == Axis.Y
    children = branch(node, inst, grids, cfg)
    assert children and _narrowed_on_y(node, children) == [[0]] * len(children)
    assert all(c.y_sets[0][2] is not None for c in children)
    # zone 1 open, zone 0 settled on its grid below it: grid parts as well
    node = Node(((0, 1, None),) * 2, ((2, 3, None), (0, ny[2.0], None)), (1.0, 2.0))
    children = branch(node, inst, grids, cfg)
    assert any(c.y_sets[1][2] is None for c in children) and any(c.y_sets[1][2] is not None for c in children)


@pytest.mark.parametrize(
    "seed, n, menus",
    [
        (4, 6, ((2.0,), (1.0,))),
        (4, 6, ((2.0,), (1.0, 2.0))),
        (4, 8, ((2.0,), (1.0,))),
    ],
)
def test_grid_order_rule_on_y_matches_the_oracle(seed, n, menus, monkeypatch):
    # each zone a class of its own, so the y phase may settle zone 1 first;
    # the wrapper counts the first y splits whose grid parts the rule
    # withholds (every child a pin, on a grid of more than one value)
    withheld = 0
    interval_children = bnb._interval_children

    def counting(node, j, axis, instance, grids, config):
        nonlocal withheld
        children = interval_children(node, j, axis, instance, grids, config)
        if axis == Axis.Y and node.y_sets[j] == (0, len(grids.matrices[node.z_vec[j]].ys), None):
            withheld += all(c.y_sets[j][2] is not None for c in children)
        return children

    monkeypatch.setattr(bnb, "_interval_children", counting)
    inst = _per_zone(seed, n, menus)
    sol, stats = solve(inst)
    assert stats.optimal and withheld > 0
    assert math.isclose(sol.reward, brute_force_2d(inst).reward, rel_tol=RTOL)


def test_order_step_keeps_one_representative_per_class():
    # every x fixed on its own grid: zones 0 and 2 share the menu {1, 2},
    # zone 1 is alone on {2}; zone 2 is left out, as zone 0 stands for it.
    # The children are zone 0's first y split, then zone 1's.
    inst = _per_zone(0, 4, ((1.0, 2.0), (2.0,), (1.0, 2.0)))
    grids = CandidateGrids.from_instance(inst)
    ny = {z: len(m.ys) for z, m in grids.matrices.items()}
    node = Node(((0, 1, None),) * 3, tuple((0, ny[z], None) for z in (1.0, 2.0, 2.0)), (1.0, 2.0, 2.0))
    assert node.residual_axis == Axis.Y
    narrowed = _narrowed_on_y(node, branch(node, inst, grids, SolverConfig()))
    assert narrowed == sorted(narrowed) and {j for (j,) in narrowed} == {0, 1}


@pytest.mark.parametrize(
    "inst",
    [
        pytest.param(generate(GenConfig(seed=2, n=6, p=2, m=2)), id="plane-p2"),
        pytest.param(generate(GenConfig(seed=2, n=4, p=3, m=2)), id="plane-p3"),
        pytest.param(small_1d(seed=3, n=8, p=3), id="line-p3"),
    ],
)
def test_every_child_narrows_a_set_or_fixes_a_scale(inst):
    # one next-zone rule on both axes: no child is a copy of its parent that
    # differs only in the zone it names, so every pop narrows the search.
    # The first 4000 nodes of the unbounded tree, depth first.
    grids = CandidateGrids.from_instance(inst)
    stack, walked = [root_node(inst, grids)], 0
    while stack and walked < 4000:
        node = stack.pop()
        walked += 1
        children = [] if is_leaf(node) else branch(node, inst, grids, SolverConfig())
        for child in children:
            assert (child.x_sets, child.y_sets, child.z_vec) != (node.x_sets, node.y_sets, node.z_vec), node
        stack.extend(reversed(children))
    assert walked > 100


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(scv_mode="inner")


@pytest.mark.parametrize("time_limit_s", [-1.0, math.nan])
def test_solver_config_rejects_negative_or_nan_time_limit(time_limit_s):
    with pytest.raises(ValueError, match="time_limit_s"):
        SolverConfig(time_limit_s=time_limit_s)
    SolverConfig(time_limit_s=0.0)
    SolverConfig(time_limit_s=math.inf)


def test_matches_oracle_on_a_mixed_menu_instance():
    inst = small_2d(seed=9, n=4, m=2)
    sol, stats = solve(inst)
    ref = brute_force_2d(inst)
    assert stats.optimal
    assert math.isclose(sol.reward, ref.reward, rel_tol=1e-9, abs_tol=1e-9)


@pytest.mark.parametrize("seed", [0, 1])
def test_matches_oracle_with_three_zones(seed):
    # Planar p=3 at the largest size the oracle reaches in seconds (n=3,
    # m=1): seed 0 searches 5,141 nodes against 576,072 oracle evaluations,
    # seed 1 6,444 against 571,536; most of the time is the oracle's.
    inst = small_2d(seed=seed, n=3, m=1, p=3)
    sol, stats = solve(inst)
    ref = brute_force_2d(inst)
    assert stats.optimal
    assert math.isclose(sol.reward, ref.reward, rel_tol=1e-9)


def test_full_scv_mode_first_split_has_more_children_than_outer():
    # with a two-scale menu the nesting candidates of a zone fixed at one
    # scale are genuinely new coordinates for a zone at the other, so that
    # zone's first split has strictly more children in full mode; the
    # optimum must not move.  (Both modes solve this instance in 74 nodes:
    # the bounds cut the extra children.)
    inst = small_2d(seed=0, n=5, m=2)
    grids = CandidateGrids.from_instance(inst)
    outer, full = SolverConfig(scv_mode="outer"), SolverConfig(scv_mode="full")
    node = branch(root_node(inst, grids), inst, grids, outer)[0]  # zone 0's scale step
    while node.bs == 0:  # zone 0 to a singleton; no zone is fixed for it to abut
        node = branch(node, inst, grids, outer)[0]
    node = next(c for c in branch(node, inst, grids, outer) if c.z_vec[1] != node.z_vec[0])
    assert node.x_sets[1] == (0, len(grids.matrices[node.z_vec[1]].xs), None)
    assert len(branch(node, inst, grids, full)) > len(branch(node, inst, grids, outer))
    sol_outer, _ = solve(inst, outer)
    sol_full, _ = solve(inst, full)
    assert math.isclose(sol_outer.reward, sol_full.reward, rel_tol=1e-9, abs_tol=1e-9)
