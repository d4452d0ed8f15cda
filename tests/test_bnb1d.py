"""Exact solver for the line variant."""

import math

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
    covered_reward,
    generate_1d,
    greedy,
    solve_1d,
)
from rectcover.bnb import (
    CandidateGrids,
    Node,
    SolverConfig,
    branch,
    is_leaf,
    leaf_placements,
    root_node,
    upper_bound,
)
from rectcover.geometry import Axis
from rectcover.reward import build_reward_matrix, planar_form

from conftest import (
    micro_line,
    pin_at,
    small_1d,
    square_instance,
)


def line_node(inst, x_sets, bs=-1):
    """A line node: each zone at its one scale, its y set the single index 0."""
    return Node(x_sets, ((0, 1, None),) * inst.p, tuple(q.factors[0] for q in inst.qos), bs)


def test_micro_line_optimum():
    # best: narrow zone on [0,2] at full rate, wide zone picking up [2,4] at
    # half rate; checked against the brute-force reference
    inst = micro_line()
    sol, stats = solve_1d(inst)
    assert stats.optimal
    assert math.isclose(sol.reward, 3.0, rel_tol=0, abs_tol=1e-9)
    got = covered_reward(inst.dzs, sol.placements, inst.base, inst.eta)
    assert math.isclose(got, sol.reward, rel_tol=0, abs_tol=1e-9)


def test_micro_line_greedy_trace():
    tr = greedy(micro_line())
    assert tr.rewards == (2.0, 1.0)
    assert tr.solution.reward == 3.0


def test_root_takes_each_class_first_step():
    inst = micro_line()
    cfg = SolverConfig()
    grids = CandidateGrids.from_instance(inst)
    root = root_node(inst, grids)
    # every zone on its whole grid: scale 1 (0.0, 2.0), scale 2 (0.0,)
    assert {z: m.xs.values for z, m in grids.matrices.items()} == {1.0: (0.0, 2.0), 2.0: (0.0,)}
    assert root.x_sets == ((0, 2, None), (0, 1, None))
    assert root.y_sets == ((0, 1, None), (0, 1, None))
    assert root.z_vec == (1.0, 2.0)
    assert root.bs == -1 and not is_leaf(root)
    # every y set is a singleton, so the residual bound runs on x from the root
    assert root.residual_axis == Axis.X
    children = branch(root, inst, grids, cfg)
    # zone 1's grid holds one value, so it is placed from the root; zone 0,
    # the one unplaced zone, takes its first split: its two grid values, then
    # the abutments of zone 1 at 0.0 (width 4), -2.0 and 4.0
    assert [c.x_sets[0] for c in children] == [(0, 1, None), (1, 2, None), (0, 1, -2.0), (1, 2, 4.0)]
    assert all(c.bs == -1 and c[1:3] == root[1:3] and c.x_sets[1] == root.x_sets[1] for c in children)
    assert all(map(is_leaf, children))


def test_leaf_uses_per_zone_scales():
    inst = micro_line()
    mats = {z: build_reward_matrix(inst.dzs, z, inst.base, inst.eta) for z in inst.scale_values()}
    # zone 0 on the scale-1 grid at 0.0; zone 1 at 2.0, off the scale-2 grid (0.0,)
    leaf = line_node(inst, ((0, 1, None), (0, 1, 2.0)))
    assert is_leaf(leaf)
    assert leaf_placements(leaf, mats) == (
        Placement(0.0, 0.0, 1.0),
        Placement(2.0, 0.0, 2.0),
    )


def two_segment_line() -> "Instance":
    """Segments [0,4] and [6,10]; the wide zone's grid has two candidates."""
    return Instance(
        dzs=(
            DemandZone(Rect(0.0, 0.0, 4.0, 0.0), 1.0),
            DemandZone(Rect(6.0, 0.0, 4.0, 0.0), 1.0),
        ),
        base=BaseServiceZone(2.0, 0.0),
        p=2,
        qos=(QosSet((1.0,)), QosSet((2.0,))),
        dimension=Dimension.ONE_D,
    )


def test_abutment_children_generated_for_open_zones():
    inst = two_segment_line()
    cfg = SolverConfig()
    grids = CandidateGrids.from_instance(inst)
    assert grids.matrices[1.0].xs.values[0] == 0.0
    assert grids.matrices[2.0].xs.values == (0.0, 6.0)
    # zone 0 settled at x=0 (scale 1, width 2); zone 1 still open
    node = line_node(inst, ((0, 1, None), (0, 2, None)))
    children = branch(node, inst, grids, cfg)
    pinned = [c.x_sets[1] for c in children if c.x_sets[1][2] is not None]
    # left abutment: 0 - 4 = -4 (below the grid); right abutment: 0 + 2 = 2
    # (between 0.0 and 6.0), each with the block that bounds it
    assert (0, 1, -4.0) in pinned
    assert (0, 2, 2.0) in pinned
    # zone 1 is above zone 0, the one zone placed on its grid, so every
    # value of its whole grid also stays in play
    assert {c.x_sets[1] for c in children if c.x_sets[1][2] is None} == {(0, 1, None), (1, 2, None)}


def test_no_duplicate_grid_subtree_for_lower_index():
    inst = two_segment_line()
    cfg = SolverConfig()
    grids = CandidateGrids.from_instance(inst)
    # zone 1 placed first on its grid (0.0 of (0.0, 6.0)), zone 0 open; zone
    # 0's grid values must not appear (the tree that places zone 0 first
    # already holds those), so every child pins zone 0 at an abutment value.
    # (micro_line's zone 1 has a grid of one value, which the rule leaves out.)
    node = line_node(inst, ((0, len(grids.matrices[1.0].xs), None), (0, 1, None)))
    children = branch(node, inst, grids, cfg)
    assert children
    assert all(c.x_sets[0][2] is not None for c in children)


def test_upper_bound_sound_on_micro_tree():
    inst = micro_line()
    cfg = SolverConfig()
    grids = CandidateGrids.from_instance(inst)
    mats = {z: build_reward_matrix(inst.dzs, z, inst.base, inst.eta) for z in inst.scale_values()}
    root = root_node(inst, grids)

    def max_leaf_below(node):
        if is_leaf(node):
            return covered_reward(inst.dzs, leaf_placements(node, mats), inst.base, inst.eta)
        best = 0.0
        for child in branch(node, inst, grids, cfg):
            below = max_leaf_below(child)
            assert upper_bound(child, CandidateGrids(mats), inst) >= below - 1e-9
            best = max(best, below)
        return best

    assert max_leaf_below(root) <= upper_bound(root, CandidateGrids(mats), inst) + 1e-9


def test_leaf_bound_on_lifted_demand_is_exact():
    inst = small_1d(seed=1, n=5, p=2)
    grids = CandidateGrids.from_instance(inst)
    mats = grids.matrices
    scales = [inst.qos_for(j).factors[0] for j in range(inst.p)]
    leaf = line_node(inst, tuple(pin_at(v, grids.matrices[z].xs.values) for v, z in zip((28.0, 85.0), scales)))
    assert [pl.x for pl in leaf_placements(leaf, mats)] == [28.0, 85.0]
    exact = covered_reward(inst.dzs, leaf_placements(leaf, mats), inst.base, inst.eta)
    assert exact > 0
    assert upper_bound(leaf, grids, inst) == exact
    # the leaf read the demand lifted once for the instance
    assert inst.planar is inst.planar
    assert inst.planar == planar_form(inst.dzs, inst.base)


@pytest.mark.parametrize("p", [2, 3])
def test_root_is_a_leaf_when_every_grid_holds_one_value(p):
    # one segment [0, 4] and zones of width 4: every grid is (0.0,), so the
    # root's sets are all singletons and the root is the one leaf
    inst = Instance(
        dzs=(DemandZone(Rect(0.0, 0.0, 4.0, 0.0), 1.0),),
        base=BaseServiceZone(2.0, 0.0),
        p=p,
        qos=(QosSet((2.0,)),) * p,
        dimension=Dimension.ONE_D,
    )
    grids = CandidateGrids.from_instance(inst)
    root = root_node(inst, grids)
    assert root.x_sets == ((0, 1, None),) * p and is_leaf(root)
    assert upper_bound(root, grids, inst) == 2.0
    # The greedy seed already covers the whole segment, which no placement
    # beats, so the solve stops before its root.
    sol, stats = solve_1d(inst)
    assert stats.nodes_explored == 0
    assert stats.optimal and sol.reward == 2.0


@pytest.mark.parametrize(
    "seed, n, mode, nodes, reward",
    [
        pytest.param(38, 12, "outer", 97, 584.8876482173569, id="38-1334-584.8876482173569"),
        pytest.param(4, 12, "outer", 239, 953.3261811933497, id="4-2530-953.3261811933497"),
        pytest.param(3, 8, "outer", 109, 763.7557453323485, id="3-n8-outer-7719"),
        pytest.param(3, 8, "full", 127, 763.7557453323485, id="3-n8-full-10888"),
    ],
)
def test_node_count_fingerprint(seed, n, mode, nodes, reward):
    # Recorded with the Lagrangian bound as well as the residual bound; the
    # ids keep the counts of the isolated-sum bound alone (1334, 2530, 7719,
    # 10888).  With the residual bound, before the Lagrangian bound, they
    # were 229, 357, 589 and 710; the Lagrangian bound cuts nodes the other
    # two keep, and the optima stay the same.  A pure speed-up or refactor
    # must not move them.  Seed 4 had gone from 442 to 357 nodes when
    # children came to be ranked by their reward-matrix block maximum
    # instead of a demand-mass table.  Re-recorded when the line came to be
    # searched with the planar tree (134, 283, 134 and 167 before): the root
    # no longer dispatches one first-level node per zone, a zone's first
    # split lists its grid parts and pins at once instead of through a node
    # that keeps its whole grid, and the grid-order rule replaces the
    # first-placed-zone rule; the optima are the same bit for bit.  They
    # were 126, 270, 131 and 149 while the interval step cut a slice at its
    # wide gaps, and fell when it came to cut four equal runs.
    inst = generate_1d(GenConfig(seed=seed, n=n, p=3, dimension=Dimension.ONE_D))
    sol, stats = solve_1d(inst, SolverConfig(scv_mode=mode))
    assert stats.nodes_explored == nodes
    assert stats.optimal
    assert math.isclose(sol.reward, reward, rel_tol=1e-9)


def test_matches_reference_on_generated_lines():
    for seed, n, p in ((0, 4, 2), (1, 5, 2), (0, 4, 3)):
        inst = small_1d(seed=seed, n=n, p=p)
        sol, stats = solve_1d(inst)
        ref = brute_force_1d(inst)
        assert stats.optimal
        assert math.isclose(sol.reward, ref.reward, rel_tol=1e-9, abs_tol=1e-9)


def test_rejects_planar_instances():
    with pytest.raises(ValueError):
        solve_1d(square_instance())


def _shared_scales(seed, n, scales):
    """``small_1d``'s segments with zone ``j`` at the scale ``scales[j]``, some of them equal."""
    inst = small_1d(seed=seed, n=n, p=len(scales))
    return Instance(inst.dzs, inst.base, inst.p, tuple(QosSet((z,)) for z in scales), inst.eta, Dimension.ONE_D)


@pytest.mark.parametrize(
    "seed, n, scales",
    [
        (0, 6, (1.0, 1.0, 2.0)),
        (2, 6, (1.0, 1.0, 2.0)),
        (1, 6, (2.0, 1.0, 2.0)),
        (2, 5, (1.0, 1.0, 1.0)),
        (1, 3, (1.0, 1.0, 2.0, 2.0)),
        (2, 3, (1.0, 1.0, 2.0, 2.0)),
        (0, 4, (1.0, 2.0, 2.0, 3.0)),
    ],
)
def test_shared_scales_match_the_oracle(seed, n, scales):
    # zones of equal scale form one class, placed in index order; the search
    # branches on each case (62 to 2,594 nodes)
    inst = _shared_scales(seed, n, scales)
    sol, stats = solve_1d(inst)
    assert stats.optimal and stats.nodes_explored > 0
    assert math.isclose(sol.reward, brute_force_1d(inst).reward, rel_tol=1e-9)
    assert [pl.z for pl in sol.placements] == list(scales)


def test_zones_of_one_scale_are_one_class():
    # zones 0 and 1 share scale 1: at the root only zone 0 of that class
    # takes its first split, next to zone 2, alone on scale 2
    inst = _shared_scales(0, 6, (1.0, 1.0, 2.0))
    grids = CandidateGrids.from_instance(inst)
    cfg = SolverConfig()
    root = root_node(inst, grids)
    children = branch(root, inst, grids, cfg)
    moved = [next(j for j in range(inst.p) if c.x_sets[j] != root.x_sets[j]) for c in children]
    parts = {z: grids.split(z, Axis.X, (0, len(grids.matrices[z].xs), None)) for z in (1.0, 2.0)}
    assert moved == [0] * len(parts[1.0]) + [2] * len(parts[2.0])


LINE_P4 = [
    (0, 2987, "0x1.563798dc39505p+10"),
    (1, 1651, "0x1.0ebc9c5c6492cp+10"),
    (2, 7613, "0x1.20354558684a5p+10"),
    (3, 5433, "0x1.f9cc142fe07fap+9"),
    (4, 7721, "0x1.feff4da017e13p+9"),
    (5, 11399, "0x1.276ca40ff11bdp+10"),
    (6, 21135, "0x1.180043340299dp+10"),
    (7, 3983, "0x1.fb3f16fadf4a5p+9"),
    (8, 3439, "0x1.abcbd02799305p+9"),
    (9, 10337, "0x1.917600f137aabp+10"),
]


@pytest.mark.parametrize("seed, nodes, reward", LINE_P4, ids=[f"seed{s}" for s, _, _ in LINE_P4])
def test_line_p4_fingerprint(seed, nodes, reward):
    # line p=4 n=12 seeds 0-9, the largest line size of the paper's grid:
    # 75,698 nodes in all with the interval step cutting a slice into four
    # equal runs (every seed falls), against 80,037 while it cut at wide
    # gaps and 120,761 when the line had a tree of its own, with the same
    # optima bit for bit.  A pure speed-up or refactor must not move them.
    sol, stats = solve_1d(generate_1d(GenConfig(seed=seed, n=12, p=4, dimension=Dimension.ONE_D)))
    assert stats.optimal
    assert stats.nodes_explored == nodes
    assert sol.reward.hex() == reward
