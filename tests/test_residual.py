"""The residual-demand bound: marginal-gain columns and soundness on search trees."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rectcover import Axis, GenConfig, Placement, covered_reward, generate, solve
from rectcover.bnb import (
    CandidateGrids,
    SolverConfig,
    _is_single,
    _value,
    branch,
    is_leaf,
    leaf_placements,
    root_node,
    upper_bound,
)
from rectcover.bnb1d import branch_1d, is_leaf_1d, leaf_placements_1d, root_node_1d, upper_bound_1d
from rectcover.critical import service_breakpoints
from rectcover.reward import ResidualDemand

from conftest import micro_line, small_1d

TINY = dict(region=40.0, r=12.0, dim_range=(1.0, 8.0), base_dims=(10.0, 8.0))


def _plane_split(node, grids):
    """``(S, open zones)`` of a y-phase node: placements and ``(z, x, y set)``."""
    placed, opened = [], []
    for xs, ys, z in zip(node.x_sets, node.y_sets, node.z_vec):
        x = _value(xs, grids.x_by_scale[z])
        if _is_single(ys):
            placed.append(Placement(x, _value(ys, grids.y_by_scale[z]), z))
        else:
            opened.append((z, x, ys))
    return placed, opened


def _check_gains(inst, placed, z, fixed, axis, grid, seen):
    """Compare one residual column with covered rewards of ``S + t@c``.

    ``t`` is a scale-``z`` zone with its corner at ``fixed`` on the other
    axis.  Every grid entry of the column must equal the covered-reward
    difference there, no position of a dense sweep may gain more than
    ``best``, and ``best`` must be reached at some swept position.
    """
    key = (tuple(placed), z, fixed)
    if key in seen:
        return
    seen.add(key)
    dzs, base = inst.planar
    served = covered_reward(dzs, placed, base, inst.eta)
    residual = ResidualDemand(dzs, placed, base, inst.eta)
    assert math.isclose(residual.served, served, rel_tol=1e-12, abs_tol=1e-9)
    column, best = residual.gains(z, fixed, axis, grid)

    def gain(c):
        t = Placement(c, fixed, z) if axis is Axis.X else Placement(fixed, c, z)
        return covered_reward(dzs, placed + [t], base, inst.eta) - served

    for g, got in zip(grid, column):
        assert math.isclose(got, gain(g), rel_tol=1e-9, abs_tol=1e-9), (placed, z, fixed, g)
    reach = (base.w0 if axis is Axis.X else base.l0) * z
    kinks = [b for pl in placed for b in service_breakpoints(
        pl.x if axis is Axis.X else pl.y, pl.z, z, base, axis)]
    sweep = np.concatenate([np.linspace(min(grid) - reach, max(grid) + reach, 121), grid, kinks])
    swept = [gain(c) for c in sweep]
    assert max(swept) <= best + 1e-9, (placed, z, fixed)
    assert math.isclose(max(swept), best, rel_tol=1e-9, abs_tol=1e-9), (placed, z, fixed)


def test_plane_columns_match_covered_reward_differences():
    # every y-phase node with a placed zone in the ten full trees of
    # acceptance check 8 (S is one zone there), plus one planar p=3 subtree
    # with two placed zones
    cfg = SolverConfig()
    tighter = 0
    cases = [(generate(GenConfig(seed=seed, n=2, p=2, m=m, **TINY)), 1) for seed in range(5) for m in (1, 2)]
    cases.append((generate(GenConfig(seed=0, n=2, p=3, m=1, **TINY)), 2))
    for inst, want in cases:
        grids = CandidateGrids.from_instance(inst)
        stack = [root_node(inst, grids)]
        seen: set = set()
        while stack and len(seen) < 60:
            node = stack.pop()
            if is_leaf(node):
                continue
            stack.extend(branch(node, inst, grids, cfg))
            if node.ba is Axis.X and node.bs < inst.p:
                continue
            placed, opened = _plane_split(node, grids)
            if len(placed) != want:
                continue
            for z, x, _ in opened:
                _check_gains(inst, placed, z, x, Axis.Y, grids.y_by_scale[z], seen)
            isolated = upper_bound(node, grids.matrices, inst, floor=math.inf)
            tighter += upper_bound(node, grids.matrices, inst) < isolated
        assert seen, inst
    assert tighter > 0


def test_line_columns_match_covered_reward_differences():
    # every node below the root of two full line trees with a placed zone
    cfg = SolverConfig()
    seen: set = set()
    for inst in (micro_line(), small_1d(seed=1, n=5, p=3)):
        grids = CandidateGrids.from_instance(inst)
        stack = [root_node_1d(inst, grids)]
        while stack:
            node = stack.pop()
            if is_leaf_1d(node):
                continue
            stack.extend(branch_1d(node, inst, grids, cfg))
            scales = [q.factors[0] for q in inst.qos]
            placed = [
                Placement(_value(s, grids.x_by_scale[z]), 0.0, z)
                for s, z in zip(node.x_sets, scales)
                if _is_single(s)
            ]
            if node.bsfl < 0 or not placed:
                continue
            for s, z in zip(node.x_sets, scales):
                if not _is_single(s):
                    _check_gains(inst, placed, z, 0.0, Axis.X, grids.x_by_scale[z], seen)
    assert len(seen) > 20


def _assert_bound_dominates(root, children, at_leaf, value, bound, cap):
    """Below ``root`` (at most ``cap`` nodes): every bound is at least every leaf below it."""
    order, kids, stack = [], {}, [root]
    while stack:
        node = stack.pop()
        order.append(node)
        assert len(order) <= cap
        kids[id(node)] = [] if at_leaf(node) else children(node)
        stack.extend(kids[id(node)])
    best = {}
    for node in reversed(order):
        below = value(node) if at_leaf(node) else max((best[id(c)] for c in kids[id(node)]), default=-math.inf)
        best[id(node)] = below
        assert bound(node) >= below - 1e-9 * max(1.0, abs(below)), node


def _small_subtree(root, children, at_leaf, path, cap):
    """Walk ``path`` (child choices) from ``root`` to the first node whose subtree has at most ``cap`` nodes."""
    steps = iter(path)
    node = root
    while True:
        count, stack = 0, [node]
        while stack and count <= cap:
            n = stack.pop()
            count += 1
            if not at_leaf(n):
                stack.extend(children(n))
        if count <= cap:
            return node
        kids = children(node)
        node = kids[next(steps, 0) % len(kids)]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    p=st.integers(2, 3),
    n=st.integers(1, 4),
    m=st.integers(1, 2),
    path=st.lists(st.integers(0, 1_000), max_size=40),
)
def test_plane_bound_dominates_every_leaf_below(seed, p, n, m, path):
    # full trees where they are small, else the subtree below a drawn path
    # that is; bounds share one residual cache, as in a solve
    inst = generate(GenConfig(seed=seed, n=n, p=p, m=m, **TINY))
    grids = CandidateGrids.from_instance(inst)
    cfg = SolverConfig()
    children = lambda node: branch(node, inst, grids, cfg)
    top = _small_subtree(root_node(inst, grids), children, is_leaf, path, cap=4000)
    _assert_bound_dominates(
        top,
        children,
        is_leaf,
        lambda node: covered_reward(inst.dzs, leaf_placements(node, grids.matrices), inst.base, inst.eta),
        lambda node: upper_bound(node, grids.matrices, inst, cache=grids.residuals),
        cap=4000,
    )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), p=st.integers(2, 3), n=st.integers(1, 6))
def test_line_bound_dominates_every_leaf_below(seed, p, n):
    inst = small_1d(seed=seed, n=n, p=p)
    grids = CandidateGrids.from_instance(inst)
    cfg = SolverConfig()
    _assert_bound_dominates(
        root_node_1d(inst, grids),
        lambda node: branch_1d(node, inst, grids, cfg),
        is_leaf_1d,
        lambda node: covered_reward(
            inst.dzs, leaf_placements_1d(node, grids.matrices, inst), inst.base, inst.eta
        ),
        lambda node: upper_bound_1d(node, grids.matrices, inst, cache=grids.residuals),
        cap=20_000,
    )


def test_planar_three_zones_eight_demand_zones_proves():
    # plane p=3 m=2 n=8: 43,933 nodes with the residual bound, against
    # 615,223 (same optimum) with the isolated sum alone
    inst = generate(GenConfig(seed=2, n=8, p=3, m=2))
    sol, stats = solve(inst, SolverConfig(time_limit_s=60.0))
    assert stats.optimal
    assert math.isclose(sol.reward, 30396.89334300006, rel_tol=1e-9)
    assert math.isclose(covered_reward(inst.dzs, sol.placements, inst.base, inst.eta), sol.reward, rel_tol=1e-12)
