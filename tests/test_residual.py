"""The residual-demand bound: marginal gains, their maxima and soundness on search trees."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rectcover import (
    Axis,
    BaseServiceZone,
    DemandZone,
    Eta,
    GenConfig,
    Placement,
    Rect,
    covered_reward,
    generate,
    solve,
)
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
from rectcover.critical import inner_demand_grid, service_breakpoints
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
    column = residual.gain_column(z, fixed, axis, grid)
    best = residual.best_gain(z, fixed, axis)

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


_LATTICE = st.integers(-5, 40).map(float)
# spans from shorter than the smallest extent (8) to longer than the largest (20)
_SPAN = st.integers(1, 30).map(float)
_DEMAND = st.builds(lambda x, y, w, l, v: DemandZone(Rect(x, y, w, l), v), _LATTICE, _LATTICE, _SPAN, _SPAN,
                    st.floats(0.5, 10.0))


@st.composite
def _demand_zones(draw):
    """Demand zones on an integer lattice, some of them touching the one before on x or y."""
    zones = [draw(_DEMAND)]
    for _ in range(draw(st.integers(0, 7))):
        d = draw(_DEMAND)
        prev = zones[-1].rect
        touch = draw(st.sampled_from(["none", "x", "y"]))
        if touch == "x":
            d = DemandZone(Rect(prev.x2, prev.y, d.rect.w, d.rect.l), d.v)
        elif touch == "y":
            d = DemandZone(Rect(prev.x, prev.y2, d.rect.w, d.rect.l), d.v)
        zones.append(d)
    return zones


@settings(max_examples=150, deadline=None)
@given(
    dzs=_demand_zones(),
    placed=st.lists(st.tuples(_LATTICE, _LATTICE, st.sampled_from([1.0, 2.0])), min_size=1, max_size=2),
    z=st.sampled_from([1.0, 2.0]),
    fixed=_LATTICE,
    axis=st.sampled_from([Axis.X, Axis.Y]),
)
def test_whole_grid_maximum_is_read_at_flush_positions(dzs, placed, z, fixed, axis):
    base, eta = BaseServiceZone(10.0, 8.0), Eta.LINEAR
    placements = [Placement(x, y, s) for x, y, s in placed]
    best = ResidualDemand(dzs, placements, base, eta).best_gain(z, fixed, axis)

    def gain_at(points):
        # a fresh state per call: the column is memoised per (z, fixed, axis)
        fresh = ResidualDemand(dzs, placements, base, eta)
        column = fresh.gain_column(z, fixed, axis, np.asarray(points, float))
        return float(column.max(initial=0.0))

    on_x = axis is Axis.X
    # what the whole-grid maximum used to be taken over: t's own-scale
    # inner demand grid and the four service breakpoints of every zone of S
    old = list(inner_demand_grid(dzs, z, base, axis).values)
    for pl in placements:
        old += service_breakpoints(pl.x if on_x else pl.y, pl.z, z, base, axis)
    assert best >= gain_at(old) * (1 - 1e-12)
    # every piece edge is a demand edge or an edge of a zone of S, so these
    # hold the four trapezoid breakpoints (e - ext and e) of every piece
    unit = base.w0 if on_x else base.l0
    edges = [e for d in dzs for e in ((d.rect.x, d.rect.x2) if on_x else (d.rect.y, d.rect.y2))]
    for pl in placements:
        corner = pl.x if on_x else pl.y
        edges += [corner, corner + unit * pl.z]
    corners = edges + [e - unit * z for e in edges]
    assert math.isclose(best, gain_at(corners), rel_tol=1e-12, abs_tol=1e-12)


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
