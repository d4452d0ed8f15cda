"""The residual-demand bound: marginal gains, their maxima and soundness on search trees."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rectcover import (
    BaseServiceZone,
    DemandZone,
    Dimension,
    Eta,
    GenConfig,
    Instance,
    Placement,
    QosSet,
    Rect,
    covered_reward,
    generate,
    generate_1d,
    greedy,
    solve,
    solve_1d,
)
from rectcover import bnb
from rectcover.bnb import (
    _UNSET,
    CandidateGrids,
    Lagrangian,
    SolverConfig,
    _gain_sum,
    _is_single,
    _value,
    branch,
    fit_lagrangian,
    is_leaf,
    leaf_placements,
    root_node,
    upper_bound,
)
from rectcover.critical import inner_demand_grid, service_breakpoints
from rectcover.geometry import Axis
from rectcover.reward import ResidualDemand

from conftest import micro_line, small_1d

TINY = dict(region=40.0, r=12.0, dim_range=(1.0, 8.0), base_dims=(10.0, 8.0))


def _plane_split(node, grids):
    """``(S, open zones)`` of a y-phase node: placements and ``(z, x, y set)``."""
    placed, opened = [], []
    for xs, ys, z in zip(node.x_sets, node.y_sets, node.z_vec):
        x = _value(xs, grids.matrices[z].xs.values)
        if _is_single(ys):
            placed.append(Placement(x, _value(ys, grids.matrices[z].ys.values), z))
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
        t = Placement(c, fixed, z) if axis == Axis.X else Placement(fixed, c, z)
        return covered_reward(dzs, placed + [t], base, inst.eta) - served

    for g, got in zip(grid, column):
        assert math.isclose(got, gain(g), rel_tol=1e-9, abs_tol=1e-9), (placed, z, fixed, g)
    reach = (base.w0 if axis == Axis.X else base.l0) * z
    kinks = [b for pl in placed for b in service_breakpoints(
        pl.x if axis == Axis.X else pl.y, pl.z, z, base, axis)]
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

    on_x = axis == Axis.X
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


def _state_bits(state, z, fixed, axis, grid):
    """Every figure of ``state`` a bound reads, as bytes: ``f(S)``, each piece column and the gains at ``(z, fixed, axis)``."""
    columns = (*state._lo, *state._hi, state._v, state._paid)
    gains = (np.float64(state.best_gain(z, fixed, axis)), state.gain_column(z, fixed, axis, grid))
    return [np.float64(state.served).tobytes()] + [np.asarray(a).tobytes() for a in columns + gains]


_COORD = st.one_of(_LATTICE, st.floats(-5.0, 40.0))


@settings(max_examples=150, deadline=None)
@given(
    dzs=_demand_zones(),
    one_d=st.booleans(),
    placed=st.lists(st.tuples(st.sampled_from([1.0, 1.5, 2.0]), _COORD, _COORD), min_size=1, max_size=4),
    start=st.integers(0, 3),
    z=st.sampled_from([1.0, 2.0]),
    fixed=_COORD,
    axis=st.sampled_from([Axis.X, Axis.Y]),
)
def test_an_extended_state_equals_the_state_built_from_the_demand(dzs, one_d, placed, start, z, fixed, axis):
    # keys as upper_bound sorts them, (z, x, y), ties in z included: a state
    # built from the demand over a prefix of the key, extended by each zone
    # after it, equals bit for bit the state built over the longer prefix
    base, eta = BaseServiceZone(10.0, 8.0), Eta.LINEAR
    if one_d:  # the lattice zones' x spans as segments, every zone at y 0
        dzs = [DemandZone(Rect(d.rect.x, 0.0, d.rect.w, 0.0), d.v) for d in dzs]
        base, placed, axis, fixed = BaseServiceZone(10.0, 0.0), [(s, x, 0.0) for s, x, _ in placed], Axis.X, 0.0
    key = sorted(placed)
    start = 1 + start % len(key)
    grid = np.linspace(-15.0, 45.0, 61)
    first = ResidualDemand(dzs, [Placement(x, y, s) for s, x, y in key[:start]], base, eta)
    state = first
    for k in range(start, len(key)):
        s, x, y = key[k]
        state = state.extended(Placement(x, y, s))
        built = ResidualDemand(dzs, [Placement(x, y, s) for s, x, y in key[: k + 1]], base, eta)
        assert _state_bits(state, z, fixed, axis, grid) == _state_bits(built, z, fixed, axis, grid), key[: k + 1]
    # the rest of the key served at once, and the whole key from the demand itself
    built = ResidualDemand(dzs, [Placement(x, y, s) for s, x, y in key], base, eta)
    demand = ResidualDemand(dzs, (), base, eta)
    for head, rest in ((first, key[start:]), (demand, key)):
        at_once = head.extended(*[Placement(x, y, s) for s, x, y in rest])
        assert _state_bits(at_once, z, fixed, axis, grid) == _state_bits(built, z, fixed, axis, grid), (key, len(rest))


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
            if node.residual_axis != Axis.Y:
                continue
            placed, opened = _plane_split(node, grids)
            if len(placed) != want:
                continue
            for z, x, _ in opened:
                _check_gains(inst, placed, z, x, Axis.Y, grids.matrices[z].ys.values, seen)
            isolated = upper_bound(node, grids, inst, floor=math.inf)
            tighter += upper_bound(node, grids, inst) < isolated
        assert seen, inst
    assert tighter > 0


def test_line_columns_match_covered_reward_differences():
    # every node of two full line trees with a placed zone
    cfg = SolverConfig()
    seen: set = set()
    for inst in (micro_line(), small_1d(seed=1, n=5, p=3)):
        grids = CandidateGrids.from_instance(inst)
        stack = [root_node(inst, grids)]
        while stack:
            node = stack.pop()
            if is_leaf(node):
                continue
            stack.extend(branch(node, inst, grids, cfg))
            scales = [q.factors[0] for q in inst.qos]
            assert node.z_vec == tuple(scales)
            placed = [
                Placement(_value(s, grids.matrices[z].xs.values), 0.0, z)
                for s, z in zip(node.x_sets, scales)
                if _is_single(s)
            ]
            if not placed:
                continue
            for s, z in zip(node.x_sets, scales):
                if not _is_single(s):
                    _check_gains(inst, placed, z, 0.0, Axis.X, grids.matrices[z].xs.values, seen)
    assert len(seen) > 20


def _assert_bound_dominates(inst, grids, root, children, cap):
    """Below ``root`` (at most ``cap`` nodes): every bound is at least every leaf below it.

    Leaves, their values and the bounds are the shared ``is_leaf``,
    ``leaf_placements`` and ``upper_bound``, the bounds sharing one residual
    cache and taking the Lagrangian state of ``grids``, as in a solve;
    ``children`` is the solver's branching rule.
    """
    order, kids, stack = [], {}, [root]
    while stack:
        node = stack.pop()
        order.append(node)
        assert len(order) <= cap
        kids[id(node)] = [] if is_leaf(node) else children(node)
        stack.extend(kids[id(node)])
    best = {}
    for node in reversed(order):
        if is_leaf(node):
            below = covered_reward(inst.dzs, leaf_placements(node, grids.matrices), inst.base, inst.eta)
        else:
            below = max((best[id(c)] for c in kids[id(node)]), default=-math.inf)
        best[id(node)] = below
        bound = upper_bound(node, grids, inst)
        assert bound >= below - 1e-9 * max(1.0, abs(below)), node


def _small_subtree(root, children, path, cap):
    """Walk ``path`` (child choices) from ``root`` to the first node whose subtree has at most ``cap`` nodes."""
    steps = iter(path)
    node = root
    while True:
        count, stack = 0, [node]
        while stack and count <= cap:
            n = stack.pop()
            count += 1
            if not is_leaf(n):
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
    # that is; bounds share one residual cache and the Lagrangian state
    # fitted at the root, as in a solve
    inst = generate(GenConfig(seed=seed, n=n, p=p, m=m, **TINY))
    grids = CandidateGrids.from_instance(inst)
    root = root_node(inst, grids)
    grids = _fitted(inst, grids, root)
    cfg = SolverConfig()
    children = lambda node: branch(node, inst, grids, cfg)
    top = _small_subtree(root, children, path, cap=4000)
    _assert_bound_dominates(inst, grids, top, children, cap=4000)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), p=st.integers(2, 3), n=st.integers(1, 6))
def test_line_bound_dominates_every_leaf_below(seed, p, n):
    inst = small_1d(seed=seed, n=n, p=p)
    grids = CandidateGrids.from_instance(inst)
    root = root_node(inst, grids)
    grids = _fitted(inst, grids, root)
    cfg = SolverConfig()
    _assert_bound_dominates(inst, grids, root, lambda node: branch(node, inst, grids, cfg), cap=20_000)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 4),
    menus=st.lists(st.sampled_from([(1.0,), (2.0,), (1.0, 2.0), (2.0, 3.0)]), min_size=2, max_size=3),
    path=st.lists(st.integers(0, 1_000), max_size=40),
)
def test_per_zone_bound_dominates_every_leaf_below(seed, n, menus, path):
    # planar per-zone menus, zones of equal menus forming a class; an open
    # zone's bound takes the best entry of every scale's matrix
    base = generate(GenConfig(seed=seed, n=n, p=len(menus), m=1, **TINY))
    inst = Instance(base.dzs, base.base, base.p, tuple(QosSet(m) for m in menus), base.eta)
    grids = CandidateGrids.from_instance(inst)
    root = root_node(inst, grids)
    grids = _fitted(inst, grids, root)
    cfg = SolverConfig()
    children = lambda node: branch(node, inst, grids, cfg)
    top = _small_subtree(root, children, path, cap=4000)
    _assert_bound_dominates(inst, grids, top, children, cap=4000)


def _fitted(inst, grids, root):
    """``grids`` with the Lagrangian bound fitted at ``root`` toward the greedy seed's covered reward, as in a solve."""
    lower = covered_reward(inst.dzs, greedy(inst).solution.placements, inst.base, inst.eta)
    return replace(grids, lagrangian=fit_lagrangian(root, inst, grids.matrices, lower))


@pytest.mark.parametrize("one_d", [False, True])
def test_fitted_lagrangian_bound_dominates_every_leaf_below(one_d):
    # fixed instances on which the fitted bound is below the isolated sum at
    # the root, so that the dominance checks above run with a bound that cuts
    cfg = SolverConfig()
    for seed in range(6):
        if one_d:
            inst = small_1d(seed=seed, n=5, p=3)
            grids = CandidateGrids.from_instance(inst)
            root, children = root_node(inst, grids), lambda node: branch(node, inst, grids, cfg)
        else:
            inst = generate(GenConfig(seed=seed, n=2, p=2, m=2, **TINY))
            grids = CandidateGrids.from_instance(inst)
            root, children = root_node(inst, grids), lambda node: branch(node, inst, grids, cfg)
        grids = _fitted(inst, grids, root)
        assert grids.lagrangian.bound(root) < upper_bound(root, replace(grids, lagrangian=None), inst)
        _assert_bound_dominates(inst, grids, root, children, cap=20_000)


@pytest.mark.parametrize("one_d", [False, True])
def test_a_one_step_fit_returns_the_reward_matrices_tables(one_d, monkeypatch):
    # the one step is at mu = r: T1 is 0 and each L_z is its scale's reward
    # matrix, reweighted by its own rates, on the same grids and overlap tables
    monkeypatch.setattr(bnb, "FIT_STEPS", 1)
    inst = small_1d(seed=0, n=5, p=3) if one_d else generate(GenConfig(seed=0, n=4, p=2, m=2, **TINY))
    grids = CandidateGrids.from_instance(inst)
    lagrangian = _fitted(inst, grids, root_node(inst, grids)).lagrangian
    assert lagrangian.t1 == 0.0
    assert list(lagrangian.matrices) == list(grids.matrices)
    for z, m in grids.matrices.items():
        table = lagrangian.matrices[z]
        assert table.entries.dtype == m.entries.dtype and table.entries.shape == m.entries.shape
        assert table.entries.tobytes() == m.entries.tobytes()
        assert table.xs is m.xs and table.ys is m.ys and table.ox is m.ox and table.oy is m.oy


def _drawn_node(root, children, path):
    """The node reached from ``root`` by taking child ``path[k] % len(children)`` at step ``k``.

    The walk also stops at a node without children: with several classes,
    a zone the grid-order rule keeps off its grid has none when every
    abutment of the placed zones lies on that grid.
    """
    node = root
    for step in path:
        kids = [] if is_leaf(node) else children(node)
        if not kids:
            break
        node = kids[step % len(kids)]
    return node


def _draw_position(data, s, grid, reach):
    """A coordinate the candidate set ``s`` on ``grid`` may end at below its node.

    A pinned set holds its value and a strict slice its grid values.  The
    whole grid (or an open zone, ``s`` None) may still be pinned at an
    abutment anywhere, so a real position is drawn around the grid too.
    """
    if s is not None and s[2] is not None:
        return s[2]
    lo, hi = (0, len(grid)) if s is None else s[:2]
    if (lo, hi) != (0, len(grid)) or data.draw(st.booleans()):
        return grid[data.draw(st.integers(lo, hi - 1))]
    return data.draw(st.floats(grid[0] - reach - 1.0, grid[-1] + 1.0))


def _assert_lagrangian_bounds_drawn_placements(data, inst, grids, node):
    """For drawn ``mu >= 0``, ``node``'s Lagrangian bound is at least the covered reward of drawn placements."""
    rates = np.stack([m.rates for m in grids.matrices.values()], axis=1)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kind = data.draw(st.sampled_from(["scaled", "sparse", "zero", "large"]))
    mu = rates * rng.uniform(0.0, 2.0, rates.shape)
    if kind == "sparse":
        mu *= rng.random(mu.shape) < 0.5
    elif kind == "zero":
        mu *= 0.0
    elif kind == "large":
        mu *= 10.0
    dzs, base = inst.planar
    lagrangian = Lagrangian.of(mu, rates, np.array([d.rect.w * d.rect.l for d in dzs]), grids.matrices)
    placements = []
    for j, (xs, ys, z) in enumerate(zip(node.x_sets, node.y_sets, node.z_vec)):
        if z == _UNSET:
            z, xs, ys = data.draw(st.sampled_from(inst.qos_for(j).factors)), None, None
        m = grids.matrices[z]
        x = _draw_position(data, xs, m.xs.values, base.w0 * z)
        y = _draw_position(data, ys, m.ys.values, base.l0 * z)
        placements.append(Placement(x, y, z))
    covered = covered_reward(dzs, placements, base, inst.eta)
    assert lagrangian.bound(node) >= covered * (1 - 1e-12) - 1e-9, (node, placements, kind)
    assert upper_bound(node, replace(grids, lagrangian=lagrangian), inst) >= covered * (1 - 1e-12) - 1e-9


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    p=st.integers(2, 3),
    n=st.integers(1, 5),
    m=st.integers(1, 3),
    path=st.lists(st.integers(0, 1_000), max_size=30),
    data=st.data(),
)
def test_plane_lagrangian_bound_holds_for_any_multipliers(seed, p, n, m, path, data):
    inst = generate(GenConfig(seed=seed, n=n, p=p, m=m, **TINY))
    grids = CandidateGrids.from_instance(inst)
    cfg = SolverConfig()
    node = _drawn_node(root_node(inst, grids), lambda node: branch(node, inst, grids, cfg), path)
    _assert_lagrangian_bounds_drawn_placements(data, inst, grids, node)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    p=st.integers(2, 4),
    n=st.integers(1, 8),
    path=st.lists(st.integers(0, 1_000), max_size=30),
    data=st.data(),
)
def test_line_lagrangian_bound_holds_for_any_multipliers(seed, p, n, path, data):
    inst = small_1d(seed=seed, n=n, p=p)
    grids = CandidateGrids.from_instance(inst)
    cfg = SolverConfig()
    node = _drawn_node(root_node(inst, grids), lambda node: branch(node, inst, grids, cfg), path)
    _assert_lagrangian_bounds_drawn_placements(data, inst, grids, node)


def _assert_reference_bound_holds(data, inst, grids, path, children, root):
    """The reference-set bound holds at every node with a residual axis on a drawn walk.

    The walk starts at the node ``path`` reaches and takes drawn children
    down to a leaf.  At each node with a residual axis, two reference sets
    ``A`` are checked by :func:`_assert_reference_set_bounds`: the zones
    settled on that axis, which makes the bound tight when one zone is
    open, and a drawn set of some of them and of zones on and off the grids.
    """
    node = _drawn_node(root, children, path)
    checked = 0
    while True:
        axis = node.residual_axis
        if axis is not None:
            settled = _settled(node, grids, axis)
            reference = [pl for pl in settled if data.draw(st.booleans())]
            base = inst.planar[1]
            for _ in range(data.draw(st.integers(0, 2))):
                z = data.draw(st.sampled_from(inst.scale_values()))
                xs, ys = grids.matrices[z].xs.values, grids.matrices[z].ys.values
                if data.draw(st.booleans()):  # on the grids
                    x, y = data.draw(st.sampled_from(xs)), data.draw(st.sampled_from(ys))
                else:
                    x = data.draw(st.floats(xs[0] - base.w0 * z, xs[-1] + 1.0))
                    y = data.draw(st.floats(ys[0] - base.l0 * z, ys[-1] + 1.0))
                reference.append(Placement(x, y, z))
            for ref in (settled, reference):
                _assert_reference_set_bounds(data, inst, grids, node, ref)
            checked += 1
        kids = [] if is_leaf(node) else children(node)
        if not kids:  # a leaf, or a node the grid-order rule leaves without children
            break
        node = kids[data.draw(st.integers(0, len(kids) - 1))]
    assume(checked)


def _at(axis, z, c, corner):
    """A scale-``z`` placement with its corner at ``corner`` on ``axis`` and at ``c`` on the other."""
    return Placement(corner, c, z) if axis == Axis.X else Placement(c, corner, z)


def _zone_terms(node, grids, axis):
    """Each zone's ``(z, c, grid, s)`` for ``bnb._gain_sum``: scale, fixed corner off ``axis``, grid and set on it."""
    terms = []
    for xs, ys, z in zip(node.x_sets, node.y_sets, node.z_vec):
        m = grids.matrices[z]
        terms.append((z, _value(ys, m.ys.values), m.xs.values, xs) if axis == Axis.X
                     else (z, _value(xs, m.xs.values), m.ys.values, ys))
    return terms


def _settled(node, grids, axis):
    """The placements of ``node``'s zones whose set on ``axis`` is a singleton."""
    zones = _zone_terms(node, grids, axis)
    return [_at(axis, z, c, _value(s, grid)) for z, c, grid, s in zones if _is_single(s)]


def _assert_reference_set_bounds(data, inst, grids, node, reference):
    """``node``'s reference-set bound over ``reference`` is at least the covered reward of its placements.

    The zones settled on the node's residual axis keep their positions.
    The open zones are then placed one after another, each where it adds
    the most covered reward among its candidate positions: a strict slice's
    grid values; for a whole grid, which may still be pinned, every grid
    value, a drawn real position and every abutment of a zone of ``A`` or of
    a zone placed before it, where its gain over ``A`` has its kinks.
    ``bnb._gain_sum`` takes the open zones, as ``upper_bound`` passes them,
    and each settled zone ``t`` adds its gain ``f(A + t) - f(A)`` here, so
    the inequality is checked for any ``A``.  ``upper_bound`` with the key
    of ``A`` as its one reference key, whose state it builds, must stay
    above as well.
    """
    axis = node.residual_axis
    on_x = axis == Axis.X
    dzs, base = inst.planar
    zones = _zone_terms(node, grids, axis)
    settled = _settled(node, grids, axis)
    placements = list(settled)
    opened = [zone for zone in zones if not _is_single(zone[3])]
    for z, c, grid, (lo, hi, _) in opened:
        corners = list(grid[lo:hi])
        if (lo, hi) == (0, len(grid)):
            unit = base.w0 if on_x else base.l0
            corners.append(data.draw(st.floats(grid[0] - unit * z - 1.0, grid[-1] + 1.0)))
            corners += [b for q in reference + placements
                        for b in service_breakpoints(q.x if on_x else q.y, q.z, z, inst.base, axis)]
        moves = [_at(axis, z, c, corner) for corner in corners]
        placements.append(max(moves, key=lambda t: covered_reward(dzs, placements + [t], base, inst.eta)))
    covered = covered_reward(dzs, placements, base, inst.eta)
    state = ResidualDemand(dzs, reference, base, inst.eta)
    served = covered_reward(dzs, reference, base, inst.eta)
    settled_gains = sum(covered_reward(dzs, reference + [t], base, inst.eta) - served for t in settled)
    bound = _gain_sum(state, opened, axis) + settled_gains
    assert bound >= covered * (1 - 1e-12) - 1e-9, (node, reference, placements)
    # upper_bound with the key of A as its one reference key, its state built by the store
    got = upper_bound(node, replace(grids, references=(bnb._key(reference),), residuals={}), inst)
    assert got >= covered * (1 - 1e-12) - 1e-9, (node, reference, placements)


@settings(max_examples=200, deadline=None)
@given(
    dzs=_demand_zones(),
    p=st.integers(2, 3),
    menu=st.sampled_from([(1.0,), (1.0, 2.0), (1.0, 1.5, 3.0)]),
    column=st.booleans(),
    path=st.lists(st.integers(0, 1_000), max_size=30),
    data=st.data(),
)
def test_plane_reference_bound_holds_for_any_reference_set(dzs, p, menu, column, path, data):
    # lattice demand zones, some touching or overlapping, optionally moved
    # into one column so that every zone's x span meets every other's: a
    # zone of A then often cuts demand where an abutment on y beats every
    # grid value.  That is rarer than on the line, hence twice the examples.
    if column:
        dzs = [DemandZone(Rect(0.0, d.rect.y, d.rect.w, d.rect.l), d.v) for d in dzs]
    inst = Instance(tuple(dzs), BaseServiceZone(10.0, 8.0), p, QosSet(menu), Eta.LINEAR)
    grids = CandidateGrids.from_instance(inst)
    cfg = SolverConfig()
    children = lambda node: branch(node, inst, grids, cfg)
    _assert_reference_bound_holds(data, inst, grids, path, children, root_node(inst, grids))


@settings(max_examples=100, deadline=None)
@given(
    dzs=_demand_zones(),
    scales=st.lists(st.sampled_from([1.0, 1.5, 2.0, 3.0]), min_size=2, max_size=4),
    path=st.lists(st.integers(0, 1_000), max_size=30),
    data=st.data(),
)
def test_line_reference_bound_holds_for_any_reference_set(dzs, scales, path, data):
    """The reference-set bound's property holds on the line, for any reference set.

    ``upper_bound`` no longer reads reference states on the line (its
    nodes with nothing placed take the isolated sum and the Lagrangian
    bound alone), so the ``_gain_sum`` assertion of
    :func:`_assert_reference_set_bounds` carries the property here.
    """
    # the lattice zones' x spans as segments, one fixed scale per zone
    segments = tuple(DemandZone(Rect(d.rect.x, 0.0, d.rect.w, 0.0), d.v) for d in dzs)
    qos = tuple(QosSet((z,)) for z in scales)
    inst = Instance(segments, BaseServiceZone(10.0, 0.0), len(scales), qos, Eta.LINEAR, Dimension.ONE_D)
    grids = CandidateGrids.from_instance(inst)
    cfg = SolverConfig()
    children = lambda node: branch(node, inst, grids, cfg)
    _assert_reference_bound_holds(data, inst, grids, path, children, root_node(inst, grids))


#: A reference key of no placement a search makes (no scale is 0), under
#: which a probe state is seeded into the store.
_PROBE = ((0.0, 0.0, 0.0),)


def _probed(grids, inst):
    """``grids`` reading the one reference key :data:`_PROBE`, whose state in a store of its own is the zero-demand state."""
    zero = ResidualDemand((), (), inst.planar[1], inst.eta)
    return replace(grids, references=(_PROBE,), residuals={_PROBE: zero})


def test_bound_reads_reference_states_only_with_nothing_placed():
    # A y-phase node with one y settled is bounded over the state of S
    # alone: a reference key whose stored state would lower any sum to 0
    # (no demand) leaves its bound as it is.  With no y settled and no
    # reference key the bound is the smaller of the isolated sum and the
    # Lagrangian bound, and the same probe key, now read, lowers it to 0.
    cfg = SolverConfig()
    for seed in range(6):
        inst = generate(GenConfig(seed=seed, n=2, p=2, m=2, **TINY))
        grids = CandidateGrids.from_instance(inst)
        root = root_node(inst, grids)
        grids = _fitted(inst, grids, root)
        if grids.lagrangian is not None:
            break
    assert grids.lagrangian is not None
    first = {}  # settled y count -> the first non-leaf y-phase node with it
    stack = [root]
    while stack and len(first) < 2:
        node = stack.pop()
        if is_leaf(node):
            continue
        if node.residual_axis == Axis.Y:
            first.setdefault(sum(map(_is_single, node.y_sets)), node)
        stack.extend(branch(node, inst, grids, cfg))
    unread, read = replace(grids, references=()), _probed(grids, inst)
    one = first[1]
    assert upper_bound(one, read, inst) == upper_bound(one, unread, inst) > 0
    nothing = first[0]
    isolated = upper_bound(nothing, unread, inst, floor=math.inf)
    assert upper_bound(nothing, unread, inst) == min(isolated, grids.lagrangian.bound(nothing))
    assert upper_bound(nothing, read, inst) == 0.0


def test_line_bound_reads_no_reference_state():
    # A line node with nothing placed is bounded by the smaller of the
    # isolated sum and the Lagrangian bound: a reference key whose stored
    # state would lower any sum to 0 (no demand) leaves its bound as it is,
    # as greedy's prefix states cut almost no line node, and no state is
    # read or built.
    cfg = SolverConfig()
    inst = small_1d(seed=0, n=5, p=3)
    grids = CandidateGrids.from_instance(inst)
    root = root_node(inst, grids)
    grids = _fitted(inst, grids, root)
    nothing = [root] + branch(root, inst, grids, cfg)
    nothing = [node for node in nothing if not any(map(_is_single, node.x_sets))]
    assert len(nothing) > 1 and all(node.residual_axis == Axis.X for node in nothing)
    unread, read = replace(grids, references=()), _probed(grids, inst)
    store = dict(read.residuals)
    for node in nothing:
        isolated = upper_bound(node, unread, inst, floor=math.inf)
        assert upper_bound(node, read, inst) == upper_bound(node, unread, inst) > 0
        assert upper_bound(node, read, inst) == min(isolated, grids.lagrangian.bound(node))
    assert read.residuals == store and not unread.residuals


def _recorded_solve(inst, monkeypatch):
    """Solve ``inst`` and record every state lookup: ``(references, the bounded node's placed key or None, key)``.

    The placed key is that of the zones settled on the node's residual
    axis, sorted as ``upper_bound`` sorts them, or None with none settled.
    """
    bound, lookup = bnb.upper_bound, CandidateGrids.residual
    placed, reads = [], []

    def recorded(node, grids, *args, **kwargs):
        axis = node.residual_axis
        settled = [] if axis is None else _settled(node, grids, axis)
        placed.append(tuple(sorted((q.z, q.x, q.y) for q in settled)) or None)
        return bound(node, grids, *args, **kwargs)

    def looked_up(grids, key, instance):
        reads.append((grids.references, placed[-1], key))
        return lookup(grids, key, instance)

    monkeypatch.setattr(bnb, "upper_bound", recorded)
    monkeypatch.setattr(CandidateGrids, "residual", looked_up)
    _, stats = solve(inst)
    assert stats.nodes_explored > 1 and reads
    return reads


def _prefix_key(placements):
    """The key of ``placements`` written out: each ``(z, x, y)``, by ascending scale with ties in round order."""
    return tuple((q.z, q.x, q.y) for q in sorted(placements, key=lambda q: q.z))


@pytest.mark.parametrize("one_d", [False, True])
def test_solve_builds_reference_states_for_the_plane_alone(one_d, monkeypatch):
    # every bound of a solve holds greedy's p - 1 proper prefixes as keys, in
    # the plane and on the line; their states are read, and so built, at
    # nodes with nothing placed in the plane, and never on the line
    if one_d:
        inst = generate_1d(GenConfig(seed=0, n=12, p=3, dimension=Dimension.ONE_D))
    else:
        inst = generate(GenConfig(seed=2, n=8, p=3, m=2))
    seed = greedy(inst).solution.placements
    prefixes = tuple(_prefix_key(seed[:k]) for k in range(1, inst.p))
    reads = _recorded_solve(inst, monkeypatch)
    assert {references for references, _, _ in reads} == {prefixes}
    unplaced = {key for _, placed, key in reads if placed is None}
    assert unplaced == (set() if one_d else set(prefixes))


def test_a_line_solve_builds_no_state_for_a_reference_key(monkeypatch):
    # every state a line solve reads is that of the bounded node's placed
    # zones, so none is built for one of greedy's prefixes, which the
    # solve still holds as keys
    for seed in range(3):
        inst = generate_1d(GenConfig(seed=seed, n=12, p=3, dimension=Dimension.ONE_D))
        reads = _recorded_solve(inst, monkeypatch)
        assert all(len(references) == inst.p - 1 for references, _, _ in reads)
        assert all(key == placed for _, placed, key in reads), seed
        monkeypatch.undo()


def test_plane_reference_states_are_greedys_prefixes_bit_for_bit(monkeypatch):
    # planar p=3 m=2 n=8 seed 2: greedy's first two zones share scale 1 and
    # the second lies left of the first, so round order is not sorted
    # order.  Each reference key is greedy's prefix in the trimming loop's
    # order, and the state the store holds under it equals, bit for bit,
    # the state built from the demand over that prefix in round order.
    inst = generate(GenConfig(seed=2, n=8, p=3, m=2))
    seed = greedy(inst).solution.placements
    assert seed[0].z == seed[1].z and seed[1].x < seed[0].x
    dzs, base = inst.planar
    lookup = CandidateGrids.residual
    states = {}

    def looked_up(grids, key, instance):
        state = lookup(grids, key, instance)
        if key in grids.references:
            states.setdefault(key, state)
        return state

    monkeypatch.setattr(CandidateGrids, "residual", looked_up)
    solve(inst)
    keys = [tuple((q.z, q.x, q.y) for q in seed[:1]), ((seed[0].z, seed[0].x, seed[0].y), (seed[1].z, seed[1].x, seed[1].y))]
    assert list(states) == keys
    matrices = CandidateGrids.from_instance(inst).matrices  # a column is memoised over its scale's own grid
    for k, key in enumerate(keys, start=1):
        built = ResidualDemand(dzs, seed[:k], base, inst.eta)
        for z, fixed, axis in [(1.0, seed[2].x, Axis.Y), (inst.scale_values()[-1], 500.0, Axis.X)]:
            grid = (matrices[z].xs.values, matrices[z].ys.values)[axis]
            assert _state_bits(states[key], z, fixed, axis, grid) == _state_bits(built, z, fixed, axis, grid), key


def test_planar_three_zones_eight_demand_zones_proves():
    # plane p=3 m=2 n=8: 11,735 nodes with the Lagrangian, residual and
    # reference-set bounds (13,578 while the interval step cut a slice at
    # its wide gaps, 14,447 while y branching first pushed a copy of
    # the node per candidate zone), against 20,745 without the reference-set
    # bound, 43,423 with the residual bound alone and 615,223 with the
    # isolated sum alone (same optimum)
    inst = generate(GenConfig(seed=2, n=8, p=3, m=2))
    sol, stats = solve(inst, SolverConfig(time_limit_s=60.0))
    assert stats.optimal
    assert math.isclose(sol.reward, 30396.89334300006, rel_tol=1e-9)
    assert math.isclose(covered_reward(inst.dzs, sol.placements, inst.base, inst.eta), sol.reward, rel_tol=1e-12)


@pytest.mark.parametrize("one_d", [False, True])
def test_residual_cache_cap_changes_no_search(one_d, monkeypatch):
    # planar p=3 m=2 n=8 seed 2 (11,735 nodes; 13,578 while the interval
    # step cut a slice at its wide gaps, 14,447 while y branching first
    # pushed a copy of the node per candidate zone, 869 of them popped;
    # 20,745 before the reference-set bound cut y-phase nodes with no y
    # settled) and line p=3 n=12 seed 0 (259 nodes; 306 while the interval
    # step cut at wide gaps, 260 when the line had a tree of its own): with
    # room for 2 states the cache drops and rebuilds states, and the search
    # is the same as with room for 1024 (the line search now rebuilds none
    # with room for 4).  Every state the store builds is an extension.
    if one_d:
        inst, run = generate_1d(GenConfig(seed=0, n=12, p=3, dimension=Dimension.ONE_D)), solve_1d
    else:
        inst, run = generate(GenConfig(seed=2, n=8, p=3, m=2)), solve
    built = []
    extended = ResidualDemand.extended

    def counted(state, *placements):
        built.append(1)
        return extended(state, *placements)

    monkeypatch.setattr(ResidualDemand, "extended", counted)

    def outcome():
        built.clear()
        sol, stats = run(inst)
        history = [(k, r.hex()) for k, r in stats.best_reward_history]
        return sol.reward.hex(), sol.placements, stats.nodes_explored, history, len(built)

    *search, full_builds = outcome()
    assert search[2] == (259 if one_d else 11_735)
    monkeypatch.setattr(bnb, "RESIDUAL_CACHE_SIZE", 2)
    *capped, capped_builds = outcome()
    assert capped == search
    assert capped_builds > full_builds


@pytest.mark.parametrize("one_d", [False, True])
def test_residual_cache_holds_at_most_its_cap(one_d, monkeypatch):
    # every node of a full tree bounded with one grids, as a solve bounds them
    monkeypatch.setattr(bnb, "RESIDUAL_CACHE_SIZE", 4)
    cfg = SolverConfig()
    if one_d:
        inst = small_1d(seed=1, n=5, p=3)
        grids = CandidateGrids.from_instance(inst)
        root, children = root_node(inst, grids), lambda node: branch(node, inst, grids, cfg)
    else:
        inst = generate(GenConfig(seed=0, n=2, p=2, m=2, **TINY))
        grids = CandidateGrids.from_instance(inst)
        root, children = root_node(inst, grids), lambda node: branch(node, inst, grids, cfg)
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        upper_bound(node, grids, inst)
        assert len(grids.residuals) <= 4, node
        seen.update(grids.residuals)
        if not is_leaf(node):
            stack.extend(children(node))
    assert len(seen) > 4


def test_each_state_computes_a_keys_terms_once(monkeypatch):
    # best_gain and gain_column share a (z, fixed, axis) key's terms: over
    # line p=3 n=12 and planar p=2 m=2 n=30, seeds 0-9, no state computes
    # them twice, as it did when a strict slice's gain_column followed the
    # whole grid's best_gain
    terms = ResidualDemand._terms
    states, computed = [], Counter()

    def counted(state, *key):
        states.append(state)  # held, so no other state takes its id
        computed[id(state), key] += 1
        return terms(state, *key)

    monkeypatch.setattr(ResidualDemand, "_terms", counted)
    for seed in range(10):
        solve(generate_1d(GenConfig(seed=seed, n=12, p=3, dimension=Dimension.ONE_D)))
        solve(generate(GenConfig(seed=seed, n=30, p=2, m=2)))
    assert len(computed) > 1000
    assert sum(computed.values()) == len(computed)
