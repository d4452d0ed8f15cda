"""The single-zone argmax against the full in-order reward tables.

The reference tabulates every scale's in-order sums over its whole grids
(``reference.full_grid_entries``), takes their first maximum in row-major
order, and keeps a later scale only when its maximum is strictly larger.
The search, tile-bounded on large grids and tabulated whole on small ones
(``FULL_CELLS``), must return the same ``(reward, x, y, z)`` bit for bit.
"""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rectcover.reward as reward_mod
from rectcover import (
    BaseServiceZone,
    DemandZone,
    Dimension,
    Eta,
    GenConfig,
    QosSet,
    Rect,
    generate,
    generate_1d,
    greedy,
    pseudo_greedy,
)
from rectcover.reward import (
    FULL_CELLS,
    RESUM_CHUNK,
    TILE,
    _Axis,
    _overlaps,
    build_reward_matrix,
    planar_form,
    solve_single_zone,
)

from reference import full_grid_entries


def reference_single_zone(dzs, qos, base, eta):
    if not dzs:
        return 0.0, 0.0, 0.0, qos.min_factor
    best_r = -1.0
    best = (0.0, 0.0, 0.0, qos.min_factor)
    for z in qos.factors:
        m = build_reward_matrix(dzs, z, base, eta)  # for its grids
        entries = full_grid_entries(dzs, z, base, eta, m.xs.values, m.ys.values)
        if entries.size == 0:
            continue
        i, j = divmod(int(np.argmax(entries)), entries.shape[1])
        r = float(entries[i, j])
        if r > best_r:
            best_r = r
            best = (r, m.xs.values[i], m.ys.values[j], z)
    return best


def assert_same(dzs, qos, base, eta=Eta.LINEAR):
    got = solve_single_zone(dzs, qos, base, eta)
    want = reference_single_zone(dzs, qos, base, eta)
    assert all(type(v) is float for v in got)
    assert [v.hex() for v in got] == [v.hex() for v in want]


coord = st.floats(-60, 60).map(lambda v: round(v, 2))
extent = st.floats(0.0, 30).map(lambda v: round(v, 1))
rate = st.floats(0.1, 5).map(lambda v: round(v, 2))
menus = st.sampled_from([(1.0,), (1.0, 2.0), (1.0, 2.0, 3.0), (1.5, 2.5)])


@settings(max_examples=150, deadline=None)
@given(
    rects=st.lists(st.tuples(coord, coord, extent, extent, rate), min_size=1, max_size=40),
    menu=menus,
    dims=st.sampled_from([(10.0, 8.0), (3.0, 2.0), (25.0, 4.0)]),
)
def test_matches_full_matrices_on_planar_instances(rects, menu, dims):
    dzs = [DemandZone(Rect(x, y, w, l), v) for x, y, w, l, v in rects]
    assert_same(dzs, QosSet(menu), BaseServiceZone(*dims))


@settings(max_examples=100, deadline=None)
@given(
    segments=st.lists(st.tuples(coord, extent, rate), min_size=1, max_size=40),
    z=st.sampled_from([1.0, 2.0, 3.0]),
)
def test_matches_full_matrices_on_line_instances(segments, z):
    dzs = [DemandZone(Rect(x, 0.0, w, 0.0), v) for x, w, v in segments]
    assert_same(dzs, QosSet((z,)), BaseServiceZone(6.0, 0.0))


@pytest.mark.parametrize("seed", [0, 7, 24, 41])
def test_greedy_trace_equals_full_matrix_greedy(seed):
    # later rounds see trimmed demand: pieces that abut, slivers, many tiles
    inst = generate(GenConfig(seed=seed, n=150, p=3, m=3))
    assert greedy(inst) == pseudo_greedy(inst, reference_single_zone)


@pytest.mark.parametrize("seed", [3, 38])
def test_greedy_trace_equals_full_matrix_greedy_line(seed):
    inst = generate_1d(GenConfig(seed=seed, n=40, p=4, dimension=Dimension.ONE_D))
    assert greedy(inst) == pseudo_greedy(inst, reference_single_zone)


def test_bound_skips_tiles_on_a_large_instance(monkeypatch):
    # the optimisation is engaged: far fewer cells are summed than the grids hold
    inst = generate(GenConfig(seed=0, n=150, p=3, m=3))
    summed = []
    full = []
    tiled_table = reward_mod._tiled_table

    def counting(rates, x, y, best_r):
        m, cap = tiled_table(rates, x, y, best_r)
        summed.append(0 if m is None else int(np.isfinite(m.entries).sum()))
        full.append(len(x.grid) * len(y.grid))
        return m, cap

    monkeypatch.setattr(reward_mod, "_tiled_table", counting)
    assert_same(inst.dzs, inst.qos, inst.base, inst.eta)
    assert len(full) == 3 and sum(summed) < 0.2 * sum(full)


# Near ties: duplicated and abutting zones on a coarse lattice, paying rates
# whose sums change in the last bit with the order they are added in, so the
# matrix product that filters the cells and the matrix itself can disagree.
half = st.integers(0, 16).map(lambda k: k * 0.5)
side = st.integers(1, 8).map(lambda k: k * 0.5)
near_tie_rate = st.sampled_from([0.1, 0.3, 0.7])


@st.composite
def near_tie_demand(draw):
    shapes = draw(st.lists(st.tuples(half, half, side, side), min_size=1, max_size=6))
    picks = draw(st.lists(st.tuples(st.integers(0, len(shapes) - 1), near_tie_rate), min_size=1, max_size=40))
    return [DemandZone(Rect(*shapes[k]), v) for k, v in picks]


@settings(max_examples=150, deadline=None)
@given(
    dzs=near_tie_demand(),
    menu=st.sampled_from([(1.0,), (1.0, 2.0), (1.0, 1.5, 3.0)]),
    dims=st.sampled_from([(1.0, 1.0), (2.0, 2.0), (1.5, 1.0), (3.0, 0.5)]),
)
def test_matches_full_matrices_on_near_ties(dzs, menu, dims):
    assert_same(dzs, QosSet(menu), BaseServiceZone(*dims))


def test_order_dependent_near_tie_takes_the_matrix_maximum():
    # Two unit squares, each listed five times with the same rates in another
    # order: the exact sums are equal, the in-order sums are not.
    low, high = (0.3, 0.3, 0.1, 0.1, 0.7), (0.7, 0.3, 0.3, 0.1, 0.1)
    base = BaseServiceZone(1.0, 1.0)
    for first, second in ((low, high), (high, low)):
        dzs = [DemandZone(Rect(0.0, 0.0, 1.0, 1.0), v) for v in first]
        dzs += [DemandZone(Rect(10.0, 0.0, 1.0, 1.0), v) for v in second]
        m = build_reward_matrix(dzs, 1.0, base, Eta.LINEAR)
        in_order = full_grid_entries(dzs, 1.0, base, Eta.LINEAR, m.xs.values, m.ys.values)
        assert in_order.shape == (2, 1) and in_order[0, 0] != in_order[1, 0]
        assert_same(dzs, QosSet((1.0,)), base)
    got = solve_single_zone(dzs, QosSet((1.0,)), base, Eta.LINEAR)
    assert got == (sum(high), 0.0, 0.0, 1.0) and sum(high) > sum(low)


def test_all_tie_grid_is_re_summed_in_bounded_chunks():
    # Zero-height zones pay nothing anywhere, so every cell of every kept
    # tile ties at 0 and is re-summed; the first cell must win, and the
    # re-sum must not hold every piece's term at every cell at once.
    dzs = [DemandZone(Rect(3.0 * k, 5.0 * k, 2.0, 0.0), 1.0) for k in range(60)]
    base = BaseServiceZone(1.0, 1.0)
    m = build_reward_matrix(dzs, 1.0, base, Eta.LINEAR)
    cells = m.entries.size
    assert cells > 8 * RESUM_CHUNK and not m.entries.any()
    assert_same(dzs, QosSet((1.0,)), base)
    tracemalloc.start()
    try:
        solve_single_zone(dzs, QosSet((1.0,)), base, Eta.LINEAR)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(dzs) * cells * 8 / 4


@pytest.mark.parametrize("seed", [0, 1])
def test_grids_either_side_of_full_cells(seed, monkeypatch):
    # The largest demand whose grid holds at most FULL_CELLS cells is
    # tabulated whole; one zone more is searched tile by tile.  Both give
    # the reference's result bit for bit.
    rng = random.Random(seed)

    def draw():
        x, y = (round(rng.uniform(0.0, 300.0), 2) for _ in range(2))
        w, l = (round(rng.uniform(2.0, 40.0), 1) for _ in range(2))
        return DemandZone(Rect(x, y, w, l), round(rng.uniform(0.1, 5.0), 2))

    dzs = [draw() for _ in range(80)]
    base = BaseServiceZone(10.0, 8.0)

    def cells(k):
        m = build_reward_matrix(dzs[:k], 1.0, base, Eta.LINEAR)
        return len(m.xs) * len(m.ys)

    below = max(k for k in range(1, len(dzs) + 1) if cells(k) <= FULL_CELLS)
    assert cells(below) > 0.9 * FULL_CELLS and cells(below + 1) > FULL_CELLS
    tiled = []
    tiled_table = reward_mod._tiled_table
    monkeypatch.setattr(reward_mod, "_tiled_table", lambda *args: tiled.append(1) or tiled_table(*args))
    for k, by_tiles in ((below, False), (below + 1, True)):
        tiled.clear()
        assert_same(dzs[:k], QosSet((1.0,)), base)
        assert bool(tiled) is by_tiles, k
        assert_same(dzs[:k], QosSet((1.0, 2.0)), base)


# ------------------------------------------------------------------ built ties


def test_plateau_of_duplicated_zones_takes_the_first_cell():
    # One wide zone listed three times plus scattered small ones: the zone
    # fits flush at many grid positions across several tiles, all with the
    # same reward; the first in row-major order must win.
    wide = DemandZone(Rect(0.0, 0.0, 80.0, 60.0), 1.0)
    small = [DemandZone(Rect(5.0 * k, 3.0 * k, 0.5, 0.5), 0.001) for k in range(14)]
    dzs = [wide, *small, wide, wide]
    base = BaseServiceZone(4.0, 4.0)
    m = build_reward_matrix(dzs, 1.0, base, Eta.LINEAR)
    assert len(m.xs) > 2 * TILE and len(m.ys) > 2 * TILE
    assert_same(dzs, QosSet((1.0,)), base)
    assert_same(dzs, QosSet((1.0, 2.0)), base)


def test_plateau_of_identical_zones_across_tiles():
    # 8x8 disjoint 6x6 squares and a 4x4 zone: it pays 16 flush anywhere in
    # any square, at 256 cells spread over four tiles; smallest x, then y, wins
    dzs = [DemandZone(Rect(10.0 * i, 10.0 * j, 6.0, 6.0), 1.0) for j in range(8) for i in range(8)]
    base = BaseServiceZone(4.0, 4.0)
    m = build_reward_matrix(dzs, 1.0, base, Eta.LINEAR)
    assert len(m.xs) == len(m.ys) == 2 * TILE
    assert int((m.entries == m.max_entry).sum()) == 256
    assert solve_single_zone(dzs, QosSet((1.0,)), base, Eta.LINEAR) == (16.0, 0.0, 0.0, 1.0)
    assert_same(dzs, QosSet((1.0, 2.0)), base)
    assert_same(list(reversed(dzs)), QosSet((1.0,)), base)


def test_equal_best_reward_on_two_scales_keeps_the_smaller():
    # A 4x2 strip at rate 1 and a 2x2 base: scale 1 fills half the strip and
    # pays 4; scale 2 covers the whole strip at rate 1/2 and pays 4 as well.
    # The decoys spread the grids over several tiles.  Scale 1 must win.
    strip = DemandZone(Rect(0.0, 0.0, 4.0, 2.0), 1.0)
    decoys = [DemandZone(Rect(20.0 + 3.0 * k, 40.0 + 2.0 * k, 0.3, 0.3), 0.01) for k in range(20)]
    dzs = [*decoys, strip]
    base = BaseServiceZone(2.0, 2.0)
    r1 = build_reward_matrix(dzs, 1.0, base, Eta.LINEAR).max_entry
    r2 = build_reward_matrix(dzs, 2.0, base, Eta.LINEAR).max_entry
    assert r1 == r2 == 4.0
    assert solve_single_zone(dzs, QosSet((1.0, 2.0)), base, Eta.LINEAR) == (4.0, 0.0, 0.0, 1.0)
    assert_same(dzs, QosSet((1.0, 2.0)), base)
    assert_same(dzs, QosSet((2.0, 3.0)), base)


def test_single_tile_grid():
    dzs = [DemandZone(Rect(0.0, 0.0, 5.0, 5.0), 1.0), DemandZone(Rect(3.0, 2.0, 4.0, 1.0), 2.0)]
    base = BaseServiceZone(2.0, 2.0)
    m = build_reward_matrix(dzs, 1.0, base, Eta.LINEAR)
    assert len(m.xs) <= TILE and len(m.ys) <= TILE
    assert_same(dzs, QosSet((1.0, 2.0)), base)


def test_empty_demand():
    for base in (BaseServiceZone(2.0, 2.0), BaseServiceZone(2.0, 0.0)):
        assert solve_single_zone((), QosSet((1.5, 2.0)), base, Eta.LINEAR) == (0.0, 0.0, 0.0, 1.5)
        assert_same((), QosSet((1.5, 2.0)), base)


def test_zero_width_and_zero_height_zones():
    square = DemandZone(Rect(0.0, 0.0, 4.0, 4.0), 1.0)
    flat = DemandZone(Rect(1.0, 3.0, 2.0, 0.0), 5.0)
    thin = DemandZone(Rect(3.0, 1.0, 0.0, 2.0), 5.0)
    base = BaseServiceZone(2.0, 2.0)
    assert_same([square, flat, thin], QosSet((1.0, 2.0)), base)
    # only degenerate zones: every reward is zero, ties resolve as the matrices do
    assert_same([flat, thin], QosSet((1.0, 2.0)), base)
    assert solve_single_zone([flat, thin], QosSet((1.0, 2.0)), base, Eta.LINEAR)[0] == 0.0


# ------------------------------------------------------- supports and tile bounds


def nonzero_range(row):
    nz = np.flatnonzero(row > 0.0)
    return (int(nz[0]), int(nz[-1]) + 1) if nz.size else None


@settings(max_examples=200, deadline=None)
@given(
    grid=st.lists(st.floats(-50, 50).map(lambda v: round(v, 3)), min_size=1, max_size=40, unique=True),
    spans=st.lists(st.tuples(coord, extent), min_size=1, max_size=10),
    ext=st.sampled_from([0.5, 2.0, 7.25]),
)
def test_support_ranges_and_tile_bounds(grid, spans, ext):
    grid = sorted(grid)
    lo = np.array([a for a, _ in spans])
    hi = np.array([a + w for a, w in spans])
    axis = _Axis.of(grid, ext, lo, hi)
    over = _overlaps(grid, ext, lo, hi)
    bounds = axis.tile_bounds()
    for k in range(len(spans)):
        start, stop = int(axis.start[k]), int(axis.stop[k])
        # the bisected range is exactly the first-to-last nonzero range
        want = nonzero_range(over[k])
        assert (start, stop) == want if want else (start == stop)
        for t in range(bounds.shape[1]):
            assert bounds[k, t] >= over[k, t * TILE:(t + 1) * TILE].max()


def test_support_range_contains_nonzeros_when_extent_is_lost_in_rounding():
    grid = [1e9, 1e9 + 1.0, 1e9 + 2.0]
    lo, hi = np.array([1e9 - 1.0]), np.array([1e9 + 1.5])
    axis = _Axis.of(grid, 1e-8, lo, hi)  # g + ext == g: every overlap is zero
    assert not _overlaps(grid, 1e-8, lo, hi).any()
    # the bisected range still holds the first two values; they add exact zeros
    assert (int(axis.start[0]), int(axis.stop[0])) == (0, 2)


def test_lifted_line_demand_is_read_as_planar_form():
    seg = (DemandZone(Rect(3.0, 0.0, 5.0, 0.0), 2.0),)
    base = BaseServiceZone(2.0, 0.0)
    lifted, lbase = planar_form(seg, base)
    for dzs in (seg, lifted):
        assert solve_single_zone(dzs, QosSet((1.0,)), base, Eta.LINEAR) == (4.0, 3.0, 0.0, 1.0)
