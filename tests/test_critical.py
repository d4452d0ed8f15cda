"""Candidate-coordinate (breakpoint) machinery along one axis."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rectcover import (
    BaseServiceZone,
    DemandZone,
    Rect,
)
from rectcover.critical import (
    COORD_RTOL,
    abutment_pins,
    inner_demand_grid,
    service_breakpoints,
)
from rectcover.geometry import Axis

from conftest import pin_at
from reference import dedup_sorted


def test_dedup_sorted_merges_near_duplicates():
    assert dedup_sorted([3.0, 1.0, 1.0 + 1e-12, 2.0]) == (1.0, 2.0, 3.0)
    assert dedup_sorted([]) == ()


def test_abutment_pins_tolerant_membership():
    # a value on the grid, to the grid's tolerance, is no pin; one off it is
    # pinned with the block of its bracketing values, or the nearest endpoint
    vals = (0.0, 2.0, 5.0)
    base = BaseServiceZone(1.0, 1.0)
    for v in (2.0, 2.0 + 1e-12, 5.0 - 1e-12):
        assert abutment_pins([(v, 0.0)], 0.0, base, Axis.X, False, vals) == []
    assert pin_at(1.0, vals) == (0, 2, 1.0)
    assert pin_at(6.0, vals) == (2, 3, 6.0)
    assert pin_at(0.0, ()) == (0, 0, 0.0)


def test_inner_demand_grid_small_case():
    dzs = (
        DemandZone(Rect(0.0, 0.0, 4.0, 4.0), 1.0),
        DemandZone(Rect(10.0, 0.0, 4.0, 4.0), 2.0),
    )
    base = BaseServiceZone(2.0, 2.0)
    grid = inner_demand_grid(dzs, 1.0, base, Axis.X)
    assert grid.values == (0.0, 2.0, 10.0, 12.0)
    assert len(grid) == 4


def test_inner_demand_grid_empty():
    base = BaseServiceZone(2.0, 2.0)
    assert inner_demand_grid((), 1.0, base, Axis.X).values == ()


def test_service_breakpoints_against_fixed_zone():
    base = BaseServiceZone(2.0, 1.0)
    # fixed zone at x=10 with scale 2 (width 4); query scale 1 (width 2)
    o1, i1, i2, o2 = service_breakpoints(10.0, 2.0, 1.0, base, Axis.X)
    assert (o1, i1, i2, o2) == (8.0, 10.0, 12.0, 14.0)


def test_outer_and_inner_service_values():
    base = BaseServiceZone(2.0, 1.0)
    fixed = [(10.0, 2.0), (0.0, 1.0)]
    # outer pairs of every fixed zone, in fixed order
    outer = abutment_pins(fixed, 1.0, base, Axis.X, False, ())
    assert outer == [(0, 0, v) for v in (8.0, 14.0, -2.0, 2.0)]
    # then the inner pairs: 0.0 appears for both zones and is kept once
    full = abutment_pins(fixed, 1.0, base, Axis.X, True, ())
    assert full == [(0, 0, v) for v in (8.0, 14.0, -2.0, 2.0, 10.0, 12.0, 0.0)]


def test_abutment_pins_exclude_and_dedup_within_eps():
    # eps is the grid's own tolerance, COORD_RTOL times its largest
    # magnitude: about 1.4e-11 for a grid that ends near 14
    base = BaseServiceZone(2.0, 1.0)
    fixed = [(10.0, 2.0), (0.0, 1.0)]
    # 14.0 and 0.0 lie within eps of a grid value; 2.0 is not on the grid
    grid = (0.0 + 1e-12, 5.0, 14.0 - 1e-12)
    assert abutment_pins(fixed, 1.0, base, Axis.X, True, grid) == [
        (1, 3, 8.0), (0, 1, -2.0), (0, 2, 2.0), (1, 3, 10.0), (1, 3, 12.0)
    ]
    # values closer than eps keep the first one seen; farther ones stay apart
    near = [(4.0, 1.0), (4.0 + 1e-12, 1.0), (4.25, 1.0)]
    assert abutment_pins(near, 1.0, base, Axis.X, False, grid) == [
        (0, 2, 2.0), (1, 3, 6.0), (0, 2, 2.25), (1, 3, 6.25)
    ]
    # with no grid the tolerance is 0, and only exact duplicates are dropped
    c = near[1][0]
    apart = [(0, 0, v) for v in (2.0, 6.0, c - 2.0, c + 2.0, 2.25, 6.25)]
    assert abutment_pins(near, 1.0, base, Axis.X, False, ()) == apart
    assert abutment_pins(near + near, 1.0, base, Axis.X, False, ()) == apart
    assert abutment_pins((), 1.0, base, Axis.X, True, ()) == []
    # in other units the same values are merged and dropped, in the same blocks
    full = abutment_pins(fixed + near, 1.0, base, Axis.X, True, grid)
    assert [v for _, _, v in full] == [8.0, -2.0, 2.0, 6.0, 2.25, 6.25, 10.0, 12.0, 4.0, 4.25]
    s = 1e-7
    small = abutment_pins([(u * s, z) for u, z in fixed + near], 1.0, BaseServiceZone(2.0 * s, 1.0 * s),
                          Axis.X, True, tuple(v * s for v in grid))
    assert [pin[:2] for pin in small] == [pin[:2] for pin in full]
    assert all(abs(a[2] / s - b[2]) < 1e-12 for a, b in zip(small, full))



# ---------------------------------------------- abutment_pins against brute force


def brute_pins(fixed, z, base, axis, full, grid):
    """The pins by definition: each breakpoint, outer pairs first, off every grid value and kept pin, with its block.

    "Off" is to the grid's tolerance (exact equality when that is 0); the
    block runs from the grid's last value below the pin (its first value if
    none) through its first value above (its last if none).
    """
    unit = base.w0 if axis == Axis.X else base.l0
    raw = [v for c, s in fixed for v in (c - unit * z, c + unit * s)]
    if full:
        raw += [v for c, s in fixed for v in (c, c + unit * s - unit * z)]
    tol = COORD_RTOL * max(map(abs, grid)) if grid else 0.0
    kept = []
    for v in raw:
        if all(u != v and abs(u - v) >= tol for u in [*grid, *(pin[2] for pin in kept)]):
            below = [k for k, g in enumerate(grid) if g < v]
            above = [k for k, g in enumerate(grid) if g > v]
            kept.append((below[-1] if below else 0, above[0] + 1 if above else len(grid), v))
    return kept


# quarter units, so that breakpoints land on grid values and on each other exactly
quarters = st.integers(-64, 64).map(lambda k: k / 4)
coords = st.one_of(
    quarters,
    quarters.map(lambda c: c * (1 + 1e-13)),  # near-duplicates
    quarters.map(lambda c: c * (1 - 1e-13)),
    st.integers(-400, 400).map(float),  # mostly outside the grid's range
)
# the first half of the fixed zones again: exact duplicates
fixed_zones = st.lists(st.tuples(coords, st.sampled_from([0.5, 1.0, 2.0])), max_size=6).map(
    lambda f: f + f[: len(f) // 2]
)
grids = st.lists(quarters, max_size=6).map(lambda vs: tuple(sorted(set(vs))))


@settings(max_examples=300, deadline=None)
@given(
    fixed=fixed_zones,
    z=st.sampled_from([0.5, 1.0, 2.0]),
    base=st.sampled_from([BaseServiceZone(1.0, 2.0), BaseServiceZone(2.0, 0.5)]),
    axis=st.sampled_from([Axis.X, Axis.Y]),
    full=st.booleans(),
    grid=grids,
    k=st.integers(-30, 30),
)
# breakpoints below and above the grid's range (i == 0 and i == len(grid))
@example(fixed=[(-5.0, 1.0), (10.0, 1.0)], z=1.0, base=BaseServiceZone(1.0, 2.0), axis=Axis.X, full=True,
         grid=(0.0, 1.0), k=3)
# exact and near-duplicates, on the grid and off it
@example(fixed=[(3.0, 1.0), (3.0, 1.0), (3.0 * (1 + 1e-13), 1.0), (2.0 * (1 - 1e-13), 1.0)], z=1.0,
         base=BaseServiceZone(1.0, 2.0), axis=Axis.X, full=False, grid=(0.0, 1.0, 8.0), k=-7)
# an empty grid: the tolerance is 0, and only exact duplicates go
@example(fixed=[(3.0, 1.0), (3.0, 1.0), (3.0 * (1 + 1e-13), 1.0)], z=1.0, base=BaseServiceZone(1.0, 2.0),
         axis=Axis.Y, full=True, grid=(), k=0)
def test_abutment_pins_match_brute_force_in_any_power_of_two_units(fixed, z, base, axis, full, grid, k):
    pins = abutment_pins(fixed, z, base, axis, full, grid)
    assert pins == brute_pins(fixed, z, base, axis, full, grid)
    # units scaled by a power of two scale every pin exactly, in the same block
    s = 2.0**k
    scaled = abutment_pins([(c * s, o) for c, o in fixed], z, BaseServiceZone(base.w0 * s, base.l0 * s), axis,
                           full, tuple(g * s for g in grid))
    assert scaled == [(lo, hi, v * s) for lo, hi, v in pins]

demand_zones = st.lists(
    st.builds(
        DemandZone,
        st.builds(
            Rect,
            st.floats(-40, 40).map(lambda v: round(v, 2)),
            st.floats(-40, 40).map(lambda v: round(v, 2)),
            st.floats(0.5, 20).map(lambda v: round(v, 2)),
            st.floats(0.5, 20).map(lambda v: round(v, 2)),
        ),
        st.floats(0.1, 5).map(lambda v: round(v, 2)),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(dzs=demand_zones, z=st.sampled_from([1.0, 2.0, 3.0]))
def test_inner_demand_grid_sorted_and_bounded(dzs, z):
    base = BaseServiceZone(3.0, 2.0)
    for axis in (Axis.X, Axis.Y):
        grid = inner_demand_grid(dzs, z, base, axis)
        assert list(grid.values) == sorted(grid.values)
        assert len(grid) <= 2 * len(dzs)
        for a, b in zip(grid.values, grid.values[1:]):
            assert b - a >= 1e-9


@settings(max_examples=200, deadline=None)
@given(dzs=demand_zones, shift=st.floats(-30, 30).map(lambda v: round(v, 2)))
def test_inner_demand_grid_translation_equivariant(dzs, shift):
    """Shifting all demand by s shifts every candidate by exactly s."""
    base = BaseServiceZone(3.0, 2.0)
    moved = [
        DemandZone(Rect(d.rect.x + shift, d.rect.y, d.rect.w, d.rect.l), d.v)
        for d in dzs
    ]
    before = inner_demand_grid(dzs, 2.0, base, Axis.X).values
    after = inner_demand_grid(moved, 2.0, base, Axis.X).values
    assert len(before) == len(after)
    for a, b in zip(before, after):
        assert abs((a + shift) - b) < 1e-6


# ------------------------------------- inner_demand_grid against dedup_sorted


def reference_grid(dzs, z, base, axis):
    """``dedup_sorted`` over every zone's inner pair, flush inside its span at either end: the grid's definition."""
    on_x = axis == Axis.X
    reach = (base.w0 if on_x else base.l0) * z
    spans = [(d.rect.x, d.rect.w) if on_x else (d.rect.y, d.rect.l) for d in dzs]
    return dedup_sorted([v for lo, extent in spans for v in (lo, lo + extent - reach)])


def assert_grid_is_reference(dzs, z, base):
    for axis in (Axis.X, Axis.Y):
        got = inner_demand_grid(dzs, z, base, axis).values
        assert got == reference_grid(dzs, z, base, axis)
        assert all(type(v) is float for v in got)


def test_inner_demand_grid_run_of_values_closer_than_eps():
    # eps is the grid's tolerance, COORD_RTOL times its largest magnitude,
    # here about 8 (the upper inner values).  Lower edges at k * 0.6 eps: the
    # second is within eps of the first and dropped, the third is eps clear
    # of the first kept value and stays, the fourth is not; the upper inner
    # values form the same run near 8
    eps = COORD_RTOL * 8.0
    base = BaseServiceZone(2.0, 2.0)
    dzs = [DemandZone(Rect(k * 0.6 * eps, -k * 0.6 * eps, 10.0, 10.0), 1.0) for k in range(4)]
    xs = inner_demand_grid(dzs, 1.0, base, Axis.X).values
    ys = inner_demand_grid(dzs, 1.0, base, Axis.Y).values
    assert xs[:2] == (0.0, dzs[2].rect.x) and len(xs) == 4
    assert ys[:2] == (dzs[3].rect.y, dzs[1].rect.y) and len(ys) == 4
    assert_grid_is_reference(dzs, 1.0, base)
    assert_grid_is_reference(dzs[::-1], 1.0, base)



def test_inner_demand_grid_duplicates_negatives_and_oversized_zones():
    base = BaseServiceZone(3.0, 2.0)
    dzs = [
        DemandZone(Rect(-5.5, -7.25, 4.0, 6.0), 1.0),
        DemandZone(Rect(-5.5, -7.25, 4.0, 6.0), 2.0),  # exact duplicate
        DemandZone(Rect(-1.0, 3.0, 1.0, 0.5), 1.0),  # oversized: inner pair inverted
        DemandZone(Rect(0.0, 0.0, 0.0, 0.0), 1.0),  # degenerate
        DemandZone(Rect(-2.5, -5.25, 6.0, 4.0), 1.0),  # shares values with the first
    ]
    for z in (1.0, 2.0, 3.0):
        assert_grid_is_reference(dzs, z, base)
    assert inner_demand_grid(dzs, 2.0, base, Axis.X).values == (-7.5, -6.0, -5.5, -2.5, -1.0, 0.0)
    # every value 0: the tolerance is 0, and the duplicates still merge
    zeros = [DemandZone(Rect(0.0, 0.0, 3.0, 2.0), 1.0)] * 3
    assert inner_demand_grid(zeros, 1.0, base, Axis.X).values == (0.0,)
    assert_grid_is_reference(zeros, 1.0, base)


def test_inner_demand_grid_empty_both_axes():
    for base in (BaseServiceZone(2.0, 2.0), BaseServiceZone(2.0, 0.0)):
        assert_grid_is_reference((), 1.0, base)


# coordinates on a coarse lattice plus offsets below, at and above the
# grid's tolerance (COORD_RTOL times its largest magnitude, up to about
# 7e-12 here), so drawn zones produce exact duplicates and runs of values
# closer than the tolerance
near_lattice = st.tuples(st.integers(-6, 6), st.sampled_from([0.0, 1e-12, 2e-12, 4e-12, 6e-12])).map(
    lambda t: t[0] * 0.5 + t[1]
)


@settings(max_examples=300, deadline=None)
@given(
    zones=st.lists(
        st.tuples(near_lattice, near_lattice, st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0]),
                  st.sampled_from([0.0, 0.5, 2.0, 3.0])),
        max_size=12,
    ),
    z=st.sampled_from([1.0, 2.0]),
)
def test_inner_demand_grid_equals_dedup_sorted(zones, z):
    dzs = [DemandZone(Rect(x, y, w, l), 1.0) for x, y, w, l in zones]
    assert_grid_is_reference(dzs, z, BaseServiceZone(1.0, 0.5))
    assert_grid_is_reference(dzs, z, BaseServiceZone(1.0, 0.0))
