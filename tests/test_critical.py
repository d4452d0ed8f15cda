"""Candidate-coordinate (breakpoint) machinery along one axis."""

from hypothesis import given, settings
from hypothesis import strategies as st

from rectcover import (
    BaseServiceZone,
    DemandZone,
    Rect,
)
from rectcover.critical import (
    abutment_values,
    contains_value,
    dedup_sorted,
    demand_breakpoints,
    inner_demand_grid,
    service_breakpoints,
)
from rectcover.geometry import Axis


def test_dedup_sorted_merges_near_duplicates():
    assert dedup_sorted([3.0, 1.0, 1.0 + 1e-12, 2.0]) == (1.0, 2.0, 3.0)
    assert dedup_sorted([]) == ()


def test_contains_value_tolerant_membership():
    vals = (0.0, 2.0, 5.0)
    assert contains_value(vals, 2.0)
    assert contains_value(vals, 2.0 + 1e-12)
    assert contains_value(vals, 5.0 - 1e-12)
    assert not contains_value(vals, 1.0)
    assert not contains_value(vals, 6.0)
    assert not contains_value((), 0.0)


def test_demand_breakpoints_x():
    d = DemandZone(Rect(10.0, 0.0, 6.0, 3.0), 1.0)
    base = BaseServiceZone(2.0, 1.0)
    # zone width 4 at scale 2: misses left of 6, flush inside on [10, 12]
    assert demand_breakpoints(d, 2.0, base, Axis.X) == (6.0, 10.0, 12.0, 16.0)


def test_demand_breakpoints_y():
    d = DemandZone(Rect(0.0, 5.0, 6.0, 3.0), 1.0)
    base = BaseServiceZone(2.0, 1.0)
    assert demand_breakpoints(d, 1.0, base, Axis.Y) == (4.0, 5.0, 7.0, 8.0)


def test_demand_breakpoints_oversized_zone_inverts_inner_pair():
    # zone wider than the demand span: inner_hi < inner_lo, outer pair still brackets
    d = DemandZone(Rect(0.0, 0.0, 3.0, 3.0), 1.0)
    base = BaseServiceZone(2.0, 2.0)
    o1, i1, i2, o2 = demand_breakpoints(d, 2.0, base, Axis.X)
    assert (o1, i1, i2, o2) == (-4.0, 0.0, -1.0, 3.0)


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
    outer = abutment_values(fixed, 1.0, base, Axis.X, False)
    assert outer == [8.0, 14.0, -2.0, 2.0]
    # then the inner pairs: 0.0 appears for both zones and is kept once
    full = abutment_values(fixed, 1.0, base, Axis.X, True)
    assert full == [8.0, 14.0, -2.0, 2.0, 10.0, 12.0, 0.0]


def test_abutment_values_exclude_and_dedup_within_eps():
    base = BaseServiceZone(2.0, 1.0)
    fixed = [(10.0, 2.0), (0.0, 1.0)]
    # 14.0 and 0.0 lie within eps of an excluded value; 2.0 is not excluded
    exclude = (0.0 + 1e-12, 5.0, 14.0 - 1e-12)
    assert abutment_values(fixed, 1.0, base, Axis.X, True, exclude) == [8.0, -2.0, 2.0, 10.0, 12.0]
    # values closer than eps keep the first one seen; farther ones stay apart
    near = [(4.0, 1.0), (4.0 + 1e-12, 1.0), (4.25, 1.0)]
    assert abutment_values(near, 1.0, base, Axis.X, False) == [2.0, 6.0, 2.25, 6.25]
    assert abutment_values(near, 1.0, base, Axis.X, False, eps=0.5) == [2.0, 6.0]
    assert abutment_values((), 1.0, base, Axis.X, True) == []


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


def reference_grid(dzs, z, base, axis, eps=1e-9):
    """``dedup_sorted`` over every zone's inner pair, the grid's definition."""
    return dedup_sorted([v for d in dzs for v in demand_breakpoints(d, z, base, axis)[1:3]], eps)


def assert_grid_is_reference(dzs, z, base, eps=1e-9):
    for axis in (Axis.X, Axis.Y):
        got = inner_demand_grid(dzs, z, base, axis, eps).values
        assert got == reference_grid(dzs, z, base, axis, eps)
        assert all(type(v) is float for v in got)


def test_inner_demand_grid_run_of_values_closer_than_eps():
    # lower edges at k * 0.6 eps: the second is within eps of the first and
    # dropped, the third is eps clear of the first kept value and stays, the
    # fourth is not; the upper inner values form the same run near 8
    eps = 1e-9
    base = BaseServiceZone(2.0, 2.0)
    dzs = [DemandZone(Rect(k * 0.6 * eps, -k * 0.6 * eps, 10.0, 10.0), 1.0) for k in range(4)]
    xs = inner_demand_grid(dzs, 1.0, base, Axis.X, eps).values
    ys = inner_demand_grid(dzs, 1.0, base, Axis.Y, eps).values
    assert xs[:2] == (0.0, 1.2e-9) and len(xs) == 4
    assert ys[:2] == (-1.8e-9, -6e-10) and len(ys) == 4
    assert_grid_is_reference(dzs, 1.0, base, eps)
    assert_grid_is_reference(dzs[::-1], 1.0, base, eps)


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


def test_inner_demand_grid_empty_both_axes():
    for base in (BaseServiceZone(2.0, 2.0), BaseServiceZone(2.0, 0.0)):
        assert_grid_is_reference((), 1.0, base)


# coordinates on a coarse lattice plus offsets below, at and above eps, so
# drawn zones produce exact duplicates and runs of values closer than eps
near_lattice = st.tuples(st.integers(-6, 6), st.sampled_from([0.0, 3e-10, 6e-10, 1e-9, 1.5e-9])).map(
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
