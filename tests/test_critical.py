"""Candidate-coordinate (breakpoint) machinery along one axis."""

from hypothesis import given, settings
from hypothesis import strategies as st

from rectcover import (
    Axis,
    BaseServiceZone,
    DemandZone,
    Rect,
    contains_value,
    dedup_sorted,
    demand_breakpoints,
    inner_demand_grid,
    service_breakpoints,
)
from rectcover.critical import abutment_values


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
    assert grid.scale == 1.0
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
