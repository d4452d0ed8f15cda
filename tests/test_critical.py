"""Candidate-coordinate (breakpoint) machinery along one axis."""

from hypothesis import given, settings
from hypothesis import strategies as st

from rectcover import (
    BaseServiceZone,
    DemandZone,
    Rect,
)
from rectcover.critical import (
    COORD_RTOL,
    abutment_values,
    contains_value,
    inner_demand_grid,
    service_breakpoints,
)
from rectcover.geometry import Axis

from reference import dedup_sorted


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
    # eps is the excluded grid's own tolerance, COORD_RTOL times its largest
    # magnitude: about 1.4e-11 for a grid that ends near 14
    base = BaseServiceZone(2.0, 1.0)
    fixed = [(10.0, 2.0), (0.0, 1.0)]
    # 14.0 and 0.0 lie within eps of an excluded value; 2.0 is not excluded
    exclude = (0.0 + 1e-12, 5.0, 14.0 - 1e-12)
    assert abutment_values(fixed, 1.0, base, Axis.X, True, exclude) == [8.0, -2.0, 2.0, 10.0, 12.0]
    # values closer than eps keep the first one seen; farther ones stay apart
    near = [(4.0, 1.0), (4.0 + 1e-12, 1.0), (4.25, 1.0)]
    assert abutment_values(near, 1.0, base, Axis.X, False, exclude) == [2.0, 6.0, 2.25, 6.25]
    # with no grid the tolerance is 0, and only exact duplicates are dropped
    c = near[1][0]
    assert abutment_values(near, 1.0, base, Axis.X, False) == [2.0, 6.0, c - 2.0, c + 2.0, 2.25, 6.25]
    assert abutment_values(near + near, 1.0, base, Axis.X, False) == [2.0, 6.0, c - 2.0, c + 2.0, 2.25, 6.25]
    assert abutment_values((), 1.0, base, Axis.X, True) == []
    # in other units the same values are merged and excluded
    full = abutment_values(fixed + near, 1.0, base, Axis.X, True, exclude)
    assert full == [8.0, -2.0, 2.0, 6.0, 2.25, 6.25, 10.0, 12.0, 4.0, 4.25]
    s = 1e-7
    small = abutment_values([(u * s, z) for u, z in fixed + near], 1.0, BaseServiceZone(2.0 * s, 1.0 * s),
                            Axis.X, True, tuple(v * s for v in exclude))
    assert len(small) == len(full) and all(abs(a / s - b) < 1e-12 for a, b in zip(small, full))


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
