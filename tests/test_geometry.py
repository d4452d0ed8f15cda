"""Rectangle arithmetic: intersection, area, and difference decomposition."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectcover import Rect
from rectcover.geometry import EPS, area, intersect, trim_out


def test_rect_edges():
    r = Rect(1.0, 2.0, 3.0, 4.0)
    assert r.x2 == 4.0
    assert r.y2 == 6.0
    assert area(r) == 12.0


def test_rect_rejects_negative_extents():
    with pytest.raises(ValueError):
        Rect(0.0, 0.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        Rect(0.0, 0.0, 1.0, -2.0)


def test_rect_rejects_non_finite():
    with pytest.raises(ValueError):
        Rect(float("nan"), 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        Rect(0.0, float("inf"), 1.0, 1.0)


def test_degenerate_rect_allowed():
    seg = Rect(0.0, 0.0, 5.0, 0.0)
    assert area(seg) == 0.0


def test_intersect_overlapping():
    a = Rect(0.0, 0.0, 4.0, 4.0)
    b = Rect(2.0, 1.0, 4.0, 4.0)
    got = intersect(a, b)
    assert got == Rect(2.0, 1.0, 2.0, 3.0)


def test_intersect_disjoint_is_none():
    assert intersect(Rect(0, 0, 1, 1), Rect(5, 5, 1, 1)) is None


def test_intersect_edge_touch_is_none():
    # sharing a boundary edge is not overlap
    assert intersect(Rect(0, 0, 2, 2), Rect(2, 0, 2, 2)) is None
    assert intersect(Rect(0, 0, 2, 2), Rect(0, 2, 2, 2)) is None


def test_intersect_corner_touch_is_none():
    assert intersect(Rect(0, 0, 2, 2), Rect(2, 2, 2, 2)) is None


def test_intersect_commutes():
    a = Rect(0.0, 0.0, 5.0, 3.0)
    b = Rect(1.0, -1.0, 2.0, 10.0)
    assert intersect(a, b) == intersect(b, a)


def test_trim_out_disjoint_returns_original():
    d = Rect(0, 0, 2, 2)
    assert trim_out(d, Rect(10, 10, 1, 1)) == [d]


def test_trim_out_contained_returns_empty():
    assert trim_out(Rect(1, 1, 2, 2), Rect(0, 0, 10, 10)) == []


def test_trim_out_degenerate_demand_is_dropped():
    assert trim_out(Rect(0, 0, 0, 5), Rect(10, 10, 1, 1)) == []


def test_trim_out_corner_overlap():
    d = Rect(0.0, 0.0, 4.0, 4.0)
    s = Rect(2.0, 2.0, 4.0, 4.0)
    pieces = trim_out(d, s)
    # bottom strip then the left strip beside the bite
    assert pieces == [Rect(0.0, 0.0, 4.0, 2.0), Rect(0.0, 2.0, 2.0, 2.0)]


def test_trim_out_hole_makes_four_pieces():
    d = Rect(0.0, 0.0, 6.0, 6.0)
    s = Rect(2.0, 2.0, 2.0, 2.0)
    pieces = trim_out(d, s)
    assert len(pieces) == 4
    assert math.isclose(sum(area(piece) for piece in pieces), 36.0 - 4.0)


def _overlap_area(a: Rect, b: Rect) -> float:
    got = intersect(a, b)
    return area(got) if got is not None else 0.0


rects = st.builds(
    Rect,
    st.floats(-50, 50).map(lambda v: round(v, 3)),
    st.floats(-50, 50).map(lambda v: round(v, 3)),
    st.floats(0, 30).map(lambda v: round(v, 3)),
    st.floats(0, 30).map(lambda v: round(v, 3)),
)


@settings(max_examples=300, deadline=None)
@given(d=rects, s=rects)
def test_trim_out_conserves_area(d, s):
    pieces = trim_out(d, s)
    expect = area(d) - _overlap_area(d, s) if area(d) > 0 else 0.0
    assert math.isclose(sum(area(piece) for piece in pieces), expect, abs_tol=1e-6)


@settings(max_examples=300, deadline=None)
@given(d=rects, s=rects)
def test_trim_out_pieces_are_disjoint(d, s):
    pieces = trim_out(d, s)
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            assert _overlap_area(pieces[i], pieces[j]) <= 1e-9


@settings(max_examples=300, deadline=None)
@given(d=rects, s=rects)
def test_trim_out_pieces_stay_inside_and_clear_of_s(d, s):
    for piece in trim_out(d, s):
        assert piece.x >= d.x - EPS and piece.y >= d.y - EPS
        assert piece.x2 <= d.x2 + EPS and piece.y2 <= d.y2 + EPS
        # width-based storage puts piece edges within one ulp of s's edge,
        # so a sliver of ~1e-16 overlap area is representation noise
        assert _overlap_area(piece, s) <= 1e-9
