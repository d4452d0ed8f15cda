"""Greedy's rounds on the demand array against the loops over pieces they replace.

``greedy._take`` computes a round's gain and trim on one ``(x, y, w, l, v)``
row array.  Its references are the object paths: ``single_zone_reward`` for
the gain and ``trim_out`` plus the ``area >= eps**2`` filter for the trim.
Both must agree bit for bit (compared as ``float.hex``, which also tells
``0.0`` from ``-0.0``), piece for piece and in order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectcover import (
    BaseServiceZone,
    DemandZone,
    Dimension,
    Eta,
    GenConfig,
    Placement,
    Rect,
    generate,
    generate_1d,
    greedy,
    pseudo_greedy,
)
from rectcover.geometry import EPS, area, trim_out
from rectcover.greedy import _take
from rectcover.model import demand_rows, demand_zones, planar_form, service_rect
from rectcover.reward import single_zone_reward, solve_single_zone


def hexes(values):
    return [float(v).hex() for v in values]


def reference_trim(dzs, zone, eps):
    return [
        hexes((piece.x, piece.y, piece.w, piece.l, d.v))
        for d in dzs
        for piece in trim_out(d.rect, zone)
        if area(piece) >= eps * eps
    ]


def assert_trim_matches(dzs, zone, eps=EPS):
    _, rows = _take(demand_rows(dzs), zone, 1.0, eps)
    assert [hexes(row) for row in rows.tolist()] == reference_trim(dzs, zone, eps)


# Coordinates on a coarse lattice, so that edges often coincide: pieces that
# only touch the zone along an edge or at a corner, zones covering a piece.
lattice = st.integers(-6, 6).map(lambda k: k / 2)
lattice_extent = st.integers(0, 8).map(lambda k: k / 2)
# Coordinates off any lattice, so that bounds and extents round.
fine = st.floats(-50, 50, allow_nan=False, allow_infinity=False)
fine_extent = st.floats(0, 40, allow_nan=False, allow_infinity=False)
rate = st.floats(0.1, 5).map(lambda v: round(v, 3))


def rects(coord, extent):
    return st.tuples(coord, coord, extent, extent)


@settings(max_examples=300, deadline=None)
@given(
    pieces=st.lists(st.tuples(rects(lattice, lattice_extent), rate), max_size=12),
    zone=rects(lattice, lattice_extent),
    # eps**2 underflows to 0 at 1e-200: the area filter then keeps zero-area
    # pieces, and only the degenerate-demand and strip tests drop them
    eps=st.sampled_from([EPS, 0.3, 1.0, 1e-200]),
)
def test_trim_matches_trim_out_on_a_lattice(pieces, zone, eps):
    dzs = [DemandZone(Rect(*r), v) for r, v in pieces]
    assert_trim_matches(dzs, Rect(*zone), eps)


@settings(max_examples=300, deadline=None)
@given(
    pieces=st.lists(st.tuples(rects(fine, fine_extent), rate), max_size=12),
    zone=rects(fine, fine_extent),
    eps=st.sampled_from([EPS, 1e-3, 0.5]),
)
def test_trim_matches_trim_out_off_the_lattice(pieces, zone, eps):
    dzs = [DemandZone(Rect(*r), v) for r, v in pieces]
    assert_trim_matches(dzs, Rect(*zone), eps)


@settings(max_examples=200, deadline=None)
@given(
    segments=st.lists(st.tuples(fine, fine_extent, rate), max_size=12),
    x=fine,
    z=st.sampled_from([1.0, 2.0, 3.5]),
)
def test_trim_matches_trim_out_on_lifted_segments(segments, x, z):
    dzs, base = planar_form(
        [DemandZone(Rect(sx, 0.0, w, 0.0), v) for sx, w, v in segments],
        BaseServiceZone(6.0, 0.0),
    )
    assert_trim_matches(dzs, service_rect(base, Placement(x, 0.0, z)))


@pytest.mark.parametrize(
    "d, zone, pieces",
    [
        pytest.param(Rect(0, 0, 0, 4), Rect(-1, -1, 9, 9), 0, id="zero width"),
        pytest.param(Rect(0, 0, 4, 0), Rect(10, 10, 1, 1), 0, id="zero length, missed"),
        pytest.param(Rect(0, 0, 4, 4), Rect(4, 0, 2, 4), 1, id="edge touch"),
        pytest.param(Rect(0, 0, 4, 4), Rect(4, 4, 2, 2), 1, id="corner touch"),
        pytest.param(Rect(0, 0, 4, 4), Rect(-1, -1, 6, 6), 0, id="covered"),
        pytest.param(Rect(0, 0, 4, 4), Rect(0, 0, 4, 4), 0, id="covered exactly"),
        pytest.param(Rect(0, 0, 4, 4), Rect(1, 1, 2, 2), 4, id="hole"),
        pytest.param(Rect(0, 0, 4, 4), Rect(2, -1, 5, 3), 2, id="corner bite"),
    ],
)
def test_trim_built_cases(d, zone, pieces):
    dzs = [DemandZone(d, 2.0), DemandZone(Rect(-9, -9, 1, 1), 1.0)]
    assert_trim_matches(dzs, zone)
    _, rows = _take(demand_rows(dzs), zone, 1.0, EPS)
    assert len(rows) == pieces + 1  # the far square is never touched


def test_trim_of_no_rows():
    gain, rows = _take(demand_rows([]), Rect(0, 0, 1, 1), 1.0, EPS)
    assert gain == 0.0 and rows.shape == (0, 5)


def test_rows_round_trip_to_demand_zones():
    dzs = tuple(generate(GenConfig(seed=3, n=20, p=2, m=2)).dzs)
    assert demand_zones(demand_rows(dzs)) == dzs


# ------------------------------------------------------------------ round gain


def assert_gain_matches(dzs, x, y, z, base, eta=Eta.LINEAR):
    pdzs, pbase = planar_form(dzs, base)
    zone = service_rect(pbase, Placement(x, y, z))
    got, _ = _take(demand_rows(pdzs), zone, eta.apply(z), EPS)
    assert got.hex() == single_zone_reward(dzs, x, y, z, base, eta).hex()


@settings(max_examples=300, deadline=None)
@given(
    pieces=st.lists(st.tuples(rects(fine, fine_extent), st.floats(0.01, 1e4)), max_size=40),
    corner=st.tuples(fine, fine),
    z=st.sampled_from([1.0, 1.5, 3.0]),
    dims=st.sampled_from([(10.0, 8.0), (3.0, 2.0), (25.0, 40.0)]),
)
def test_gain_matches_single_zone_reward_on_planar_input(pieces, corner, z, dims):
    dzs = [DemandZone(Rect(*r), v) for r, v in pieces]
    assert_gain_matches(dzs, *corner, z, BaseServiceZone(*dims))


@settings(max_examples=200, deadline=None)
@given(
    segments=st.lists(st.tuples(fine, fine_extent, st.floats(0.01, 1e4)), max_size=40),
    x=fine,
    z=st.sampled_from([1.0, 2.0, 3.5]),
)
def test_gain_matches_single_zone_reward_on_line_input(segments, x, z):
    dzs = [DemandZone(Rect(sx, 0.0, w, 0.0), v) for sx, w, v in segments]
    assert_gain_matches(dzs, x, 0.0, z, BaseServiceZone(6.0, 0.0))


@pytest.mark.parametrize(
    "inst",
    [
        pytest.param(generate(GenConfig(seed=5, n=150, p=3, m=3)), id="planar n=150"),
        pytest.param(
            generate_1d(GenConfig(seed=5, n=40, p=4, dimension=Dimension.ONE_D)), id="line p=4 n=40"
        ),
    ],
)
def test_pseudo_greedy_with_the_exact_solver_is_greedy(inst):
    # greedy hands the solver the row array, pseudo_greedy DemandZone objects
    assert pseudo_greedy(inst, solve_single_zone) == greedy(inst)
