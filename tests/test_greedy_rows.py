"""The one trimming routine against the loops over pieces it replaces.

``reward.serve_zone`` computes a zone's gain and trim on rect-form rows
``(x, y, w, l, v)``; greedy rounds, ``covered_reward`` and
``ResidualDemand`` all trim through it.  Its references are the object
paths: ``single_zone_reward`` for the gain, ``trim_out`` without the pieces
of area 0 for the trim, and for ``covered_reward`` the two applied
placement by placement in ascending scale.  Both must agree bit for bit
(compared as ``float.hex``, which also tells ``0.0`` from ``-0.0``), piece
for piece and in order.
"""

import pytest
from hypothesis import example, given, settings
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
from rectcover.model import demand_rows, demand_zones, planar_form, reward_rate, service_rect
from rectcover.reward import ResidualDemand, covered_reward, serve_zone, solve_single_zone

from reference import area, intersect, single_zone_reward, trim_out


def hexes(values):
    return [float(v).hex() for v in values]


def reference_trim(dzs, zone):
    return [
        hexes((piece.x, piece.y, piece.w, piece.l, d.v))
        for d in dzs
        for piece in trim_out(d.rect, zone)
        if area(piece) > 0
    ]


def serve(dzs, zone, eta_z=1.0):
    return serve_zone(demand_rows(dzs).tolist(), (zone.x, zone.y, zone.x2, zone.y2), eta_z)


def assert_trim_matches(dzs, zone):
    _, rows = serve(dzs, zone)
    assert [hexes(row) for row in rows] == reference_trim(dzs, zone)


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
    # the lattice in tiny or huge units: only pieces of area 0 are dropped
    # (an area floor such as 1e-18 would drop every piece at 1e-150)
    unit=st.sampled_from([1.0, 1e-150, 1e150]),
)
def test_trim_matches_trim_out_on_a_lattice(pieces, zone, unit):
    dzs = [DemandZone(Rect(*(c * unit for c in r)), v) for r, v in pieces]
    assert_trim_matches(dzs, Rect(*(c * unit for c in zone)))


@settings(max_examples=300, deadline=None)
@given(
    pieces=st.lists(st.tuples(rects(fine, fine_extent), rate), max_size=12),
    zone=rects(fine, fine_extent),
)
# extents of 1e-200 give an area that underflows to 0, and the piece is
# dropped; extents of 1e-160 give a subnormal area, and a strip 1e-200 wide
# and 1 long an area of 1e-200, and both are kept
@example(pieces=[((0.0, 0.0, 1e-200, 1e-200), 1.0), ((0.0, 0.0, 1e-160, 1e-160), 1.0)], zone=(5.0, 5.0, 1.0, 1.0))
@example(pieces=[((0.0, 0.0, 1.0, 1.0), 1.0)], zone=(1e-200, -1.0, 1.0, 3.0))
def test_trim_matches_trim_out_off_the_lattice(pieces, zone):
    dzs = [DemandZone(Rect(*r), v) for r, v in pieces]
    assert_trim_matches(dzs, Rect(*zone))


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
    _, rows = serve(dzs, zone)
    assert len(rows) == pieces + 1  # the far square is never touched


def test_trim_of_no_rows():
    gain, rows = serve([], Rect(0, 0, 1, 1))
    assert gain == 0.0 and rows == []


def test_rows_round_trip_to_demand_zones():
    dzs = tuple(generate(GenConfig(seed=3, n=20, p=2, m=2)).dzs)
    assert demand_zones(demand_rows(dzs)) == dzs


# ------------------------------------------------------------------ round gain


def assert_gain_matches(dzs, x, y, z, base, eta=Eta.LINEAR):
    pdzs, pbase = planar_form(dzs, base)
    zone = service_rect(pbase, Placement(x, y, z))
    got, _ = serve(pdzs, zone, eta.apply(z))
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


# ------------------------------------------------------------- covered reward


def reference_covered(dzs, placements, base, eta):
    """The object path: by ascending scale, pay each overlap, keep the filtered ``trim_out`` pieces."""
    pdzs, pbase = planar_form(dzs, base)
    pieces = [(d.rect, d.v) for d in pdzs]
    total = 0.0
    for pl in sorted(placements, key=lambda q: q.z):
        zone = service_rect(pbase, pl)
        left = []
        for r, v in pieces:
            overlap = intersect(r, zone)
            if overlap is not None:
                total += reward_rate(v, pl.z, eta) * area(overlap)
            left += [(piece, v) for piece in trim_out(r, zone) if area(piece) > 0]
        pieces = left
    return total


def assert_covered_matches(pieces, placements, base):
    dzs = [DemandZone(Rect(*r), v) for r, v in pieces]
    pls = [Placement(x, y, z) for x, y, z in placements]
    got = covered_reward(dzs, pls, base, Eta.LINEAR)
    assert got.hex() == reference_covered(dzs, pls, base, Eta.LINEAR).hex()
    assert ResidualDemand(dzs, pls, base, Eta.LINEAR).served.hex() == got.hex()


scale = st.sampled_from([1.0, 1.5, 2.0, 3.0])


@settings(max_examples=300, deadline=None)
@given(
    pieces=st.lists(st.tuples(rects(lattice, lattice_extent), rate), max_size=10),
    placements=st.lists(st.tuples(lattice, lattice, scale), max_size=4),
    dims=st.tuples(st.integers(1, 6), st.integers(1, 6)).map(lambda d: (d[0] / 2, d[1] / 2)),
)
def test_covered_reward_matches_the_object_path_on_a_lattice(pieces, placements, dims):
    assert_covered_matches(pieces, placements, BaseServiceZone(*dims))


# A trim in bounds form, whose far edges then differ from x + w by an ulp,
# paid 274346.9544286293 here against the object path's 274346.9544286294.
@example(
    pieces=[
        ((9.356617798855225, -45.86351060812595, 5.595478511237331, 19.69584726510265), 8350.640356339942),
        ((13.960903944973523, -16.97943826514502, 38.308970987037945, 17.935913869507264), 2594.633556668036),
    ],
    placements=[
        (42.26677868396894, -47.226073711532536, 3.0),
        (-20.951113582392512, -27.415913119677793, 1.5),
        (-46.28841939888223, -24.056887882485633, 1.5),
    ],
    dims=(25.0, 40.0),
)
@settings(max_examples=300, deadline=None)
@given(
    pieces=st.lists(st.tuples(rects(fine, fine_extent), st.floats(0.01, 1e4)), max_size=10),
    placements=st.lists(st.tuples(fine, fine, scale), max_size=4),
    dims=st.sampled_from([(10.0, 8.0), (3.0, 2.0), (25.0, 40.0), (6.0, 0.0)]),
)
def test_covered_reward_matches_the_object_path_off_the_lattice(pieces, placements, dims):
    if dims[1] == 0:  # a line: segments on the x-axis
        pieces = [((x, 0.0, w, 0.0), v) for (x, _, w, _), v in pieces]
    assert_covered_matches(pieces, placements, BaseServiceZone(*dims))
