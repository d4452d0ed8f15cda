"""Instance data model validation and accessors."""

import pytest

from rectcover import (
    BaseServiceZone,
    DemandZone,
    Dimension,
    Eta,
    Instance,
    Placement,
    QosSet,
    Rect,
)
from rectcover.model import reward_rate, service_rect

from conftest import square_instance


def test_eta_linear():
    assert Eta.LINEAR.apply(1.0) == 1.0
    assert Eta.LINEAR.apply(2.0) == 2.0
    assert reward_rate(6.0, 3.0, Eta.LINEAR) == 2.0


def test_demand_zone_requires_positive_rate():
    with pytest.raises(ValueError):
        DemandZone(Rect(0, 0, 1, 1), 0.0)
    with pytest.raises(ValueError):
        DemandZone(Rect(0, 0, 1, 1), -3.0)


def test_base_zone_validation():
    with pytest.raises(ValueError):
        BaseServiceZone(0.0, 1.0)
    # zero length marks the 1d variant and is fine
    BaseServiceZone(2.0, 0.0)


def test_qos_set_must_increase_from_one():
    with pytest.raises(ValueError):
        QosSet(())
    with pytest.raises(ValueError):
        QosSet((0.5,))
    with pytest.raises(ValueError):
        QosSet((1.0, 1.0))
    with pytest.raises(ValueError):
        QosSet((2.0, 1.0))
    assert QosSet((1.0, 2.0, 3.0)).min_factor == 1.0


def test_service_rect_scales_both_dims():
    base = BaseServiceZone(2.0, 3.0)
    r = service_rect(base, Placement(1.0, 1.0, 2.0))
    assert r == Rect(1.0, 1.0, 4.0, 6.0)


def test_instance_accessors_shared_menu():
    inst = square_instance(m=2)
    assert inst.qos_for(0) == inst.qos_for(1) == QosSet((1.0, 2.0))
    assert inst.scale_values() == (1.0, 2.0)
    assert not inst.one_d


def test_instance_accessors_per_zone_menu():
    inst = Instance(
        dzs=(DemandZone(Rect(0, 0, 4, 0), 1.0),),
        base=BaseServiceZone(2.0, 0.0),
        p=2,
        qos=(QosSet((2.0,)), QosSet((1.0,))),
        dimension=Dimension.ONE_D,
    )
    assert inst.one_d
    assert inst.qos_for(0) == QosSet((2.0,))
    # union across zones, sorted
    assert inst.scale_values() == (1.0, 2.0)


def test_instance_rejects_bad_p():
    with pytest.raises(ValueError):
        Instance(
            dzs=(DemandZone(Rect(0, 0, 1, 1), 1.0),),
            base=BaseServiceZone(1.0, 1.0),
            p=0,
            qos=QosSet((1.0,)),
        )


def test_instance_rejects_mismatched_per_zone_menus():
    with pytest.raises(ValueError):
        Instance(
            dzs=(DemandZone(Rect(0, 0, 1, 1), 1.0),),
            base=BaseServiceZone(1.0, 1.0),
            p=2,
            qos=(QosSet((1.0,)),),
        )


def test_one_d_instance_validation():
    seg = DemandZone(Rect(0.0, 0.0, 4.0, 0.0), 1.0)
    # needs a zero-length base
    with pytest.raises(ValueError):
        Instance(dzs=(seg,), base=BaseServiceZone(2.0, 1.0), p=1,
                 qos=(QosSet((1.0,)),), dimension=Dimension.ONE_D)
    # needs per-zone singleton menus
    with pytest.raises(ValueError):
        Instance(dzs=(seg,), base=BaseServiceZone(2.0, 0.0), p=1,
                 qos=QosSet((1.0,)), dimension=Dimension.ONE_D)
    # demand must sit on the axis
    with pytest.raises(ValueError):
        Instance(dzs=(DemandZone(Rect(0.0, 1.0, 4.0, 0.0), 1.0),),
                 base=BaseServiceZone(2.0, 0.0), p=1,
                 qos=(QosSet((1.0,)),), dimension=Dimension.ONE_D)


def test_two_d_instance_rejects_degenerate_demand():
    with pytest.raises(ValueError):
        Instance(
            dzs=(DemandZone(Rect(0, 0, 4, 0), 1.0),),
            base=BaseServiceZone(2.0, 2.0),
            p=1,
            qos=QosSet((1.0,)),
        )


@pytest.mark.parametrize(
    "rect, one_d",
    [
        (Rect(1e300, 0.0, 5.0, 5.0), False),  # x + w == x far out
        (Rect(0.0, -1e300, 5.0, 5.0), False),  # y + l == y far out
        (Rect(1.0, 0.0, 1e-17, 5.0), False),  # a width below the spacing at x
        (Rect(1e300, 0.0, 5.0, 0.0), True),
        (Rect(2.0, 0.0, 0.0, 0.0), True),  # a segment of length 0
    ],
)
def test_instance_refuses_demand_that_vanishes_in_floating_point(rect, one_d):
    if one_d:
        kind = dict(base=BaseServiceZone(2.0, 0.0), qos=(QosSet((1.0,)),), dimension=Dimension.ONE_D)
    else:
        kind = dict(base=BaseServiceZone(2.0, 2.0), qos=QosSet((1.0,)))
    ok = DemandZone(Rect(0.0, 0.0, 4.0, 0.0 if one_d else 4.0), 1.0)
    with pytest.raises(ValueError, match=r"dz\[1\] must have extents that do not vanish"):
        Instance(dzs=(ok, DemandZone(rect, 1.0)), p=1, **kind)
    # far out is fine while the extent still moves the far edge
    far = Rect(1e300, 0.0, 1e290, 0.0 if one_d else 1e290)
    assert Instance(dzs=(ok, DemandZone(far, 1.0)), p=1, **kind).dzs[1].rect == far



@pytest.mark.parametrize(
    "rect, base, menu, one_d",
    [
        (Rect(1e308, 0.0, 1e308, 5.0), (2.0, 2.0), (1.0,), False),  # x + w overflows
        (Rect(0.0, 1e308, 5.0, 1e308), (2.0, 2.0), (1.0,), False),  # y + l overflows
        (Rect(-1e308, 0.0, 1e306, 5.0), (1e308, 2.0), (1.0,), False),  # x - w0 overflows
        (Rect(0.0, 0.0, 5.0, 5.0), (1e308, 8.0), (1.0, 2.0), False),  # w0 * z_max overflows
        (Rect(0.0, 1.7e308, 5.0, 1e306), (2.0, 1e307), (1.0, 2.0), False),  # y2 + l0 * z_max
        (Rect(1e308, 0.0, 1e308, 0.0), (2.0, 0.0), (1.0,), True),
        (Rect(1.7e308, 0.0, 1e306, 0.0), (1e307, 0.0), (2.0,), True),
    ],
)
def test_instance_refuses_demand_whose_edges_overflow(rect, base, menu, one_d):
    if one_d:
        kind = dict(qos=(QosSet(menu),), dimension=Dimension.ONE_D)
    else:
        kind = dict(qos=QosSet(menu))
    ok = DemandZone(Rect(0.0, 0.0, 4.0, 0.0 if one_d else 4.0), 1.0)
    with pytest.raises(ValueError, match=r"dz\[\d\] overflows"):
        Instance(dzs=(ok, DemandZone(rect, 1.0)), base=BaseServiceZone(*base), p=1, **kind)
    # the largest edge and footprint still fit below the float maximum
    near = Rect(-1e308, 1e308, 1e307, 1e307)
    big = Instance(dzs=(DemandZone(near, 1.0),), base=BaseServiceZone(1e307, 1e307), p=1, qos=QosSet((1.0, 5.0)))
    assert big.dzs[0].rect == near


def test_demand_zone_box_is_bounds_form_built_once():
    d = DemandZone(Rect(1.5, -2.0, 3.25, 4.0), 2.5)
    assert d.box == (1.5, -2.0, 4.75, 2.0, 2.5)
    assert d.box is d.box
    assert d == DemandZone(Rect(1.5, -2.0, 3.25, 4.0), 2.5)
