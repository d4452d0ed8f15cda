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
    # far out is fine while the extent still moves the far edge (and the
    # area w * l stays finite)
    far = Rect(1e300, 0.0, 1e290, 0.0 if one_d else 5.0)
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
    # the largest edge and footprint still fit below the float maximum (with
    # an area that fits too: a zone at y = 1e308 would need l >= 1e292)
    near = Rect(-1e308, 0.0, 1e307, 5.0)
    big = Instance(dzs=(DemandZone(near, 1.0),), base=BaseServiceZone(1e307, 1e307), p=1, qos=QosSet((1.0, 5.0)))
    assert big.dzs[0].rect == near


def _one_zone(rect, v, base, p=1, one_d=False):
    kind = dict(qos=(QosSet((1.0,)),) * p, dimension=Dimension.ONE_D) if one_d else dict(qos=QosSet((1.0,)))
    return Instance(dzs=(DemandZone(rect, v),), base=BaseServiceZone(*base), p=p, **kind)


@pytest.mark.parametrize(
    "rect, v, base, one_d",
    [
        pytest.param(Rect(0.0, 0.0, 1e200, 1e200), 1.0, (1e200, 1e200), False, id="area"),
        pytest.param(Rect(0.0, 0.0, 1e200, 1.0), 1e200, (2.0, 2.0), False, id="v * w"),
        pytest.param(Rect(0.0, 0.0, 1.0, 1e200), 1e200, (2.0, 2.0), False, id="v * l"),
        pytest.param(Rect(0.0, 0.0, 1e300, 0.0), 1e10, (1e300, 0.0), True, id="line v * w"),
    ],
)
def test_instance_refuses_demand_whose_area_or_reward_overflows(rect, v, base, one_d):
    with pytest.raises(ValueError, match=r"dz\[0\] overflows: its area or reward is not finite"):
        _one_zone(rect, v, base, one_d=one_d)


@pytest.mark.parametrize("one_d", [False, True])
def test_instance_refuses_demand_whose_total_reward_overflows_over_p_zones(one_d):
    # v * w * l is 1e308 and fits; the bound over p = 2 zones, 2e308, does not
    rect = Rect(0.0, 0.0, 1e154, 0.0 if one_d else 1e154)
    v = 1e154 if one_d else 1.0
    assert _one_zone(rect, v, (2.0, 0.0 if one_d else 2.0), one_d=one_d).p == 1
    with pytest.raises(ValueError, match="p times its total reward is not finite"):
        _one_zone(rect, v, (2.0, 0.0 if one_d else 2.0), p=2, one_d=one_d)


def test_demand_zone_row_is_rect_form_built_once():
    d = DemandZone(Rect(1.5, -2.0, 3.25, 4.0), 2.5)
    assert d.row == (1.5, -2.0, 3.25, 4.0, 2.5)
    assert d.row is d.row
    assert d == DemandZone(Rect(1.5, -2.0, 3.25, 4.0), 2.5)
