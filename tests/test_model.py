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
    reward_rate,
    service_rect,
)

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


def test_demand_zone_box_is_bounds_form_built_once():
    d = DemandZone(Rect(1.5, -2.0, 3.25, 4.0), 2.5)
    assert d.box == (1.5, -2.0, 4.75, 2.0, 2.5)
    assert d.box is d.box
    assert d == DemandZone(Rect(1.5, -2.0, 3.25, 4.0), 2.5)
