"""Brute-force reference solver."""

import math

import pytest

from rectcover import (
    OracleSizeError,
    Placement,
    brute_force_1d,
    brute_force_2d,
    covered_reward,
)

from conftest import micro_line, small_1d, small_2d, square_instance


def test_square_optimum():
    inst = square_instance()
    res = brute_force_2d(inst)
    assert math.isclose(res.reward, 10.0, rel_tol=0, abs_tol=1e-9)
    assert res.evaluations == 217
    # the reported placements actually achieve the reported reward
    got = covered_reward(inst.dzs, res.placements, inst.base, inst.eta)
    assert math.isclose(got, res.reward, rel_tol=0, abs_tol=1e-9)


def test_identity_sequences_are_a_subset():
    inst = small_2d(seed=1, n=3, m=2)
    full = brute_force_2d(inst)
    identity = brute_force_2d(inst, sequences="identity")
    assert identity.evaluations < full.evaluations
    assert identity.reward <= full.reward + 1e-9


def test_size_guard_refuses_big_enumerations():
    inst = small_2d(seed=0, n=6, m=2)
    with pytest.raises(OracleSizeError):
        brute_force_2d(inst, max_evaluations=100)


def test_single_zone_case_agrees_with_the_reward_module():
    # with one zone the oracle must land on the single-zone optimum, which the
    # reward module computes by a different route (matrix argmax)
    from rectcover.reward import solve_single_zone

    inst = small_2d(seed=2, n=4, m=2, p=1)
    res = brute_force_2d(inst)
    best, *_ = solve_single_zone(inst.dzs, inst.qos, inst.base, inst.eta)
    assert math.isclose(res.reward, best, rel_tol=1e-9)


def test_micro_line():
    res = brute_force_1d(micro_line())
    assert math.isclose(res.reward, 3.0, rel_tol=0, abs_tol=1e-9)
    assert res.evaluations == 8


def test_dimension_checks():
    with pytest.raises(ValueError):
        brute_force_1d(square_instance())
    with pytest.raises(ValueError):
        brute_force_2d(small_1d(seed=0, n=3, p=2))
    with pytest.raises(ValueError):
        brute_force_2d(square_instance(), sequences="sorted")


def test_empty_demand_is_zero():
    from rectcover import BaseServiceZone, Instance, QosSet

    inst = Instance(dzs=(), base=BaseServiceZone(2.0, 2.0), p=2, qos=QosSet((1.0, 2.0)))
    res = brute_force_2d(inst)
    assert res.reward == 0.0
    assert res.evaluations == 0
    assert len(res.placements) == 2


def test_beats_or_matches_any_feasible_solution():
    inst = small_2d(seed=4, n=3, m=2)
    res = brute_force_2d(inst)
    for pls in (
        (Placement(40.0, 40.0, 1.0), Placement(50.0, 50.0, 2.0)),
        (Placement(30.0, 60.0, 2.0), Placement(30.0, 60.0, 1.0)),
    ):
        feasible = covered_reward(inst.dzs, pls, inst.base, inst.eta)
        assert res.reward >= feasible - 1e-9
