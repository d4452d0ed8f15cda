"""Brute-force reference solver."""

import math

import pytest

from rectcover import (
    OracleSizeError,
    Placement,
    brute_force_1d,
    brute_force_2d,
    covered_reward,
    solve,
)
from rectcover.oracle import _estimate

from conftest import micro_line, moved, small_1d, small_2d, square_instance


def test_square_optimum():
    inst = square_instance()
    res = brute_force_2d(inst)
    assert math.isclose(res.reward, 10.0, rel_tol=0, abs_tol=1e-9)
    assert res.evaluations == 217
    # the reported placements actually achieve the reported reward
    got = covered_reward(inst.dzs, res.placements, inst.base, inst.eta)
    assert math.isclose(got, res.reward, rel_tol=0, abs_tol=1e-9)


def test_size_guard_refuses_big_enumerations():
    inst = small_2d(seed=0, n=6, m=2)
    with pytest.raises(OracleSizeError):
        brute_force_2d(inst, max_evaluations=100)


def _closed_form_estimate(inst):
    # scale vectors times, per axis, the placement orders and every zone's candidates
    n, p = len(inst.dzs), inst.p
    per_axis = math.perm(p) * math.prod(2 * n + 2 * k for k in range(p))
    menus = math.prod(len(inst.qos_for(j).factors) for j in range(p))
    return menus * per_axis ** (1 if inst.one_d else 2)


@pytest.mark.parametrize(
    "inst",
    [square_instance(), small_2d(seed=1, n=3, m=2, p=3), small_1d(seed=0, n=4, p=3), micro_line()],
    ids=["square", "plane p3", "line p3", "micro line"],
)
def test_estimate_is_exact_up_to_the_limit(inst):
    full = _closed_form_estimate(inst)
    assert _estimate(inst, 10**30) == full
    assert _estimate(inst, full) == full
    assert _estimate(inst, full - 1) == full  # limit + 1


@pytest.mark.parametrize("p", [200, 3000, 10**30])
def test_huge_p_is_refused_at_once_with_the_budget_in_the_message(p):
    inst = square_instance(p=p)
    assert _estimate(inst, 10**8) == 10**8 + 1
    with pytest.raises(OracleSizeError, match=r"^more than 100000000 evaluations estimated$"):
        brute_force_2d(inst)


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


@pytest.mark.parametrize(
    "inst, brute, power",
    [
        pytest.param(small_1d(seed=0, n=4, p=2), brute_force_1d, 1, id="line"),
        pytest.param(small_2d(seed=0, n=3, m=2), brute_force_2d, 2, id="plane"),
    ],
)
def test_candidates_are_merged_relative_to_their_units(inst, brute, power):
    # At lengths times 1e-12 distinct candidates lie closer than 1e-9 apart,
    # and an absolute merge tolerance of that size lost the optimum (about
    # 35% of it on the line, 65% in the plane).
    s = 1e-12
    small = moved(inst, s)
    want = brute(inst).reward * s**power
    assert math.isclose(brute(small).reward, want, rel_tol=1e-9)
    sol, stats = solve(small)
    assert stats.optimal and math.isclose(sol.reward, want, rel_tol=1e-9)
