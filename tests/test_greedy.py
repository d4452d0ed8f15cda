"""Greedy placement loop and its pluggable-oracle variant."""

import math

import pytest

from rectcover import (
    BaseServiceZone,
    DemandZone,
    Dimension,
    GenConfig,
    Instance,
    Placement,
    QosSet,
    Rect,
    brute_force_2d,
    generate,
    generate_1d,
    greedy,
    pseudo_greedy,
)
from rectcover.reward import solve_single_zone

from conftest import small_2d, square_instance


def test_square_trace():
    tr = greedy(square_instance())
    assert tr.rewards == (8.0, 0.0)
    assert tr.solution.reward == 8.0
    # round one takes the doubled zone over the whole square; round two has
    # nothing left and parks at the tie-break default
    assert tr.solution.placements[0] == Placement(0.0, 0.0, 2.0)
    assert len(tr.solution.placements) == 2


def test_single_zone_matches_ssp():
    inst = square_instance(p=1)
    tr = greedy(inst)
    best, x, y, z = solve_single_zone(inst.dzs, inst.qos, inst.base, inst.eta)
    assert tr.solution.reward == best
    assert tr.solution.placements == (Placement(x, y, z),)


def test_empty_demand():
    inst = Instance(dzs=(), base=BaseServiceZone(2.0, 2.0), p=2, qos=QosSet((1.0, 2.0)))
    tr = greedy(inst)
    assert tr.rewards == (0.0, 0.0)
    assert tr.solution.reward == 0.0
    assert len(tr.solution.placements) == 2


def test_reward_is_sum_of_marginals():
    for seed in (0, 1, 2):
        tr = greedy(small_2d(seed=seed, n=6, m=2, p=3))
        assert math.isclose(tr.solution.reward, sum(tr.rewards), rel_tol=0, abs_tol=1e-9)


def test_marginals_never_increase():
    for seed in (0, 1, 2, 3):
        tr = greedy(small_2d(seed=seed, n=7, m=2, p=3))
        for a, b in zip(tr.rewards, tr.rewards[1:]):
            assert b <= a + 1e-9


def test_pseudo_greedy_with_exact_plug_is_greedy():
    inst = small_2d(seed=4, n=6, m=2)
    plain = greedy(inst)
    plugged = pseudo_greedy(inst, solve_single_zone)
    assert plugged.rewards == plain.rewards
    assert plugged.solution == plain.solution


def test_pseudo_greedy_with_crippled_oracle():
    # restrict the per-round oracle to scale 1: round one collects the 2x2
    # patch (4), round two picks the best scale-1 spot on what remains (4)
    def scale_one_only(dzs, qos, base, eta):
        return solve_single_zone(dzs, QosSet((1.0,)), base, eta)

    tr = pseudo_greedy(square_instance(), scale_one_only)
    assert tr.rewards == (4.0, 4.0)
    assert tr.solution.reward == 8.0


def test_first_round_times_p_bounds_the_optimum():
    # p copies of the best single-zone reward can cover anything the optimum
    # covers, so p * first-marginal must dominate the true optimum
    for seed in (0, 1, 2):
        inst = small_2d(seed=seed, n=4, m=2)
        tr = greedy(inst)
        opt = brute_force_2d(inst).reward
        assert inst.p * tr.rewards[0] >= opt - 1e-9


@pytest.mark.parametrize(
    "config, rewards, placements",
    [
        pytest.param(
            GenConfig(seed=0, n=150, p=3, m=3),
            (36167.9045759943, 23712.37263229131, 22825.445010841613),
            (
                Placement(x=757.8129536378472, y=891.5016605909569, z=3.0),
                Placement(x=588.1425148337381, y=252.71332310179577, z=3.0),
                Placement(x=4.376657527635757, y=1.3594184150708486, z=3.0),
            ),
            id="0",
        ),
        pytest.param(
            GenConfig(seed=52, n=150, p=3, m=3),
            (28774.851835549794, 24757.958360655302, 23336.739801294567),
            (
                Placement(x=561.6361207377925, y=612.6843793472576, z=3.0),
                Placement(x=413.6646706137809, y=-5.960756380519361, z=3.0),
                Placement(x=565.522309965237, y=492.6843793472576, z=3.0),
            ),
            id="52",
        ),
        pytest.param(
            GenConfig(seed=0, n=40, p=4, dimension=Dimension.ONE_D),
            (1256.2066195044426, 854.7787472514041, 625.6998813263626, 317.1335156275916),
            (
                Placement(x=129.28663797807312, y=0.0, z=1.0),
                Placement(x=-21.54901000702013, y=0.0, z=2.0),
                Placement(x=179.28663797807312, y=0.0, z=3.0),
                Placement(x=428.2959112188504, y=0.0, z=4.0),
            ),
            id="line-0",
        ),
    ],
)
def test_greedy_fingerprint(config, rewards, placements):
    # Recorded from the full-grid reward matrices, before each demand zone
    # was added over its support block only; a pure speed-up must not move
    # a single bit of them.  The line case was recorded from the loop over
    # DemandZone objects, before the rounds kept their demand in one array.
    make = generate_1d if config.dimension is Dimension.ONE_D else generate
    tr = greedy(make(config))
    assert tr.rewards == rewards
    assert tr.solution.placements == placements
