"""Results do not depend on the units or the origin of the coordinates.

Every tolerance of the exact search is taken from the data (``bnb`` module
docstring, Tolerances), so scaling every length by ``s`` scales the optimum
by ``s**2`` in the plane and by ``s`` on the line, and a translation leaves
it as it is.  When ``s`` is a power of two every operation scales exactly,
so the whole search is the same, node for node and bit for bit.  Any other
``s``, or a translation, rounds the data differently: the optimum stays, to
rounding, but the explored-node count may move, since the Lagrangian fit
and ties between equal rewards follow the last bits.
"""

import math
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from rectcover import Dimension, GenConfig, generate, generate_1d, solve

from conftest import moved


def small(one_d, seed, n):
    if one_d:
        return generate_1d(GenConfig(seed=seed, n=n, p=3, dimension=Dimension.ONE_D))
    return generate(GenConfig(seed=seed, n=n, p=2, m=2))


def assert_same_optimum(inst, other, factor):
    """Both solves prove, and ``other``'s optimum is ``inst``'s times ``factor`` to 1e-9 relative."""
    sol, stats = solve(inst)
    got, got_stats = solve(other)
    assert stats.optimal and got_stats.optimal
    assert math.isclose(got.reward, sol.reward * factor, rel_tol=1e-9)
    return (sol, stats), (got, got_stats)


instances = st.tuples(st.booleans(), st.integers(0, 10**6), st.integers(2, 8))


@settings(max_examples=40, deadline=None)
@given(case=instances, exponent=st.floats(-6, 6))
def test_reward_scales_with_the_units(case, exponent):
    one_d = case[0]
    inst = small(*case)
    s = 10.0**exponent
    assert_same_optimum(inst, moved(inst, s=s), s if one_d else s * s)


@settings(max_examples=40, deadline=None)
@given(case=instances, k=st.integers(-20, 20))
def test_power_of_two_units_give_the_same_search(case, k):
    # 2**-20 to 2**20, about 1e-6 to 1e6
    one_d = case[0]
    inst = small(*case)
    s = 2.0**k
    (sol, stats), (got, got_stats) = assert_same_optimum(inst, moved(inst, s=s), s if one_d else s * s)
    assert got.reward == sol.reward * (s if one_d else s * s)
    assert got.placements == tuple(replace(p, x=p.x * s, y=p.y * s) for p in sol.placements)
    assert got_stats.nodes_explored == stats.nodes_explored
    assert [(i, r * (s if one_d else s * s)) for i, r in stats.best_reward_history] == got_stats.best_reward_history


@settings(max_examples=40, deadline=None)
@given(case=instances, t=st.floats(-1e6, 1e6))
def test_reward_is_translation_invariant(case, t):
    inst = small(*case)
    assert_same_optimum(inst, moved(inst, t=t), 1.0)


def test_planar_optimum_at_tiny_units():
    # an absolute tolerance of 1e-9 proved a reward 1.6% below the optimum
    # here at s = 1e-6 (21348.12 s**2 after 508 nodes), and 0 at s = 1e-12.
    # The search takes 547 nodes at every scale; it took 688 while the
    # interval step cut a slice at its wide gaps, and 722 while y branching
    # first pushed a copy of the node per candidate zone, 34 of them popped.
    inst = generate(GenConfig(seed=2, n=15, p=2, m=2))
    for s in (1e-6, 1e-12):
        (_, stats_at_one), (got, stats) = assert_same_optimum(inst, moved(inst, s=s), s * s)
        assert math.isclose(got.reward / (s * s), 21696.4968005529, rel_tol=1e-12)
        assert stats.nodes_explored == stats_at_one.nodes_explored == 547


def test_line_optimum_at_tiny_units():
    # an absolute tolerance of 1e-9 proved 266.09 s at s = 1e-12, 73% below
    # the optimum of 972.28 s; the search takes 53 nodes (67 while the
    # interval step cut a slice at its wide gaps)
    inst = generate_1d(GenConfig(seed=59, n=12, p=3, dimension=Dimension.ONE_D))
    _, (got, stats) = assert_same_optimum(inst, moved(inst, s=1e-12), 1e-12)
    assert math.isclose(got.reward / 1e-12, 972.2819554822, rel_tol=1e-12)
    assert stats.nodes_explored == 53


def test_root_bound_within_the_relative_tolerance_proves_at_the_root():
    # the root bound, 21233.25704001915, is the optimum, 21233.257039997916,
    # times 1 + 1e-12: the Lagrangian bound's rounding margin, which the
    # prune test allows (an absolute slack of 1e-9 took 50 nodes)
    sol, stats = solve(generate(GenConfig(seed=1, n=10, p=2, m=2)))
    assert stats.optimal
    assert stats.nodes_explored == 1
    assert stats.root_bound <= sol.reward * (1 + 1e-12)
