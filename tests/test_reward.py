"""Reward evaluation: single zone, reward matrices, and joint coverage."""

import math
import random

import numpy as np
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
    QosSet,
    Rect,
    covered_reward,
    generate,
    generate_1d,
    pseudo_greedy,
)
from rectcover.reward import (
    build_reward_matrix,
    planar_form,
    solve_single_zone,
)

from conftest import small_2d, square_instance
from reference import full_grid_entries, single_zone_reward


def test_single_zone_reward_spot_values():
    inst = square_instance()
    dzs, base = inst.dzs, inst.base
    assert single_zone_reward(dzs, 0.0, 0.0, 1.0, base, Eta.LINEAR) == 4.0
    assert single_zone_reward(dzs, 1.0, 1.0, 1.0, base, Eta.LINEAR) == 4.0
    # hanging off the corner: only a 1x1 sliver remains
    assert single_zone_reward(dzs, 3.0, 3.0, 1.0, base, Eta.LINEAR) == 1.0
    # doubled zone covers the whole square at half rate
    assert single_zone_reward(dzs, 0.0, 0.0, 2.0, base, Eta.LINEAR) == 8.0
    assert single_zone_reward(dzs, 10.0, 0.0, 1.0, base, Eta.LINEAR) == 0.0


def test_reward_matrix_scale_one():
    inst = square_instance()
    m = build_reward_matrix(inst.dzs, 1.0, inst.base, inst.eta)
    assert m.xs.values == (0.0, 2.0)
    assert m.ys.values == (0.0, 2.0)
    assert np.allclose(m.entries, 4.0)


def test_reward_matrix_scale_two():
    inst = square_instance()
    m = build_reward_matrix(inst.dzs, 2.0, inst.base, inst.eta)
    assert m.xs.values == (0.0,)
    assert m.ys.values == (0.0,)
    assert m.entries.shape == (1, 1)
    assert m.entries[0, 0] == 8.0


def test_reward_matrix_agrees_with_scalar_evaluation():
    inst = small_2d(seed=3, n=6, m=2)
    for z in inst.scale_values():
        m = build_reward_matrix(inst.dzs, z, inst.base, inst.eta)
        for i, x in enumerate(m.xs.values):
            for j, y in enumerate(m.ys.values):
                direct = single_zone_reward(inst.dzs, x, y, z, inst.base, inst.eta)
                assert math.isclose(m.entries[i, j], direct, rel_tol=1e-9, abs_tol=1e-9)


def test_solve_single_zone_prefers_larger_footprint_when_it_pays():
    inst = square_instance()
    best, x, y, z = solve_single_zone(inst.dzs, inst.qos, inst.base, inst.eta)
    assert (best, x, y, z) == (8.0, 0.0, 0.0, 2.0)


def test_solve_single_zone_menu_of_one():
    inst = square_instance(m=1)
    assert solve_single_zone(inst.dzs, inst.qos, inst.base, inst.eta) == (4.0, 0.0, 0.0, 1.0)


def test_solve_single_zone_empty_demand():
    inst = square_instance()
    best, x, y, z = solve_single_zone((), inst.qos, inst.base, inst.eta)
    assert best == 0.0
    assert z == inst.qos.min_factor


def test_solve_single_zone_tie_breaks_toward_smaller_scale():
    # a 4x2 strip: flush z=1 placement collects 4; the doubled zone covers all
    # 8 units at half rate, also 4.  The smaller scale must win the tie.
    dzs = (DemandZone(Rect(0.0, 0.0, 4.0, 2.0), 1.0),)
    base = BaseServiceZone(2.0, 2.0)
    best, x, y, z = solve_single_zone(dzs, QosSet((1.0, 2.0)), base, Eta.LINEAR)
    assert best == 4.0
    assert z == 1.0
    assert (x, y) == (0.0, 0.0)  # leftmost of the tied grid placements


def test_covered_reward_empty_and_singleton():
    inst = square_instance()
    assert covered_reward(inst.dzs, (), inst.base, inst.eta) == 0.0
    got = covered_reward(inst.dzs, (Placement(0.0, 0.0, 2.0),), inst.base, inst.eta)
    assert got == single_zone_reward(inst.dzs, 0.0, 0.0, 2.0, inst.base, inst.eta)


def test_covered_reward_overlap_pays_best_rate():
    """A point under several zones pays at the smallest covering scale."""
    inst = square_instance()
    both = (Placement(0.0, 0.0, 2.0), Placement(0.0, 0.0, 1.0))
    # 2x2 patch at full rate, remaining 12 units at half rate
    assert covered_reward(inst.dzs, both, inst.base, inst.eta) == 10.0


def test_covered_reward_order_invariant():
    inst = small_2d(seed=5, n=6, m=2)
    rng = random.Random(42)
    xs = [d.rect.x for d in inst.dzs]
    ys = [d.rect.y for d in inst.dzs]
    for _ in range(25):
        pls = tuple(
            Placement(rng.choice(xs) - rng.random() * 4.0,
                      rng.choice(ys) - rng.random() * 4.0,
                      float(rng.choice((1, 2))))
            for _ in range(4)
        )
        want = covered_reward(inst.dzs, pls, inst.base, inst.eta)
        shuffled = list(pls)
        rng.shuffle(shuffled)
        got = covered_reward(inst.dzs, tuple(shuffled), inst.base, inst.eta)
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)


def test_covered_reward_monotone_and_subadditive():
    inst = small_2d(seed=8, n=6, m=2)
    rng = random.Random(7)
    for _ in range(20):
        pls = [
            Placement(rng.uniform(-5.0, 95.0), rng.uniform(-5.0, 95.0),
                      float(rng.choice((1, 2))))
            for _ in range(3)
        ]
        whole = covered_reward(inst.dzs, tuple(pls), inst.base, inst.eta)
        part = covered_reward(inst.dzs, tuple(pls[:2]), inst.base, inst.eta)
        assert whole >= part - 1e-9
        singles = sum(
            single_zone_reward(inst.dzs, pl.x, pl.y, pl.z, inst.base, inst.eta)
            for pl in pls
        )
        assert whole <= singles + 1e-9


def test_planar_form_passthrough_and_lift():
    inst = square_instance()
    dzs, base = planar_form(inst.dzs, inst.base)
    assert dzs == inst.dzs and base == inst.base

    seg = (DemandZone(Rect(3.0, 0.0, 5.0, 0.0), 2.0),)
    lifted, lbase = planar_form(seg, BaseServiceZone(2.0, 0.0))
    assert lbase.l0 == 1.0
    assert lifted[0].rect == Rect(3.0, 0.0, 5.0, 1.0)
    # idempotent
    again, abase = planar_form(lifted, lbase)
    assert again == lifted and abase == lbase


def test_one_d_rewards_are_covered_lengths():
    seg = (DemandZone(Rect(0.0, 0.0, 4.0, 0.0), 1.0),)
    base = BaseServiceZone(2.0, 0.0)
    assert single_zone_reward(seg, 0.0, 0.0, 1.0, base, Eta.LINEAR) == 2.0
    assert single_zone_reward(seg, 0.0, 0.0, 2.0, base, Eta.LINEAR) == 2.0
    got = covered_reward(seg, (Placement(0.0, 0.0, 1.0), Placement(0.0, 0.0, 2.0)), base, Eta.LINEAR)
    assert got == 3.0  # [0,2] at full rate, [2,4] at half


def test_reward_matrix_max_entry():
    inst = square_instance()
    m = build_reward_matrix(inst.dzs, 1.0, inst.base, inst.eta)
    assert m.max_entry == 4.0


def test_reward_matrix_block_max_equals_numpy_max_and_is_memoised():
    inst = small_2d(seed=3, n=6, m=2)
    m = build_reward_matrix(inst.dzs, 1.0, inst.base, inst.eta)
    nx, ny = m.entries.shape
    blocks = [
        (xlo, xhi, ylo, yhi)
        for xlo in range(nx) for xhi in range(xlo + 1, nx + 1)
        for ylo in range(ny) for yhi in range(ylo + 1, ny + 1)
    ]
    for xlo, xhi, ylo, yhi in blocks:
        want = float(m.entries[xlo:xhi, ylo:yhi].max())
        assert m.block_max(xlo, xhi, ylo, yhi) == want
        assert m.block_max(xlo, xhi, ylo, yhi) == want
    assert len(m._block_maxima) == len(blocks)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(0, 30), one_d=st.booleans())
def test_reward_matrix_reweighted_identities(seed, n, one_d):
    # at its own rates the demand gives back the entries, bit for bit, as
    # both are one product; at zero rates it earns nothing; the grids are shared
    if one_d:
        inst = generate_1d(GenConfig(seed=seed, n=n, p=3, dimension=Dimension.ONE_D))
    else:
        inst = generate(GenConfig(seed=seed, n=n, p=2, m=3))
    for z in inst.scale_values():
        m = build_reward_matrix(inst.dzs, z, inst.base, inst.eta)
        same, zero = m.reweighted(m.rates), m.reweighted(np.zeros_like(m.rates))
        for r in (same, zero):
            assert r.xs is m.xs and r.ys is m.ys and r.entries.shape == m.entries.shape
        assert np.array_equal(bits(same.entries), bits(m.entries))
        assert not zero.entries.any()


# ------------------------------------------------- in-order cells, bit for bit


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def assert_bitwise_full_grid(dzs, z, base, eta):
    # The exact contract is the in-order sum: every cell's, the leaf cells'
    # memoised maxima and the re-summed first maximum are the full-grid
    # reference's bit for bit.  The entries are the product reweighted takes.
    m = build_reward_matrix(dzs, z, base, eta)
    want = full_grid_entries(dzs, z, base, eta, m.xs.values, m.ys.values)
    nx, ny = want.shape
    columns = np.arange(ny)
    for i in range(nx):  # a row at a time keeps the terms' memory to pieces x ny
        assert np.array_equal(bits(m.cell_sums(np.full(ny, i), columns)), bits(want[i])), i
    for xlo in range(0, nx, max(1, nx // 7)):
        for ylo in range(0, ny, max(1, ny // 7)):
            for xhi, yhi in ((xlo + 1, ylo + 1), (min(xlo + 2, nx), min(ylo + 2, ny))):
                block = float(want[xlo:xhi, ylo:yhi].max())
                assert m.exact_block_max(xlo, xhi, ylo, yhi).hex() == block.hex()
    if want.size:
        k = int(want.argmax())
        first = (float(want.flat[k]).hex(), *divmod(k, ny))
        r, i, j = m.first_max()
        assert (r.hex(), i, j) == first
    assert np.array_equal(bits(m.entries), bits(m.reweighted(m.rates).entries))


def test_reward_matrix_bitwise_equal_to_full_grid_on_trimmed_greedy_rounds():
    # Later rounds see demand trimmed into pieces that abut; their overlaps
    # leave rounding slivers next to exact zeros at the block edges.
    inst = generate(GenConfig(seed=52, n=150, p=3, m=3))
    rounds = []

    def checked(dzs, qos, base, eta):
        for z in qos.factors:
            assert_bitwise_full_grid(dzs, z, base, eta)
        rounds.append(set(dzs) - set(inst.dzs))
        return solve_single_zone(dzs, qos, base, eta)

    pseudo_greedy(inst, checked)
    assert len(rounds) == 3 and not rounds[0] and rounds[2]  # trimmed pieces


@pytest.mark.parametrize("seed", [0, 3, 19])
def test_reward_matrix_bitwise_equal_to_full_grid_plane(seed):
    inst = generate(GenConfig(seed=seed, n=30, p=2, m=2))
    for z in inst.scale_values():
        assert_bitwise_full_grid(inst.dzs, z, inst.base, inst.eta)


@pytest.mark.parametrize("seed", [4, 38])
def test_reward_matrix_bitwise_equal_to_full_grid_line(seed):
    inst = generate_1d(GenConfig(seed=seed, n=12, p=3, dimension=Dimension.ONE_D))
    for z in inst.scale_values():
        assert_bitwise_full_grid(inst.dzs, z, inst.base, inst.eta)


def test_reward_matrix_skips_zones_without_overlap_on_one_axis():
    # A zero-height zone overlaps in x but never in y, a zero-width one the
    # reverse; both must leave every cell as the square alone sets it.
    square = DemandZone(Rect(0.0, 0.0, 4.0, 4.0), 1.0)
    flat = DemandZone(Rect(1.0, 3.0, 2.0, 0.0), 5.0)
    thin = DemandZone(Rect(3.0, 1.0, 0.0, 2.0), 5.0)
    base = BaseServiceZone(2.0, 2.0)
    for z in (1.0, 2.0):
        m = build_reward_matrix((square, flat, thin), z, base, Eta.LINEAR)
        xv, yv = m.xs.values, m.ys.values
        ox = np.clip(np.minimum(np.asarray(xv) + 2.0 * z, 3.0) - np.maximum(xv, 1.0), 0.0, None)
        oy = np.clip(np.minimum(np.asarray(yv) + 2.0 * z, 3.0) - np.maximum(yv, 3.0), 0.0, None)
        assert ox.any() and not oy.any()
        assert np.array_equal(m.entries, full_grid_entries((square,), z, base, Eta.LINEAR, xv, yv))
        assert_bitwise_full_grid((square, flat, thin), z, base, Eta.LINEAR)


def test_reward_matrix_empty_demand():
    for base in (BaseServiceZone(2.0, 2.0), BaseServiceZone(2.0, 0.0)):
        m = build_reward_matrix((), 1.0, base, Eta.LINEAR)
        assert not m.entries.any()
        assert_bitwise_full_grid((), 1.0, base, Eta.LINEAR)
