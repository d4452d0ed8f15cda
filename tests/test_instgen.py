"""Seeded random instance generation."""

import dataclasses

import pytest

from rectcover import Dimension, GenConfig, QosSet, generate, generate_1d


#: Float hex of every demand row, planar `(x, y, w, l, v)` and line `(x, w, v)`,
#: for seeds 0-2 at n=5, recorded before the two generators shared a draw loop.
PLANE_ROWS = {
    0: [
        "0x1.f8d7debd14db8p+6 -0x1.7677e18fde793p+5 0x1.78a0464aa191fp+5 0x1.4db51044abd84p+5 0x1.064f3bae09b31p+0",
        "0x1.8cca1c5380630p+9 0x1.904fd1dd0c983p+9 0x1.9cf1b01f63115p+3 0x1.5ebe91c9b024ap+5 0x1.77e1b4a84cbb1p+2",
        "0x1.6d64d99926452p+9 0x1.0237f5c869e7bp+8 0x1.52f7c97c07b52p+3 0x1.196cbefdaafb8p+5 0x1.b4c7fa03aec18p+2",
        "0x1.8b7a1fadba11dp+5 -0x1.93192f1fc430fp+5 0x1.8919c8ea11cbcp+5 0x1.1ecb8c9e40a0ep+5 0x1.b6aa1f7fa341fp+2",
        "0x1.8d38e353a5d03p+9 0x1.c136711851bffp+9 0x1.2bbc5d8cf867cp+5 0x1.ca414f0830befp+4 0x1.e5660d50307acp+1",
    ],
    1: [
        "0x1.6c21d015fa8bbp+8 0x1.c82351a662f1dp+8 0x1.8f5ec87376edcp+2 0x1.3743c4a1e79cap+5 0x1.75f875dc629f1p+2",
        "0x1.02fed4d0a9866p+7 0x1.c4a11d605a995p+9 0x1.9684bb2219953p+4 0x1.6105219b1ebe9p+3 0x1.28316db41cc99p+2",
        "0x1.e8aca06f5f514p+8 0x1.db9926ab2a951p+9 0x1.19e4f138bca7ap+4 0x1.ad56668116bc8p+4 0x1.3a73cad201ad9p+3",
        "0x1.6a651cc77e0d5p+9 0x1.0e9d099a4292bp+9 0x1.175c9633e9f33p+4 0x1.8756c1aaf5428p+3 0x1.3756a92e7ce6ep+3",
        "0x1.4ec3dda345f50p+8 0x1.a848a66980d64p+9 0x1.3f9b1da63c03fp+5 0x1.04ae625c92a06p+5 0x1.282e86721e904p+3",
    ],
    2: [
        "0x1.4b4135cad1cc4p+8 0x1.43ccd39887598p+8 0x1.14ad06d2987c9p+5 0x1.e4d4ce952c1b2p+4 0x1.2cdf2985abb42p+1",
        "0x1.73775d3a8773ep+9 0x1.09b96e27e0114p+7 0x1.0bf24634671aep+5 0x1.8446e5bad0951p+5 0x1.c97201a5f3e7ep+2",
        "0x1.6ef5e5d740e0dp+9 0x1.4f4bab15b5370p+7 0x1.bff7ae24c1689p+4 0x1.68d5dbf331490p+5 0x1.feb98e83f92adp+2",
        "0x1.ba5b23cea0d85p+9 0x1.1504ea03d8b47p+8 0x1.21c0d09d1cfc2p+5 0x1.3a60e6f5d07f3p+3 0x1.f0de4cc04ae3dp+0",
        "0x1.113250ab71a8bp+8 0x1.8b8abe17ab132p+8 0x1.59b99e9d13bcap+5 0x1.0fff3f1f35d26p+5 0x1.2a2b1da4856bcp+2",
    ],
}
LINE_ROWS = {
    0: [
        "0x1.26602f4ef1806p+9 0x1.70978dd311ca2p+5 0x1.9d6c15bf6216dp+2",
        "-0x1.65cd673db384ep+4 0x1.78a0464aa191fp+5 0x1.0af74036efe04p+3",
        "0x1.abb57b9fc4904p+8 0x1.a0b9f913fc6d1p+2 0x1.e44812d178939p+2",
        "0x1.25fd3b84c4a01p+9 0x1.d5da21d25fe9dp+4 0x1.d944a2105c9ecp+1",
        "0x1.0237f5c869e7bp+8 0x1.52f7c97c07b52p+3 0x1.c24797fc44c59p+2",
    ],
    1: [
        "0x1.37d4da09f93a8p+8 0x1.80cb87f481b2cp+4 0x1.0e60db59aeac4p+3",
        "0x1.eba33a25708b2p+9 0x1.8f5ec87376edcp+2 0x1.f206076972943p+2",
        "0x1.ba1766ec95166p+9 0x1.43d596dce2f6fp+5 0x1.dd47cb228ec0fp+1",
        "0x1.dd04f3a9aededp+9 0x1.723dc92123fbfp+4 0x1.6a61645611429p+1",
        "0x1.0046f743fd97cp+9 0x1.19e4f138bca7ap+4 0x1.57785200defd3p+2",
    ],
    2: [
        "0x1.a795f6e7399e4p+8 0x1.2e48235ddcbf8p+5 0x1.5876480677c5ep+1",
        "0x1.1eebccd9e79eap+8 0x1.14ad06d2987c9p+5 0x1.83dd7210f015bp+2",
        "0x1.d009350d76314p+7 0x1.18f27064b4562p+5 0x1.338623042075fp+2",
        "0x1.afa69eeb7fefap+9 0x1.1de74107b870ep+5 0x1.21936e6f5afa8p+2",
        "0x1.51580f3054e9cp+8 0x1.bff7ae24c1689p+4 0x1.20ab165c276dap+3",
    ],
}


def _hexes(*values):
    return " ".join(float(v).hex() for v in values)


def test_draw_order_is_pinned():
    """Every drawn value, in bits, so a change of draw order or count shows."""
    for seed in range(3):
        plane = generate(GenConfig(seed=seed, n=5))
        assert [_hexes(d.rect.x, d.rect.y, d.rect.w, d.rect.l, d.v) for d in plane.dzs] == PLANE_ROWS[seed]
        line = generate_1d(GenConfig(seed=seed, n=5, dimension=Dimension.ONE_D))
        assert [_hexes(d.rect.x, d.rect.w, d.v) for d in line.dzs] == LINE_ROWS[seed]


def test_shapes_and_ranges():
    cfg = GenConfig(seed=11, n=25, p=3, m=2)
    inst = generate(cfg)
    assert len(inst.dzs) == 25
    assert inst.p == 3
    assert inst.qos == QosSet((1.0, 2.0))
    assert (inst.base.w0, inst.base.l0) == cfg.base_dims
    for d in inst.dzs:
        assert cfg.dim_range[0] <= d.rect.w <= cfg.dim_range[1]
        assert cfg.dim_range[0] <= d.rect.l <= cfg.dim_range[1]
        assert cfg.rate_range[0] <= d.v <= cfg.rate_range[1]


def test_same_seed_same_instance():
    a = generate(GenConfig(seed=5, n=12))
    b = generate(GenConfig(seed=5, n=12))
    assert a == b
    c = generate(GenConfig(seed=6, n=12))
    assert a != c


def test_growing_n_keeps_the_prefix():
    """Per-zone draws are grouped, so a longer run extends the shorter one."""
    short = generate(GenConfig(seed=3, n=5))
    long = generate(GenConfig(seed=3, n=9))
    assert long.dzs[:5] == short.dzs


def test_coordinates_are_not_clamped():
    # anchored draws are normal around a centre: with enough zones some land
    # outside the region square, and that is intended
    cfg = GenConfig(seed=0, n=400, region=100.0, r=80.0, dim_range=(1.0, 2.0),
                    base_dims=(10.0, 8.0))
    inst = generate(cfg)
    assert any(
        d.rect.x < 0 or d.rect.y < 0 or d.rect.x > 100.0 or d.rect.y > 100.0
        for d in inst.dzs
    )


def test_category_probabilities_must_sum_to_one():
    with pytest.raises(ValueError):
        GenConfig(anchor_prob=0.4, free_prob=0.3)  # 3 * 0.4 + 0.3 = 1.5
    with pytest.raises(ValueError):
        GenConfig(dim_range=(0.0, 5.0))
    with pytest.raises(ValueError):
        GenConfig(n=-1)


def test_one_d_projection():
    cfg = GenConfig(seed=2, n=8, p=3, dimension=Dimension.ONE_D)
    inst = generate_1d(cfg)
    assert inst.one_d
    assert inst.base.l0 == 0.0
    assert all(d.rect.y == 0.0 and d.rect.l == 0.0 for d in inst.dzs)
    # zone j is assigned the fixed scale j
    assert inst.qos == (QosSet((1.0,)), QosSet((2.0,)), QosSet((3.0,)))


def test_one_d_same_seed_same_instance():
    cfg = GenConfig(seed=2, n=8, p=2, dimension=Dimension.ONE_D)
    assert generate_1d(cfg) == generate_1d(cfg)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        generate(GenConfig(dimension=Dimension.ONE_D))
    with pytest.raises(ValueError):
        generate_1d(GenConfig())


def test_config_is_frozen():
    cfg = GenConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.n = 3
