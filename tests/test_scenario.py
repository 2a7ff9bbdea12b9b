"""Geometry layer: layout, user drops, path gain, angular supports."""

import numpy as np
import pytest

from cellpilot import (
    ConfigError,
    ScenarioBundle,
    SystemConfig,
    aoa_interval,
    build_layout,
    drop_users,
    fresh_world,
    hexagon_vertices,
    in_hexagon,
    large_scale,
)
from conftest import make_world, small_config


# ---------------------------------------------------------------- layout

def test_single_cell_layout():
    layout = build_layout(1, 500.0)
    assert layout.L == 1
    assert np.array_equal(layout.bs_positions, np.zeros((1, 2)))


def test_seven_cell_ring_distances():
    # all six ring neighbours sit at sqrt(3)*R from the center cell
    layout = build_layout(7, 500.0)
    d = np.hypot(*(layout.bs_positions[1:] - layout.bs_positions[0]).T)
    assert np.allclose(d, np.sqrt(3.0) * 500.0, rtol=0, atol=1e-9)
    assert d[0] == pytest.approx(866.0254037844386, abs=1e-9)


def test_layout_pairwise_separation():
    layout = build_layout(3, 500.0)
    assert np.allclose(layout.bs_positions[0], 0.0)
    for i in range(3):
        for j in range(i + 1, 3):
            d = np.hypot(*(layout.bs_positions[i] - layout.bs_positions[j]))
            assert d >= np.sqrt(3.0) * 500.0 - 1e-9


def test_layout_bounds():
    with pytest.raises(ConfigError):
        build_layout(0, 500.0)
    with pytest.raises(ConfigError):
        build_layout(8, 500.0)


def test_hexagon_membership():
    center = np.array([10.0, -5.0])
    R = 200.0
    verts = hexagon_vertices(center, R)
    assert verts.shape == (6, 2)
    # vertices sit on the boundary; pull them slightly inward
    inner = center + 0.999 * (verts - center)
    assert in_hexagon(inner, center, R).all()
    outer = center + 1.001 * (verts - center)
    assert not in_hexagon(outer, center, R).any()
    assert in_hexagon(center, center, R)


# ------------------------------------------------------------- user drops

def test_drop_users_deterministic():
    layout = build_layout(3, 500.0)
    a = drop_users(layout, 4, 50.0, np.random.default_rng(3))
    b = drop_users(layout, 4, 50.0, np.random.default_rng(3))
    assert np.array_equal(a.positions, b.positions)
    assert a.digest() == b.digest()


def test_drop_users_within_cell_and_exclusion():
    layout = build_layout(3, 500.0)
    excl = 50.0
    drop = drop_users(layout, 100, excl, np.random.default_rng(0))
    for cell in range(3):
        center = layout.bs_positions[cell]
        assert in_hexagon(drop.positions[cell], center, 500.0).all()
        d = np.hypot(*(drop.positions[cell] - center).T)
        assert (d > excl).all()


def test_drop_users_symmetric_mean():
    # with no exclusion the mean position converges to the BS
    layout = build_layout(1, 500.0)
    drop = drop_users(layout, 10000, 0.0, np.random.default_rng(1))
    mean = drop.positions[0].mean(axis=0)
    assert np.hypot(*mean) < 0.02 * 500.0


def _reference_drop(layout, K, exclusion_radius, rng, max_attempts=10000):
    """The per-draw rejection loop that drop_users batches: the oracle."""
    L = layout.L
    R = layout.R
    positions = np.zeros((L, K, 2))
    for cell in range(L):
        center = layout.bs_positions[cell]
        for k in range(K):
            for _ in range(max_attempts):
                p = center + rng.uniform(-R, R, size=2)
                if not in_hexagon(p, center, R):
                    continue
                if np.hypot(*(p - center)) <= exclusion_radius:
                    continue
                positions[cell, k] = p
                break
            else:
                raise RuntimeError(
                    f"could not place user {k} in cell {cell} after {max_attempts} draws"
                )
    return positions


# (L, K, exclusion radius): the near-hexagon disk accepts about 7% of the
# square, so a block runs short and doubles, often more than once
_DROP_SETTINGS = ((1, 1, 0.0), (3, 3, 150.0), (7, 4, 50.0), (2, 5, 430.0), (4, 2, 300.0))


def test_drop_users_matches_per_draw_loop():
    for seed in range(2000):
        L, K, excl = _DROP_SETTINGS[seed % len(_DROP_SETTINGS)]
        layout = build_layout(L, 500.0)
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = _reference_drop(layout, K, excl, ref_rng)
        got = drop_users(layout, K, excl, rng)
        assert np.array_equal(got.positions, expected), (seed, L, K, excl)
        # the stream continues where the per-draw loop leaves it
        assert rng.random() == ref_rng.random(), (seed, L, K, excl)


def test_drop_users_matches_per_draw_loop_many_users():
    layout = build_layout(2, 500.0)
    for seed in range(3):
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = _reference_drop(layout, 10000, 50.0, ref_rng)
        assert np.array_equal(drop_users(layout, 10000, 50.0, rng).positions, expected)
        assert rng.random() == ref_rng.random()


def test_drop_users_attempt_cap_matches_per_draw_loop():
    # caps of 20 and 60 also fail users whose misses span two blocks
    outcomes = set()
    for seed in range(600):
        max_attempts = (1, 2, 3, 20, 60)[seed // 5 % 5]
        L, K, excl = _DROP_SETTINGS[seed % len(_DROP_SETTINGS)]
        layout = build_layout(L, 500.0)
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        try:
            expected = _reference_drop(layout, K, excl, ref_rng, max_attempts)
        except RuntimeError as exc:
            with pytest.raises(RuntimeError) as got:
                drop_users(layout, K, excl, rng, max_attempts)
            assert str(got.value) == str(exc)
            outcomes.add("raise")
        else:
            got = drop_users(layout, K, excl, rng, max_attempts)
            assert np.array_equal(got.positions, expected)
            outcomes.add("placed")
        assert rng.random() == ref_rng.random(), seed
    assert outcomes == {"raise", "placed"}


def test_drop_users_impossible_exclusion():
    layout = build_layout(1, 500.0)
    with pytest.raises(RuntimeError):
        # exclusion disk covers the whole hexagon
        drop_users(layout, 1, 500.0, np.random.default_rng(0), max_attempts=200)


# -------------------------------------------------------------- path gain

def test_cell_edge_snr_identity():
    cfg = SystemConfig()
    D = large_scale(cfg.R, cfg)
    assert D / cfg.sigma2 == pytest.approx(cfg.cell_edge_snr, rel=1e-12)


def test_power_law_ratio():
    cfg = SystemConfig(eta=2.5)
    assert large_scale(cfg.R / 2, cfg) / large_scale(cfg.R, cfg) == \
        pytest.approx(2.0 ** 2.5, rel=1e-12)


def test_gain_at_defaults():
    # gamma 20 dB, eta 2.5, R 500, sigma2 1: D(500) = 100
    cfg = SystemConfig(gamma_snr_db=20.0, eta=2.5, R=500.0, sigma2=1.0)
    assert large_scale(500.0, cfg) == pytest.approx(100.0, rel=1e-12)


def test_gain_vectorized_and_positive_domain():
    cfg = SystemConfig()
    d = np.array([100.0, 200.0, 400.0])
    D = large_scale(d, cfg)
    assert D.shape == (3,)
    assert (np.diff(D) < 0).all()
    with pytest.raises(ValueError):
        large_scale(0.0, cfg)
    with pytest.raises(ValueError):
        large_scale(np.array([1.0, -2.0]), cfg)


# -------------------------------------------------------- angular supports

def test_aoa_due_east():
    iv = aoa_interval(np.array([100.0, 0.0]), np.zeros(2), 50.0)
    assert iv.center == 0.0
    assert iv.half_width == pytest.approx(np.arcsin(0.5), rel=1e-12)
    assert iv.half_width == pytest.approx(np.pi / 6, rel=1e-12)


def test_aoa_diagonal():
    iv = aoa_interval(np.array([100.0, 100.0]), np.zeros(2), 10.0)
    assert iv.center == pytest.approx(np.pi / 4, rel=1e-12)
    assert iv.low == pytest.approx(iv.center - iv.half_width)
    assert iv.high == pytest.approx(iv.center + iv.half_width)


def test_aoa_degenerate():
    user = np.array([30.0, 0.0])
    with pytest.raises(ValueError):
        aoa_interval(user, np.zeros(2), 50.0)  # inside the scattering ring
    iv = aoa_interval(user, np.zeros(2), 50.0, clamp=True)
    assert iv.half_width < np.pi / 2
    assert iv.half_width == pytest.approx(np.pi / 2, abs=1e-6)
    with pytest.raises(ValueError):
        aoa_interval(np.zeros(2), np.zeros(2), 50.0)


# ----------------------------------------------------------------- bundle

def test_bundle_matches_direct_recompute():
    cfg = small_config(L=2, K=2)
    world = make_world(cfg, seed=5)
    for j in range(2):
        bs = world.layout.bs_positions[j]
        for l in range(2):
            for k in range(2):
                pos = world.drop.positions[l, k]
                d = np.hypot(*(pos - bs))
                iv = aoa_interval(pos, bs, cfg.scatter_radius)
                assert world.gains[j, l, k] == pytest.approx(large_scale(d, cfg))
                assert world.centers[j, l, k] == pytest.approx(iv.center)
                assert world.half_widths[j, l, k] == pytest.approx(iv.half_width)
                got = world.interval(j, l, k)
                assert got.center == world.centers[j, l, k]
                assert got.half_width == world.half_widths[j, l, k]


def _reference_build(config, layout, drop):
    """The per-link loop that ScenarioBundle.build broadcasts: the oracle."""
    L, K = drop.shape
    gains = np.zeros((L, L, K))
    centers = np.zeros((L, L, K))
    half_widths = np.zeros((L, L, K))
    for j in range(L):
        bs = layout.bs_positions[j]
        for l in range(L):
            for k in range(K):
                iv = aoa_interval(
                    drop.positions[l, k], bs, config.scatter_radius,
                    clamp=config.clamp_aoa,
                )
                d = np.hypot(*(drop.positions[l, k] - bs))
                gains[j, l, k] = large_scale(d, config)
                centers[j, l, k] = iv.center
                half_widths[j, l, k] = iv.half_width
    return gains, centers, half_widths


def _random_drop(rng, L, K, config, inside_ring):
    layout = build_layout(L, config.R)
    drop = drop_users(layout, K, config.exclusion_radius, rng)
    if inside_ring:
        # pull some users inside their own BS's scattering ring, one of
        # them onto the ring itself (distance == radius, ratio exactly 1)
        for l, k in zip(rng.integers(0, L, size=K), rng.integers(0, K, size=K)):
            r = rng.uniform(0.05, 1.0) * config.scatter_radius
            theta = rng.uniform(-np.pi, np.pi)
            drop.positions[l, k] = layout.bs_positions[l] + r * np.array(
                [np.cos(theta), np.sin(theta)])
        drop.positions[0, 0] = layout.bs_positions[0] + [config.scatter_radius, 0.0]
    return layout, drop


def test_bundle_matches_per_link_reference():
    rng = np.random.default_rng(2024)
    saturated = 0
    for i in range(240):
        L, K = 1 + i % 7, 1 + (i // 7) % 5
        clamp = i % 3 == 0
        cfg = SystemConfig(L=L, K=K, M=16, clamp_aoa=clamp,
                           eta=rng.uniform(2.0, 4.0),
                           scatter_radius=rng.uniform(5.0, 100.0),
                           exclusion_radius=rng.uniform(100.0, 300.0))
        layout, drop = _random_drop(rng, L, K, cfg, inside_ring=clamp)
        world = ScenarioBundle.build(cfg, layout, drop)
        gains, centers, half_widths = _reference_build(cfg, layout, drop)
        assert np.array_equal(world.gains, gains)
        assert np.array_equal(world.centers, centers)
        assert np.array_equal(world.half_widths, half_widths)
        saturated += int((half_widths == np.pi / 2 - 1e-9).sum())
    assert saturated > 80


def _first_link_error(cfg, layout, drop):
    L, K = drop.shape
    for j in range(L):
        for l in range(L):
            for k in range(K):
                try:
                    aoa_interval(drop.positions[l, k], layout.bs_positions[j],
                                 cfg.scatter_radius, clamp=cfg.clamp_aoa)
                except ValueError as exc:
                    return f"user {k} of cell {l} seen from BS {j}: {exc}"
    raise AssertionError("no link raises")


@pytest.mark.parametrize("clamp", [False, True])
def test_bundle_user_on_bs_raises(clamp):
    cfg = small_config(L=3, K=2, clamp_aoa=clamp)
    layout, drop = _random_drop(np.random.default_rng(1), 3, 2, cfg, inside_ring=False)
    drop.positions[2, 1] = layout.bs_positions[1]
    drop.positions[1, 0] = layout.bs_positions[2]
    with pytest.raises(ValueError, match="coincide") as got:
        ScenarioBundle.build(cfg, layout, drop)
    # BS 1 sees user 1 of cell 2 before BS 2 sees user 0 of cell 1
    assert str(got.value) == _first_link_error(cfg, layout, drop)
    assert str(got.value).startswith("user 1 of cell 2 seen from BS 1: ")


def test_bundle_user_inside_scatter_ring_raises():
    rng = np.random.default_rng(7)
    for i in range(30):
        cfg = small_config(L=1 + i % 7, K=1 + i % 5, scatter_radius=60.0)
        layout, drop = _random_drop(rng, cfg.L, cfg.K, cfg, inside_ring=True)
        with pytest.raises(ValueError, match="scatter radius") as got:
            ScenarioBundle.build(cfg, layout, drop)
        assert str(got.value) == _first_link_error(cfg, layout, drop)


def test_bundle_shape_mismatch():
    cfg = small_config(L=2, K=2)
    layout = build_layout(3, cfg.R)
    drop = drop_users(layout, 2, cfg.exclusion_radius, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        ScenarioBundle.build(cfg, layout, drop)


def test_fresh_world_deterministic():
    cfg = small_config()
    a = fresh_world(cfg, np.random.default_rng(9))
    b = fresh_world(cfg, np.random.default_rng(9))
    assert a.digest() == b.digest()
    assert np.array_equal(a.gains, b.gains)
