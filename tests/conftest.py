"""Shared helpers: small worlds and synthetic angular supports."""

import numpy as np
import pytest

from cellpilot import (
    AoAInterval,
    ScenarioBundle,
    SystemConfig,
    build_layout,
    drop_users,
)


def small_config(L=2, K=2, M=16, **kw):
    kw.setdefault("scatter_radius", 30.0)
    kw.setdefault("exclusion_radius", 100.0)
    return SystemConfig(L=L, K=K, M=M, **kw)


def make_world(config: SystemConfig, seed: int) -> ScenarioBundle:
    rng = np.random.default_rng(seed)
    layout = build_layout(config.L, config.R)
    drop = drop_users(layout, config.K, config.exclusion_radius, rng)
    return ScenarioBundle.build(config, layout, drop)


MS = (1, 2, 3, 4, 8, 16, 64, 100)
SPACINGS = (0.1, 0.2, 0.5)
# own-BS bearings that put a support on cos = +-1 or across +-pi
EDGE_CENTERS = (0.0, np.pi, 0.05, -0.05, np.pi - 0.01, -np.pi + 0.01)


def random_world(rng, seed, L=None, K=None, M=None, spacing=None, edges=False):
    """A world of drawn size; edges=True puts own-BS supports at endfire."""
    cfg = SystemConfig(
        L=L or int(rng.integers(1, 8)), K=K or int(rng.integers(1, 6)),
        M=M or int(rng.choice(MS)),
        spacing=spacing or float(rng.choice(SPACINGS)),
        scatter_radius=float(rng.choice([30.0, 80.0])), exclusion_radius=100.0)
    world = make_world(cfg, seed)
    if edges:
        cells = np.arange(cfg.L)
        world.centers[cells, cells] = rng.choice(EDGE_CENTERS, size=(cfg.L, cfg.K))
    return world


def random_interval(rng, min_width=0.02, max_width=0.4) -> AoAInterval:
    center = rng.uniform(-np.pi, np.pi)
    half = 0.5 * rng.uniform(min_width, max_width)
    return AoAInterval(center=center, half_width=half)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
