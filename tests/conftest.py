"""Shared helpers: small worlds, synthetic angular supports, BLAS runs."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cellpilot
from cellpilot import AoAInterval, ScenarioBundle, SystemConfig, fresh_world
from cellpilot.config import _openblas_thread_fns


def small_config(L=2, K=2, M=16, **kw):
    kw.setdefault("scatter_radius", 30.0)
    kw.setdefault("exclusion_radius", 100.0)
    return SystemConfig(L=L, K=K, M=M, **kw)


def make_world(config: SystemConfig, seed: int) -> ScenarioBundle:
    return fresh_world(config, np.random.default_rng(seed))


def ref_kernel_zeros(omega, M, spacing):
    """All angles in [0, pi] where the overlap kernel seeded at omega
    vanishes, sorted: cos(phi) = cos(omega) + n/(M*spacing) for integer n
    not divisible by M, with the cosine inside [-1, 1]."""
    step = 1.0 / (M * spacing)
    base = np.cos(omega)
    n_lo = int(np.ceil((-1.0 - base) / step - 1e-12))
    n_hi = int(np.floor((1.0 - base) / step + 1e-12))
    ns = np.array([n for n in range(n_lo, n_hi + 1) if n % M != 0], dtype=float)
    if ns.size == 0:
        return np.empty(0)
    return np.sort(np.arccos(np.clip(base + ns * step, -1.0, 1.0)))


def outputs_per_blas_threads(script: str) -> tuple:
    """stdout of `script` in a fresh interpreter with OpenBLAS at its default
    thread count and at one thread. The script finds cellpilot and this
    directory in sys.argv[1:]."""
    paths = [str(Path(cellpilot.__file__).parents[1]), str(Path(__file__).parent)]
    out = []
    for threads in (None, "1"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out.append(subprocess.run(
            [sys.executable, "-c", script, *paths], env=env,
            capture_output=True, text=True, check=True, timeout=300).stdout)
    return tuple(out)


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees allocated during fn(), after one
    untraced call, so that lazy imports and caches are not counted."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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


@pytest.fixture
def two_blas_threads():
    """OpenBLAS at two threads for the test; yields its count getter."""
    fns = _openblas_thread_fns()
    if fns is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    get, set_ = fns
    before = get()
    set_(2)
    yield get
    set_(before)
