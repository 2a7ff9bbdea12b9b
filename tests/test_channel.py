"""Array response, angular covariance, and multipath channel draws."""

import numpy as np
import pytest

from cellpilot import AoAInterval, covariance, realize_channel, steering
from cellpilot.channel import _midpoints
from conftest import random_interval


# --------------------------------------------------------------- steering

def test_steering_broadside_all_ones():
    for M in (1, 4, 33):
        a = steering(np.pi / 2, M)
        assert np.allclose(a, np.ones(M), atol=1e-12)


def test_steering_endfire_two_element():
    a = steering(0.0, 2, spacing=0.5)
    assert np.allclose(a, [1.0, -1.0], atol=1e-12)


def test_steering_norm_is_antenna_count(rng):
    for _ in range(50):
        M = int(rng.integers(1, 129))
        omega = rng.uniform(-np.pi, np.pi)
        a = steering(omega, M, spacing=rng.uniform(0.1, 1.0))
        assert np.vdot(a, a).real == pytest.approx(M, rel=1e-12)
        assert np.allclose(np.abs(a), 1.0)


def test_steering_array_input():
    omegas = np.linspace(0, np.pi, 7)
    A = steering(omegas, 16)
    assert A.shape == (7, 16)
    for i, w in enumerate(omegas):
        assert np.array_equal(A[i], steering(w, 16))


def test_midpoints_batched_equal_scalar(rng):
    # one array call over 50 supports gives each scalar call's grid exactly
    ivs = [random_interval(rng) for _ in range(50)]
    batch = AoAInterval(center=np.array([iv.center for iv in ivs]).reshape(5, 10),
                        half_width=np.array([iv.half_width for iv in ivs]).reshape(5, 10))
    nodes = _midpoints(batch, 512)
    assert nodes.shape == (5, 10, 512)
    for i, iv in enumerate(ivs):
        assert np.array_equal(nodes[i // 10, i % 10], _midpoints(iv, 512))


# ------------------------------------------------------------- covariance

def test_covariance_zero_width_rank_one():
    iv = AoAInterval(center=0.7, half_width=0.0)
    D = 3.5
    R = covariance(iv, D, M=12)
    a = steering(0.7, 12)
    assert np.allclose(R, D * np.outer(a, a.conj()), atol=1e-12)
    assert np.linalg.matrix_rank(R, tol=1e-8) == 1


def test_covariance_trace_hermitian_psd(rng):
    for _ in range(25):
        iv = random_interval(rng)
        D = rng.uniform(0.1, 50.0)
        M = int(rng.integers(2, 65))
        R = covariance(iv, D, M)
        assert np.trace(R).real == pytest.approx(D * M, rel=1e-12)
        assert np.allclose(R, R.conj().T, atol=1e-12)
        w = np.linalg.eigvalsh(R)
        assert w.min() >= -1e-9 * D * M


def _sample_covariance(iv, D, P, M, n, seed):
    rng = np.random.default_rng(seed)
    acc = np.zeros((M, M), dtype=complex)
    for _ in range(n):
        g = realize_channel(iv, D, P, M, rng)
        acc += np.outer(g, g.conj())
    return acc / n


def test_covariance_matches_sample_covariance():
    # quadrature covariance against 1e5 finite-path channel draws
    iv = AoAInterval(center=np.pi / 2, half_width=np.pi / 6)  # [pi/3, 2pi/3]
    R = covariance(iv, 1.0, M=8)
    C = _sample_covariance(iv, 1.0, P=50, M=8, n=100000, seed=11)
    err = np.linalg.norm(C - R) / np.linalg.norm(R)
    assert err < 0.02


def test_realize_channel_single_path():
    iv = AoAInterval(center=0.3, half_width=0.05)
    D, M = 4.0, 6
    rng = np.random.default_rng(42)
    g = realize_channel(iv, D, P=1, M=M, rng=rng)
    # replay the generator's draw order: one angle, then one phase
    rng2 = np.random.default_rng(42)
    omega = rng2.uniform(iv.low, iv.high, size=1)[0]
    alpha = np.exp(2j * np.pi * rng2.uniform(0.0, 1.0, size=1)[0])
    assert np.allclose(g, np.sqrt(D) * alpha * steering(omega, M), atol=1e-12)


def test_realize_channel_zero_mean_and_power():
    iv = AoAInterval(center=-1.2, half_width=0.2)
    D, M, n = 2.0, 8, 10000
    rng = np.random.default_rng(7)
    G = np.stack([realize_channel(iv, D, 200, M, rng) for _ in range(n)])
    # entrywise mean consistent with zero at the 3-sigma level
    assert (np.abs(G.mean(axis=0)) < 3.0 * np.sqrt(D / n)).all()
    assert (np.abs(G) ** 2).sum(axis=1).mean() == pytest.approx(D * M, rel=0.05)
    C = np.einsum("ni,nj->ij", G, G.conj()) / n
    R = covariance(iv, D, M)
    assert np.linalg.norm(C - R) / np.linalg.norm(R) < 0.05


def test_realize_channel_complex_normal_mode():
    iv = AoAInterval(center=0.4, half_width=0.1)
    rng = np.random.default_rng(3)
    G = np.stack([realize_channel(iv, 1.0, 50, 4, rng,
                                  path_gain="complex_normal")
                  for _ in range(4000)])
    assert (np.abs(G) ** 2).sum(axis=1).mean() == pytest.approx(4.0, rel=0.1)
    with pytest.raises(ValueError):
        realize_channel(iv, 1.0, 50, 4, rng, path_gain="bogus")


def test_realize_channel_deterministic():
    iv = AoAInterval(center=0.0, half_width=0.3)
    a = realize_channel(iv, 1.0, 20, 8, np.random.default_rng(5))
    b = realize_channel(iv, 1.0, 20, 8, np.random.default_rng(5))
    assert np.array_equal(a, b)
