"""Array response and angular covariance."""

import numpy as np
import pytest

from cellpilot import AoAInterval, covariance, steering
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
