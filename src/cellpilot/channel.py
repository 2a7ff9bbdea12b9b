"""Uplink channel model: ULA response, angular covariance, multipath draws."""

from __future__ import annotations

import numpy as np

from .scenario import AoAInterval


def steering(omega, M: int, spacing: float = 0.5) -> np.ndarray:
    """ULA response for arrival angle omega.

    Entry m (m = 0..M-1) is exp(-2j*pi*m*spacing*cos(omega)), spacing in
    wavelengths. Accepts scalar or array omega; the antenna axis is last.
    """
    omega = np.asarray(omega, dtype=float)
    m = np.arange(M)
    phase = -2j * np.pi * spacing * np.multiply.outer(np.cos(omega), m)
    return np.exp(phase)


def _midpoints(interval: AoAInterval, n: int) -> np.ndarray:
    """Midpoint grid of n nodes over the angular support."""
    edges = np.linspace(interval.low, interval.high, n + 1)
    return 0.5 * (edges[:-1] + edges[1:])


def covariance(
    interval: AoAInterval,
    gain: float,
    M: int,
    spacing: float = 0.5,
    quad_points: int = 512,
) -> np.ndarray:
    """Spatial covariance of a channel with uniform AoA density on the support.

    R = gain * integral p(w) a(w) a(w)^H dw, evaluated with the composite
    midpoint rule and symmetrized to be exactly Hermitian. trace(R) equals
    gain * M by construction. A zero-width interval degenerates to the
    rank-1 outer product gain * a a^H.
    """
    if interval.half_width <= 0:
        a = steering(interval.center, M, spacing)
        return gain * np.outer(a, a.conj())
    A = steering(_midpoints(interval, quad_points), M, spacing)  # (n, M)
    # uniform density 1/(2*half_width) times node weight gives 1/n per node
    R = gain * (A.T @ A.conj()) / quad_points
    return 0.5 * (R + R.conj().T)


def realize_channel(
    interval: AoAInterval,
    gain: float,
    P: int,
    M: int,
    rng: np.random.Generator,
    spacing: float = 0.5,
    path_gain: str = "phase",
) -> np.ndarray:
    """One multipath channel draw: sqrt(gain/P) * sum_p a(w_p) * alpha_p.

    Path angles are uniform on the support. Amplitudes are unit-modulus
    random phases by default, or standard complex normal with
    path_gain="complex_normal"; both have unit second moment so the
    ensemble covariance matches covariance().

    Draw order (fixed for reproducibility): P angles, then P amplitudes.
    """
    omegas = rng.uniform(interval.low, interval.high, size=P)
    if path_gain == "phase":
        alphas = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=P))
    elif path_gain == "complex_normal":
        re_im = rng.standard_normal((2, P))
        alphas = (re_im[0] + 1j * re_im[1]) / np.sqrt(2.0)
    else:
        raise ValueError(f"unknown path_gain mode {path_gain!r}")
    A = steering(omegas, M, spacing)          # (P, M)
    return np.sqrt(gain / P) * (alphas @ A)
