"""ULA response and the angular-covariance oracle for rate._draw_channels."""

from __future__ import annotations

import numpy as np

from .scenario import AoAInterval

# Midpoint nodes per angular support, shared by every AoA integral:
# covariance, interference_integral and the rate benchmark's filters.
QUAD_POINTS = 512


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
    """Midpoint grid of n nodes over each angular support, on a last axis."""
    edges = np.linspace(interval.low, interval.high, n + 1, axis=-1)
    return 0.5 * (edges[..., :-1] + edges[..., 1:])


def covariance(
    interval: AoAInterval,
    gain: float,
    M: int,
    spacing: float = 0.5,
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
    A = steering(_midpoints(interval, QUAD_POINTS), M, spacing)  # (n, M)
    # uniform density 1/(2*half_width) times node weight gives 1/n per node
    R = gain * (A.T @ A.conj()) / QUAD_POINTS
    return 0.5 * (R + R.conj().T)

