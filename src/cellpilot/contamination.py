"""Pilot-contamination cost model based on angular overlap at the serving BS.

The interference a co-pilot user inflicts on a target user is governed by
how much the interferer's arrival directions excite the array response
over the target's own angular support. The exact criterion is an integral
of the squared response kernel; a cheap piecewise-linear envelope of that
kernel drives the assignment search.

Two kernels compute every cost: _pair_costs, one broadcasting envelope
cost that serves pair_cost (one pair) and _pairwise_costs (all pairs of
any number of drops in one pass, with pairwise_cost_matrix its one-drop
call) alike, and _copilot_costs, the sum of that matrix over co-pilot
partners behind total_costs, extended_user_costs and the batched
threshold calibration. Its partner mask, _copilot_mask, also picks the
rate benchmark's co-users.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import QUAD_POINTS, _midpoints
from .config import SystemConfig
from .scenario import AoAInterval, ScenarioBundle


def dirichlet_magnitude(x, M: int, spacing: float = 0.5):
    """|sin(M*pi*spacing*x) / sin(pi*spacing*x)| with the removable limit M.

    This is the magnitude of sum_{m=0}^{M-1} exp(2j*pi*m*spacing*x); x is a
    difference of direction cosines.
    """
    y = spacing * np.asarray(x, dtype=float)
    den = np.sin(np.pi * y)
    num = np.sin(M * np.pi * y)
    small = np.abs(den) < 1e-12
    ratio = np.abs(num) / np.where(small, 1.0, np.abs(den))
    out = np.where(small, float(M), ratio)
    return out if out.ndim else float(out)


def interference_integral(
    phi: float,
    interval: AoAInterval,
    gain: float,
    M: int,
    spacing: float = 0.5,
) -> float:
    """Mean squared response overlap toward phi over the target's support.

    (1/M) * integral p(w) * overlap(w, phi)^2 dw with uniform p, composite
    midpoint rule. Identical in exact arithmetic to a(phi)^H R a(phi) / M
    with R the quadrature covariance on the same grid.
    """
    nodes = _midpoints(interval, QUAD_POINTS)
    vals = dirichlet_magnitude(np.cos(phi) - np.cos(nodes), M, spacing) ** 2
    return float(gain * vals.sum() / (M * QUAD_POINTS))


def cosine_support(interval: AoAInterval) -> tuple[float, float]:
    """Range of direction cosines covered by an angular support.

    Returns (lo, hi), elementwise for an interval of arrays. The support is
    shorter than pi, so it contains at most one extremum of cos; endpoints
    decide otherwise.
    """
    low, high = interval.low, interval.high
    c_low, c_high = np.cos(low), np.cos(high)
    lo, hi = np.minimum(c_low, c_high), np.maximum(c_low, c_high)
    # does the support cross a peak (cos = 1 at even multiples of pi)?
    hi = np.where(np.ceil(low / (2 * np.pi)) * 2 * np.pi <= high, 1.0, hi)
    # or a trough (cos = -1 at odd multiples of pi)?
    lo = np.where(np.ceil((low - np.pi) / (2 * np.pi)) * 2 * np.pi + np.pi <= high,
                  -1.0, lo)
    return lo[()], hi[()]


def _zero_range(base, M: int, spacing: float):
    """Integers n with base + n/(M*spacing) inside [-1, 1]: (n_lo, n_hi)."""
    step = 1.0 / (M * spacing)
    return (np.ceil((-1.0 - base) / step - 1e-12),
            np.floor((1.0 - base) / step + 1e-12))


def _first_nulls(lo, hi, M: int, spacing: float):
    """First kernel nulls outside cosine supports [lo, hi]: (low, high, saturated).

    low is the null just outside the high-cosine edge (a smaller angle than
    the support), high the null just outside the low-cosine edge. When the
    nominal null falls beyond an endfire direction the bound clamps there,
    truncating that ramp at the edge of the physical cosine range.
    Saturated (the envelope cost takes its wide-band value): M < 2, or the
    kernel seeded at an edge has no null in [0, pi]. That kernel vanishes
    where cos(phi) = edge + n/(M*spacing) for an integer n, not a multiple
    of M, that keeps the cosine in [-1, 1] (_zero_range). The range always
    holds 0 and, for M >= 2, a non-multiple as soon as it holds two
    integers: the kernel has no null when the range is {0}.
    """
    saturated = np.full(np.shape(lo), M < 2)
    for edge in (lo, hi):
        n_lo, n_hi = _zero_range(np.cos(np.arccos(edge)), M, spacing)
        saturated |= n_lo == n_hi
    step = 1.0 / (M * spacing)
    low = np.arccos(np.minimum(hi + step, 1.0))
    high = np.arccos(np.maximum(lo - step, -1.0))
    return low, high, saturated


def _envelope(u, lo, hi, west, east):
    """max(t(u), t(-u)) for the trapezoid t: 1 on [lo, hi], 0 at west/east.

    t is np.interp over the knots (west, lo, hi, east) -> (0, 1, 1, 0), bit
    for bit: ramps are ((f1 - f0) / (x1 - x0)) * (u - x0) + f0 and u == east
    is 0 even when east == hi. The knots broadcast against u, and u and -u
    go through t one after the other, so a block of drops makes no
    temporary twice its size.
    """
    # a zero-width ramp divides by zero, but the selection never picks it
    with np.errstate(divide="ignore", invalid="ignore"):
        rise, fall = np.divide(1.0 - 0.0, lo - west), np.divide(0.0 - 1.0, east - hi)

        def t(u):
            return np.where(u < lo, np.where(u < west, 0.0, rise * (u - west) + 0.0),
                            np.where(u < hi, 1.0,
                                     np.where(u < east, fall * (u - hi) + 1.0, 0.0)))

        return np.maximum(t(u), t(-u))


def _pair_costs(lo, hi, root, edges, M: int, spacing: float):
    """Envelope cost of interferers with support endpoints `edges` on targets.

    Targets have cosine supports [lo, hi] and root = sqrt(target gain);
    edges is (low endpoint angles, high endpoint angles). Sum of the
    target's gain envelope at both endpoints, 2*root where saturated. The
    target arrays broadcast against each endpoint array.
    """
    low, high, saturated = _first_nulls(lo, hi, M, spacing)
    gain = _envelope(np.cos(edges), lo, hi, np.cos(high), np.cos(low))
    return root * np.where(saturated, 2.0, gain[0] + gain[1])


def pair_cost(
    target: AoAInterval,
    interferer: AoAInterval,
    target_gain: float,
    M: int,
    spacing: float = 0.5,
) -> float:
    """Envelope cost of one co-pilot interferer: both endpoint angles scored.

    Sum of the target's gain envelope at the interferer's two support
    endpoints; in [0, 2*sqrt(target_gain)]. The envelope toward angle phi
    is sqrt(target_gain) wherever |cos phi| falls on the target's cosine
    support (it is symmetric in the cosine, mirroring the support), ramps
    linearly to zero at the first kernel nulls, and is zero in the dead
    zone between the ramps; without nulls (saturated) it is
    sqrt(target_gain) everywhere. One kernel serves this and
    pairwise_cost_matrix, so the value is its matrix entry bit for bit.
    """
    lo, hi = cosine_support(target)
    return float(_pair_costs(lo, hi, np.sqrt(target_gain),
                             (interferer.low, interferer.high), M, spacing))


def pairwise_cost_matrix(bundle: ScenarioBundle) -> np.ndarray:
    """Envelope cost of every (target user, interfering user) pair.

    Entry [j, a, l, b]: cost user b of cell l would inflict on user a of
    cell j (at BS j) if they shared a pilot. Zero on the diagonal l == j.
    Assignment-independent, so one evaluation serves any pilot pattern on
    the same drop. Each off-diagonal entry is pair_cost's value; all pairs
    are computed in one array pass. This is the one-drop call of
    `_pairwise_costs`, which gives each drop of a block the same bytes.
    """
    return _pairwise_costs(bundle.config, bundle.gains, bundle.centers,
                           bundle.half_widths)


def _pairwise_costs(config: SystemConfig, gains, centers, half_widths):
    """pairwise_cost_matrix of every drop of a block, (..., L, K, L, K).

    The link arrays are `_links`' (..., L, L, K), indexed [..., BS j, cell
    l, user k]; the leading drop axes broadcast through the elementwise
    kernel, so each drop's matrix is the one it gets alone, bit for bit.
    """
    cells = np.arange(gains.shape[-2])
    # targets (j, a) at their own BS, broadcast against interferers (l, b)
    lo, hi = cosine_support(AoAInterval(centers[..., cells, cells, :],
                                        half_widths[..., cells, cells, :]))
    root = np.sqrt(gains[..., cells, cells, :])
    # both support endpoints of every interferer, as [endpoint, ..., j, 1, l, b]
    edges = np.stack([centers - half_widths, centers + half_widths])[..., None, :, :]
    C = _pair_costs(*(x[..., None, None] for x in (lo, hi, root)), edges,
                    config.M, config.spacing)
    C[..., cells, :, cells, :] = 0.0
    return C


def _copilot_mask(user_to_pilot: np.ndarray) -> np.ndarray:
    """[..., j, a, l, b]: user b of cell l != j is on user (j, a)'s pilot."""
    L = user_to_pilot.shape[-2]
    shared = (user_to_pilot[..., :, :, None, None]
              == user_to_pilot[..., None, None, :, :])
    shared &= ~np.eye(L, dtype=bool)[:, None, :, None]
    return shared


def _copilot_costs(C: np.ndarray, user_to_pilot: np.ndarray):
    """Every user's cost from the users on its pilot in the other cells.

    C (L, K, L, K) and user_to_pilot (L, K) may carry leading batch axes,
    which broadcast. Returns costs[..., j, a]: C[..., j, a, l, b] summed
    first over users b of cell l != j on user (j, a)'s pilot, then over l
    in increasing cell order (numpy sums fewer than 8 terms one by one).
    """
    return np.where(_copilot_mask(user_to_pilot), C, 0.0).sum(axis=-1).sum(axis=-1)


@dataclass
class CostTable:
    """Contamination costs of one assignment on one drop."""

    user_costs: np.ndarray  # (L, K) indexed [cell, pilot]
    cell_max: np.ndarray    # (L,)
    global_max: float
    worst_cell: int
    worst_pilot: int


def total_costs(
    bundle: ScenarioBundle,
    pilot_to_user: np.ndarray,
    pairwise: np.ndarray | None = None,
) -> CostTable:
    """Aggregate envelope costs for a pilot assignment.

    pilot_to_user is (L, K): user index holding pilot k in cell l, one
    permutation per cell. The worst (cell, pilot) is the row-major argmax,
    so ties resolve to the lowest cell index, then the lowest pilot index.
    """
    L, K = pilot_to_user.shape
    C = pairwise if pairwise is not None else pairwise_cost_matrix(bundle)
    costs = _copilot_costs(C, np.argsort(pilot_to_user, axis=1))
    user_costs = costs[np.arange(L)[:, None], pilot_to_user]
    worst_cell, worst_pilot = divmod(int(np.argmax(user_costs)), K)
    return CostTable(
        user_costs=user_costs,
        cell_max=user_costs.max(axis=1),
        global_max=float(user_costs[worst_cell, worst_pilot]),
        worst_cell=worst_cell,
        worst_pilot=worst_pilot,
    )


def extended_user_costs(
    bundle: ScenarioBundle,
    user_to_pilot: np.ndarray,
    pairwise: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Per-user envelope costs under an arbitrary (possibly enlarged) pilot map.

    user_to_pilot is (L, K): pilot id of user k in cell l, ids unrestricted.
    Returns costs indexed by user and the global maximum.
    """
    C = pairwise if pairwise is not None else pairwise_cost_matrix(bundle)
    costs = _copilot_costs(C, np.asarray(user_to_pilot))
    return costs, float(costs.max())
