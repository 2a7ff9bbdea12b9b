"""Pilot-contamination cost model based on angular overlap at the serving BS.

The interference a co-pilot user inflicts on a target user is governed by
how much the interferer's arrival directions excite the array response
over the target's own angular support. The exact criterion is an integral
of the squared response kernel; a cheap piecewise-linear envelope of that
kernel drives the assignment search.

Two kernels compute every cost: _envelope, one broadcasting trapezoid
behind approx_gain and pairwise_cost_matrix (all pairs in one pass), and
_copilot_costs, the sum of that matrix over co-pilot partners behind
total_costs, extended_user_costs and the batched threshold calibration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import AoAInterval, ScenarioBundle


class NullBoundsError(ValueError):
    """No response null brackets the support; the envelope cost saturates."""


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


def response_overlap(omega, phi, gain: float, M: int, spacing: float = 0.5):
    """Coherent array-response overlap between arrival angles omega and phi.

    sqrt(gain) * |sum_m exp(2j*pi*m*spacing*(cos phi - cos omega))|; peaks at
    sqrt(gain)*M when the direction cosines coincide.
    """
    x = np.cos(np.asarray(phi, dtype=float)) - np.cos(np.asarray(omega, dtype=float))
    return np.sqrt(gain) * dirichlet_magnitude(x, M, spacing)


def interference_integral(
    phi: float,
    interval: AoAInterval,
    gain: float,
    M: int,
    spacing: float = 0.5,
    quad_points: int = 512,
) -> float:
    """Mean squared response overlap toward phi over the target's support.

    (1/M) * integral p(w) * overlap(w, phi)^2 dw with uniform p, composite
    midpoint rule. Identical in exact arithmetic to a(phi)^H R a(phi) / M
    with R the quadrature covariance on the same grid.
    """
    if interval.half_width <= 0:
        return float(gain * dirichlet_magnitude(
            np.cos(phi) - np.cos(interval.center), M, spacing) ** 2 / M)
    edges = np.linspace(interval.low, interval.high, quad_points + 1)
    nodes = 0.5 * (edges[:-1] + edges[1:])
    vals = dirichlet_magnitude(np.cos(phi) - np.cos(nodes), M, spacing) ** 2
    return float(gain * vals.sum() / (M * quad_points))


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


def kernel_zeros(omega: float, M: int, spacing: float = 0.5) -> np.ndarray:
    """All angles in [0, pi] where the overlap kernel seeded at omega vanishes.

    The kernel is zero iff cos(phi) = cos(omega) + n/(M*spacing) for integer
    n not divisible by M, with the cosine inside [-1, 1]. Returned sorted
    ascending.
    """
    step = 1.0 / (M * spacing)
    base = np.cos(omega)
    n_lo, n_hi = map(int, _zero_range(base, M, spacing))
    ns = np.array([n for n in range(n_lo, n_hi + 1) if n % M != 0], dtype=float)
    if ns.size == 0:
        return np.empty(0)
    cosines = np.clip(base + ns * step, -1.0, 1.0)
    return np.sort(np.arccos(cosines))


@dataclass
class NullBounds:
    """First response nulls bracketing a target's cosine support.

    low is the null just outside the high-cosine edge (a smaller angle than
    the support), high the null just outside the low-cosine edge. When the
    nominal null falls beyond an endfire direction the bound clamps there,
    truncating that ramp at the edge of the physical cosine range.
    """

    low: float   # radians; cos(low) = min(support_hi + 1/(M*spacing), 1)
    high: float  # radians; cos(high) = max(support_lo - 1/(M*spacing), -1)


def first_null_bounds(interval: AoAInterval, M: int, spacing: float = 0.5) -> NullBounds:
    """Nearest kernel nulls outside the support's cosine range.

    Bounds clamp to the endfire cosines when the first null would land
    outside [-1, 1]. Raises NullBoundsError only when an edge-seeded
    kernel has no zeros at all (M*spacing too small to form any null);
    callers should then fall back to the saturated wide-band cost.
    """
    low, high, saturated = _first_nulls(*cosine_support(interval), M, spacing)
    if saturated:
        raise NullBoundsError(
            "an edge-seeded kernel has no zeros (M < 2 or M*spacing too "
            "small); envelope cost saturates to its wide-band value"
        )
    return NullBounds(low=float(low), high=float(high))


def _first_nulls(lo, hi, M: int, spacing: float):
    """first_null_bounds of cosine supports [lo, hi]: (low, high, saturated).

    Saturated: M < 2, or kernel_zeros is empty at an edge. Its integer
    range always holds 0 (a multiple of M) and, for M >= 2, a non-multiple
    as soon as it holds two integers: it is empty when the range is {0}.
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
    is 0 even when east == hi. The knots broadcast against u.
    """
    u = np.stack([u, -u])
    # a zero-width ramp divides by zero, but the selection never picks it
    with np.errstate(divide="ignore", invalid="ignore"):
        rise = np.divide(1.0 - 0.0, lo - west) * (u - west) + 0.0
        fall = np.divide(0.0 - 1.0, east - hi) * (u - hi) + 1.0
    t = np.where(u < lo, np.where(u < west, 0.0, rise),
                 np.where(u < hi, 1.0, np.where(u < east, fall, 0.0)))
    return np.maximum(t[0], t[1])


def approx_gain(
    phi,
    target: AoAInterval,
    target_gain: float,
    nulls: NullBounds | None,
):
    """Piecewise-linear envelope of the normalized overlap toward angle phi.

    Value sqrt(target_gain) wherever |cos phi| falls on the target's cosine
    support (the template is symmetric in the cosine, mirroring the
    support), ramping linearly to zero at the first kernel nulls, zero in
    the dead zone between the ramps. nulls=None selects the saturated
    wide-band template, sqrt(target_gain) everywhere. The template is
    _envelope, which pairwise_cost_matrix evaluates for every pair at once.
    """
    u = np.cos(np.asarray(phi, dtype=float))
    root = np.sqrt(target_gain)
    if nulls is None:
        return np.broadcast_to(root, u.shape).copy() if u.ndim else root
    lo, hi = cosine_support(target)
    out = root * _envelope(u, lo, hi, np.cos(nulls.high), np.cos(nulls.low))
    return out if out.ndim else float(out)


def pair_cost(
    target: AoAInterval,
    interferer: AoAInterval,
    target_gain: float,
    M: int,
    spacing: float = 0.5,
) -> float:
    """Envelope cost of one co-pilot interferer: both endpoint angles scored.

    Sum of the target's gain envelope at the interferer's two support
    endpoints; in [0, 2*sqrt(target_gain)].
    """
    try:
        nulls = first_null_bounds(target, M, spacing)
    except NullBoundsError:
        nulls = None
    return float(approx_gain(interferer.low, target, target_gain, nulls)
                 + approx_gain(interferer.high, target, target_gain, nulls))


def pairwise_cost_matrix(bundle: ScenarioBundle) -> np.ndarray:
    """Envelope cost of every (target user, interfering user) pair.

    Entry [j, a, l, b]: cost user b of cell l would inflict on user a of
    cell j (at BS j) if they shared a pilot. Zero on the diagonal l == j.
    Assignment-independent, so one evaluation serves any pilot pattern on
    the same drop. Each off-diagonal entry is pair_cost's value, up to
    rounding; all pairs are computed in one array pass.
    """
    cells = np.arange(bundle.drop.shape[0])
    # targets (j, a) at their own BS, broadcast against interferers (l, b)
    lo, hi = cosine_support(AoAInterval(bundle.centers[cells, cells],
                                        bundle.half_widths[cells, cells]))
    low, high, saturated = _first_nulls(lo, hi, bundle.config.M,
                                        bundle.config.spacing)
    knots = [x[:, :, None, None] for x in (lo, hi, np.cos(high), np.cos(low))]
    # both support endpoints of every interferer, as [endpoint, j, 1, l, b]
    edges = [bundle.centers - bundle.half_widths,
             bundle.centers + bundle.half_widths]
    gain = _envelope(np.cos(edges)[:, :, None], *knots)
    root = np.sqrt(bundle.gains[cells, cells])[:, :, None, None]
    C = root * np.where(saturated[:, :, None, None], 2.0, gain[0] + gain[1])
    C[cells, :, cells, :] = 0.0
    return C


def _copilot_costs(C: np.ndarray, user_to_pilot: np.ndarray):
    """Every user's cost from the users on its pilot in the other cells.

    C (L, K, L, K) and user_to_pilot (L, K) may carry leading batch axes,
    which broadcast. Returns (split, costs): split[..., j, a, l] sums
    C[..., j, a, l, b] over users b of cell l != j on user (j, a)'s pilot;
    costs[..., j, a] adds split over l in increasing cell order (numpy sums
    fewer than 8 terms one by one).
    """
    L = user_to_pilot.shape[-2]
    shared = (user_to_pilot[..., :, :, None, None]
              == user_to_pilot[..., None, None, :, :])
    shared &= ~np.eye(L, dtype=bool)[:, None, :, None]
    split = np.where(shared, C, 0.0).sum(axis=-1)
    return split, split.sum(axis=-1)


@dataclass
class CostTable:
    """Contamination costs of one assignment on one drop."""

    user_costs: np.ndarray  # (L, K) indexed [cell, pilot]
    pair_costs: np.ndarray  # (L, K, L): contribution of each interfering cell
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
    split, costs = _copilot_costs(C, np.argsort(pilot_to_user, axis=1))
    cells = np.arange(L)[:, None]
    user_costs = costs[cells, pilot_to_user]
    worst_cell, worst_pilot = divmod(int(np.argmax(user_costs)), K)
    return CostTable(
        user_costs=user_costs,
        pair_costs=split[cells, pilot_to_user],
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
    _, costs = _copilot_costs(C, np.asarray(user_to_pilot))
    return costs, float(costs.max())
