"""Cell geometry: hexagonal layout, user drops, path gain, angular supports."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, SystemConfig

# Bearings from a cell center to its six neighbours, radians.
_NEIGHBOR_BEARINGS = np.deg2rad(30.0 + 60.0 * np.arange(6))

# Unit normals of the hexagon's three pairs of opposite sides, for in_hexagon.
_HEX_AXES = tuple(np.array([np.cos(t), np.sin(t)]) for t in _NEIGHBOR_BEARINGS[:3])


@dataclass
class CellLayout:
    """Base-station positions for a cluster of hexagonal cells."""

    bs_positions: np.ndarray  # (L, 2)
    R: float

    @property
    def L(self) -> int:
        return self.bs_positions.shape[0]


@dataclass
class UserDrop:
    """User positions, one row of K users per cell."""

    positions: np.ndarray  # (L, K, 2)

    @property
    def shape(self):
        return self.positions.shape[:2]

    def digest(self) -> str:
        return hashlib.sha1(np.ascontiguousarray(self.positions).tobytes()).hexdigest()


@dataclass
class AoAInterval:
    """Angular support [low, high] of the rays from a BS to one user's scatterers."""

    center: float      # bearing BS -> user, radians in (-pi, pi]
    half_width: float  # arcsin(scatter_radius / distance), in (0, pi/2)

    @property
    def low(self) -> float:
        return self.center - self.half_width

    @property
    def high(self) -> float:
        return self.center + self.half_width


def build_layout(L: int, R: float) -> CellLayout:
    """Hexagonal cluster: cell 0 at the origin, others on the first ring.

    Neighbouring BSs sit at distance sqrt(3)*R at bearings 30+60k degrees.
    Only clusters up to the full 7-cell pattern are built in; larger
    layouts must be constructed explicitly by the caller.
    """
    if L < 1:
        raise ConfigError("L must be >= 1")
    if L > 7:
        raise ConfigError(
            "built-in hexagonal layout supports at most 7 cells; "
            "construct CellLayout directly for larger clusters"
        )
    pos = np.zeros((L, 2))
    ring = np.sqrt(3.0) * R
    for i in range(1, L):
        theta = _NEIGHBOR_BEARINGS[i - 1]
        pos[i] = ring * np.array([np.cos(theta), np.sin(theta)])
    return CellLayout(bs_positions=pos, R=R)


def in_hexagon(points: np.ndarray, center: np.ndarray, R: float) -> np.ndarray:
    """Membership test for the hexagon with apothem sqrt(3)/2*R toward 30+60k deg."""
    rel = np.atleast_2d(points) - center
    apothem = np.sqrt(3.0) / 2.0 * R
    ok = np.ones(rel.shape[0], dtype=bool)
    for axis in _HEX_AXES:
        ok &= np.abs(rel @ axis) <= apothem + 1e-12
    return ok if points.ndim > 1 else ok[0]


def drop_users(
    layout: CellLayout,
    K: int,
    exclusion_radius: float,
    rng: np.random.Generator,
    max_attempts: int = 10000,
) -> UserDrop:
    """Drop K users uniformly in each cell, outside the exclusion disk.

    Rejection sampling from the bounding square of each hexagon, cell by
    cell and user by user: each user takes `rng.uniform(-R, R, size=2)`
    draws until one lands in the hexagon and outside the exclusion disk,
    and a user that meets max_attempts consecutive rejections raises
    ConfigError (only possible with an exclusion disk nearly as large as
    the cell).

    The candidates are drawn and tested in blocks: the generator's state is
    saved, a block is drawn and tested in one batch, then the state is
    restored and exactly the candidates that the per-draw loop consumes are
    drawn again. So the positions and the generator's state afterwards are
    those of the per-draw loop. A block starts at 2K + 8 candidates (the
    hexagon covers 65% of its bounding square) and doubles on a shortfall.
    """
    L = layout.L
    R = layout.R
    positions = np.zeros((L, K, 2))
    for cell in range(L):
        center = layout.bs_positions[cell]
        placed = 0
        misses = 0  # rejections of the user being placed, from earlier blocks
        n = 2 * K + 8
        while placed < K:
            state = rng.bit_generator.state
            p = center + rng.uniform(-R, R, size=(n, 2))
            rel = p - center
            ok = in_hexagon(p, center, R) & (np.hypot(rel[:, 0], rel[:, 1]) > exclusion_radius)
            hits = np.flatnonzero(ok)[:K - placed]
            # first block index of each user's draws, and its rejections in
            # this block; the last user is still unplaced unless all K are in
            starts = np.append(-misses, hits + 1)
            rejects = np.append(hits, n) - starts
            done = placed + hits.size == K
            failed = np.flatnonzero((rejects[:-1] if done else rejects) >= max_attempts)
            if failed.size:
                used = max(starts[failed[0]] + max_attempts, 0)
            else:
                used = hits[-1] + 1 if done else n
            if used < n:
                rng.bit_generator.state = state
                rng.uniform(-R, R, size=(used, 2))
            if failed.size:
                raise ConfigError(
                    f"could not place user {placed + failed[0]} in cell {cell} "
                    f"after {max_attempts} draws"
                )
            positions[cell, placed:placed + hits.size] = p[hits]
            placed += hits.size
            misses = rejects[-1]
            n *= 2
    return UserDrop(positions=positions)


def large_scale(distance: float | np.ndarray, config: SystemConfig):
    """Distance-based channel gain, calibrated to the configured cell-edge SNR.

    The gain constant is chosen so that a user at distance R sees
    gain/noise equal to the linear cell-edge SNR:
        c_db = gamma_snr_db + 10*eta*log10(R) + 10*log10(sigma2)
        D(d) = 10^(c_db/10) * d^-eta
    """
    distance = np.asarray(distance, dtype=float)
    if np.any(distance <= 0):
        raise ValueError("distance must be positive")
    c_db = config.gamma_snr_db + 10.0 * config.eta * np.log10(config.R) \
        + 10.0 * np.log10(config.sigma2)
    out = 10.0 ** (c_db / 10.0) * distance ** (-config.eta)
    return out if out.ndim else float(out)


def aoa_interval(z_user: np.ndarray, z_bs: np.ndarray, scatter_radius: float) -> AoAInterval:
    """Angular support of a user's scattering ring as seen from a BS.

    Bearing comes from atan2 (quadrant aware); the half-width subtends the
    scattering ring: arcsin(scatter_radius / distance). A BS on or inside
    the ring has no well-defined support: ValueError.
    """
    delta = np.asarray(z_user, dtype=float) - np.asarray(z_bs, dtype=float)
    dist = float(np.hypot(delta[0], delta[1]))
    if dist <= 0:
        raise ValueError("user and BS positions coincide")
    if scatter_radius >= dist:
        raise ValueError(
            f"scatter radius {scatter_radius} >= distance {dist:.3f}; "
            "angular support undefined")
    return AoAInterval(center=float(np.arctan2(delta[1], delta[0])),
                       half_width=float(np.arcsin(scatter_radius / dist)))


@dataclass
class ScenarioBundle:
    """Everything the cost model needs about one drop.

    Arrays are indexed [observing BS j, user cell l, user k]: the gain and
    angular support of user (l, k)'s rays at BS j.
    """

    config: SystemConfig
    layout: CellLayout
    drop: UserDrop
    gains: np.ndarray        # (L, L, K) large-scale gain D
    centers: np.ndarray      # (L, L, K) bearing BS -> user
    half_widths: np.ndarray  # (L, L, K)

    @classmethod
    def build(cls, config: SystemConfig, layout: CellLayout, drop: UserDrop) -> "ScenarioBundle":
        """Gains and angular supports of every link of one drop.

        One broadcast over [BS j, cell l, user k] gives, link for link, the
        values of `large_scale` and `aoa_interval`. Raises aoa_interval's
        ValueError, naming the link, for the first link in (j, l, k) order
        whose BS sits on the user or inside its scattering ring. SystemConfig
        rules that out for every link of a `drop_users` drop: a user is
        farther than exclusion_radius from its own BS, and no nearer to any
        other, since each hexagon is its BS's Voronoi cell.
        """
        L, K = drop.shape
        if L != layout.L:
            raise ConfigError("drop and layout disagree on the number of cells")
        if L != config.L or K != config.K:
            raise ConfigError(
                f"drop shape {L}x{K} disagrees with the configured scenario "
                f"({config.L} cells x {config.K} users)")
        # delta[j, l, k]: user (l, k) seen from BS j
        delta = drop.positions[None] - layout.bs_positions[:, None, None]
        dist = np.hypot(delta[..., 0], delta[..., 1])
        bad = config.scatter_radius >= dist
        if bad.any():
            # the scalar oracle words the error of the first offending link
            j, l, k = np.argwhere(bad)[0]
            try:
                aoa_interval(drop.positions[l, k], layout.bs_positions[j],
                             config.scatter_radius)
            except ValueError as exc:
                raise ValueError(f"user {k} of cell {l} seen from BS {j}: {exc}") from None
        centers = np.arctan2(delta[..., 1], delta[..., 0])
        gains = large_scale(dist, config)
        return cls(config=config, layout=layout, drop=drop, gains=gains,
                   centers=centers, half_widths=np.arcsin(config.scatter_radius / dist))

    def interval(self, j: int, l: int, k: int) -> AoAInterval:
        return AoAInterval(center=self.centers[j, l, k],
                           half_width=self.half_widths[j, l, k])

    def digest(self) -> str:
        return self.drop.digest()


def fresh_world(config: SystemConfig, rng: np.random.Generator,
                layout: CellLayout | None = None) -> ScenarioBundle:
    """Convenience: drop users with rng and assemble the bundle."""
    layout = layout or build_layout(config.L, config.R)
    drop = drop_users(layout, config.K, config.exclusion_radius, rng)
    return ScenarioBundle.build(config, layout, drop)
