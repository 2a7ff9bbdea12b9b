"""Cell geometry: hexagonal layout, user drops, path gain, angular supports."""

from __future__ import annotations

import bisect
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
    """Membership test for the hexagon with apothem sqrt(3)/2*R toward 30+60k deg.

    Points of any shape (..., 2), against a center that broadcasts with them
    (e.g. (L, n, 2) and (L, 1, 2)); returns bools of the leading shape.
    """
    rel = np.asarray(points) - center
    apothem = np.sqrt(3.0) / 2.0 * R
    ok = np.ones(rel.shape[:-1], dtype=bool)
    for axis in _HEX_AXES:
        ok &= np.abs(rel @ axis) <= apothem + 1e-12
    return ok


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

    This is the one-drop call of `_draw_drops`, which scans the draws of
    any number of successive drops as one block (WorldStream draws its
    "positions" worlds in blocks through it): the positions, and the
    generator's state afterwards, are those of the per-draw loop. A call
    that raises draws nothing.
    """
    return UserDrop(_draw_drops(layout, K, exclusion_radius, rng, 1, max_attempts)[0])


def _draw_drops(layout: CellLayout, K: int, exclusion_radius: float,
                rng: np.random.Generator, count: int, max_attempts: int = 10000):
    """The user positions of `count` successive drop_users calls, (count, L, K, 2).

    With the generator's state saved, a block of draws is offset by every
    BS and tested against every cell at once; each cell's hits are found
    once, and cell l of drop d takes the first K hits of its row after the
    previous cell's last user (a bisect into the row). Then the state is
    restored and exactly the draws that the per-draw loop consumes are
    drawn again, so the positions, and the generator's state afterwards,
    are those of the per-draw loop. A block starts at 2 count L K + 8
    draws (the hexagon covers 65% of its bounding square); one short of
    users doubles and the whole block is redrawn. A drop that fails raises
    the per-draw loop's ConfigError, and the call draws nothing.
    """
    L, R = layout.L, layout.R
    centers = layout.bs_positions[:, None]
    users = count * L * K
    n = 2 * users + 8
    while True:
        state = rng.bit_generator.state
        p = centers + rng.uniform(-R, R, size=(n, 2))
        rel = p - centers
        ok = in_hexagon(p, centers, R) & (np.hypot(rel[..., 0], rel[..., 1]) > exclusion_radius)
        rows = [np.flatnonzero(row).tolist() for row in ok]
        hits = []  # block index of each placed user's draw, drop by drop, cell by cell
        for row in rows * count:
            i = bisect.bisect_left(row, hits[-1] + 1 if hits else 0)
            found = row[i:i + K]
            hits += found
            if len(found) < K:
                break
        # user u draws from ends[u] + 1 on; each user's rejections, where
        # the first unplaced one rejects to the end of the block
        ends = np.array([-1] + hits + [n])[:users + 1]
        rejects = ends[1:] - ends[:-1] - 1
        failed = np.flatnonzero(rejects >= max_attempts)
        rng.bit_generator.state = state
        if failed.size:
            user = failed[0] % (L * K)
            raise ConfigError(f"could not place user {user % K} in cell {user // K} "
                              f"after {max_attempts} draws")
        if len(hits) == users:
            break
        n *= 2
    rng.uniform(-R, R, size=(ends[-1] + 1, 2))
    cells = np.tile(np.arange(L).repeat(K), count)
    return p[cells, hits].reshape(count, L, K, 2)


def large_scale(distance: float | np.ndarray, config: SystemConfig):
    """Distance-based channel gain, calibrated to the configured cell-edge SNR.

    Gains are in units of the noise power. The gain constant is chosen so
    that a user at distance R sees a gain equal to the linear cell-edge SNR:
        gain_db = gamma_snr_db + 10*eta*log10(R)
        D(d) = 10^(gain_db/10) * d^-eta
    (SystemConfig.gain_db; SystemConfig refuses a gain_db out of range).
    """
    distance = np.asarray(distance, dtype=float)
    if np.any(distance <= 0):
        raise ValueError("distance must be positive")
    out = 10.0 ** (config.gain_db / 10.0) * distance ** (-config.eta)
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

        The one-drop call of `_links`: link for link, the values of
        `large_scale` and `aoa_interval`, or the ValueError of the first
        link in (j, l, k) order whose BS sits on the user or inside its
        scattering ring. SystemConfig rules that out for every link of a
        `drop_users` drop: a user is farther than exclusion_radius from its
        own BS, and no nearer to any other, since each hexagon is its BS's
        Voronoi cell.
        """
        L, K = drop.shape
        if L != layout.L:
            raise ConfigError("drop and layout disagree on the number of cells")
        if L != config.L or K != config.K:
            raise ConfigError(
                f"drop shape {L}x{K} disagrees with the configured scenario "
                f"({config.L} cells x {config.K} users)")
        gains, centers, half_widths = _links(config, layout.bs_positions, drop.positions)
        return cls(config=config, layout=layout, drop=drop, gains=gains,
                   centers=centers, half_widths=half_widths)

    def interval(self, j: int, l: int, k: int) -> AoAInterval:
        return AoAInterval(center=self.centers[j, l, k],
                           half_width=self.half_widths[j, l, k])

    def digest(self) -> str:
        return self.drop.digest()


def _links(config: SystemConfig, bs_positions: np.ndarray, positions: np.ndarray):
    """(gains, centers, half_widths) of user positions (..., L, K, 2), each of
    shape (..., L, L, K) and indexed [..., BS j, cell l, user k].

    One broadcast over the leading drop axes and [j, l, k]. Raises
    aoa_interval's ValueError, naming the link, for the first link in
    (..., j, l, k) order whose BS sits on the user or inside its
    scattering ring.
    """
    # delta[..., j, l, k]: user (l, k) seen from BS j
    delta = positions[..., None, :, :, :] - bs_positions[:, None, None]
    dist = np.hypot(delta[..., 0], delta[..., 1])
    bad = config.scatter_radius >= dist
    if bad.any():
        # the scalar oracle words the error of the first offending link
        *lead, j, l, k = np.argwhere(bad)[0]
        try:
            aoa_interval(positions[tuple(lead)][l, k], bs_positions[j],
                         config.scatter_radius)
        except ValueError as exc:
            raise ValueError(f"user {k} of cell {l} seen from BS {j}: {exc}") from None
    return (large_scale(dist, config), np.arctan2(delta[..., 1], delta[..., 0]),
            np.arcsin(config.scatter_radius / dist))


def fresh_world(config: SystemConfig, rng: np.random.Generator,
                layout: CellLayout | None = None) -> ScenarioBundle:
    """Convenience: drop users with rng and assemble the bundle."""
    layout = layout or build_layout(config.L, config.R)
    drop = drop_users(layout, config.K, config.exclusion_radius, rng)
    return ScenarioBundle.build(config, layout, drop)


def _fresh_worlds(config: SystemConfig, rng: np.random.Generator, layout: CellLayout,
                  count: int) -> tuple[list, tuple]:
    """The worlds of `count` successive fresh_world calls, from one
    `_draw_drops` scan and one `_links` broadcast, and those block link
    arrays (gains, centers, half_widths; one leading row per world, for a
    block cost kernel). Each world holds copies, so keeping one pins no
    other. A failed drop raises its ConfigError, and the call draws nothing.
    """
    positions = _draw_drops(layout, config.K, config.exclusion_radius, rng, count)
    links = _links(config, layout.bs_positions, positions)
    worlds = [ScenarioBundle(config, layout, UserDrop(positions[i].copy()),
                             *(a[i].copy() for a in links))
              for i in range(count)]
    return worlds, links
