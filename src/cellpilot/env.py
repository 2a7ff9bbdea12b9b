"""Assignment environment: world stream, swap actions, banded rewards, encoding."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .assignment import PilotAssignment, _permuted_rows, apply_swap, random_assignment
from .config import EnvOptions, SystemConfig, _check_bytes, substream
from .contamination import (
    CostTable,
    _copilot_costs,
    _copilot_pair_costs,
    _pairwise_costs,
    pairwise_cost_matrix,
    total_costs,
)
from .scenario import _fresh_worlds, _links, build_layout, drop_users, fresh_world

# "positions" drops costed at once: drawn by a WorldStream, pair-costed
# by it when a method reads a matrix, scored from their co-pilot pairs by
# threshold calibration and by the random and spr_like block solves, which
# also draw smallscale random maps this many at a time. No output depends
# on it; it is sized for memory: in `churn` benchmark runs, stream blocks
# of 32 held 1.3 MB more peak memory than blocks of 8 (11 % less time),
# and calibration blocks of 64 held 1.4 MB more (12 % less time)
_BLOCK = 8

# calibration maps drawn and scored at once on a reused world. No output
# depends on it either: at full scale a block's masked costs take 0.4 MB,
# and against one block of all 1000 samples, blocks of 8 made make_env
# 3.3 (desk) to 4.4 ms (full) slower, blocks of 64 under 0.5 ms
_MAP_BLOCK = 64


@dataclass
class RewardThresholds:
    """Cost levels separating the low / middle / high reward bands."""

    g1: float
    g2: float

    def __post_init__(self):
        if not self.g1 < self.g2:
            raise ValueError("need g1 < g2")

    def band(self, g: float) -> int:
        """0 below g1, 1 on the closed middle band [g1, g2], 2 above g2."""
        if g < self.g1:
            return 0
        if g <= self.g2:
            return 1
        return 2


def calibrate_thresholds(
    config: SystemConfig,
    opts: EnvOptions,
    rng: np.random.Generator,
    pairwise: np.ndarray | None = None,
) -> RewardThresholds:
    """Empirical quantiles of the worst-user cost under random assignments.

    Each sample scores a fresh random assignment; the world is redrawn per
    sample when the evolution mode redraws positions, otherwise one world
    is reused, matching what the run will see: the world whose pair-cost
    matrix the caller passes as `pairwise`, or one freshly built. Samples
    are drawn as successive samples would draw them and scored in blocks,
    _BLOCK redrawn worlds, each from its co-pilot pairs alone, or
    _MAP_BLOCK maps on a reused one (see _calibration_samples), so the
    scoring holds one block's costs, never all n samples'. The quantiles
    come from _band_thresholds.
    """
    return _band_thresholds(_calibration_samples(config, opts, rng, pairwise), opts)


def _calibration_samples(config: SystemConfig, opts: EnvOptions,
                         rng: np.random.Generator,
                         pairwise: np.ndarray | None = None) -> np.ndarray:
    """The worst-user cost of each of calibrate_thresholds' n samples.

    Redrawn worlds come as drop i and then map i, map i drawn as
    random_assignment draws it (_permuted_rows); each block of drops is
    linked at once. On a reused world one _permuted_rows of b*L rows draws
    a block's b maps, the same draws as b successive random_assignment
    calls. Either way a block's maps are validated and inverted once
    (_block_maps) and scored in one _worst_costs call. Samples above
    config._BYTES_CAP raise BudgetError before a draw.
    """
    n = opts.threshold_samples
    _check_bytes(8 * n, "threshold calibration's samples", "[env] threshold_samples")
    layout = build_layout(config.L, config.R)
    positions = opts.redraw == "positions"
    C = pairwise  # read only on a reused world
    if not positions and C is None:
        C = pairwise_cost_matrix(fresh_world(config, rng, layout))
    block = _BLOCK if positions else _MAP_BLOCK
    samples = np.empty(n)
    for start in range(0, n, block):
        size = min(block, n - start)
        if positions:
            draws = [(drop_users(layout, config.K, config.exclusion_radius, rng).positions,
                      _permuted_rows(config.L, config.K, rng)) for _ in range(size)]
            drops, rows = (np.stack(a) for a in zip(*draws))
            links = _links(config, layout.bs_positions, drops)
        else:
            rows, links = _permuted_rows(size * config.L, config.K, rng), None
        samples[start:start + size] = _worst_costs(
            config, [_block_maps(rows, (size, config.L, config.K))], links, C)[0]
    return samples


def _block_maps(rows: np.ndarray, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(user_to_pilot, pilot_to_user) of pilot -> user permutation rows, each
    reshaped to `shape` (b, L, K): validated and inverted at once, through
    one PilotAssignment."""
    maps = PilotAssignment(rows.reshape(-1, shape[-1]))
    return maps.user_to_pilot().reshape(shape), maps.pilot_to_user.reshape(shape)


def _worst_costs(config: SystemConfig, maps, links: tuple | None,
                 pairwise: np.ndarray | None) -> np.ndarray:
    """The worst-user cost of every map of a block, (m, b), in one call.

    maps holds m (user_to_pilot (b, L, K), pilot_to_user) pairs. With
    `links`, `_links`' arrays of b redrawn worlds, map i of each pair is
    scored on world i from its co-pilot pairs alone, all pairs in one
    _copilot_pair_costs pass, which builds no pair-cost matrix;
    pilot_to_user may hold -1 for a pilot that a cell leaves unused.
    Without, every map is scored on the one world whose matrix is
    `pairwise` (_copilot_costs' masked sums). Either way each value is
    extended_user_costs' maximum for that map, bit for bit.
    """
    if links is not None:
        costs = _copilot_pair_costs(config, links, maps)
    else:
        costs = _copilot_costs(pairwise, np.stack([u2p for u2p, _ in maps]))
    return costs.max(axis=(-2, -1))


def _band_thresholds(samples: np.ndarray, opts: EnvOptions) -> RewardThresholds:
    """The q_low and q_high quantiles of the samples, lifted off ties.

    Degenerate quantiles are widened by 5% so the middle band is never empty.
    """
    g1 = float(np.quantile(samples, opts.q_low))
    g2 = float(np.quantile(samples, opts.q_high))
    # Cost landscapes with heavy ties can pull the quantiles down onto the
    # sample minimum, leaving the "good" band below g1 unreachable and the
    # +1 reward dead. Lift such a threshold to the next distinct sample
    # value so the low band exactly covers the best observed cost level.
    smin = float(samples.min())
    above = samples[samples > smin]
    if g1 <= smin and above.size:
        g1 = float(above.min())
    if g2 <= smin and above.size:
        g2 = float(above.min())
    if not g1 < g2:
        pad = 0.05 * max(abs(g1), 1e-9)
        g1, g2 = g1 - pad, g2 + pad
    return RewardThresholds(g1=g1, g2=g2)


def encode_state(
    assignment: PilotAssignment,
    costs: CostTable,
    last_pilot: int,
    last_cell: int,
    thresholds: RewardThresholds,
) -> np.ndarray:
    """Flat feature vector for the Q-network.

    Layout: L*K*K one-hot entries of the per-cell pilot->user permutation
    (cell major, then pilot, then user), L cell costs scaled by g2, then
    one-hots for the last touched pilot (K), last touched cell (L), worst
    user's pilot (K) and worst user's cell (L). Length L*K*K + 3L + 2K.
    """
    L, K = assignment.shape
    parts = [np.zeros(L * K * K), costs.cell_max / thresholds.g2,
             np.zeros(K), np.zeros(L), np.zeros(K), np.zeros(L)]
    parts[0][np.arange(L * K) * K + assignment.pilot_to_user.ravel()] = 1.0
    parts[2][last_pilot] = 1.0
    parts[3][last_cell] = 1.0
    parts[4][costs.worst_pilot] = 1.0
    parts[5][costs.worst_cell] = 1.0
    return np.concatenate(parts)


def reward_components(
    g_prev: float,
    g_next: float,
    action_taken: bool,
    thresholds: RewardThresholds,
) -> tuple[int, int, int]:
    """Banded reward terms for a transition of the worst-user cost.

    r1 rates the landing band (+1 low / 0 middle / -1 high), r2 charges -1
    for any actual swap, r3 pays the band crossing (+2 high->low, +1 for
    one-band improvements, mirrored negatives for regressions, 0 when the
    band is unchanged). Total range [-4, +3].
    """
    prev_band = thresholds.band(g_prev)
    next_band = thresholds.band(g_next)
    r1 = 1 - next_band
    r2 = -1 if action_taken else 0
    r3 = prev_band - next_band
    return r1, r2, r3


class WorldStream:
    """The world sequence of one run: every method of a seed sees the same.

    World 0 is drawn from the seed's world substream, and each `advance`
    moves to the next world. "positions" redraws the user drop and so its
    pair-cost matrix; "smallscale" keeps the geometry, and only the
    per-step channel draws differ, which the rate benchmark realizes from
    its own streams. Every world is digested, so equal `digest()`s prove
    equal streams.

    "positions" worlds after world 0 are drawn _BLOCK at a time (see
    scenario._fresh_worlds), so the generator runs up to _BLOCK - 1 drops
    ahead of the stream; each world is that of successive fresh_world
    calls. The stream keeps the current block's worlds and link arrays
    (`block`). A world's pair-cost matrix is built only when `pairwise` is
    read: world 0's by pairwise_cost_matrix, and on the first read in a
    later block every world of it by one _pairwise_costs call, each kept
    as its own copy (so a matrix kept pins no block), the bytes of
    pairwise_cost_matrix. So a run whose
    methods never read a matrix builds none. A failed drop raises its
    ConfigError from the `advance` that draws its block, which draws
    nothing, so every later `advance` raises it again.
    """

    def __init__(self, config: SystemConfig, redraw: str, seed: int):
        self.config = config
        self.redraw = redraw
        self.rng = substream(seed, "world")
        self.layout = build_layout(config.L, config.R)
        self.world = fresh_world(config, self.rng, self.layout)
        self.digests = [self.world.digest()]
        # the current block: its worlds, their link arrays (None for world
        # 0's), the current world's index and, once read, their matrices
        self._worlds, self._links, self._at, self._costs = [self.world], None, 0, None

    @property
    def pairwise(self) -> np.ndarray:
        """The pair-cost matrix of `world`, built on first read (see above)."""
        if self._costs is None:
            self._costs = ([pairwise_cost_matrix(self.world)] if self._links is None else
                           [C.copy() for C in _pairwise_costs(self.config, *self._links)])
        return self._costs[self._at]

    def block(self) -> tuple[list, tuple]:
        """The current world and the rest of its "positions" block, after
        the first `advance`: (worlds, their `_links` arrays, one leading row
        per world). A method may solve them at once, as the next worlds."""
        return self._worlds[self._at:], tuple(a[self._at:] for a in self._links)

    def advance(self):
        if self.redraw == "positions":
            if self._at + 1 < len(self._worlds):
                self._at += 1
            else:
                self._worlds, self._links = _fresh_worlds(
                    self.config, self.rng, self.layout, _BLOCK)
                self._at, self._costs = 0, None
            self.world = self._worlds[self._at]
        self.digests.append(self.world.digest())

    def digest(self) -> str:
        """One hash summarizing every world of the stream so far."""
        return hashlib.sha1("".join(self.digests).encode("ascii")).hexdigest()


class PilotEnv:
    """Stepwise pilot re-assignment over an evolving multi-cell world.

    Each step swaps, inside the chosen cell, the chosen pilot with the
    pilot of the currently worst user, then advances the world stream and
    scores the change of the network-wide worst-user cost. Action index a
    maps to (cell, pilot) = divmod(a, K); picking the worst user's own
    pilot is a no-op that leaves the pattern unchanged.
    """

    def __init__(self, config: SystemConfig, thresholds: RewardThresholds,
                 worlds: WorldStream, assignment: PilotAssignment):
        self.config = config
        self.thresholds = thresholds
        self.worlds = worlds
        self.assignment = assignment
        self.last_pilot = self.last_cell = 0
        self.costs: CostTable = total_costs(
            worlds.world, assignment.pilot_to_user, pairwise=worlds.pairwise)

    @property
    def n_actions(self) -> int:
        return self.config.L * self.config.K

    def encode(self) -> np.ndarray:
        return encode_state(self.assignment, self.costs, self.last_pilot,
                            self.last_cell, self.thresholds)

    def step(self, action: int) -> dict:
        """One transition; returns its trajectory row without the step index.

        The row holds every TRAJECTORY_FIELDS column but `step`: the action's
        (cell, pilot), whether it swapped, the network-wide worst-user cost
        before (g_prev) and after (g_next), the reward terms, and the worst
        user (worst_pilot, worst_cell) taken before the action, i.e. the
        user whose pilot the action swaps.
        """
        if not 0 <= action < self.n_actions:
            raise ValueError(f"action {action} outside 0..{self.n_actions - 1}")
        cell, pilot = divmod(action, self.config.K)
        before = self.costs
        taken = pilot != before.worst_pilot
        if taken:
            self.assignment = apply_swap(self.assignment, cell, before.worst_pilot, pilot)
        self.worlds.advance()
        self.last_pilot, self.last_cell = pilot, cell
        self.costs = total_costs(self.worlds.world, self.assignment.pilot_to_user,
                                 pairwise=self.worlds.pairwise)
        r1, r2, r3 = reward_components(
            before.global_max, self.costs.global_max, taken, self.thresholds)
        return {
            "action_cell": cell, "action_pilot": pilot, "action_taken": taken,
            "g_prev": before.global_max, "g_next": self.costs.global_max,
            "r1": r1, "r2": r2, "r3": r3, "reward": r1 + r2 + r3,
            "worst_pilot": before.worst_pilot, "worst_cell": before.worst_cell,
        }


TRAJECTORY_FIELDS = (
    "step", "action_cell", "action_pilot", "action_taken", "g_prev", "g_next",
    "r1", "r2", "r3", "reward", "worst_pilot", "worst_cell",
)


def make_env(config: SystemConfig, opts: EnvOptions, seed: int) -> PilotEnv:
    """Environment with thresholds calibrated from the same master seed.

    The initial world's pair-cost matrix is built once and serves both the
    calibration and the env; a calibration that redraws positions per
    sample scores its own drops from their co-pilot pairs instead.
    """
    worlds = WorldStream(config, opts.redraw, seed)
    thresholds = calibrate_thresholds(
        config, opts, substream(seed, "thresholds"), pairwise=worlds.pairwise)
    return PilotEnv(config, thresholds, worlds,
                    random_assignment(config.L, config.K, substream(seed, "init")))
