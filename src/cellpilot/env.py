"""Assignment environment: swap actions, banded rewards, state encoding."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import PilotAssignment, SwapAction, apply_swap, random_assignment
from .config import EnvOptions, SystemConfig, substream
from .contamination import CostTable, _copilot_costs, pairwise_cost_matrix, total_costs
from .scenario import CellLayout, ScenarioBundle, build_layout, fresh_world


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


@dataclass
class EnvState:
    """Observable state: the pattern plus cost and bookkeeping features."""

    assignment: PilotAssignment
    cell_max: np.ndarray   # (L,)
    last_pilot: int        # pilot the previous action touched
    last_cell: int         # cell the previous action touched
    worst_pilot: int       # pilot of the currently worst user
    worst_cell: int


@dataclass
class StepOutcome:
    """Everything observable about one environment transition."""

    reward: int
    r1: int
    r2: int
    r3: int
    g_prev: float
    g_next: float
    action_taken: bool
    action_cell: int
    action_pilot: int
    global_max: float


def calibrate_thresholds(
    config: SystemConfig,
    opts: EnvOptions,
    rng: np.random.Generator,
    world: ScenarioBundle | None = None,
    pairwise: np.ndarray | None = None,
) -> RewardThresholds:
    """Empirical quantiles of the worst-user cost under random assignments.

    Each sample scores a fresh random assignment; the world is redrawn per
    sample when the evolution mode redraws positions, otherwise the given
    (or one freshly built) world is reused, matching what the run will see.
    On a reused world all samples are scored in one batched call, on
    `pairwise` when the caller holds that world's pair-cost matrix.
    Degenerate quantiles are widened by 5% so the middle band is never empty.
    """
    layout = build_layout(config.L, config.R)
    n = opts.threshold_samples

    def random_map():
        return random_assignment(config.L, config.K, rng).user_to_pilot()

    if opts.redraw == "positions":
        # one world at a time: a stack of n pair-cost matrices is large
        samples = np.array([_copilot_costs(
            pairwise_cost_matrix(fresh_world(config, rng, layout)),
            random_map())[1].max() for _ in range(n)])
    else:
        C = pairwise if pairwise is not None else \
            pairwise_cost_matrix(world or fresh_world(config, rng, layout))
        maps = np.stack([random_map() for _ in range(n)])
        samples = _copilot_costs(C, maps)[1].max(axis=(1, 2))
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


def encode_state(state: EnvState, thresholds: RewardThresholds) -> np.ndarray:
    """Flat feature vector for the Q-network.

    Layout: L*K*K one-hot entries of the per-cell pilot->user permutation
    (cell major, then pilot, then user), L cell costs scaled by g2, then
    one-hots for the last touched pilot (K), last touched cell (L), worst
    user's pilot (K) and worst user's cell (L). Length L*K*K + 3L + 2K.
    """
    L, K = state.assignment.shape
    parts = [np.zeros(L * K * K), state.cell_max / thresholds.g2,
             np.zeros(K), np.zeros(L), np.zeros(K), np.zeros(L)]
    p2u = state.assignment.pilot_to_user
    for l in range(L):
        for k in range(K):
            parts[0][(l * K + k) * K + p2u[l, k]] = 1.0
    parts[2][state.last_pilot] = 1.0
    parts[3][state.last_cell] = 1.0
    parts[4][state.worst_pilot] = 1.0
    parts[5][state.worst_cell] = 1.0
    return np.concatenate(parts)


def encoded_size(L: int, K: int) -> int:
    return L * K * K + 3 * L + 2 * K


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


class PilotEnv:
    """Stepwise pilot re-assignment over an evolving multi-cell world.

    Each step swaps, inside the chosen cell, the chosen pilot with the
    pilot of the currently worst user, then lets the world evolve and
    scores the change of the network-wide worst-user cost. Action index a
    maps to (cell, pilot) = divmod(a, K); picking the worst user's own
    pilot is a no-op that leaves the pattern unchanged.
    """

    def __init__(
        self,
        config: SystemConfig,
        opts: EnvOptions,
        thresholds: RewardThresholds,
        rng: np.random.Generator,
        layout: CellLayout,
        world: ScenarioBundle,
        assignment: PilotAssignment,
        pairwise: np.ndarray,
    ):
        self.config = config
        self.opts = opts
        self.thresholds = thresholds
        self.rng = rng
        self.layout = layout
        self.world = world
        self.pairwise = pairwise  # the pair-cost matrix of `world`
        self.assignment = assignment
        self.world_digests = [self.world.digest()]
        self._refresh_state(last_pilot=0, last_cell=0)

    @property
    def n_actions(self) -> int:
        return self.config.L * self.config.K

    def _refresh_state(self, last_pilot: int, last_cell: int):
        self.costs: CostTable = total_costs(
            self.world, self.assignment.pilot_to_user, pairwise=self.pairwise)
        self.state = EnvState(
            assignment=self.assignment,
            cell_max=self.costs.cell_max.copy(),
            last_pilot=last_pilot,
            last_cell=last_cell,
            worst_pilot=self.costs.worst_pilot,
            worst_cell=self.costs.worst_cell,
        )

    def encode(self) -> np.ndarray:
        return encode_state(self.state, self.thresholds)

    def _evolve(self):
        if self.opts.redraw == "positions":
            self.world = fresh_world(self.config, self.rng, self.layout)
            self.pairwise = pairwise_cost_matrix(self.world)
        # "smallscale" keeps the geometry: only per-step channel draws differ,
        # which the rate benchmark realizes from its own streams.
        self.world_digests.append(self.world.digest())

    def step(self, action: int) -> StepOutcome:
        if not 0 <= action < self.n_actions:
            raise ValueError(f"action {action} outside 0..{self.n_actions - 1}")
        cell, pilot = divmod(action, self.config.K)
        # the watched quantity is the worst cell's cost, re-identified after
        # the action: i.e. the network-wide worst-user cost before and after
        g_prev = float(self.state.cell_max[self.state.worst_cell])
        swap = SwapAction(cell=cell, pilot_a=self.state.worst_pilot, pilot_b=pilot)
        if not swap.no_op:
            self.assignment = apply_swap(self.assignment, swap)
        self._evolve()
        self._refresh_state(last_pilot=pilot, last_cell=cell)
        g_next = float(self.state.cell_max[self.state.worst_cell])
        r1, r2, r3 = reward_components(
            g_prev, g_next, not swap.no_op, self.thresholds)
        return StepOutcome(
            reward=r1 + r2 + r3, r1=r1, r2=r2, r3=r3,
            g_prev=g_prev, g_next=g_next,
            action_taken=not swap.no_op,
            action_cell=cell, action_pilot=pilot,
            global_max=self.costs.global_max,
        )


TRAJECTORY_FIELDS = (
    "step", "action_cell", "action_pilot", "action_taken", "g_prev", "g_next",
    "r1", "r2", "r3", "reward", "worst_pilot", "worst_cell",
)


def make_env(config: SystemConfig, opts: EnvOptions, seed: int) -> PilotEnv:
    """Environment with thresholds calibrated from the same master seed.

    The initial world's pair-cost matrix is built once and serves both the
    calibration (unless it redraws positions per sample) and the env.
    """
    world_rng = substream(seed, "world")
    layout = build_layout(config.L, config.R)
    world = fresh_world(config, world_rng, layout)
    pairwise = pairwise_cost_matrix(world)
    thresholds = calibrate_thresholds(
        config, opts, substream(seed, "thresholds"), pairwise=pairwise)
    return PilotEnv(config, opts, thresholds, world_rng, layout=layout, world=world,
                    assignment=random_assignment(config.L, config.K, substream(seed, "init")),
                    pairwise=pairwise)
