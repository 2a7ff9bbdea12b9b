"""Pilot assignment representations and baseline assignment strategies."""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .config import BudgetError
from .contamination import CostTable, extended_user_costs, pairwise_cost_matrix, total_costs
from .scenario import ScenarioBundle


@dataclass
class PilotAssignment:
    """Per-cell bijection pilot -> user, one row per cell."""

    pilot_to_user: np.ndarray  # (L, K) int

    def __post_init__(self):
        self.pilot_to_user = np.asarray(self.pilot_to_user, dtype=int)
        _, K = self.pilot_to_user.shape
        bad = np.flatnonzero(
            (np.sort(self.pilot_to_user, axis=1) != np.arange(K)).any(axis=1))
        if bad.size:
            raise ValueError(f"row {bad[0]} is not a permutation of 0..{K - 1}")

    @property
    def shape(self):
        return self.pilot_to_user.shape

    def user_to_pilot(self) -> np.ndarray:
        """Inverse map: pilot id of each user, same shape."""
        return np.argsort(self.pilot_to_user, axis=1)

    def __eq__(self, other):
        return (isinstance(other, PilotAssignment)
                and np.array_equal(self.pilot_to_user, other.pilot_to_user))

    def to_text(self) -> str:
        """L lines with K space-separated user indices (row = cell)."""
        return _rows_text(self.pilot_to_user)

    @classmethod
    def from_text(cls, text: str) -> "PilotAssignment":
        rows = [line.split() for line in text.strip().splitlines() if line.strip()]
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("malformed assignment text: ragged or empty matrix")
        try:
            mat = np.array([[int(v) for v in row] for row in rows])
        except ValueError as exc:
            raise ValueError(f"malformed assignment text: {exc}") from exc
        return cls(mat)


def _rows_text(rows: np.ndarray) -> str:
    """One line of space-separated integers per row."""
    return "\n".join(" ".join(str(v) for v in row) for row in rows) + "\n"


def random_assignment(L: int, K: int, rng: np.random.Generator) -> PilotAssignment:
    """Uniform pilot permutation per cell: the draws of L rng.permutation(K) calls."""
    return PilotAssignment(rng.permuted(np.tile(np.arange(K), (L, 1)), axis=1))


def apply_swap(assignment: PilotAssignment, cell: int, pilot_a: int,
               pilot_b: int) -> PilotAssignment:
    """New assignment with the users on two pilots of one cell exchanged.

    The input is left untouched; equal pilots give an equal copy.
    """
    out = assignment.pilot_to_user.copy()
    out[cell, pilot_a], out[cell, pilot_b] = out[cell, pilot_b], out[cell, pilot_a]
    return PilotAssignment(out)


def _expand(C, cheap, perms, d, users, partial, pending):
    """Children of a search node that has cells 0..d-1 placed.

    users (L, K) maps pilot -> user in the placed cells and is the identity
    elsewhere. partial (d, K) is each placed user's cost from the other
    placed cells, by pilot; pending (L-d, K, K) is the cost every user a of
    an unplaced cell would take on pilot p from the placed cells. Child i
    places cell d as perms[i]. Returns the children's users, partial and
    pending arrays and a lower bound on every leaf below each child: the
    max over placed users of partial cost plus each unplaced cell's
    cheapest partner, and over unplaced users of the cheapest pilot's
    pending cost plus the other unplaced cells' cheapest partners. At the
    leaf level (d == L-1) the bound is the exact cost.

    Terms are added in increasing cell order, as a full evaluation adds
    them. Rounding is monotone, so the bound never exceeds a leaf's cost
    and leaf costs are bit-identical to plain enumeration.
    """
    L, K = users.shape
    n = len(perms)
    ks = np.arange(K)
    users_c = np.repeat(users[None], n, axis=0)
    users_c[:, d] = perms
    partial_c = np.empty((n, d + 1, K))
    # C[j, users[j, k], d, b]: what user b of cell d costs each placed user
    gain = C[np.arange(d)[:, None], users[:d], d]             # (d, K, K)
    partial_c[:, :d] = partial + gain[:, ks, perms].transpose(1, 0, 2)
    partial_c[:, d] = pending[0][perms, ks]
    # C[j, a, d, perms[i, p]] for every unplaced cell j > d
    pending_c = (pending[1:]
                 + C[d + 1:, :, d][:, :, perms].transpose(2, 0, 1, 3))
    lower = np.concatenate([partial_c, pending_c.min(axis=3)], axis=1)
    tail = cheap[:, :, d + 1:][np.arange(L)[:, None], users_c]  # (n, L, K, L-d-1)
    for i in range(L - d - 1):
        lower += tail[..., i]
    return users_c, partial_c, pending_c, lower.reshape(n, -1).max(axis=1)


def exhaustive_search(
    bundle: ScenarioBundle,
    pairwise: np.ndarray | None = None,
    budget: int = 10**6,
    allow_long_run: bool = False,
) -> tuple[PilotAssignment, CostTable]:
    """Minimize the worst-user cost over all distinct assignments.

    Relabeling every cell's pilots by one common permutation leaves co-pilot
    partnerships unchanged, so cell 0 is pinned to the identity and the
    remaining (K!)^(L-1) candidates form the search space. An exact
    depth-first branch-and-bound places cells 1..L-1 in order, expands
    children in itertools.permutations order and skips every subtree whose
    lower bound is not below the best cost found so far; it returns what
    full enumeration returns, bit for bit. Ties go to the first candidate
    in enumeration order, i.e. the lexicographically smallest assignment.
    Expanding more than `budget` nodes raises BudgetError unless
    allow_long_run is set; the count, like the search, is deterministic.
    """
    L, K = bundle.drop.shape
    C = pairwise if pairwise is not None else pairwise_cost_matrix(bundle)
    perms = np.array(list(itertools.permutations(range(K))), dtype=int)
    # cheapest partner each cell can give every user; a cell never
    # interferes with itself
    cheap = C.min(axis=3)
    cheap[np.arange(L), :, np.arange(L)] = 0.0

    best_val = np.inf
    best_rows = np.tile(np.arange(K), (L, 1))
    nodes = 0

    def descend(d, users, partial, pending):
        nonlocal best_val, best_rows, nodes
        nodes += 1
        if nodes > budget and not allow_long_run:
            raise BudgetError(
                f"exhaustive branch-and-bound search passed its node budget "
                f"of {budget} expanded nodes; pass allow_long_run (CLI: "
                "--long-run) to lift it, or use the random-assignment "
                "baseline for a cheap bound")
        users_c, partial_c, pending_c, bound = _expand(
            C, cheap, perms, d, users, partial, pending)
        if d == L - 1:
            i = int(np.argmin(bound))
            if bound[i] < best_val:
                best_val, best_rows = bound[i], users_c[i]
            return
        for i in range(len(perms)):
            if bound[i] < best_val:
                descend(d + 1, users_c[i], partial_c[i], pending_c[i])

    if L > 1:
        descend(1, best_rows, np.zeros((1, K)), C[1:, :, 0, :])
    best = PilotAssignment(best_rows)
    return best, total_costs(bundle, best.pilot_to_user, pairwise=C)


@dataclass
class OverheadReport:
    """Pilot budget of a reuse-split scheme versus the K-pilot baseline.

    Two counting conventions are reported: extra_pct counts the additional
    pilots as a percentage of the baseline ((required-K)/K); total_pct
    expresses the whole requirement as a percentage of the baseline
    (required/K). A requirement of 10 pilots against a baseline of 4 is
    150% extra, i.e. 250% of the baseline.
    """

    base_pilots: int
    required_pilots: int
    edge_per_cell: int
    central_per_cell: int

    @property
    def extra_pct(self) -> float:
        return 100.0 * (self.required_pilots - self.base_pilots) / self.base_pilots

    @property
    def total_pct(self) -> float:
        return 100.0 * self.required_pilots / self.base_pilots

    def __str__(self):
        return (
            f"pilot overhead: {self.required_pilots} pilots required vs "
            f"{self.base_pilots} baseline ({self.central_per_cell} shared central + "
            f"{self.required_pilots - self.central_per_cell} dedicated edge); "
            f"{self.extra_pct:.0f}% extra pilots, "
            f"i.e. {self.total_pct:.0f}% of the baseline count"
        )


def spr_like_assignment(
    bundle: ScenarioBundle,
    edge_ratio: float = 1.0 / 3.0,
) -> tuple[np.ndarray, OverheadReport]:
    """Reuse split: edge users get cluster-wide dedicated pilots.

    In each cell the users farthest from their BS are marked as edge users
    so that edge:central matches edge_ratio. Central users reuse one shared
    pilot block across cells; every edge user receives its own orthogonal
    pilot, eliminating its contamination at the price of a longer pilot
    block. Returns the (L, K) user -> pilot map and its OverheadReport. The
    user of stable rank r near -> far in cell l gets pilot r if central,
    else r + l * edge_per_cell: edge users hold pilots >= central_per_cell.
    """
    if edge_ratio < 0:
        raise ValueError("edge_ratio must be non-negative")
    L, K = bundle.drop.shape
    n_edge = min(K, int(round(K * edge_ratio / (1.0 + edge_ratio))))
    n_central = K - n_edge
    offset = bundle.drop.positions - bundle.layout.bs_positions[:, None]
    order = np.argsort(np.hypot(offset[..., 0], offset[..., 1]), axis=1,
                       kind="stable")
    rank = np.argsort(order, axis=1)
    user_to_pilot = rank + (rank >= n_central) * np.arange(L)[:, None] * n_edge
    return user_to_pilot, OverheadReport(
        base_pilots=K, required_pilots=n_central + L * n_edge,
        edge_per_cell=n_edge, central_per_cell=n_central)


def baseline_assignment(
    name: str,
    bundle: ScenarioBundle,
    rng: np.random.Generator,
    pairwise: np.ndarray,
    allow_long_run: bool = False,
) -> tuple[np.ndarray, int, float, Callable[[], dict]]:
    """(user_to_pilot, n_pilots, worst-user cost, files) of a non-learned method.

    name is "random" (a fresh draw from rng), "exhaustive" (the min-max
    optimum; allow_long_run lifts its budget) or "spr_like" (the reuse
    split). The cost is extended_user_costs' maximum. files() builds the
    method's run files, so only a map that is written pays for its text:
    a dict of file name to text, first assignment_<name>.txt
    (PilotAssignment.to_text, or for spr_like an "n_pilots N" line over L
    rows of K pilot ids), then for spr_like the overhead file, its
    OverheadReport line.
    """
    if name == "spr_like":
        u2p, report = spr_like_assignment(bundle)
        n_pilots = report.required_pilots

        def files():
            return {f"assignment_{name}.txt": f"n_pilots {n_pilots}\n" + _rows_text(u2p),
                    "overhead_spr_like.txt": f"{report}\n"}
    else:
        if name == "random":
            assign = random_assignment(*bundle.drop.shape, rng)
        elif name == "exhaustive":
            assign, _ = exhaustive_search(bundle, pairwise,
                                          allow_long_run=allow_long_run)
        else:
            raise ValueError(f"unknown baseline {name!r}")
        u2p, n_pilots = assign.user_to_pilot(), assign.shape[1]

        def files():
            return {f"assignment_{name}.txt": assign.to_text()}
    _, g_max = extended_user_costs(bundle, u2p, pairwise=pairwise)
    return u2p, n_pilots, g_max, files
