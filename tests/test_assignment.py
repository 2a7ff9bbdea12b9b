"""Assignment representation, swaps, and the non-learning solvers."""

import itertools

import numpy as np
import pytest

from cellpilot import (
    BudgetError,
    PilotAssignment,
    ScenarioBundle,
    UserDrop,
    apply_swap,
    build_layout,
    exhaustive_search,
    extended_user_costs,
    pairwise_cost_matrix,
    random_assignment,
    spr_like_assignment,
    total_costs,
)
from cellpilot import assignment
from conftest import make_world, random_world, small_config


# ------------------------------------------------------------ representation

def test_assignment_validates_permutations():
    PilotAssignment(np.array([[0, 1], [1, 0]]))
    with pytest.raises(ValueError):
        PilotAssignment(np.array([[0, 0], [1, 0]]))
    with pytest.raises(ValueError):
        PilotAssignment(np.array([[0, 2], [1, 0]]))


def test_assignment_error_names_first_bad_row():
    bad = np.array([[2, 0, 1], [0, 0, 1], [1, 2, 0], [0, 1, 3]])
    with pytest.raises(ValueError, match=r"^row 1 is not a permutation of 0\.\.2$"):
        PilotAssignment(bad)


def test_user_to_pilot_is_inverse():
    a = PilotAssignment(np.array([[2, 0, 1], [1, 2, 0]]))
    u2p = a.user_to_pilot()
    for l in range(2):
        for k in range(3):
            assert u2p[l, a.pilot_to_user[l, k]] == k


def test_text_round_trip():
    a = PilotAssignment(np.array([[2, 0, 1], [1, 2, 0]]))
    b = PilotAssignment.from_text(a.to_text())
    assert a == b
    with pytest.raises(ValueError):
        PilotAssignment.from_text("0 1\n0\n")
    with pytest.raises(ValueError):
        PilotAssignment.from_text("0 x\n1 0\n")
    with pytest.raises(ValueError):
        PilotAssignment.from_text("")


# -------------------------------------------------------------------- swaps

def test_swap_noop_branch():
    a = PilotAssignment(np.array([[0, 1, 2]]))
    assert apply_swap(a, 0, 1, 1) == a


def test_swap_involution():
    a = PilotAssignment(np.array([[2, 0, 1], [1, 2, 0]]))
    assert apply_swap(apply_swap(a, 1, 0, 2), 1, 0, 2) == a


def test_swap_leaves_input_untouched():
    mat = np.array([[0, 1], [1, 0]])
    a = PilotAssignment(mat.copy())
    apply_swap(a, 0, 0, 1)
    assert np.array_equal(a.pilot_to_user, mat)


def test_swap_fuzz_preserves_permutations():
    rng = np.random.default_rng(99)
    L, K = 3, 4
    a = random_assignment(L, K, rng)
    ref = np.arange(K)
    for _ in range(100000):
        a = apply_swap(a, int(rng.integers(L)), int(rng.integers(K)),
                       int(rng.integers(K)))
    for l in range(L):
        assert np.array_equal(np.sort(a.pilot_to_user[l]), ref)


# -------------------------------------------------------- random assignment

def test_random_assignment_k1_identity():
    a = random_assignment(4, 1, np.random.default_rng(0))
    assert np.array_equal(a.pilot_to_user, np.zeros((4, 1), dtype=int))


def test_random_assignment_deterministic():
    a = random_assignment(3, 4, np.random.default_rng(11))
    b = random_assignment(3, 4, np.random.default_rng(11))
    assert a == b


def test_random_assignment_draws_match_per_cell_permutations():
    for K in range(1, 9):
        rng, ref = np.random.default_rng(K), np.random.default_rng(K)
        a = random_assignment(4, K, rng)
        assert np.array_equal(a.pilot_to_user,
                              np.stack([ref.permutation(K) for _ in range(4)]))
        assert rng.bit_generator.state == ref.bit_generator.state


def test_random_assignment_uniform_over_permutations():
    rng = np.random.default_rng(21)
    n = 10000
    counts = {}
    for _ in range(n):
        a = random_assignment(1, 3, rng)
        counts[tuple(a.pilot_to_user[0])] = counts.get(
            tuple(a.pilot_to_user[0]), 0) + 1
    assert len(counts) == 6
    p = 1.0 / 6.0
    sigma = np.sqrt(n * p * (1 - p))
    for c in counts.values():
        assert abs(c - n * p) <= 3.0 * sigma


# -------------------------------------------------------- exhaustive search

def test_exhaustive_single_cell():
    cfg = small_config(L=1, K=3, M=16)
    world = make_world(cfg, seed=0)
    best, table = exhaustive_search(world)
    assert np.array_equal(best.pilot_to_user, [[0, 1, 2]])
    assert table.global_max == 0.0


def test_exhaustive_two_cell_brute_force():
    cfg = small_config(L=2, K=2, M=16)
    world = make_world(cfg, seed=1)
    best, table = exhaustive_search(world)
    # brute force over both assignment classes (cell 0 pinned)
    costs = []
    for perm in itertools.permutations(range(2)):
        p2u = np.array([[0, 1], list(perm)])
        costs.append(total_costs(world, p2u).global_max)
    assert table.global_max == pytest.approx(min(costs), abs=1e-12)
    assert np.array_equal(best.pilot_to_user[0], [0, 1])


def test_exhaustive_ties_break_lexicographically():
    # a single-cell world has only zero-cost candidates: ties everywhere
    cfg = small_config(L=2, K=3, M=4, scatter_radius=5.0)
    world = make_world(cfg, seed=3)
    # make every candidate cost identical by zeroing the pair costs
    pw = np.zeros((2, 3, 2, 3))
    best, table = exhaustive_search(world, pairwise=pw)
    assert np.array_equal(best.pilot_to_user, [[0, 1, 2], [0, 1, 2]])
    assert table.global_max == 0.0


def test_exhaustive_budget_gate(monkeypatch):
    # the budget counts expanded search nodes, one _expand call each
    world = make_world(small_config(L=4, K=3, M=8), seed=2)
    best, table = exhaustive_search(world)
    expand = assignment._expand
    calls = []
    monkeypatch.setattr(assignment, "_expand",
                        lambda *args: calls.append(1) or expand(*args))
    exhaustive_search(world)
    n = len(calls)
    assert n > 1
    assert exhaustive_search(world, budget=n)[0] == best
    with pytest.raises(BudgetError, match=f"node budget of {n - 1} "):
        exhaustive_search(world, budget=n - 1)
    lifted, lifted_table = exhaustive_search(world, budget=1, allow_long_run=True)
    assert np.array_equal(lifted.pilot_to_user, best.pilot_to_user)
    assert lifted_table.global_max == table.global_max


def test_global_relabeling_invariance(rng):
    # one common pilot relabeling across cells preserves every user cost
    cfg = small_config(L=3, K=3, M=32)
    world = make_world(cfg, seed=7)
    assign = random_assignment(3, 3, rng)
    base = total_costs(world, assign.pilot_to_user)
    for perm in itertools.permutations(range(3)):
        relabeled = assign.pilot_to_user[:, list(perm)]
        t = total_costs(world, relabeled)
        assert np.allclose(np.sort(t.user_costs, axis=1),
                           np.sort(base.user_costs, axis=1))
        assert t.global_max == pytest.approx(base.global_max)


def test_exhaustive_beats_random_probes():
    cfg = small_config(L=3, K=3, M=32)
    rng = np.random.default_rng(17)
    for seed in range(3):
        world = make_world(cfg, seed=seed)
        _, table = exhaustive_search(world)
        for _ in range(300):
            probe = random_assignment(3, 3, rng)
            assert table.global_max <= total_costs(
                world, probe.pilot_to_user).global_max + 1e-12


def _enumerate(world, pairwise):
    """Reference optimum: every candidate through total_costs, first one wins."""
    L, K = world.drop.shape
    perms = list(itertools.permutations(range(K)))
    best, best_val = None, np.inf
    for combo in itertools.product(perms, repeat=L - 1):
        p2u = np.array([tuple(range(K)), *combo])
        val = total_costs(world, p2u, pairwise=pairwise).global_max
        if val < best_val:
            best, best_val = p2u, val
    return best, best_val


def _pairwise_variant(C, kind, rng):
    if kind == "world":
        return C
    if kind == "constant":          # every candidate ties
        return np.full_like(C, 0.5)
    if kind == "dominant_row":      # one user's constant cost decides: the
        C = C.copy()                # optimum equals the root bound
        C[-1, -1] = 10.0 * C.max() + 1.0
        return C
    return rng.integers(0, 4, size=C.shape) / 4.0   # "quantized": many ties


@pytest.mark.parametrize("L,K,kind", [
    (1, 3, "world"), (1, 2, "constant"),
    (2, 2, "world"), (2, 3, "world"), (2, 4, "dominant_row"), (2, 3, "quantized"),
    (3, 3, "world"), (3, 3, "constant"), (3, 4, "world"), (3, 3, "quantized"),
    (3, 4, "dominant_row"),
    (4, 3, "world"), (4, 3, "quantized"), (4, 4, "world"), (4, 2, "constant"),
    (5, 2, "world"), (5, 3, "world"), (5, 3, "quantized"), (5, 3, "dominant_row"),
    (5, 2, "quantized"),
])
def test_exhaustive_matches_plain_enumeration(L, K, kind):
    seed = 100 * L + 10 * K + len(kind)
    world = make_world(small_config(L=L, K=K, M=32), seed=seed)
    pw = _pairwise_variant(pairwise_cost_matrix(world), kind,
                           np.random.default_rng(seed))
    ref, ref_val = _enumerate(world, pw)
    best, table = exhaustive_search(world, pairwise=pw)
    assert np.array_equal(best.pilot_to_user, ref)
    assert table.global_max == ref_val
    if kind in ("constant", "dominant_row"):
        # every candidate ties, so the first one (identity rows) wins
        assert np.array_equal(best.pilot_to_user, np.tile(np.arange(K), (L, 1)))


# ------------------------------------------------------------ reuse splitting

def test_spr_overhead_worked_example():
    cfg = small_config(L=7, K=4, M=16)
    world = make_world(cfg, seed=0)
    u2p, report = spr_like_assignment(world, edge_ratio=1.0 / 3.0)
    assert report.base_pilots == 4
    assert report.required_pilots == 3 + 7 * 1
    assert report.edge_per_cell == 1 and report.central_per_cell == 3
    assert report.extra_pct == pytest.approx(150.0)
    assert report.total_pct == pytest.approx(250.0)
    assert "150%" in str(report) and "250%" in str(report)
    assert report.required_pilots == 10
    assert (u2p >= report.central_per_cell).sum() == 7


def test_spr_zero_edge_ratio_degenerates():
    cfg = small_config(L=3, K=4, M=16)
    world = make_world(cfg, seed=1)
    u2p, report = spr_like_assignment(world, edge_ratio=0.0)
    assert report.required_pilots == 4
    assert report.extra_pct == 0.0
    assert not (u2p >= report.central_per_cell).any()
    for l in range(3):
        assert np.array_equal(np.sort(u2p[l]), np.arange(4))


def test_spr_all_edge_users_cost_free():
    cfg = small_config(L=3, K=2, M=16)
    world = make_world(cfg, seed=4)
    u2p, report = spr_like_assignment(world, edge_ratio=1e9)
    assert (u2p >= report.central_per_cell).all()
    costs, worst = extended_user_costs(world, u2p)
    assert worst == 0.0
    assert np.array_equal(costs, np.zeros((3, 2)))


def test_spr_edge_users_are_farthest():
    cfg = small_config(L=2, K=4, M=16)
    world = make_world(cfg, seed=5)
    u2p, report = spr_like_assignment(world, edge_ratio=1.0 / 3.0)
    edge = u2p >= report.central_per_cell
    for l in range(2):
        bs = world.layout.bs_positions[l]
        d = np.hypot(*(world.drop.positions[l] - bs).T)
        edge_d = d[edge[l]]
        central_d = d[~edge[l]]
        assert edge_d.min() >= central_d.max() - 1e-9


def test_spr_rejects_negative_ratio():
    cfg = small_config(L=2, K=2, M=8)
    world = make_world(cfg, seed=0)
    with pytest.raises(ValueError):
        spr_like_assignment(world, edge_ratio=-0.5)


def test_spr_worst_user_cost():
    cfg = small_config(L=3, K=3, M=16)
    world = make_world(cfg, seed=9)
    u2p, _ = spr_like_assignment(world)
    costs, worst = extended_user_costs(world, u2p)
    assert worst == costs.max()
    C = pairwise_cost_matrix(world)
    assert extended_user_costs(world, u2p, pairwise=C)[1] == \
        pytest.approx(worst)


def _loop_spr_map(bundle, edge_ratio):
    """The reuse split as two per-cell loops: (user_to_pilot, edge set)."""
    L, K = bundle.drop.shape
    n_edge = min(K, int(round(K * edge_ratio / (1.0 + edge_ratio))))
    n_central = K - n_edge
    user_to_pilot = np.zeros((L, K), dtype=int)
    edge = np.zeros((L, K), dtype=bool)
    next_edge_pilot = n_central
    for l in range(L):
        d = np.hypot(*(bundle.drop.positions[l] - bundle.layout.bs_positions[l]).T)
        order = np.argsort(d, kind="stable")
        for p, user in enumerate(order[:n_central]):
            user_to_pilot[l, user] = p
        for user in order[n_central:]:
            user_to_pilot[l, user] = next_edge_pilot
            edge[l, user] = True
            next_edge_pilot += 1
    return user_to_pilot, edge


SPR_RATIOS = (0.0, 1.0 / 3.0, 0.5, 1.0, 3.0, 1e9)


def _assert_spr_matches_loop(world):
    for ratio in SPR_RATIOS:
        u2p, report = spr_like_assignment(world, edge_ratio=ratio)
        want, edge = _loop_spr_map(world, ratio)
        assert np.array_equal(u2p, want)
        assert np.array_equal(u2p >= report.central_per_cell, edge)
        assert report.required_pilots == want.max() + 1


def test_spr_matches_loop_on_random_worlds():
    rng = np.random.default_rng(19)
    for seed in range(200):
        _assert_spr_matches_loop(random_world(rng, seed))


def test_spr_equal_distances_keep_user_order():
    # users 0 and 2 of cell 0 mirror each other across the BS's x axis, so
    # their distances are equal; the stable sort ranks user 0 first, which
    # keeps it central and makes user 2 the edge user
    cfg = small_config(L=2, K=3, M=8)
    layout = build_layout(cfg.L, cfg.R)
    pos = np.empty((2, 3, 2))
    pos[0] = [[250.0, 150.0], [0.0, 150.0], [250.0, -150.0]]
    pos[1] = layout.bs_positions[1] + [[300.0, 0.0], [0.0, 200.0], [-150.0, -150.0]]
    world = ScenarioBundle.build(cfg, layout, UserDrop(positions=pos))
    u2p, report = spr_like_assignment(world, edge_ratio=0.5)
    assert report.central_per_cell == 2 and report.edge_per_cell == 1
    assert np.array_equal(u2p, [[1, 0, 2], [3, 0, 1]])
    _assert_spr_matches_loop(world)
