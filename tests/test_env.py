"""The swap MDP: thresholds, rewards, state encoding, transitions."""

import dataclasses

import numpy as np
import pytest

import cellpilot.env
from cellpilot import (
    EnvOptions,
    EnvState,
    PilotEnv,
    RewardThresholds,
    calibrate_thresholds,
    encode_state,
    encoded_size,
    make_env,
    pairwise_cost_matrix,
    presets,
    random_assignment,
    reward_components,
    substream,
    total_costs,
)
from cellpilot.env import TRAJECTORY_FIELDS
from cellpilot.harness import write_csv
from conftest import make_world, small_config


# --------------------------------------------------------------- thresholds

def test_band_boundaries_closed_middle():
    th = RewardThresholds(g1=1.0, g2=2.0)
    assert th.band(0.5) == 0
    assert th.band(1.0) == 1  # boundary belongs to the middle band
    assert th.band(1.5) == 1
    assert th.band(2.0) == 1
    assert th.band(2.5) == 2
    with pytest.raises(ValueError):
        RewardThresholds(g1=2.0, g2=2.0)


def test_calibration_deterministic():
    cfg = small_config(L=2, K=2, M=16)
    opts = EnvOptions(redraw="smallscale", threshold_samples=100)
    a = calibrate_thresholds(cfg, opts, np.random.default_rng(4))
    b = calibrate_thresholds(cfg, opts, np.random.default_rng(4))
    assert (a.g1, a.g2) == (b.g1, b.g2)


def test_calibration_lifts_g1_off_the_minimum():
    # two-class landscape: the tiny low quantile would land on the sample
    # minimum; the threshold must sit at the next distinct cost level so
    # the best class alone occupies the low band
    cfg = small_config(L=2, K=2, M=32)
    world = make_world(cfg, seed=1)
    opts = EnvOptions(redraw="smallscale", threshold_samples=400,
                      q_low=0.01, q_high=0.6)
    rng = np.random.default_rng(0)
    th = calibrate_thresholds(cfg, opts, rng, world=world)
    costs = sorted({total_costs(world, np.array([[0, 1], list(p)])).global_max
                    for p in ([0, 1], [1, 0])})
    assert len(costs) == 2
    assert th.band(costs[0]) == 0
    assert th.g1 > costs[0]


def test_calibration_survives_dominant_minimum():
    # both quantiles on the minimum class: thresholds must still come out
    # ordered, with the best class strictly below g1
    cfg = small_config(L=2, K=2, M=32)
    world = make_world(cfg, seed=1)
    opts = EnvOptions(redraw="smallscale", threshold_samples=400,
                      q_low=0.01, q_high=0.02)
    th = calibrate_thresholds(cfg, opts, np.random.default_rng(0), world=world)
    assert th.g1 < th.g2


def test_calibration_degenerate_single_level():
    # a single-cell world costs zero for every assignment: the pad keeps
    # the middle band non-empty around the common value
    cfg = small_config(L=1, K=2, M=16)
    opts = EnvOptions(redraw="smallscale", threshold_samples=50)
    th = calibrate_thresholds(cfg, opts, np.random.default_rng(0))
    assert th.g1 < 0.0 < th.g2
    assert th.band(0.0) == 1


def test_calibration_uses_given_world():
    cfg = small_config(L=2, K=2, M=32)
    world = make_world(cfg, seed=6)
    opts = EnvOptions(redraw="smallscale", threshold_samples=200)
    th = calibrate_thresholds(cfg, opts, np.random.default_rng(1), world=world)
    levels = [total_costs(world, np.array([[0, 1], list(p)])).global_max
              for p in ([0, 1], [1, 0])]
    # thresholds are statistics of exactly these two levels (up to the pad)
    assert min(levels) <= th.g2 <= 1.05 * max(levels) + 1e-9


# ----------------------------------------------------------------- rewards

def test_reward_component_compositions():
    th = RewardThresholds(g1=1.0, g2=2.0)
    # high -> low with an action: (+1, -1, +2), total +2
    assert reward_components(3.0, 0.5, True, th) == (1, -1, 2)
    # middle -> middle without an action: all zero
    assert reward_components(1.5, 1.5, False, th) == (0, 0, 0)
    # low -> high with an action: (-1, -1, -2), total -4
    assert reward_components(0.5, 3.0, True, th) == (-1, -1, -2)


def test_reward_unlisted_transitions_zero_r3():
    th = RewardThresholds(g1=1.0, g2=2.0)
    assert reward_components(0.2, 0.8, False, th) == (1, 0, 0)
    assert reward_components(3.0, 4.0, False, th) == (-1, 0, 0)


def test_reward_single_band_steps():
    th = RewardThresholds(g1=1.0, g2=2.0)
    assert reward_components(1.5, 0.5, True, th) == (1, -1, 1)
    assert reward_components(0.5, 1.5, True, th) == (0, -1, -1)
    assert reward_components(3.0, 1.5, False, th) == (0, 0, 1)
    assert reward_components(1.5, 3.0, False, th) == (-1, 0, -1)


# ------------------------------------------------------------ state encoding

def _state(L, K, rng, cell_max=None):
    assign = random_assignment(L, K, rng)
    return EnvState(
        assignment=assign,
        cell_max=np.zeros(L) if cell_max is None else cell_max,
        last_pilot=0, last_cell=0, worst_pilot=0, worst_cell=0,
    )


def test_encoded_size_formula(rng):
    assert encoded_size(7, 4) == 7 * 16 + 7 + 4 + 7 + 4 + 7 == 141
    th = RewardThresholds(g1=1.0, g2=2.0)
    for L, K in ((1, 1), (3, 3), (7, 4)):
        vec = encode_state(_state(L, K, rng), th)
        assert vec.shape == (encoded_size(L, K),)


def test_encoding_one_hots_and_costs(rng):
    L, K = 3, 2
    th = RewardThresholds(g1=1.0, g2=4.0)
    cell_max = np.array([2.0, 8.0, 1.0])
    state = _state(L, K, rng, cell_max=cell_max)
    state.last_pilot, state.last_cell = 1, 2
    state.worst_pilot, state.worst_cell = 0, 1
    vec = encode_state(state, th)
    pattern = vec[:L * K * K].reshape(L, K, K)
    for l in range(L):
        for k in range(K):
            onehot = np.zeros(K)
            onehot[state.assignment.pilot_to_user[l, k]] = 1.0
            assert np.array_equal(pattern[l, k], onehot)
    costs = vec[L * K * K:L * K * K + L]
    assert np.allclose(costs, cell_max / th.g2)
    tail = vec[L * K * K + L:]
    last_pilot, tail = tail[:K], tail[K:]
    last_cell, tail = tail[:L], tail[L:]
    worst_pilot, worst_cell = tail[:K], tail[K:]
    assert np.argmax(last_pilot) == 1 and last_pilot.sum() == 1.0
    assert np.argmax(last_cell) == 2 and last_cell.sum() == 1.0
    assert np.argmax(worst_pilot) == 0 and worst_pilot.sum() == 1.0
    assert np.argmax(worst_cell) == 1 and worst_cell.sum() == 1.0


def test_encoding_locality(rng):
    L, K = 3, 2
    th = RewardThresholds(g1=1.0, g2=2.0)
    state_a = _state(L, K, rng)
    state_b = EnvState(
        assignment=state_a.assignment.copy(),
        cell_max=state_a.cell_max.copy(),
        last_pilot=state_a.last_pilot, last_cell=state_a.last_cell,
        worst_pilot=state_a.worst_pilot, worst_cell=state_a.worst_cell,
    )
    state_b.assignment.pilot_to_user[1] = state_b.assignment.pilot_to_user[1][::-1]
    diff = np.flatnonzero(encode_state(state_a, th) != encode_state(state_b, th))
    block = set(range((1 * K + 0) * K, (1 * K + K) * K))  # cell 1's pattern block
    assert set(diff.tolist()) <= block


# -------------------------------------------------------------- transitions

def _static_env(seed=0, L=3, K=3, M=32):
    cfg = small_config(L=L, K=K, M=M, seed=seed)
    opts = EnvOptions(redraw="smallscale", threshold_samples=100)
    return make_env(cfg, opts, seed)


def test_step_noop_leaves_cost(rng):
    env = _static_env(seed=3)
    # choosing the worst user's own pilot in its own cell is the no-op
    action = env.state.worst_cell * env.config.K + env.state.worst_pilot
    g_before = env.costs.global_max
    out = env.step(action)
    assert not out.action_taken
    assert out.g_prev == out.g_next == g_before
    assert out.r2 == 0 and out.r3 == 0
    assert out.reward == out.r1


def test_step_rejects_bad_action():
    env = _static_env(seed=1)
    with pytest.raises(ValueError):
        env.step(-1)
    with pytest.raises(ValueError):
        env.step(env.n_actions)


def test_step_tracks_global_worst_cost(rng):
    # g_prev / g_next are the network-wide worst-user cost before and
    # after the transition, re-identified from a fresh cost table
    env = _static_env(seed=5)
    for _ in range(30):
        before = total_costs(env.world, env.assignment.pilot_to_user,
                             pairwise=env.pairwise).global_max
        action = int(rng.integers(env.n_actions))
        out = env.step(action)
        after = total_costs(env.world, env.assignment.pilot_to_user,
                            pairwise=env.pairwise).global_max
        assert out.g_prev == pytest.approx(before, abs=1e-12)
        assert out.g_next == pytest.approx(after, abs=1e-12)
        assert out.global_max == pytest.approx(after, abs=1e-12)


def test_step_worst_indices_match_fresh_argmax(rng):
    env = _static_env(seed=7)
    for _ in range(25):
        env.step(int(rng.integers(env.n_actions)))
        table = total_costs(env.world, env.assignment.pilot_to_user,
                            pairwise=env.pairwise)
        assert env.state.worst_cell == table.worst_cell
        assert env.state.worst_pilot == table.worst_pilot
        assert np.allclose(env.state.cell_max, table.cell_max)


def test_step_reward_consistency(rng):
    env = _static_env(seed=9)
    for _ in range(40):
        out = env.step(int(rng.integers(env.n_actions)))
        want = reward_components(out.g_prev, out.g_next, out.action_taken,
                                 env.thresholds)
        assert (out.r1, out.r2, out.r3) == want
        assert out.reward == out.r1 + out.r2 + out.r3
        assert -4 <= out.reward <= 3


def test_step_swap_uses_worst_pilot(rng):
    env = _static_env(seed=11)
    for _ in range(10):
        worst_pilot = env.state.worst_pilot
        before = env.assignment.pilot_to_user.copy()
        cell, pilot = divmod(int(rng.integers(env.n_actions)), env.config.K)
        env.step(cell * env.config.K + pilot)
        after = env.assignment.pilot_to_user
        if pilot == worst_pilot:
            assert np.array_equal(before, after)
        else:
            want = before.copy()
            want[cell, worst_pilot], want[cell, pilot] = \
                want[cell, pilot], want[cell, worst_pilot]
            assert np.array_equal(after, want)


def test_trajectory_replay_identical():
    actions = np.random.default_rng(0).integers(0, 9, size=40)
    logs = []
    for _ in range(2):
        env = _static_env(seed=13)
        rows = [env.step(int(a)) for a in actions]
        logs.append([(o.reward, o.g_prev, o.g_next, o.action_taken)
                     for o in rows])
    assert logs[0] == logs[1]


def test_world_evolution_modes():
    cfg = small_config(L=2, K=2, M=16, seed=0)
    moving = make_env(cfg, EnvOptions(redraw="positions", threshold_samples=50), 0)
    for _ in range(5):
        moving.step(0)
    assert len(set(moving.world_digests)) == 6

    small = make_env(cfg, EnvOptions(redraw="smallscale", threshold_samples=50), 0)
    for _ in range(5):
        small.step(0)
    assert len(set(small.world_digests)) == 1
    assert len(small.world_digests) == 6


def test_make_env_deterministic():
    cfg = small_config(L=2, K=2, M=16)
    opts = EnvOptions(redraw="smallscale", threshold_samples=50)
    a = make_env(cfg, opts, 21)
    b = make_env(cfg, opts, 21)
    assert a.world.digest() == b.world.digest()
    assert (a.thresholds.g1, a.thresholds.g2) == (b.thresholds.g1, b.thresholds.g2)
    assert a.assignment == b.assignment
    assert np.array_equal(a.encode(), b.encode())


@pytest.mark.parametrize("redraw", ["smallscale", "positions"])
def test_make_env_builds_the_pair_cost_matrix_once(monkeypatch, redraw):
    full = presets()["full"]
    opts = dataclasses.replace(full.env, redraw=redraw)
    worlds = []

    def counting(world):
        worlds.append(world)
        return pairwise_cost_matrix(world)

    monkeypatch.setattr(cellpilot.env, "pairwise_cost_matrix", counting)
    env = make_env(full.config, opts, 5)
    assert sum(w is env.world for w in worlds) == 1
    # the calibration of "positions" scores a fresh world per sample
    per_sample = opts.threshold_samples if redraw == "positions" else 0
    assert len(worlds) == 1 + per_sample
    monkeypatch.undo()
    assert np.array_equal(env.pairwise, pairwise_cost_matrix(env.world))
    th = calibrate_thresholds(full.config, opts, substream(5, "thresholds"),
                              world=env.world)
    assert (env.thresholds.g1, env.thresholds.g2) == (th.g1, th.g2)


def test_encode_matches_free_function():
    env = _static_env(seed=2)
    assert np.array_equal(env.encode(), encode_state(env.state, env.thresholds))


def test_trajectory_csv_format(tmp_path):
    env = _static_env(seed=4, L=2, K=2, M=16)
    rows = []
    for t in range(3):
        pre = env.state
        out = env.step(t % env.n_actions)
        rows.append({
            "step": t, "action_cell": out.action_cell,
            "action_pilot": out.action_pilot, "action_taken": out.action_taken,
            "g_prev": out.g_prev, "g_next": out.g_next,
            "r1": out.r1, "r2": out.r2, "r3": out.r3, "reward": out.reward,
            "worst_pilot": pre.worst_pilot, "worst_cell": pre.worst_cell,
        })
    path = tmp_path / "traj.csv"
    write_csv(path, TRAJECTORY_FIELDS, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(TRAJECTORY_FIELDS)
    assert len(lines) == 4
    first = dict(zip(TRAJECTORY_FIELDS, lines[1].split(",")))
    assert first["step"] == "0"
    assert first["action_taken"] in ("0", "1")
    assert float(first["g_prev"]) == rows[0]["g_prev"]
