"""The swap MDP: thresholds, rewards, state encoding, transitions."""

import dataclasses

import numpy as np
import pytest

import cellpilot.env
from cellpilot import (
    BudgetError,
    ConfigError,
    CostTable,
    EnvOptions,
    RewardThresholds,
    apply_swap,
    build_layout,
    calibrate_thresholds,
    encode_state,
    fresh_world,
    make_env,
    pairwise_cost_matrix,
    presets,
    random_assignment,
    reward_components,
    scenario,
    substream,
    total_costs,
)
from cellpilot.contamination import _pairwise_costs
from cellpilot.env import _BLOCK, TRAJECTORY_FIELDS, WorldStream
from cellpilot.harness import csv_text
from conftest import make_world, small_config, traced_peak


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
    th = calibrate_thresholds(cfg, opts, rng,
                              pairwise=pairwise_cost_matrix(world))
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
    th = calibrate_thresholds(cfg, opts, np.random.default_rng(0),
                              pairwise=pairwise_cost_matrix(world))
    assert th.g1 < th.g2


def test_calibration_degenerate_single_level():
    # a single-cell world costs zero for every assignment: the pad keeps
    # the middle band non-empty around the common value
    cfg = small_config(L=1, K=2, M=16)
    opts = EnvOptions(redraw="smallscale", threshold_samples=50)
    th = calibrate_thresholds(cfg, opts, np.random.default_rng(0))
    assert th.g1 < 0.0 < th.g2
    assert th.band(0.0) == 1


def test_calibration_working_set():
    # the full preset's smallscale calibration (1000 samples) scores its
    # maps _MAP_BLOCK at a time: about 0.5 MiB at its peak, 7.7 MiB when
    # one batched call scored all of them
    full = presets()["full"]
    pairwise = pairwise_cost_matrix(fresh_world(full.config, np.random.default_rng(0)))
    assert full.env.redraw == "smallscale" and full.env.threshold_samples == 1000
    assert traced_peak(lambda: calibrate_thresholds(
        full.config, full.env, substream(0, "thresholds"), pairwise=pairwise)) \
        < 2 ** 20


def test_calibration_refuses_samples_above_the_byte_cap():
    # 10^12 samples would take 7.3 TiB: refused from the count alone,
    # before anything is allocated or drawn
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for redraw in ("positions", "smallscale"):
        opts = EnvOptions(redraw=redraw, threshold_samples=10 ** 12)
        with pytest.raises(BudgetError, match=r"lower \[env\] threshold_samples"):
            calibrate_thresholds(small_config(), opts, rng)
    assert rng.bit_generator.state == state


def test_calibration_uses_given_world():
    cfg = small_config(L=2, K=2, M=32)
    world = make_world(cfg, seed=6)
    opts = EnvOptions(redraw="smallscale", threshold_samples=200)
    th = calibrate_thresholds(cfg, opts, np.random.default_rng(1),
                              pairwise=pairwise_cost_matrix(world))
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

def _costs(L, K, cell_max=None, worst_pilot=0, worst_cell=0):
    """A cost table whose users each cost their cell's maximum."""
    cell_max = np.zeros(L) if cell_max is None else cell_max
    return CostTable(
        user_costs=np.repeat(cell_max[:, None], K, axis=1),
        cell_max=cell_max,
        global_max=float(cell_max[worst_cell]),
        worst_cell=worst_cell, worst_pilot=worst_pilot,
    )


def test_encoded_size_formula(rng):
    # L*K*K assignment one-hots, L cell costs, then the last pilot, last
    # cell, worst pilot and worst cell one-hots
    th = RewardThresholds(g1=1.0, g2=2.0)
    for L, K, size in ((1, 1, 6), (3, 3, 42), (7, 4, 141)):
        assert L * K * K + 3 * L + 2 * K == size
        vec = encode_state(random_assignment(L, K, rng), _costs(L, K), 0, 0, th)
        assert vec.shape == (size,)


def test_encoding_one_hots_and_costs(rng):
    L, K = 3, 2
    th = RewardThresholds(g1=1.0, g2=4.0)
    cell_max = np.array([2.0, 8.0, 1.0])
    assign = random_assignment(L, K, rng)
    table = _costs(L, K, cell_max=cell_max, worst_pilot=0, worst_cell=1)
    vec = encode_state(assign, table, 1, 2, th)
    pattern = vec[:L * K * K].reshape(L, K, K)
    for l in range(L):
        for k in range(K):
            onehot = np.zeros(K)
            onehot[assign.pilot_to_user[l, k]] = 1.0
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
    assign_a = random_assignment(L, K, rng)
    assign_b = apply_swap(assign_a, 1, 0, 1)  # cell 1's pattern reversed
    costs = _costs(L, K)
    diff = np.flatnonzero(encode_state(assign_a, costs, 0, 0, th)
                          != encode_state(assign_b, costs, 0, 0, th))
    block = set(range((1 * K + 0) * K, (1 * K + K) * K))  # cell 1's pattern block
    assert set(diff.tolist()) <= block


# -------------------------------------------------------------- transitions

def _static_env(seed=0, L=3, K=3, M=32):
    cfg = small_config(L=L, K=K, M=M)
    opts = EnvOptions(redraw="smallscale", threshold_samples=100)
    return make_env(cfg, opts, seed)


def test_step_noop_leaves_cost(rng):
    env = _static_env(seed=3)
    # choosing the worst user's own pilot in its own cell is the no-op
    action = env.costs.worst_cell * env.config.K + env.costs.worst_pilot
    g_before = env.costs.global_max
    row = env.step(action)
    assert not row["action_taken"]
    assert row["g_prev"] == row["g_next"] == g_before
    assert row["r2"] == 0 and row["r3"] == 0
    assert row["reward"] == row["r1"]


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
        before = total_costs(env.worlds.world, env.assignment.pilot_to_user,
                             pairwise=env.worlds.pairwise).global_max
        action = int(rng.integers(env.n_actions))
        row = env.step(action)
        after = total_costs(env.worlds.world, env.assignment.pilot_to_user,
                            pairwise=env.worlds.pairwise).global_max
        assert row["g_prev"] == pytest.approx(before, abs=1e-12)
        assert row["g_next"] == pytest.approx(after, abs=1e-12)
        assert env.costs.global_max == pytest.approx(after, abs=1e-12)


def test_step_worst_indices_match_fresh_argmax(rng):
    env = _static_env(seed=7)
    for _ in range(25):
        env.step(int(rng.integers(env.n_actions)))
        table = total_costs(env.worlds.world, env.assignment.pilot_to_user,
                            pairwise=env.worlds.pairwise)
        assert env.costs.worst_cell == table.worst_cell
        assert env.costs.worst_pilot == table.worst_pilot
        assert np.allclose(env.costs.cell_max, table.cell_max)


def test_step_reward_consistency(rng):
    env = _static_env(seed=9)
    for _ in range(40):
        row = env.step(int(rng.integers(env.n_actions)))
        want = reward_components(row["g_prev"], row["g_next"],
                                 row["action_taken"], env.thresholds)
        assert (row["r1"], row["r2"], row["r3"]) == want
        assert row["reward"] == row["r1"] + row["r2"] + row["r3"]
        assert -4 <= row["reward"] <= 3


def test_step_swap_uses_worst_pilot(rng):
    env = _static_env(seed=11)
    for _ in range(10):
        worst_pilot, worst_cell = env.costs.worst_pilot, env.costs.worst_cell
        before = env.assignment.pilot_to_user.copy()
        cell, pilot = divmod(int(rng.integers(env.n_actions)), env.config.K)
        row = env.step(cell * env.config.K + pilot)
        # the row names the worst user the action swapped, not the new one
        assert (row["worst_pilot"], row["worst_cell"]) == (worst_pilot, worst_cell)
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
        logs.append([env.step(int(a)) for a in actions])
    assert logs[0] == logs[1]


def test_world_evolution_modes():
    cfg = small_config(L=2, K=2, M=16)
    moving = make_env(cfg, EnvOptions(redraw="positions", threshold_samples=50), 0)
    for _ in range(5):
        moving.step(0)
    assert len(set(moving.worlds.digests)) == 6

    small = make_env(cfg, EnvOptions(redraw="smallscale", threshold_samples=50), 0)
    for _ in range(5):
        small.step(0)
    assert len(set(small.worlds.digests)) == 1
    assert len(small.worlds.digests) == 6


def _same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("preset", ["desk", "full"])
def test_positions_stream_matches_worlds_drawn_one_at_a_time(preset):
    # the stream draws its worlds in blocks, yet world for world it gives
    # the bytes of fresh_world and pairwise_cost_matrix called once per world
    cfg = presets()[preset].config
    stream = WorldStream(cfg, "positions", 11)
    rng, layout = substream(11, "world"), build_layout(cfg.L, cfg.R)
    delivered = []
    for t in range(41):
        if t:
            stream.advance()
        want, got = fresh_world(cfg, rng, layout), stream.world
        assert _same_bytes(got.drop.positions, want.drop.positions), t
        for name in ("gains", "centers", "half_widths"):
            assert _same_bytes(getattr(got, name), getattr(want, name)), (t, name)
        assert _same_bytes(stream.pairwise, pairwise_cost_matrix(want)), t
        assert stream.digests[t] == want.digest()
        arrays = (got.drop.positions, got.gains, got.centers, got.half_widths)
        # a world from a block owns its arrays, so keeping it pins no block
        assert t == 0 or all(a.base is None for a in arrays), t
        delivered.append(arrays + (stream.pairwise,))
    assert len(stream.digests) == 41
    # and no delivered world shares memory with another
    for i, arrays in enumerate(delivered):
        for others in delivered[:i]:
            assert not any(np.shares_memory(a, b) for a in arrays for b in others), i


def test_positions_stream_raises_at_the_failing_world(monkeypatch):
    # with 40 attempts per user, about one drop in five fails. Unless drop 0
    # fails, the stream builds and delivers the worlds of successive
    # fresh_world calls; the advance that draws the block of the first
    # failed drop f, at step _BLOCK * ((f - 1) // _BLOCK) + 1, raises its
    # error and draws nothing, so every later advance raises it again
    real = scenario._draw_drops

    def capped(layout, K, exclusion_radius, rng, count, max_attempts=None):
        return real(layout, K, exclusion_radius, rng, count, 40)

    monkeypatch.setattr(scenario, "_draw_drops", capped)
    cfg = small_config(L=2, K=2, exclusion_radius=430.0)
    layout = build_layout(cfg.L, cfg.R)
    raised_at = []
    for seed in range(12):
        rng, wants = substream(seed, "world"), []
        with pytest.raises(ConfigError) as failed:
            for _ in range(41):
                wants.append(fresh_world(cfg, rng, layout))
        if not wants:
            continue  # world 0 fails: the stream does not build
        stream = WorldStream(cfg, "positions", seed)
        step = _BLOCK * ((len(wants) - 1) // _BLOCK) + 1
        for t in range(1, step):
            stream.advance()
            assert stream.world.digest() == wants[t].digest(), (seed, t)
        for _ in range(3):
            with pytest.raises(ConfigError) as got:
                stream.advance()
            assert str(got.value) == str(failed.value), seed
        assert len(stream.digests) == step
        raised_at.append(step)
    assert 1 in raised_at and max(raised_at) > 1


def test_make_env_deterministic():
    cfg = small_config(L=2, K=2, M=16)
    opts = EnvOptions(redraw="smallscale", threshold_samples=50)
    a = make_env(cfg, opts, 21)
    b = make_env(cfg, opts, 21)
    assert a.worlds.world.digest() == b.worlds.world.digest()
    assert (a.thresholds.g1, a.thresholds.g2) == (b.thresholds.g1, b.thresholds.g2)
    assert a.assignment == b.assignment
    assert np.array_equal(a.encode(), b.encode())


@pytest.mark.parametrize("redraw", ["smallscale", "positions"])
def test_make_env_builds_the_pair_cost_matrix_once(monkeypatch, redraw):
    full = presets()["full"]
    opts = dataclasses.replace(full.env, redraw=redraw)
    worlds, blocks = [], []

    def counting(world):
        worlds.append(world)
        return pairwise_cost_matrix(world)

    def counting_block(config, gains, *links):
        blocks.append(gains.shape[:-3])
        return _pairwise_costs(config, gains, *links)

    monkeypatch.setattr(cellpilot.env, "pairwise_cost_matrix", counting)
    monkeypatch.setattr(cellpilot.env, "_pairwise_costs", counting_block)
    env = make_env(full.config, opts, 5)
    assert sum(w is env.worlds.world for w in worlds) == 1
    # the calibration of "positions" scores a fresh world per sample, in
    # blocks of drops: count the worlds, the block kernel's leading sizes
    per_sample = opts.threshold_samples if redraw == "positions" else 0
    assert len(worlds) == 1 and all(len(shape) == 1 for shape in blocks)
    assert sum(shape[0] for shape in blocks) == per_sample
    monkeypatch.undo()
    assert np.array_equal(env.worlds.pairwise, pairwise_cost_matrix(env.worlds.world))
    th = calibrate_thresholds(full.config, opts, substream(5, "thresholds"),
                              pairwise=pairwise_cost_matrix(env.worlds.world))
    assert (env.thresholds.g1, env.thresholds.g2) == (th.g1, th.g2)


def test_encode_matches_free_function():
    env = _static_env(seed=2)
    assert np.array_equal(env.encode(), encode_state(
        env.assignment, env.costs, env.last_pilot, env.last_cell, env.thresholds))


def test_trajectory_csv_format():
    env = _static_env(seed=4, L=2, K=2, M=16)
    rows = [{"step": t, **env.step(t % env.n_actions)} for t in range(3)]
    assert list(rows[0]) == list(TRAJECTORY_FIELDS)
    lines = csv_text(TRAJECTORY_FIELDS, rows).strip().splitlines()
    assert lines[0] == ",".join(TRAJECTORY_FIELDS)
    assert len(lines) == 4
    first = dict(zip(TRAJECTORY_FIELDS, lines[1].split(",")))
    assert first["step"] == "0"
    assert first["action_taken"] in ("0", "1")
    assert float(first["g_prev"]) == rows[0]["g_prev"]
