"""Q-network: forward/backward, optimizer, replay, schedule, training loop."""

import numpy as np
import pytest

from cellpilot import (
    EnvOptions,
    NetworkParams,
    ReplayBuffer,
    RmsPropState,
    TrainingSchedule,
    act,
    backward,
    epsilon,
    forward,
    init_params,
    load_checkpoint,
    make_env,
    rmsprop_step,
    save_checkpoint,
    substream,
    sync_target,
    td_targets,
    train,
)
from cellpilot.harness import write_csv
from cellpilot.qnn import TRAINING_LOG_FIELDS
from conftest import small_config


def _zero_params(in_dim, out_dim, hidden=8, n_blocks=2):
    fc = [(np.zeros((hidden, in_dim)), np.zeros(hidden)),
          (np.zeros((hidden, hidden)), np.zeros(hidden))]
    blocks = [tuple(np.zeros((hidden, hidden)) if i % 2 == 0 else np.zeros(hidden)
                    for i in range(4)) for _ in range(n_blocks)]
    return NetworkParams(fc=fc, blocks=blocks,
                         out=(np.zeros((out_dim, hidden)), np.zeros(out_dim)))


# ------------------------------------------------------------------ forward

def test_init_shapes_and_dtype(rng):
    p = init_params(20, 6, rng, hidden=16, n_blocks=2)
    assert p.in_dim == 20 and p.out_dim == 6
    assert p.fc[0][0].shape == (16, 20) and p.fc[1][0].shape == (16, 16)
    assert len(p.blocks) == 2
    for Wa, ba, Wb, bb in p.blocks:
        assert Wa.shape == (16, 16) and Wb.shape == (16, 16)
        assert ba.shape == (16,) and bb.shape == (16,)
    assert p.out[0].shape == (6, 16)
    for _, arr in p.named():
        assert arr.dtype == np.float64


def test_zero_network_outputs_zero(rng):
    p = _zero_params(5, 3)
    assert np.array_equal(forward(p, rng.random(5)), np.zeros(3))
    assert np.array_equal(forward(p, rng.random((4, 5))), np.zeros((4, 3)))


def test_zeroed_blocks_are_identity(rng):
    # with all residual-block weights zero only the shortcut remains, so
    # the network equals the same net with no blocks at all
    full = init_params(6, 4, rng, hidden=8, n_blocks=2)
    for blk in full.blocks:
        for arr in blk:
            arr[:] = 0.0
    plain = NetworkParams(fc=full.fc, blocks=[], out=full.out)
    x = rng.random((5, 6))
    assert np.allclose(forward(full, x), forward(plain, x), atol=1e-15)


def test_forward_single_vs_batch(rng):
    p = init_params(7, 3, rng, hidden=8, n_blocks=1)
    x = rng.random((4, 7))
    batch = forward(p, x)
    for i in range(4):
        assert np.allclose(forward(p, x[i]), batch[i], atol=1e-15)


def test_forward_dimension_mismatch(rng):
    p = init_params(7, 3, rng, hidden=8, n_blocks=1)
    with pytest.raises(ValueError):
        forward(p, np.zeros(9))


# ----------------------------------------------------------------- backward

def test_backward_zero_at_optimum(rng):
    p = init_params(6, 4, rng, hidden=8, n_blocks=1)
    x = rng.random(6)
    a = 2
    target = forward(p, x)[a]
    grads, loss = backward(p, x, np.array([a]), np.array([target]))
    assert loss == 0.0
    for g in grads.values():
        assert np.abs(g).max() == 0.0


def _loss(params, x, actions, targets):
    q = forward(params, x)
    picked = q[np.arange(x.shape[0]), actions]
    return float(np.mean((targets - picked) ** 2))


def test_backward_matches_finite_differences(rng):
    p = init_params(6, 4, rng, hidden=8, n_blocks=1)
    x = rng.random((3, 6)) + 0.1
    actions = np.array([0, 3, 1])
    targets = rng.random(3) * 2.0
    grads, _ = backward(p, x, actions, targets)
    h = 1e-6
    for name, arr in p.named():
        g = grads[name]
        flat = arr.reshape(-1)
        for idx in range(0, flat.size, max(1, flat.size // 25)):
            orig = flat[idx]
            flat[idx] = orig + h
            up = _loss(p, x, actions, targets)
            flat[idx] = orig - h
            dn = _loss(p, x, actions, targets)
            flat[idx] = orig
            fd = (up - dn) / (2 * h)
            assert g.reshape(-1)[idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_backward_loss_value(rng):
    p = init_params(5, 3, rng, hidden=8, n_blocks=1)
    x = rng.random((2, 5))
    actions = np.array([1, 2])
    targets = np.array([0.5, -0.5])
    _, loss = backward(p, x, actions, targets)
    assert loss == pytest.approx(_loss(p, x, actions, targets), rel=1e-12)


# --------------------------------------------------------------- td targets

def test_td_targets_no_bootstrap(rng):
    p = init_params(4, 3, rng, hidden=8, n_blocks=1)
    r = np.array([1.0, -2.0, 0.25])
    t = td_targets(p, r, rng.random((3, 4)), discount=0.0)
    assert np.array_equal(t, r)


def test_td_targets_worked_example():
    # zero weights with output bias (2, 0): max_a q = 2 everywhere,
    # so r=1 with discount 0.9 gives 1 + 0.9*2 = 2.8
    p = _zero_params(4, 2, hidden=8, n_blocks=1)
    p.out[1][0] = 2.0
    t = td_targets(p, np.array([1.0]), np.zeros((1, 4)), discount=0.9)
    assert t[0] == pytest.approx(2.8, rel=1e-15)


def test_target_network_frozen_between_syncs(rng):
    p = init_params(5, 3, rng, hidden=8, n_blocks=1)
    frozen = sync_target(p)
    x = rng.random((4, 5))
    r = rng.random(4)
    before = td_targets(frozen, r, x, 0.9)
    for _, arr in p.named():  # perturb the live network
        arr += rng.random(arr.shape)
    after = td_targets(frozen, r, x, 0.9)
    assert np.array_equal(before, after)
    # a fresh sync picks up the perturbation
    resynced = td_targets(sync_target(p), r, x, 0.9)
    assert not np.array_equal(before, resynced)


# ------------------------------------------------------------------ rmsprop

def test_rmsprop_worked_example():
    p = _zero_params(2, 2, hidden=4, n_blocks=1)
    for _, arr in p.named():
        arr[:] = 1.0
    grads = {name: np.ones_like(arr) for name, arr in p.named()}
    state = RmsPropState()
    assert rmsprop_step(p, grads, state, lr=1e-3, decay=0.9, eps=1e-8)
    step = 1e-3 / (np.sqrt(0.1) + 1e-8)
    assert step == pytest.approx(3.1623e-3, abs=1e-7)
    for name, arr in p.named():
        assert np.allclose(arr, 1.0 - step, atol=1e-15)
        assert np.allclose(state.v[name], 0.1, atol=1e-15)


def test_rmsprop_zero_gradient_decays_v():
    p = _zero_params(2, 2, hidden=4, n_blocks=1)
    state = RmsPropState()
    ones = {name: np.ones_like(arr) for name, arr in p.named()}
    zeros = {name: np.zeros_like(arr) for name, arr in p.named()}
    rmsprop_step(p, ones, state)
    snapshot = {name: arr.copy() for name, arr in p.named()}
    rmsprop_step(p, zeros, state, decay=0.9)
    for name, arr in p.named():
        assert np.array_equal(arr, snapshot[name])
        assert np.allclose(state.v[name], 0.09, atol=1e-15)


def test_rmsprop_step_magnitude_converges_to_lr():
    p = _zero_params(2, 2, hidden=4, n_blocks=1)
    state = RmsPropState()
    grads = {name: 2.0 * np.ones_like(arr) for name, arr in p.named()}
    for _ in range(300):
        rmsprop_step(p, grads, state, lr=1e-3, decay=0.9)
    # v has converged to g^2, so the step magnitude approaches lr itself
    before = p.out[1].copy()
    rmsprop_step(p, grads, state, lr=1e-3, decay=0.9)
    delta = np.abs(p.out[1] - before).max()
    assert delta == pytest.approx(1e-3, rel=0.02)


def test_rmsprop_skips_nonfinite():
    p = _zero_params(2, 2, hidden=4, n_blocks=1)
    state = RmsPropState()
    grads = {name: np.ones_like(arr) for name, arr in p.named()}
    grads["out.b"] = np.array([np.nan, 1.0])
    snapshot = {name: arr.copy() for name, arr in p.named()}
    assert not rmsprop_step(p, grads, state)
    for name, arr in p.named():
        assert np.array_equal(arr, snapshot[name])
    assert state.v == {}


# ------------------------------------------------------------------- replay

def test_replay_fifo_eviction():
    buf = ReplayBuffer(capacity=500)
    for i in range(501):
        buf.push(np.array([i]), 0, 0.0, np.array([i + 1]))
    assert len(buf) == 500
    stored = [int(item[0][0]) for item in buf.snapshot()]
    assert stored == list(range(1, 501))


def test_replay_fuzzed_fifo_matches_list_oracle():
    cap = 37
    buf = ReplayBuffer(capacity=cap)
    oracle = []
    for i in range(100000):
        buf.push(i, 0, 0.0, i + 1)
        oracle.append(i)
        if len(oracle) > cap:
            oracle.pop(0)
        assert len(buf) <= cap
    assert [item[0] for item in buf.snapshot()] == oracle


def test_replay_sample_gating_and_distinctness():
    rng = np.random.default_rng(5)
    buf = ReplayBuffer(capacity=500)
    assert buf.sample(200, rng) is None
    for i in range(500):
        buf.push(np.array([float(i)]), i % 7, 0.5 * i, np.array([float(i + 1)]))
    assert buf.ready(200)
    s, a, r, s2 = buf.sample(200, rng)
    assert s.shape == (200, 1)
    ids = s[:, 0].astype(int)
    assert len(np.unique(ids)) == 200  # sampling without replacement
    assert np.array_equal(a, ids % 7)
    assert np.allclose(r, 0.5 * ids)
    assert np.allclose(s2[:, 0], ids + 1)


# ----------------------------------------------------------------- schedule

def test_epsilon_schedule_exact():
    sched = TrainingSchedule()
    assert epsilon(0, sched) == 0.5
    assert epsilon(1, sched) == 0.5 * 0.9975
    assert epsilon(1, sched) == pytest.approx(0.49875, rel=1e-12)
    for t in range(0, 2000, 13):
        assert epsilon(t, sched) == max(1e-4, 0.5 * 0.9975 ** t)
    assert epsilon(10**6, sched) == 1e-4


def test_act_greedy_and_explore(rng):
    p = _zero_params(4, 3, hidden=4, n_blocks=1)
    action, explored = act(p, np.zeros(4), eps=0.0, rng=rng, n_actions=3)
    assert action == 0 and not explored  # all-zero Q: lowest index wins
    p.out[1][1] = 5.0
    action, explored = act(p, np.zeros(4), eps=0.0, rng=rng, n_actions=3)
    assert action == 1 and not explored
    seen = set()
    for _ in range(50):
        action, explored = act(p, np.zeros(4), eps=1.0, rng=rng, n_actions=3)
        assert explored
        seen.add(action)
    assert seen == {0, 1, 2}


# ----------------------------------------------------------------- training

def _tiny_env(seed=0):
    cfg = small_config(L=2, K=2, M=16)
    return make_env(cfg, EnvOptions(redraw="smallscale", threshold_samples=50),
                    seed)


_TINY_SCHED = TrainingSchedule(batch_size=16, replay_capacity=32,
                               hidden_width=16, residual_blocks=1,
                               target_sync_period=10)


def test_train_warmup_leaves_params(rng):
    env = _tiny_env(seed=1)
    result = train(env, _TINY_SCHED, total_steps=10, seed=1)  # < batch_size
    fresh = init_params(env.encode().size, env.n_actions,
                        substream(1, "qnn", "init"),
                        hidden=16, n_blocks=1)
    for (name, arr), (_, ref) in zip(result.params.named(), fresh.named()):
        assert np.array_equal(arr, ref), name
    assert all(row["loss"] is None for row in result.log_rows)


def test_train_bit_identical_logs():
    logs = []
    for _ in range(2):
        env = _tiny_env(seed=2)
        result = train(env, _TINY_SCHED, total_steps=40, seed=2)
        logs.append(result.log_rows)
    assert logs[0] == logs[1]


def test_train_updates_and_syncs():
    env = _tiny_env(seed=3)
    result = train(env, _TINY_SCHED, total_steps=40, seed=3)
    assert any(row["loss"] is not None for row in result.log_rows)
    synced_at = [row["step"] for row in result.log_rows if row["synced"]]
    assert synced_at == [9, 19, 29, 39]  # every target_sync_period steps
    assert result.skipped_updates == 0
    assert len(result.trajectory_rows) == 40


def test_checkpoint_round_trip(tmp_path):
    env = _tiny_env(seed=4)
    result = train(env, _TINY_SCHED, total_steps=30, seed=4)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(str(path), result.params, result.opt_state, 30, env.rng)
    cont = env.rng.random(5)  # what the saved stream produces next
    params, opt, step, rng2 = load_checkpoint(str(path))
    assert step == 30
    for (name, arr), (_, ref) in zip(params.named(), result.params.named()):
        assert np.array_equal(arr, ref), name
    for name in opt.v:
        assert np.array_equal(opt.v[name], result.opt_state.v[name])
    assert np.array_equal(rng2.random(5), cont)


def test_checkpoint_version_gate(tmp_path):
    env = _tiny_env(seed=5)
    result = train(env, _TINY_SCHED, total_steps=5, seed=5)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(str(path), result.params, result.opt_state, 5, env.rng)
    data = dict(np.load(str(path)))
    data["version"] = np.array(99)
    np.savez(str(path), **data)
    with pytest.raises(ValueError):
        load_checkpoint(str(path))


def test_training_log_csv_format(tmp_path):
    env = _tiny_env(seed=6)
    result = train(env, _TINY_SCHED, total_steps=20, seed=6)
    path = tmp_path / "log.csv"
    write_csv(path, TRAINING_LOG_FIELDS, result.log_rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,epsilon,loss,reward,r1,r2,r3,g_max,action,synced"
    assert len(lines) == 21
    first = lines[1].split(",")
    assert first[0] == "0" and first[2] == ""  # warm-up rows carry no loss
