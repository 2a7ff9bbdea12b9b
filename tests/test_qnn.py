"""Q-network: forward/backward, optimizer, replay, schedule, training loop."""

import dataclasses

import numpy as np
import pytest

from cellpilot import (
    EnvOptions,
    Learner,
    NumericError,
    ReplayBuffer,
    TrainingSchedule,
    act,
    backward,
    epsilon,
    forward,
    init_params,
    make_env,
    rmsprop_step,
    substream,
    sync_target,
    td_targets,
    train,
)
from cellpilot.config import _openblas_thread_fns
from cellpilot.harness import write_csv
from cellpilot.qnn import TRAINING_LOG_FIELDS
from conftest import outputs_per_blas_threads, small_config


def _zero_params(in_dim, out_dim, hidden=8, n_blocks=2):
    shaped = init_params(in_dim, out_dim, np.random.default_rng(0), hidden, n_blocks)
    return {name: np.zeros_like(arr) for name, arr in shaped.items()}


# ------------------------------------------------------------------ forward

def test_init_shapes_and_dtype(rng):
    p = init_params(20, 6, rng, hidden=16, n_blocks=2)
    assert list(p) == ["fc0.W", "fc0.b", "fc1.W", "fc1.b",
                       "block0.a.W", "block0.a.b", "block0.b.W", "block0.b.b",
                       "block1.a.W", "block1.a.b", "block1.b.W", "block1.b.b",
                       "out.W", "out.b"]
    assert p["fc0.W"].shape == (16, 20) and p["fc1.W"].shape == (16, 16)
    for i in range(2):
        assert p[f"block{i}.a.W"].shape == (16, 16) and p[f"block{i}.b.W"].shape == (16, 16)
        assert p[f"block{i}.a.b"].shape == (16,) and p[f"block{i}.b.b"].shape == (16,)
    assert p["out.W"].shape == (6, 16)
    for _, arr in p.items():
        assert arr.dtype == np.float64


def test_zero_network_outputs_zero(rng):
    p = _zero_params(5, 3)
    assert np.array_equal(forward(p, rng.random(5)), np.zeros(3))
    assert np.array_equal(forward(p, rng.random((4, 5))), np.zeros((4, 3)))


def test_zeroed_blocks_are_identity(rng):
    # with all residual-block weights zero only the shortcut remains, so
    # the network equals the same net with no blocks at all
    full = init_params(6, 4, rng, hidden=8, n_blocks=2)
    for name, arr in full.items():
        if name.startswith("block"):
            arr[:] = 0.0
    plain = {name: arr for name, arr in full.items() if not name.startswith("block")}
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
    for name, arr in p.items():
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


# ------------------------------------------- float32 against float64 oracle

# Worst |float32 - float64| over max |float64| per output or grad tensor.
# On 20 random 128-wide nets it measured 8.3e-7, about 7 float32 ulps.
F32_REL_TOL = 1e-5


@pytest.mark.parametrize("seed", range(5))
def test_float32_matches_float64_oracle(seed):
    rng = np.random.default_rng(seed)
    in_dim, out_dim = int(rng.integers(10, 60)), int(rng.integers(3, 30))
    p32 = {name: arr.astype(np.float32) for name, arr in
           init_params(in_dim, out_dim, rng, hidden=128, n_blocks=2).items()}
    p64 = {name: arr.astype(np.float64) for name, arr in p32.items()}
    x = rng.random((200, in_dim)).astype(np.float32)
    actions = rng.integers(0, out_dim, size=200)
    targets = (rng.random(200) * 4.0 - 2.0).astype(np.float32)

    q32, q64 = forward(p32, x), forward(p64, x)
    assert q32.dtype == np.float32 and q64.dtype == np.float64
    assert np.abs(q32 - q64).max() <= F32_REL_TOL * np.abs(q64).max()

    g32, loss32 = backward(p32, x, actions, targets)
    g64, loss64 = backward(p64, x, actions, targets)
    assert loss32 == pytest.approx(loss64, rel=F32_REL_TOL)
    assert list(g32) == list(g64)
    for name, g in g32.items():
        assert g.dtype == np.float32, name
        assert g64[name].dtype == np.float64, name
        assert (np.abs(g - g64[name]).max()
                <= F32_REL_TOL * np.abs(g64[name]).max()), name


def test_rmsprop_keeps_param_dtype():
    p = {name: arr.astype(np.float32) for name, arr in _zero_params(3, 2).items()}
    grads = {name: np.full_like(arr, 0.5) for name, arr in p.items()}
    state = {}
    assert rmsprop_step(p, grads, state)
    for name in p:
        assert p[name].dtype == np.float32 and state[name].dtype == np.float32


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
    p["out.b"][0] = 2.0
    t = td_targets(p, np.array([1.0]), np.zeros((1, 4)), discount=0.9)
    assert t[0] == pytest.approx(2.8, rel=1e-15)


def test_target_network_frozen_between_syncs(rng):
    p = init_params(5, 3, rng, hidden=8, n_blocks=1)
    frozen = sync_target(p)
    x = rng.random((4, 5))
    r = rng.random(4)
    before = td_targets(frozen, r, x, 0.9)
    for _, arr in p.items():  # perturb the live network
        arr += rng.random(arr.shape)
    after = td_targets(frozen, r, x, 0.9)
    assert np.array_equal(before, after)
    # a fresh sync picks up the perturbation
    resynced = td_targets(sync_target(p), r, x, 0.9)
    assert not np.array_equal(before, resynced)


# ------------------------------------------------------------------ rmsprop

def test_rmsprop_worked_example():
    p = _zero_params(2, 2, hidden=4, n_blocks=1)
    for _, arr in p.items():
        arr[:] = 1.0
    grads = {name: np.ones_like(arr) for name, arr in p.items()}
    state = {}
    assert rmsprop_step(p, grads, state, lr=1e-3, decay=0.9, eps=1e-8)
    step = 1e-3 / (np.sqrt(0.1) + 1e-8)
    assert step == pytest.approx(3.1623e-3, abs=1e-7)
    for name, arr in p.items():
        assert np.allclose(arr, 1.0 - step, atol=1e-15)
        assert np.allclose(state[name], 0.1, atol=1e-15)


def test_rmsprop_zero_gradient_decays_v():
    p = _zero_params(2, 2, hidden=4, n_blocks=1)
    state = {}
    ones = {name: np.ones_like(arr) for name, arr in p.items()}
    zeros = {name: np.zeros_like(arr) for name, arr in p.items()}
    rmsprop_step(p, ones, state)
    snapshot = {name: arr.copy() for name, arr in p.items()}
    rmsprop_step(p, zeros, state, decay=0.9)
    for name, arr in p.items():
        assert np.array_equal(arr, snapshot[name])
        assert np.allclose(state[name], 0.09, atol=1e-15)


def test_rmsprop_step_magnitude_converges_to_lr():
    p = _zero_params(2, 2, hidden=4, n_blocks=1)
    state = {}
    grads = {name: 2.0 * np.ones_like(arr) for name, arr in p.items()}
    for _ in range(300):
        rmsprop_step(p, grads, state, lr=1e-3, decay=0.9)
    # v has converged to g^2, so the step magnitude approaches lr itself
    before = p["out.b"].copy()
    rmsprop_step(p, grads, state, lr=1e-3, decay=0.9)
    delta = np.abs(p["out.b"] - before).max()
    assert delta == pytest.approx(1e-3, rel=0.02)


def test_rmsprop_skips_nonfinite():
    p = _zero_params(2, 2, hidden=4, n_blocks=1)
    state = {}
    grads = {name: np.ones_like(arr) for name, arr in p.items()}
    grads["out.b"] = np.array([np.nan, 1.0])
    snapshot = {name: arr.copy() for name, arr in p.items()}
    assert not rmsprop_step(p, grads, state)
    for name, arr in p.items():
        assert np.array_equal(arr, snapshot[name])
    assert state == {}


def _subnormal(arr):
    return (arr != 0) & (np.abs(arr) < np.finfo(arr.dtype).tiny)


def test_rmsprop_flush_leaves_the_unflushed_params():
    # accumulators that hold subnormals or decay into them under exact-zero
    # gradients: flushing them to 0 leaves every parameter byte of the
    # textbook update, whose accumulators keep the subnormals
    rng = np.random.default_rng(11)
    n = 4096
    p = {"w": rng.standard_normal(n).astype(np.float32)}
    ref_p = p["w"].copy()
    v = {"w": np.where(rng.random(n) < 0.5, np.float32(1e-40),
                       np.float32(1e-6))}
    ref_v = v["w"].copy()
    subnormals = 0
    for _ in range(1500):
        # most gradients exactly 0, a few of ordinary size, some tiny
        g = np.where(rng.random(n) < 0.97, 0.0,
                     rng.standard_normal(n) * 10.0 ** rng.uniform(-22, -1, n))
        g = g.astype(np.float32)
        assert rmsprop_step(p, {"w": g}, v, lr=1e-3, decay=0.9, eps=1e-8)
        ref_v *= 0.9
        ref_v += (1.0 - 0.9) * g * g
        ref_p -= 1e-3 * g / (np.sqrt(ref_v) + 1e-8)
        subnormals += int(_subnormal(ref_v).sum())
        assert not _subnormal(v["w"]).any()
        assert p["w"].tobytes() == ref_p.tobytes()
    assert subnormals > 0  # the reference did run on subnormals


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
    p["out.b"][1] = 5.0
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
    # train runs in float32 on a cast of the float64 draws
    for (name, arr), (_, ref) in zip(result.params.items(), fresh.items()):
        assert arr.dtype == np.float32, name
        assert np.array_equal(arr, ref.astype(np.float32)), name
    assert all(row["loss"] is None for row in result.rows)


def test_train_bit_identical_logs():
    logs = []
    for _ in range(2):
        env = _tiny_env(seed=2)
        result = train(env, _TINY_SCHED, total_steps=40, seed=2)
        logs.append(result.rows)
    assert logs[0] == logs[1]


def test_train_updates_and_syncs():
    env = _tiny_env(seed=3)
    result = train(env, _TINY_SCHED, total_steps=40, seed=3)
    assert any(row["loss"] is not None for row in result.rows)
    synced_at = [row["step"] for row in result.rows if row["synced"]]
    assert synced_at == [9, 19, 29, 39]  # every target_sync_period steps
    assert result.skipped_updates == 0
    assert len(result.rows) == 40


def test_learner_steps_are_train():
    # train is a Learner stepped total_steps times; each step returns the
    # row it appends
    learner = Learner(_tiny_env(seed=3), _TINY_SCHED, seed=3)
    returned = [learner.step() for _ in range(40)]
    result = train(_tiny_env(seed=3), _TINY_SCHED, total_steps=40, seed=3)
    assert returned == learner.rows == result.rows
    assert [row["step"] for row in returned] == list(range(40))
    assert learner.skipped_updates == result.skipped_updates
    for name, arr in result.params.items():
        assert np.array_equal(learner.params[name], arr), name


def test_training_log_csv_format(tmp_path):
    env = _tiny_env(seed=6)
    result = train(env, _TINY_SCHED, total_steps=20, seed=6)
    path = tmp_path / "log.csv"
    write_csv(path, TRAINING_LOG_FIELDS, result.rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,epsilon,explored,loss,reward,r1,r2,r3,g_max,action,synced"
    assert len(lines) == 21
    first = lines[1].split(",")
    assert first[0] == "0" and first[3] == ""  # warm-up rows carry no loss


_TRAIN_SCRIPT = """
import sys
import numpy as np
sys.path[:0] = sys.argv[1:]
from cellpilot import EnvOptions, TrainingSchedule, make_env, train
from conftest import outputs_per_blas_threads, small_config
env = make_env(small_config(L=3, K=3, M=16),
               EnvOptions(redraw="smallscale", threshold_samples=50), 8)
sched = TrainingSchedule(batch_size=128, replay_capacity=256,
                         target_sync_period=20)
result = train(env, sched, total_steps=160, seed=8)
print(repr(result.rows))
for name, arr in result.params.items():
    print(name, arr.dtype, arr.tobytes().hex())
"""


def test_train_independent_of_blas_threads():
    # the float32 matmuls of a full-width net on full batches must not
    # depend on how many threads OpenBLAS splits them over
    default, single = outputs_per_blas_threads(_TRAIN_SCRIPT)
    assert "float32" in default and "'loss': None" in default
    assert default == single


def test_train_leaves_no_subnormal_accumulator(monkeypatch):
    # long enough that dead units' accumulators decay past 1e-38 unflushed
    accumulators = []

    def spy(params, grads, v, **kw):
        accumulators.append(v)
        return rmsprop_step(params, grads, v, **kw)

    monkeypatch.setattr("cellpilot.qnn.rmsprop_step", spy)
    train(_tiny_env(seed=5), _TINY_SCHED, total_steps=1500, seed=5)
    v = accumulators[-1]
    assert all(acc is v for acc in accumulators)  # updated in place
    assert {arr.dtype for arr in v.values()} == {np.dtype(np.float32)}
    for name, acc in v.items():
        assert not _subnormal(acc).any(), name


def test_openblas_thread_functions_found():
    # a renamed symbol fails here instead of silently unpinning train
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in str(blas.get("name")).lower():
        pytest.skip(f"numpy's BLAS is {blas.get('name')}")
    assert _openblas_thread_fns() is not None


def test_train_holds_one_blas_thread(two_blas_threads):
    counts, env = [], _tiny_env(seed=4)
    real = env.step

    def step(action):
        counts.append(two_blas_threads())
        return real(action)

    env.step = step
    train(env, _TINY_SCHED, total_steps=20, seed=4)
    assert counts == [1] * 20
    assert two_blas_threads() == 2  # the caller's count is back


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_train_restores_blas_threads_on_error(two_blas_threads):
    sched = dataclasses.replace(_TINY_SCHED, learning_rate=1e30)
    with pytest.raises(NumericError):
        train(_tiny_env(seed=4), sched, total_steps=100, seed=4)
    assert two_blas_threads() == 2


@pytest.mark.parametrize("eps", [0.0, 1.0])
def test_rows_record_exploration(eps):
    # with the rate pinned at 1 every action is a random one, at 0 none is
    sched = dataclasses.replace(_TINY_SCHED, eps_start=eps, eps_floor=eps)
    result = train(_tiny_env(seed=7), sched, total_steps=20, seed=7)
    assert [row["explored"] for row in result.rows] == [eps == 1.0] * 20
