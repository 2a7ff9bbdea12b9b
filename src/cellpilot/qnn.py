"""Action-value network and learning loop, implemented directly on numpy.

The network is a residual MLP: two fully connected hidden layers feeding a
stack of two-layer residual blocks with identity shortcuts, then a linear
head with one output per action. Gradients are exact reverse-mode
derivatives of the squared TD error, which keeps them checkable against
finite differences.
"""

from __future__ import annotations

import collections
import json
from dataclasses import dataclass, field

import numpy as np

from .config import NumericError, TrainingSchedule, substream


@dataclass
class NetworkParams:
    """Weights of the residual Q-network; W shapes are (out, in)."""

    fc: list            # [(W, b), (W, b)] input stack
    blocks: list        # [(Wa, ba, Wb, bb), ...] residual blocks
    out: tuple          # (W, b) linear head

    def named(self):
        """(name, array) pairs in a fixed order."""
        for i, (W, b) in enumerate(self.fc):
            yield f"fc{i}.W", W
            yield f"fc{i}.b", b
        for i, (Wa, ba, Wb, bb) in enumerate(self.blocks):
            yield f"block{i}.a.W", Wa
            yield f"block{i}.a.b", ba
            yield f"block{i}.b.W", Wb
            yield f"block{i}.b.b", bb
        yield "out.W", self.out[0]
        yield "out.b", self.out[1]

    def copy(self) -> "NetworkParams":
        return NetworkParams(
            fc=[(W.copy(), b.copy()) for W, b in self.fc],
            blocks=[tuple(a.copy() for a in blk) for blk in self.blocks],
            out=(self.out[0].copy(), self.out[1].copy()),
        )

    @property
    def in_dim(self) -> int:
        return self.fc[0][0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.out[0].shape[0]


def _uniform_fan_in(rng, out_dim, in_dim):
    bound = 1.0 / np.sqrt(in_dim)
    W = rng.uniform(-bound, bound, size=(out_dim, in_dim))
    b = rng.uniform(-bound, bound, size=out_dim)
    return W, b


def init_params(
    in_dim: int,
    out_dim: int,
    rng: np.random.Generator,
    hidden: int = 128,
    n_blocks: int = 2,
) -> NetworkParams:
    """Scaled-uniform fan-in initialization, double precision throughout."""
    fc = [_uniform_fan_in(rng, hidden, in_dim), _uniform_fan_in(rng, hidden, hidden)]
    blocks = []
    for _ in range(n_blocks):
        Wa, ba = _uniform_fan_in(rng, hidden, hidden)
        Wb, bb = _uniform_fan_in(rng, hidden, hidden)
        blocks.append((Wa, ba, Wb, bb))
    return NetworkParams(fc=fc, blocks=blocks, out=_uniform_fan_in(rng, out_dim, hidden))


def _forward_cached(params: NetworkParams, x: np.ndarray):
    h = x
    fc_cache = []
    for W, b in params.fc:
        pre = h @ W.T + b
        h = np.maximum(pre, 0.0)
        fc_cache.append((pre, h))
    block_cache = []
    for Wa, ba, Wb, bb in params.blocks:
        h_in = h
        pa = h_in @ Wa.T + ba
        za = np.maximum(pa, 0.0)
        pb = za @ Wb.T + bb
        zb = np.maximum(pb, 0.0)
        h = zb + h_in          # identity shortcut
        block_cache.append((h_in, pa, za, pb))
    q = h @ params.out[0].T + params.out[1]
    return q, (x, fc_cache, block_cache, h)


def forward(params: NetworkParams, x: np.ndarray) -> np.ndarray:
    """Action values for one feature vector (F,) or a batch (N, F)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    q, _ = _forward_cached(params, np.atleast_2d(x))
    return q[0] if single else q


def backward(
    params: NetworkParams,
    x: np.ndarray,
    actions: np.ndarray,
    targets: np.ndarray,
) -> tuple[dict, float]:
    """Gradients of the mean squared TD error over a batch.

    Loss = mean_b (target_b - q(x_b)[action_b])^2. Only the selected action
    head receives error signal. Returns ({name: grad}, loss).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    actions = np.atleast_1d(actions)
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    N = x.shape[0]
    q, (x0, fc_cache, block_cache, h_last) = _forward_cached(params, x)
    picked = q[np.arange(N), actions]
    err = targets - picked
    loss = float(np.mean(err ** 2))

    gq = np.zeros_like(q)
    gq[np.arange(N), actions] = -2.0 * err / N

    grads = {}
    Wo, _ = params.out
    grads["out.W"] = gq.T @ h_last
    grads["out.b"] = gq.sum(axis=0)
    gh = gq @ Wo
    for i in range(len(params.blocks) - 1, -1, -1):
        Wa, ba, Wb, bb = params.blocks[i]
        h_in, pa, za, pb = block_cache[i]
        gpb = gh * (pb > 0)
        grads[f"block{i}.b.W"] = gpb.T @ za
        grads[f"block{i}.b.b"] = gpb.sum(axis=0)
        gza = gpb @ Wb
        gpa = gza * (pa > 0)
        grads[f"block{i}.a.W"] = gpa.T @ h_in
        grads[f"block{i}.a.b"] = gpa.sum(axis=0)
        gh = gh + gpa @ Wa     # shortcut plus activation path
    for i in range(len(params.fc) - 1, -1, -1):
        W, _ = params.fc[i]
        pre, _ = fc_cache[i]
        gpre = gh * (pre > 0)
        inp = fc_cache[i - 1][1] if i > 0 else x0
        grads[f"fc{i}.W"] = gpre.T @ inp
        grads[f"fc{i}.b"] = gpre.sum(axis=0)
        gh = gpre @ W
    return grads, loss


def td_targets(
    target_params: NetworkParams,
    rewards: np.ndarray,
    next_x: np.ndarray,
    discount: float,
) -> np.ndarray:
    """Bootstrapped targets r + discount * max_a q_target(s', a)."""
    q_next = forward(target_params, np.atleast_2d(next_x))
    return np.asarray(rewards, dtype=float) + discount * q_next.max(axis=1)


def sync_target(params: NetworkParams) -> NetworkParams:
    """Frozen deep copy used for bootstrapping between syncs."""
    return params.copy()


@dataclass
class RmsPropState:
    """Second-moment accumulators, one per parameter tensor."""

    v: dict = field(default_factory=dict)


def rmsprop_step(
    params: NetworkParams,
    grads: dict,
    state: RmsPropState,
    lr: float = 1e-3,
    decay: float = 0.9,
    eps: float = 1e-8,
) -> bool:
    """In-place RMSprop update; skipped entirely on non-finite gradients.

    v <- decay*v + (1-decay)*g^2;  p <- p - lr * g / (sqrt(v) + eps).
    Returns True when the step was applied.
    """
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            return False
    for name, p in params.named():
        g = grads[name]
        v = state.v.get(name)
        if v is None:
            v = np.zeros_like(p)
            state.v[name] = v
        v *= decay
        v += (1.0 - decay) * g * g
        p -= lr * g / (np.sqrt(v) + eps)
    return True


class ReplayBuffer:
    """Fixed-capacity FIFO of (s, a, r, s') transitions, uniform sampling."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._store = collections.deque(maxlen=capacity)

    def __len__(self):
        return len(self._store)

    def push(self, state, action, reward, next_state):
        self._store.append((state, int(action), float(reward), next_state))

    def ready(self, batch_size: int) -> bool:
        return len(self._store) >= batch_size

    def sample(self, batch_size: int, rng: np.random.Generator):
        """batch_size distinct transitions, uniform without replacement.

        Returns None while the buffer holds fewer transitions than requested.
        """
        if not self.ready(batch_size):
            return None
        idx = rng.choice(len(self._store), size=batch_size, replace=False)
        items = [self._store[i] for i in idx]
        s = np.stack([it[0] for it in items])
        a = np.array([it[1] for it in items])
        r = np.array([it[2] for it in items])
        s2 = np.stack([it[3] for it in items])
        return s, a, r, s2

    def snapshot(self) -> list:
        return list(self._store)


def epsilon(t: int, schedule: TrainingSchedule) -> float:
    """Exploration rate at step t: max(floor, start * decay^t)."""
    return max(schedule.eps_floor, schedule.eps_start * schedule.eps_decay ** t)


def act(
    params: NetworkParams,
    features: np.ndarray,
    eps: float,
    rng: np.random.Generator,
    n_actions: int,
) -> tuple[int, bool]:
    """Epsilon-greedy action; greedy ties resolve to the lowest index."""
    if rng.random() < eps:
        return int(rng.integers(n_actions)), True
    return int(np.argmax(forward(params, features))), False


TRAINING_LOG_FIELDS = (
    "step", "epsilon", "loss", "reward", "r1", "r2", "r3",
    "g_max", "action", "synced",
)


@dataclass
class TrainResult:
    params: NetworkParams
    target_params: NetworkParams
    opt_state: RmsPropState
    replay: ReplayBuffer
    log_rows: list
    trajectory_rows: list
    skipped_updates: int


def train(
    env,
    schedule: TrainingSchedule,
    total_steps: int,
    seed: int,
    step_callback=None,
) -> TrainResult:
    """Online Q-learning on the given environment.

    Per step: epsilon-greedy action, environment transition, replay push,
    one RMSprop update on a uniform mini-batch once the buffer holds a full
    batch (targets from the frozen copy), and a target sync every
    target_sync_period updates. Everything is driven by substreams of the
    seed, so identical (env, seed) runs produce identical logs.
    """
    rng_init = substream(seed, "qnn", "init")
    rng_act = substream(seed, "qnn", "act")
    rng_replay = substream(seed, "qnn", "replay")

    params = init_params(env.encode().size, env.n_actions, rng_init,
                         hidden=schedule.hidden_width,
                         n_blocks=schedule.residual_blocks)
    target = sync_target(params)
    opt = RmsPropState()
    replay = ReplayBuffer(schedule.replay_capacity)

    log_rows = []
    traj_rows = []
    skipped = 0
    for t in range(total_steps):
        feats = env.encode()
        pre_state = env.state
        eps_t = epsilon(t, schedule)
        action, _ = act(params, feats, eps_t, rng_act, env.n_actions)
        outcome = env.step(action)
        next_feats = env.encode()
        replay.push(feats, action, outcome.reward, next_feats)

        loss = None
        batch = replay.sample(schedule.batch_size, rng_replay)
        if batch is not None:
            s, a, r, s2 = batch
            targets = td_targets(target, r, s2, schedule.discount)
            grads, loss = backward(params, s, a, targets)
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite training loss at step {t}; "
                    f"|q| max {np.abs(forward(params, s)).max():.3e}, "
                    f"reward {outcome.reward}, action {action}"
                )
            if not rmsprop_step(params, grads, opt, lr=schedule.learning_rate,
                                decay=schedule.rms_decay, eps=schedule.rms_eps):
                skipped += 1

        # the frozen copy refreshes on a fixed step cadence: steps T, 2T, ...
        synced = (t + 1) % schedule.target_sync_period == 0
        if synced:
            target = sync_target(params)

        log_rows.append({
            "step": t, "epsilon": eps_t, "loss": loss, "reward": outcome.reward,
            "r1": outcome.r1, "r2": outcome.r2, "r3": outcome.r3,
            "g_max": outcome.global_max, "action": action, "synced": synced,
        })
        traj_rows.append({
            "step": t, "action_cell": outcome.action_cell,
            "action_pilot": outcome.action_pilot,
            "action_taken": outcome.action_taken,
            "g_prev": outcome.g_prev, "g_next": outcome.g_next,
            "r1": outcome.r1, "r2": outcome.r2, "r3": outcome.r3,
            "reward": outcome.reward,
            "worst_pilot": pre_state.worst_pilot,
            "worst_cell": pre_state.worst_cell,
        })
        if step_callback is not None:
            step_callback(t, env)
    return TrainResult(params=params, target_params=target, opt_state=opt,
                       replay=replay, log_rows=log_rows, trajectory_rows=traj_rows,
                       skipped_updates=skipped)


def write_training_log_csv(rows: list, path: str):
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=TRAINING_LOG_FIELDS)
        writer.writeheader()
        for row in rows:
            out = dict(row)
            out["epsilon"] = f"{row['epsilon']:.17g}"
            out["loss"] = "" if row["loss"] is None else f"{row['loss']:.17g}"
            out["g_max"] = f"{row['g_max']:.17g}"
            out["synced"] = int(row["synced"])
            writer.writerow(out)


CHECKPOINT_VERSION = 1


def save_checkpoint(
    path: str,
    params: NetworkParams,
    opt_state: RmsPropState,
    step: int,
    rng: np.random.Generator,
):
    """Weights, optimizer state, step counter and the state of one RNG.

    `cellpilot train` passes env.rng. The action and replay streams, the
    replay buffer, the target network and the environment state are not
    stored, so resuming from this file does not reproduce an
    uninterrupted run bit for bit.
    """
    payload = {
        "version": np.array(CHECKPOINT_VERSION),
        "step": np.array(step),
        "meta": np.frombuffer(json.dumps({
            "n_fc": len(params.fc), "n_blocks": len(params.blocks),
        }).encode(), dtype=np.uint8),
        "rng_state": np.frombuffer(
            json.dumps(rng.bit_generator.state).encode(), dtype=np.uint8),
    }
    for name, arr in params.named():
        payload["param__" + name.replace(".", "_")] = arr
    for name, arr in opt_state.v.items():
        payload["opt__" + name.replace(".", "_")] = arr
    np.savez(path, **payload)


def load_checkpoint(path: str):
    """Inverse of save_checkpoint: (params, opt_state, step, rng)."""
    data = np.load(path)
    version = int(data["version"])
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    meta = json.loads(bytes(data["meta"]).decode())

    def take(name):
        return data["param__" + name.replace(".", "_")].astype(float)

    fc = [(take(f"fc{i}.W"), take(f"fc{i}.b")) for i in range(meta["n_fc"])]
    blocks = [tuple(take(f"block{i}.{part}") for part in ("a.W", "a.b", "b.W", "b.b"))
              for i in range(meta["n_blocks"])]
    params = NetworkParams(fc=fc, blocks=blocks, out=(take("out.W"), take("out.b")))
    opt = RmsPropState()
    for key in data.files:
        if key.startswith("opt__"):
            name = key[len("opt__"):]
            for pname, _ in params.named():
                if pname.replace(".", "_") == name:
                    opt.v[pname] = data[key].astype(float)
                    break
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = json.loads(bytes(data["rng_state"]).decode())
    return params, opt, int(data["step"]), rng
