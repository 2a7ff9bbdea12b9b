"""Action-value network and learning loop, implemented directly on numpy.

The network is a residual MLP: two fully connected hidden layers feeding a
stack of two-layer residual blocks with identity shortcuts, then a linear
head with one output per action. Gradients are exact reverse-mode
derivatives of the squared TD error, which keeps them checkable against
finite differences.

`forward`, `backward` and `rmsprop_step` compute in the dtype of the
parameters they are given. A `Learner` runs the network in float32: it casts
the float64 initial draws once, and the states it acts on and replays are
float32. Float64 parameters give the float64 reference of the same net.
"""

from __future__ import annotations

import numpy as np

from .config import NumericError, TrainingSchedule, _check_bytes, _one_blas_thread, substream


def init_params(
    in_dim: int,
    out_dim: int,
    rng: np.random.Generator,
    hidden: int = 128,
    n_blocks: int = 2,
) -> dict:
    """Scaled-uniform fan-in initialization, drawn in float64.

    A Learner casts the draws to float32 once, so the stream of draws does
    not depend on the training precision.

    Returns {name: array} in forward order: fc0.W, fc0.b, fc1.*, then
    block{i}.a.* and block{i}.b.* per residual block, then out.W, out.b.
    W shapes are (out, in).
    """
    shapes = [("fc0", hidden, in_dim), ("fc1", hidden, hidden)]
    for i in range(n_blocks):
        shapes += [(f"block{i}.a", hidden, hidden), (f"block{i}.b", hidden, hidden)]
    shapes.append(("out", out_dim, hidden))
    params = {}
    for layer, n_out, n_in in shapes:
        bound = 1.0 / np.sqrt(n_in)
        params[layer + ".W"] = rng.uniform(-bound, bound, size=(n_out, n_in))
        params[layer + ".b"] = rng.uniform(-bound, bound, size=n_out)
    return params


def _depth(params: dict) -> tuple[int, int]:
    """(fully connected layers, residual blocks) named in params."""
    return (sum(name.startswith("fc") for name in params) // 2,
            sum(name.startswith("block") for name in params) // 4)


def _dtype(params: dict) -> np.dtype:
    """The dtype every computation on params runs in."""
    return params["out.W"].dtype


def _forward_cached(params: dict, x: np.ndarray):
    n_fc, n_blocks = _depth(params)
    h = x
    fc_cache = []
    for i in range(n_fc):
        pre = h @ params[f"fc{i}.W"].T + params[f"fc{i}.b"]
        h = np.maximum(pre, 0.0)
        fc_cache.append((pre, h))
    block_cache = []
    for i in range(n_blocks):
        h_in = h
        pa = h_in @ params[f"block{i}.a.W"].T + params[f"block{i}.a.b"]
        za = np.maximum(pa, 0.0)
        pb = za @ params[f"block{i}.b.W"].T + params[f"block{i}.b.b"]
        zb = np.maximum(pb, 0.0)
        h = zb + h_in          # identity shortcut
        block_cache.append((h_in, pa, za, pb))
    q = h @ params["out.W"].T + params["out.b"]
    return q, (x, fc_cache, block_cache, h)


def forward(params: dict, x: np.ndarray) -> np.ndarray:
    """Action values for one feature vector (F,) or a batch (N, F).

    x is cast to the dtype of params, and so are the values.
    """
    x = np.asarray(x, dtype=_dtype(params))
    single = x.ndim == 1
    q, _ = _forward_cached(params, np.atleast_2d(x))
    return q[0] if single else q


def backward(
    params: dict,
    x: np.ndarray,
    actions: np.ndarray,
    targets: np.ndarray,
) -> tuple[dict, float]:
    """Gradients of the mean squared TD error over a batch.

    Loss = mean_b (target_b - q(x_b)[action_b])^2. Only the selected action
    head receives error signal. Returns ({name: grad}, loss). x, targets
    and the grads take the dtype of params.
    """
    dtype = _dtype(params)
    x = np.atleast_2d(np.asarray(x, dtype=dtype))
    actions = np.atleast_1d(actions)
    targets = np.atleast_1d(np.asarray(targets, dtype=dtype))
    N = x.shape[0]
    q, (x0, fc_cache, block_cache, h_last) = _forward_cached(params, x)
    picked = q[np.arange(N), actions]
    err = targets - picked
    loss = float(np.mean(err ** 2))

    gq = np.zeros_like(q)
    gq[np.arange(N), actions] = -2.0 * err / N

    grads = {}
    grads["out.W"] = gq.T @ h_last
    grads["out.b"] = gq.sum(axis=0)
    gh = gq @ params["out.W"]
    for i in range(len(block_cache) - 1, -1, -1):
        h_in, pa, za, pb = block_cache[i]
        gpb = gh * (pb > 0)
        grads[f"block{i}.b.W"] = gpb.T @ za
        grads[f"block{i}.b.b"] = gpb.sum(axis=0)
        gza = gpb @ params[f"block{i}.b.W"]
        gpa = gza * (pa > 0)
        grads[f"block{i}.a.W"] = gpa.T @ h_in
        grads[f"block{i}.a.b"] = gpa.sum(axis=0)
        gh = gh + gpa @ params[f"block{i}.a.W"]  # shortcut plus activation path
    for i in range(len(fc_cache) - 1, -1, -1):
        pre, _ = fc_cache[i]
        gpre = gh * (pre > 0)
        inp = fc_cache[i - 1][1] if i > 0 else x0
        grads[f"fc{i}.W"] = gpre.T @ inp
        grads[f"fc{i}.b"] = gpre.sum(axis=0)
        if i > 0:  # the input itself takes no gradient
            gh = gpre @ params[f"fc{i}.W"]
    return grads, loss


def td_targets(
    target_params: dict,
    rewards: np.ndarray,
    next_x: np.ndarray,
    discount: float,
) -> np.ndarray:
    """Bootstrapped targets r + discount * max_a q_target(s', a)."""
    q_next = forward(target_params, np.atleast_2d(next_x))
    return np.asarray(rewards, dtype=float) + discount * q_next.max(axis=1)


def sync_target(params: dict) -> dict:
    """Frozen deep copy used for bootstrapping between syncs."""
    return {name: arr.copy() for name, arr in params.items()}


def rmsprop_step(
    params: dict,
    grads: dict,
    v: dict,
    lr: float = 1e-3,
    decay: float = 0.9,
    eps: float = 1e-8,
) -> bool:
    """In-place RMSprop update; skipped entirely on non-finite gradients.

    v holds one second-moment accumulator per parameter name and starts
    each at zeros the first time that name is updated.
    v <- decay*v + (1-decay)*g^2;  p <- p - lr * g / (sqrt(v) + eps).
    Returns True when the step was applied. The arithmetic stays in each
    parameter's dtype.

    Entries of v that fall below the dtype's smallest normal number are
    set to 0. An entry whose gradient stays 0 decays into the subnormal
    range, where x86 arithmetic is many times slower. There sqrt(v) is
    far below half an ulp of eps, so the step on p is unchanged.
    """
    for g in grads.values():
        if not np.all(np.isfinite(g)):
            return False
    for name, p in params.items():
        g = grads[name]
        acc = v.get(name)
        if acc is None:
            acc = v[name] = np.zeros_like(p)
        acc *= decay
        acc += (1.0 - decay) * g * g
        np.copyto(acc, 0, where=acc < np.finfo(acc.dtype).tiny)
        p -= lr * g / (np.sqrt(acc) + eps)
    return True


class ReplayBuffer:
    """Fixed-capacity FIFO of (s, a, r, s') transitions, uniform sampling.

    A circular buffer: four arrays allocated on the first push, the slot of
    the oldest transition and the count held. States keep the dtype and
    shape of the first pushed state; actions are int64, rewards float64.
    Arrays above config._BYTES_CAP raise BudgetError before allocation.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._head = 0
        self._count = 0
        self._s = self._a = self._r = self._s2 = None

    def __len__(self):
        return self._count

    def push(self, state, action, reward, next_state):
        state = np.asarray(state)
        if self._s is None:
            _check_bytes(self.capacity * (2 * state.nbytes + 16), "the replay buffer",
                         "[training] replay_capacity")
            self._s = np.empty((self.capacity, *state.shape), dtype=state.dtype)
            self._s2 = np.empty_like(self._s)
            self._a = np.empty(self.capacity, dtype=np.int64)
            self._r = np.empty(self.capacity)
        slot = (self._head + self._count) % self.capacity
        self._s[slot] = state
        self._a[slot] = int(action)
        self._r[slot] = float(reward)
        self._s2[slot] = next_state
        if self._count < self.capacity:
            self._count += 1
        else:  # overwrote the oldest
            self._head = (self._head + 1) % self.capacity

    def ready(self, batch_size: int) -> bool:
        return self._count >= batch_size

    def _slots(self, fifo_idx):
        """Array slots of the given positions in FIFO order (0 = oldest)."""
        return (self._head + fifo_idx) % self.capacity

    def sample(self, batch_size: int, rng: np.random.Generator):
        """batch_size distinct transitions, uniform without replacement.

        Returns None while the buffer holds fewer transitions than requested.
        """
        if not self.ready(batch_size):
            return None
        slots = self._slots(rng.choice(self._count, size=batch_size, replace=False))
        return self._s[slots], self._a[slots], self._r[slots], self._s2[slots]

    def snapshot(self) -> list:
        """The stored (s, a, r, s') tuples, oldest first."""
        return [(self._s[k], int(self._a[k]), float(self._r[k]), self._s2[k])
                for k in self._slots(np.arange(self._count))]


def epsilon(t: int, schedule: TrainingSchedule) -> float:
    """Exploration rate at step t: max(floor, start * decay^t)."""
    return max(schedule.eps_floor, schedule.eps_start * schedule.eps_decay ** t)


def act(
    params: dict,
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
    "step", "epsilon", "explored", "loss", "reward", "r1", "r2", "r3",
    "action", "synced",
)


class Learner:
    """Online Q-learning on the given environment, one step per `step()`.

    Per step: epsilon-greedy action, environment transition, replay push,
    one RMSprop update on a uniform mini-batch once the buffer holds a full
    batch (targets from the frozen copy), and a target sync every
    target_sync_period steps. Everything is driven by substreams of the
    seed, so identical (env, seed) runs produce identical rows. The
    network, its RMSprop state and the replayed states are float32.

    `params` is the network, `skipped_updates` counts the updates dropped
    on non-finite gradients, and `rows` holds one dict per step taken:
    `step`, the dict env.step returned, `epsilon`, `explored` (whether the
    action was a random one), `loss` (None before the first update),
    `action` and `synced`. The worst-user cost after the step is env.step's
    `g_next`. Every TRAINING_LOG_FIELDS and TRAJECTORY_FIELDS column is a
    key, so either file is csv_text of `rows` with its field tuple.
    """

    def __init__(self, env, schedule: TrainingSchedule, seed: int):
        self.env, self.schedule = env, schedule
        self._rng_act = substream(seed, "qnn", "act")
        self._rng_replay = substream(seed, "qnn", "replay")
        self._feats = env.encode().astype(np.float32)
        self.params = {name: arr.astype(np.float32) for name, arr in init_params(
            self._feats.size, env.n_actions, substream(seed, "qnn", "init"),
            hidden=schedule.hidden_width, n_blocks=schedule.residual_blocks).items()}
        self._target = sync_target(self.params)
        self._opt = {}
        self._replay = ReplayBuffer(schedule.replay_capacity)
        self.rows = []
        self.skipped_updates = 0

    def step(self) -> dict:
        """Take the next step and return its row."""
        env, schedule, t = self.env, self.schedule, len(self.rows)
        eps_t = epsilon(t, schedule)
        action, explored = act(self.params, self._feats, eps_t, self._rng_act,
                               env.n_actions)
        row = env.step(action)
        next_feats = env.encode().astype(np.float32)
        self._replay.push(self._feats, action, row["reward"], next_feats)

        loss = None
        batch = self._replay.sample(schedule.batch_size, self._rng_replay)
        if batch is not None:
            s, a, r, s2 = batch
            targets = td_targets(self._target, r, s2, schedule.discount)
            grads, loss = backward(self.params, s, a, targets)
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite training loss at step {t}; "
                    f"|q| max {np.abs(forward(self.params, s)).max():.3e}, "
                    f"reward {row['reward']}, action {action}"
                )
            if not rmsprop_step(self.params, grads, self._opt,
                                lr=schedule.learning_rate,
                                decay=schedule.rms_decay, eps=schedule.rms_eps):
                self.skipped_updates += 1

        # the frozen copy refreshes on a fixed step cadence: steps T, 2T, ...
        synced = (t + 1) % schedule.target_sync_period == 0
        if synced:
            self._target = sync_target(self.params)

        row = {"step": t, **row, "epsilon": eps_t, "explored": explored,
               "loss": loss, "action": action, "synced": synced}
        self.rows.append(row)
        self._feats = next_feats
        return row


@_one_blas_thread()
def train(env, schedule: TrainingSchedule, total_steps: int, seed: int) -> Learner:
    """A Learner on env, stepped total_steps times.

    train holds OpenBLAS at one thread and restores its caller's thread
    count on return or raise. Its matrix products (batch x width x width,
    200 x 128 x 128 by default) gain almost no wall time from a second
    thread, which then spins through the Python work between calls. The
    outputs are the same bytes at any thread count.
    """
    learner = Learner(env, schedule, seed)
    for _ in range(total_steps):
        learner.step()
    return learner
