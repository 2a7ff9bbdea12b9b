"""Short Q-learning run on a small cluster.

Trains the swap agent for a thousand steps, prints the exploration rate,
loss, negative-reward ratio, and worst-user cost per 100-step block, and
compares the final cost against the exhaustive optimum of the same drop.
"""

import numpy as np

from cellpilot import (
    EnvOptions,
    SystemConfig,
    TrainingSchedule,
    exhaustive_search,
    fresh_world,
    make_env,
    substream,
    train,
)

SEED = 0
STEPS = 1000
CFG = SystemConfig(L=3, K=3, M=32, scatter_radius=30.0, exclusion_radius=150.0)
SCHED = TrainingSchedule(eps_decay=0.995, batch_size=64, replay_capacity=256,
                         hidden_width=64, target_sync_period=50)
OPTS = EnvOptions(redraw="smallscale", threshold_samples=500,
                  q_low=0.01, q_high=0.1)


def main():
    env = make_env(CFG, OPTS, SEED)
    result = train(env, SCHED, STEPS, SEED)

    print(f"{STEPS} steps on a fixed drop ({CFG.L} cells x {CFG.K} pilots)\n")
    print(" block   epsilon    loss    neg-reward ratio   mean worst cost")
    rows = result.rows
    for start in range(0, STEPS, 100):
        block = rows[start:start + 100]
        losses = [r["loss"] for r in block if r["loss"] is not None]
        neg = np.mean([r["reward"] < 0 for r in block])
        worst = np.mean([r["g_next"] for r in block])
        loss_txt = f"{np.mean(losses):7.4f}" if losses else "   --  "
        print(f"  {start:4d}   {block[0]['epsilon']:7.4f}  {loss_txt} "
              f"  {neg:16.2f}   {worst:15.3f}")

    world = fresh_world(CFG, substream(SEED, "world"))
    _, table = exhaustive_search(world)
    final = rows[-1]["g_next"]
    print(f"\nfinal worst-user cost {final:.3f} vs exhaustive optimum "
          f"{table.global_max:.3f}")
    print(f"skipped optimizer updates: {result.skipped_updates}")


if __name__ == "__main__":
    main()
