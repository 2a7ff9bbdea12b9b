"""Tie contamination costs to uplink rates.

On a two-cell drop whose two assignment classes have sharply different
worst-user costs, runs the Monte-Carlo rate benchmark for both and shows
that the lower-cost assignment carries the higher minimum rate, then
sweeps the pilot SNR.
"""

import numpy as np

from cellpilot import (
    RateOptions,
    SystemConfig,
    extended_user_costs,
    fresh_world,
    min_rate,
    substream,
)

CFG = SystemConfig(L=2, K=2, M=64, scatter_radius=30.0, exclusion_radius=150.0)
SEED = 1
N_MC = 60


def main():
    world = fresh_world(CFG, substream(SEED, "world"))
    classes = {
        "aligned (0,1 | 0,1)": np.array([[0, 1], [0, 1]]),
        "swapped (0,1 | 1,0)": np.array([[0, 1], [1, 0]]),
    }
    print("assignment class          worst cost    min rate [b/s/Hz]")
    for label, u2p in classes.items():
        _, cost = extended_user_costs(world, u2p)
        rep, = min_rate(world, [(u2p, CFG.K)], substream(SEED, "rate", label),
                        RateOptions(n_mc=N_MC, paths=25))
        print(f"  {label}   {cost:10.3f}   {rep.min_rate:17.3f}")

    best = min(classes.values(),
               key=lambda u2p: extended_user_costs(world, u2p)[1])
    print("\npilot SNR sweep on the low-cost class:")
    print("  pilot SNR [dB]   min rate [b/s/Hz]")
    for snr_db in (0, 10, 20, 30):
        rep, = min_rate(world, [(best, CFG.K)], substream(SEED, "sweep", snr_db),
                        RateOptions(n_mc=N_MC, paths=25, pilot_snr_db=float(snr_db)))
        print(f"  {snr_db:14d}   {rep.min_rate:17.3f}")


if __name__ == "__main__":
    main()
