"""Walk through the scenario layer: layout, user drop, gains, angular supports.

Builds the full 7-cell cluster, drops users, and prints what base station 0
"sees": serving-link gains against the cell-edge reference, each user's
angular support, and the strongest cross-cell interferer on every link.
"""

import numpy as np

from cellpilot import SystemConfig, fresh_world, substream

SEED = 0


def main():
    cfg = SystemConfig(L=7, K=2, M=64)
    world = fresh_world(cfg, substream(SEED, "world"))

    print("base stations (m):")
    for j, (x, y) in enumerate(world.layout.bs_positions):
        print(f"  BS {j}: ({x:8.1f}, {y:8.1f})")

    edge_snr_db = cfg.gamma_snr_db
    print(f"\ncell-edge SNR reference: {edge_snr_db:.0f} dB at d = {cfg.R:.0f} m")
    print("\nserving links (cell l, user k):")
    print("  l k   dist[m]   gain/noise[dB]   AoA center[deg]   half-width[deg]")
    for l in range(cfg.L):
        for k in range(cfg.K):
            d = np.hypot(*(world.drop.positions[l, k] - world.layout.bs_positions[l]))
            snr_db = 10 * np.log10(world.gains[l, l, k])
            iv = world.interval(l, l, k)
            print(f"  {l} {k}  {d:8.1f}   {snr_db:14.1f}   {np.degrees(iv.center):15.1f}"
                  f"   {np.degrees(iv.half_width):15.2f}")

    print("\nstrongest cross-cell link seen by BS 0:")
    cross = world.gains[0].copy()
    cross[0] = 0.0  # mask own-cell users
    l, k = np.unravel_index(np.argmax(cross), cross.shape)
    print(f"  user ({l},{k}): gain/noise "
          f"{10 * np.log10(cross[l, k]):.1f} dB, support "
          f"[{np.degrees(world.interval(0, l, k).low):.1f}, "
          f"{np.degrees(world.interval(0, l, k).high):.1f}] deg")


if __name__ == "__main__":
    main()
