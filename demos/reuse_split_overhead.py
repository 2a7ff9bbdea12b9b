"""Pilot overhead of the reuse-split baseline.

Edge users get dedicated cluster-wide pilots, which removes their
contamination entirely but stretches the pilot block. Prints the full
overhead report for the reference 7-cell scenario and a sweep over the
edge ratio.
"""

from cellpilot import SystemConfig, fresh_world, spr_like_assignment, substream

SEED = 0
CFG = SystemConfig(L=7, K=4, M=64)


def main():
    world = fresh_world(CFG, substream(SEED, "world"))
    user_to_pilot, report = spr_like_assignment(world, edge_ratio=1.0 / 3.0)
    print(report)
    print(f"\npilot map ({report.required_pilots} pilots):")
    for l, row in enumerate(user_to_pilot):
        print(f"  cell {l}: " + " ".join(f"{p:2d}" for p in row))

    print("\nedge ratio sweep:")
    print("  edge:central   pilots   total vs baseline")
    for ratio in (0.0, 1.0 / 3.0, 1.0, 3.0):
        _, rep = spr_like_assignment(world, edge_ratio=ratio)
        print(f"  {ratio:12.2f}   {rep.required_pilots:6d}   {rep.total_pct:12.0f}%")


if __name__ == "__main__":
    main()
