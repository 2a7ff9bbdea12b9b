"""Compare assignment strategies on small clusters.

For a few user drops: the exhaustive min-max optimum, the best of a
random-probe budget, a single random draw, and the reuse-split scheme
(which buys lower contamination with extra pilots).
"""

import math

from cellpilot import (
    SystemConfig,
    exhaustive_search,
    extended_user_costs,
    fresh_world,
    pairwise_cost_matrix,
    random_assignment,
    spr_like_assignment,
    substream,
    total_costs,
)

CFG = SystemConfig(L=3, K=3, M=64, scatter_radius=30.0, exclusion_radius=150.0)
N_PROBES = 1000
SEEDS = (0, 1, 2, 3)


def main():
    print(f"{CFG.L} cells, {CFG.K} pilots, {CFG.M} antennas; "
          f"worst-user contamination cost per strategy\n")
    print(" seed   exhaustive   best of "
          f"{N_PROBES} random   single random   reuse-split (pilots)")
    for seed in SEEDS:
        world = fresh_world(CFG, substream(seed, "world"))
        pairwise = pairwise_cost_matrix(world)

        _, table = exhaustive_search(world, pairwise=pairwise)
        rng = substream(seed, "probe")
        best_probe = min(
            total_costs(world, random_assignment(CFG.L, CFG.K, rng).pilot_to_user,
                        pairwise=pairwise).global_max
            for _ in range(N_PROBES))
        single = total_costs(
            world, random_assignment(CFG.L, CFG.K, substream(seed, "one")).pilot_to_user,
            pairwise=pairwise).global_max
        split_map, report = spr_like_assignment(world)
        _, split_cost = extended_user_costs(world, split_map, pairwise=pairwise)
        print(f"  {seed}    {table.global_max:9.3f}   {best_probe:20.3f}"
              f"   {single:13.3f}   {split_cost:10.3f} ({report.required_pilots})")

    print("\nexhaustive search: exact branch-and-bound over the "
          "(K!)^(L-1) assignment classes; "
          f"here {math.factorial(CFG.K) ** (CFG.L - 1)}.")


if __name__ == "__main__":
    main()
