"""Command-line entry points: train, baseline, evaluate, experiment, plotdata."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .assignment import PilotAssignment, baseline_assignment
from .config import (
    BudgetError,
    ConfigError,
    EnvOptions,
    NumericError,
    RateOptions,
    SystemConfig,
    TrainingSchedule,
    load_config_file,
    substream,
)
from .contamination import extended_user_costs, pairwise_cost_matrix, total_costs
from .env import TRAJECTORY_FIELDS, make_env
from .harness import emit_plot_data, presets, run_experiment, write_csv
from .qnn import TRAINING_LOG_FIELDS, save_checkpoint, train
from .rate import min_rate
from .scenario import fresh_world


def _build_options(config_path: str | None):
    """Defaults, with the keys of the given config file laid on top."""
    opts = {"scenario": SystemConfig(), "training": TrainingSchedule(),
            "env": EnvOptions(), "rate": RateOptions()}
    if config_path:
        opts = load_config_file(config_path, opts)
    return opts["scenario"], opts["training"], opts["env"], opts["rate"]


def _seed(args, cfg: SystemConfig) -> int:
    return args.seed if args.seed is not None else cfg.seed


def cmd_train(args) -> None:
    cfg, schedule, env_opts, _ = _build_options(args.config)
    seed = _seed(args, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    env = make_env(cfg, env_opts, seed)
    result = train(env, schedule, args.steps, seed)
    write_csv(out / "training_log.csv", TRAINING_LOG_FIELDS, result.log_rows)
    write_csv(out / "trajectory.csv", TRAJECTORY_FIELDS, result.trajectory_rows)
    save_checkpoint(str(out / "checkpoint.npz"), result.params,
                    result.opt_state, args.steps, env.rng)
    (out / "assignment.txt").write_text(env.assignment.to_text())
    final = result.log_rows[-1]
    print(f"trained {args.steps} steps (seed {seed}); "
          f"final worst-user cost {final['g_max']:.6g}, "
          f"skipped updates {result.skipped_updates}; outputs in {out}")


def cmd_baseline(args) -> None:
    cfg, _, _, _ = _build_options(args.config)
    seed = _seed(args, cfg)
    world = fresh_world(cfg, substream(seed, "world"))
    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)

    method = "spr_like" if args.method == "spr" else args.method
    pairwise = pairwise_cost_matrix(world)
    u2p, _, text, report = baseline_assignment(
        method, world, substream(seed, "baseline", method), pairwise,
        allow_long_run=args.long_run)
    _, g_max = extended_user_costs(world, u2p, pairwise=pairwise)
    if report is not None:
        print(report)
    print(f"{args.method} baseline (seed {seed}): worst-user cost {g_max:.6g}")
    if out:
        name = f"assignment_{method}.txt"
        (out / name).write_text(text)
        if report is not None:
            (out / "overhead_spr_like.txt").write_text(str(report) + "\n")
        print(f"assignment written to {out / name}")


def cmd_evaluate(args) -> None:
    cfg, _, _, rate_opts = _build_options(args.config)
    seed = _seed(args, cfg)
    assign = PilotAssignment.from_text(Path(args.assignment).read_text())
    if assign.shape != (cfg.L, cfg.K):
        raise ConfigError(
            f"assignment shape {assign.shape} does not match the configured "
            f"scenario ({cfg.L} cells x {cfg.K} pilots)")
    world = fresh_world(cfg, substream(seed, "world"))
    table = total_costs(world, assign.pilot_to_user)
    cell_max = " ".join(f"{c:.6g}" for c in table.cell_max)
    print(f"worst-user cost {table.global_max:.6g} "
          f"(cell {table.worst_cell}, pilot {table.worst_pilot})")
    print(f"per-cell max cost: {cell_max}")
    if args.rate:
        report = min_rate(world, assign.user_to_pilot(), cfg.K,
                          substream(seed, "rate", 0), options=rate_opts)
        print(f"min rate {report.min_rate:.6g} bits/s/Hz "
              f"over {report.n_mc} realizations")


def cmd_experiment(args) -> None:
    preset = presets()[args.preset]
    if args.config:
        opts = load_config_file(args.config, {
            "scenario": preset.config, "training": preset.schedule,
            "env": preset.env, "rate": preset.rate})
        preset = dataclasses.replace(
            preset, config=opts["scenario"], schedule=opts["training"],
            env=opts["env"], rate=opts["rate"])
    out = run_experiment(preset, args.seed, args.out, long_run=args.long_run)
    print(f"experiment '{preset.name}' (seed {args.seed}) written to {out}")


def cmd_plotdata(args) -> None:
    plots = emit_plot_data(args.dir)
    print(f"plot tables written to {plots}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellpilot",
        description="Multi-cell pilot assignment: learned and baseline "
                    "strategies with a contamination cost model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run the Q-learning loop and checkpoint it")
    p.add_argument("--steps", type=int, default=5000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None, help="INI file overriding defaults")
    p.add_argument("--out", default="train_out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("baseline", help="compute a non-learned assignment")
    p.add_argument("--method", required=True,
                   choices=("random", "exhaustive", "spr"))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--long-run", action="store_true",
                   help="allow exhaustive search beyond the candidate budget")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("evaluate", help="score a stored assignment on a world")
    p.add_argument("assignment", help="assignment text file (one row per cell)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--rate", action="store_true",
                   help="also run the Monte-Carlo rate benchmark")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("experiment", help="run all methods of a preset")
    p.add_argument("--preset", required=True, choices=sorted(presets()))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--long-run", action="store_true",
                   help="also run methods gated for compute (exhaustive at scale)")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("plotdata", help="emit tidy plot tables from a run dir")
    p.add_argument("dir")
    p.set_defaults(func=cmd_plotdata)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
