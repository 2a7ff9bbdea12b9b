"""Command-line entry points: train, baseline, evaluate, experiment."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .assignment import PilotAssignment, baseline_assignment
from .config import (
    BudgetError,
    ConfigError,
    EnvOptions,
    NumericError,
    RateOptions,
    SystemConfig,
    TrainingSchedule,
    _one_blas_thread,
    load_config_file,
    substream,
)
from .contamination import total_costs
from .env import TRAJECTORY_FIELDS, WorldStream, make_env
from .harness import _output_dir, _write_files, csv_text, presets, run_experiment
from .qnn import TRAINING_LOG_FIELDS, train
from .rate import min_rate


def _build_options(config_path: str | None, base: dict | None = None):
    """The base options (a section -> options dict, the defaults if none is
    given), with the keys of the given config file laid on top."""
    opts = base or {"scenario": SystemConfig(), "training": TrainingSchedule(),
                    "env": EnvOptions(), "rate": RateOptions()}
    if config_path:
        opts = load_config_file(config_path, opts)
    return opts["scenario"], opts["training"], opts["env"], opts["rate"]


def cmd_train(args) -> None:
    if args.steps < 1:
        raise ConfigError(f"--steps must be >= 1, got {args.steps}")
    cfg, schedule, env_opts, _ = _build_options(args.config)
    out = Path(args.out)
    with _output_dir(out):
        env = make_env(cfg, env_opts, args.seed)
        result = train(env, schedule, args.steps, args.seed)
    _write_files(out, {
        "training_log.csv": csv_text(TRAINING_LOG_FIELDS, result.rows),
        "trajectory.csv": csv_text(TRAJECTORY_FIELDS, result.rows),
        "assignment.txt": env.assignment.to_text(),
    })
    np.savez(out / "checkpoint.npz", **result.params)
    final = result.rows[-1]
    print(f"trained {args.steps} steps (seed {args.seed}); "
          f"final worst-user cost {final['g_next']:.6g}, "
          f"skipped updates {result.skipped_updates}; outputs in {out}")


def cmd_baseline(args) -> None:
    cfg, _, env_opts, _ = _build_options(args.config)
    worlds = WorldStream(cfg, env_opts.redraw, args.seed)
    method = "spr_like" if args.method == "spr" else args.method
    _, _, g_max, build_files = baseline_assignment(
        method, worlds.world, substream(args.seed, "baseline", method),
        worlds.pairwise, allow_long_run=args.long_run)
    files = build_files()
    assignment_file, *overhead_files = files
    for name in overhead_files:
        print(files[name], end="")
    print(f"{args.method} baseline (seed {args.seed}): worst-user cost {g_max:.6g}")
    if args.out:
        out = Path(args.out)
        with _output_dir(out):
            _write_files(out, files)
        print(f"assignment written to {out / assignment_file}")


def cmd_evaluate(args) -> None:
    cfg, _, env_opts, rate_opts = _build_options(args.config)
    assign = PilotAssignment.from_text(Path(args.assignment).read_text())
    if assign.shape != (cfg.L, cfg.K):
        raise ConfigError(
            f"assignment shape {assign.shape} does not match the configured "
            f"scenario ({cfg.L} cells x {cfg.K} pilots)")
    worlds = WorldStream(cfg, env_opts.redraw, args.seed)
    table = total_costs(worlds.world, assign.pilot_to_user, pairwise=worlds.pairwise)
    cell_max = " ".join(f"{c:.6g}" for c in table.cell_max)
    print(f"worst-user cost {table.global_max:.6g} "
          f"(cell {table.worst_cell}, pilot {table.worst_pilot})")
    print(f"per-cell max cost: {cell_max}")
    if args.rate:
        report, = min_rate(worlds.world, [(assign.user_to_pilot(), cfg.K)],
                           substream(args.seed, "rate", 0), options=rate_opts)
        print(f"min rate {report.min_rate:.6g} bits/s/Hz "
              f"over {report.n_mc} realizations")


def cmd_experiment(args) -> None:
    preset = presets()[args.preset]
    cfg, schedule, env_opts, rate_opts = _build_options(args.config, {
        "scenario": preset.config, "training": preset.schedule,
        "env": preset.env, "rate": preset.rate})
    preset = dataclasses.replace(preset, config=cfg, schedule=schedule,
                                 env=env_opts, rate=rate_opts)
    out = run_experiment(preset, args.seed, args.out, long_run=args.long_run)
    print(f"experiment '{preset.name}' (seed {args.seed}) written to {out}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellpilot",
        description="Multi-cell pilot assignment: learned and baseline "
                    "strategies with a contamination cost model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run the Q-learning loop and save the trained weights")
    p.add_argument("--steps", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None, help="INI file overriding defaults")
    p.add_argument("--out", default="train_out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("baseline", help="compute a non-learned assignment")
    p.add_argument("--method", required=True,
                   choices=("random", "exhaustive", "spr"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--long-run", action="store_true",
                   help="let exhaustive search expand nodes beyond its budget")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("evaluate", help="score a stored assignment on a world")
    p.add_argument("assignment", help="assignment text file (one row per cell)")
    p.add_argument("--seed", type=int, default=0)
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
                   help="lift the exhaustive search's node budget")
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _one_blas_thread():
            args.func(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
