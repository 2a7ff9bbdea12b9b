"""Experiment presets, method runners, result files, and plot-data tables.

An experiment runs several assignment methods (learned and baselines) on
identical world streams and writes everything as plain CSV plus a JSON
manifest. Nothing here plots; the tidy tables in plots/ are meant to be
fed straight into any plotting tool.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .assignment import baseline_assignment
from .config import (
    PACKAGE_VERSION,
    ConfigError,
    EnvOptions,
    RateOptions,
    SystemConfig,
    TrainingSchedule,
    substream,
)
from .contamination import extended_user_costs
from .env import TRAJECTORY_FIELDS, WorldStream, make_env
from .qnn import TRAINING_LOG_FIELDS, TrainResult, train
from .rate import min_rate, moving_average

METHODS = ("drl", "random", "exhaustive", "spr_like")

# Window, in environment steps, for the short-term moving averages.
SHORT_TERM_STEPS = 50

# Columns of results.csv, costs.csv and the plots/ tables.
RESULTS_FIELDS = ("method", "seed", "step", "min_rate", "overhead_factor")
COSTS_FIELDS = ("method", "seed", "step", "global_max")
PLOT_FIELDS = ("step", "series", "value")


@dataclass
class ExperimentPreset:
    """A complete, named experiment recipe."""

    name: str
    config: SystemConfig
    schedule: TrainingSchedule
    env: EnvOptions
    rate: RateOptions
    methods: tuple
    total_steps: int
    # methods only run when the caller passes long_run=True (compute gated)
    long_run_methods: tuple = ()

    def __post_init__(self):
        names = tuple(self.methods) + tuple(self.long_run_methods)
        for m in names:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; choose from {METHODS}")
        if not self.methods or len(set(names)) < len(names):
            raise ConfigError(f"methods must be non-empty and distinct, got {names}")
        if self.total_steps < 1:
            raise ConfigError("total_steps must be >= 1")

    def active_methods(self, long_run: bool = False) -> tuple:
        return tuple(self.methods) + (tuple(self.long_run_methods) if long_run else ())


def presets() -> dict:
    """Built-in experiment recipes.

    `desk` is sized so that every method, including the exhaustive search,
    runs in minutes on one core; it drives the acceptance suite. `full`
    is the full-scale seven-cell scenario; its exhaustive search space
    holds (4!)^6 ~ 1.9e8 candidates, over the search budget, so it is
    gated behind the long-run flag.
    """
    desk = ExperimentPreset(
        name="desk",
        # The wider exclusion disk keeps users away from the extreme
        # near-BS regime where one user's cost dwarfs (and so hides) every
        # assignment decision.
        config=SystemConfig(L=3, K=3, M=64, scatter_radius=30.0,
                            exclusion_radius=150.0),
        # Slower exploration decay than the default: the desk landscapes
        # are small but reward only the best cost level, so the agent needs
        # coverage deep into the run (epsilon ~ 0.003 at the last step).
        schedule=TrainingSchedule(eps_decay=0.999),
        # Tight quantiles on both sides: the low band hugs the optimum so
        # "settled in the low band" means "optimal", and the high band
        # starts right above it so mediocre assignments feel steady
        # pressure instead of a flat zero-reward plateau.
        env=EnvOptions(redraw="smallscale", threshold_samples=1000,
                       q_low=0.01, q_high=0.1),
        rate=RateOptions(n_mc=10, eval_every=50, paths=25),
        methods=("random", "spr_like", "exhaustive", "drl"),
        total_steps=5000,
    )
    full = ExperimentPreset(
        name="full",
        config=SystemConfig(L=7, K=4, M=100),
        schedule=TrainingSchedule(),
        env=EnvOptions(redraw="smallscale", threshold_samples=1000,
                       q_low=0.3, q_high=0.7),
        rate=RateOptions(n_mc=20, eval_every=200, paths=50),
        methods=("random", "spr_like", "drl"),
        total_steps=20000,
        long_run_methods=("exhaustive",),
    )
    return {"desk": desk, "full": full}


def _eval_steps(total_steps: int, every: int) -> frozenset:
    """Steps at which the rate benchmark runs: every-1, 2*every-1, ...

    A run shorter than `every` steps evaluates no rate at all, and the last
    step is included only when `every` divides the step count.
    """
    return frozenset(range(every - 1, total_steps, every))


@dataclass
class MethodResult:
    """Everything one method contributes to the experiment outputs."""

    cost_rows: list = field(default_factory=list)   # (step, global_max)
    rate_rows: list = field(default_factory=list)   # (step, min_rate, overhead)
    text_files: dict = field(default_factory=dict)  # filename -> content
    world_digest: str = ""
    training: TrainResult | None = None             # drl only


def _run_method(name: str, preset: ExperimentPreset, master_seed: int,
                long_run: bool) -> MethodResult:
    """Run one method on the preset's world stream and record every step.

    drl trains on its environment's WorldStream and each baseline advances
    its own WorldStream of the same seed, so all methods see identical
    worlds, and their world digests prove it. Every step goes
    through `record`: its worst-user cost, and at the rate-evaluation steps
    the minimum rate with the pilot overhead n_pilots / K.
    """
    cfg, opts = preset.config, preset.env
    eval_at = _eval_steps(preset.total_steps, preset.rate.eval_every)
    out = MethodResult()

    def record(t, world, user_to_pilot, n_pilots, g_max):
        out.cost_rows.append((t, g_max))
        if t in eval_at:
            report = min_rate(world, user_to_pilot, n_pilots,
                              substream(master_seed, "rate", t),
                              options=preset.rate)
            out.rate_rows.append((t, report.min_rate, n_pilots / cfg.K))

    if name == "drl":
        env = make_env(cfg, opts, master_seed)
        out.training = train(
            env, preset.schedule, preset.total_steps, master_seed,
            step_callback=lambda t, _: record(
                t, env.worlds.world, env.assignment.user_to_pilot(), cfg.K,
                env.costs.global_max))
        out.world_digest = env.worlds.digest()
        out.text_files["assignment_drl.txt"] = env.assignment.to_text()
        return out

    worlds = WorldStream(cfg, opts.redraw, master_seed)
    rng_assign = substream(master_seed, "baseline", name)
    for t in range(preset.total_steps):
        worlds.advance()
        world, pairwise = worlds.world, worlds.pairwise
        # exhaustive and spr_like solve each world once; random draws anew
        if t == 0 or opts.redraw == "positions" or name == "random":
            u2p, n_pilots, text, report = baseline_assignment(
                name, world, rng_assign, pairwise, allow_long_run=long_run)
        _, g_max = extended_user_costs(world, u2p, pairwise=pairwise)
        record(t, world, u2p, n_pilots, g_max)

    out.world_digest = worlds.digest()
    if name != "random":
        out.text_files[f"assignment_{name}.txt"] = text
    if report is not None:
        out.text_files["overhead_spr_like.txt"] = str(report) + "\n"
    return out


def _config_dict(preset: ExperimentPreset) -> dict:
    return {
        "scenario": dataclasses.asdict(preset.config),
        "training": dataclasses.asdict(preset.schedule),
        "env": dataclasses.asdict(preset.env),
        "rate": dataclasses.asdict(preset.rate),
        "total_steps": preset.total_steps,
        "methods": list(preset.methods),
        "long_run_methods": list(preset.long_run_methods),
    }


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode("ascii")).hexdigest()


def write_csv(path: str | Path, fields: tuple, rows: list):
    """Write the dict rows as CSV: header `fields`, `\n` line ends, no quoting.

    This is the one run-file format; every CSV a run or `cellpilot train`
    writes goes through here, and csv.DictReader reads each back exactly.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(fields) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[f]) for f in fields) + "\n")


def _fmt(v) -> str:
    """bool as 0/1, float as .17g (round-trips exactly), None as empty."""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return f"{v:.17g}"
    return "" if v is None else str(v)


def _run_manifest(run_dir: Path) -> dict | None:
    """run_dir's manifest.json if it is a run's, else None.

    A run manifest is a JSON object with a config_hash and a files list.
    """
    try:
        manifest = json.loads((run_dir / "manifest.json").read_text())
    except (FileNotFoundError, ValueError):
        return None
    if (isinstance(manifest, dict) and "config_hash" in manifest
            and isinstance(manifest.get("files"), list)):
        return manifest
    return None


def _remove_earlier_run(out_dir: Path):
    """Delete the files that a run manifest already in out_dir lists.

    A manifest.json that is not a run's is only overwritten, and its files
    are left alone.
    """
    manifest = _run_manifest(out_dir)
    if manifest is None:
        return
    for name in manifest["files"]:
        if Path(name).name == name:  # only plain names inside out_dir
            (out_dir / name).unlink(missing_ok=True)


def run_experiment(
    preset: ExperimentPreset,
    master_seed: int,
    out_dir: str | Path | None = None,
    long_run: bool = False,
) -> Path:
    """Run every method of the preset and write the result files.

    All methods consume identical world streams (same substream of the
    master seed) and identical per-step channel realizations in the rate
    benchmark, so their series are directly comparable. A method failure
    is recorded in the manifest and the remaining methods still run.

    Files written: results.csv (method,seed,step,min_rate,overhead_factor),
    costs.csv (method,seed,step,global_max), drl_training_log.csv and
    drl_trajectory.csv (the TRAINING_LOG_FIELDS and TRAJECTORY_FIELDS
    columns of the one per-step record train returns), per-method
    assignment/overhead text files, and manifest.json tying everything to
    the config hash and seed. out_dir defaults to run_<preset name>. The
    files an earlier run's manifest lists are deleted first, so none of
    them outlives the run that wrote it.
    """
    out_dir = Path(out_dir) if out_dir is not None else Path(f"run_{preset.name}")
    out_dir.mkdir(parents=True, exist_ok=True)
    _remove_earlier_run(out_dir)

    cfg_dict = _config_dict(preset)
    manifest = {
        "preset": preset.name,
        "master_seed": master_seed,
        "version": PACKAGE_VERSION,
        "config": cfg_dict,
        "config_hash": _config_hash(cfg_dict),
        "long_run": long_run,
        "methods": {},
        "files": [],
    }

    results_rows = []
    cost_rows = []
    for name in preset.active_methods(long_run):
        try:
            res = _run_method(name, preset, master_seed, long_run)
        except Exception as exc:  # record and continue with the other methods
            manifest["methods"][name] = {
                "status": "error",
                "error": f"{type(exc).__name__}: {exc}",
            }
            continue
        manifest["methods"][name] = {
            "status": "ok",
            "world_digest": res.world_digest,
            "final_cost": float(res.cost_rows[-1][1]),
        }
        results_rows += [{"method": name, "seed": master_seed, "step": step,
                          "min_rate": mr, "overhead_factor": ov}
                         for step, mr, ov in res.rate_rows]
        cost_rows += [{"method": name, "seed": master_seed, "step": step,
                       "global_max": g} for step, g in res.cost_rows]
        for fname, content in sorted(res.text_files.items()):
            (out_dir / fname).write_text(content)
            manifest["files"].append(fname)
        if res.training is not None:
            write_csv(out_dir / "drl_training_log.csv", TRAINING_LOG_FIELDS,
                      res.training.rows)
            write_csv(out_dir / "drl_trajectory.csv", TRAJECTORY_FIELDS,
                      res.training.rows)
            manifest["files"] += ["drl_training_log.csv", "drl_trajectory.csv"]

    write_csv(out_dir / "results.csv", RESULTS_FIELDS, results_rows)
    write_csv(out_dir / "costs.csv", COSTS_FIELDS, cost_rows)
    manifest["files"] += ["results.csv", "costs.csv"]
    manifest["files"].sort()
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out_dir


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def emit_plot_data(run_dir: str | Path) -> Path:
    """Distill a run directory into tidy (step, series, value) tables.

    plots/min_rate.csv carries one short-term moving-average series per
    method; plots/reward.csv carries the raw per-step reward, its
    short-term moving average, the long-term (cumulative) mean, and the
    cumulative ratio of negative rewards. results.csv and manifest.json
    (whose eval_every, a positive integer, sets the smoothing window) are
    required; a malformed manifest raises ConfigError. The training
    log is read only when the manifest lists it, so a stale log of an
    earlier run into the same directory is ignored; without it the reward
    series are skipped with a warning recorded in plots/manifest.json.
    """
    run_dir = Path(run_dir)
    results_path = run_dir / "results.csv"
    if not results_path.exists():
        raise ConfigError(f"no results.csv under {run_dir}; not a run directory")
    manifest = _run_manifest(run_dir)
    if manifest is None:
        raise ConfigError(f"no run manifest.json under {run_dir}; not a run directory")
    try:
        eval_every = manifest["config"]["rate"]["eval_every"]
    except (KeyError, TypeError):
        eval_every = None
    if type(eval_every) is not int or eval_every < 1:
        raise ConfigError(f"{run_dir / 'manifest.json'}: config.rate.eval_every "
                          f"must be a positive integer, not {eval_every!r}")
    window = max(1, SHORT_TERM_STEPS // eval_every)
    plots = run_dir / "plots"
    plots.mkdir(exist_ok=True)
    warnings = []

    results = _read_csv(results_path)
    rate_rows = []
    for m in sorted({row["method"] for row in results}):
        mine = [row for row in results if row["method"] == m]
        steps = np.array([int(row["step"]) for row in mine])
        vals = np.array([float(row["min_rate"]) for row in mine])
        order = np.argsort(steps, kind="stable")
        steps, vals = steps[order], vals[order]
        ma = moving_average(vals, window)
        rate_rows += [{"step": t, "series": m, "value": v}
                      for t, v in zip(steps, ma)]
    write_csv(plots / "min_rate.csv", PLOT_FIELDS, rate_rows)
    written = ["min_rate.csv"]

    if "drl_training_log.csv" in manifest["files"]:
        log = _read_csv(run_dir / "drl_training_log.csv")
        steps = np.array([int(row["step"]) for row in log])
        reward = np.array([float(row["reward"]) for row in log])
        n = np.arange(1, reward.size + 1)
        series = {
            "reward": reward,
            "reward_short_term": moving_average(reward, SHORT_TERM_STEPS),
            "reward_long_term": np.cumsum(reward) / n,
            "negative_ratio": np.cumsum(reward < 0) / n,
        }
        reward_rows = []
        for name in ("reward", "reward_short_term", "reward_long_term",
                     "negative_ratio"):
            reward_rows += [{"step": t, "series": name, "value": v}
                            for t, v in zip(steps, series[name])]
        write_csv(plots / "reward.csv", PLOT_FIELDS, reward_rows)
        written.append("reward.csv")
    else:
        (plots / "reward.csv").unlink(missing_ok=True)  # of an earlier run
        warnings.append("drl_training_log.csv not in the run manifest; "
                        "reward series omitted")

    with open(plots / "manifest.json", "w") as fh:
        json.dump({"files": written, "warnings": warnings}, fh,
                  indent=2, sort_keys=True)
        fh.write("\n")
    return plots
