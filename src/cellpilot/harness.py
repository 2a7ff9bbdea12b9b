"""Experiment presets, method runners, result files, and plot tables.

An experiment runs several assignment methods (learned and baselines) on
identical worlds and writes everything as plain CSV plus a JSON
manifest. Nothing here plots; the tidy plot_*.csv tables a run writes are
meant to be fed straight into any plotting tool.
"""

from __future__ import annotations

import contextlib
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
    _one_blas_thread,
    substream,
)
from .env import TRAJECTORY_FIELDS, WorldStream, make_env
from .qnn import TRAINING_LOG_FIELDS, Learner
from .rate import _check_map, min_rate, moving_average

METHODS = ("drl", "random", "exhaustive", "spr_like")

# Window, in environment steps, for the short-term moving averages.
SHORT_TERM_STEPS = 50

# Columns of results.csv, costs.csv and the plot_*.csv tables.
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
    # methods only run when the caller passes long_run=True; no built-in
    # preset uses this any more, and the field is due for removal
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
    runs in under half a minute on one core; it drives the acceptance
    suite. `full` is the full-scale seven-cell scenario and runs every
    method too: of its (4!)^6 ~ 1.9e8 candidates, the exhaustive
    branch-and-bound expands a median of 10 nodes (44 at p90), far
    inside its node budget.
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
        methods=("random", "spr_like", "drl", "exhaustive"),
        total_steps=20000,
    )
    return {"desk": desk, "full": full}


@dataclass
class MethodResult:
    """Everything one method contributes to the experiment outputs."""

    cost_rows: list = field(default_factory=list)   # (step, global_max)
    rate_rows: list = field(default_factory=list)   # (step, min_rate, overhead)
    files: dict = field(default_factory=dict)       # filename -> text
    world_digest: str = ""


def _run_methods(methods, preset: ExperimentPreset, master_seed: int,
                 long_run: bool, failures: dict) -> dict:
    """Run the methods in lockstep on one WorldStream: name -> result.

    The stream is drl's env's, or one of the same seed without drl. Each
    step advances it once, through drl's Learner.step or directly, then
    scores every baseline still running on its world and pair-cost matrix,
    each with its own substream(seed, "baseline", name). Each evaluation
    step every-1, 2*every-1, ... then ends with one min_rate call on
    substream(seed, "rate", t), which rates the pilot map of every method
    still running on the step's world (no call, once every method has
    failed). A method that raises while stepping, or whose map min_rate
    would refuse, moves to `failures` with its exception and stops; the
    others go on. An error of the stream, which is any that drl raises
    before the stream advanced (a drop that cannot be placed raises from
    the advance that draws its block), or of the min_rate call fails every
    method still running, as a stream or a rate pass of its own would.

    Each method that finishes holds its run files as name -> text in
    `files`: drl its assignment_drl.txt, drl_training_log.csv and
    drl_trajectory.csv (the TRAINING_LOG_FIELDS and TRAJECTORY_FIELDS
    columns of its Learner.rows, one record per step) and plot_reward.csv;
    exhaustive and spr_like the files of their last baseline_assignment;
    random none.
    """
    cfg, redraw, every = preset.config, preset.env.redraw, preset.rate.eval_every
    runs = {name: MethodResult() for name in methods}
    learner = None
    if "drl" in runs:
        try:
            learner = Learner(make_env(cfg, preset.env, master_seed),
                              preset.schedule, master_seed)
        except Exception as exc:  # record and go on with the baselines
            failures["drl"] = exc
            del runs["drl"]
    rngs = {name: substream(master_seed, "baseline", name)
            for name in runs if name != "drl"}
    solved = {}  # baseline name -> its last baseline_assignment
    try:
        worlds = (learner.env.worlds if learner is not None
                  else WorldStream(cfg, redraw, master_seed))
        for t in range(preset.total_steps):
            if not runs:
                return runs
            if "drl" not in runs:
                worlds.advance()
            else:
                try:
                    runs["drl"].cost_rows.append((t, learner.step()["g_next"]))
                except Exception as exc:
                    if len(worlds.digests) == t + 1:  # the stream did not advance
                        raise
                    failures["drl"] = exc
                    del runs["drl"]
            for name in [name for name in runs if name in rngs]:
                try:
                    # random draws anew; exhaustive and spr_like solve and
                    # score a world once
                    if t == 0 or redraw == "positions" or name == "random":
                        solved[name] = baseline_assignment(
                            name, worlds.world, rngs[name], worlds.pairwise,
                            allow_long_run=long_run)
                    runs[name].cost_rows.append((t, solved[name][2]))
                except Exception as exc:  # record and go on with the others
                    failures[name] = exc
                    del runs[name]
            if t % every == every - 1 and runs:
                maps = {name: (learner.env.assignment.user_to_pilot(), cfg.K)
                        if name == "drl" else solved[name][:2] for name in runs}
                for name, (pilot_of, n_pilots) in list(maps.items()):
                    try:  # a map that min_rate would refuse fails its method alone
                        _check_map(pilot_of, n_pilots, cfg.L, cfg.K)
                    except ValueError as exc:
                        failures[name] = exc
                        del runs[name], maps[name]
                reports = min_rate(worlds.world, maps.values(),
                                   substream(master_seed, "rate", t), preset.rate)
                for name, report in zip(maps, reports):
                    runs[name].rate_rows.append(
                        (t, report.min_rate, maps[name][1] / cfg.K))
    except Exception as exc:  # the stream or the rate pass failed every method
        failures.update(dict.fromkeys(runs, exc))
        return {}

    for name, res in runs.items():
        res.world_digest = worlds.digest()
        if name == "drl":
            rows = learner.rows
            res.files = {
                "assignment_drl.txt": learner.env.assignment.to_text(),
                "drl_training_log.csv": csv_text(TRAINING_LOG_FIELDS, rows),
                "drl_trajectory.csv": csv_text(TRAJECTORY_FIELDS, rows),
                "plot_reward.csv": csv_text(PLOT_FIELDS, _reward_series(rows)),
            }
        elif name != "random":  # a run keeps no file of its last random draw
            res.files = solved[name][3]()
    return runs


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


def csv_text(fields: tuple, rows: list) -> str:
    """The dict rows as CSV: header `fields`, `\n` line ends, no quoting.

    This is the one run-file format; every CSV a run or `cellpilot train`
    writes is this text, and csv.DictReader reads each back exactly.
    """
    lines = [",".join(fields)]
    lines += [",".join(_fmt(row[f]) for f in fields) for row in rows]
    return "\n".join(lines) + "\n"


def _write_files(out_dir: Path, files: dict) -> list:
    """Write each name -> text entry of `files` into out_dir, line ends as
    given; return the names, sorted. Every file that `experiment`, `train`
    and `baseline --out` write goes through here, except the checkpoint."""
    for name, text in files.items():
        (out_dir / name).write_text(text, newline="")
    return sorted(files)


def _fmt(v) -> str:
    """bool as 0/1, float as .17g (round-trips exactly), None as empty."""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return f"{v:.17g}"
    return "" if v is None else str(v)


def _min_rate_series(rates: dict, eval_every: int) -> list:
    """The short-term moving average of each method's minimum rate, by name."""
    window = max(1, SHORT_TERM_STEPS // eval_every)
    rows = []
    for name in sorted(rates):
        ma = moving_average([mr for _, mr, _ in rates[name]], window)
        rows += [{"step": t, "series": name, "value": v}
                 for (t, _, _), v in zip(rates[name], ma)]
    return rows


def _reward_series(training_rows: list) -> list:
    """The per-step reward, its short-term moving average, the long-term
    (cumulative) mean, and the cumulative ratio of negative rewards."""
    reward = np.array([float(row["reward"]) for row in training_rows])
    n = np.arange(1, reward.size + 1)
    series = {
        "reward": reward,
        "reward_short_term": moving_average(reward, SHORT_TERM_STEPS),
        "reward_long_term": np.cumsum(reward) / n,
        "negative_ratio": np.cumsum(reward < 0) / n,
    }
    return [{"step": row["step"], "series": name, "value": v}
            for name, values in series.items()
            for row, v in zip(training_rows, values)]


def _remove_earlier_run(out_dir: Path):
    """Delete the files that a run manifest already in out_dir lists.

    A run manifest is a JSON object with a config_hash and a files list of
    strings. Any other manifest.json is only overwritten, and its files are
    left alone. Only regular files directly inside out_dir are deleted.
    """
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
    except (FileNotFoundError, ValueError):
        return
    files = manifest.get("files") if isinstance(manifest, dict) else None
    if (not isinstance(files, list) or "config_hash" not in manifest
            or not all(isinstance(name, str) for name in files)):
        return
    for name in files:
        path = out_dir / name
        if Path(name).name == name and path.is_file():
            path.unlink()


@contextlib.contextmanager
def _output_dir(out_dir: Path):
    """Make out_dir and its missing parents before the work starts, so an
    unwritable path fails first; if the work raises, remove each directory
    this made again, deepest first, while it is empty."""
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        yield
    except BaseException:
        for d in made:
            if any(d.iterdir()):
                break
            d.rmdir()
        raise


def _error(exc: Exception) -> dict:
    return {"status": "error", "error": f"{type(exc).__name__}: {exc}"}


@_one_blas_thread()
def run_experiment(
    preset: ExperimentPreset,
    master_seed: int,
    out_dir: str | Path | None = None,
    long_run: bool = False,
) -> Path:
    """Run every method of the preset and write the result files.

    All methods consume identical worlds (one substream of the master
    seed) and identical per-step channel realizations in the rate
    benchmark, so their series are directly comparable: _run_methods
    steps them in lockstep on one WorldStream and states which errors
    stop one method and which stop all. Each failed method is recorded
    in the manifest. When no method finishes, the first method's
    exception (in method order) is raised, no run file is written, and
    the directories of out_dir that the call made are removed again. The
    run holds OpenBLAS at one thread and restores the caller's count on
    return.

    Files written, all through _write_files: results.csv
    (method,seed,step,min_rate,overhead_factor), costs.csv
    (method,seed,step,global_max), the tidy step,series,value table
    plot_min_rate.csv (each method's minimum rate, smoothed over
    SHORT_TERM_STEPS), every finished method's `files` (see _run_methods;
    plot_reward.csv holds drl's reward, its short- and long-term means and
    the negative-reward ratio), and last manifest.json, which ties them to
    the config hash and seed and lists them. out_dir defaults to
    run_<preset name>. The files an earlier run's manifest lists are
    deleted first, so none of them outlives the run that wrote it.
    """
    out_dir = Path(out_dir) if out_dir is not None else Path(f"run_{preset.name}")
    methods = preset.active_methods(long_run)
    failures = {}
    with _output_dir(out_dir):
        runs = _run_methods(methods, preset, master_seed, long_run, failures)
        if not runs:
            raise failures[methods[0]]

    _remove_earlier_run(out_dir)
    cfg_dict = _config_dict(preset)
    manifest = {
        "preset": preset.name,
        "master_seed": master_seed,
        "version": PACKAGE_VERSION,
        "config": cfg_dict,
        "config_hash": _config_hash(cfg_dict),
        "long_run": long_run,
        "methods": {name: _error(exc) for name, exc in failures.items()},
    }

    files, results_rows, cost_rows = {}, [], []
    for name, res in runs.items():
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
        files.update(res.files)
    files["results.csv"] = csv_text(RESULTS_FIELDS, results_rows)
    files["costs.csv"] = csv_text(COSTS_FIELDS, cost_rows)
    files["plot_min_rate.csv"] = csv_text(PLOT_FIELDS, _min_rate_series(
        {name: res.rate_rows for name, res in runs.items()}, preset.rate.eval_every))
    manifest["files"] = _write_files(out_dir, files)
    _write_files(out_dir, {
        "manifest.json": json.dumps(manifest, indent=2, sort_keys=True) + "\n"})
    return out_dir
