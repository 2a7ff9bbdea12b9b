"""Experiment presets, method runners, result files, and plot tables.

An experiment runs several assignment methods (learned and baselines) on
identical worlds and writes everything as plain CSV plus a JSON
manifest. Nothing here plots; the tidy plot_*.csv tables a run writes are
meant to be fed straight into any plotting tool.
"""

from __future__ import annotations

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
from .rate import min_rate, moving_average

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


@dataclass
class MethodResult:
    """Everything one method contributes to the experiment outputs."""

    cost_rows: list = field(default_factory=list)   # (step, global_max)
    # (step, world, user_to_pilot, n_pilots) at each rate-evaluation step
    rate_steps: list = field(default_factory=list)
    rate_rows: list = field(default_factory=list)   # (step, min_rate, overhead)
    text_files: dict = field(default_factory=dict)  # filename -> content
    world_digest: str = ""
    training_rows: list | None = None               # drl only: Learner.rows

    def record(self, t, world, user_to_pilot, n_pilots, g_max, every):
        """Step t's worst-user cost, and at the rate-evaluation steps
        every-1, 2*every-1, ... its world and pilot map, which
        run_experiment scores (`rate_rows` stays empty until then)."""
        self.cost_rows.append((t, g_max))
        if t % every == every - 1:
            self.rate_steps.append((t, world, user_to_pilot, n_pilots))


def _run_methods(methods, preset: ExperimentPreset, master_seed: int,
                 long_run: bool, failures: dict) -> dict:
    """Run the methods in lockstep on one WorldStream: name -> result.

    The stream is drl's env's, or one of the same seed without drl. Each
    step advances it once, through drl's Learner.step or directly, then
    scores every baseline still running on its world and pair-cost matrix,
    each with its own substream(seed, "baseline", name). A method that
    raises moves to `failures` with its exception and the others go on. An
    error of the stream, which is any that drl raises before the stream
    advanced, fails every method still running, as a stream of its own would.
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
            if learner is None:
                worlds.advance()
            else:
                try:
                    g_max = learner.step()["g_max"]
                    u2p = learner.env.assignment.user_to_pilot()
                    runs["drl"].record(t, worlds.world, u2p, cfg.K, g_max, every)
                except Exception as exc:
                    if len(worlds.digests) == t + 1:  # the stream did not advance
                        raise
                    failures["drl"] = exc
                    del runs["drl"]
                    learner = None
            for name in [name for name in runs if name in rngs]:
                try:
                    # random draws anew; exhaustive and spr_like solve and
                    # score a world once
                    if t == 0 or redraw == "positions" or name == "random":
                        solved[name] = baseline_assignment(
                            name, worlds.world, rngs[name], worlds.pairwise,
                            allow_long_run=long_run)
                    u2p, n_pilots, g_max, _ = solved[name]
                    runs[name].record(t, worlds.world, u2p, n_pilots, g_max, every)
                except Exception as exc:  # record and go on with the others
                    failures[name] = exc
                    del runs[name]
    except Exception as exc:  # the stream failed every method still running
        failures.update(dict.fromkeys(runs, exc))
        return {}

    for name, res in runs.items():
        res.world_digest = worlds.digest()
        if name == "drl":
            res.training_rows = learner.rows
            res.text_files["assignment_drl.txt"] = learner.env.assignment.to_text()
        elif name != "random":  # a run keeps no file of its last random draw
            res.text_files.update(solved[name][3]())
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


def _error(exc: Exception) -> dict:
    return {"status": "error", "error": f"{type(exc).__name__}: {exc}"}


def _score_rates(runs: dict, preset: ExperimentPreset, master_seed: int,
                 failures: dict):
    """Fill each run's rate_rows: one min_rate per evaluation step scores
    every method's pilot map on the step's channel draws.

    Every method sees the same world at a step (their digests prove it), so
    the first run's serves all. If the shared call raises, each map is
    scored alone, and a method whose lone call raises moves from `runs` to
    `failures` with its exception, as if it had raised while running.
    """
    K, every = preset.config.K, preset.rate.eval_every
    for i, t in enumerate(range(every - 1, preset.total_steps, every)):
        if not runs:
            break
        world = next(iter(runs.values())).rate_steps[i][1]
        maps = {name: res.rate_steps[i][2:] for name, res in runs.items()}
        try:
            reports = dict(zip(maps, min_rate(
                world, maps.values(), substream(master_seed, "rate", t), preset.rate)))
        except Exception:
            reports = {}
            for name, pilot_map in maps.items():
                try:
                    reports[name], = min_rate(
                        world, [pilot_map], substream(master_seed, "rate", t),
                        preset.rate)
                except Exception as exc:
                    failures[name] = exc
                    del runs[name]
        for name, report in reports.items():
            runs[name].rate_rows.append((t, report.min_rate, maps[name][1] / K))


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
    benchmark, so their series are directly comparable. The methods run
    in lockstep on one WorldStream, drl's if it runs, so each world is
    drawn and pair-costed once and every method's world digest is the
    same. Then one min_rate call per evaluation step scores every method's
    pilot map on one shared channel draw (see min_rate for the chunk
    rule), each getting the bytes a call with its map alone gives. A
    method failure, while running or in its rate evaluation, is recorded
    in the manifest and the remaining methods still run; when no method
    finishes, the first method's exception (in method order) is raised and
    no run file is written. The run holds OpenBLAS at one thread and
    restores the caller's count on return.

    Files written: results.csv (method,seed,step,min_rate,overhead_factor),
    costs.csv (method,seed,step,global_max), drl_training_log.csv and
    drl_trajectory.csv (the TRAINING_LOG_FIELDS and TRAJECTORY_FIELDS
    columns of drl's Learner.rows, one record per step), the tidy
    step,series,value plot tables plot_min_rate.csv (each method's minimum
    rate, smoothed over SHORT_TERM_STEPS) and, when drl ran, plot_reward.csv
    (drl's reward, its short- and long-term means and the negative-reward
    ratio), per-method assignment/overhead text files, and manifest.json
    tying everything to the config hash and seed. out_dir defaults to
    run_<preset name>. The files an earlier run's manifest lists are
    deleted first, so none of them outlives the run that wrote it.
    """
    out_dir = Path(out_dir) if out_dir is not None else Path(f"run_{preset.name}")
    out_dir.mkdir(parents=True, exist_ok=True)

    methods = preset.active_methods(long_run)
    failures = {}
    runs = _run_methods(methods, preset, master_seed, long_run, failures)
    _score_rates(runs, preset, master_seed, failures)
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
        "files": [],
    }

    results_rows = []
    cost_rows = []
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
        for fname, content in sorted(res.text_files.items()):
            (out_dir / fname).write_text(content)
            manifest["files"].append(fname)
        if res.training_rows is not None:
            write_csv(out_dir / "drl_training_log.csv", TRAINING_LOG_FIELDS,
                      res.training_rows)
            write_csv(out_dir / "drl_trajectory.csv", TRAJECTORY_FIELDS,
                      res.training_rows)
            write_csv(out_dir / "plot_reward.csv", PLOT_FIELDS,
                      _reward_series(res.training_rows))
            manifest["files"] += ["drl_training_log.csv", "drl_trajectory.csv",
                                  "plot_reward.csv"]

    write_csv(out_dir / "results.csv", RESULTS_FIELDS, results_rows)
    write_csv(out_dir / "costs.csv", COSTS_FIELDS, cost_rows)
    write_csv(out_dir / "plot_min_rate.csv", PLOT_FIELDS,
              _min_rate_series({name: res.rate_rows for name, res in runs.items()},
                               preset.rate.eval_every))
    manifest["files"] += ["results.csv", "costs.csv", "plot_min_rate.csv"]
    manifest["files"].sort()
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out_dir
