"""Experiment presets, method runners, result files, and plot-data tables.

An experiment runs several assignment methods (learned and baselines) on
identical world streams and writes everything as plain CSV plus a JSON
manifest. Nothing here plots; the tidy tables in plots/ are meant to be
fed straight into any plotting tool.
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
    substream,
)
from .contamination import extended_user_costs, pairwise_cost_matrix
from .env import make_env, write_trajectory_csv
from .qnn import train, write_training_log_csv
from .rate import min_rate, moving_average
from .scenario import build_layout, fresh_world

METHODS = ("drl", "random", "exhaustive", "spr_like")

# Window, in environment steps, for the short-term moving averages.
SHORT_TERM_STEPS = 50


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
    out_name: str = ""
    # methods only run when the caller passes long_run=True (compute gated)
    long_run_methods: tuple = ()

    def __post_init__(self):
        for m in tuple(self.methods) + tuple(self.long_run_methods):
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; choose from {METHODS}")
        if self.total_steps < 1:
            raise ConfigError("total_steps must be >= 1")
        if not self.out_name:
            self.out_name = f"run_{self.name}"

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
    """Steps at which the rate benchmark runs (last step always included)."""
    return frozenset(range(every - 1, total_steps, every))


def _digest_chain(digests: list) -> str:
    """One hash summarizing the whole world-evolution stream."""
    return hashlib.sha1("".join(digests).encode("ascii")).hexdigest()


@dataclass
class MethodResult:
    """Everything one method contributes to the experiment outputs."""

    name: str
    cost_rows: list = field(default_factory=list)   # (step, global_max)
    rate_rows: list = field(default_factory=list)   # (step, min_rate, overhead)
    world_digest: str = ""
    text_files: dict = field(default_factory=dict)  # filename -> content
    log_rows: list | None = None
    trajectory_rows: list | None = None
    final_cost: float = float("nan")


def _rate_eval(world, user_to_pilot, n_pilots, master_seed, step, rate_opts,
               overhead_factor):
    rng = substream(master_seed, "rate", step)
    report = min_rate(world, user_to_pilot, n_pilots, rng,
                      options=rate_opts, overhead_factor=overhead_factor)
    return report.min_rate


def _run_drl(preset: ExperimentPreset, master_seed: int) -> MethodResult:
    cfg = preset.config
    eval_at = _eval_steps(preset.total_steps, preset.rate.eval_every)
    env = make_env(cfg, preset.env, master_seed)
    out = MethodResult(name="drl")

    def callback(t, env_):
        if t in eval_at:
            mr = _rate_eval(env_.world, env_.assignment.user_to_pilot(), cfg.K,
                            master_seed, t, preset.rate, 1.0)
            out.rate_rows.append((t, mr, 1.0))

    result = train(env, preset.schedule, preset.total_steps, master_seed,
                   step_callback=callback)
    out.cost_rows = [(row["step"], row["g_max"]) for row in result.log_rows]
    out.world_digest = _digest_chain(env.world_digests)
    out.log_rows = result.log_rows
    out.trajectory_rows = result.trajectory_rows
    out.final_cost = float(result.log_rows[-1]["g_max"])
    out.text_files["assignment_drl.txt"] = env.assignment.to_text()
    return out


def _run_baseline(name: str, preset: ExperimentPreset, master_seed: int,
                  long_run: bool) -> MethodResult:
    """random / exhaustive / spr_like on the same world stream the agent sees."""
    cfg, opts = preset.config, preset.env
    eval_at = _eval_steps(preset.total_steps, preset.rate.eval_every)
    world_rng = substream(master_seed, "world")
    layout = build_layout(cfg.L, cfg.R)
    redraw = opts.redraw == "positions"
    world = fresh_world(cfg, world_rng, layout)
    digests = [world.digest()]
    out = MethodResult(name=name)
    rng_assign = substream(master_seed, "baseline", name)

    for t in range(preset.total_steps):
        if redraw:
            world = fresh_world(cfg, world_rng, layout)
        digests.append(world.digest())
        if t == 0 or redraw:
            pairwise = pairwise_cost_matrix(world)
        # exhaustive and spr_like solve each world once; random draws anew
        if t == 0 or redraw or name == "random":
            u2p, n_pilots, text, report = baseline_assignment(
                name, world, rng_assign, pairwise, allow_long_run=long_run)
        _, g_max = extended_user_costs(world, u2p, pairwise=pairwise)
        out.cost_rows.append((t, g_max))
        if t in eval_at:
            overhead = n_pilots / cfg.K
            mr = _rate_eval(world, u2p, n_pilots, master_seed, t,
                            preset.rate, overhead)
            out.rate_rows.append((t, mr, overhead))

    out.world_digest = _digest_chain(digests)
    out.final_cost = float(out.cost_rows[-1][1])
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


def _write_csv(path: Path, header: str, rows: list):
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _f(x) -> str:
    return f"{float(x):.17g}"


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
    costs.csv (method,seed,step,global_max), drl_training_log.csv,
    drl_trajectory.csv, per-method assignment/overhead text files, and
    manifest.json tying everything to the config hash and seed.
    """
    out_dir = Path(out_dir) if out_dir is not None else Path(preset.out_name)
    out_dir.mkdir(parents=True, exist_ok=True)

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
            res = (_run_drl(preset, master_seed) if name == "drl" else
                   _run_baseline(name, preset, master_seed, long_run))
        except Exception as exc:  # record and continue with the other methods
            manifest["methods"][name] = {
                "status": "error",
                "error": f"{type(exc).__name__}: {exc}",
            }
            continue
        manifest["methods"][name] = {
            "status": "ok",
            "world_digest": res.world_digest,
            "final_cost": res.final_cost,
        }
        for step, mr, ov in res.rate_rows:
            results_rows.append((name, str(master_seed), str(step), _f(mr), _f(ov)))
        for step, g in res.cost_rows:
            cost_rows.append((name, str(master_seed), str(step), _f(g)))
        for fname, content in sorted(res.text_files.items()):
            (out_dir / fname).write_text(content)
            manifest["files"].append(fname)
        if res.log_rows is not None:
            write_training_log_csv(res.log_rows, str(out_dir / "drl_training_log.csv"))
            manifest["files"].append("drl_training_log.csv")
        if res.trajectory_rows is not None:
            write_trajectory_csv(res.trajectory_rows,
                                 str(out_dir / "drl_trajectory.csv"))
            manifest["files"].append("drl_trajectory.csv")

    _write_csv(out_dir / "results.csv",
               "method,seed,step,min_rate,overhead_factor", results_rows)
    _write_csv(out_dir / "costs.csv", "method,seed,step,global_max", cost_rows)
    manifest["files"] += ["results.csv", "costs.csv"]
    manifest["files"].sort()
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out_dir


def _read_csv_columns(path: Path) -> dict:
    with open(path, newline="") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    cols = {h: [] for h in header}
    for ln in lines[1:]:
        for h, v in zip(header, ln.split(",")):
            cols[h].append(v)
    return cols


def emit_plot_data(run_dir: str | Path) -> Path:
    """Distill a run directory into tidy (step, series, value) tables.

    plots/min_rate.csv carries one short-term moving-average series per
    method; plots/reward.csv carries the raw per-step reward, its
    short-term moving average, the long-term (cumulative) mean, and the
    cumulative ratio of negative rewards. Missing inputs are skipped with
    a warning recorded in plots/manifest.json.
    """
    run_dir = Path(run_dir)
    results_path = run_dir / "results.csv"
    if not results_path.exists():
        raise ConfigError(f"no results.csv under {run_dir}; not a run directory")
    plots = run_dir / "plots"
    plots.mkdir(exist_ok=True)
    warnings = []

    manifest_path = run_dir / "manifest.json"
    eval_every = None
    if manifest_path.exists():
        with open(manifest_path) as fh:
            eval_every = json.load(fh)["config"]["rate"]["eval_every"]
    else:
        warnings.append("manifest.json missing; inferring eval spacing from steps")

    cols = _read_csv_columns(results_path)
    methods = sorted(set(cols["method"]))
    rate_rows = []
    for m in methods:
        steps = np.array([int(s) for s, mm in zip(cols["step"], cols["method"])
                          if mm == m])
        vals = np.array([float(v) for v, mm in zip(cols["min_rate"], cols["method"])
                         if mm == m])
        order = np.argsort(steps, kind="stable")
        steps, vals = steps[order], vals[order]
        if eval_every is None:
            eval_every = int(np.diff(steps).min()) if steps.size > 1 else 1
        window = max(1, SHORT_TERM_STEPS // eval_every)
        ma = moving_average(vals, window)
        rate_rows += [(str(t), m, _f(v)) for t, v in zip(steps, ma)]
    _write_csv(plots / "min_rate.csv", "step,series,value", rate_rows)
    written = ["min_rate.csv"]

    log_path = run_dir / "drl_training_log.csv"
    if log_path.exists():
        log = _read_csv_columns(log_path)
        steps = np.array([int(s) for s in log["step"]])
        reward = np.array([float(r) for r in log["reward"]])
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
            reward_rows += [(str(t), name, _f(v))
                            for t, v in zip(steps, series[name])]
        _write_csv(plots / "reward.csv", "step,series,value", reward_rows)
        written.append("reward.csv")
    else:
        warnings.append("drl_training_log.csv missing; reward series omitted")

    with open(plots / "manifest.json", "w") as fh:
        json.dump({"files": written, "warnings": warnings}, fh,
                  indent=2, sort_keys=True)
        fh.write("\n")
    return plots
