"""Experiment harness: presets, result files, reruns, plot-data tables."""

import csv
import dataclasses
import json
from pathlib import Path

import pytest

from cellpilot import (
    ConfigError,
    EnvOptions,
    ExperimentPreset,
    RateOptions,
    SystemConfig,
    TrainingSchedule,
    emit_plot_data,
    presets,
    run_experiment,
)
from cellpilot.env import TRAJECTORY_FIELDS
from cellpilot.harness import _run_method
from cellpilot.qnn import TRAINING_LOG_FIELDS

RUN_FILES = (
    "results.csv", "costs.csv", "manifest.json",
    "drl_training_log.csv", "drl_trajectory.csv",
    "assignment_drl.txt", "assignment_exhaustive.txt",
    "assignment_spr_like.txt", "overhead_spr_like.txt",
)


def _tiny_preset(methods=("random", "spr_like", "exhaustive", "drl"),
                 total_steps=30, **cfg_kw):
    cfg = dict(L=2, K=2, M=8, scatter_radius=30.0, exclusion_radius=100.0)
    cfg.update(cfg_kw)
    return ExperimentPreset(
        name="tiny",
        config=SystemConfig(**cfg),
        schedule=TrainingSchedule(batch_size=8, replay_capacity=16,
                                  hidden_width=8, residual_blocks=1,
                                  target_sync_period=10),
        env=EnvOptions(redraw="smallscale", threshold_samples=30),
        rate=RateOptions(n_mc=2, eval_every=10, paths=5),
        methods=methods,
        total_steps=total_steps,
    )


# ------------------------------------------------------------------ presets

def test_builtin_presets():
    p = presets()
    assert set(p) == {"desk", "full"}
    desk, full = p["desk"], p["full"]
    assert (desk.config.L, desk.config.K, desk.config.M) == (3, 3, 64)
    assert set(desk.methods) == {"random", "spr_like", "exhaustive", "drl"}
    assert desk.long_run_methods == ()
    assert (full.config.L, full.config.K, full.config.M) == (7, 4, 100)
    # the full-scale exhaustive search is gated behind the long-run flag
    assert "exhaustive" not in full.methods
    assert full.long_run_methods == ("exhaustive",)
    assert "exhaustive" not in full.active_methods(long_run=False)
    assert "exhaustive" in full.active_methods(long_run=True)


def test_preset_validation():
    with pytest.raises(ConfigError):
        _tiny_preset(methods=("random", "annealing"))
    with pytest.raises(ConfigError):
        _tiny_preset(total_steps=0)
    # a repeated method would write its rows twice under one manifest entry,
    # and no method at all would write header-only files
    with pytest.raises(ConfigError, match="distinct"):
        _tiny_preset(methods=("random", "random"))
    with pytest.raises(ConfigError, match="non-empty"):
        _tiny_preset(methods=())
    with pytest.raises(ConfigError, match="distinct"):
        dataclasses.replace(_tiny_preset(methods=("random", "exhaustive")),
                            long_run_methods=("exhaustive",))


def test_run_experiment_default_out_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = run_experiment(_tiny_preset(methods=("random",), total_steps=10), 2)
    assert out == Path("run_tiny")
    assert (tmp_path / "run_tiny" / "results.csv").exists()


# ----------------------------------------------------------- run_experiment

@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "tiny"
    return run_experiment(_tiny_preset(), master_seed=5, out_dir=out)


def test_run_writes_all_files(tiny_run):
    for fname in RUN_FILES:
        assert (tiny_run / fname).exists(), fname
    manifest = json.loads((tiny_run / "manifest.json").read_text())
    listed = set(manifest["files"])
    assert listed == {f for f in RUN_FILES if f != "manifest.json"}


def test_run_manifest_statuses_and_digests(tiny_run):
    manifest = json.loads((tiny_run / "manifest.json").read_text())
    methods = manifest["methods"]
    assert set(methods) == {"random", "spr_like", "exhaustive", "drl"}
    assert all(m["status"] == "ok" for m in methods.values())
    # every method consumed the identical world stream
    digests = {m["world_digest"] for m in methods.values()}
    assert len(digests) == 1
    assert manifest["master_seed"] == 5
    assert len(manifest["config_hash"]) == 64


def test_positions_run_shares_one_world_stream(tiny_run, tmp_path):
    # a new drop every step: every method still sees the same worlds, and
    # they are not the smallscale run's (same seed, same world 0)
    preset = dataclasses.replace(
        _tiny_preset(), env=EnvOptions(redraw="positions", threshold_samples=30))
    out = run_experiment(preset, master_seed=5, out_dir=tmp_path / "moving")
    methods = json.loads((out / "manifest.json").read_text())["methods"]
    assert set(methods) == {"random", "spr_like", "exhaustive", "drl"}
    assert all(m["status"] == "ok" for m in methods.values())
    digests = {m["world_digest"] for m in methods.values()}
    assert len(digests) == 1
    still = json.loads((tiny_run / "manifest.json").read_text())["methods"]
    assert digests != {still["random"]["world_digest"]}


def test_run_exhaustive_no_worse_than_random(tiny_run):
    manifest = json.loads((tiny_run / "manifest.json").read_text())
    m = manifest["methods"]
    assert m["exhaustive"]["final_cost"] <= m["random"]["final_cost"] + 1e-12


def test_run_csv_shapes(tiny_run):
    results = (tiny_run / "results.csv").read_text().strip().splitlines()
    assert results[0] == "method,seed,step,min_rate,overhead_factor"
    # 4 methods x 3 rate evaluations (steps 9, 19, 29)
    assert len(results) == 1 + 4 * 3
    steps = sorted({int(r.split(",")[2]) for r in results[1:]})
    assert steps == [9, 19, 29]
    costs = (tiny_run / "costs.csv").read_text().strip().splitlines()
    assert costs[0] == "method,seed,step,global_max"
    assert len(costs) == 1 + 4 * 30


def test_run_spr_overhead_factor(tiny_run):
    rows = [r.split(",") for r in
            (tiny_run / "results.csv").read_text().strip().splitlines()[1:]]
    factors = {r[0]: float(r[4]) for r in rows}
    assert factors["random"] == 1.0 and factors["drl"] == 1.0
    assert factors["spr_like"] >= 1.0


def test_drl_costs_are_the_step_record(tiny_run):
    # drl's costs.csv rows come through train's step callback; step by step
    # they are the g_next and g_max of the one record both drl files project
    def read(name):
        with open(tiny_run / name, newline="") as fh:
            return list(csv.DictReader(fh))

    costs = [row for row in read("costs.csv") if row["method"] == "drl"]
    trajectory = read("drl_trajectory.csv")
    log = read("drl_training_log.csv")
    assert len(costs) == len(trajectory) == len(log) == 30
    for t, (cost, traj, entry) in enumerate(zip(costs, trajectory, log)):
        assert int(cost["step"]) == int(traj["step"]) == int(entry["step"]) == t
        assert cost["global_max"] == traj["g_next"] == entry["g_max"], t

    res = _run_method("drl", _tiny_preset(), 5, long_run=False)
    assert len(res.training.rows) == len(res.cost_rows) == 30
    for row, (t, g_max) in zip(res.training.rows, res.cost_rows):
        assert set(TRAINING_LOG_FIELDS) | set(TRAJECTORY_FIELDS) <= row.keys()
        assert row["step"] == t
        assert row["g_max"] == row["g_next"] == g_max
        assert f"{g_max:.17g}" == costs[t]["global_max"]


def test_rerun_is_byte_identical(tiny_run, tmp_path):
    again = run_experiment(_tiny_preset(), master_seed=5,
                           out_dir=tmp_path / "again")
    for fname in RUN_FILES:
        assert (again / fname).read_bytes() == (tiny_run / fname).read_bytes(), fname


def test_rate_cadence_is_every_eval_every_steps(tmp_path):
    # steps every-1, 2*every-1, ...: a run shorter than eval_every rates nothing
    rate = RateOptions(n_mc=2, eval_every=200, paths=5)
    short = dataclasses.replace(_tiny_preset(methods=("random",), total_steps=50),
                                rate=rate)
    out = run_experiment(short, master_seed=1, out_dir=tmp_path / "short")
    assert (out / "results.csv").read_text() == (
        "method,seed,step,min_rate,overhead_factor\n")
    long = dataclasses.replace(short, total_steps=400)
    out = run_experiment(long, master_seed=1, out_dir=tmp_path / "long")
    with open(out / "results.csv", newline="") as fh:
        assert {int(row["step"]) for row in csv.DictReader(fh)} == {199, 399}


def test_method_failure_is_isolated(tmp_path):
    # the full-size exhaustive search trips the enumeration budget; the
    # experiment must record that and still finish the other method
    preset = ExperimentPreset(
        name="gated",
        config=SystemConfig(L=7, K=4, M=8),
        schedule=TrainingSchedule(),
        env=EnvOptions(redraw="smallscale", threshold_samples=5),
        rate=RateOptions(n_mc=1, eval_every=10, paths=5),
        methods=("random", "exhaustive"),
        total_steps=3,
    )
    out = run_experiment(preset, master_seed=0, out_dir=tmp_path / "gated")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["methods"]["random"]["status"] == "ok"
    err = manifest["methods"]["exhaustive"]
    assert err["status"] == "error"
    assert "BudgetError" in err["error"]
    assert (out / "results.csv").exists()


# ------------------------------------------------------------ plot tables

def test_emit_plot_data(tiny_run):
    plots = emit_plot_data(tiny_run)
    rate = (plots / "min_rate.csv").read_text().strip().splitlines()
    assert rate[0] == "step,series,value"
    series = {r.split(",")[1] for r in rate[1:]}
    assert series == {"random", "spr_like", "exhaustive", "drl"}
    assert len(rate) == 1 + 4 * 3
    reward = (plots / "reward.csv").read_text().strip().splitlines()
    rseries = {r.split(",")[1] for r in reward[1:]}
    assert rseries == {"reward", "reward_short_term", "reward_long_term",
                       "negative_ratio"}
    assert len(reward) == 1 + 4 * 30
    pm = json.loads((plots / "manifest.json").read_text())
    assert pm["warnings"] == []
    assert set(pm["files"]) == {"min_rate.csv", "reward.csv"}


def test_emit_plot_data_rejects_non_run_dir(tmp_path):
    with pytest.raises(ConfigError):
        emit_plot_data(tmp_path)


def test_emit_plot_data_requires_manifest(tiny_run, tmp_path):
    # the manifest's eval_every sets the smoothing window; without it the
    # directory is not a run directory
    run = tmp_path / "no_manifest"
    run.mkdir()
    (run / "results.csv").write_bytes((tiny_run / "results.csv").read_bytes())
    with pytest.raises(ConfigError, match="manifest.json"):
        emit_plot_data(run)
    assert not (run / "plots").exists()


def test_emit_plot_data_without_training_log(tmp_path):
    preset = _tiny_preset(methods=("random",), total_steps=10)
    out = run_experiment(preset, master_seed=1, out_dir=tmp_path / "nolog")
    plots = emit_plot_data(out)
    assert (plots / "min_rate.csv").exists()
    assert not (plots / "reward.csv").exists()
    pm = json.loads((plots / "manifest.json").read_text())
    assert any("drl_training_log" in w for w in pm["warnings"])


def test_rerun_removes_files_of_earlier_run(tmp_path):
    # a drl-free rerun into the same directory deletes what only the
    # earlier run wrote, so every file left is one the new manifest lists
    run = tmp_path / "rerun"
    run_experiment(_tiny_preset(methods=("spr_like", "drl"), total_steps=20), 1, run)
    assert {"drl_training_log.csv", "assignment_drl.txt",
            "overhead_spr_like.txt"} <= {p.name for p in run.iterdir()}
    run_experiment(_tiny_preset(methods=("random",), total_steps=10), 1, run)
    manifest = json.loads((run / "manifest.json").read_text())
    assert sorted(p.name for p in run.iterdir()) == sorted(
        manifest["files"] + ["manifest.json"])


@pytest.mark.parametrize("foreign", ['{"files": ["notes.txt"]}', "not json",
                                     '{"config_hash": "x", "files": "notes.txt"}'])
def test_rerun_keeps_files_of_a_foreign_manifest(tmp_path, foreign):
    # a files string is no file list: its letters name no file to delete
    run = tmp_path / "foreign"
    run.mkdir()
    for name in ("notes.txt", "t"):
        (run / name).write_text("mine\n")
    (run / "manifest.json").write_text(foreign)
    run_experiment(_tiny_preset(methods=("random",), total_steps=10), 1, run)
    for name in ("notes.txt", "t"):
        assert (run / name).read_text() == "mine\n"


@pytest.mark.parametrize("foreign", ['{"files": []}', "[1, 2]"])
def test_emit_plot_data_rejects_a_foreign_manifest(tiny_run, tmp_path, foreign):
    # JSON that is not a run manifest (no object with a config_hash) makes
    # the directory no run directory, as a missing manifest does
    run = tmp_path / "foreign"
    run.mkdir()
    (run / "results.csv").write_bytes((tiny_run / "results.csv").read_bytes())
    (run / "manifest.json").write_text(foreign)
    with pytest.raises(ConfigError, match="not a run directory"):
        emit_plot_data(run)
    assert not (run / "plots").exists()


# manifests with a config_hash that plotdata cannot use
BAD_RUN_MANIFESTS = {
    "no config": {"config_hash": "x", "files": []},
    "no rate": {"config_hash": "x", "files": [], "config": {}},
    "config not an object": {"config_hash": "x", "files": [], "config": []},
    "eval_every 0": {"config_hash": "x", "files": [],
                     "config": {"rate": {"eval_every": 0}}},
    "eval_every negative": {"config_hash": "x", "files": [],
                            "config": {"rate": {"eval_every": -5}}},
    "eval_every a string": {"config_hash": "x", "files": [],
                            "config": {"rate": {"eval_every": "50"}}},
    "eval_every a float": {"config_hash": "x", "files": [],
                           "config": {"rate": {"eval_every": 2.5}}},
    "no files": {"config_hash": "x", "config": {"rate": {"eval_every": 10}}},
    "files a string": {"config_hash": "x", "files": "results.csv",
                       "config": {"rate": {"eval_every": 10}}},
}


@pytest.mark.parametrize("manifest", BAD_RUN_MANIFESTS.values(),
                         ids=BAD_RUN_MANIFESTS.keys())
def test_emit_plot_data_rejects_a_malformed_run_manifest(tiny_run, tmp_path,
                                                          manifest):
    run = tmp_path / "malformed"
    run.mkdir()
    (run / "results.csv").write_bytes((tiny_run / "results.csv").read_bytes())
    (run / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ConfigError, match="manifest.json"):
        emit_plot_data(run)
    assert not (run / "plots").exists()


def test_emit_plot_data_ignores_stale_training_log(tmp_path):
    # a training log that the run manifest does not list, such as one
    # copied in by hand, is not read; plotdata follows the manifest
    run = tmp_path / "rerun"
    run_experiment(_tiny_preset(methods=("drl",), total_steps=20), 1, run)
    assert (emit_plot_data(run) / "reward.csv").exists()
    log = (run / "drl_training_log.csv").read_text()
    run_experiment(_tiny_preset(methods=("random",), total_steps=10), 1, run)
    assert not (run / "drl_training_log.csv").exists()
    (run / "drl_training_log.csv").write_text(log)
    plots = emit_plot_data(run)
    assert not (plots / "reward.csv").exists()
    pm = json.loads((plots / "manifest.json").read_text())
    assert pm["files"] == ["min_rate.csv"]
    assert any("drl_training_log" in w for w in pm["warnings"])
