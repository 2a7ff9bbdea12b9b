"""Experiment harness: presets, result files, reruns, plot tables."""

import csv
import dataclasses
import functools
import io
import json
from pathlib import Path

import numpy as np
import pytest

from cellpilot import (
    BudgetError,
    ConfigError,
    EnvOptions,
    ExperimentPreset,
    RateOptions,
    SystemConfig,
    TrainingSchedule,
    min_rate,
    moving_average,
    presets,
    run_experiment,
    substream,
)
from cellpilot import assignment, contamination, env, harness, scenario
from cellpilot.env import _BLOCK, TRAJECTORY_FIELDS, WorldStream
from cellpilot.harness import SHORT_TERM_STEPS, _run_methods
from cellpilot.qnn import TRAINING_LOG_FIELDS

RUN_FILES = (
    "results.csv", "costs.csv", "manifest.json",
    "drl_training_log.csv", "drl_trajectory.csv",
    "assignment_drl.txt", "assignment_exhaustive.txt",
    "assignment_spr_like.txt", "overhead_spr_like.txt",
    "plot_min_rate.csv", "plot_reward.csv",
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


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ------------------------------------------------------------------ presets

def test_builtin_presets():
    p = presets()
    assert set(p) == {"desk", "full"}
    desk, full = p["desk"], p["full"]
    assert (desk.config.L, desk.config.K, desk.config.M) == (3, 3, 64)
    assert set(desk.methods) == {"random", "spr_like", "exhaustive", "drl"}
    assert desk.long_run_methods == ()
    assert (full.config.L, full.config.K, full.config.M) == (7, 4, 100)
    # the full-scale exhaustive search runs without the long-run flag
    assert full.methods == ("random", "spr_like", "drl", "exhaustive")
    assert full.long_run_methods == ()


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


@pytest.fixture(scope="module")
def moving_run(tmp_path_factory):
    # a new drop every step, over more steps than both smoothing windows
    preset = dataclasses.replace(
        _tiny_preset(total_steps=80),
        env=EnvOptions(redraw="positions", threshold_samples=30),
        rate=RateOptions(n_mc=2, eval_every=20, paths=5))
    out = tmp_path_factory.mktemp("runs") / "moving"
    return run_experiment(preset, master_seed=5, out_dir=out)


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


def test_positions_run_shares_one_world_stream(tiny_run, moving_run):
    # every method still sees the same worlds, and they are not the
    # smallscale run's (same seed, same world 0)
    methods = json.loads((moving_run / "manifest.json").read_text())["methods"]
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
    # the run's step loop records drl's costs.csv rows from the rows its
    # Learner steps; step by step they are the g_next of the one record
    # both drl files project
    costs = [row for row in _read(tiny_run / "costs.csv") if row["method"] == "drl"]
    trajectory = _read(tiny_run / "drl_trajectory.csv")
    log = _read(tiny_run / "drl_training_log.csv")
    assert len(costs) == len(trajectory) == len(log) == 30
    for t, (cost, traj, entry) in enumerate(zip(costs, trajectory, log)):
        assert int(cost["step"]) == int(traj["step"]) == int(entry["step"]) == t
        assert cost["global_max"] == traj["g_next"], t

    # and drl's result holds both files' text, row for row its cost rows
    res = _run_methods(("drl",), _tiny_preset(), 5, False, {})["drl"]
    held_log, held_trajectory = (
        list(csv.DictReader(io.StringIO(res.files[name])))
        for name in ("drl_training_log.csv", "drl_trajectory.csv"))
    assert len(held_log) == len(held_trajectory) == len(res.cost_rows) == 30
    for entry, traj, (t, g_next) in zip(held_log, held_trajectory, res.cost_rows):
        assert tuple(entry) == TRAINING_LOG_FIELDS
        assert tuple(traj) == TRAJECTORY_FIELDS
        assert int(entry["step"]) == int(traj["step"]) == t
        assert float(traj["g_next"]) == g_next
        assert f"{g_next:.17g}" == traj["g_next"] == costs[t]["global_max"]


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
    assert {int(row["step"]) for row in _read(out / "results.csv")} == {199, 399}


def test_method_failure_is_isolated(tmp_path, monkeypatch):
    # a one-node budget trips the full-size exhaustive search; the
    # experiment must record that and still finish the other method
    monkeypatch.setattr(assignment, "exhaustive_search",
                        functools.partial(assignment.exhaustive_search, budget=1))
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


def test_full_preset_scores_drl_against_the_optimum(tmp_path):
    # the paper's comparison at full scale: exhaustive runs by default, and
    # its worst-user cost bounds drl's and random's at every step (spr_like
    # uses more pilots, so its cost is not comparable)
    full = presets()["full"]
    short = dataclasses.replace(
        full, total_steps=3,
        rate=dataclasses.replace(full.rate, eval_every=3, n_mc=1))
    out = run_experiment(short, master_seed=0, out_dir=tmp_path / "full")
    manifest = json.loads((out / "manifest.json").read_text())
    assert {name: m["status"] for name, m in manifest["methods"].items()} == (
        dict.fromkeys(full.methods, "ok"))
    cost = {(row["method"], int(row["step"])): float(row["global_max"])
            for row in _read(out / "costs.csv")}
    for t in range(3):
        assert cost["exhaustive", t] <= min(cost["drl", t], cost["random", t])


def test_run_without_a_finished_method_raises(tmp_path, monkeypatch):
    # no user fits between the exclusion disk and the hexagon: every method
    # fails on world 0, and the run raises the first one's error and writes
    # no file; an earlier run in the directory is left as it was
    earlier = run_experiment(_tiny_preset(methods=("random",), total_steps=10), 1,
                             out_dir=tmp_path / "run")
    before = {f.name: f.read_bytes() for f in earlier.iterdir()}
    preset = _tiny_preset(exclusion_radius=499.99)
    with pytest.raises(ConfigError, match="could not place user 0 in cell 0"):
        run_experiment(preset, 1, out_dir=earlier)
    assert {f.name: f.read_bytes() for f in earlier.iterdir()} == before
    # method order, not the order of failure: spr_like raises while running,
    # then its rate evaluation drops random, whose error is the one raised
    real = harness.baseline_assignment

    def failing(name, *args, **kwargs):
        if name == "spr_like":
            raise RuntimeError("spr_like")
        return real(name, *args, **kwargs)

    def rate(*args):
        raise ValueError("rate pass")

    monkeypatch.setattr(harness, "baseline_assignment", failing)
    monkeypatch.setattr(harness, "min_rate", rate)
    with pytest.raises(ValueError, match="rate pass"):
        run_experiment(_tiny_preset(methods=("random", "spr_like")), 1, out_dir=earlier)
    assert {f.name: f.read_bytes() for f in earlier.iterdir()} == before


def test_failed_write_leaves_the_earlier_run_whole(tmp_path, monkeypatch):
    # a rerun whose write of file k fails stages its files in a directory
    # that goes again: the earlier run keeps every byte, manifest included.
    # A rename that fails after the earlier run went leaves no manifest
    # that lists a file it did not write
    earlier = run_experiment(_tiny_preset(methods=("random", "spr_like"), total_steps=10),
                             1, out_dir=tmp_path / "run")
    before = {f.name: f.read_bytes() for f in earlier.iterdir()}
    assert len(before) == 6
    for step in ("write_text", "replace"):
        for k in range(len(before)):
            owner = Path if step == "write_text" else harness.os
            real, calls = getattr(owner, step), []

            def failing(*args, **kwargs):
                calls.append(args)
                if len(calls) == k + 1:
                    raise OSError(f"{step} {k}")
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, step, failing)
            with pytest.raises(OSError, match=f"{step} {k}"):
                run_experiment(_tiny_preset(methods=("random", "spr_like"), total_steps=10),
                               2, out_dir=earlier)
            monkeypatch.undo()
            left = {f.name: f.read_bytes() for f in earlier.iterdir()}
            assert all(f.is_file() for f in earlier.iterdir())
            if step == "write_text":
                assert left == before, k
            else:
                assert "manifest.json" not in left, k
                earlier = run_experiment(
                    _tiny_preset(methods=("random", "spr_like"), total_steps=10),
                    1, out_dir=earlier)
                assert {f.name: f.read_bytes() for f in earlier.iterdir()} == before


def _positions_preset(methods=("random", "spr_like", "exhaustive")):
    # K=3, so spr_like's pilot count differs from the other maps'
    return dataclasses.replace(
        _tiny_preset(methods=methods, K=3),
        env=EnvOptions(redraw="positions", threshold_samples=30))


def test_shared_rate_pass_matches_lone_calls(tmp_path, monkeypatch):
    # each results.csv row is a lone min_rate of that method's map on that
    # step's world, drawn from the step's rate substream
    preset = _positions_preset()
    shared = []

    def spy(world, maps, rng, options):
        shared.append((world, list(maps)))
        return min_rate(world, maps, rng, options)

    monkeypatch.setattr(harness, "min_rate", spy)
    out = run_experiment(preset, master_seed=4, out_dir=tmp_path / "run")
    rows = [(row["method"], int(row["step"]), row["min_rate"], row["overhead_factor"])
            for row in _read(out / "results.csv")]
    steps = sorted({t for _, t, _, _ in rows})
    assert len(shared) == len(steps)
    stream, expected = WorldStream(preset.config, "positions", 4), {}
    for t, (world, maps) in zip(steps, shared):
        while len(stream.digests) < t + 2:  # world 0, then t + 1 advances
            stream.advance()
        assert world.digest() == stream.digests[-1], t
        assert len(maps) == len(preset.methods)
        for name, (u2p, n_pilots) in zip(preset.methods, maps):
            report, = min_rate(world, [(u2p, n_pilots)],
                               substream(4, "rate", t), preset.rate)
            expected.setdefault(name, []).append(
                (name, t, f"{report.min_rate:.17g}", f"{n_pilots / 3:.17g}"))
    assert rows == [row for name in preset.methods for row in expected[name]]
    assert len(rows) == 3 * 3
    assert {ov for name, _, _, ov in rows if name == "spr_like"} != {"1"}


@pytest.mark.parametrize("redraw", ["positions", "smallscale"])
def test_lockstep_baselines_match_lone_runs(tmp_path, redraw):
    # every method, drl included, steps on one world stream: each one's
    # rows, files and manifest entry in a four-method run are those of a
    # same-seed run with that method alone
    preset = dataclasses.replace(
        _positions_preset(("random", "spr_like", "exhaustive", "drl")),
        env=EnvOptions(redraw=redraw, threshold_samples=30))
    together = run_experiment(preset, 4, out_dir=tmp_path / "together")
    methods = json.loads((together / "manifest.json").read_text())["methods"]
    for name in preset.methods:
        alone = run_experiment(dataclasses.replace(preset, methods=(name,)), 4,
                               out_dir=tmp_path / name)
        for fname in ("costs.csv", "results.csv"):
            rows = [line for line in (together / fname).read_text().splitlines()
                    if line.startswith(f"{name},")]
            assert rows and rows == (alone / fname).read_text().splitlines()[1:], (
                name, fname)
        manifest = json.loads((alone / "manifest.json").read_text())
        assert methods[name] == manifest["methods"][name]
        for fname in manifest["files"]:
            if fname.startswith(("assignment_", "overhead_", "drl_")):
                assert (together / fname).read_bytes() == (alone / fname).read_bytes(), (
                    name, fname)
    assert {"assignment_drl.txt", "drl_training_log.csv",
            "drl_trajectory.csv"} <= set(manifest["files"])


def test_positions_run_draws_each_world_once(tmp_path, monkeypatch):
    # T steps of drl and three baselines draw T + 1 worlds, world 0
    # included, not T + 1 per stream; the stream draws in blocks, so at
    # most _BLOCK - 1 more. The threshold calibration draws its own drops.
    real, drops = scenario._draw_drops, []
    real_init, streams = WorldStream.__init__, []

    def spy(*args, **kwargs):
        positions = real(*args, **kwargs)
        drops.append(len(positions))
        return positions

    def init(self, *args):
        streams.append(self)
        real_init(self, *args)

    monkeypatch.setattr(scenario, "_draw_drops", spy)
    monkeypatch.setattr(WorldStream, "__init__", init)
    preset = _positions_preset(("random", "spr_like", "exhaustive", "drl"))
    run_experiment(preset, 4, out_dir=tmp_path / "run")
    T, calibration = preset.total_steps, preset.env.threshold_samples
    assert T + 1 <= sum(drops) - calibration <= T + _BLOCK
    assert len(streams) == 1


@pytest.mark.parametrize("steps", [1, 7, 8, 9, 17])
@pytest.mark.parametrize("preset", ["desk", "full"])
@pytest.mark.parametrize("redraw", ["positions", "smallscale"])
def test_block_solves_match_per_step_baselines(redraw, preset, steps):
    # random and spr_like solve a block of steps at once, capped by the
    # steps left; step for step each gives the (map, n_pilots, cost) of
    # baseline_assignment on that step's world and the same generator, and
    # random's maps are successive random_assignment draws
    cfg = presets()[preset].config
    for name in ("random", "spr_like"):
        stream, ref = WorldStream(cfg, redraw, 3), WorldStream(cfg, redraw, 3)
        rng, ref_rng, draws = (substream(3, "baseline", name) for _ in range(3))
        ahead, costs = [], []
        for t in range(steps):
            stream.advance()
            ref.advance()
            if not ahead:
                ahead = harness._solve_block(name, stream, rng, steps - t, False)
                # on "smallscale" spr_like's one solution serves every step left
                cap = steps - t if (redraw, name) == ("smallscale", "spr_like") else _BLOCK
                assert 1 <= len(ahead) <= min(steps - t, cap)
            u2p, n_pilots, cost, files = ahead.popleft()
            want = assignment.baseline_assignment(name, ref.world, ref_rng, ref.pairwise)
            assert (u2p.shape, u2p.tobytes()) == (want[0].shape, want[0].tobytes()), (name, t)
            assert (n_pilots, cost) == want[1:3] and type(cost) is float, (name, t)
            if name == "random":
                drawn = assignment.random_assignment(cfg.L, cfg.K, draws)
                assert np.array_equal(u2p, drawn.user_to_pilot()), t
            else:
                assert files() == want[3](), t
            costs.append((t, cost))
        assert not ahead
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        # and the harness's rows are those solutions
        preset_run = dataclasses.replace(
            presets()[preset], methods=(name,), total_steps=steps,
            env=EnvOptions(redraw=redraw, threshold_samples=30),
            rate=RateOptions(n_mc=1, eval_every=steps + 1, paths=5))
        assert _run_methods((name,), preset_run, 3, False, {})[name].cost_rows == costs


def test_positions_baselines_build_no_pair_cost_matrix(tmp_path, monkeypatch):
    # random and spr_like score every block from its co-pilot pairs; drl
    # reads world 0's matrix, then each block's, built once when it enters
    # the block: 30 steps enter the blocks of worlds 1-8, 9-16, 17-24 and 25-32.
    # The spy sits on every binding the package calls the pair-cost kernel by
    real, calls = contamination._pairwise_costs, []

    def counting(config, gains, *links):
        calls.append(gains.shape[:-3])  # the leading drop axes, () for one drop
        return real(config, gains, *links)

    for module in (contamination, env):
        monkeypatch.setattr(module, "_pairwise_costs", counting)
    free = run_experiment(_positions_preset(("random", "spr_like")), 4,
                          out_dir=tmp_path / "free")
    assert calls == []
    with_drl = run_experiment(_positions_preset(("random", "spr_like", "drl")), 4,
                              out_dir=tmp_path / "drl")
    assert calls == [()] + [(_BLOCK,)] * 4
    for name in ("results.csv", "costs.csv"):
        rows = [line for line in (with_drl / name).read_text().splitlines()
                if not line.startswith("drl,")]
        assert rows == (free / name).read_text().splitlines(), name


def test_stream_failure_fails_every_baseline(tmp_path, monkeypatch):
    # the world stream raises at step 11: no baseline finishes, so the run
    # raises the stream's error and writes no file
    real = WorldStream.advance

    def advance(self):
        if len(self.digests) == 12:  # world 0 and one per step so far
            raise ConfigError("could not place user 1 in cell 0")
        real(self)

    monkeypatch.setattr(WorldStream, "advance", advance)
    out = tmp_path / "run"
    with pytest.raises(ConfigError, match="could not place user 1 in cell 0"):
        run_experiment(_positions_preset(("random", "spr_like")), 4, out_dir=out)
    assert not out.exists()
    # a baseline that failed before keeps its own error: spr_like's block
    # solve of step 8, its second block's first step, raises
    real_solve, calls = harness._solve_block, []

    def failing(name, *args):
        calls.append(name)
        if name == "spr_like" and calls.count(name) == 2:
            raise RuntimeError("spr_like")
        return real_solve(name, *args)

    monkeypatch.setattr(harness, "_solve_block", failing)
    failures = {}
    assert _run_methods(("random", "spr_like"), _positions_preset(), 4, False,
                        failures) == {}
    assert {name: str(exc) for name, exc in failures.items()} == {
        "spr_like": "spr_like", "random": "could not place user 1 in cell 0"}
    assert calls.count("random") == 2  # the blocks of steps 0 and 8


def test_no_rate_pass_once_every_method_failed(monkeypatch):
    # the last method fails on evaluation step 8, where its second block
    # of maps is drawn: nothing is left to score, so no rate pass runs and
    # no rate channels are drawn
    real_solve, calls = harness._solve_block, []

    def failing(name, *args):
        calls.append(name)
        if len(calls) == 2:
            raise RuntimeError(name)
        return real_solve(name, *args)

    def rate_pass(world, maps, *args):
        scored.append(list(maps))
        return min_rate(world, maps, *args)

    scored = []
    monkeypatch.setattr(harness, "_solve_block", failing)
    monkeypatch.setattr(harness, "min_rate", rate_pass)
    preset = dataclasses.replace(_tiny_preset(methods=("random",)),
                                 rate=RateOptions(n_mc=2, eval_every=_BLOCK + 1, paths=5))
    failures = {}
    assert _run_methods(("random",), preset, 4, False, failures) == {}
    assert {name: str(exc) for name, exc in failures.items()} == {"random": "random"}
    assert scored == []


def test_stream_failure_inside_drl_fails_every_method(tmp_path, monkeypatch):
    # drl's env.step advances the shared stream, which raises at step 7:
    # that is the stream's error, so every method gets it and the run
    # raises it and writes no file
    real, advanced = WorldStream.advance, []

    def advance(self):
        advanced.append(len(self.digests))
        if len(self.digests) == 8:
            raise ConfigError("could not place user 1 in cell 0")
        real(self)

    monkeypatch.setattr(WorldStream, "advance", advance)
    methods = ("random", "spr_like", "drl")
    out = tmp_path / "run"
    with pytest.raises(ConfigError, match="could not place user 1 in cell 0"):
        run_experiment(_positions_preset(methods), 4, out_dir=out)
    assert not out.exists()
    # one stream, advanced once a step and not again after it failed
    assert advanced == list(range(1, 9))
    failures = {}
    assert _run_methods(methods, _positions_preset(), 4, False, failures) == {}
    assert {name: str(exc) for name, exc in failures.items()} == dict.fromkeys(
        methods, "could not place user 1 in cell 0")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_drl_numeric_error_leaves_the_baselines_rows(tmp_path):
    # drl diverges mid-run; the baselines go on stepping the stream, and
    # their rows are the bytes of a run without drl
    plain = run_experiment(_positions_preset(("random", "spr_like")), 4,
                           out_dir=tmp_path / "plain")
    preset = _positions_preset(("random", "spr_like", "drl"))
    preset = dataclasses.replace(preset, schedule=dataclasses.replace(
        preset.schedule, learning_rate=1e30))
    out = run_experiment(preset, 4, out_dir=tmp_path / "diverged")
    for name in ("results.csv", "costs.csv"):
        assert (out / name).read_bytes() == (plain / name).read_bytes(), name
    methods = json.loads((out / "manifest.json").read_text())["methods"]
    assert methods["drl"]["status"] == "error"
    assert methods["drl"]["error"].startswith(
        "NumericError: non-finite training loss at step ")
    assert methods["random"] == json.loads(
        (plain / "manifest.json").read_text())["methods"]["random"]
    assert not (out / "drl_training_log.csv").exists()


@pytest.mark.parametrize("where", ["run", "rate"])
def test_failing_method_leaves_the_others_rows(tmp_path, monkeypatch, where):
    # at step 19, an evaluation step, exhaustive raises while running or
    # hands the rate evaluation a map with a pilot out of range; either way
    # it stops there, random's and spr_like's rows are the bytes of a run
    # without it, and its error is in the manifest
    plain = run_experiment(_positions_preset(("random", "spr_like")), 4,
                           out_dir=tmp_path / "plain")
    real, calls = harness.baseline_assignment, []

    def failing(name, *args, **kwargs):
        u2p, n_pilots, g_max, files = real(name, *args, **kwargs)
        if name == "exhaustive":
            calls.append(name)
            if len(calls) == 20:
                if where == "run":
                    raise RuntimeError("step 19")
                n_pilots -= 1
        return u2p, n_pilots, g_max, files

    monkeypatch.setattr(harness, "baseline_assignment", failing)
    out = run_experiment(_positions_preset(), 4, out_dir=tmp_path / "failing")
    for name in ("results.csv", "costs.csv"):
        assert (out / name).read_bytes() == (plain / name).read_bytes(), name
    assert len(calls) == 20  # exhaustive stops at the step it failed
    methods = json.loads((out / "manifest.json").read_text())["methods"]
    assert methods["random"]["status"] == methods["spr_like"]["status"] == "ok"
    assert methods["exhaustive"]["status"] == "error"
    assert methods["exhaustive"]["error"] == (
        "RuntimeError: step 19" if where == "run" else
        "ValueError: user_to_pilot must be 2x3 with pilots in [0, 2)")


def test_refused_map_leaves_one_rate_pass_per_step(tmp_path, monkeypatch):
    # exhaustive hands evaluation step 19 a map with a pilot out of range:
    # it fails alone before the step's one min_rate call, which scores the
    # other two maps; every evaluation step makes exactly one call
    real, solves, refused = harness.baseline_assignment, [], []

    def failing(name, *args, **kwargs):
        u2p, n_pilots, g_max, files = real(name, *args, **kwargs)
        if name == "exhaustive":
            solves.append(name)
            if len(solves) == 20:
                n_pilots -= 1
                refused.append(u2p)
        return u2p, n_pilots, g_max, files

    def spy(world, maps, *args):
        calls.append([pilot_of for pilot_of, _ in maps])
        return min_rate(world, maps, *args)

    calls = []
    monkeypatch.setattr(harness, "baseline_assignment", failing)
    monkeypatch.setattr(harness, "min_rate", spy)
    out = run_experiment(_positions_preset(), 4, out_dir=tmp_path / "run")
    assert [len(maps) for maps in calls] == [3, 2, 2]  # steps 9, 19 and 29
    assert not any(pilot_of is refused[0] for pilot_of in calls[1])
    methods = json.loads((out / "manifest.json").read_text())["methods"]
    assert methods["exhaustive"]["error"] == (
        "ValueError: user_to_pilot must be 2x3 with pilots in [0, 2)")


def test_rate_pass_error_fails_every_running_method(tmp_path, monkeypatch):
    # the one min_rate call of evaluation step 19 raises: every method
    # still running, drl included, fails with its error, spr_like keeps the
    # one its block solve raised at step 16, and the run raises it and
    # writes no file
    real_solve, solves, calls = harness._solve_block, [], []

    def failing(name, *args):
        solves.append(name)
        if name == "spr_like" and solves.count(name) == 3:
            raise RuntimeError("spr_like")
        return real_solve(name, *args)

    def rate_pass(world, maps, *args):
        calls.append(len(maps))
        if len(calls) == 2:
            raise BudgetError("rate pass")
        return min_rate(world, maps, *args)

    monkeypatch.setattr(harness, "_solve_block", failing)
    monkeypatch.setattr(harness, "min_rate", rate_pass)
    methods = ("random", "spr_like", "exhaustive", "drl")
    failures = {}
    assert _run_methods(methods, _positions_preset(methods), 4, False, failures) == {}
    assert {name: str(exc) for name, exc in failures.items()} == {
        "spr_like": "spr_like", "random": "rate pass", "exhaustive": "rate pass",
        "drl": "rate pass"}
    assert calls == [4, 3]
    out = tmp_path / "run"
    solves.clear(), calls.clear()
    with pytest.raises(BudgetError, match="rate pass"):
        run_experiment(_positions_preset(methods), 4, out_dir=out)
    assert not out.exists()


def test_run_experiment_holds_one_blas_thread(two_blas_threads, tmp_path,
                                              monkeypatch):
    # the whole run, rate evaluation included, at one thread; the caller's
    # count comes back on return and on raise
    counts, real = [], harness.min_rate

    def spy(*args, **kwargs):
        counts.append(two_blas_threads())
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "min_rate", spy)
    run_experiment(_tiny_preset(methods=("random", "spr_like"), total_steps=20),
                   1, out_dir=tmp_path / "run")
    assert counts == [1, 1]
    assert two_blas_threads() == 2
    (tmp_path / "file").write_text("")
    with pytest.raises(OSError):
        run_experiment(_tiny_preset(methods=("random",), total_steps=10), 1,
                       out_dir=tmp_path / "file")
    assert two_blas_threads() == 2


# ------------------------------------------------------------ plot tables

def _plot_tables_from_csv(run):
    """Both plot tables, recomputed from the run's CSV files and manifest."""
    manifest = json.loads((run / "manifest.json").read_text())
    eval_every = manifest["config"]["rate"]["eval_every"]
    results = _read(run / "results.csv")
    rate = ["step,series,value"]
    for m in sorted({row["method"] for row in results}):
        mine = sorted((row for row in results if row["method"] == m),
                      key=lambda row: int(row["step"]))
        ma = moving_average([float(row["min_rate"]) for row in mine],
                            max(1, SHORT_TERM_STEPS // eval_every))
        rate += [f"{row['step']},{m},{v:.17g}" for row, v in zip(mine, ma)]
    log = _read(run / "drl_training_log.csv")
    reward = np.array([float(row["reward"]) for row in log])
    n = np.arange(1, reward.size + 1)
    series = {"reward": reward,
              "reward_short_term": moving_average(reward, SHORT_TERM_STEPS),
              "reward_long_term": np.cumsum(reward) / n,
              "negative_ratio": np.cumsum(reward < 0) / n}
    rewards = ["step,series,value"] + [
        f"{row['step']},{name},{v:.17g}"
        for name, values in series.items() for row, v in zip(log, values)]
    return "\n".join(rate) + "\n", "\n".join(rewards) + "\n"


@pytest.mark.parametrize("run", ["tiny_run", "moving_run"])
def test_plot_tables_match_the_csv_oracle(request, run):
    run = request.getfixturevalue(run)
    rate, reward = _plot_tables_from_csv(run)
    assert (run / "plot_min_rate.csv").read_text() == rate
    assert (run / "plot_reward.csv").read_text() == reward
    assert {row["series"] for row in _read(run / "plot_min_rate.csv")} == {
        "random", "spr_like", "exhaustive", "drl"}
    assert {row["series"] for row in _read(run / "plot_reward.csv")} == {
        "reward", "reward_short_term", "reward_long_term", "negative_ratio"}


def test_drl_free_run_writes_no_reward_table(tmp_path):
    # and a drl-free rerun removes the reward table of an earlier drl run
    run = tmp_path / "rerun"
    run_experiment(_tiny_preset(methods=("drl",), total_steps=20), 1, run)
    assert (run / "plot_reward.csv").exists()
    run_experiment(_tiny_preset(methods=("random",), total_steps=10), 1, run)
    assert (run / "plot_min_rate.csv").exists()
    assert not (run / "plot_reward.csv").exists()
    manifest = json.loads((run / "manifest.json").read_text())
    assert "plot_reward.csv" not in manifest["files"]


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


@pytest.mark.parametrize("foreign", [
    '{"files": ["notes.txt"]}', "not json", "[1, 2]", '{"config_hash": "x"}',
    '{"config_hash": "x", "files": "notes.txt"}',
    '{"config_hash": "x", "files": [1]}',
    '{"config_hash": "x", "files": ["notes.txt", 1]}',
    '{"config_hash": "x", "files": [""]}',
    '{"config_hash": "x", "files": [".."]}',
    '{"config_hash": "x", "files": ["sub"]}',
])
def test_rerun_keeps_files_of_a_foreign_manifest(tmp_path, foreign):
    # a files string is no file list: its letters name no file to delete; a
    # list holding a non-string is no run's; and a name that is not a
    # regular file directly inside the directory is never deleted
    run = tmp_path / "foreign"
    (run / "sub").mkdir(parents=True)
    for name in ("notes.txt", "t", "sub/notes.txt"):
        (run / name).write_text("mine\n")
    (run / "manifest.json").write_text(foreign)
    run_experiment(_tiny_preset(methods=("random",), total_steps=10), 1, run)
    for name in ("notes.txt", "t", "sub/notes.txt"):
        assert (run / name).read_text() == "mine\n"
