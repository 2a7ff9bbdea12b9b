"""Command-line interface: subcommands, config loading, exit codes."""

import contextlib
import csv
import functools
import io
import json

import numpy as np
import pytest

from cellpilot import (
    EnvOptions,
    ExperimentPreset,
    PilotAssignment,
    RateOptions,
    SystemConfig,
    TrainingSchedule,
    WorldStream,
    forward,
    load_config_file,
    make_env,
    run_experiment,
    spr_like_assignment,
    train,
)
from cellpilot import assignment
from cellpilot.cli import main
from cellpilot.env import TRAJECTORY_FIELDS
from cellpilot.qnn import TRAINING_LOG_FIELDS
from test_harness import _tiny_preset

TINY_INI = """\
[scenario]
L = 2
K = 2
M = 8
scatter_radius = 30.0
exclusion_radius = 100.0

[training]
batch_size = 8
replay_capacity = 16
hidden_width = 8
residual_blocks = 1
target_sync_period = 10

[env]
redraw = smallscale
threshold_samples = 20

[rate]
n_mc = 2
eval_every = 5
paths = 5
"""


def _options(ini):
    """The options the CLI loads from ini over the defaults."""
    base = {"scenario": SystemConfig(), "training": TrainingSchedule(),
            "env": EnvOptions(), "rate": RateOptions()}
    return load_config_file(ini, base)


def _train(ini, steps, seed):
    """The in-process train run that `cellpilot train` makes of ini."""
    opts = _options(ini)
    return train(make_env(opts["scenario"], opts["env"], seed), opts["training"],
                 steps, seed)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def ini(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_INI)
    return str(path)


def test_train_command(tmp_path, ini):
    out = tmp_path / "run"
    code, stdout, _ = _run(["train", "--steps", "12", "--seed", "3",
                            "--config", ini, "--out", str(out)])
    assert code == 0
    assert "trained 12 steps" in stdout
    for fname in ("training_log.csv", "trajectory.csv", "checkpoint.npz",
                  "assignment.txt"):
        assert (out / fname).exists(), fname
    log = (out / "training_log.csv").read_text().strip().splitlines()
    assert len(log) == 13
    assign = PilotAssignment.from_text((out / "assignment.txt").read_text())
    assert assign.shape == (2, 2)


def test_train_saves_the_trained_weights(tmp_path, ini):
    out = tmp_path / "run"
    code, _, _ = _run(["train", "--steps", "12", "--seed", "3",
                       "--config", ini, "--out", str(out)])
    assert code == 0
    params = _train(ini, 12, 3).params
    with np.load(out / "checkpoint.npz") as data:
        weights = {name: data[name] for name in data.files}
    assert list(weights) == list(params)  # every tensor, in init order
    for name, arr in weights.items():
        assert arr.dtype == params[name].dtype == np.float32, name
        assert arr.shape == params[name].shape, name
        assert arr.tobytes() == params[name].tobytes(), name
    x = np.random.default_rng(0).standard_normal((5, params["fc0.W"].shape[1]))
    assert np.array_equal(forward(weights, x), forward(params, x))


def test_non_finite_loss_exit_code(tmp_path):
    diverging = tmp_path / "diverging.ini"
    diverging.write_text(TINY_INI.replace("[training]\n",
                                          "[training]\nlearning_rate = 1e30\n"))
    out = tmp_path / "run"
    # the diverging net overflows float32 on its way to a non-finite loss
    with pytest.warns(RuntimeWarning, match="overflow|invalid value"):
        code, _, stderr = _run(["train", "--steps", "40", "--seed", "3",
                                "--config", str(diverging), "--out", str(out)])
    assert code == 4
    assert "error: non-finite training loss" in stderr


@pytest.mark.parametrize("steps", ["0", "-5"])
def test_train_rejects_non_positive_steps(tmp_path, ini, steps):
    out = tmp_path / "run"
    code, _, stderr = _run(["train", "--steps", steps, "--seed", "3",
                            "--config", ini, "--out", str(out)])
    assert code == 2
    assert "--steps must be >= 1" in stderr
    assert not out.exists()


@pytest.mark.parametrize("method,fname", [
    ("random", "assignment_random.txt"),
    ("exhaustive", "assignment_exhaustive.txt"),
    ("spr", "assignment_spr_like.txt"),
])
def test_baseline_commands(tmp_path, ini, method, fname):
    out = tmp_path / "base"
    code, stdout, _ = _run(["baseline", "--method", method, "--seed", "1",
                            "--config", ini, "--out", str(out)])
    assert code == 0
    assert f"{method} baseline" in stdout
    assert "worst-user cost" in stdout
    assert (out / fname).exists()
    if method == "spr":
        assert (out / "overhead_spr_like.txt").exists()
        assert "%" in stdout
        opts = _options(ini)
        world = WorldStream(opts["scenario"], opts["env"].redraw, 1).world
        want, report = spr_like_assignment(world)
        head, *rows = (out / fname).read_text().splitlines()
        assert head == f"n_pilots {report.required_pilots}"
        assert np.array_equal([[int(p) for p in row.split()] for row in rows], want)


@pytest.mark.parametrize("method, name", [("exhaustive", "exhaustive"),
                                          ("spr", "spr_like")])
def test_baseline_command_writes_the_run_files(tmp_path, ini, method, name):
    # redraw = smallscale: the command's world is the run's step-0 world
    code, stdout, _ = _run(["baseline", "--method", method, "--seed", "4",
                            "--config", ini, "--out", str(tmp_path / "cli")])
    assert code == 0
    opts = _options(ini)
    preset = ExperimentPreset(
        name="one_step", config=opts["scenario"], schedule=opts["training"],
        env=opts["env"], rate=opts["rate"], methods=(name,), total_steps=1)
    run = run_experiment(preset, 4, tmp_path / "run")
    written = sorted(p.name for p in (tmp_path / "cli").iterdir())
    assert written == sorted(p.name for p in run.glob("*.txt")) != []
    for fname in written:
        assert (tmp_path / "cli" / fname).read_bytes() == (run / fname).read_bytes()
    _, rows = _read(run / "costs.csv")
    assert f"worst-user cost {float(rows[0]['global_max']):.6g}\n" in stdout


def test_baseline_exhaustive_budget_gate(tmp_path, monkeypatch):
    # the default scenario at seed 0 solves in 6 search nodes, inside the
    # default node budget; a budget of one node refuses it with exit 3, and
    # makes no --out directory, until --long-run lifts the budget
    argv = ["baseline", "--method", "exhaustive", "--seed", "0"]
    code, solved, _ = _run(argv)
    assert code == 0
    monkeypatch.setattr(assignment, "exhaustive_search",
                        functools.partial(assignment.exhaustive_search, budget=1))
    out = tmp_path / "base"
    code, _, stderr = _run(argv + ["--out", str(out)])
    assert code == 3
    assert "node budget" in stderr and "--long-run" in stderr
    assert not out.exists()
    assert _run(argv + ["--long-run"])[:2] == (0, solved)


def test_evaluate_command(tmp_path, ini):
    assignment = tmp_path / "assign.txt"
    assignment.write_text("0 1\n1 0\n")
    code, stdout, _ = _run(["evaluate", str(assignment), "--seed", "2",
                            "--config", ini])
    assert code == 0
    assert "worst-user cost" in stdout and "per-cell max" in stdout
    assert "min rate" not in stdout
    code, stdout, _ = _run(["evaluate", str(assignment), "--seed", "2",
                            "--config", ini, "--rate"])
    assert code == 0
    assert "min rate" in stdout and "bits/s/Hz" in stdout


def test_rate_realization_above_the_byte_cap_exit_code(tmp_path):
    # 10^8 paths: one realization would need about 322 GiB; the rate pass
    # refuses it from the shapes, before it allocates, with exit 3
    ini = tmp_path / "paths.ini"
    ini.write_text("[rate]\npaths = 100000000\n")
    assignment = tmp_path / "assign.txt"
    assignment.write_text("0 1 2 3\n" * 7)
    code, stdout, stderr = _run(["evaluate", str(assignment), "--seed", "0",
                                 "--config", str(ini), "--rate"])
    assert code == 3
    assert stderr.startswith("error: ") and "lower [rate] paths" in stderr
    assert "worst-user cost" in stdout and "min rate" not in stdout


def test_experiment_rate_realization_above_the_byte_cap_exit_code(tmp_path):
    # desk's first evaluation step (49) refuses its one rate pass: every
    # method fails with exit 3, and the earlier run in --out keeps its bytes
    out = run_experiment(_tiny_preset(methods=("random",), total_steps=10), 1,
                         out_dir=tmp_path / "run")
    before = {f.name: f.read_bytes() for f in out.iterdir()}
    ini = tmp_path / "paths.ini"
    ini.write_text("[rate]\npaths = 100000000\n")
    code, stdout, stderr = _run(["experiment", "--preset", "desk", "--seed", "0",
                                 "--config", str(ini), "--out", str(out)])
    assert code == 3 and stdout == ""
    assert stderr.startswith("error: ") and "lower [rate] paths" in stderr
    assert "Traceback" not in stderr
    assert {f.name: f.read_bytes() for f in out.iterdir()} == before


@pytest.mark.parametrize("section, key", [("env", "threshold_samples"),
                                          ("training", "replay_capacity")])
def test_train_sizes_above_the_byte_cap_exit_code(tmp_path, section, key):
    # 10^12 calibration samples (7.3 TiB) or replay slots (over 500 TiB):
    # refused from the shapes before they are allocated, with exit 3
    ini = tmp_path / "big.ini"
    ini.write_text(f"[{section}]\n{key} = 1000000000000\n")
    out = tmp_path / "train"
    code, stdout, stderr = _run(["train", "--steps", "2", "--config", str(ini),
                                 "--out", str(out)])
    assert code == 3 and stdout == ""
    assert stderr.startswith("error: ") and f"lower [{section}] {key}" in stderr
    assert not out.exists()


def test_evaluate_shape_mismatch(tmp_path):
    assignment = tmp_path / "assign.txt"
    assignment.write_text("0 1\n1 0\n")  # default scenario is 7 cells x 4 pilots
    code, _, stderr = _run(["evaluate", str(assignment), "--seed", "2"])
    assert code == 2
    assert "does not match" in stderr


def test_bad_config_exit_code(tmp_path):
    missing = tmp_path / "nope.ini"
    code, _, stderr = _run(["train", "--steps", "1", "--config", str(missing)])
    assert code == 2 and "error" in stderr
    bad = tmp_path / "bad.ini"
    bad.write_text("[scenario]\nL = 99\n")
    code, _, stderr = _run(["train", "--steps", "1", "--config", str(bad)])
    assert code == 2 and "error" in stderr
    for text in ("[scenario]\nL = 2\nL = 3\n",  # duplicate key
                 "L = 2\n",                     # no section header
                 "[scenario]\nL 3\n",           # a line without a delimiter
                 "[env]\nredraw = 5%\n"):       # a % interpolation would reject
        bad.write_text(text)
        code, _, stderr = _run(["baseline", "--method", "random",
                                "--config", str(bad)])
        assert code == 2 and stderr.startswith("error: "), text
    # the noise power is the unit of every gain, so sigma2 is no key
    bad.write_text("[scenario]\nsigma2 = 1.0\n")
    code, _, stderr = _run(["baseline", "--method", "random", "--config", str(bad)])
    assert code == 2 and "unknown key 'sigma2' in section [scenario]" in stderr


@pytest.mark.parametrize("line, argv", [
    ("gamma_snr_db = nan", ["baseline", "--method", "random"]),
    ("spacing = inf", ["baseline", "--method", "random"]),
    ("[rate]\npilot_snr_db = nan", ["evaluate", "ASSIGN", "--rate"]),
    # linear SNRs that overflow or vanish
    ("[rate]\npilot_snr_db = 4000", ["evaluate", "ASSIGN", "--rate"]),
    ("[rate]\npilot_snr_db = -4000", ["evaluate", "ASSIGN", "--rate"]),
    ("gamma_snr_db = 4000", ["evaluate", "ASSIGN", "--rate"]),
    ("gamma_snr_db = 4000", ["baseline", "--method", "random"]),
])
def test_non_finite_config_exit_code(tmp_path, line, argv):
    bad = tmp_path / "bad.ini"
    bad.write_text(f"[scenario]\nL = 2\nK = 2\nM = 8\n{line}\n")
    assignment = tmp_path / "assign.txt"
    assignment.write_text("0 1\n1 0\n")
    argv = [str(assignment) if a == "ASSIGN" else a for a in argv]
    code, stdout, stderr = _run(argv + ["--seed", "0", "--config", str(bad)])
    assert code == 2 and stderr.startswith("error: ") and stdout == ""


def test_evaluate_missing_assignment_exit_code(tmp_path):
    code, _, stderr = _run(["evaluate", str(tmp_path / "missing.txt")])
    assert code == 2
    assert "missing.txt" in stderr


def test_unplaceable_users_exit_code(tmp_path):
    # the exclusion disk passes SystemConfig's check (< R) but leaves the
    # hexagon no room for a user: a configuration error, not a crash
    bad = tmp_path / "tight.ini"
    bad.write_text("[scenario]\nL = 2\nK = 2\nM = 8\nexclusion_radius = 499.99\n")
    code, _, stderr = _run(["baseline", "--method", "random", "--seed", "0",
                            "--config", str(bad)])
    assert code == 2
    assert "could not place user 0 in cell 0 after 10000 draws" in stderr


@pytest.mark.parametrize("seed", [0, 1])
def test_scatter_ring_wider_than_exclusion_disk_exit_code(tmp_path, seed):
    # some drops of such radii put a user inside its own ring and others
    # do not; the config is refused before any drop, on every seed
    bad = tmp_path / "ring.ini"
    bad.write_text("[scenario]\nexclusion_radius = 10\n")
    code, stdout, stderr = _run(["baseline", "--method", "random",
                                 "--seed", str(seed), "--config", str(bad)])
    assert code == 2 and stdout == ""
    assert stderr == ("error: need scatter_radius <= exclusion_radius < R, "
                      "got 50.0, 10.0 and 500.0\n")


@pytest.mark.parametrize("line, message", [
    ("exclusion_radius = 499.99", "could not place user 0 in cell 0"),
    ("L = 8", "supports at most 7 cells"),
])
def test_experiment_without_a_finished_method_exit_code(tmp_path, line, message):
    # every method fails while building world 0: the first method's error
    # and its exit code, and no run file
    bad = tmp_path / "bad.ini"
    bad.write_text(f"[scenario]\n{line}\n")
    out = tmp_path / "run"
    code, stdout, stderr = _run(["experiment", "--preset", "desk", "--seed", "0",
                                 "--config", str(bad), "--out", str(out)])
    assert code == 2 and stdout == ""
    assert stderr.startswith("error: ") and message in stderr
    assert not out.exists()


@pytest.mark.parametrize("command", [["experiment", "--preset", "desk"],
                                     ["train", "--steps", "5"]])
def test_failed_command_removes_the_directories_it_made(tmp_path, command):
    # no user fits in any cell (exit 2): every directory of the nested
    # --out that the command made goes again, and the one it found stays
    bad = tmp_path / "tight.ini"
    bad.write_text("[scenario]\nexclusion_radius = 499.99\n")
    kept = tmp_path / "kept"
    kept.mkdir()
    code, stdout, stderr = _run([*command, "--seed", "0", "--config", str(bad),
                                 "--out", str(kept / "deep" / "a" / "b")])
    assert code == 2 and stdout == ""
    assert "could not place user 0 in cell 0" in stderr
    assert kept.is_dir() and not any(kept.iterdir())


def test_failed_baseline_write_removes_the_directories_it_made(tmp_path, ini,
                                                               monkeypatch):
    # the write of `baseline --out` fails (exit 2): the directories of the
    # nested --out that it made go again, and the one it found stays
    def failing(out_dir, files):
        raise OSError("disk full")

    monkeypatch.setattr("cellpilot.cli._write_files", failing)
    code, _, stderr = _run(["baseline", "--method", "random", "--config", ini,
                            "--out", str(tmp_path / "a" / "b")])
    assert code == 2 and stderr == "error: disk full\n"
    assert tmp_path.is_dir() and not (tmp_path / "a").exists()


@pytest.mark.parametrize("command", ["train", "baseline", "experiment"])
def test_unwritable_output_exit_code(tmp_path, ini, command):
    # an output path through a regular file is an error line and exit 2,
    # not a traceback
    afile = tmp_path / "afile"
    afile.write_text("")
    argv = {
        "train": ["train", "--steps", "3", "--config", ini, "--out", str(afile)],
        "baseline": ["baseline", "--method", "random", "--config", ini,
                     "--out", str(afile / "x")],
        "experiment": ["experiment", "--preset", "desk", "--seed", "1",
                       "--out", str(afile)],
    }[command]
    code, _, stderr = _run(argv)
    assert code == 2
    assert stderr.startswith("error: ") and "Traceback" not in stderr


def test_seed_defaults_to_zero(ini):
    command = ["baseline", "--method", "random", "--config", ini]
    code, stdout, _ = _run(command)
    assert code == 0 and "(seed 0)" in stdout
    assert _run(command + ["--seed", "0"]) == (code, stdout, "")


@pytest.mark.parametrize("key, value, message", [
    ("hidden_width", "0", "hidden_width must be >= 1"),
    ("residual_blocks", "-1", "residual_blocks must be >= 0"),
    ("batch_size", "0", "batch_size must be >= 1"),
    ("learning_rate", "-1", "learning_rate must be positive"),
    ("learning_rate", "0", "learning_rate must be positive"),
    ("rms_decay", "1", "rms_decay must lie in [0, 1)"),
    ("rms_decay", "-0.1", "rms_decay must lie in [0, 1)"),
    ("rms_eps", "0", "rms_eps must be positive"),
    ("eps_start", "1.5", "eps_start must lie in [0, 1]"),
    ("eps_start", "-0.1", "eps_start must lie in [0, 1]"),
    ("eps_floor", "2", "eps_floor must lie in [0, 1]"),
    ("eps_decay", "0", "eps_decay must lie in (0, 1]"),
    ("eps_decay", "1.01", "eps_decay must lie in (0, 1]"),
])
def test_invalid_training_schedule_exit_code(tmp_path, key, value, message):
    bad = tmp_path / "bad.ini"
    bad.write_text(f"[training]\n{key} = {value}\n")
    code, _, stderr = _run(["train", "--steps", "1", "--config", str(bad),
                            "--out", str(tmp_path / "run")])
    assert code == 2
    assert f"error: {message}" in stderr


def test_missing_required_arg_is_usage_error():
    with contextlib.redirect_stderr(io.StringIO()):
        with pytest.raises(SystemExit):
            main(["experiment", "--preset", "desk"])  # --seed is required


def test_experiment_config_lays_keys_over_the_preset(tmp_path, monkeypatch):
    monkeypatch.setattr("cellpilot.cli.presets",
                        lambda: {"tiny": _tiny_preset(methods=("random",))})
    path = tmp_path / "over.ini"
    path.write_text("[rate]\nn_mc = 3\n")
    code, _, _ = _run(["experiment", "--preset", "tiny", "--seed", "1",
                       "--config", str(path), "--out", str(tmp_path / "run")])
    assert code == 0
    config = json.loads((tmp_path / "run" / "manifest.json").read_text())["config"]
    assert config["rate"]["n_mc"] == 3
    # every other field is the preset's, not the package default
    assert config["rate"]["eval_every"] == 10 and config["scenario"]["L"] == 2


# The one run-file format: each CSV's header and the floats they carry.
CSV_FIELDS = {
    "results.csv": ("method", "seed", "step", "min_rate", "overhead_factor"),
    "costs.csv": ("method", "seed", "step", "global_max"),
    "plot_min_rate.csv": ("step", "series", "value"),
    "plot_reward.csv": ("step", "series", "value"),
    "drl_training_log.csv": TRAINING_LOG_FIELDS,
    "training_log.csv": TRAINING_LOG_FIELDS,
    "drl_trajectory.csv": TRAJECTORY_FIELDS,
    "trajectory.csv": TRAJECTORY_FIELDS,
}
FLOAT_COLUMNS = {"min_rate", "overhead_factor", "global_max", "value",
                 "epsilon", "loss", "g_prev", "g_next"}


def _read(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return tuple(reader.fieldnames), list(reader)


def test_every_csv_shares_one_format(tmp_path, ini):
    run_experiment(_tiny_preset(), master_seed=5, out_dir=tmp_path / "run")
    code, _, _ = _run(["train", "--steps", "12", "--seed", "3",
                       "--config", ini, "--out", str(tmp_path / "train")])
    assert code == 0
    code, _, _ = _run(["baseline", "--method", "spr", "--seed", "3",
                       "--config", ini, "--out", str(tmp_path / "base")])
    assert code == 0
    # every text file the three commands write has \n line ends
    texts = sorted(tmp_path.glob("*/*.txt")) + [tmp_path / "run" / "manifest.json"]
    assert {p.parent.name for p in texts} == {"run", "train", "base"}
    for path in texts:
        assert b"\r" not in path.read_bytes(), path
    paths = sorted(tmp_path.rglob("*.csv"))
    assert sorted(p.name for p in paths) == sorted(CSV_FIELDS)
    for path in paths:
        assert b"\r" not in path.read_bytes(), path.name
        fields, rows = _read(path)
        assert fields == CSV_FIELDS[path.name], path.name
        assert rows, path.name
        for row in rows:
            for name in FLOAT_COLUMNS & row.keys():
                if row[name]:
                    assert f"{float(row[name]):.17g}" == row[name], (path.name, name)

    # the train output reads back as exactly the rows the same run holds
    result = _train(ini, 12, 3)
    for fname, fields, held in (
            ("training_log.csv", TRAINING_LOG_FIELDS, result.rows),
            ("trajectory.csv", TRAJECTORY_FIELDS, result.rows)):
        _, rows = _read(tmp_path / "train" / fname)
        assert len(rows) == len(held) == 12
        for row, want in zip(rows, held):
            for name in fields:
                v = want[name]
                if v is None:
                    assert row[name] == ""
                elif isinstance(v, float):
                    assert float(row[name]) == v, (fname, name)
                else:
                    assert int(row[name]) == v, (fname, name)
