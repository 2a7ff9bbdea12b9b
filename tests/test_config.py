"""Configuration dataclasses, INI ingestion, and seed substreams."""

from pathlib import Path

import numpy as np
import pytest

from cellpilot import (
    PACKAGE_VERSION,
    ConfigError,
    EnvOptions,
    RateOptions,
    SystemConfig,
    TrainingSchedule,
    load_config_file,
    load_config_overrides,
    substream,
)


def test_defaults_are_valid():
    cfg = SystemConfig()
    assert (cfg.L, cfg.K, cfg.M) == (7, 4, 100)
    assert cfg.eta == 2.5 and cfg.R == 500.0
    TrainingSchedule()
    EnvOptions()
    RateOptions()


def test_cell_edge_snr_linear():
    assert SystemConfig(gamma_snr_db=20.0).cell_edge_snr == pytest.approx(100.0)
    assert SystemConfig(gamma_snr_db=0.0).cell_edge_snr == pytest.approx(1.0)


@pytest.mark.parametrize("kw", [
    dict(L=0), dict(K=0), dict(M=0),
    dict(eta=-1.0), dict(R=0.0), dict(sigma2=0.0), dict(spacing=0.0),
    dict(scatter_radius=0.0),
    dict(exclusion_radius=-1.0), dict(exclusion_radius=500.0),
    dict(path_gain="rayleigh"),
])
def test_system_config_rejects(kw):
    with pytest.raises(ConfigError):
        SystemConfig(**kw)


@pytest.mark.parametrize("kw", [
    dict(discount=1.5), dict(discount=-0.1),
    dict(batch_size=600, replay_capacity=500),
    dict(target_sync_period=0),
])
def test_training_schedule_rejects(kw):
    with pytest.raises(ConfigError):
        TrainingSchedule(**kw)


@pytest.mark.parametrize("kw", [
    dict(redraw="always"),
    dict(q_low=0.0), dict(q_high=1.0), dict(q_low=0.7, q_high=0.3),
    dict(threshold_samples=1), dict(redraw="none"),
])
def test_env_options_rejects(kw):
    with pytest.raises(ConfigError):
        EnvOptions(**kw)


@pytest.mark.parametrize("kw", [dict(n_mc=0), dict(eval_every=0), dict(paths=0)])
def test_rate_options_rejects(kw):
    with pytest.raises(ConfigError):
        RateOptions(**kw)


CONFIG_TEXT = """
[scenario]
L = 3
K = 2
M = 32
R = 400.0
clamp_aoa = true
path_gain = complex_normal

[training]
eps_decay = 0.999
batch_size = 50
replay_capacity = 100

[env]
redraw = smallscale
q_low = 0.1
q_high = 0.5

[rate]
n_mc = 7
pilot_snr_db = 10.0
ergodic = false
"""


def _defaults():
    return {"scenario": SystemConfig(), "training": TrainingSchedule(),
            "env": EnvOptions(), "rate": RateOptions()}


def test_load_config_file_round_trip(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CONFIG_TEXT)
    opts = load_config_file(str(path), _defaults())
    cfg = opts["scenario"]
    assert (cfg.L, cfg.K, cfg.M, cfg.R) == (3, 2, 32, 400.0)
    assert cfg.clamp_aoa is True and cfg.path_gain == "complex_normal"
    assert cfg.eta == 2.5  # untouched fields keep their defaults
    assert opts["training"].eps_decay == 0.999
    assert opts["env"].redraw == "smallscale"
    assert opts["rate"].n_mc == 7
    assert opts["rate"].pilot_snr_db == 10.0
    assert opts["rate"].ergodic is False


def test_load_config_file_lays_keys_over_base(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[scenario]\nK = 2\n[rate]\nn_mc = 3\n")
    base = _defaults()
    base["scenario"] = SystemConfig(L=3, M=64)
    base["rate"] = RateOptions(eval_every=50)
    opts = load_config_file(str(path), base)
    assert (opts["scenario"].L, opts["scenario"].K, opts["scenario"].M) == (3, 2, 64)
    assert (opts["rate"].n_mc, opts["rate"].eval_every) == (3, 50)
    assert opts["env"] is base["env"] and opts["training"] is base["training"]
    assert base["scenario"].K == 4  # the base itself is left as it was


def test_load_config_overrides_only_given_keys(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[scenario]\nL = 2\n")
    ov = load_config_overrides(str(path))
    assert ov == {"scenario": {"L": 2}}


@pytest.mark.parametrize("text", [
    "[nosuchsection]\nx = 1\n",
    "[scenario]\nnot_a_key = 1\n",
    "[scenario]\nL = not_an_int\n",
    "[scenario]\nclamp_aoa = maybe\n",
    "[scenario]\npaths = 50\n",
])
def test_load_config_rejects_bad_input(tmp_path, text):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(ConfigError):
        load_config_overrides(str(path))


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config_overrides("/nonexistent/none.ini")


def test_config_file_values_reach_validation(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[scenario]\nL = 0\n")
    with pytest.raises(ConfigError):
        load_config_file(str(path), _defaults())


def test_package_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == PACKAGE_VERSION


def test_substream_deterministic_and_labelled():
    a = substream(7, "world").random(4)
    b = substream(7, "world").random(4)
    assert np.array_equal(a, b)
    c = substream(7, "thresholds").random(4)
    d = substream(8, "world").random(4)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_substream_mixed_labels():
    a = substream(0, "rate", 10).random(3)
    b = substream(0, "rate", 11).random(3)
    assert not np.array_equal(a, b)
