"""Configuration dataclasses, INI ingestion, and seed substreams."""

import configparser
from pathlib import Path

import numpy as np
import pytest

from cellpilot import (
    PACKAGE_VERSION,
    BudgetError,
    ConfigError,
    EnvOptions,
    RateOptions,
    SystemConfig,
    TrainingSchedule,
    load_config_file,
    presets,
    substream,
)
from cellpilot.config import _BYTES_CAP, _check_bytes


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
    dict(eta=-1.0), dict(R=0.0), dict(eta=0.0), dict(spacing=0.0),
    dict(scatter_radius=0.0),
    dict(exclusion_radius=-1.0), dict(exclusion_radius=500.0),
    # floats built in Python must be finite, as in an INI file
    dict(eta=np.nan), dict(gamma_snr_db=np.nan), dict(scatter_radius=np.nan),
    dict(eta=np.inf), dict(spacing=np.inf), dict(R=np.inf),
    # a scattering ring wider than the exclusion disk could hold its own BS
    dict(exclusion_radius=10.0), dict(scatter_radius=60.0),
    # an SNR whose linear value or its reciprocal is not a finite float
    dict(gamma_snr_db=4000.0), dict(gamma_snr_db=-4000.0), dict(gamma_snr_db=-3090.0),
    # ... or whose path-gain constant (with eta and R) is not
    dict(gamma_snr_db=3080.0), dict(gamma_snr_db=300.0, eta=120.0),
    dict(gamma_snr_db=-3000.0, eta=100.0, R=0.5, scatter_radius=0.1,
         exclusion_radius=0.2),
])
def test_system_config_rejects(kw):
    with pytest.raises(ConfigError):
        SystemConfig(**kw)


@pytest.mark.parametrize("kw", [
    dict(discount=1.5), dict(discount=-0.1),
    dict(batch_size=600, replay_capacity=500),
    dict(target_sync_period=0),
    dict(learning_rate=np.inf), dict(rms_eps=np.inf),
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


@pytest.mark.parametrize("kw", [
    dict(n_mc=0), dict(eval_every=0), dict(paths=0),
    dict(pilot_snr_db=np.nan), dict(pilot_snr_db=-np.inf),
    dict(pilot_snr_db=4000.0), dict(pilot_snr_db=-4000.0), dict(pilot_snr_db=-3090.0),
])
def test_rate_options_rejects(kw):
    with pytest.raises(ConfigError):
        RateOptions(**kw)


CONFIG_TEXT = """
[scenario]
L = 3
K = 2
M = 32
R = 400.0

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
    assert cfg.eta == 2.5  # untouched fields keep their defaults
    assert opts["training"].eps_decay == 0.999
    assert opts["env"].redraw == "smallscale"
    assert opts["rate"].n_mc == 7
    assert opts["rate"].pilot_snr_db == 10.0
    assert opts["rate"].ergodic is False
    # booleans take ConfigParser's words, in any case
    for word, want in (("1", True), ("yes", True), ("TRUE", True), ("On", True),
                       ("0", False), ("no", False), ("False", False), ("off", False)):
        path.write_text(f"[rate]\nergodic = {word}\n")
        assert load_config_file(str(path), _defaults())["rate"].ergodic is want


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
    base = _defaults()
    opts = load_config_file(str(path), base)
    assert opts["scenario"] == SystemConfig(L=2)
    for section in ("training", "env", "rate"):
        assert opts[section] is base[section]


@pytest.mark.parametrize("text", [
    "[nosuchsection]\nx = 1\n",
    "[scenario]\nnot_a_key = 1\n",
    "[scenario]\nL = not_an_int\n",
    "[rate]\nergodic = maybe\n",     # not a boolean word
    # keys of deleted fields are unknown keys, whatever their value
    "[scenario]\nclamp_aoa = maybe\n",
    "[scenario]\nclamp_aoa = true\n",
    "[scenario]\npath_gain = phase\n",
    "[scenario]\npaths = 50\n",
    "[scenario]\nsigma2 = 1.0\n",
    "[scenario]\nL = 3\nL = 4\n",    # duplicate key
    "L = 3\n",                        # no section header
    "[scenario]\nL 3\n",              # no delimiter
    "[env]\nredraw = 5%\n",           # % is literal, then fails validation
    "[scenario]\ngamma_snr_db = nan\n",  # floats must be finite
    "[scenario]\neta = NaN\n",
    "[scenario]\nspacing = inf\n",
    "[scenario]\ngamma_snr_db = -inf\n",
    "[rate]\npilot_snr_db = nan\n",
    "[rate]\npilot_snr_db = -Infinity\n",
    "[scenario]\ngamma_snr_db = 4000\n",  # linear SNRs must be finite floats
    "[scenario]\ngamma_snr_db = 3080\n",
    "[rate]\npilot_snr_db = -4000\n",
    "[scenario]\nL = 3.0\n",           # an int field takes no float text
    "[scenario]\neta = x\n",
])
def test_load_config_rejects_bad_input(tmp_path, text):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(ConfigError):
        load_config_file(str(path), _defaults())


def test_readme_example_config_loads(tmp_path):
    # the README's example loads over the defaults, and every key it names
    # takes the desk preset's value
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "example.ini"
    path.write_text(block)
    opts = load_config_file(str(path), _defaults())
    desk = presets()["desk"]
    want = {"scenario": desk.config, "training": desk.schedule,
            "env": desk.env, "rate": desk.rate}
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser.read_string(block)
    named = [(section, key) for section in parser.sections() for key in parser[section]]
    assert len(named) == 14
    for section, key in named:
        assert getattr(opts[section], key) == getattr(want[section], key), key


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config_file("/nonexistent/none.ini", _defaults())


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


def test_package_surface():
    import cellpilot
    names = cellpilot.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(cellpilot, name), name
    # transition records folded into CostTable and the trajectory row, the
    # scalar pair-cost layer folded into the one cost kernel, and the INI
    # reader folded into load_config_file, and the single-link channel copy
    # folded into the one generator, rate._draw_channels
    for gone in ("EnvState", "StepOutcome", "SwapAction", "NullBounds",
                 "NullBoundsError", "first_null_bounds", "approx_gain",
                 "response_overlap", "load_config_overrides", "realize_channel",
                 "ExtendedAssignment", "kernel_zeros"):
        assert gone not in names and not hasattr(cellpilot, gone)


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


def test_byte_cap_names_the_key():
    # one cap for every array a config key sizes: the cap itself passes,
    # a byte more raises BudgetError naming the key to lower
    _check_bytes(_BYTES_CAP, "an array", "[rate] paths")
    with pytest.raises(BudgetError, match=r"^an array needs 1024 MiB, above the cap "
                                          r"of 1024 MiB; lower \[rate\] paths$"):
        _check_bytes(_BYTES_CAP + 1, "an array", "[rate] paths")
