"""System configuration and config-file ingestion."""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields, replace

import numpy as np

# Equal to [project].version in pyproject.toml (a test checks it); recorded
# in run manifests and checkpoints.
PACKAGE_VERSION = "0.1.0"


class ConfigError(ValueError):
    """Invalid scenario or run configuration."""


class BudgetError(RuntimeError):
    """A compute budget (e.g. the exhaustive search space) would be exceeded."""


class NumericError(RuntimeError):
    """Non-finite values encountered where finite math was required."""


@dataclass
class SystemConfig:
    """Static description of the multi-cell uplink scenario.

    Angles are radians, distances meters, powers linear unless the field
    name carries a _db suffix.
    """

    L: int = 7                    # number of cells / base stations
    K: int = 4                    # pilots per cell == users per cell
    M: int = 100                  # BS antennas (uniform linear array)
    eta: float = 2.5              # path-loss exponent
    R: float = 500.0              # cell radius (hexagon circumradius)
    gamma_snr_db: float = 20.0    # SNR at cell edge, dB
    sigma2: float = 1.0           # noise power
    spacing: float = 0.5          # antenna spacing in wavelengths
    scatter_radius: float = 50.0  # scattering ring radius around each user
    exclusion_radius: float = 50.0  # min user distance from its BS
    seed: int = 0                 # master seed for derived streams
    # behaviour switches not fixed by the model itself
    clamp_aoa: bool = False       # clamp degenerate AoA half-widths instead of raising
    path_gain: str = "phase"      # per-path amplitude: "phase" or "complex_normal"

    def __post_init__(self):
        if self.L < 1 or self.K < 1 or self.M < 1:
            raise ConfigError("L, K and M must be positive integers")
        if self.eta <= 0 or self.R <= 0 or self.sigma2 <= 0 or self.spacing <= 0:
            raise ConfigError("eta, R, sigma2 and spacing must be positive")
        if self.scatter_radius <= 0:
            raise ConfigError("scatter_radius must be positive")
        if not 0 <= self.exclusion_radius < self.R:
            raise ConfigError("exclusion_radius must lie in [0, R)")
        if self.path_gain not in ("phase", "complex_normal"):
            raise ConfigError("path_gain must be 'phase' or 'complex_normal'")

    @property
    def cell_edge_snr(self) -> float:
        """Linear SNR a cell-edge user sees, 10^(gamma_snr_db/10)."""
        return 10.0 ** (self.gamma_snr_db / 10.0)


@dataclass
class TrainingSchedule:
    """Hyper-parameters of the Q-learning loop."""

    discount: float = 0.9
    eps_start: float = 0.5
    eps_decay: float = 0.9975
    eps_floor: float = 1e-4
    batch_size: int = 200
    replay_capacity: int = 500
    target_sync_period: int = 100
    learning_rate: float = 1e-3
    rms_decay: float = 0.9
    rms_eps: float = 1e-8
    hidden_width: int = 128
    residual_blocks: int = 2

    def __post_init__(self):
        if not 0 <= self.discount <= 1:
            raise ConfigError("discount must lie in [0, 1]")
        if self.batch_size > self.replay_capacity:
            raise ConfigError("batch_size cannot exceed replay_capacity")
        if self.target_sync_period < 1:
            raise ConfigError("target_sync_period must be >= 1")


@dataclass
class EnvOptions:
    """World-evolution and reward-threshold options."""

    redraw: str = "positions"     # "smallscale" | "positions"
    threshold_samples: int = 200  # random assignments used for calibration
    q_low: float = 0.3            # quantile for the lower reward threshold
    q_high: float = 0.7           # quantile for the upper reward threshold

    def __post_init__(self):
        if self.redraw not in ("smallscale", "positions"):
            raise ConfigError("redraw must be smallscale or positions")
        if not 0 < self.q_low < self.q_high < 1:
            raise ConfigError("need 0 < q_low < q_high < 1")
        if self.threshold_samples < 2:
            raise ConfigError("threshold_samples must be >= 2")


@dataclass
class RateOptions:
    """Monte-Carlo settings for the uplink rate benchmark."""

    n_mc: int = 100               # channel realizations per evaluation
    pilot_snr_db: float | None = None  # defaults to gamma_snr_db
    eval_every: int = 10          # steps between rate evaluations in a run
    ergodic: bool = True          # mean log2(1+SINR); False: log2(1+mean SINR)
    paths: int = 200              # scattering paths per channel draw

    def __post_init__(self):
        if self.n_mc < 1 or self.eval_every < 1:
            raise ConfigError("n_mc and eval_every must be >= 1")
        if self.paths < 1:
            raise ConfigError("paths must be >= 1")


_SECTION_TYPES = {
    "scenario": SystemConfig,
    "training": TrainingSchedule,
    "env": EnvOptions,
    "rate": RateOptions,
}


def _coerce(raw: str, kind):
    if kind is bool:
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"cannot parse boolean from {raw!r}")
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {kind.__name__} from {raw!r}") from exc


def load_config_overrides(path: str) -> dict:
    """Parse an INI-style config file into per-section keyword dicts.

    Returns {section: {field: value}} with only the keys present in the
    file, so the caller can lay them over any base configuration. Unknown
    sections or keys raise ConfigError so a typo cannot silently fall
    back to a default.
    """
    parser = configparser.ConfigParser()
    parser.optionxform = str  # field names are case sensitive (L, K, M, R)
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found or unreadable: {path}")
    out = {}
    for section in parser.sections():
        if section not in _SECTION_TYPES:
            raise ConfigError(f"unknown config section [{section}]")
        cls = _SECTION_TYPES[section]
        known = {f.name: f.type for f in fields(cls)}
        kwargs = {}
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            hint = known[key]
            if hint == "int":
                kwargs[key] = _coerce(raw, int)
            elif hint in ("float", "float | None"):
                kwargs[key] = _coerce(raw, float)
            elif hint in ("bool",):
                kwargs[key] = _coerce(raw, bool)
            else:
                kwargs[key] = raw
        out[section] = kwargs
    return out


def load_config_file(path: str, base: dict) -> dict:
    """Lay an INI-style config file's keys over `base`.

    `base` maps each section (scenario/training/env/rate) to its option
    dataclass, e.g. the defaults or a preset's options. Returns a new dict
    of the same shape; fields the file does not name keep their base
    values, and every replaced dataclass is validated again.
    """
    out = dict(base)
    for section, kwargs in load_config_overrides(path).items():
        out[section] = replace(base[section], **kwargs)
    return out


def substream(seed: int, *path) -> np.random.Generator:
    """Independent generator derived from a master seed and a label path.

    String labels are folded to stable integers so the same (seed, path)
    always yields the same stream regardless of process or platform.
    """
    import zlib

    key = []
    for part in path:
        if isinstance(part, str):
            key.append(zlib.crc32(part.encode("ascii")))
        else:
            key.append(int(part) & 0xFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))
