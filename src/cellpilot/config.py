"""System configuration and config-file ingestion."""

from __future__ import annotations

import configparser
import contextlib
import ctypes
import functools
from dataclasses import dataclass, fields, replace

import numpy as np

# Equal to [project].version in pyproject.toml (a test checks it); recorded
# in run manifests.
PACKAGE_VERSION = "0.1.0"


class ConfigError(ValueError):
    """Invalid scenario or run configuration."""


class BudgetError(RuntimeError):
    """A compute budget (e.g. the exhaustive search's node count) was exceeded."""


class NumericError(RuntimeError):
    """Non-finite values encountered where finite math was required."""


# bytes that an array sized by a config key may take, checked from its shape
# before it is allocated (rate realizations, calibration samples, replay)
_BYTES_CAP = 2 ** 30


def _check_bytes(nbytes: int, what: str, key: str):
    """Raise BudgetError naming `key` if `what` needs more than _BYTES_CAP bytes."""
    if nbytes > _BYTES_CAP:
        raise BudgetError(f"{what} needs {nbytes / 2 ** 20:.0f} MiB, above the cap of"
                          f" {_BYTES_CAP / 2 ** 20:.0f} MiB; lower {key}")


def _check_finite(options):
    """Raise ConfigError if a float field of the dataclass is nan or +-inf."""
    for f in fields(options):
        value = getattr(options, f.name)
        if isinstance(value, float) and not np.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")


def _check_db(name: str, db: float, what: str = "its linear value"):
    """Raise ConfigError naming `name` unless 10^(db/10) is a finite positive
    float with a finite reciprocal (the rate benchmark divides by an SNR)."""
    with np.errstate(over="ignore", under="ignore"):
        linear = 10.0 ** np.float64(db / 10.0)
    if not np.finfo(float).tiny <= linear <= np.finfo(float).max:
        raise ConfigError(
            f"{name} is out of range: {what} 10^({db:g}/10) = {linear:g} must be "
            "a finite positive float with a finite reciprocal")


@dataclass
class SystemConfig:
    """Static description of the multi-cell uplink scenario.

    Angles are radians, distances meters, powers linear and in units of
    the noise power unless the field name carries a _db suffix. Every user
    sits farther than exclusion_radius from its own BS, so scatter_radius
    <= exclusion_radius < R keeps every BS outside every user's scattering
    ring, where the angular support is defined (see ScenarioBundle.build).
    """

    L: int = 7                    # number of cells / base stations
    K: int = 4                    # pilots per cell == users per cell
    M: int = 100                  # BS antennas (uniform linear array)
    eta: float = 2.5              # path-loss exponent
    R: float = 500.0              # cell radius (hexagon circumradius)
    gamma_snr_db: float = 20.0    # SNR at cell edge, dB
    spacing: float = 0.5          # antenna spacing in wavelengths
    scatter_radius: float = 50.0  # scattering ring radius around each user
    exclusion_radius: float = 50.0  # min user distance from its BS

    def __post_init__(self):
        _check_finite(self)
        if self.L < 1 or self.K < 1 or self.M < 1:
            raise ConfigError("L, K and M must be positive integers")
        if self.eta <= 0 or self.R <= 0 or self.spacing <= 0:
            raise ConfigError("eta, R and spacing must be positive")
        if self.scatter_radius <= 0:
            raise ConfigError("scatter_radius must be positive")
        if not self.scatter_radius <= self.exclusion_radius < self.R:
            raise ConfigError(
                "need scatter_radius <= exclusion_radius < R, got "
                f"{self.scatter_radius}, {self.exclusion_radius} and {self.R}")
        _check_db("gamma_snr_db", self.gamma_snr_db)
        _check_db("gamma_snr_db", self.gain_db,
                  "with eta and R, the path-gain constant")

    @property
    def cell_edge_snr(self) -> float:
        """Linear SNR a cell-edge user sees, 10^(gamma_snr_db/10)."""
        return 10.0 ** (self.gamma_snr_db / 10.0)

    @property
    def gain_db(self) -> float:
        """large_scale's gain constant, dB: a user at distance R sees a
        gain, in units of the noise power, equal to the cell-edge SNR."""
        return self.gamma_snr_db + 10.0 * self.eta * np.log10(self.R)


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
        _check_finite(self)
        checks = (
            (0 <= self.discount <= 1, "discount must lie in [0, 1]"),
            (0 <= self.eps_start <= 1, "eps_start must lie in [0, 1]"),
            (0 <= self.eps_floor <= 1, "eps_floor must lie in [0, 1]"),
            (0 < self.eps_decay <= 1, "eps_decay must lie in (0, 1]"),
            (self.batch_size >= 1, "batch_size must be >= 1"),
            (self.batch_size <= self.replay_capacity,
             "batch_size cannot exceed replay_capacity"),
            (self.target_sync_period >= 1, "target_sync_period must be >= 1"),
            (self.learning_rate > 0, "learning_rate must be positive"),
            (0 <= self.rms_decay < 1, "rms_decay must lie in [0, 1)"),
            (self.rms_eps > 0, "rms_eps must be positive"),
            (self.hidden_width >= 1, "hidden_width must be >= 1"),
            (self.residual_blocks >= 0, "residual_blocks must be >= 0"),
        )
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)


@dataclass
class EnvOptions:
    """World-evolution and reward-threshold options."""

    redraw: str = "positions"     # "smallscale" | "positions"
    threshold_samples: int = 200  # random assignments used for calibration
    q_low: float = 0.3            # quantile for the lower reward threshold
    q_high: float = 0.7           # quantile for the upper reward threshold

    def __post_init__(self):
        _check_finite(self)
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
        _check_finite(self)
        if self.n_mc < 1 or self.eval_every < 1:
            raise ConfigError("n_mc and eval_every must be >= 1")
        if self.paths < 1:
            raise ConfigError("paths must be >= 1")
        if self.pilot_snr_db is not None:
            _check_db("pilot_snr_db", self.pilot_snr_db)


_SECTION_TYPES = {
    "scenario": SystemConfig,
    "training": TrainingSchedule,
    "env": EnvOptions,
    "rate": RateOptions,
}


def load_config_file(path: str, base: dict) -> dict:
    """Lay an INI-style config file's keys over `base`.

    `base` maps each section (scenario/training/env/rate) to its option
    dataclass, e.g. the defaults or a preset's options. Returns a new dict
    of the same shape; fields the file does not name keep their base
    values, and every replaced dataclass is validated again. A file that
    is missing, unreadable or malformed, or names an unknown section or
    key, raises ConfigError so a typo cannot silently fall back to a
    default. Values are taken literally (no % interpolation) and read by
    the ConfigParser getter (getint, getfloat, getboolean) that the field's
    annotation names; a value it rejects raises ConfigError.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # field names are case sensitive (L, K, M, R)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found or unreadable: {path}")
    getters = {"int": parser.getint, "float": parser.getfloat,
               "float | None": parser.getfloat, "bool": parser.getboolean}
    out = dict(base)
    for section in parser.sections():
        if section not in _SECTION_TYPES:
            raise ConfigError(f"unknown config section [{section}]")
        known = {f.name: f.type for f in fields(_SECTION_TYPES[section])}
        kwargs = {}
        for key in parser.options(section):
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                kwargs[key] = getters.get(known[key], parser.get)(section, key)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc
        out[section] = replace(base[section], **kwargs)
    return out


@functools.cache
def _openblas_thread_fns():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None.

    dlsym on numpy's BLAS-linked extension also searches the libraries it
    links. The names are those of the scipy-openblas wheels, then of
    64-bit-integer and plain OpenBLAS builds. Other BLAS libraries (MKL,
    Accelerate) give None.
    """
    lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    for name in ("scipy_openblas_{}_num_threads64_",
                 "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
        get = getattr(lib, name.format("get"), None)
        set_ = getattr(lib, name.format("set"), None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold OpenBLAS at one thread inside the block, then restore its count.

    Does nothing when numpy's BLAS is not OpenBLAS.
    """
    fns = _openblas_thread_fns()
    if fns is None:
        yield
        return
    get, set_ = fns
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


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
