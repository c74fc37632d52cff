"""Run configuration: flat key = value files and validation."""

import math
from dataclasses import dataclass, fields, replace

from .solver import Params


class ConfigError(ValueError):
    """Invalid or unreadable run configuration."""


@dataclass
class SimulationConfig:
    """Everything a simulation run needs; fully deterministic (no seeds).

    The inner boundary follows r0 + eps0 cos(k0 a); the initial interface
    follows r_init + eps_init cos(k_init a).  Intervals are in simulation
    time; zero disables the corresponding output stream.
    """

    p: float = 5.0
    a: float = 0.25
    chi: float = 5.0
    beta: float = 0.5
    sigma_n: float = 0.2
    ginv: float = 1e-3
    r0: float = 0.1
    eps0: float = 0.0
    k0: int = 0
    r_init: float = 2.5
    eps_init: float = 0.1
    k_init: int = 2
    n: int = 256
    n0: int = 0                  # 0 means: use n
    dt: float = 1e-4
    t_final: float = 1.0
    shape_mode: int = 2
    record_interval: float = 0.0     # 0: record every step
    snapshot_interval: float = 0.0   # 0: only initial and final snapshots
    trace_interval: float = 0.0      # 0: only final traces
    min_gap_factor: float = 2.0
    out_dir: str = ""

    def __post_init__(self):
        self.validate()

    def validate(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if field.type is float and not math.isfinite(value):
                raise ConfigError(f"{field.name} must be finite, got {value}")
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ConfigError(f"N must be a power of 2 >= 8, got {self.n}")
        n0 = self.n0 or self.n
        if n0 < 8 or (n0 & (n0 - 1)) != 0:
            raise ConfigError(f"N0 must be a power of 2 >= 8, got {n0}")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.t_final <= 0:
            raise ConfigError("t_final must be positive")
        if self.eps0 < 0 or self.k0 < 0:
            raise ConfigError("inner boundary needs eps0 >= 0 and k0 >= 0")
        if self.r0 <= 0 or self.r0 - self.eps0 <= 0:
            raise ConfigError("inner boundary radial rule must stay positive")
        if self.r_init - self.eps_init <= self.r0 + self.eps0:
            raise ConfigError("initial interface must lie strictly outside "
                              "the inner boundary")
        if self.shape_mode < 1:
            raise ConfigError("shape_mode must be >= 1")
        if self.min_gap_factor <= 0:
            raise ConfigError("min_gap_factor must be positive")
        for name in ("record_interval", "snapshot_interval", "trace_interval"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        try:
            self.params()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def params(self):
        return Params(p=self.p, a=self.a, chi=self.chi, beta=self.beta,
                      sigma_n=self.sigma_n, ginv=self.ginv)

    @property
    def n_inner(self):
        return self.n0 or self.n

    def with_overrides(self, **overrides):
        known = {f.name for f in fields(self)}
        bad = set(overrides) - known
        if bad:
            raise ConfigError(f"unknown config keys: {sorted(bad)}")
        return replace(self, **overrides)


# file keys follow the conventional parameter names
_KEY_TO_FIELD = {
    "P": "p", "A": "a", "chi": "chi", "beta": "beta", "sigma_n": "sigma_n",
    "Ginv": "ginv", "R0": "r0", "eps0": "eps0", "k0": "k0",
    "R_init": "r_init", "eps_init": "eps_init", "k_init": "k_init",
    "N": "n", "N0": "n0", "dt": "dt", "t_final": "t_final",
    "shape_mode": "shape_mode", "record_interval": "record_interval",
    "snapshot_interval": "snapshot_interval", "trace_interval": "trace_interval",
    "min_gap_factor": "min_gap_factor", "out_dir": "out_dir",
}
_INT_FIELDS = {"k0", "k_init", "n", "n0", "shape_mode"}


def parse_config_text(text):
    """Parse key = value lines; blank lines, comments and [sections] ignored."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line or line.startswith("["):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEY_TO_FIELD:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        name = _KEY_TO_FIELD[key]
        try:
            if name == "out_dir":
                values[name] = value
            elif name in _INT_FIELDS:
                values[name] = int(value)
            else:
                values[name] = float(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {value!r}") from exc
    return values


def load_config(path, **overrides):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values = parse_config_text(text)
    values.update(overrides)
    try:
        return SimulationConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc

