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
        for key, n in (("N", self.n), ("N0", self.n_inner)):
            if n < 8 or (n & (n - 1)) != 0:
                raise ConfigError(f"{key} must be a power of 2 >= 8, got {n}")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.t_final <= 0:
            raise ConfigError("t_final must be positive")
        if self.eps0 < 0 or self.k0 < 0:
            raise ConfigError("inner boundary needs eps0 >= 0 and k0 >= 0")
        if self.r0 <= 0 or self.r0 - self.eps0 <= 0:
            raise ConfigError("inner boundary radial rule must stay positive")
        if self.r_init - abs(self.eps_init) <= self.r0 + self.eps0:
            raise ConfigError("initial interface must lie strictly outside "
                              "the inner boundary")
        if self.shape_mode < 1:
            raise ConfigError("shape_mode must be >= 1")
        if self.shape_mode > self.n // 2:
            raise ConfigError(f"shape_mode must be <= N/2 = {self.n // 2}, "
                              f"got {self.shape_mode}")
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


# file keys are the field names, except the conventional parameter names
_FILE_KEYS = {"p": "P", "a": "A", "ginv": "Ginv", "r0": "R0",
              "r_init": "R_init", "n": "N", "n0": "N0"}


def parse_config_text(text):
    """Parse key = value lines, each value by its field's type; blank lines,
    comments and [sections] ignored."""
    schema = {_FILE_KEYS.get(f.name, f.name): f for f in fields(SimulationConfig)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line or line.startswith("["):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in schema:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        field = schema[key]
        try:
            values[field.name] = field.type(value)
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

