"""Flat key = value run configuration: parsing, validation, serialization.

The grammar is one ``key = value`` pair per line; ``#`` starts a comment
anywhere; blank lines are ignored. Every key has a documented default (a few
depend on the chosen model), unknown keys are rejected, and the serialized
form of a parsed configuration parses back to an identical one, which is how
the output manifest stays machine-replayable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Optional, Union

from .controls import ControlGrid
from .engine import SweepOptions, initial_positions
from .models import ModelSpec, evacuation_model, refinancing_model

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config",
    "format_config",
    "shipped_config_path",
    "DENSITY_GRID_POINTS",
]

_MODELS = ("evacuation", "refinancing")
_THETA_SELF = ("exclude", "include")
# seeds key counter-based Philox streams as an unsigned 64-bit word
_SEED_LIMIT = 2**64
# particles x time points of the largest trajectory set a run may hold. The
# sweep keeps several float arrays of this size, so 5e7 cells is about 2 GB;
# evacuation_full.cfg needs 6.0e6
_MAX_TRAJECTORY_CELLS = 50_000_000
# evenly spaced points of [domain_lo, domain_hi] at which the density
# snapshots are written
DENSITY_GRID_POINTS = 512

# geometry defaults the two shipped models were calibrated with
_GEOMETRY_DEFAULTS = {
    "evacuation": {"domain_lo": 0.0, "domain_hi": 1.0, "control_lo": -0.2, "control_hi": 0.2},
    "refinancing": {"domain_lo": -1.0, "domain_hi": 1.0, "control_lo": -0.05, "control_hi": 0.05},
}


def _count(n: int) -> str:
    """``%.3g`` of a count, which may be an integer too large for a float."""
    return f"{n:.3g}" if n < 1e300 else "more than 1e300"


class ConfigError(ValueError):
    """Configuration rejected; carries the offending line number if known."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved, validated run description.

    All distances are in state units, all times in horizon units; ``T`` is
    the horizon and ``dt`` the step, with ``T/dt`` required to be integral.
    """

    model: str
    domain_lo: float
    domain_hi: float
    control_lo: float
    control_hi: float
    n_particles: int
    n_alpha: int
    dt: float
    T: float
    sigma: float
    seed: int
    eta: float
    beta: float
    eps: float
    softening: float
    m1: float
    kde_bandwidth: float
    snapshot_times: tuple
    value_trace_starts: tuple
    phase1_enabled: bool
    phase1_particles: int
    phase1_keep_fraction: float
    max_sweeps: int
    theta_self: str

    def __post_init__(self) -> None:
        if self.model not in _MODELS:
            raise ConfigError(f"model must be one of {_MODELS}, got {self.model!r}")
        if not self.dt > 0.0:
            raise ConfigError("dt must be positive")
        if not self.T > 0.0:
            raise ConfigError("T must be positive")
        if self.n_particles < 1:
            raise ConfigError("n_particles must be at least 1")
        if self.phase1_particles < 1:
            raise ConfigError("phase1_particles must be at least 1")
        ratio = self.T / self.dt
        particles = max(self.n_particles, self.phase1_particles if self.phase1_enabled else 1)
        # a count too large for a float is too large a run at any horizon
        cells = particles * (ratio + 1.0) if particles < 1e300 else math.inf
        if not cells <= _MAX_TRAJECTORY_CELLS:
            raise ConfigError(
                f"run too large: {_count(particles)} particles x {ratio + 1.0:.6g} time points "
                f"= {cells:.3g} trajectory cells, above the limit of {_MAX_TRAJECTORY_CELLS:.3g}"
            )
        # each step prices a (particles, n_alpha) block of controls
        if not particles * self.n_alpha <= _MAX_TRAJECTORY_CELLS:
            raise ConfigError(
                f"run too large: {_count(particles)} particles x {_count(self.n_alpha)} "
                f"controls = {_count(particles * self.n_alpha)} cost cells, above the "
                f"limit of {_MAX_TRAJECTORY_CELLS:.3g}"
            )
        if abs(ratio - round(ratio)) > 1e-9:
            raise ConfigError("T must be an integer multiple of dt (within 1e-9)")
        if self.n_alpha < 2:
            raise ConfigError("n_alpha must be at least 2")
        # a width that overflows to inf leaves no finite grid on the interval
        if not 0.0 < self.domain_hi - self.domain_lo < math.inf:
            raise ConfigError("domain_lo must be below domain_hi, by a finite width")
        if not 0.0 < self.control_hi - self.control_lo < math.inf:
            raise ConfigError("control_lo must be below control_hi, by a finite width")
        if not 0 <= self.seed < _SEED_LIMIT:
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.sigma < 0.0:
            raise ConfigError("sigma must be non-negative")
        for t in self.snapshot_times:
            if not 0.0 <= t <= self.T:
                raise ConfigError(f"snapshot_times entry {t!r} outside [0, T]")
        # a narrower kernel falls between the density grid's points
        spacing = (self.domain_hi - self.domain_lo) / (DENSITY_GRID_POINTS - 1)
        if not self.kde_bandwidth >= spacing:
            raise ConfigError(
                f"kde_bandwidth must be at least the {spacing:.6g} spacing of the "
                f"{DENSITY_GRID_POINTS}-point density grid, got {self.kde_bandwidth:.6g}"
            )
        if not 0.0 <= self.phase1_keep_fraction <= 1.0:
            raise ConfigError("phase1_keep_fraction must lie in [0, 1]")
        if self.max_sweeps < 0:
            raise ConfigError("max_sweeps must be non-negative")
        if self.theta_self not in _THETA_SELF:
            raise ConfigError(f"theta_self must be one of {_THETA_SELF}")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))

    def build_model(self) -> ModelSpec:
        """The model, refused unless every configured particle starts where
        the initial density is positive."""
        domain = (self.domain_lo, self.domain_hi)
        try:
            if self.model == "evacuation":
                model = evacuation_model(
                    eta=self.eta, beta=self.beta, eps=self.eps, softening=self.softening,
                    domain=domain, sigma=self.sigma,
                )
            else:
                model = refinancing_model(m1=self.m1, eps=self.eps, domain=domain, sigma=self.sigma)
            # a domain that misses the density raises here; one far wider
            # than its support has a CDF grid too coarse to place within it
            counts = (self.n_particles,) + ((self.phase1_particles,) if self.phase1_enabled else ())
            for n in counts:
                x0 = initial_positions(n, model.initial_density, domain)
                outside = x0[~(model.initial_density(x0) > 0.0)]
                if outside.size:
                    raise ValueError(
                        f"{outside.size} of {n} particles would start where the initial "
                        f"density is zero (first at {outside[0]:g}): [{domain[0]:g}, "
                        f"{domain[1]:g}] is too wide for the CDF grid that places them"
                    )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return model

    def build_grid(self) -> ControlGrid:
        return ControlGrid.uniform(self.control_lo, self.control_hi, self.n_alpha)

    def sweep_options(self) -> SweepOptions:
        return SweepOptions(theta_self=self.theta_self)


# --------------------------------------------------------------------------
# key registry: (kind, default, applicable models); _GEOMETRY marks defaults
# taken from _GEOMETRY_DEFAULTS, _REQUIRED marks keys with no default
# --------------------------------------------------------------------------

_REQUIRED = object()
_GEOMETRY = object()

_KEYS: dict[str, tuple[str, object, tuple]] = {
    "model": ("str", _REQUIRED, _MODELS),
    "domain_lo": ("float", _GEOMETRY, _MODELS),
    "domain_hi": ("float", _GEOMETRY, _MODELS),
    "control_lo": ("float", _GEOMETRY, _MODELS),
    "control_hi": ("float", _GEOMETRY, _MODELS),
    "n_particles": ("int", 600, _MODELS),
    "n_alpha": ("int", 11, _MODELS),
    "dt": ("float", 0.004, _MODELS),
    "T": ("float", 4.0, _MODELS),
    "sigma": ("float", 2.5e-9, _MODELS),
    "seed": ("int", 0, _MODELS),
    "eta": ("float", 4.0, ("evacuation",)),
    "beta": ("float", 1.0, ("evacuation",)),
    "eps": ("float", 0.5, _MODELS),
    "softening": ("float", 0.2, ("evacuation",)),
    "m1": ("float", 0.1, ("refinancing",)),
    "kde_bandwidth": ("float", 0.05, _MODELS),
    "snapshot_times": ("float_list", (), _MODELS),
    "value_trace_starts": ("float_list", (), _MODELS),
    "phase1_enabled": ("bool", False, _MODELS),
    "phase1_particles": ("int", 150, _MODELS),
    "phase1_keep_fraction": ("float", 0.01, _MODELS),
    "max_sweeps": ("int", 50, _MODELS),
    "theta_self": ("str", "exclude", _MODELS),
}

# keys earlier versions accepted; a config or manifest that still sets one is
# refused with the reason instead of the generic unknown-key error
_REMOVED_KEYS = {
    "workers": "the sweep runs on one thread",
    "sweep_mode": "every sweep visits all live particles at every step",
    "rate_choice": "the refinancing rate is always 0.05 + theta",
    "state_cost_choice": "the refinancing state cost is always (1 + x) / 2",
    "cost_eval": "candidates are priced post-step exactly when the drift has no state gain",
    "convergence_threshold": "a run converges when a sweep modifies no control",
}

assert set(_KEYS) == {f.name for f in fields(RunConfig)}


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError
    return value


def _convert(key: str, kind: str, raw: str, line: int):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return _finite(raw)
        if kind == "bool":
            if raw == "true":
                return True
            if raw == "false":
                return False
            raise ValueError
        if kind == "float_list":
            if raw == "":
                return ()
            return tuple(_finite(part.strip()) for part in raw.split(","))
        return raw
    except ValueError:
        label = {"float": "finite float", "float_list": "list of finite floats"}.get(kind, kind)
        raise ConfigError(
            f"value {raw!r} for key {key!r} is not a valid {label}", line
        ) from None


def parse_config(path: Union[str, Path]) -> RunConfig:
    """Parse and fully validate a run configuration file.

    The file is read as UTF-8 whatever the locale. Raises OSError if it
    cannot be read and ConfigError (with a line number where one applies)
    for text that is not UTF-8 and for grammar or validation problems.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError("not valid UTF-8 text", data.count(b"\n", 0, exc.start) + 1) from None
    raw: dict[str, tuple[str, int]] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError("expected 'key = value'", line_no)
        key, value = body.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("missing key before '='", line_no)
        if key in _REMOVED_KEYS:
            raise ConfigError(f"key {key!r} was removed: {_REMOVED_KEYS[key]}", line_no)
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}", line_no)
        if key in raw:
            raise ConfigError(f"duplicate key {key!r}", line_no)
        raw[key] = (value, line_no)

    if "model" not in raw:
        raise ConfigError("the 'model' key is required")
    model_raw, model_line = raw["model"]
    if model_raw not in _MODELS:
        raise ConfigError(f"model must be one of {_MODELS}, got {model_raw!r}", model_line)

    values: dict[str, object] = {}
    for key, (kind, default, models) in _KEYS.items():
        if key in raw:
            raw_value, line_no = raw[key]
            if model_raw not in models:
                raise ConfigError(
                    f"key {key!r} does not apply to the {model_raw!r} model", line_no
                )
            values[key] = _convert(key, kind, raw_value, line_no)
        elif default is _GEOMETRY:
            values[key] = _GEOMETRY_DEFAULTS[model_raw][key]
        elif default is _REQUIRED:
            raise ConfigError(f"the {key!r} key is required")
        else:
            values[key] = default

    cfg = RunConfig(**values)
    cfg.build_model()  # surfaces model-parameter validation errors now
    return cfg


def _format_value(kind: str, value) -> str:
    if kind == "float":
        return "%.17g" % value
    if kind == "bool":
        return "true" if value else "false"
    if kind == "float_list":
        return ",".join("%.17g" % v for v in value)
    return str(value)


def format_config(cfg: RunConfig) -> str:
    """Canonical text form; parsing it reproduces ``cfg`` exactly."""
    lines = []
    for key, (kind, _default, models) in _KEYS.items():
        if cfg.model not in models:
            continue
        lines.append(f"{key} = {_format_value(kind, getattr(cfg, key))}")
    return "\n".join(lines) + "\n"


def shipped_config_path(name: str) -> Path:
    """Filesystem path of one of the configuration files shipped in the package."""
    root = resources.files(__package__) / "configs"
    path = Path(str(root / name))
    if not path.exists():
        available = sorted(p.name for p in Path(str(root)).glob("*.cfg"))
        raise ValueError(f"no shipped config named {name!r}; available: {available}")
    return path
