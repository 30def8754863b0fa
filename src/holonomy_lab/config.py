"""Run configuration: UTF-8 key = value files or a single JSON document.

Recognized keys (dotted form) are those of `_KEYS` and tol.<tolerance-name>;
unknown keys are rejected rather than ignored. In key = value lines a `#`
outside a JSON string starts a comment.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError
from .evolution import TimeGrid
from .hilbert import _count, _real
from .spin_model import _MAX_POINTS, _MAX_STEPS, _MIN_STEPS, ModelParams
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "RunConfig",
    "load_config",
    "build_config",
    "tolerance_overrides",
]


@dataclass(frozen=True)
class _SweepSpec:
    eta_min: float
    eta_max: float
    points: int
    log: bool = True


@dataclass(frozen=True)
class RunConfig:
    theta: float
    mu: float = 1.0
    b_field: float = 1.0
    omega: float | None = None
    eta: float | None = None
    steps: int = 4096
    n_periods: int = 1
    hbar: float = 1.0
    sweep: _SweepSpec | None = None
    output_path: str | None = None
    output_format: str = "csv"
    tol_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.omega is not None and self.eta is not None:
            raise ConfigError("give exactly one of omega or eta, not both")
        if self.output_format not in ("csv", "json"):
            raise ConfigError(f"output.format must be csv or json, got {self.output_format!r}")
        etas = {}  # {config key: eta} of every run, each model and grid built as the run builds them
        if self.omega is not None or self.eta is not None:
            etas["omega" if self.eta is None else "eta"] = self.require_single_point()
        if self.sweep is not None:
            etas.update({"sweep.eta_min": self.sweep.eta_min, "sweep.eta_max": self.sweep.eta_max})
        prefix = ""  # the key and value of the eta whose model is being built
        try:
            _count("steps", self.steps, _MIN_STEPS, _MAX_STEPS)
            _count("n_periods", self.n_periods, 1)
            if self.sweep is not None:
                _count("sweep.points", self.sweep.points, 2, _MAX_POINTS)
            if not etas:  # no eta to run, but the model's own values still follow its rules
                ModelParams(self.mu, self.b_field, omega=1.0, theta=self.theta, hbar=self.hbar)
            for key, eta in etas.items():
                prefix = f"{key} = {self.omega if key == 'omega' else eta}: "
                params = ModelParams.from_eta(self.theta, eta, self.mu, self.b_field, self.hbar)
                TimeGrid(self.n_periods * params.period, self.steps)
        except ValueError as exc:
            raise ConfigError(f"{prefix}{exc}") from exc
        if self.sweep is not None and not self.sweep.eta_min < self.sweep.eta_max:
            raise ConfigError(f"need sweep.eta_min < sweep.eta_max, got {self.sweep.eta_min}, {self.sweep.eta_max}")

    def require_single_point(self) -> float:
        """The eta of a single-point run; exactly one of omega/eta must be set."""
        if self.eta is not None:
            return self.eta
        if self.omega is not None:
            scale = 2.0 * self.mu * self.b_field
            # a scale that underflows to 0 makes eta infinite, which ModelParams refuses
            return self.omega / scale if scale else math.inf
        raise ConfigError("give exactly one of omega or eta")

    def tolerances(self) -> Tolerances:
        return DEFAULT.replace(**self.tol_overrides)


def _flatten(obj: dict, out: dict, prefix: str = "") -> None:
    for k, v in obj.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            _flatten(v, out, prefix=f"{key}.")
        else:
            out[key] = v


# the part of a line before its comment: a `#` inside a JSON string, closed
# or not, is part of the value
_UNCOMMENTED = re.compile(r'(?:[^"#]|"(?:\\.|[^"\\])*"?)*')


def _parse_config_text(text: str) -> dict:
    """Flat {dotted key: value} mapping from key = value lines or one JSON document."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        flat: dict = {}
        # ValueError covers an integer past int's digit limit as well, and
        # RecursionError a document nested too deep to decode or flatten
        try:
            _flatten(json.loads(text), flat)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from exc
        return flat
    mapping: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = _UNCOMMENTED.match(line).group().strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        try:
            mapping[key] = json.loads(raw)
        except (ValueError, RecursionError):
            if '"' in raw:
                raise ConfigError(f"line {lineno}: a value with a '\"' must parse as JSON, got {raw!r}") from None
            mapping[key] = raw
    return mapping


def load_config(path: str | Path) -> dict:
    try:
        return _parse_config_text(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc


def _as_float(key: str, v):
    # bool is an int subclass, so float(True) would read true as 1.0
    if isinstance(v, bool):
        raise ConfigError(f"{key} must be a number, got {v!r}")
    try:
        return float(v)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} must be a number, got {v!r}") from exc


def _as_int(key: str, v):
    try:
        x = float(v)
        valid = not isinstance(v, bool) and x == int(x)
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise ConfigError(f"{key} must be an integer, got {v!r}")
    return int(x)


def _as_bool(key: str, v):
    if isinstance(v, bool):
        return v
    if isinstance(v, str) and v.lower() in ("true", "false"):
        return v.lower() == "true"
    raise ConfigError(f"{key} must be true or false, got {v!r}")


def _as_str(key: str, v):
    if not isinstance(v, str):
        raise ConfigError(f"{key} must be a string, got {v!r}")
    return v


# every key but tol.*: its field of RunConfig, or of _SweepSpec for the
# sweep.* keys, and the parser of its value
_KEYS = {
    "theta": ("theta", _as_float),
    "mu": ("mu", _as_float),
    "b_field": ("b_field", _as_float),
    "omega": ("omega", _as_float),
    "eta": ("eta", _as_float),
    "hbar": ("hbar", _as_float),
    "steps": ("steps", _as_int),
    "n_periods": ("n_periods", _as_int),
    "sweep.eta_min": ("eta_min", _as_float),
    "sweep.eta_max": ("eta_max", _as_float),
    "sweep.points": ("points", _as_int),
    "sweep.log": ("log", _as_bool),
    "output.path": ("output_path", _as_str),
    "output.format": ("output_format", _as_str),
}


def tolerance_overrides(mapping: dict) -> dict:
    """Validated {field: value} overrides from the tol.* keys of a mapping."""
    tol_names = {f.name for f in fields(Tolerances)}
    overrides = {}
    for key, value in mapping.items():
        if not key.startswith("tol."):
            continue
        name = key[4:]
        if name not in tol_names:
            raise ConfigError(f"unknown tolerance {key!r}")
        value = _as_int(key, value) if name == "max_dim" else _as_float(key, value)
        try:
            overrides[name] = _count(key, value, 1) if name == "max_dim" else _real(key, value, positive=True)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return overrides


def build_config(mapping: dict, **cli_overrides) -> RunConfig:
    """RunConfig from a flat mapping, with CLI flags taking precedence."""
    kwargs: dict = {}
    sweep: dict = {}
    for key, value in mapping.items():
        if key in _KEYS:
            name, parse = _KEYS[key]
            (sweep if key.startswith("sweep.") else kwargs)[name] = parse(key, value)
        elif not key.startswith("tol."):
            raise ConfigError(f"unknown config key {key!r}")
    if "theta" not in kwargs:
        raise ConfigError("config must set theta")
    if sweep:
        missing = {"sweep.eta_min", "sweep.eta_max", "sweep.points"} - mapping.keys()
        if missing:
            raise ConfigError(f"incomplete sweep spec, missing {sorted(missing)}")
        kwargs["sweep"] = _SweepSpec(**sweep)
    kwargs["tol_overrides"] = tolerance_overrides(mapping)

    for name, value in cli_overrides.items():
        if value is not None:
            kwargs[name] = value
    return RunConfig(**kwargs)
