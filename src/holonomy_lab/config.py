"""Run configuration: key = value files or a single JSON document.

Recognized keys (dotted form):

    theta, mu, b_field, omega | eta, steps, n_periods, hbar,
    sweep.eta_min, sweep.eta_max, sweep.points, sweep.log,
    output.path, output.format, tol.<tolerance-name>

Unknown keys are rejected rather than ignored.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .spin_model import _MAX_STEPS, _MIN_STEPS
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "RunConfig",
    "load_config",
    "build_config",
    "tolerance_overrides",
]

_SCALAR_KEYS = {"theta", "mu", "b_field", "omega", "eta", "steps", "n_periods", "hbar"}
_SWEEP_KEYS = {"sweep.eta_min", "sweep.eta_max", "sweep.points", "sweep.log"}
_OUTPUT_KEYS = {"output.path", "output.format"}


@dataclass(frozen=True)
class _SweepSpec:
    eta_min: float
    eta_max: float
    points: int
    log: bool = True

    def __post_init__(self):
        if self.points < 2:
            raise ConfigError(f"sweep.points must be >= 2, got {self.points}")
        if not (0 < self.eta_min < self.eta_max < math.inf):
            raise ConfigError(
                f"need 0 < sweep.eta_min < sweep.eta_max < inf, got {self.eta_min}, {self.eta_max}"
            )


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
        if not _MIN_STEPS <= self.steps <= _MAX_STEPS:
            raise ConfigError(f"steps must lie in [{_MIN_STEPS}, {_MAX_STEPS}], got {self.steps}")
        if self.n_periods < 1:
            raise ConfigError(f"n_periods must be >= 1, got {self.n_periods}")
        if self.output_format not in ("csv", "json"):
            raise ConfigError(f"output.format must be csv or json, got {self.output_format!r}")
        if not 0.0 <= self.theta <= math.pi:
            raise ConfigError(f"theta must lie in [0, pi], got {self.theta}")
        for p, name in (
            (self.mu, "mu"), (self.b_field, "b_field"), (self.hbar, "hbar"),
            (self.omega, "omega"), (self.eta, "eta"),
        ):
            if p is not None and not 0 < p < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {p}")
        if self.omega is not None:
            eta = self.require_single_point()
            if not 0 < eta < math.inf:
                raise ConfigError(
                    f"eta = omega / (2 mu b_field) must be positive and finite, got {eta}"
                )
        etas = {"eta": self.eta}
        if self.sweep is not None:
            etas.update({"sweep.eta_min": self.sweep.eta_min, "sweep.eta_max": self.sweep.eta_max})
        for name, eta in etas.items():
            if eta is None:
                continue
            omega = 2.0 * self.mu * self.b_field * eta  # as spin_model.ModelParams.from_eta has it
            if not 0 < omega < math.inf:
                raise ConfigError(f"omega = 2 mu b_field {name} must be positive and finite, got {omega}")

    def require_single_point(self) -> float:
        """The eta of a single-point run; exactly one of omega/eta must be set."""
        if self.eta is not None:
            return self.eta
        if self.omega is not None:
            return self.omega / (2.0 * self.mu * self.b_field)
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


def _parse_config_text(text: str) -> dict:
    """Flat {dotted key: value} mapping from key = value lines or one JSON document."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("JSON config must be an object")
        flat: dict = {}
        _flatten(doc, flat)
        return flat
    mapping: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        try:
            mapping[key] = json.loads(raw)
        except json.JSONDecodeError:
            mapping[key] = raw
    return mapping


def load_config(path: str | Path) -> dict:
    try:
        return _parse_config_text(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc


def _as_float(mapping: dict, key: str):
    v = mapping[key]
    # bool is an int subclass, so float(True) would read true as 1.0
    if isinstance(v, bool):
        raise ConfigError(f"{key} must be a number, got {v!r}")
    try:
        return float(v)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} must be a number, got {v!r}") from exc


def _as_int(mapping: dict, key: str):
    v = mapping[key]
    try:
        x = float(v)
        valid = not isinstance(v, bool) and x == int(x)
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise ConfigError(f"{key} must be an integer, got {v!r}")
    return int(x)


def _as_bool(mapping: dict, key: str):
    v = mapping[key]
    if isinstance(v, bool):
        return v
    if isinstance(v, str) and v.lower() in ("true", "false"):
        return v.lower() == "true"
    raise ConfigError(f"{key} must be true or false, got {v!r}")


def tolerance_overrides(mapping: dict) -> dict:
    """Validated {field: value} overrides from the tol.* keys of a mapping."""
    tol_names = set(Tolerances.field_names())
    overrides = {}
    for key, value in mapping.items():
        if not key.startswith("tol."):
            continue
        name = key[4:]
        if name not in tol_names:
            raise ConfigError(f"unknown tolerance {key!r}")
        if name == "max_dim":
            value = _as_int(mapping, key)
            if value < 1:
                raise ConfigError(f"{key} must be >= 1, got {value}")
        else:
            value = _as_float(mapping, key)
            if not 0 < value < math.inf:
                raise ConfigError(f"{key} must be positive and finite, got {value}")
        overrides[name] = value
    return overrides


def build_config(mapping: dict, **cli_overrides) -> RunConfig:
    """RunConfig from a flat mapping, with CLI flags taking precedence."""
    mapping = dict(mapping)
    known = _SCALAR_KEYS | _SWEEP_KEYS | _OUTPUT_KEYS
    for key in mapping:
        if key not in known and not key.startswith("tol."):
            raise ConfigError(f"unknown config key {key!r}")
    if "theta" not in mapping:
        raise ConfigError("config must set theta")

    kwargs: dict = {"theta": _as_float(mapping, "theta")}
    for name in ("mu", "b_field", "omega", "eta", "hbar"):
        if name in mapping:
            kwargs[name] = _as_float(mapping, name)
    for name in ("steps", "n_periods"):
        if name in mapping:
            kwargs[name] = _as_int(mapping, name)

    if any(k in mapping for k in _SWEEP_KEYS):
        missing = {"sweep.eta_min", "sweep.eta_max", "sweep.points"} - mapping.keys()
        if missing:
            raise ConfigError(f"incomplete sweep spec, missing {sorted(missing)}")
        kwargs["sweep"] = _SweepSpec(
            eta_min=_as_float(mapping, "sweep.eta_min"),
            eta_max=_as_float(mapping, "sweep.eta_max"),
            points=_as_int(mapping, "sweep.points"),
            log=_as_bool(mapping, "sweep.log") if "sweep.log" in mapping else True,
        )
    if "output.path" in mapping:
        if not isinstance(mapping["output.path"], str):
            raise ConfigError(f"output.path must be a string, got {mapping['output.path']!r}")
        kwargs["output_path"] = mapping["output.path"]
    if "output.format" in mapping:
        kwargs["output_format"] = str(mapping["output.format"])

    kwargs["tol_overrides"] = tolerance_overrides(mapping)

    for name, value in cli_overrides.items():
        if value is not None:
            kwargs[name] = value
    return RunConfig(**kwargs)
