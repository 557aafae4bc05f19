"""Flat key = value run configuration.

One assignment per line, '#' starts a comment, no nesting.  Unknown keys are
rejected so typos fail loudly rather than silently using a default.
"""

import math
from dataclasses import MISSING, dataclass, fields
from typing import get_args

from .errors import ConfigParseError, ConfigValidationError
from .meshout import projection_names

_SEEDS = ("zero", "wave", "file")


@dataclass
class RunConfig:
    nx: int
    ny: int
    lx: float
    ly: float
    radius: float = 1.0
    theta: float = 0.0
    tol: float = 1e-10
    max_iter: int = 30
    seed: str = "zero"
    wave_energy: float | None = None
    field_path: str | None = None
    out_dir: str = "."
    projection: str = "pca"
    substeps: int = 24
    extend_closure: bool = True


def _value_type(annotation):
    """The type a config value parses to: an optional field's non-None type."""
    return next((t for t in get_args(annotation) if t is not type(None)), annotation)


def _parse_bool(raw, key):
    low = raw.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigValidationError(f"{key} must be a boolean, got {raw!r}")


def parse_config_text(text, source="<config>"):
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not key or not val:
            raise ConfigParseError(f"{source}:{lineno}: empty key or value in {raw!r}")
        if key in values:
            raise ConfigParseError(f"{source}:{lineno}: duplicate key {key!r}")
        values[key] = val

    spec = {f.name: f for f in fields(RunConfig)}
    for key in values:
        if key not in spec:
            raise ConfigValidationError(f"unknown config key {key!r}")
    for f in spec.values():
        if f.default is MISSING and f.name not in values:
            raise ConfigValidationError(f"missing required config key {f.name!r}")

    kwargs = {}
    for key, raw in values.items():
        kind = _value_type(spec[key].type)
        if kind is bool:
            kwargs[key] = _parse_bool(raw, key)
        else:
            try:
                kwargs[key] = kind(raw)
            except ValueError as exc:
                raise ConfigValidationError(f"bad value for {key}: {raw!r}") from exc
    cfg = RunConfig(**kwargs)
    validate_config(cfg)
    return cfg


def parse_config(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def validate_config(cfg):
    if cfg.nx < 8 or cfg.ny < 8:
        raise ConfigValidationError(f"need nx, ny >= 8, got ({cfg.nx}, {cfg.ny})")
    for key in ("lx", "ly", "radius", "theta", "tol", "wave_energy"):
        value = getattr(cfg, key)
        if value is not None and not math.isfinite(value):
            raise ConfigValidationError(f"{key} must be finite, got {value!r}")
    for key in ("lx", "ly", "radius", "tol"):
        if getattr(cfg, key) <= 0:
            raise ConfigValidationError(f"{key} must be positive")
    try:
        cfg.radius**4  # the report forms R^2 and R^4
    except OverflowError as exc:
        raise ConfigValidationError(f"radius {cfg.radius!r} is too large: R^4 overflows") from exc
    for key, n in (("lx", cfg.nx), ("ly", cfg.ny)):
        # the fd4 Laplacian's symbol reaches 16 / (3 h^2) in magnitude, h = period / n
        h = getattr(cfg, key) / n
        if not (h * h > 0 and math.isfinite(16.0 / (3.0 * h * h))):
            raise ConfigValidationError(f"{key} is too small: the fd4 symbol 16 / (3 h^2) overflows")
    if cfg.max_iter < 1:
        raise ConfigValidationError("max_iter must be >= 1")
    if cfg.substeps < 1:
        raise ConfigValidationError("substeps must be >= 1")
    if cfg.seed not in _SEEDS:
        raise ConfigValidationError(f"seed must be one of {_SEEDS}, got {cfg.seed!r}")
    if cfg.seed == "wave" and cfg.wave_energy is None:
        raise ConfigValidationError("seed = wave requires wave_energy")
    if cfg.wave_energy is not None and cfg.wave_energy <= 6.0:
        raise ConfigValidationError("wave_energy must exceed 6")
    if cfg.seed == "file" and not cfg.field_path:
        raise ConfigValidationError("seed = file requires field_path")
    for key in ("out_dir", "field_path"):
        if "\0" in (getattr(cfg, key) or ""):
            raise ConfigValidationError(f"{key} must not hold a NUL byte")
    if cfg.projection != "pca":
        try:
            projection_names(cfg.projection)
        except ValueError as exc:
            raise ConfigValidationError(str(exc)) from exc
