"""Tracking configuration: plain key: value files mapped onto a dataclass.

`TrackingConfig` is the one place where each parameter's name, type and
default are written; the file keys, the CLI flags and the stage subcommands'
defaults all derive from its fields.  `check_tunable` holds each one's valid
range; every entry point applies it before reading any input.
"""

from __future__ import annotations

import dataclasses
import math
import os
import typing

from .errors import ConfigError
from .kvfile import parse_floats, read_kv_file
from .ridge import DEFAULT_SCALES_MM


@dataclasses.dataclass(frozen=True)
class TrackingConfig:
    intensity_path: str
    segmentation_path: str
    start: tuple[float, float, float]       # physical mm
    end: tuple[float, float, float]
    output_dir: str
    gt_path: str | None = None
    scales: tuple[float, ...] = DEFAULT_SCALES_MM
    target_volume: float = 216.0
    compactness: float = 0.01
    theta_v: float = 3.0
    theta_d: float = 6.0
    delta: float = 50.0
    tolerance: float = 10.0
    wall_threshold: float = 0.2
    min_inside_fraction: float = 0.5

    def __post_init__(self):
        for name in TUNABLES:
            check_tunable(name, getattr(self, name))
        if self.delta <= self.theta_d:
            raise ConfigError(
                f"delta ({self.delta}) must exceed theta_d ({self.theta_d}); "
                "otherwise no pair of sampled peaks counts as near"
            )
        if len(self.start) != 3 or len(self.end) != 3:
            raise ConfigError("start and end must be 3D coordinates (mm)")
        for name in ("start", "end"):
            point = getattr(self, name)
            if not all(math.isfinite(c) for c in point):
                raise ConfigError(f"{name} must be finite, got {tuple(point)}")
        for label, path in (
            ("intensity", self.intensity_path),
            ("segmentation", self.segmentation_path),
        ):
            if not os.path.isfile(path):
                raise ConfigError(f"{label} volume not found: {path}")
        if self.gt_path is not None and not os.path.isfile(self.gt_path):
            raise ConfigError(f"gt polyline not found: {self.gt_path}")


FIELD_TYPES = typing.get_type_hints(TrackingConfig)
DEFAULTS = {f.name: f.default for f in dataclasses.fields(TrackingConfig)
            if f.default is not dataclasses.MISSING}
# The parameters of the method: every field whose default is not None.
TUNABLES = tuple(name for name, default in DEFAULTS.items() if default is not None)
# Config-file keys that differ from their field's name.
_RENAMED = {"intensity_path": "intensity", "segmentation_path": "segmentation"}
# Config-file key -> field, in field order.
CONFIG_KEYS = {_RENAMED.get(name, name): name for name in FIELD_TYPES}


def check_tunable(name, value) -> None:
    """The one rule for tunable `name`, raising ConfigError naming it: every
    number finite and positive, except `min_inside_fraction` in (0, 1] and
    `tolerance` >= 0; `scales` non-empty."""
    if FIELD_TYPES[name] is not float:
        if not value or not all(math.isfinite(s) and s > 0 for s in value):
            raise ConfigError(f"{name} must be positive and finite, got {tuple(value)}")
        return
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    rule, ok = {"min_inside_fraction": ("in (0, 1]", 0.0 < value <= 1.0),
                "tolerance": ("non-negative", value >= 0)}.get(name, ("positive", value > 0))
    if not ok:
        raise ConfigError(f"{name} must be {rule}, got {value}")


def value_count(name):
    """How many numbers field `name` holds: 1 for a float, the tuple length,
    "+" for a tuple of any length, or None for a path."""
    kind = FIELD_TYPES[name]
    if kind is float:
        return 1
    if typing.get_origin(kind) is tuple:
        args = typing.get_args(kind)
        return "+" if args[-1] is Ellipsis else len(args)
    return None


def load_tracking_config(path, overrides: dict | None = None) -> TrackingConfig:
    """Parse a config file; `overrides` (same key names, string values) win.
    Relative paths are taken relative to the config file's directory."""
    pairs = read_kv_file(path)
    unknown = sorted(set(pairs) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s): {', '.join(unknown)}")
    if overrides:
        pairs.update({k: v for k, v in overrides.items() if v is not None})

    base = os.path.dirname(os.path.abspath(path))
    kwargs = {}
    for key, name in CONFIG_KEYS.items():
        if key not in pairs:
            if name not in DEFAULTS:
                raise ConfigError(f"{path}: missing required key '{key}'")
            continue
        value, count = pairs[key], value_count(name)
        if count is None:
            kwargs[name] = os.path.join(base, value)     # an absolute value wins
        else:
            numbers = parse_floats(value, None if count == "+" else count, key)
            kwargs[name] = numbers[0] if FIELD_TYPES[name] is float else numbers
    return TrackingConfig(**kwargs)
