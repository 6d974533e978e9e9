"""Tracking configuration: plain key: value files mapped onto a dataclass."""

from __future__ import annotations

import dataclasses
import os

from .errors import ConfigError
from .kvfile import parse_floats, read_kv_file
from .ridge import DEFAULT_SCALES_MM


@dataclasses.dataclass(frozen=True)
class TrackingConfig:
    intensity_path: str
    segmentation_path: str
    start: tuple            # physical mm
    end: tuple
    output_dir: str
    gt_path: str | None = None
    scales: tuple = DEFAULT_SCALES_MM
    target_volume: float = 216.0
    compactness: float = 0.01
    theta_v: float = 3.0
    theta_d: float = 6.0
    delta: float = 50.0
    tolerance: float = 10.0
    wall_threshold: float = 0.2
    min_inside_fraction: float = 0.5

    def __post_init__(self):
        for name in (
            "target_volume",
            "compactness",
            "theta_v",
            "theta_d",
            "delta",
            "tolerance",
            "wall_threshold",
        ):
            value = getattr(self, name)
            if not (value > 0):
                raise ConfigError(f"{name} must be positive, got {value}")
        if not self.scales or any(s <= 0 for s in self.scales):
            raise ConfigError(f"scales must be positive, got {self.scales}")
        if not (0.0 < self.min_inside_fraction <= 1.0):
            raise ConfigError(
                f"min_inside_fraction must be in (0, 1], got {self.min_inside_fraction}"
            )
        if self.delta <= self.theta_d:
            raise ConfigError(
                f"delta ({self.delta}) must exceed theta_d ({self.theta_d}); "
                "otherwise no pair of sampled peaks counts as near"
            )
        if len(self.start) != 3 or len(self.end) != 3:
            raise ConfigError("start and end must be 3D coordinates (mm)")
        for label, path in (
            ("intensity", self.intensity_path),
            ("segmentation", self.segmentation_path),
        ):
            if not os.path.isfile(path):
                raise ConfigError(f"{label} volume not found: {path}")
        if self.gt_path is not None and not os.path.isfile(self.gt_path):
            raise ConfigError(f"gt polyline not found: {self.gt_path}")


_FLOAT_FIELDS = {
    "target_volume",
    "compactness",
    "theta_v",
    "theta_d",
    "delta",
    "tolerance",
    "wall_threshold",
    "min_inside_fraction",
}
_KNOWN_KEYS = _FLOAT_FIELDS | {
    "intensity",
    "segmentation",
    "gt_path",
    "start",
    "end",
    "output_dir",
    "scales",
}


def load_tracking_config(path, overrides: dict | None = None) -> TrackingConfig:
    """Parse a config file; `overrides` (same key names, string values) win.
    Relative paths are taken relative to the config file's directory."""
    pairs = read_kv_file(path)
    unknown = sorted(set(pairs) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s): {', '.join(unknown)}")
    if overrides:
        pairs.update({k: v for k, v in overrides.items() if v is not None})

    base = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        return p if os.path.isabs(p) else os.path.join(base, p)

    def require(key):
        if key not in pairs:
            raise ConfigError(f"{path}: missing required key '{key}'")
        return pairs[key]

    kwargs = {
        "intensity_path": resolve(require("intensity")),
        "segmentation_path": resolve(require("segmentation")),
        "start": tuple(parse_floats(require("start"), 3, "start")),
        "end": tuple(parse_floats(require("end"), 3, "end")),
        "output_dir": resolve(require("output_dir")),
    }
    if "gt_path" in pairs:
        kwargs["gt_path"] = resolve(pairs["gt_path"])
    if "scales" in pairs:
        tokens = pairs["scales"].split()
        try:
            kwargs["scales"] = tuple(float(t) for t in tokens)
        except ValueError as exc:
            raise ConfigError(f"scales: expected numbers, got {pairs['scales']!r}") from exc
    for key in _FLOAT_FIELDS:
        if key in pairs:
            kwargs[key] = parse_floats(pairs[key], 1, key)[0]
    return TrackingConfig(**kwargs)
