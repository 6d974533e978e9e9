"""Graph-based path tracking for convoluted tubular structures in 3D volumes."""

from .errors import (
    BowelTrackError,
    ConfigError,
    FormatError,
    InfeasibleError,
    InvariantError,
)
from .volume_io import Polyline, Volume, load_polyline, load_volume, save_polyline, save_volume

__all__ = [
    "BowelTrackError",
    "ConfigError",
    "FormatError",
    "InfeasibleError",
    "InvariantError",
    "Polyline",
    "Volume",
    "load_polyline",
    "load_volume",
    "save_polyline",
    "save_volume",
]
