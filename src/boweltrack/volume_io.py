"""Dense 3D scalar volumes and 3D polylines with physical coordinates.

File formats (shared by every pipeline stage):

* Volume: four ASCII header lines (``dims:``, ``spacing:``, ``origin:``,
  ``dtype:``), one blank line, then the raw little-endian voxel block in
  x-fastest order.
* Polyline: one ``x y z`` triple per line, decimal text, millimetres.

The single coordinate convention used everywhere: the physical position of
voxel index ``i`` along an axis is ``origin + (i + 0.5) * spacing``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, InvariantError

DTYPE_TAGS = {
    "f32": np.dtype("<f4"),
    "u8": np.dtype("<u1"),
    "u16": np.dtype("<u2"),
    "u32": np.dtype("<u4"),
}
_TAG_BY_KIND = {np.dtype(d.str.lstrip("<|")).name: tag for tag, d in DTYPE_TAGS.items()}


@dataclass
class Volume:
    """A dense 3D scalar grid with physical spacing and origin (mm).

    ``data`` is indexed ``data[x, y, z]``; serialization flattens it
    x-fastest regardless of the in-memory layout.
    """

    data: np.ndarray
    spacing: np.ndarray = field(default_factory=lambda: np.ones(3))
    origin: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.data = np.asarray(self.data)
        self.spacing = np.asarray(self.spacing, dtype=np.float64).reshape(3)
        self.origin = np.asarray(self.origin, dtype=np.float64).reshape(3)
        if self.data.ndim != 3:
            raise InvariantError(f"volume data must be 3D, got ndim={self.data.ndim}")
        if min(self.data.shape) < 1:
            raise InvariantError(f"volume dims must be positive, got {self.data.shape}")
        if not np.all(np.isfinite(self.spacing)) or np.any(self.spacing <= 0):
            raise InvariantError(f"spacing must be positive and finite, got {self.spacing}")
        if not np.all(np.isfinite(self.origin)):
            raise InvariantError(f"origin must be finite, got {self.origin}")
        if self.data.dtype.kind == "f" and not np.all(np.isfinite(self.data)):
            raise InvariantError("volume data contains non-finite values")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    def voxel_volume(self) -> float:
        return float(np.prod(self.spacing))

    def nearest_voxel(self, pos: np.ndarray) -> tuple[int, int, int]:
        """Index of the voxel whose cell contains ``pos``; raises if outside."""
        idx = np.floor((np.asarray(pos, np.float64) - self.origin) / self.spacing)
        if np.any(idx < 0) or np.any(idx >= self.dims):
            raise InvariantError(f"position {pos} is outside the volume grid")
        return tuple(int(v) for v in idx)

    def like(self, data: np.ndarray) -> "Volume":
        """New Volume sharing this one's spacing and origin."""
        return Volume(data, self.spacing.copy(), self.origin.copy())


def check_same_grid(a, b, names: str, error=ValueError) -> None:
    """Raise `error` unless `a` and `b` (volumes or label volumes) have the
    same dims, spacing and origin: stages combine them voxel by voxel."""
    for attr in ("dims", "spacing", "origin"):
        va, vb = (tuple(np.asarray(getattr(v, attr)).tolist()) for v in (a, b))
        if va != vb:
            raise error(f"{names} are on different grids: {attr} {va} != {vb}")


@dataclass
class Polyline:
    """Ordered 3D point sequence in physical mm coordinates."""

    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise InvariantError(f"polyline points must be (n, 3), got {self.points.shape}")
        if self.points.shape[0] < 2:
            raise InvariantError("polyline needs at least 2 points")
        if not np.all(np.isfinite(self.points)):
            raise InvariantError("polyline contains non-finite coordinates")
        seg = np.linalg.norm(np.diff(self.points, axis=0), axis=1)
        if np.any(seg == 0):
            raise InvariantError("polyline has coincident consecutive points")

    def __len__(self) -> int:
        return self.points.shape[0]

    def segment_lengths(self) -> np.ndarray:
        return np.linalg.norm(np.diff(self.points, axis=0), axis=1)

    def cumulative_arc(self) -> np.ndarray:
        """Arc-length position of every point, starting at 0."""
        return np.concatenate([[0.0], np.cumsum(self.segment_lengths())])

    def arc_length(self) -> float:
        return float(self.segment_lengths().sum())


def _parse_header_line(line: bytes, key: str, count: int, conv) -> tuple:
    text = line.decode("ascii", errors="replace").strip()
    prefix = key + ":"
    if not text.startswith(prefix):
        raise FormatError(f"malformed header: expected '{key}:' line, got {text!r}")
    tokens = text[len(prefix):].split()
    if len(tokens) != count:
        raise FormatError(f"malformed header: '{key}' needs {count} values, got {len(tokens)}")
    try:
        return tuple(conv(t) for t in tokens)
    except ValueError as exc:
        raise FormatError(f"malformed header: bad '{key}' value ({exc})") from exc


def load_volume(path) -> Volume:
    """Read a Volume from the header+raw format. See module docstring."""
    with open(path, "rb") as fh:
        dims = _parse_header_line(fh.readline(), "dims", 3, int)
        spacing = _parse_header_line(fh.readline(), "spacing", 3, float)
        origin = _parse_header_line(fh.readline(), "origin", 3, float)
        (tag,) = _parse_header_line(fh.readline(), "dtype", 1, str)
        blank = fh.readline()
        if blank.strip() != b"":
            raise FormatError("malformed header: missing blank separator line")
        if tag not in DTYPE_TAGS:
            raise FormatError(f"malformed header: unknown dtype tag {tag!r}")
        if min(dims) < 1:
            raise FormatError(f"malformed header: non-positive dims {dims}")
        dtype = DTYPE_TAGS[tag]
        expected = int(np.prod(dims)) * dtype.itemsize
        raw = fh.read()
    if len(raw) != expected:
        raise FormatError(
            f"data length mismatch: expected {expected} bytes "
            f"({int(np.prod(dims))} values of {tag}), file holds {len(raw)}"
        )
    data = np.frombuffer(raw, dtype=dtype).astype(dtype.newbyteorder("="))
    data = data.reshape(dims, order="F")
    try:
        return Volume(data, np.array(spacing), np.array(origin))
    except InvariantError as exc:
        raise FormatError(f"{path}: invalid volume: {exc}") from exc


def save_volume(vol: Volume, path) -> None:
    """Write a Volume so that load_volume returns an identical one."""
    kind = vol.data.dtype.name
    if kind not in _TAG_BY_KIND:
        raise FormatError(
            f"unsupported volume dtype {vol.data.dtype}; supported: {sorted(_TAG_BY_KIND)}"
        )
    tag = _TAG_BY_KIND[kind]
    header = (
        "dims: {} {} {}\n".format(*vol.dims)
        + "spacing: {:.17g} {:.17g} {:.17g}\n".format(*vol.spacing)
        + "origin: {:.17g} {:.17g} {:.17g}\n".format(*vol.origin)
        + f"dtype: {tag}\n\n"
    )
    payload = np.ascontiguousarray(vol.data.astype(DTYPE_TAGS[tag])).tobytes(order="F")
    _atomic_write_bytes(path, header.encode("ascii") + payload)


def load_polyline(path) -> Polyline:
    """Read a Polyline from decimal 'x y z' lines."""
    points = []
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            tokens = text.split()
            if len(tokens) != 3:
                raise FormatError(f"{path}:{lineno}: expected 3 coordinates, got {len(tokens)}")
            try:
                points.append([float(t) for t in tokens])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: non-numeric token ({exc})") from exc
    if len(points) < 2:
        raise FormatError(f"{path}: polyline needs at least 2 points, found {len(points)}")
    try:
        return Polyline(np.array(points))
    except InvariantError as exc:
        raise FormatError(f"{path}: invalid polyline: {exc}") from exc


def save_polyline(line: Polyline, path) -> None:
    # %.17g round-trips float64 exactly, so reloading gives the same curve.
    text = "".join("%.17g %.17g %.17g\n" % tuple(p) for p in line.points)
    _atomic_write_bytes(path, text.encode("ascii"))


def _atomic_write_bytes(path, blob: bytes) -> None:
    _atomic_write_chunks(path, (blob,))


def _atomic_write_chunks(path, chunks) -> None:
    """Write the byte strings of `chunks` one after another to a temporary
    file, then move it over `path`; a generator keeps one chunk alive."""
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
    os.replace(tmp, path)
