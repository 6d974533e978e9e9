"""Dense 3D scalar volumes, 3D polylines with physical coordinates, and the
line-record text format.

File formats (shared by every pipeline stage):

* Volume: four ASCII header lines (``dims:``, ``spacing:``, ``origin:``,
  ``dtype:``), one blank line, then the raw little-endian voxel block in
  x-fastest order.
* Line records (graph, must-pass and polyline files): printable ASCII, tab
  and line breaks only.  Each non-blank line is one record: a tag, then the
  fixed number of whitespace-separated decimal fields of that tag (floats as
  ``%.17g``, which reads back to the same bits).  `read_records` reads them
  and `format_lines` writes them.
* Polyline: untagged records, one ``x y z`` triple per line, millimetres.

The single coordinate convention used everywhere: the physical position of
voxel index ``i`` along an axis is ``origin + (i + 0.5) * spacing``.
"""

from __future__ import annotations

import contextlib
import math
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
# Voxels per block that `save_volume` converts and writes at a time.
_SAVE_VOXELS = 1 << 18


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
        # A NaN is the minimum and the maximum, an infinity one of them: no
        # volume-sized mask.
        if self.data.dtype.kind == "f" and not (
                np.isfinite(self.data.min()) and np.isfinite(self.data.max())):
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
    """Raise `error` unless volumes `a` and `b` have the same dims, spacing
    and origin: stages combine them voxel by voxel."""
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
    try:
        return _read_volume(path)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    except InvariantError as exc:
        raise FormatError(f"{path}: invalid volume: {exc}") from exc


def _read_volume(path) -> Volume:
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
        count = math.prod(dims)     # exact: np.prod wraps at 2**63
        start = fh.tell()
        held = fh.seek(0, os.SEEK_END) - start
        if held != count * dtype.itemsize:
            raise FormatError(
                f"data length mismatch: expected {count * dtype.itemsize} bytes "
                f"({count} values of {tag}), file holds {held}"
            )
        # The payload goes straight into the array, which is byteswapped in
        # place where the file's byte order is not the machine's.
        fh.seek(start)
        data = np.empty(count, dtype=dtype)
        if fh.readinto(memoryview(data).cast("B")) != held:
            raise FormatError(f"data length mismatch: file ended before {held} bytes")
    if not dtype.isnative:
        data = data.byteswap(inplace=True).view(dtype.newbyteorder("="))
    return Volume(data.reshape(dims, order="F"), np.array(spacing), np.array(origin))


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
    dtype, (nx, ny, nz) = DTYPE_TAGS[tag], vol.dims
    planes = max(1, _SAVE_VOXELS // (nx * ny))

    def chunks():
        # x-fastest order is F order, and a block of whole axis-2 planes is
        # one stretch of it.  The transpose of an F-ordered block is
        # C-contiguous, so its buffer holds that stretch: a block is copied
        # at most once, and not at all if the volume is F-ordered already.
        yield header.encode("ascii")
        for z in range(0, nz, planes):
            yield np.asfortranarray(vol.data[:, :, z : z + planes], dtype=dtype).T

    _atomic_write_chunks(path, chunks())


def load_polyline(path) -> Polyline:
    """Read a Polyline from decimal 'x y z' lines."""
    _, xyz = read_records(path, "polyline", {None: (float,) * 3})[None]
    if len(xyz[0]) < 2:
        raise FormatError(f"{path}: polyline needs at least 2 points, found {len(xyz[0])}")
    try:
        return Polyline(np.column_stack(xyz))
    except InvariantError as exc:
        raise FormatError(f"{path}: invalid polyline: {exc}") from exc


def save_polyline(line: Polyline, path) -> None:
    _atomic_write_bytes(path, format_lines("%.17g %.17g %.17g\n", *line.points.T))


# The bytes a line-record file may hold: printable ASCII, tab, line breaks.
_TEXT_BYTES = bytes(range(0x20, 0x7F)) + b"\t\n\r"


def read_records(path, what: str, schema: dict) -> dict:
    """Read a line-record file.  `schema` maps each tag (None: untagged
    lines) to the converters of its fields; the result maps each tag to the
    line numbers of its records and one converted list per field.  Errors
    name `what`, the file, and the line number and text."""
    with open(path, "rb") as fh:
        raw = fh.read()
    bad = raw.translate(None, _TEXT_BYTES)
    if bad:
        raise FormatError(f"{path}: not a text {what} file: byte {bad[:1]!r} "
                          f"at offset {raw.index(bad[0])}")
    lines = raw.decode("ascii").splitlines()
    rows = {tag: ([], []) for tag in schema}
    for lineno, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields:
            continue
        tag = None if None in schema else fields.pop(0)
        if tag not in schema or len(fields) != len(schema[tag]):
            raise FormatError(f"{path}:{lineno}: unrecognized {what} line {line.strip()!r}")
        rows[tag][0].append(lineno)
        rows[tag][1].append(fields)
    out = {}
    for tag, (linenos, fields) in rows.items():
        convs = schema[tag]
        try:
            columns = zip(*fields) if fields else [()] * len(convs)
            out[tag] = linenos, [list(map(conv, col)) for conv, col in zip(convs, columns)]
        except ValueError:
            for lineno, row in zip(linenos, fields):     # the first bad line of this tag
                try:
                    [conv(f) for conv, f in zip(convs, row)]
                except ValueError as exc:
                    raise FormatError(f"{path}:{lineno}: bad number in "
                                      f"{lines[lineno - 1].strip()!r}: {exc}") from exc
            raise
    return out


def format_lines(fmt: str, *columns) -> bytes:
    """One `fmt` line per row of the array `columns`, as ASCII bytes."""
    return "".join(map(fmt.__mod__, zip(*(col.tolist() for col in columns)))).encode("ascii")


def _atomic_write_bytes(path, blob: bytes) -> None:
    _atomic_write_chunks(path, (blob,))


def _atomic_write_chunks(path, chunks) -> None:
    """Write the byte strings (or C-contiguous buffers) of `chunks` one
    after another to a temporary file, then move it over `path`; a
    generator keeps one chunk alive, since `writelines` drops each chunk
    before it asks for the next.  If anything fails, the temporary file is
    removed and `path` is left as it was."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
