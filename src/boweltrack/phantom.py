"""Synthetic tube phantoms with known centerline ground truth.

The generator lays a serpentine tube through a 3D grid: straight lanes along
x, stacked in y, joined by half-turns.  Selected lane pairs are bent toward
each other until their separation equals exactly one wall thickness between
lumens, producing the touching-wall configurations that defeat naive
shortest-path tracking.  Every geometric promise is verified on the produced
voxel grid before the phantom is returned.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.spatial import cKDTree

from . import parallel
from .errors import ConfigError, InfeasibleError
from .kvfile import parse_floats, read_kv_file
from .metrics import resample_polyline
from .volume_io import Polyline, Volume

# Class codes in the segmentation volume.
SEG_BACKGROUND = 0
SEG_LUMEN = 1
SEG_WALL = 2

# Arc-length separation (in units of inner radius) beyond which two close
# curve points count as distinct strands rather than local neighbours.
FAR_PAIR_ARC_FACTOR = 10.0

# Spline control-point spacing along lanes (mm); also sizes the ramp window
# that pulls touching lanes together.
CONTROL_STEP_MM = 12.0

# Voxels per range of the centerline distance pass.
_RANGE_VOXELS = 1 << 14


@dataclasses.dataclass(frozen=True)
class PhantomSpec:
    """Parameters of a synthetic tube phantom.

    dims/spacing define the voxel grid; geometry is expressed in mm.
    `bends` is the number of half-turns (0 gives a straight tube) and
    `touch_pairs` the number of lane pairs pulled together until the two
    lumens share a single wall.
    """

    dims: tuple[int, int, int] = (112, 112, 32)
    spacing: tuple[float, float, float] = (2.0, 2.0, 2.0)
    inner_radius: float = 12.0
    wall_thickness: float = 3.0
    lumen_intensity: float = 300.0
    wall_intensity: float = 80.0
    background_intensity: float = 0.0
    seed: int = 0
    bends: int = 5
    touch_pairs: int = 3
    noise_sigma: float = 0.0

    def __post_init__(self):
        if (len(self.dims) != 3
                or any(not (math.isfinite(d) and d == int(d) and d > 0) for d in self.dims)):
            raise ConfigError(f"dims must be three positive integers, got {self.dims}")
        dims = tuple(int(d) for d in self.dims)
        spacing = tuple(float(s) for s in self.spacing)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)
        if len(spacing) != 3 or any(not math.isfinite(s) or s <= 0 for s in spacing):
            raise ConfigError(f"spacing must be three positive numbers, got {self.spacing}")
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(field.default, float) and not math.isfinite(value):
                raise ConfigError(f"{field.name} must be finite, got {value}")
        if self.inner_radius < 2.0 * max(spacing):
            raise ConfigError(
                f"inner_radius {self.inner_radius} must be >= 2 * max spacing "
                f"({2.0 * max(spacing)})"
            )
        if self.wall_thickness <= 0:
            raise ConfigError("wall_thickness must be positive")
        if self.lumen_intensity <= self.wall_intensity:
            raise ConfigError("lumen_intensity must exceed wall_intensity")
        if self.bends < 0:
            raise ConfigError("bends must be >= 0")
        if self.touch_pairs < 0:
            raise ConfigError("touch_pairs must be >= 0")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

    @property
    def extent(self) -> np.ndarray:
        return np.asarray(self.dims, dtype=np.float64) * np.asarray(self.spacing)

    @property
    def tube_radius(self) -> float:
        return self.inner_radius + self.wall_thickness


def load_phantom_spec(path) -> PhantomSpec:
    """Read a PhantomSpec from a `key: value` file; unknown keys are errors.
    Each value is parsed as its field's default is typed: a tuple of
    numbers, an integer or a number."""
    defaults = {f.name: f.default for f in dataclasses.fields(PhantomSpec)}
    kwargs = {}
    for key, value in read_kv_file(path).items():
        if key not in defaults:
            raise ConfigError(f"unknown phantom spec key {key!r}")
        default = defaults[key]
        if isinstance(default, tuple):
            kwargs[key] = parse_floats(value, len(default), key)
            continue
        try:
            kwargs[key] = type(default)(value)
        except ValueError as exc:
            kind = "an integer" if isinstance(default, int) else "a number"
            raise ConfigError(f"{key!r} must be {kind}, got {value!r}") from exc
    return PhantomSpec(**kwargs)


def _serpentine_control_points(spec: PhantomSpec, rng: np.random.Generator):
    """Control points of the tube axis plus the exact touch locations.

    Returns (points, touch_points) where touch_points is a list of
    (q_lower, q_upper) coordinate pairs that the final curve interpolates
    exactly, separated by 2*inner_radius + wall_thickness.
    """
    extent = spec.extent
    r_tube = spec.tube_radius
    margin = r_tube + max(spec.spacing)
    lanes = spec.bends + 1
    gap = max(spec.wall_thickness, 2.0 * min(spec.spacing))
    pitch = 2.0 * r_tube + gap
    touch_sep = 2.0 * spec.inner_radius + spec.wall_thickness

    if spec.touch_pairs > 0 and 2 * spec.touch_pairs > lanes:
        raise InfeasibleError(
            f"touch_pairs={spec.touch_pairs} needs at least {2 * spec.touch_pairs} lanes "
            f"but bends={spec.bends} gives {lanes}; increase bends"
        )

    turn_radius = pitch / 2.0
    x_lo = margin + (turn_radius if spec.bends > 0 else 0.0)
    x_hi = extent[0] - margin - (turn_radius if spec.bends > 0 else 0.0)
    lane_len = x_hi - x_lo
    cp_step = max(CONTROL_STEP_MM, 3.0 * max(spec.spacing))
    if lane_len < max(4.0 * cp_step, 2.0 * cp_step + 1.0):
        raise InfeasibleError(
            f"x extent {extent[0]:.1f}mm leaves lane length {lane_len:.1f}mm; "
            f"need >= {4.0 * cp_step:.1f}mm for {lanes} lane(s) of radius {spec.inner_radius}mm"
        )
    if spec.touch_pairs > 0:
        min_lane = FAR_PAIR_ARC_FACTOR * spec.inner_radius
        if lane_len < min_lane:
            raise InfeasibleError(
                f"lane length {lane_len:.1f}mm too short for touch pairs; "
                f"need >= {min_lane:.1f}mm so touching strands are far apart along the curve"
            )

    y_span = (lanes - 1) * pitch
    y0 = (extent[1] - y_span) / 2.0
    if y0 < margin or y0 + y_span > extent[1] - margin:
        raise InfeasibleError(
            f"y extent {extent[1]:.1f}mm cannot hold {lanes} lanes at pitch {pitch:.1f}mm "
            f"with margin {margin:.1f}mm; increase dims[1] or reduce bends"
        )
    z_c = extent[2] / 2.0
    # A single lane is a calibration target; keep it perfectly straight.
    jitter_amp = min(gap / 4.0, min(spec.spacing)) if spec.bends > 0 else 0.0
    if z_c - margin < jitter_amp or z_c + jitter_amp > extent[2] - margin:
        raise InfeasibleError(
            f"z extent {extent[2]:.1f}mm too thin; need >= {2.0 * (margin + jitter_amp):.1f}mm"
        )

    n_cp = max(5, int(round(lane_len / cp_step)) + 1)
    xs = np.linspace(x_lo, x_hi, n_cp)

    # Touch pairs use disjoint lane pairs (0,1), (2,3), ... and are staggered
    # along x.  Only the designated lanes move, so untouched neighbours keep
    # the full pitch.
    pull = (pitch - touch_sep) / 2.0
    touch_cols: dict[int, dict[int, float]] = {}
    touch_points = []
    for k in range(spec.touch_pairs):
        lane_lo = 2 * k
        frac = (k + 1.0) / (spec.touch_pairs + 1.0)
        col = int(round(frac * (n_cp - 1)))
        col = min(max(col, 2), n_cp - 3)
        for off, weight in ((-1, 0.5), (0, 1.0), (1, 0.5)):
            touch_cols.setdefault(lane_lo, {})[col + off] = weight * pull
            touch_cols.setdefault(lane_lo + 1, {})[col + off] = -weight * pull
        y_lo_lane = y0 + lane_lo * pitch
        q_lower = np.array([xs[col], y_lo_lane + pull, z_c])
        q_upper = np.array([xs[col], y_lo_lane + pitch - pull, z_c])
        touch_points.append((q_lower, q_upper))

    points = []
    for lane in range(lanes):
        y_lane = y0 + lane * pitch
        offsets = touch_cols.get(lane, {})
        lane_pts = []
        for col in range(n_cp):
            y = y_lane + offsets.get(col, 0.0)
            z = z_c
            # Jitter everywhere except touch windows and lane ends, so the
            # engineered geometry stays exact.
            frozen = col in offsets or col in (0, n_cp - 1)
            jy = 0.0 if frozen else rng.uniform(-jitter_amp, jitter_amp)
            jz = 0.0 if frozen else rng.uniform(-jitter_amp, jitter_amp)
            lane_pts.append((xs[col], y + jy, z + jz))
        if lane % 2 == 1:
            lane_pts.reverse()
        points.extend(lane_pts)
        if lane + 1 < lanes:
            # Half-turn joining this lane end to the next lane start.
            cx = x_hi if lane % 2 == 0 else x_lo
            sign = 1.0 if lane % 2 == 0 else -1.0
            cy = y_lane + pitch / 2.0
            for ang_deg in (-60.0, -30.0, 0.0, 30.0, 60.0):
                ang = math.radians(ang_deg)
                points.append(
                    (cx + sign * turn_radius * math.cos(ang), cy + turn_radius * math.sin(ang), z_c)
                )
    return np.asarray(points, dtype=np.float64), touch_points


def _spline_centerline(control: np.ndarray, step: float) -> Polyline:
    """Interpolate control points with a chordal cubic spline, then resample
    the dense trace to uniform arc-length spacing `step`."""
    chords = np.linalg.norm(np.diff(control, axis=0), axis=1)
    if np.any(chords <= 0):
        raise InfeasibleError("degenerate control polygon (repeated control point)")
    t = np.concatenate(([0.0], np.cumsum(chords)))
    spline = CubicSpline(t, control, axis=0, bc_type="natural")
    n_dense = max(int(t[-1] * 4.0), 2 * len(control))
    dense = spline(np.linspace(0.0, t[-1], n_dense))
    return resample_polyline(Polyline(dense), step)


def _distance_to_centerline(spec: PhantomSpec, path: Polyline):
    """Distance from every voxel center near the tube to the centerline
    polyline, and the arc position of the nearest point on it.

    Returns (distance, arc) float64 arrays of shape dims.  Distances are
    exact for voxels whose nearest path vertex lies within tube_radius plus
    two of the longest path segments, which includes every voxel within
    tube_radius of the curve; every other voxel gets distance inf and arc
    nan.  Candidate segments come from a KD-tree over path vertices; with
    vertices spaced ~0.5*min(spacing) apart and k=8 neighbours the true
    nearest segment is always among the candidates at tube-scale distances.
    """
    nx, ny, nz = spec.dims
    sp = np.asarray(spec.spacing)
    pts = path.points
    segs_a = pts[:-1]
    segs_d = pts[1:] - pts[:-1]
    seg_len2 = np.einsum("ij,ij->i", segs_d, segs_d)
    arc0 = np.concatenate(([0.0], np.cumsum(np.sqrt(seg_len2))))[:-1]
    tree = cKDTree(pts)
    n_seg = len(segs_a)
    # A voxel whose candidate distance is <= tube_radius is within
    # tube_radius of a point on its winning segment, so within tube_radius
    # plus one segment length of both endpoints: the k=1 query below finds a
    # vertex for it (the factor 2 leaves room for rounding).  It then gets
    # the same k=8 candidates and the same row-wise arithmetic as a
    # full-grid pass.  A voxel the query drops had a distance above
    # tube_radius, so it is background either way.
    bound = spec.tube_radius + 2.0 * float(np.sqrt(seg_len2.max()))

    n = nx * ny * nz
    dist = parallel.shared_array(n, np.float64)
    dist.fill(np.inf)
    arc = parallel.shared_array(n, np.float64)
    arc.fill(np.nan)

    def fill(lo, hi):
        i, rest = np.divmod(np.arange(lo, hi), ny * nz)
        j, l = np.divmod(rest, nz)
        g = np.empty((hi - lo, 3))
        g[:, 0] = (i + 0.5) * sp[0]
        g[:, 1] = (j + 0.5) * sp[1]
        g[:, 2] = (l + 0.5) * sp[2]
        near_d, _ = tree.query(g, k=1, distance_upper_bound=bound)
        near = np.flatnonzero(np.isfinite(near_d))
        g = g[near]
        _, idx = tree.query(g, k=8)
        # Each vertex index contributes its two incident segments.
        cand = np.concatenate([np.clip(idx - 1, 0, n_seg - 1), np.clip(idx, 0, n_seg - 1)], axis=1)
        a = segs_a[cand]
        d = segs_d[cand]
        l2 = seg_len2[cand]
        rel = g[:, None, :] - a
        tpar = np.clip(np.einsum("ijk,ijk->ij", rel, d) / np.maximum(l2, 1e-300), 0.0, 1.0)
        diff = rel - tpar[..., None] * d
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        best = np.argmin(d2, axis=1)
        rows = np.arange(g.shape[0])
        out = lo + near
        dist[out] = np.sqrt(d2[rows, best])
        seg_idx = cand[rows, best]
        arc[out] = arc0[seg_idx] + tpar[rows, best] * np.sqrt(seg_len2[seg_idx])

    parallel.fork_ranges(fill, n, _RANGE_VOXELS)
    shape = (nx, ny, nz)
    return dist.reshape(shape), arc.reshape(shape)


def _verify_geometry(spec: PhantomSpec, path: Polyline, arc, seg, touch_points):
    """Constructive checks: tube inside the grid, distinct strands never
    closer than the engineered separations, every requested touch realised
    as a background-free corridor (one shared wall) between two lumens."""
    extent = spec.extent
    r_tube = spec.tube_radius
    pts = path.points
    lo_ok = np.all(pts >= r_tube - 1e-6, axis=None)
    hi_ok = np.all(pts <= extent[None, :] - r_tube + 1e-6, axis=None)
    if not (lo_ok and hi_ok):
        raise InfeasibleError(
            f"centerline leaves the safe region; tube of radius {r_tube:.1f}mm "
            f"does not fit dims {spec.dims} at spacing {spec.spacing}"
        )

    # Strand clearance: any two curve points far apart along the arc must be
    # at least two inner radii apart in space, else lumens would merge.  Only
    # pairs closer than that can fail the check, so the KD-tree lists the
    # pairs within it (with slack for its own rounding) and the distance of
    # the closest far pair among them is recomputed exactly.
    arcs = path.cumulative_arc()
    far = FAR_PAIR_ARC_FACTOR * spec.inner_radius
    lumen_d = 2.0 * spec.inner_radius
    pairs = cKDTree(pts).query_pairs(lumen_d * (1.0 + 1e-9), output_type="ndarray")
    i, j = pairs.T
    keep = np.abs(arcs[i] - arcs[j]) > far
    i, j = i[keep], j[keep]
    if len(i):
        min_clear = float(np.sqrt(np.sum((pts[i] - pts[j]) ** 2, axis=-1).min()))
        if min_clear < lumen_d:
            raise InfeasibleError(
                f"strand clearance {min_clear:.2f}mm < lumen diameter "
                f"{lumen_d:.2f}mm; lumens would merge"
            )

    sp = np.asarray(spec.spacing)
    dims = np.asarray(spec.dims)
    for pair_idx, (q_lower, q_upper) in enumerate(touch_points):
        boxes = []
        for q in (q_lower, q_upper):
            center = np.clip(np.floor(q / sp).astype(int), 2, dims - 3)
            ix, iy, iz = np.meshgrid(*[np.arange(c - 2, c + 3) for c in center], indexing="ij")
            idx = np.stack([ix.ravel(), iy.ravel(), iz.ravel()], axis=1)
            lumen = seg[idx[:, 0], idx[:, 1], idx[:, 2]] == SEG_LUMEN
            boxes.append(idx[lumen])
        if len(boxes[0]) == 0 or len(boxes[1]) == 0:
            raise InfeasibleError(f"touch pair {pair_idx}: no lumen voxels at touch site")
        c0 = (boxes[0] + 0.5) * sp
        c1 = (boxes[1] + 0.5) * sp
        a0 = arc[boxes[0][:, 0], boxes[0][:, 1], boxes[0][:, 2]]
        a1 = arc[boxes[1][:, 0], boxes[1][:, 1], boxes[1][:, 2]]
        dmat = np.linalg.norm(c0[:, None, :] - c1[None, :, :], axis=-1)
        amat = np.abs(a0[:, None] - a1[None, :])
        dmat[amat <= far] = np.inf
        if not np.isfinite(dmat.min()):
            raise InfeasibleError(
                f"touch pair {pair_idx} not realised: touch-site lumen voxels all "
                f"belong to one strand (arc separation <= {far:.0f}mm)"
            )
        i0, i1 = np.unravel_index(np.argmin(dmat), dmat.shape)
        # The corridor between the two nearest cross-strand lumen voxels must
        # cross wall only: two strands sharing a single wall, no background.
        ts = np.linspace(0.0, 1.0, 65)[:, None]
        samples = c0[i0][None, :] * (1.0 - ts) + c1[i1][None, :] * ts
        sidx = np.clip(np.floor(samples / sp).astype(int), 0, dims - 1)
        crossed = seg[sidx[:, 0], sidx[:, 1], sidx[:, 2]]
        if np.any(crossed == SEG_BACKGROUND):
            raise InfeasibleError(
                f"touch pair {pair_idx} not realised: background voxels between "
                f"the strands (separation {dmat[i0, i1]:.1f}mm, walls not shared)"
            )


def generate_phantom(spec: PhantomSpec):
    """Build (intensity, segmentation, centerline) for a phantom spec.

    intensity is float32 with optional clamped Gaussian noise, segmentation
    is uint8 with codes background=0, lumen=1, wall=2, and the centerline is
    a Polyline sampled every 0.5 * min(spacing) mm.  Identical specs produce
    bitwise identical outputs.
    """
    rng = np.random.default_rng(spec.seed)
    control, touch_points = _serpentine_control_points(spec, rng)
    step = 0.5 * min(spec.spacing)
    path = _spline_centerline(control, step)

    dist, arc = _distance_to_centerline(spec, path)
    seg = np.full(spec.dims, SEG_BACKGROUND, dtype=np.uint8)
    seg[dist <= spec.tube_radius] = SEG_WALL
    seg[dist <= spec.inner_radius] = SEG_LUMEN
    _verify_geometry(spec, path, arc, seg, touch_points)

    values = np.array(
        [spec.background_intensity, spec.lumen_intensity, spec.wall_intensity],
        dtype=np.float64,
    )
    intensity = values[seg]
    if spec.noise_sigma > 0:
        intensity = intensity + rng.normal(0.0, spec.noise_sigma, size=intensity.shape)
        intensity = np.clip(intensity, values.min(), values.max())
    intensity = intensity.astype(np.float32)

    spacing = spec.spacing
    origin = (0.0, 0.0, 0.0)
    return (
        Volume(intensity, spacing, origin),
        Volume(seg, spacing, origin),
        path,
    )
