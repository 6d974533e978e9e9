"""Must-pass node sampling: exact EDT of the bowel interior, then peaks,
and the must-pass file that stores them.

The distance transform is scipy's exact Euclidean distance transform in
physical units (mm).  The mask is zero-padded by one layer, so the volume
border counts as background and distances never exceed the distance to the
bounding box.  Only the feature transform (each voxel's nearest background
voxel) is taken from scipy; the distances are computed at interior voxels
alone, with scipy's arithmetic, and rounded once to float32.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
from scipy import ndimage

from .errors import FormatError, InfeasibleError, InvariantError
from .rag import Rag
from .supervoxel import LabelVolume
from .volume_io import Volume, _atomic_write_bytes, check_same_grid, format_lines, read_records


def distance_transform(segmentation: Volume, wall_map: Volume, wall_threshold: float) -> Volume:
    """Exact Euclidean distance (mm) from each interior voxel center to the
    nearest voxel center outside the interior, and 0 outside it.  The
    interior is the voxels inside the segmentation (any nonzero code) whose
    wall-map value is below `wall_threshold`; everything outside the volume
    counts as outside.  The float64 distances are rounded once to float32,
    the distance artifact's type."""
    check_same_grid(segmentation, wall_map, "segmentation and wall map")
    mask = segmentation.data != 0
    mask &= wall_map.data < wall_threshold

    # One layer of padding makes the volume border count as background.
    padded = np.pad(mask, 1)
    nearest = ndimage.distance_transform_edt(
        padded, sampling=segmentation.spacing, return_distances=False, return_indices=True)
    inside = np.flatnonzero(padded)
    del padded
    # The distance at interior voxels only, in scipy's own arithmetic: the
    # integer offset to the nearest background voxel, as float64, times the
    # spacing, squared, summed over axes 0, 1, 2 in order (0 + x is x for
    # these squares), square-rooted.
    shape = nearest.shape[1:]
    sq = np.zeros(len(inside))
    for axis, sp in enumerate(segmentation.spacing):
        own = inside // int(np.prod(shape[axis + 1 :])) % shape[axis]
        step = (nearest[axis].ravel().take(inside) - own).astype(np.float64)
        step *= sp
        step *= step
        sq += step
    del nearest, inside, own, step
    out = np.zeros(segmentation.dims, dtype=np.float32)
    out[mask] = np.sqrt(sq, out=sq)
    return segmentation.like(out)


@dataclasses.dataclass
class MustPassSet:
    """Peaks of the interior distance map, mapped to masked-graph node ids."""

    node_ids: np.ndarray       # distinct masked-Rag node indices
    positions: np.ndarray      # (k, 3) peak voxel centers, mm
    values: np.ndarray         # peak distance values, mm
    pruned_count: int = 0      # peaks dropped because their supervoxel was masked out

    def __post_init__(self):
        if len(self.node_ids) == 0:
            raise InvariantError("must-pass set is empty")
        if len(np.unique(self.node_ids)) != len(self.node_ids):
            raise InvariantError("duplicate must-pass node id")
        if self.positions.shape != (len(self.node_ids), 3):
            raise InvariantError("positions shape mismatch")
        if self.pruned_count < 0:
            raise InvariantError(f"pruned count must be non-negative, got {self.pruned_count}")

    def __len__(self):
        return len(self.node_ids)


# mustpass: version; count: peaks, "pruned", pruned; peak: node, x y z, distance.
_SCHEMA = {"mustpass": (str,), "count": (int, str, int), "peak": (int,) + (float,) * 4}


def save_must_pass(mp: MustPassSet, path) -> None:
    header = f"mustpass 1\ncount {len(mp.node_ids)} pruned {mp.pruned_count}\n"
    peaks = format_lines("peak %d %.17g %.17g %.17g %.17g\n",
                         mp.node_ids, *mp.positions.T, mp.values)
    _atomic_write_bytes(path, header.encode("ascii") + peaks)


def load_must_pass(path) -> MustPassSet:
    records = read_records(path, "must-pass", _SCHEMA)
    if records["mustpass"] != ([1], [["1"]]):
        raise FormatError(f"{path}: not a must-pass file")
    lines, (count, word, pruned) = records["count"]
    if lines != [2] or word != ["pruned"]:
        raise FormatError(f"{path}: expected one 'count N pruned P' line, as line 2; "
                          f"found count lines at {lines}")
    _, (ids, x, y, z, values) = records["peak"]
    if len(ids) != count[0]:
        raise FormatError(f"{path}: expected {count[0]} peaks, found {len(ids)}")
    try:
        return MustPassSet(
            node_ids=np.array(ids, dtype=np.int64),
            positions=np.column_stack((x, y, z)),
            values=np.array(values, dtype=np.float64),
            pruned_count=pruned[0],
        )
    except (InvariantError, OverflowError) as exc:     # OverflowError: beyond int64
        raise FormatError(f"{path}: invalid must-pass set: {exc}") from exc


def _peak_candidates(data: np.ndarray, sp: np.ndarray, theta_v: float, theta_d: float):
    """Voxels (raster order) with value >= theta_v that no voxel within
    theta_d mm exceeds; outside the volume counts as 0."""
    radii = np.maximum(1, np.floor(theta_d / sp).astype(int))
    grids = np.meshgrid(*[np.arange(-r, r + 1) for r in radii], indexing="ij")
    ball = sum((g * s) ** 2 for g, s in zip(grids, sp)) <= theta_d**2

    # The ball's central 3^3 cube lies inside the ball, so a cheap filter
    # with it keeps every ball maximum; the few survivors are then checked
    # against each ball offset.
    core = ball[tuple(slice(r - 1, r + 2) for r in radii)]
    local_max = data >= ndimage.maximum_filter(data, footprint=core, mode="constant")
    candidates = np.argwhere(local_max & (data >= theta_v))
    # In the padded map a candidate's ball starts at the candidate's own index.
    padded = np.pad(data, [(r, r) for r in radii])
    corner = np.ravel_multi_index(candidates.T, padded.shape)
    offsets = np.ravel_multi_index(np.nonzero(ball), padded.shape)
    padded = padded.ravel()
    values = data[tuple(candidates.T)]
    keep = np.ones(len(candidates), dtype=bool)
    for off in offsets:
        keep &= values >= padded[corner + off]
    return candidates[keep]


def sample_must_pass(
    dist: Volume,
    labels: LabelVolume,
    masked_rag: Rag,
    theta_v: float,
    theta_d: float,
) -> MustPassSet:
    """Greedy peak extraction: candidates are ball-radius-theta_d local maxima
    with value >= theta_v, accepted in descending value order (lexicographic
    voxel ties) while keeping every pair >= theta_d apart."""
    check_same_grid(dist, labels, "distance map and labels")
    node_map = node_map_of(masked_rag)

    sp = np.asarray(dist.spacing)
    data = dist.data
    candidates = _peak_candidates(data, sp, theta_v, theta_d)
    if len(candidates) == 0:
        raise InfeasibleError(
            f"no distance peaks >= theta_v={theta_v} mm found; "
            "lower theta_v or check the interior mask"
        )
    values = data[tuple(candidates.T)]
    order = np.lexsort((candidates[:, 2], candidates[:, 1], candidates[:, 0], -values))
    candidates = candidates[order]
    values = values[order]

    accepted_pos = []
    accepted_vox = []
    theta_d_sq = theta_d**2
    for vox, val in zip(candidates, values):
        pos = (vox + 0.5) * sp + np.asarray(dist.origin)
        if accepted_pos:
            gaps = np.asarray(accepted_pos) - pos
            if (np.einsum("ij,ij->i", gaps, gaps) < theta_d_sq).any():
                continue
        accepted_pos.append(pos)
        accepted_vox.append(vox)

    # Each peak maps to its supervoxel's node: one in a masked-out supervoxel
    # is pruned, and of several in one node the first accepted stays.
    peaks = tuple(np.asarray(accepted_vox).T)
    node = np.array([node_map.get(sv, -1) for sv in labels.data[peaks].tolist()],
                    dtype=np.int64)
    pruned = int(np.count_nonzero(node < 0))
    valid = np.flatnonzero(node >= 0)
    keep = np.sort(valid[np.unique(node[valid], return_index=True)[1]])
    if pruned:
        warnings.warn(
            f"{pruned} distance peak(s) fell in masked-out supervoxels and were dropped",
            stacklevel=2,
        )
    if len(keep) == 0:
        raise InfeasibleError(
            "every distance peak fell in a masked-out supervoxel; "
            "the segmentation and wall map likely disagree"
        )
    return MustPassSet(
        node_ids=node[keep],
        positions=np.asarray(accepted_pos)[keep],
        values=data[peaks][keep].astype(np.float64),
        pruned_count=pruned,
    )


def node_map_of(masked_rag) -> dict:
    """Supervoxel id -> masked node index, from a masked Rag."""
    return {int(sv): k for k, sv in enumerate(masked_rag.node_ids)}
