"""Must-pass node sampling: exact EDT of the bowel interior, then peaks.

The distance transform is scipy's exact Euclidean distance transform in
physical units (mm).  The mask is zero-padded by one layer, so the volume
border counts as background and distances never exceed the distance to the
bounding box.  Only the feature transform (each voxel's nearest background
voxel) is taken from scipy; the distances are computed at interior voxels
alone, with scipy's arithmetic, so the bytes are those of its distances.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
from scipy import ndimage

from .errors import InfeasibleError, InvariantError
from .supervoxel import LabelVolume
from .volume_io import Volume, check_same_grid


def interior_mask(segmentation: Volume, wall_map: Volume, wall_threshold: float) -> Volume:
    """The bowel interior as a 0/1 volume: voxels inside the segmentation
    (nonzero) whose wall-map value is below `wall_threshold`."""
    check_same_grid(segmentation, wall_map, "segmentation and wall map")
    return segmentation.like(
        ((segmentation.data != 0) & (wall_map.data < wall_threshold)).astype(np.uint8))


def distance_transform(interior: Volume) -> Volume:
    """Exact Euclidean distance (mm) to the nearest background voxel center,
    with everything outside the volume treated as background."""
    mask = interior.data
    values = np.unique(mask)
    if not np.all(np.isin(values, (0, 1))):
        raise ValueError(f"interior mask must be binary, found values {values[:5]}")
    mask = mask.astype(bool)
    if not mask.any():
        return interior.like(np.zeros(interior.dims, dtype=np.float64))

    # One layer of padding makes the volume border count as background.
    padded = np.pad(mask, 1)
    nearest = ndimage.distance_transform_edt(
        padded, sampling=interior.spacing, return_distances=False, return_indices=True)
    inside = np.flatnonzero(padded)
    del padded
    # The distance at interior voxels only, in scipy's own arithmetic: the
    # integer offset to the nearest background voxel, as float64, times the
    # spacing, squared, summed over axes 0, 1, 2 in order (0 + x is x for
    # these squares), square-rooted.
    shape = nearest.shape[1:]
    sq = np.zeros(len(inside))
    for axis, sp in enumerate(interior.spacing):
        own = inside // int(np.prod(shape[axis + 1 :])) % shape[axis]
        step = (nearest[axis].ravel().take(inside) - own).astype(np.float64)
        step *= sp
        step *= step
        sq += step
    del nearest, inside, own, step
    out = np.zeros(interior.dims, dtype=np.float64)
    out[mask] = np.sqrt(sq, out=sq)
    return interior.like(out)


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

    def __len__(self):
        return len(self.node_ids)


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
    node_map: dict,
    theta_v: float,
    theta_d: float,
) -> MustPassSet:
    """Greedy peak extraction: candidates are ball-radius-theta_d local maxima
    with value >= theta_v, accepted in descending value order (lexicographic
    voxel ties) while keeping every pair >= theta_d apart."""
    if not (theta_v > 0) or not (theta_d > 0):
        raise ValueError(f"theta_v and theta_d must be positive, got {theta_v}, {theta_d}")
    check_same_grid(dist, labels, "distance map and labels")

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

    node_ids, out_pos, out_val = [], [], []
    seen = set()
    pruned = 0
    for vox, pos in zip(accepted_vox, accepted_pos):
        sv = int(labels.data[tuple(vox)])
        node = node_map.get(sv)
        if node is None:
            pruned += 1
            continue
        if node in seen:
            continue
        seen.add(node)
        node_ids.append(node)
        out_pos.append(pos)
        out_val.append(float(data[tuple(vox)]))
    if pruned:
        warnings.warn(
            f"{pruned} distance peak(s) fell in masked-out supervoxels and were dropped",
            stacklevel=2,
        )
    if not node_ids:
        raise InfeasibleError(
            "every distance peak fell in a masked-out supervoxel; "
            "the segmentation and wall map likely disagree"
        )
    return MustPassSet(
        node_ids=np.asarray(node_ids, dtype=np.int64),
        positions=np.asarray(out_pos),
        values=np.asarray(out_val),
        pruned_count=pruned,
    )


def node_map_of(masked_rag) -> dict:
    """Supervoxel id -> masked node index, from a masked Rag."""
    return {int(sv): k for k, sv in enumerate(masked_rag.node_ids)}
