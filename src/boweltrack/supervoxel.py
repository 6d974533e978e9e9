"""Adaptive SLIC supervoxels over a scalar feature volume.

Clusters minimise D = d_feature + (m_i / step) * d_spatial with a per-cluster
adaptive compactness m_i: initialised from the `compactness` argument and
raised each iteration to the cluster's maximum observed feature distance, so
feature-flat clusters stay compact while boundary-hugging ones loosen.
Distances are physical (mm) which keeps the target volume spacing-independent.

Each assignment step gives every voxel the smallest (D, cluster id) pair
among the clusters whose window (WINDOW_FACTOR grid steps around the
center) covers it; a voxel no window covers goes to the nearest cluster
overall.  The step is SLIC's per-cluster loop (Achanta et al., TPAMI 2012):
clusters run in id order and take a voxel only on a strictly smaller D,
computed in double in a fixed order.  Each worker runs the step on one
axis-0 slab of the volume, with every window clipped to the slab, and
writes the slab's rows of the label and distance buffers; slabs share no
voxel, so the labels do not depend on the number of workers.  The workers
are forked processes (`parallel.fork_ranges`) and the buffers they write
are shared memory.

Every per-voxel pass is a function of the compiled kernel (kernel.py): the seed
search, the assignment step with its fallback for uncovered voxels, the
update sums, and the connectivity step's components and fragment merge.
Each has the bits of the numpy code it replaced, which the tests keep as
oracles.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import kernel, parallel
from .errors import FormatError, InvariantError
from .volume_io import Volume, load_volume, save_volume

SLIC_ITERATIONS = 10
# Assignment windows extend this many grid steps from the cluster center;
# 1.5 covers every voxel even when axis extents round the seed grid down.
WINDOW_FACTOR = 1.5
# Axis-0 rows per slab of the label counts: bounds their temporaries to a
# slab, whatever the volume.
_SLAB_ROWS = 16

# The 3^3 block in raster order; (0, 0, 0) sits in the middle, at index 13.
_OFFSETS_27 = np.array(list(itertools.product((-1, 0, 1), repeat=3)), dtype=np.int64)


class LabelVolume(Volume):
    """Dense supervoxel labeling: a Volume whose data holds the labels
    0..label_count-1, each on at least one voxel.  It takes integer data
    whose values fit 0..voxels-1 and holds it as int32, in the memory order
    it came in; `label_count`, the largest label + 1, comes from the data,
    and the grid checks are the Volume's."""

    label_count: int

    def __post_init__(self):
        super().__post_init__()
        if not np.issubdtype(self.data.dtype, np.integer):
            raise InvariantError(f"labels must be integer, got {self.data.dtype}")
        # Checked before the count, which allocates one slot per value, and
        # before the cast, which would wrap labels >= 2^31 negative.
        lo, hi = int(self.data.min()), int(self.data.max())
        if lo < 0 or hi >= self.data.size:
            raise InvariantError(
                f"labels {lo}..{hi} do not fit 0..{self.data.size - 1}, one per voxel at most"
            )
        self.data = self.data.astype(np.int32, copy=False)
        self.label_count = hi + 1
        counts = _label_counts(self.data, self.label_count)
        if np.any(counts == 0):
            missing = int(np.flatnonzero(counts == 0)[0])
            raise InvariantError(f"label {missing} has no voxels; labels must be contiguous")


def _label_counts(labels: np.ndarray, n: int) -> np.ndarray:
    """Voxels per value 0..n-1 of `labels`, which holds no other value.
    Counted one slab of _SLAB_ROWS axis-0 rows at a time: `np.bincount`
    copies non-intp labels to intp, so only one slab is copied at once."""
    counts = np.zeros(n, dtype=np.int64)
    for lo in range(0, labels.shape[0], _SLAB_ROWS):
        counts += np.bincount(labels[lo : lo + _SLAB_ROWS].ravel(), minlength=n)
    return counts


def save_label_volume(lv: LabelVolume, path) -> None:
    """Write labels via the raw volume format, u16 when N fits, else u32."""
    out_dtype = np.uint16 if lv.label_count <= 65536 else np.uint32
    save_volume(Volume(lv.data.astype(out_dtype), lv.spacing, lv.origin), path)


def load_label_volume(path) -> LabelVolume:
    """Read a label volume written by `save_label_volume` (or any integer
    volume whose labels are contiguous from 0) as int32 labels."""
    vol = load_volume(path)
    try:
        return LabelVolume(vol.data, vol.spacing, vol.origin)
    except InvariantError as exc:
        raise FormatError(f"{path}: invalid label volume: {exc}") from exc


def _float_feature(data: np.ndarray) -> np.ndarray:
    """The feature, C-ordered, in the smallest float type that holds it
    exactly (a float32 wall map as it is), which the kernel widens to
    float64 voxel by voxel: the bits of a float64 copy, without the copy."""
    return np.ascontiguousarray(data, dtype=np.result_type(data.dtype, np.float32))


def _is_feature(feat: np.ndarray, shape) -> bool:
    return (feat.dtype in (np.float32, np.float64) and feat.flags.c_contiguous
            and feat.shape == tuple(shape))


def _seed_grid(feature: Volume, step: float):
    """Regular seed grid (mm centers), perturbed to the 3^3 lowest-gradient
    voxel; returns (voxel indices (k,3), spatial centers (k,3) mm).

    Each grid point moves to the voxel of the 3^3 block around it with the
    smallest |grad f|^2 of `np.gradient`: the first minimum in block raster
    order, never a voxel outside the volume.  The kernel evaluates the
    gradient only at those voxels."""
    dims = np.asarray(feature.dims)
    sp = np.asarray(feature.spacing)
    if dims.min() < 2:
        axis = int(np.argmin(dims))
        raise ValueError(
            f"axis {axis} has {dims[axis]} voxel; the seed grid's gradient "
            "needs at least 2 per axis"
        )
    extent = dims * sp
    if np.any(extent < step):
        bad = int(np.argmin(extent - step))
        raise ValueError(
            f"axis {bad} extent {extent[bad]:.1f}mm is smaller than one grid step "
            f"{step:.1f}mm; reduce target_volume or supply a larger volume"
        )
    counts = [max(1, int(round(extent[a] / step))) for a in range(3)]
    axes = [(np.arange(n) + 0.5) * (extent[a] / n) for a, n in enumerate(counts)]
    idx = [np.minimum((axes[a] / sp[a]).astype(np.int64), dims[a] - 1) for a in range(3)]
    grid = np.stack(np.meshgrid(*idx, indexing="ij"), axis=-1).reshape(-1, 3)
    feat = _float_feature(feature.data)
    best = np.empty(len(grid), dtype=np.int64)
    kernel.load().slic_seeds(feat.ctypes.data, feat.dtype == np.float64, *map(int, dims),
                             *sp, len(grid), grid, best)
    seeds = grid + _OFFSETS_27[best]
    centers = (seeds + 0.5) * sp
    return seeds, centers


def _same_label_components(labels: np.ndarray):
    """26-connected components of the labeling (two voxels join a component
    iff adjacent and equally labeled), numbered by their lowest voxel.
    Returns (int32 comp map, comp count).  The kernel keeps its union-find
    in the map, so nothing else the size of the volume is made."""
    if (labels.dtype != np.int32 or not labels.flags.c_contiguous
            or labels.size > np.iinfo(np.int32).max):
        raise InvariantError(f"cannot find the components of a {labels.dtype} labeling of "
                             f"shape {labels.shape}")
    comp = np.empty(labels.shape, dtype=np.int32)
    n_comp = kernel.load().slic_components(labels, *labels.shape, comp)
    return comp, n_comp


def _enforce_connectivity(labels: np.ndarray) -> np.ndarray:
    """Keep each label's largest 26-connected component; every other fragment
    joins the largest 26-adjacent already-kept region (ties to lower label).
    Returns the labels that occur, renumbered in order to 0..N-1, in the
    component map's buffer."""
    comp, n_comp = _same_label_components(labels)
    _merge_fragments(labels, comp, n_comp)
    return comp


def _merge_fragments(labels: np.ndarray, comp: np.ndarray, n_comp: int) -> None:
    """Overwrite the component map `comp` of `labels`, `n_comp` components,
    with the connectivity step's labels: the kernel places each fragment
    with the label around it whose kept component is largest.  Sizes stay
    the kept components': re-measuring after each merge lets early winners
    soak up every later fragment and chains distant fragments into one
    sprawling label.  The kernel's scratch is made here, where tracemalloc
    sees it: each component's voxel range and label, each label's kept
    component, and the voxels sorted by component."""
    if (labels.dtype != np.int32 or comp.dtype != np.int32 or not labels.flags.c_contiguous
            or not comp.flags.c_contiguous or labels.shape != comp.shape
            or not 0 <= n_comp <= comp.size <= np.iinfo(np.int32).max):
        raise InvariantError(f"cannot merge the fragments of a {labels.dtype} labeling of shape "
                             f"{labels.shape} with a {comp.dtype} map of shape {comp.shape} "
                             f"and {n_comp} components")
    n_labels = int(labels.max(initial=-1)) + 1
    status = kernel.load().slic_merge_fragments(
        labels, *labels.shape, n_labels, comp, n_comp, np.empty(n_comp + 1, dtype=np.int64),
        np.empty(n_comp, dtype=np.int32), np.empty(n_labels, dtype=np.int32),
        np.empty(comp.size, dtype=np.int32))
    if status == -1:
        raise InvariantError(f"labels outside 0..{n_labels - 1} or component ids outside "
                             f"0..{n_comp - 1}")
    if status:
        raise InvariantError("connectivity enforcement failed to converge")


def _assign(feat, axis_pos, centers, cluster_feat, cluster_m, step, window,
            best_label, best_dist):
    """One SLIC assignment step.  Every voxel gets the smallest (distance,
    cluster id) pair among the clusters whose window covers it: fills
    `best_label` with the winning cluster id per voxel and `best_dist` with
    its distance.  A voxel no window covers keeps distance +inf and takes
    the lowest cluster id of the smallest |f - f_i| + (m_i / step) * |x - c_i|
    over all clusters, with `np.linalg.norm`'s |x - c_i|.  The buffers are
    `parallel.shared_array` arrays, which the worker processes write.  The
    loops are the kernel's, which reads the C-ordered float32 or float64
    feature as it is and holds no temporary."""
    n = len(centers)
    if (not _is_feature(feat, feat.shape) or tuple(map(len, axis_pos)) != feat.shape
            or best_label.shape != feat.shape or best_dist.shape != feat.shape
            or not centers.shape == (n, 3) or not len(cluster_feat) == len(cluster_m) == n):
        raise InvariantError(f"cannot assign a {feat.dtype} feature of shape {feat.shape} "
                             f"to {n} clusters")
    assign = kernel.load().slic_assign
    lo = np.column_stack([np.searchsorted(axis_pos[a], centers[:, a] - window) for a in range(3)])
    hi = np.column_stack([np.searchsorted(axis_pos[a], centers[:, a] + window, side="right")
                          for a in range(3)])
    scale = cluster_m / step
    n0, n1, n2 = feat.shape

    def slab(row0, row1):
        """The step for axis-0 rows row0..row1, and the fallback for their
        uncovered voxels: every window is clipped to them, so no two slabs
        write the same voxel."""
        assign(feat.ctypes.data, feat.dtype == np.float64, n1, n2, *axis_pos, len(centers),
               centers, cluster_feat, scale, lo, hi, row0, row1, best_label, best_dist)

    # One slab per worker process; the first runs in this one.
    parallel.fork_ranges(slab, n0, -(-n0 // parallel.workers()))


def _cluster_sums(labels, axis_pos, n_clusters, feat=None):
    """Each label's voxel count, sums (3, n_clusters) of the voxel
    coordinates axis_pos[a] along each axis a and, given `feat`, its
    feature sum, minimum and maximum (else None each).  One raster-order
    pass of the kernel, in any memory order of the labels: it adds the
    voxels in that order, from 0.0, as `np.add.at` and a whole-volume
    `np.bincount(weights=...)` do, and takes the extremes in the feature's
    own float type as `np.minimum.at` and `np.maximum.at` do, +inf and -inf
    for an empty label."""
    if (labels.dtype != np.int32 or tuple(map(len, axis_pos)) != labels.shape
            or feat is not None and not _is_feature(feat, labels.shape)):
        raise InvariantError(f"cannot sum a {labels.dtype} labeling of shape {labels.shape}")
    counts = np.zeros(n_clusters, dtype=np.int64)
    sums = np.zeros((3, n_clusters))
    fsums = fmin = fmax = None
    if feat is not None:
        fsums = np.zeros(n_clusters)
        fmin = np.full(n_clusters, np.inf, dtype=feat.dtype)
        fmax = np.full(n_clusters, -np.inf, dtype=feat.dtype)
    addr = [None if a is None else a.ctypes.data for a in (feat, fsums, fmin, fmax)]
    strides = [s // labels.itemsize for s in labels.strides]
    if kernel.load().slic_sums(labels.ctypes.data, *strides, *labels.shape, *axis_pos,
                               n_clusters, addr[0], feat is not None and feat.dtype == np.float64,
                               counts, sums, *addr[1:]):
        raise InvariantError(f"labels outside 0..{n_clusters - 1}")
    return counts, sums, fsums, fmin, fmax


def slic_supervoxels(feature: Volume, target_volume: float, compactness: float) -> LabelVolume:
    """Partition a feature volume into compact supervoxels of roughly
    target_volume mm^3 each.  Deterministic: ties go to the lower label id."""
    if target_volume < 8.0 * feature.voxel_volume():
        raise ValueError(
            f"target_volume {target_volume} must be at least 8 voxels "
            f"({8.0 * feature.voxel_volume():.1f} mm^3)"
        )

    step = target_volume ** (1.0 / 3.0)
    seeds, centers = _seed_grid(feature, step)
    dims = feature.dims
    sp = np.asarray(feature.spacing)
    feat = _float_feature(feature.data)
    axis_pos = [(np.arange(dims[a]) + 0.5) * sp[a] for a in range(3)]

    n_clusters = len(seeds)
    cluster_feat = feat[seeds[:, 0], seeds[:, 1], seeds[:, 2]].astype(np.float64)
    cluster_m = np.full(n_clusters, float(compactness))

    window = WINDOW_FACTOR * step

    # One label and one distance buffer for every step, shared with the
    # assignment's worker processes: the update step has read the previous
    # labels before the next step overwrites them.
    best_label = parallel.shared_array(dims, np.int32)
    best_dist = parallel.shared_array(dims, np.float64)
    for it in range(SLIC_ITERATIONS):
        _assign(feat, axis_pos, centers, cluster_feat, cluster_m, step, window,
                best_label, best_dist)
        if it == SLIC_ITERATIONS - 1:
            # The connectivity step reads only the labels.
            break
        counts, sums, fsums, fmin, fmax = _cluster_sums(best_label, axis_pos, n_clusters, feat)
        # Largest |f - c| over each cluster's voxels, c the feature they were
        # assigned by: rounding is monotone, so it is reached at an extreme.
        spread = np.maximum(fmax - cluster_feat, cluster_feat - fmin)
        occupied = counts > 0
        centers[occupied] = (sums[:, occupied] / counts[occupied]).T
        cluster_feat[occupied] = fsums[occupied] / counts[occupied]
        cluster_m[occupied] = np.maximum(float(compactness), spread[occupied])

    del feat, best_dist
    final = _enforce_connectivity(best_label)
    del best_label
    return LabelVolume(final, feature.spacing, feature.origin)
