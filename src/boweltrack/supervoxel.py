"""Adaptive SLIC supervoxels over a scalar feature volume.

Clusters minimise D = d_feature + (m_i / step) * d_spatial with a per-cluster
adaptive compactness m_i: initialised from the `compactness` argument and
raised each iteration to the cluster's maximum observed feature distance, so
feature-flat clusters stay compact while boundary-hugging ones loosen.
Distances are physical (mm) which keeps the target volume spacing-independent.

Each assignment step gives every voxel the smallest (D, cluster id) pair
among the clusters whose window (WINDOW_FACTOR grid steps around the
center) covers it; a voxel no window covers goes to the nearest cluster
overall.  This is what SLIC's per-cluster loop (Achanta et al., TPAMI 2012)
computes when clusters run in id order and take a voxel only on a strictly
smaller D.  The step computes the pair for batches of clusters whose windows
have the same shape, and keeps a running minimum over the batches: a voxel
whose D drops takes the batch's lowest winning id, and on an equal D the
lower id stays.  The minimum does not depend on the order of the batches.
Each worker runs the step on one axis-0 slab of the volume, with every
window clipped to the slab, and writes the slab's rows of the label and
distance buffers; slabs share no voxel, so the labels do not depend on the
number of workers.  The workers are forked processes (`parallel.fork_ranges`)
and the buffers are shared memory.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from . import parallel
from .errors import FormatError, InvariantError
from .volume_io import Volume, load_volume, save_volume

SLIC_ITERATIONS = 10
# Assignment windows extend this many grid steps from the cluster center;
# 1.5 covers every voxel even when axis extents round the seed grid down.
WINDOW_FACTOR = 1.5
# Window voxels per assignment batch: bounds the batch temporaries to about
# 0.5 MB each, whatever the volume size or cluster count.
_BATCH_VOXELS = 1 << 16
# Axis-0 rows per slab of the seed grid's gradient, the update step's sums,
# the label counts and the relabelling (_SLAB_ROWS), and of the
# connectivity components (_COMP_ROWS): bounds their temporaries to a few
# slabs, whatever the volume.
_SLAB_ROWS = 16
_COMP_ROWS = 4

# The 3^3 block in raster order; (0, 0, 0) sits in the middle, at index 13.
_OFFSETS_27 = np.array(list(itertools.product((-1, 0, 1), repeat=3)), dtype=np.int64)
_OFFSETS_26 = np.delete(_OFFSETS_27, 13, axis=0)
# Half of the 26-neighbourhood: lexicographically positive offsets.
_HALF_OFFSETS = [tuple(int(o) for o in off) for off in _OFFSETS_27[14:]]


@dataclasses.dataclass
class LabelVolume:
    """Dense supervoxel labeling: every voxel holds a label in 0..N-1."""

    data: np.ndarray
    spacing: tuple
    origin: tuple
    label_count: int

    def __post_init__(self):
        self.spacing = tuple(float(s) for s in self.spacing)
        self.origin = tuple(float(o) for o in self.origin)
        if self.data.ndim != 3:
            raise InvariantError(f"labels must be 3D, got shape {self.data.shape}")
        if not np.issubdtype(self.data.dtype, np.integer):
            raise InvariantError(f"labels must be integer, got {self.data.dtype}")
        if self.label_count <= 0:
            raise InvariantError("label_count must be positive")
        # Range checks first: bincount allocates one slot per label value.
        if self.label_count > self.data.size:
            raise InvariantError(
                f"label_count {self.label_count} exceeds the {self.data.size} voxels; "
                "labels must be contiguous"
            )
        if self.data.min() < 0:
            raise InvariantError("negative label")
        if self.data.max() >= self.label_count:
            raise InvariantError(
                f"label {int(self.data.max())} outside 0..{self.label_count - 1}"
            )
        counts = _label_counts(self.data, self.label_count)
        if np.any(counts == 0):
            missing = int(np.flatnonzero(counts == 0)[0])
            raise InvariantError(f"label {missing} has no voxels; labels must be contiguous")

    @property
    def dims(self):
        return self.data.shape

    def member_counts(self) -> np.ndarray:
        return _label_counts(self.data, self.label_count)


def _label_counts(labels: np.ndarray, n: int, inside=None) -> np.ndarray:
    """Voxels per value 0..n-1 of `labels`, which holds no other value;
    given `inside`, an array of the same shape, only those where it is
    nonzero.  Counted one slab of _SLAB_ROWS axis-0 rows at a time:
    `np.bincount` copies non-intp labels to intp, so only one slab is copied
    at once."""
    counts = np.zeros(n, dtype=np.int64)
    for lo in range(0, labels.shape[0], _SLAB_ROWS):
        slab = labels[lo : lo + _SLAB_ROWS]
        if inside is not None:
            slab = slab[inside[lo : lo + _SLAB_ROWS] != 0]
        counts += np.bincount(slab.ravel(), minlength=n)
    return counts


def save_label_volume(lv: LabelVolume, path) -> None:
    """Write labels via the raw volume format, u16 when N fits, else u32."""
    out_dtype = np.uint16 if lv.label_count <= 65536 else np.uint32
    save_volume(Volume(lv.data.astype(out_dtype), lv.spacing, lv.origin), path)


def load_label_volume(path) -> LabelVolume:
    vol = load_volume(path)
    if not np.issubdtype(vol.data.dtype, np.integer):
        raise FormatError(f"{path}: label volume must hold integers, got {vol.data.dtype}")
    # Contiguous labels lie in 0..voxels-1; checked before the int32 cast,
    # which would wrap labels >= 2^31 negative.
    lo, hi = int(vol.data.min()), int(vol.data.max())
    if lo < 0 or hi >= vol.data.size:
        raise FormatError(
            f"{path}: invalid label volume: labels {lo}..{hi} do not fit "
            f"0..{vol.data.size - 1}, one per voxel at most"
        )
    data = vol.data.astype(np.int32)
    try:
        return LabelVolume(data, vol.spacing, vol.origin, hi + 1)
    except InvariantError as exc:
        raise FormatError(f"{path}: invalid label volume: {exc}") from exc


def _squared_gradient(data: np.ndarray, sp, lo: int, hi: int) -> np.ndarray:
    """|grad f|^2 (float64) at axis-0 rows lo..hi, with the bits of
    `np.gradient` over the whole volume: one halo row on each side keeps
    the central differences, and at the volume's first and last row the
    one-sided difference reads the same rows."""
    a, b = max(lo - 1, 0), min(hi + 1, data.shape[0])
    grads = np.gradient(data[a:b].astype(np.float64), *sp)
    mag = grads[0] ** 2 + grads[1] ** 2 + grads[2] ** 2
    return mag[lo - a : hi - a]


def _seed_grid(feature: Volume, step: float):
    """Regular seed grid (mm centers), perturbed to the 3^3 lowest-gradient
    voxel; returns (voxel indices (k,3), spatial centers (k,3) mm)."""
    dims = np.asarray(feature.dims)
    sp = np.asarray(feature.spacing)
    extent = dims * sp
    if np.any(extent < step):
        bad = int(np.argmin(extent - step))
        raise ValueError(
            f"axis {bad} extent {extent[bad]:.1f}mm is smaller than one grid step "
            f"{step:.1f}mm; reduce target_volume or supply a larger volume"
        )
    counts = [max(1, int(round(extent[a] / step))) for a in range(3)]
    axes = [(np.arange(n) + 0.5) * (extent[a] / n) for a, n in enumerate(counts)]

    # Each grid point moves to the lowest-gradient voxel of the 3^3 block
    # around it: the first minimum in block raster order, never a voxel
    # outside the volume.  The gradient is taken one slab of _SLAB_ROWS
    # axis-0 rows at a time, and each slab fills the block entries in its
    # rows; the grid is in raster order, so the points near a slab are one
    # range of it.
    idx = [np.minimum((axes[a] / sp[a]).astype(int), dims[a] - 1) for a in range(3)]
    grid = np.stack(np.meshgrid(*idx, indexing="ij"), axis=-1).reshape(-1, 3)
    block = np.full((len(grid), len(_OFFSETS_27)), np.inf)
    for lo in range(0, dims[0], _SLAB_ROWS):
        hi = min(lo + _SLAB_ROWS, dims[0])
        mag = _squared_gradient(feature.data, sp, lo, hi)
        near = slice(*np.searchsorted(grid[:, 0], (lo - 1, hi + 1)))
        for j, off in enumerate(_OFFSETS_27):
            nbr = grid[near] + off - (lo, 0, 0)
            inside = np.all((nbr >= 0) & (nbr < mag.shape), axis=1)
            block[near][inside, j] = mag[tuple(nbr[inside].T)]
    seeds = grid + _OFFSETS_27[np.argmin(block, axis=1)]
    centers = (seeds + 0.5) * sp
    return seeds, centers


def _box(off, step, shape):
    """Slices selecting, for every voxel whose `off` neighbour lies inside
    `shape`, the voxel `step` away from it."""
    return tuple(slice(max(0, -o) + s, n - max(0, o) + s) for o, s, n in zip(off, step, shape))


def _components(rows, cols, n: int):
    """Connected components of the undirected graph on n nodes with edges
    rows[k]-cols[k], numbered by their lowest node: (count, int32 ids)."""
    # float64 weights: connected_components copies the graph to float64
    # otherwise.
    graph = sparse.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n)).tocsr()
    return connected_components(graph, directed=False)


def _slab_components(slab: np.ndarray, out: np.ndarray) -> int:
    """26-connected components of `slab` alone, written to `out` numbered
    from 0 by their lowest voxel; returns their count.

    Equal face neighbours always link.  A diagonal pair v, v + off links only
    when no other corner of the box spanned by v and v + off holds their
    label: such a corner is 26-adjacent to both and already joins them, so
    the components stay the same with far fewer edges.
    """
    n_vox = slab.size
    index = np.int32 if n_vox <= np.iinfo(np.int32).max else np.int64
    lin = np.arange(n_vox, dtype=index).reshape(slab.shape)
    rows, cols = [], []
    for off in _HALF_OFFSETS:
        here, there = _box(off, (0, 0, 0), slab.shape), _box(off, off, slab.shape)
        src = slab[here]
        link = src == slab[there]
        for corner in itertools.product(*((0, o) if o else (0,) for o in off)):
            if any(corner) and corner != off:
                link &= slab[_box(off, corner, slab.shape)] != src
        rows.append(lin[here][link])
        cols.append(lin[there][link])
    del lin
    n_comp, comp = _components(np.concatenate(rows), np.concatenate(cols), n_vox)
    out[...] = comp.reshape(slab.shape)
    return n_comp


def _same_label_components(labels: np.ndarray):
    """26-connected components of the labeling (two voxels join a component
    iff adjacent and equally labeled), numbered by their lowest voxel.
    Returns (int32 comp map, comp count).

    Each slab of _COMP_ROWS axis-0 rows gets its own components, numbered
    by lowest voxel after those of the slabs above it.  One small graph over
    these ids then joins the equally labeled 26-neighbours across each slab
    face, one edge per distinct (component above, component below) pair.
    Its components, numbered by lowest id, are numbered by lowest voxel
    too: ids follow their component's lowest voxel in raster order.
    """
    n0, rows = labels.shape[0], _COMP_ROWS
    comp = np.empty(labels.shape, dtype=np.int32)
    counts = parallel.map_ranges(
        lambda lo, hi: _slab_components(labels[lo:hi], comp[lo:hi]), n0, rows)
    first = np.concatenate(([0], np.cumsum(counts)))
    n_ids = int(first[-1])
    pairs = [np.empty(0, dtype=np.int64)]
    for k, face in enumerate(range(rows, n0, rows)):
        pair, ids = labels[face - 1 : face + 1], comp[face - 1 : face + 1]
        keys = []
        for off in itertools.product((1,), (-1, 0, 1), (-1, 0, 1)):
            here, there = _box(off, (0, 0, 0), pair.shape), _box(off, off, pair.shape)
            link = pair[here] == pair[there]
            keys.append((ids[here][link] + first[k]) * n_ids + ids[there][link] + first[k + 1])
        pairs.append(_distinct(np.concatenate(keys)))
    n_comp, group = _components(*np.divmod(np.concatenate(pairs), n_ids), n_ids)

    def renumber(lo, hi):
        k = lo // rows
        comp[lo:hi] = group[first[k] : first[k + 1]][comp[lo:hi]]

    parallel.map_ranges(renumber, n0, rows)
    return comp, n_comp


def _distinct(keys: np.ndarray, kind=None) -> np.ndarray:
    """Sorted distinct values of `keys`, which it sorts in place: one sort,
    where `np.unique` takes tens of times longer on these keys.  `kind` is
    the sort's; "stable" merges a few sorted runs in linear time."""
    keys.sort(kind=kind)
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def _enforce_connectivity(labels: np.ndarray) -> np.ndarray:
    """Keep each label's largest 26-connected component; every other fragment
    joins the largest 26-adjacent already-kept region (ties to lower label)."""
    comp, n_comp = _same_label_components(labels)
    flat_comp = comp.ravel()
    comp_size = _label_counts(comp, n_comp)
    comp_label = np.zeros(n_comp, dtype=labels.dtype)
    comp_label[flat_comp] = labels.ravel()

    # Main component per label: largest, ties to the lowest component id.
    order = np.lexsort((np.arange(n_comp), -comp_size, comp_label))
    sorted_labels = comp_label[order]
    first = np.ones(n_comp, dtype=bool)
    first[1:] = sorted_labels[1:] != sorted_labels[:-1]
    main = order[first]
    is_fragment = np.ones(n_comp, dtype=bool)
    is_fragment[main] = False
    label_sizes = np.zeros(int(labels.max()) + 1, dtype=np.int64)
    label_sizes[comp_label[main]] = comp_size[main]

    # Sorted, unique (fragment, adjacent component) pairs, from the fragment
    # voxels' 26 neighbours: each offset's distinct pairs are merged into
    # one running set, so only distinct pairs are ever held together.
    vox = np.flatnonzero(is_fragment[flat_comp])
    coords = np.unravel_index(vox, labels.shape)
    own = flat_comp[vox].astype(np.int64)
    _, n1, n2 = labels.shape
    keys = np.empty(0, dtype=np.int64)
    for off in _OFFSETS_26.tolist():
        inside = np.ones(len(vox), dtype=bool)
        for c, o, n in zip(coords, off, labels.shape):
            if o:
                inside &= c > 0 if o < 0 else c < n - 1
        nbr = flat_comp[vox[inside] + (off[0] * n1 + off[1]) * n2 + off[2]]
        mine = own[inside]
        other = nbr != mine
        new = _distinct(mine[other] * n_comp + nbr[other])
        keys = _distinct(np.concatenate((keys, new)), kind="stable")
    del vox, coords, own, inside, nbr, mine, other, new
    frag = keys // n_comp
    adj = np.remainder(keys, n_comp, out=keys)

    # Orphans attach to the largest adjacent placed label (ties to the lower
    # label id), fragments in component order; those with no placed
    # neighbour wait for the next pass.  Progress is guaranteed because
    # every fragment chain ends at some label's kept main component.  Sizes
    # are frozen at the pre-merge main-component sizes: re-measuring after
    # each merge lets early winners soak up every later fragment and chains
    # distant fragments into one sprawling label.  A component holds the
    # rank of its placed label in (size, lower label first) order, -1 until
    # placed, so the winner is the highest rank around a fragment.  The loop
    # reads the arrays through memoryviews, which yield Python ints without
    # a list of them.
    by_rank = np.lexsort((-np.arange(len(label_sizes)), label_sizes))
    rank = np.empty_like(by_rank)
    rank[by_rank] = np.arange(len(by_rank))
    placed = np.where(is_fragment, -1, rank[comp_label])
    pending = np.flatnonzero(is_fragment)
    bounds = np.searchsorted(frag, pending), np.searchsorted(frag, pending, side="right")
    del frag
    ranks, nbrs = memoryview(placed), memoryview(adj)
    while len(pending):
        wait = np.zeros(len(pending), dtype=bool)
        waits = memoryview(wait)
        for i, (f, lo, hi) in enumerate(zip(*map(memoryview, (pending, *bounds)))):
            best = max(map(ranks.__getitem__, nbrs[lo:hi]), default=-1)
            if best >= 0:
                ranks[f] = best
            else:
                waits[i] = True
        if wait.all():
            raise InvariantError("connectivity enforcement failed to converge")
        pending, bounds = pending[wait], (bounds[0][wait], bounds[1][wait])

    _relabel(comp, by_rank[placed].astype(np.int32))
    return comp


def _relabel(labels: np.ndarray, table: np.ndarray) -> None:
    """labels[...] = table[labels], in place, one slab of _SLAB_ROWS axis-0
    rows at a time: no second label volume."""
    for lo in range(0, labels.shape[0], _SLAB_ROWS):
        labels[lo : lo + _SLAB_ROWS] = table[labels[lo : lo + _SLAB_ROWS]]


def _assign(feat, axis_pos, centers, cluster_feat, cluster_m, step, window,
            best_label, best_dist):
    """One SLIC assignment step.  Every voxel gets the smallest (distance,
    cluster id) pair among the clusters whose window covers it: fills
    `best_label` with the winning cluster id per voxel, -1 where no window
    covers the voxel, and `best_dist` with its distance.  Both are
    `parallel.shared_array` buffers, which the worker processes write."""
    dims = feat.shape
    n_clusters = len(centers)
    flat_label, flat_feat, flat_dist = best_label.ravel(), feat.ravel(), best_dist.ravel()
    # Broadcast per-axis (batch, n_a) terms to (batch, n_x, n_y, n_z).
    expand = [(slice(None), slice(None), None, None),
              (slice(None), None, slice(None), None),
              (slice(None), None, None, slice(None))]

    lo = np.stack([np.searchsorted(axis_pos[a], centers[:, a] - window) for a in range(3)], 1)
    hi = np.stack(
        [np.searchsorted(axis_pos[a], centers[:, a] + window, side="right") for a in range(3)], 1
    )

    def slab(row0, row1):
        """The step for axis-0 rows row0..row1: every window is clipped to
        them, so no two slabs write the same voxel."""
        best_label[row0:row1] = -1
        best_dist[row0:row1] = np.inf
        lo_s, hi_s = lo.copy(), hi.copy()
        lo_s[:, 0] = np.clip(lo[:, 0], row0, row1)
        hi_s[:, 0] = np.clip(hi[:, 0], row0, row1)
        extent = hi_s - lo_s
        live = np.flatnonzero(np.all(extent > 0, axis=1))
        # Clusters whose windows have the same shape share a batch.  Ids of
        # the labels' type keep `np.minimum.at` on its fast path.
        live = live[np.lexsort(extent[live].T[::-1])].astype(best_label.dtype)
        cuts = np.flatnonzero(np.any(np.diff(extent[live], axis=0) != 0, axis=1)) + 1

        for group in np.split(live, cuts):
            shape = extent[group[0]]
            # Flat index of each window voxel relative to the window's corner.
            offsets = np.ravel_multi_index(np.indices(shape).reshape(3, -1), dims)
            batch = max(1, _BATCH_VOXELS // len(offsets))
            for start in range(0, len(group), batch):
                ids = group[start : start + batch]
                vox = (np.ravel_multi_index(lo_s[ids].T, dims)[:, None] + offsets).ravel()
                sq = []
                for a in range(3):
                    pos = lo_s[ids, a, None] + np.arange(shape[a])
                    sq.append(((axis_pos[a][pos] - centers[ids, a, None]) ** 2)[expand[a]])
                # In place, in the per-cluster loop's order of operations:
                # dist = |f - f_i| + (m_i / step) * sqrt((dx^2 + dy^2) + dz^2).
                ds = sq[0] + sq[1] + sq[2]
                np.sqrt(ds, out=ds)
                df = np.subtract(flat_feat.take(vox).reshape(ds.shape),
                                 cluster_feat[ids, None, None, None], dtype=np.float64)
                np.abs(df, out=df)
                ds *= (cluster_m[ids] / step)[:, None, None, None]
                ds += df
                dist = ds.ravel()

                # Running minimum of (dist, id): a voxel whose distance drops
                # is reset to n_clusters, above every id, and takes the
                # batch's lowest winning id; on an equal distance the lower
                # id stays.  Neither depends on the order of the batches.
                prev = flat_dist.take(vox)
                sel = np.flatnonzero(dist <= prev)
                vox, dist, prev = vox.take(sel), dist.take(sel), prev.take(sel)
                np.minimum.at(flat_dist, vox, dist)
                win = np.flatnonzero(dist == flat_dist.take(vox))
                sel, vox = sel.take(win), vox.take(win)
                flat_label[vox[dist.take(win) < prev.take(win)]] = n_clusters
                np.minimum.at(flat_label, vox, ids[sel // len(offsets)])

    # One slab per worker process; the first runs in this one.  More slabs
    # measured slower: the windows cut at slab borders form more, smaller
    # batches.
    parallel.fork_ranges(slab, dims[0], -(-dims[0] // parallel.workers()))


def _max_feature_distance(flat_label, flat_feat, cluster_feat) -> np.ndarray:
    """Largest |f - c| over each cluster's voxels, c the cluster feature
    they were assigned by; -inf for an empty cluster.  Rounding is
    monotone, so the maximum is reached at the cluster's feature extremes.
    They are found in the feature's own float type, which is exact and
    keeps `ufunc.at` on its fast path (mixed types leave it)."""
    fmax = np.full(len(cluster_feat), -np.inf, dtype=flat_feat.dtype)
    np.maximum.at(fmax, flat_label, flat_feat)
    fmin = np.full(len(cluster_feat), np.inf, dtype=flat_feat.dtype)
    np.minimum.at(fmin, flat_label, flat_feat)
    return np.maximum(fmax - cluster_feat, cluster_feat - fmin)


def _cluster_sums(labels, axis_pos, n_clusters, feat=None):
    """Each label's voxel count, sums (3, n_clusters) of the voxel
    coordinates axis_pos[a] along each axis a and, given `feat`, feature
    sum (else None).  Summed one slab of _SLAB_ROWS axis-0 rows at a time,
    in raster order: `np.add.at` adds the voxels in that order, from 0.0, as
    `np.bincount(weights=...)` over the whole volume does, so the sums have
    its bits without a float64 coordinate or feature volume or an intp copy
    of the labels."""
    n0, n1, n2 = labels.shape
    counts = np.zeros(n_clusters, dtype=np.int64)
    sums = np.zeros((3, n_clusters))
    fsums = None if feat is None else np.zeros(n_clusters)
    for lo in range(0, n0, _SLAB_ROWS):
        hi = min(lo + _SLAB_ROWS, n0)
        flat = labels[lo:hi].ravel()
        counts += np.bincount(flat, minlength=n_clusters)
        coords = (axis_pos[0][lo:hi, None, None], axis_pos[1][:, None], axis_pos[2])
        for a, coord in enumerate(coords):
            np.add.at(sums[a], flat, np.broadcast_to(coord, (hi - lo, n1, n2)).ravel())
        if feat is not None:
            np.add.at(fsums, flat, feat[lo:hi].astype(np.float64).ravel())
    return counts, sums, fsums


def slic_supervoxels(feature: Volume, target_volume: float, compactness: float) -> LabelVolume:
    """Partition a feature volume into compact supervoxels of roughly
    target_volume mm^3 each.  Deterministic: ties go to the lower label id."""
    if target_volume < 8.0 * feature.voxel_volume():
        raise ValueError(
            f"target_volume {target_volume} must be at least 8 voxels "
            f"({8.0 * feature.voxel_volume():.1f} mm^3)"
        )
    if min(feature.dims) < 2:
        axis = int(np.argmin(feature.dims))
        raise ValueError(
            f"axis {axis} has {feature.dims[axis]} voxel; the seed grid's gradient "
            "needs at least 2 per axis"
        )

    step = target_volume ** (1.0 / 3.0)
    dims = feature.dims
    sp = np.asarray(feature.spacing)
    # The feature in the smallest float type that holds it exactly (a
    # float32 wall map as it is), widened to float64 per batch: the same
    # distances as a float64 copy, without the copy.
    feat = np.ascontiguousarray(
        feature.data, dtype=np.result_type(feature.data.dtype, np.float32))
    axis_pos = [(np.arange(dims[a]) + 0.5) * sp[a] for a in range(3)]

    seeds, centers = _seed_grid(feature, step)
    n_clusters = len(seeds)
    cluster_feat = feat[seeds[:, 0], seeds[:, 1], seeds[:, 2]].astype(np.float64)
    cluster_m = np.full(n_clusters, float(compactness))

    window = WINDOW_FACTOR * step

    # One label and one distance buffer for every step, shared with the
    # assignment's worker processes: the update step has read the previous
    # labels before the next step overwrites them.
    best_label = parallel.shared_array(dims, np.int32)
    best_dist = parallel.shared_array(dims, np.float64)
    for _ in range(SLIC_ITERATIONS):
        _assign(feat, axis_pos, centers, cluster_feat, cluster_m, step, window,
                best_label, best_dist)
        stray = best_label < 0
        if stray.any():
            coords = np.argwhere(stray)
            pos = (coords + 0.5) * sp
            fval = feat[stray]
            for lo_i in range(0, len(coords), 4096):
                sl = slice(lo_i, lo_i + 4096)
                ds = np.linalg.norm(pos[sl, None, :] - centers[None, :, :], axis=2)
                df = np.abs(fval[sl, None] - cluster_feat[None, :])
                dist = df + (cluster_m[None, :] / step) * ds
                best_label[tuple(coords[sl].T)] = np.argmin(dist, axis=1)
            del coords, pos, fval, ds, df, dist
        max_df = _max_feature_distance(best_label.ravel(), feat.ravel(), cluster_feat)
        counts, sums, fsums = _cluster_sums(best_label, axis_pos, n_clusters, feat)
        occupied = counts > 0
        centers[occupied] = (sums[:, occupied] / counts[occupied]).T
        cluster_feat[occupied] = fsums[occupied] / counts[occupied]
        cluster_m[occupied] = np.maximum(float(compactness), max_df[occupied])

    del feat, best_dist, stray
    final = _enforce_connectivity(best_label)
    del best_label
    # Connectivity keeps every label the last step left (each keeps its
    # main component) and no other, so those labels, in order, become
    # 0..N-1.
    old = np.flatnonzero(occupied)
    remap = np.zeros(n_clusters, dtype=np.int32)
    remap[old] = np.arange(len(old))
    _relabel(final, remap)
    return LabelVolume(final, feature.spacing, feature.origin, int(len(old)))
