"""Test-only oracles: an exact must-pass solver, the cost of a visiting
order over a simplified-graph cost matrix and the dummy-node construction
of the start-to-end tour (routing); the per-cluster SLIC assignment loop,
the blocked numpy fallback for uncovered voxels, the whole-volume and the
slab-wise update sums and extremes, the seed-grid loop and the slab-wise
seed search, the all-pairs and the slab-wise same-label components, the
per-offset fragment-pair scan, the fragment placement over its pairs and
the per-fragment connectivity loop (supervoxels); the all-faces graph
build, the whole-volume node sums, the node mask applied to a
whole-volume graph and the f-string graph writer;
the whole-ball peak search and the per-peak node mapping (sampling); the
sampled Gaussian derivative kernel, the whole-volume Hessian and the
eigvalsh sheet response (wall filter); the full-grid centerline distance
and the all-pairs strand clearance (phantom); the one-blob volume writer
(volume files); the per-metric point-to-curve distance, match counts,
curve-to-curve distance, error-free length and its `while`-loop run finder
(metrics); and a node's neighbours sliced from the adjacency matrix
(graph)."""

import heapq
import itertools
import math

import numpy as np
from scipy import ndimage, sparse
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from boweltrack import metrics
from boweltrack.errors import InfeasibleError, InvariantError
from boweltrack.phantom import FAR_PAIR_ARC_FACTOR
from boweltrack.rag import Rag
from boweltrack.route import Route, _route_from_nodes
from boweltrack.volume_io import (DTYPE_TAGS, Polyline, Volume, _atomic_write_bytes,
                                  check_same_grid)

MAX_EXACT_MUST_PASS = 20


def constrained_dijkstra_exact(rag: Rag, v_st: int, v_ed: int, must_pass_ids) -> Route:
    """Globally minimal walk from v_st to v_ed visiting every must-pass node
    (rag node ids), via Dijkstra over (node, visited-subset) states;
    revisits allowed."""
    mp_nodes = list(dict.fromkeys(map(int, must_pass_ids)))
    if len(mp_nodes) > MAX_EXACT_MUST_PASS:
        raise ValueError(
            f"{len(mp_nodes)} must-pass nodes exceed the exact-solver limit "
            f"{MAX_EXACT_MUST_PASS}; state space grows as 2^k"
        )
    for node in (v_st, v_ed, *mp_nodes):
        if not (0 <= node < rag.n_nodes):
            raise ValueError(f"node {node} outside graph")

    bit_of = {node: 1 << k for k, node in enumerate(mp_nodes)}
    full = (1 << len(mp_nodes)) - 1
    adj = rag.adjacency()
    indptr, nbr, weight = adj.indptr, adj.indices, adj.data

    start_mask = bit_of.get(v_st, 0)
    best = {(v_st, start_mask): 0.0}
    pred = {}
    heap = [(0.0, v_st, start_mask)]
    goal = None
    while heap:
        d, u, mask = heapq.heappop(heap)
        if d > best.get((u, mask), np.inf):
            continue
        if u == v_ed and mask == full:
            goal = (u, mask)
            break
        for v, w in zip(nbr[indptr[u] : indptr[u + 1]],
                        weight[indptr[u] : indptr[u + 1]]):
            v = int(v)
            nmask = mask | bit_of.get(v, 0)
            nd = d + w
            state = (v, nmask)
            if nd < best.get(state, np.inf):
                best[state] = nd
                pred[state] = (u, mask)
                heapq.heappush(heap, (nd, v, nmask))
    if goal is None:
        missing = [n for n in mp_nodes + [v_ed]]
        raise InfeasibleError(
            f"no walk from {v_st} to {v_ed} covers all must-pass nodes {missing}"
        )

    states = [goal]
    while states[-1] in pred:
        states.append(pred[states[-1]])
    states.reverse()
    nodes = [s[0] for s in states]
    route = _route_from_nodes(rag, nodes, legs=[{"pair": (v_st, v_ed), "source": "exact"}])
    route.total_cost = float(best[goal])
    return route


def path_cost(order: list, costs: np.ndarray) -> float:
    return float(sum(costs[a, b] for a, b in zip(order, order[1:])))


def dummy_node_path(costs: np.ndarray) -> list:
    """Greedy start-to-end order of `route.solve_tsp` before 2-opt, built as
    the paper builds it: a cycle through a dummy node.

    The dummy joins the endpoints with zero cost and everything else with a
    prohibitive-but-finite sentinel, so the cheapest cycle corresponds to an
    open start-to-end path; cutting the cycle at the dummy gives the path."""
    n = len(costs)
    if n == 2:
        return [0, 1]

    sentinel = (n + 1) * (float(costs.max()) + 1.0)
    aug = np.full((n + 1, n + 1), sentinel)
    aug[:n, :n] = costs
    dummy = n
    aug[dummy, 0] = aug[0, dummy] = 0.0
    aug[dummy, n - 1] = aug[n - 1, dummy] = 0.0
    np.fill_diagonal(aug, 0.0)

    # The dummy's zero-cost edges are part of the construction, not choices;
    # join them up front so endpoint degree can't be exhausted by cost ties.
    order = nearest_fragment_cycle(aug, prejoined=[(0, dummy), (n - 1, dummy)])
    at = order.index(dummy)
    path = order[at + 1 :] + order[:at]
    if path[0] != 0:
        path.reverse()
    if path[0] != 0 or path[-1] != n - 1:
        raise InvariantError("dummy-node cycle did not isolate the endpoints")
    return path


def nearest_fragment_cycle(cost: np.ndarray, prejoined=()) -> list:
    """Greedy cycle: repeatedly join the globally cheapest pair of fragment
    endpoints (ties to the lowest index pair), then close the last gap."""
    n = len(cost)
    fragment_of = np.arange(n)
    degree = np.zeros(n, dtype=np.int64)
    link = {k: [] for k in range(n)}

    def join(i, j):
        link[i].append(j)
        link[j].append(i)
        degree[i] += 1
        degree[j] += 1
        fragment_of[fragment_of == fragment_of[j]] = fragment_of[i]

    joins = 0
    for i, j in prejoined:
        join(i, j)
        joins += 1

    while joins < n - 1:
        open_end = degree < 2
        allowed = (
            open_end[:, None]
            & open_end[None, :]
            & (fragment_of[:, None] != fragment_of[None, :])
        )
        masked = np.where(allowed, cost, np.inf)
        flat = int(np.argmin(masked))         # C order: ties fall to lowest (i, j)
        i, j = divmod(flat, n)
        if not np.isfinite(masked[i, j]):
            raise InvariantError("fragment merging stalled")
        join(min(i, j), max(i, j))
        joins += 1

    tips = np.flatnonzero(degree < 2)
    if len(tips) != 2:
        raise InvariantError(f"open cycle has {len(tips)} endpoints")
    join(int(tips[0]), int(tips[1]))

    order = [0]
    prev = None
    while len(order) < n:
        nxt = [v for v in link[order[-1]] if v != prev]
        prev = order[-1]
        order.append(nxt[0])
    return order


def seed_grid_loop(feature, step: float):
    """Seed grid of `supervoxel._seed_grid`, one grid point at a time."""
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

    grads = np.gradient(feature.data.astype(np.float64), *sp)
    grad_mag = grads[0] ** 2 + grads[1] ** 2 + grads[2] ** 2

    seeds = []
    for cx in axes[0]:
        for cy in axes[1]:
            for cz in axes[2]:
                idx = np.minimum((np.array([cx, cy, cz]) / sp).astype(int), dims - 1)
                lo = np.maximum(idx - 1, 0)
                hi = np.minimum(idx + 2, dims)
                block = grad_mag[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]]
                off = np.unravel_index(int(np.argmin(block)), block.shape)
                seeds.append(lo + np.asarray(off))
    seeds = np.asarray(seeds, dtype=np.int64)
    centers = (seeds + 0.5) * sp
    return seeds, centers


def assign_per_cluster(feat, axis_pos, centers, cluster_feat, cluster_m, step, window,
                       best_label, best_dist):
    """SLIC assignment step of `supervoxel._assign`, one cluster window at a
    time in id order; a cluster takes a voxel only on a strictly smaller
    distance.  Fills `best_label` with the winning cluster id per voxel and
    `best_dist` with its distance; a voxel no window covers keeps +inf and
    takes the cluster of `assign_uncovered_blocks`."""
    n_clusters = len(centers)
    best_label.fill(-1)
    best_dist.fill(np.inf)
    for i in range(n_clusters):
        c = centers[i]
        lo = [int(np.searchsorted(axis_pos[a], c[a] - window)) for a in range(3)]
        hi = [int(np.searchsorted(axis_pos[a], c[a] + window, side="right")) for a in range(3)]
        if any(lo[a] >= hi[a] for a in range(3)):
            continue
        region = (slice(lo[0], hi[0]), slice(lo[1], hi[1]), slice(lo[2], hi[2]))
        df = np.abs(feat[region] - cluster_feat[i])
        dx2 = (axis_pos[0][region[0]] - c[0]) ** 2
        dy2 = (axis_pos[1][region[1]] - c[1]) ** 2
        dz2 = (axis_pos[2][region[2]] - c[2]) ** 2
        ds = np.sqrt(dx2[:, None, None] + dy2[None, :, None] + dz2[None, None, :])
        dist = df + (cluster_m[i] / step) * ds
        better = dist < best_dist[region]
        if better.any():
            best_dist[region][better] = dist[better]
            best_label[region][better] = i
    assign_uncovered_blocks(feat, axis_pos, centers, cluster_feat, cluster_m, step, best_label)


def cluster_sums_bincount(labels, feat, axis_pos, n_clusters):
    """Counts, coordinate sums, feature sums and feature extremes of
    `supervoxel._cluster_sums`, from whole-volume `np.bincount`s over a
    float64 coordinate volume per axis and whole-volume `np.minimum.at`
    and `np.maximum.at` in the feature's type, the extremes then widened
    to float64, which is exact."""
    flat = labels.ravel()
    counts = np.bincount(flat, minlength=n_clusters)
    sums = np.empty((3, n_clusters))
    for a in range(3):
        axis = tuple(slice(None) if b == a else None for b in range(3))
        coord = np.broadcast_to(axis_pos[a][axis], labels.shape).ravel()
        sums[a] = np.bincount(flat, weights=coord, minlength=n_clusters)
    fsums = np.bincount(flat, weights=feat.ravel(), minlength=n_clusters)
    fmin = np.full(n_clusters, np.inf, dtype=feat.dtype)
    np.minimum.at(fmin, flat, feat.ravel())
    fmax = np.full(n_clusters, -np.inf, dtype=feat.dtype)
    np.maximum.at(fmax, flat, feat.ravel())
    return counts, sums, fsums, fmin.astype(np.float64), fmax.astype(np.float64)


_OFFSETS_27 = np.array(list(itertools.product((-1, 0, 1), repeat=3)), dtype=np.int64)
_OFFSETS_26 = np.delete(_OFFSETS_27, 13, axis=0)


def squared_gradient(data: np.ndarray, sp, lo: int, hi: int) -> np.ndarray:
    """|grad f|^2 (float64) at axis-0 rows lo..hi, with the bits of
    `np.gradient` over the whole volume: one halo row on each side keeps
    the central differences, and at the volume's first and last row the
    one-sided difference reads the same rows."""
    a, b = max(lo - 1, 0), min(hi + 1, data.shape[0])
    grads = np.gradient(data[a:b].astype(np.float64), *sp)
    mag = grads[0] ** 2 + grads[1] ** 2 + grads[2] ** 2
    return mag[lo - a : hi - a]


def seed_grid_slabs(feature, step: float, rows: int = 16):
    """Seed grid of `supervoxel._seed_grid`, with the gradient taken one
    slab of `rows` axis-0 rows at a time; each slab fills the 3^3 block
    entries of the grid points near it."""
    dims = np.asarray(feature.dims)
    sp = np.asarray(feature.spacing)
    extent = dims * sp
    counts = [max(1, int(round(extent[a] / step))) for a in range(3)]
    axes = [(np.arange(n) + 0.5) * (extent[a] / n) for a, n in enumerate(counts)]
    idx = [np.minimum((axes[a] / sp[a]).astype(int), dims[a] - 1) for a in range(3)]
    grid = np.stack(np.meshgrid(*idx, indexing="ij"), axis=-1).reshape(-1, 3)
    block = np.full((len(grid), len(_OFFSETS_27)), np.inf)
    for lo in range(0, dims[0], rows):
        hi = min(lo + rows, dims[0])
        mag = squared_gradient(feature.data, sp, lo, hi)
        # The grid is in raster order, so the points near a slab are one
        # range of it.
        near = slice(*np.searchsorted(grid[:, 0], (lo - 1, hi + 1)))
        for j, off in enumerate(_OFFSETS_27):
            nbr = grid[near] + off - (lo, 0, 0)
            inside = np.all((nbr >= 0) & (nbr < mag.shape), axis=1)
            block[near][inside, j] = mag[tuple(nbr[inside].T)]
    seeds = grid + _OFFSETS_27[np.argmin(block, axis=1)]
    centers = (seeds + 0.5) * sp
    return seeds, centers


def cluster_sums_slabs(labels, axis_pos, n_clusters, feat=None, rows: int = 16):
    """Counts, coordinate sums and feature sums and extremes of
    `supervoxel._cluster_sums`, one slab of `rows` axis-0 rows at a time:
    `np.add.at`, `np.minimum.at` and `np.maximum.at` in raster order, the
    extremes in the feature's type, then widened to float64."""
    n0, n1, n2 = labels.shape
    counts = np.zeros(n_clusters, dtype=np.int64)
    sums = np.zeros((3, n_clusters))
    fsums = fmin = fmax = None
    if feat is not None:
        fsums = np.zeros(n_clusters)
        fmin = np.full(n_clusters, np.inf, dtype=feat.dtype)
        fmax = np.full(n_clusters, -np.inf, dtype=feat.dtype)
    for lo in range(0, n0, rows):
        hi = min(lo + rows, n0)
        flat = labels[lo:hi].ravel()
        counts += np.bincount(flat, minlength=n_clusters)
        coords = (axis_pos[0][lo:hi, None, None], axis_pos[1][:, None], axis_pos[2])
        for a, coord in enumerate(coords):
            np.add.at(sums[a], flat, np.broadcast_to(coord, (hi - lo, n1, n2)).ravel())
        if feat is not None:
            vals = feat[lo:hi].ravel()
            np.add.at(fsums, flat, vals.astype(np.float64))
            np.minimum.at(fmin, flat, vals)
            np.maximum.at(fmax, flat, vals)
    if feat is not None:
        fmin, fmax = fmin.astype(np.float64), fmax.astype(np.float64)
    return counts, sums, fsums, fmin, fmax


def assign_uncovered_blocks(feat, axis_pos, centers, cluster_feat, cluster_m, step,
                            best_label, rows: int = 4096):
    """Fallback of `supervoxel._assign` for the voxels no window covers
    (label -1): in blocks of `rows`, against every cluster at once."""
    stray = best_label < 0
    coords = np.argwhere(stray)
    pos = np.stack([axis_pos[a][coords[:, a]] for a in range(3)], axis=1)
    fval = feat[stray]
    for lo in range(0, len(coords), rows):
        sl = slice(lo, lo + rows)
        ds = np.linalg.norm(pos[sl, None, :] - centers[None, :, :], axis=2)
        df = np.abs(fval[sl, None] - cluster_feat[None, :])
        dist = df + (cluster_m[None, :] / step) * ds
        best_label[tuple(coords[sl].T)] = np.argmin(dist, axis=1)


def same_label_components_all_pairs(labels: np.ndarray):
    """Components of `supervoxel._same_label_components` from an edge for
    every equally labeled pair along the 13 lexicographically positive
    offsets.  Returns (comp map, comp count)."""
    n_vox = labels.size
    lin = np.arange(n_vox, dtype=np.int64).reshape(labels.shape)
    rows, cols = [], []
    for off in _OFFSETS_27[14:]:
        src = tuple(slice(max(0, -o), n - max(0, o)) for o, n in zip(off, labels.shape))
        dst = tuple(slice(max(0, o), n - max(0, -o)) for o, n in zip(off, labels.shape))
        same = labels[src] == labels[dst]
        rows.append(lin[src][same])
        cols.append(lin[dst][same])
    n_comp, comp = _components(np.concatenate(rows), np.concatenate(cols), n_vox)
    return comp.reshape(labels.shape), n_comp


def _box(off, step, shape):
    """Slices selecting, for every voxel whose `off` neighbour lies inside
    `shape`, the voxel `step` away from it."""
    return tuple(slice(max(0, -o) + s, n - max(0, o) + s) for o, s, n in zip(off, step, shape))


def _components(rows, cols, n: int):
    """Connected components of the undirected graph on n nodes with edges
    rows[k]-cols[k], numbered by their lowest node: (count, int32 ids)."""
    graph = sparse.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n)).tocsr()
    return connected_components(graph, directed=False)


def _slab_components(slab: np.ndarray):
    """26-connected components of `slab` alone, numbered from 0 by their
    lowest voxel: (count, ids).  Equal face neighbours always link; a
    diagonal pair v, v + off links only when no other corner of the box
    they span holds their label, since such a corner already joins them."""
    lin = np.arange(slab.size, dtype=np.int64).reshape(slab.shape)
    rows, cols = [], []
    for off in map(tuple, _OFFSETS_27[14:].tolist()):
        here, there = _box(off, (0, 0, 0), slab.shape), _box(off, off, slab.shape)
        src = slab[here]
        link = src == slab[there]
        for corner in itertools.product(*((0, o) if o else (0,) for o in off)):
            if any(corner) and corner != off:
                link &= slab[_box(off, corner, slab.shape)] != src
        rows.append(lin[here][link])
        cols.append(lin[there][link])
    return _components(np.concatenate(rows), np.concatenate(cols), slab.size)


def same_label_components_slabs(labels: np.ndarray, rows: int = 4):
    """Components of `supervoxel._same_label_components` from slabs of
    `rows` axis-0 rows, numbered by lowest voxel after those of the slabs
    above, and one small graph over these ids that joins the equally
    labeled 26-neighbours across each slab face.  Its components, numbered
    by lowest id, are numbered by lowest voxel too.  Returns (int32 comp
    map, comp count)."""
    n0 = labels.shape[0]
    comp = np.empty(labels.shape, dtype=np.int32)
    first = [0]
    for lo in range(0, n0, rows):
        count, ids = _slab_components(labels[lo : lo + rows])
        comp[lo : lo + rows] = ids.reshape(labels[lo : lo + rows].shape)
        first.append(first[-1] + count)
    n_ids = first[-1]
    pairs = [np.empty(0, dtype=np.int64)]
    for k, face in enumerate(range(rows, n0, rows)):
        pair, ids = labels[face - 1 : face + 1], comp[face - 1 : face + 1].astype(np.int64)
        for off in itertools.product((1,), (-1, 0, 1), (-1, 0, 1)):
            here, there = _box(off, (0, 0, 0), pair.shape), _box(off, off, pair.shape)
            link = pair[here] == pair[there]
            pairs.append((ids[here][link] + first[k]) * n_ids + ids[there][link] + first[k + 1])
    n_comp, group = _components(*np.divmod(np.concatenate(pairs), n_ids), n_ids)
    for k, lo in enumerate(range(0, n0, rows)):
        comp[lo : lo + rows] = group[first[k] : first[k + 1]][comp[lo : lo + rows]]
    return comp, n_comp


def fragment_pairs_offsets(comp: np.ndarray, is_fragment: np.ndarray) -> np.ndarray:
    """Sorted, distinct keys f * n + c, n = len(is_fragment), of each
    fragment component f and each other component c 26-adjacent to one of
    its voxels, from the fragment voxels' 26 neighbours one offset at a
    time."""
    n_comp = len(is_fragment)
    flat_comp = comp.ravel()
    vox = np.flatnonzero(is_fragment[flat_comp])
    coords = np.unravel_index(vox, comp.shape)
    own = flat_comp[vox].astype(np.int64)
    _, n1, n2 = comp.shape
    keys = [np.empty(0, dtype=np.int64)]
    for off in _OFFSETS_26.tolist():
        inside = np.ones(len(vox), dtype=bool)
        for c, o, n in zip(coords, off, comp.shape):
            if o:
                inside &= c > 0 if o < 0 else c < n - 1
        nbr = flat_comp[vox[inside] + (off[0] * n1 + off[1]) * n2 + off[2]]
        other = nbr != own[inside]
        keys.append(own[inside][other] * n_comp + nbr[other])
    return np.unique(np.concatenate(keys))


def merge_fragments_pairs(labels: np.ndarray, comp: np.ndarray, n_comp: int) -> None:
    """Labels of `supervoxel._merge_fragments`, written over `comp`: the
    fragments placed one pass at a time over their sorted (fragment,
    adjacent component) keys, each label ranked by (kept size, lower label
    first), then one relabelling of the components."""
    flat_comp = comp.ravel()
    comp_size = np.bincount(flat_comp, minlength=n_comp)
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

    keys = fragment_pairs_offsets(comp, is_fragment)
    frag = keys // n_comp
    adj = np.remainder(keys, n_comp, out=keys)

    # A component holds the rank of its placed label in (size, lower label
    # first) order, -1 until placed, so the winner is the highest rank
    # around a fragment.  The loop reads the arrays through memoryviews,
    # which yield Python ints without a list of them.
    by_rank = np.lexsort((-np.arange(len(label_sizes)), label_sizes))
    rank = np.empty_like(by_rank)
    rank[by_rank] = np.arange(len(by_rank))
    placed = np.where(is_fragment, -1, rank[comp_label])
    pending = np.flatnonzero(is_fragment)
    bounds = np.searchsorted(frag, pending), np.searchsorted(frag, pending, side="right")
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

    # A label keeps its main component exactly when it is on some voxel;
    # the kept labels, in order, become 0..N-1.
    dense = np.cumsum(label_sizes > 0) - 1
    comp[...] = dense[by_rank[placed]].astype(np.int32)[comp]


def enforce_connectivity_per_fragment(labels: np.ndarray) -> np.ndarray:
    """Labels of `supervoxel._enforce_connectivity`, placing one fragment at
    a time from the labels around its voxels' 26 neighbours."""
    comp, n_comp = same_label_components_all_pairs(labels)
    flat_comp = comp.ravel()
    comp_size = np.bincount(flat_comp, minlength=n_comp)
    comp_label = np.zeros(n_comp, dtype=np.int64)
    comp_label[flat_comp] = labels.ravel()

    order = np.lexsort((np.arange(n_comp), -comp_size, comp_label))
    sorted_labels = comp_label[order]
    first = np.ones(n_comp, dtype=bool)
    first[1:] = sorted_labels[1:] != sorted_labels[:-1]
    is_main = np.zeros(n_comp, dtype=bool)
    is_main[order[first]] = True

    final = np.where(is_main[comp], labels, -1).astype(np.int64)
    n_labels = int(labels.max()) + 1
    flat_final = final.ravel()
    label_sizes = np.bincount(flat_final[flat_final >= 0], minlength=n_labels)

    voxel_order = np.argsort(flat_comp, kind="stable")
    starts = np.searchsorted(flat_comp[voxel_order], np.arange(n_comp + 1))
    pending = []
    for c in np.flatnonzero(~is_main):
        lin_idx = voxel_order[starts[c] : starts[c + 1]]
        pending.append(np.stack(np.unravel_index(lin_idx, labels.shape), axis=1))

    dims = np.asarray(labels.shape)
    while pending:
        deferred = []
        progressed = False
        for coords in pending:
            shifted = coords[:, None, :] + _OFFSETS_26[None, :, :]
            ok = np.all((shifted >= 0) & (shifted < dims), axis=2)
            pts = shifted[ok]
            vals = final[pts[:, 0], pts[:, 1], pts[:, 2]]
            vals = vals[vals >= 0]
            if vals.size == 0:
                deferred.append(coords)
                continue
            cand = np.unique(vals)
            best = int(cand[np.lexsort((cand, -label_sizes[cand]))[0]])
            final[coords[:, 0], coords[:, 1], coords[:, 2]] = best
            progressed = True
        if not progressed and deferred:
            raise InvariantError("connectivity enforcement failed to converge")
        pending = deferred
    return final


def build_rag_all_faces(lab: np.ndarray, wall: np.ndarray, n: int):
    """Edge arrays of `rag.build_rag` from the faces of all three axes at
    once: one `np.unique` over every face key and one weighted `bincount`.
    Returns edge_i, edge_j, edge_cost and edge_faces."""
    wall = wall.astype(np.float64)
    keys, vals = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for axis in range(3):
        src = [slice(None)] * 3
        dst = [slice(None)] * 3
        src[axis] = slice(None, -1)
        dst[axis] = slice(1, None)
        a, b = lab[tuple(src)], lab[tuple(dst)]
        diff = a != b
        lo = np.minimum(a[diff], b[diff]).astype(np.int64)
        hi = np.maximum(a[diff], b[diff]).astype(np.int64)
        keys.append(lo * n + hi)
        vals.append(0.5 * (wall[tuple(src)][diff] + wall[tuple(dst)][diff]))
    uniq, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    faces = np.bincount(inverse, minlength=len(uniq))
    sums = np.bincount(inverse, weights=np.concatenate(vals), minlength=len(uniq))
    return uniq // n, uniq % n, sums / faces, faces


def rag_nodes_bincount(labels, segmentation: Volume, min_inside_fraction: float):
    """Node ids, voxel counts and centroids of `rag.build_rag`, from
    whole-volume `np.bincount`s over an intp copy of the labels and a
    float64 coordinate volume per axis."""
    n = labels.label_count
    flat = labels.data.ravel()
    counts = np.bincount(flat, minlength=n).astype(np.int64)
    inside = np.bincount(flat[segmentation.data.ravel() != 0], minlength=n)
    keep = inside / counts >= min_inside_fraction
    sp = np.asarray(labels.spacing)
    orig = np.asarray(labels.origin)
    centroids = np.empty((n, 3))
    for axis in range(3):
        pos = orig[axis] + (np.arange(labels.dims[axis]) + 0.5) * sp[axis]
        shape = [1, 1, 1]
        shape[axis] = labels.dims[axis]
        coord = np.broadcast_to(pos.reshape(shape), labels.dims).ravel()
        centroids[:, axis] = np.bincount(flat, weights=coord, minlength=n) / counts
    return np.flatnonzero(keep), counts[keep], centroids[keep]


def mask_nodes(rag: Rag, segmentation: Volume, labels, min_inside_fraction: float = 0.5) -> Rag:
    """`rag.build_rag` in two steps: a graph over every supervoxel, then this
    drops the nodes mostly outside the binary `segmentation`; surviving
    nodes are re-indexed and keep their supervoxel ids in node_ids."""
    check_same_grid(segmentation, labels, "segmentation and labels")
    seg = segmentation.data
    values = np.unique(seg)
    if not np.all(np.isin(values, (0, 1))):
        raise ValueError(f"segmentation must be binary, found values {values[:5]}")
    if not (0.0 < min_inside_fraction <= 1.0):
        raise ValueError(f"min_inside_fraction must be in (0, 1], got {min_inside_fraction}")

    flat = labels.data.ravel()
    inside = np.bincount(flat[seg.ravel() != 0], minlength=labels.label_count)
    total = np.bincount(flat, minlength=labels.label_count)
    fraction = inside / total

    keep_label = fraction >= min_inside_fraction
    keep_node = keep_label[rag.node_ids]
    if not keep_node.any():
        raise InfeasibleError(
            "no graph nodes survive masking; segmentation and labels likely disagree"
        )

    remap = np.full(rag.n_nodes, -1, dtype=np.int64)
    remap[np.flatnonzero(keep_node)] = np.arange(int(keep_node.sum()))
    keep_edge = keep_node[rag.edge_i] & keep_node[rag.edge_j]
    return Rag(
        node_ids=rag.node_ids[keep_node].copy(),
        centroids=rag.centroids[keep_node].copy(),
        counts=rag.counts[keep_node].copy(),
        edge_i=remap[rag.edge_i[keep_edge]],
        edge_j=remap[rag.edge_j[keep_edge]],
        edge_cost=rag.edge_cost[keep_edge].copy(),
        edge_faces=rag.edge_faces[keep_edge].copy(),
    )


def save_rag_fstrings(rag: Rag, path) -> None:
    """`rag.save_rag`, one f-string per line over numpy scalars."""
    lines = []
    for idx in range(rag.n_nodes):
        c = rag.centroids[idx]
        lines.append(
            f"node {rag.node_ids[idx]} {c[0]:.17g} {c[1]:.17g} {c[2]:.17g} {rag.counts[idx]}"
        )
    for i, j, cost, faces in zip(rag.edge_i, rag.edge_j, rag.edge_cost, rag.edge_faces):
        lines.append(f"edge {rag.node_ids[i]} {rag.node_ids[j]} {cost:.17g} {faces}")
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))


def peaks_full_ball(data: np.ndarray, spacing, theta_v: float, theta_d: float) -> np.ndarray:
    """Must-pass candidates of `sampling._peak_candidates` from one maximum
    filter with the whole theta_d ball footprint."""
    sp = np.asarray(spacing)
    radii = np.maximum(1, np.floor(theta_d / sp).astype(int))
    grids = np.meshgrid(*[np.arange(-r, r + 1) for r in radii], indexing="ij")
    ball = sum((g * s) ** 2 for g, s in zip(grids, sp)) <= theta_d**2
    local_max = data >= ndimage.maximum_filter(data, footprint=ball, mode="constant")
    return np.argwhere(local_max & (data >= theta_v))


def must_pass_per_peak(peak_vox, peak_pos, data: np.ndarray, labels, node_map: dict):
    """`sampling.sample_must_pass`'s mapping of the accepted peaks (voxel
    indices, positions, in acceptance order) to masked-graph nodes, one
    peak at a time: a peak in a masked-out supervoxel is pruned, and a
    node's first peak stays.  Returns (node ids, positions, values as
    float64, pruned count)."""
    node_ids, out_pos, out_val = [], [], []
    seen = set()
    pruned = 0
    for vox, pos in zip(peak_vox, peak_pos):
        node = node_map.get(int(labels.data[tuple(vox)]))
        if node is None:
            pruned += 1
            continue
        if node in seen:
            continue
        seen.add(node)
        node_ids.append(node)
        out_pos.append(pos)
        out_val.append(float(data[tuple(vox)]))
    return np.asarray(node_ids, dtype=np.int64), np.asarray(out_pos), np.asarray(out_val), pruned


def _gaussian_kernel1d(sigma_vox: float, order: int) -> np.ndarray:
    """Sampled Gaussian (derivative) kernel for correlate1d.

    The smoothing kernel is normalised to unit sum, derivative kernels carry
    the polynomial factors so that correlation computes d^order/dx^order in
    voxel units (signs arranged for correlation, not convolution).
    """
    radius = max(1, int(math.ceil(4.0 * sigma_vox)))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    g = np.exp(-0.5 * (x / sigma_vox) ** 2)
    g /= g.sum()
    if order == 0:
        return g
    if order == 1:
        return g * (x / sigma_vox**2)
    if order == 2:
        return g * ((x * x - sigma_vox**2) / sigma_vox**4)
    raise ValueError(f"unsupported derivative order {order}")


def gaussian_hessian(vol: Volume, sigma_mm: float):
    """Scale-normalised Hessian of `ridge._hessian_slabs`, from six
    whole-volume ndimage.gaussian_filter calls.

    Returns six Volumes (Hxx, Hxy, Hxz, Hyy, Hyz, Hzz) holding second
    derivatives in 1/mm^2 units multiplied by sigma_mm^2, of the volume with
    its minimum subtracted.
    """
    if not (sigma_mm > 0) or not math.isfinite(sigma_mm):
        raise ValueError(f"sigma_mm must be positive and finite, got {sigma_mm}")
    if sigma_mm < min(vol.spacing):
        raise ValueError(
            f"sigma_mm {sigma_mm} below voxel spacing {min(vol.spacing)}; "
            "the kernel would be undersampled"
        )
    data = vol.data.astype(np.float64, copy=False)
    data = data - data.min()
    sigma_vox = [sigma_mm / s for s in vol.spacing]
    radius = [max(1, math.ceil(4.0 * s)) for s in sigma_vox]
    components = []
    for orders in ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)):
        scale = sigma_mm**2
        for s, order in zip(vol.spacing, orders):
            scale /= s**order
        out = ndimage.gaussian_filter(data, sigma_vox, order=orders, mode="reflect",
                                      radius=radius)
        out *= scale
        components.append(vol.like(out))
    return tuple(components)


def sheet_response_eigvalsh(hessian) -> np.ndarray:
    """max(0, -min_i l'_i) of the six Hessian component arrays, from one
    (..., 3, 3) eigvalsh call."""
    hxx, hxy, hxz, hyy, hyz, hzz = hessian
    hmat = np.stack([np.stack([hxx, hxy, hxz], -1),
                     np.stack([hxy, hyy, hyz], -1),
                     np.stack([hxz, hyz, hzz], -1)], -2)
    eigs = np.linalg.eigvalsh(hmat)
    return np.maximum(0.0, -(eigs[..., 0] - (eigs[..., 1] + eigs[..., 2]) / 3.0))


def sheet_response_in_place(h, tmp, out) -> None:
    """`ridge._sheet_response` as one in-place numpy step per line over the
    three scratch arrays `tmp`; h and tmp are overwritten.  The wall filter
    keeps this order of operations, so it must match bit for bit."""
    hxx, hxy, hxz, hyy, hyz, hzz = h
    q, t, u = tmp
    np.add(hxx, hyy, out=q)
    q += hzz
    q /= 3.0
    hxx -= q
    hyy -= q
    hzz -= q
    np.multiply(hyy, hzz, out=out)
    np.multiply(hyz, hyz, out=t)
    out -= t
    out *= hxx
    np.multiply(hxy, hzz, out=t)
    np.multiply(hyz, hxz, out=u)
    t -= u
    t *= hxy
    out -= t
    np.multiply(hxy, hyz, out=t)
    np.multiply(hyy, hxz, out=u)
    t -= u
    t *= hxz
    out += t
    for c in h:
        c *= c
    hxy += hxz
    hxy += hyz
    hxy *= 2.0
    hxx += hyy
    hxx += hzz
    hxx += hxy
    hxx /= 6.0
    p = np.sqrt(hxx, out=hxx)
    np.multiply(p, p, out=t)
    t *= p
    t *= 2.0
    np.maximum(t, np.finfo(np.float64).tiny, out=t)
    out /= t
    np.clip(out, -1.0, 1.0, out=out)
    np.arccos(out, out=out)
    out /= 3.0
    out += 2.0 * math.pi / 3.0
    np.cos(out, out=out)
    out *= p
    out *= 8.0
    out += q
    out /= -3.0
    np.maximum(0.0, out, out=out)


def meijering_response_whole_volume(vol: Volume, scales_mm) -> Volume:
    """`ridge.meijering_response` from the whole-volume Hessian and eigvalsh."""
    src = Volume(-vol.data.astype(np.float64), vol.spacing, vol.origin)
    response = np.zeros(vol.dims)
    for sigma in scales_mm:
        r = sheet_response_eigvalsh(tuple(h.data for h in gaussian_hessian(src, float(sigma))))
        peak = r.max()
        if peak > 0:
            r /= peak
        np.maximum(response, r, out=response)
    return vol.like(response)


def distance_to_centerline_full_grid(spec, path):
    """Distance and nearest-point arc of `phantom._distance_to_centerline`
    for every voxel of the grid, with the candidate search run on the whole
    (N, 3) voxel-center grid in chunks."""
    nx, ny, nz = spec.dims
    sp = np.asarray(spec.spacing)
    pts = path.points
    segs_a = pts[:-1]
    segs_d = pts[1:] - pts[:-1]
    seg_len2 = np.einsum("ij,ij->i", segs_d, segs_d)
    arc0 = np.concatenate(([0.0], np.cumsum(np.sqrt(seg_len2))))[:-1]
    tree = cKDTree(pts)
    k = min(8, len(pts))

    xc = (np.arange(nx) + 0.5) * sp[0]
    yc = (np.arange(ny) + 0.5) * sp[1]
    zc = (np.arange(nz) + 0.5) * sp[2]
    grid = np.stack(np.meshgrid(xc, yc, zc, indexing="ij"), axis=-1).reshape(-1, 3)

    dist = np.empty(grid.shape[0], dtype=np.float64)
    arc = np.empty(grid.shape[0], dtype=np.float64)
    chunk = 65536
    n_seg = len(segs_a)
    for lo in range(0, grid.shape[0], chunk):
        g = grid[lo : lo + chunk]
        _, idx = tree.query(g, k=k)
        if k == 1:
            idx = idx[:, None]
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
        dist[lo : lo + chunk] = np.sqrt(d2[rows, best])
        seg_idx = cand[rows, best]
        arc[lo : lo + chunk] = arc0[seg_idx] + tpar[rows, best] * np.sqrt(seg_len2[seg_idx])
    shape = (nx, ny, nz)
    return dist.reshape(shape), arc.reshape(shape)


def strand_clearance_all_pairs(spec, path) -> float:
    """Smallest distance between two path points more than
    FAR_PAIR_ARC_FACTOR inner radii apart along the arc (inf if none),
    over every pair of points."""
    pts = path.points
    arcs = path.cumulative_arc()
    far = FAR_PAIR_ARC_FACTOR * spec.inner_radius
    n = len(pts)
    min_clear = np.inf
    chunk = 512
    for lo in range(0, n, chunk):
        block = pts[lo : lo + chunk]
        d2 = np.sum((block[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        far_mask = np.abs(arcs[lo : lo + chunk, None] - arcs[None, :]) > far
        if np.any(far_mask):
            min_clear = min(min_clear, float(np.sqrt(d2[far_mask].min())))
    return min_clear


def save_volume_one_blob(vol: Volume, tag: str, path) -> None:
    """`volume_io.save_volume` with the whole payload converted, flattened
    and joined to the header in memory before one write."""
    header = (
        "dims: {} {} {}\n".format(*vol.dims)
        + "spacing: {:.17g} {:.17g} {:.17g}\n".format(*vol.spacing)
        + "origin: {:.17g} {:.17g} {:.17g}\n".format(*vol.origin)
        + f"dtype: {tag}\n\n"
    )
    payload = np.ascontiguousarray(vol.data.astype(DTYPE_TAGS[tag])).tobytes(order="F")
    _atomic_write_bytes(path, header.encode("ascii") + payload)


def neighbors(rag: Rag, node: int):
    """The neighbours of `node`, ascending, and the costs of its edges to
    them: one row of the adjacency matrix."""
    adj = rag.adjacency()
    sl = slice(adj.indptr[node], adj.indptr[node + 1])
    return adj.indices[sl], adj.data[sl]


def point_segment_distances_all_pairs(points: np.ndarray, curve: Polyline):
    """`metrics._point_segment_distances` scoring every point against every
    segment, a chunk of points at a time: (distances, arc positions)."""
    a = curve.points[:-1]                     # (s, 3)
    d = curve.points[1:] - a                  # (s, 3)
    seg_len2 = np.einsum("ij,ij->i", d, d)
    arc0 = curve.cumulative_arc()[:-1]
    seg_len = np.sqrt(seg_len2)

    n = points.shape[0]
    best = np.full(n, np.inf)
    best_arc = np.zeros(n)
    chunk = max(1, metrics._CHUNK_PAIRS // max(1, a.shape[0]))
    for start in range(0, n, chunk):
        p = points[start:start + chunk]                       # (c, 3)
        diff = p[:, None, :] - a[None, :, :]                  # (c, s, 3)
        t = np.einsum("csk,sk->cs", diff, d) / seg_len2
        np.clip(t, 0.0, 1.0, out=t)
        proj = diff - t[:, :, None] * d[None, :, :]
        dist2 = np.einsum("csk,csk->cs", proj, proj)
        idx = np.argmin(dist2, axis=1)
        rows = np.arange(p.shape[0])
        best[start:start + chunk] = np.sqrt(dist2[rows, idx])
        best_arc[start:start + chunk] = arc0[idx] + t[rows, idx] * seg_len[idx]
    return best, best_arc


def point_to_curve_distance(points: np.ndarray, curve: Polyline) -> np.ndarray:
    return point_segment_distances_all_pairs(np.asarray(points, dtype=np.float64), curve)[0]


def match_paths(pred: Polyline, gt: Polyline, tol: float) -> tuple[int, int, int, float, float]:
    """Tolerance-based overlap counts between resampled curves.

    Returns (tp, fp, fn, precision_pct, recall_pct). Predicted samples
    within ``tol`` of the GT curve count as TP; GT samples farther than
    ``tol`` from the predicted curve count as FN.
    """
    pred_d = point_to_curve_distance(pred.points, gt)
    gt_d = point_to_curve_distance(gt.points, pred)
    tp = int(np.count_nonzero(pred_d <= tol))
    covered = int(np.count_nonzero(gt_d <= tol))
    return (tp, len(pred_d) - tp, len(gt_d) - covered,
            100.0 * tp / max(1, len(pred_d)), 100.0 * covered / len(gt_d))


def curve_to_curve_distance(pred: Polyline, gt: Polyline) -> float:
    """Symmetric mean closest-point distance between two sampled curves."""
    return float((point_to_curve_distance(pred.points, gt).mean()
                  + point_to_curve_distance(gt.points, pred).mean()) / 2.0)


def max_error_free_length(pred: Polyline, gt: Polyline, tol: float) -> float:
    """Longest GT arc stretch tracked without error (see
    `metrics._error_free_length`)."""
    dist, arc_on_pred = point_segment_distances_all_pairs(gt.points, pred)
    return metrics._error_free_length(dist, arc_on_pred, gt.cumulative_arc(), tol)


def error_free_length_loop(dist: np.ndarray, arc_on_pred: np.ndarray,
                           gt_arc: np.ndarray, tol: float) -> float:
    """`metrics._error_free_length`, finding the runs of tracked samples
    with a `while` loop."""
    within = dist <= tol
    best = 0.0
    n = len(within)
    i = 0
    while i < n:
        if not within[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and within[j + 1]:
            j += 1
        best = max(best, metrics._longest_monotone_window(arc_on_pred[i:j + 1], gt_arc[i:j + 1]))
        i = j + 1
    return best
