"""Test-only oracles: an exact must-pass solver, the cost of a visiting
order over a simplified-graph cost matrix and the dummy-node construction
of the start-to-end tour (routing); the per-cluster SLIC assignment loop,
the seed-grid loop, the all-pairs and the whole-volume same-label
components and the per-fragment connectivity loop (supervoxels); the
all-faces graph build, the node mask applied to a whole-volume graph and
the f-string graph writer;
the whole-ball peak search (sampling); the sampled Gaussian derivative
kernel, the whole-volume Hessian and the eigvalsh sheet response (wall
filter); and the full-grid centerline distance and the
all-pairs strand clearance (phantom)."""

import heapq
import itertools
import math

import numpy as np
from scipy import ndimage, sparse
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from boweltrack.errors import InfeasibleError, InvariantError
from boweltrack.phantom import FAR_PAIR_ARC_FACTOR
from boweltrack.rag import Rag
from boweltrack.route import Route, _must_pass_ids, _route_from_nodes
from boweltrack.volume_io import Volume, check_same_grid

MAX_EXACT_MUST_PASS = 20


def constrained_dijkstra_exact(rag: Rag, v_st: int, v_ed: int, must_pass) -> Route:
    """Globally minimal walk from v_st to v_ed visiting every must-pass node,
    via Dijkstra over (node, visited-subset) states; revisits allowed."""
    mp_nodes = list(dict.fromkeys(int(v) for v in _must_pass_ids(must_pass)))
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


def assign_per_cluster(feat, axis_pos, centers, cluster_feat, cluster_m, step, window):
    """SLIC assignment step of `supervoxel._assign`, one cluster window at a
    time in id order; a cluster takes a voxel only on a strictly smaller
    distance.  Returns the winning cluster id per voxel, -1 if none."""
    dims = feat.shape
    n_clusters = len(centers)
    best_label = np.full(dims, -1, dtype=np.int64)
    best_dist = np.full(dims, np.inf)
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
    return best_label


_OFFSETS_27 = np.array(list(itertools.product((-1, 0, 1), repeat=3)), dtype=np.int64)
_OFFSETS_26 = np.delete(_OFFSETS_27, 13, axis=0)


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
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    graph = sparse.coo_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(n_vox, n_vox)
    ).tocsr()
    n_comp, comp = connected_components(graph, directed=False)
    return comp.reshape(labels.shape), n_comp


def same_label_components_whole_volume(labels: np.ndarray):
    """Components of `supervoxel._same_label_components` from one graph over
    the whole volume: equal face neighbours, and diagonal pairs whose spanned
    box holds their label at no other corner.  Returns (comp map, count)."""
    n_vox = labels.size
    lin = np.arange(n_vox, dtype=np.int64).reshape(labels.shape)
    rows, cols = [], []
    for off in _OFFSETS_27[14:]:
        src = tuple(slice(max(0, -o), n - max(0, o)) for o, n in zip(off, labels.shape))
        dst = tuple(slice(max(0, o), n - max(0, -o)) for o, n in zip(off, labels.shape))
        link = labels[src] == labels[dst]
        for corner in itertools.product(*((0, o) if o else (0,) for o in off)):
            if any(corner) and tuple(corner) != tuple(off):
                at = tuple(slice(max(0, -o) + c, n - max(0, o) + c)
                           for o, c, n in zip(off, corner, labels.shape))
                link &= labels[at] != labels[src]
        rows.append(lin[src][link])
        cols.append(lin[dst][link])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    graph = sparse.coo_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(n_vox, n_vox)
    ).tocsr()
    n_comp, comp = connected_components(graph, directed=False)
    return comp.reshape(labels.shape), n_comp


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
