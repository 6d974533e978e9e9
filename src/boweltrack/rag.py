"""Region adjacency graph over supervoxels with wall-crossing edge costs.

Nodes are the supervoxels mostly inside the segmentation (centroid + voxel
count); an edge exists iff two nodes share at least one voxel face
(6-connectivity), and its cost is the mean wall-map value over that shared
boundary, each face valued by the average of its two incident voxels.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.sparse import csr_array

from .errors import FormatError, InfeasibleError, InvariantError
from .supervoxel import LabelVolume
from .volume_io import Volume, _atomic_write_chunks, check_same_grid


# Lines `save_rag` formats at once: the Python numbers and strings of one
# block are all it holds besides the graph.
SAVE_ROWS = 16384


@dataclasses.dataclass
class Rag:
    """Symmetric weighted graph; edges stored once with edge_i < edge_j."""

    node_ids: np.ndarray      # original supervoxel id per node index
    centroids: np.ndarray     # (n, 3) physical mm
    counts: np.ndarray        # voxels per node
    edge_i: np.ndarray
    edge_j: np.ndarray
    edge_cost: np.ndarray
    edge_faces: np.ndarray
    _adj: csr_array | None = dataclasses.field(default=None, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.node_ids)
        if self.centroids.shape != (n, 3) or len(self.counts) != n:
            raise InvariantError("node arrays disagree on node count")
        if not np.all(np.isfinite(self.centroids)):
            raise InvariantError("node centroids must be finite")
        if np.any(self.counts < 1):
            raise InvariantError("every node must hold at least one voxel")
        if np.any(self.edge_i == self.edge_j):
            raise InvariantError("self-edge")
        if np.any(self.edge_i > self.edge_j):
            raise InvariantError("edges must be stored with i < j")
        if len(self.edge_i) and (self.edge_i.min() < 0 or self.edge_j.max() >= n):
            raise InvariantError("edge endpoint outside node range")
        keys = np.sort(self.edge_i * n + self.edge_j)
        if np.any(keys[1:] == keys[:-1]):
            raise InvariantError("duplicate edge")
        if np.any(~np.isfinite(self.edge_cost)) or np.any(self.edge_cost < 0):
            raise InvariantError("edge costs must be finite and non-negative")

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_edges(self) -> int:
        return len(self.edge_i)

    def adjacency(self) -> csr_array:
        """Edge costs over both directions as an (n, n) sparse matrix, built
        once.  Neighbours ascend within each row, and zero-cost edges are
        stored entries, so they stay edges."""
        if self._adj is None:
            src = np.concatenate([self.edge_i, self.edge_j])
            dst = np.concatenate([self.edge_j, self.edge_i])
            cost = np.concatenate([self.edge_cost, self.edge_cost])
            order = np.lexsort((dst, src))
            indptr = np.searchsorted(src[order], np.arange(self.n_nodes + 1))
            self._adj = csr_array((cost[order], dst[order], indptr),
                                  shape=(self.n_nodes, self.n_nodes))
        return self._adj

    def neighbors(self, node: int):
        adj = self.adjacency()
        sl = slice(adj.indptr[node], adj.indptr[node + 1])
        return adj.indices[sl], adj.data[sl]


def _axis_faces(lab: np.ndarray, kept: np.ndarray, axis: int, n: int):
    """Faces between differently-labeled neighbours along `axis` whose two
    voxels are both in `kept`: the edge key lo * n + hi of each face in C
    order, and the index tuples and mask that pick its two voxels out of a
    volume on the same grid."""
    src = [slice(None)] * 3
    dst = [slice(None)] * 3
    src[axis] = slice(None, -1)
    dst[axis] = slice(1, None)
    src, dst = tuple(src), tuple(dst)
    a = lab[src]
    b = lab[dst]
    diff = a != b
    diff &= kept[src]
    diff &= kept[dst]
    a = a[diff]
    b = b[diff]
    keys = np.minimum(a, b).astype(np.int64) * n + np.maximum(a, b)
    return keys, src, dst, diff


def _distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of `keys`, which it sorts in place: one sort,
    where `np.unique` takes tens of times longer on these keys."""
    keys.sort()
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def build_rag(labels: LabelVolume, wall_map: Volume, segmentation: Volume,
              min_inside_fraction: float) -> Rag:
    """Graph of the supervoxels inside the segmentation.

    A supervoxel is a node when at least `min_inside_fraction` of its
    voxels are inside (nonzero in `segmentation`).  Nodes are numbered in
    supervoxel order and keep their supervoxel ids in `node_ids`; an edge
    joins two nodes that share a voxel face.

    Faces are accumulated one axis at a time, twice: the first pass collects
    each axis's distinct edge keys, the second adds each face's value to its
    edge, so only one axis's faces are held at a time.  `np.add.at` adds an
    edge's face values in axis order and in C order within an axis, the
    order of one weighted `bincount` over all faces, so the costs keep its
    bits."""
    check_same_grid(labels, wall_map, "labels and wall map")
    check_same_grid(segmentation, labels, "segmentation and labels")
    if not (0.0 < min_inside_fraction <= 1.0):
        raise ValueError(f"min_inside_fraction must be in (0, 1], got {min_inside_fraction}")

    lab = labels.data
    wall = wall_map.data
    n = labels.label_count

    flat = lab.ravel()
    counts = np.bincount(flat, minlength=n).astype(np.int64)
    inside = np.bincount(flat[segmentation.data.ravel() != 0], minlength=n)
    keep = inside / counts >= min_inside_fraction
    if not keep.any():
        raise InfeasibleError(
            "no graph nodes survive masking; segmentation and labels likely disagree"
        )
    kept = keep[lab]

    uniq = _distinct(np.concatenate(
        [_distinct(_axis_faces(lab, kept, axis, n)[0]) for axis in range(3)]))
    faces = np.zeros(len(uniq), dtype=np.int64)
    sums = np.zeros(len(uniq))
    for axis in range(3):
        keys, src, dst, diff = _axis_faces(lab, kept, axis, n)
        edge = np.searchsorted(uniq, keys)
        del keys
        faces += np.bincount(edge, minlength=len(uniq))
        face_val = 0.5 * (wall[src][diff].astype(np.float64)
                          + wall[dst][diff].astype(np.float64))
        np.add.at(sums, edge, face_val)
    del kept
    node = np.cumsum(keep) - 1

    sp = np.asarray(labels.spacing)
    orig = np.asarray(labels.origin)
    centroids = np.empty((n, 3))
    for axis in range(3):
        pos = orig[axis] + (np.arange(labels.dims[axis]) + 0.5) * sp[axis]
        shape = [1, 1, 1]
        shape[axis] = labels.dims[axis]
        coord = np.broadcast_to(pos.reshape(shape), labels.dims).ravel()
        centroids[:, axis] = np.bincount(flat, weights=coord, minlength=n) / counts

    return Rag(
        node_ids=np.flatnonzero(keep),
        centroids=centroids[keep],
        counts=counts[keep],
        edge_i=node[uniq // n],
        edge_j=node[uniq % n],
        edge_cost=sums / faces,
        edge_faces=faces,
    )


def save_rag(rag: Rag, path) -> None:
    """One `node` line per node, then one `edge` line per edge, written with
    `%`-formats over Python numbers (17 significant digits for floats), a
    block of `SAVE_ROWS` lines at a time."""
    c = rag.centroids
    ids = rag.node_ids

    def blocks():
        for lo in range(0, rag.n_nodes, SAVE_ROWS):
            sl = slice(lo, lo + SAVE_ROWS)
            yield _lines("node %d %.17g %.17g %.17g %d\n", ids[sl], c[sl, 0], c[sl, 1],
                         c[sl, 2], rag.counts[sl])
        for lo in range(0, rag.n_edges, SAVE_ROWS):
            sl = slice(lo, lo + SAVE_ROWS)
            yield _lines("edge %d %d %.17g %d\n", ids[rag.edge_i[sl]], ids[rag.edge_j[sl]],
                         rag.edge_cost[sl], rag.edge_faces[sl])

    _atomic_write_chunks(path, blocks())


def _lines(fmt: str, *columns) -> bytes:
    return "".join(map(fmt.__mod__, zip(*(col.tolist() for col in columns)))).encode("ascii")


def load_rag(path) -> Rag:
    node_ids, centroids, counts = [], [], []
    raw_edges = []
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a text graph file: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            if tokens[0] == "node" and len(tokens) == 6:
                node_ids.append(int(tokens[1]))
                centroids.append([float(t) for t in tokens[2:5]])
                counts.append(int(tokens[5]))
            elif tokens[0] == "edge" and len(tokens) == 5:
                raw_edges.append(
                    (int(tokens[1]), int(tokens[2]), float(tokens[3]), int(tokens[4]))
                )
            else:
                raise FormatError(f"{path}:{lineno}: unrecognized line {line.strip()!r}")
        except ValueError as exc:
            raise FormatError(
                f"{path}:{lineno}: bad number in {line.strip()!r}: {exc}") from exc
    if not node_ids:
        raise FormatError(f"{path}: no node lines")
    index_of = {nid: k for k, nid in enumerate(node_ids)}
    if len(index_of) != len(node_ids):
        raise FormatError(f"{path}: duplicate node id")
    try:
        edge_i = np.array([index_of[e[0]] for e in raw_edges], dtype=np.int64)
        edge_j = np.array([index_of[e[1]] for e in raw_edges], dtype=np.int64)
    except KeyError as exc:
        raise FormatError(f"{path}: edge references unknown node {exc}") from exc
    lo = np.minimum(edge_i, edge_j)
    hi = np.maximum(edge_i, edge_j)
    try:
        return Rag(
            node_ids=np.asarray(node_ids, dtype=np.int64),
            centroids=np.asarray(centroids, dtype=np.float64).reshape(-1, 3),
            counts=np.asarray(counts, dtype=np.int64),
            edge_i=lo,
            edge_j=hi,
            edge_cost=np.array([e[2] for e in raw_edges], dtype=np.float64),
            edge_faces=np.array([e[3] for e in raw_edges], dtype=np.int64),
        )
    except InvariantError as exc:
        raise FormatError(f"{path}: invalid graph: {exc}") from exc
