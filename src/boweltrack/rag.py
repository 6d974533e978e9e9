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
from .volume_io import Volume, _atomic_write_bytes, check_same_grid, format_lines, read_records


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


def _distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of `keys`, which it sorts in place: one sort,
    where `np.unique` takes tens of times longer on these keys."""
    keys.sort()
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


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


def build_rag(segmentation: Volume, wall_map: Volume, labels: LabelVolume,
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

    lab = labels.data
    wall = wall_map.data
    n = labels.label_count

    inside = np.bincount(lab[segmentation.data != 0], minlength=n)
    keep = inside / labels.counts >= min_inside_fraction
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

    return Rag(
        node_ids=np.flatnonzero(keep),
        centroids=labels.centroids[keep],
        counts=labels.counts[keep],
        edge_i=node[uniq // n],
        edge_j=node[uniq % n],
        edge_cost=sums / faces,
        edge_faces=faces,
    )


def save_rag(rag: Rag, path) -> None:
    """One `node` line per node, then one `edge` line per edge, written with
    `%`-formats over Python numbers (17 significant digits for floats) and
    moved into place at once."""
    ids = rag.node_ids
    nodes = format_lines("node %d %.17g %.17g %.17g %d\n", ids, *rag.centroids.T, rag.counts)
    edges = format_lines("edge %d %d %.17g %d\n", ids[rag.edge_i], ids[rag.edge_j],
                         rag.edge_cost, rag.edge_faces)
    _atomic_write_bytes(path, nodes + edges)


# node: id, centroid x y z, voxel count; edge: node ids, cost, face count.
_SCHEMA = {"node": (int, float, float, float, int), "edge": (int, int, float, int)}


def load_rag(path) -> Rag:
    records = read_records(path, "graph", _SCHEMA)
    _, (ids, x, y, z, counts) = records["node"]
    _, (ends_a, ends_b, cost, faces) = records["edge"]
    if not ids:
        raise FormatError(f"{path}: no node lines")
    index_of = dict(zip(ids, range(len(ids))))
    if len(index_of) != len(ids):
        raise FormatError(f"{path}: duplicate node id")
    try:
        edge_a = np.array([index_of[node] for node in ends_a], dtype=np.int64)
        edge_b = np.array([index_of[node] for node in ends_b], dtype=np.int64)
    except KeyError as exc:
        raise FormatError(f"{path}: edge references unknown node {exc}") from exc
    try:
        return Rag(
            node_ids=np.array(ids, dtype=np.int64),
            centroids=np.column_stack((x, y, z)),
            counts=np.array(counts, dtype=np.int64),
            edge_i=np.minimum(edge_a, edge_b),
            edge_j=np.maximum(edge_a, edge_b),
            edge_cost=np.array(cost, dtype=np.float64),
            edge_faces=np.array(faces, dtype=np.int64),
        )
    except (InvariantError, OverflowError) as exc:     # OverflowError: beyond int64
        raise FormatError(f"{path}: invalid graph: {exc}") from exc
