"""Path-finding on the supervoxel graph.

Provides shortest-path trees (scipy's Dijkstra with a canonical tie rule),
the plain shortest path (the shortcut-prone baseline), the normalized
simplified graph over {start, end} + must-pass nodes with the shortest-path
trees of its members, the start-to-end tour through them (nearest-fragment
heuristic refined by 2-opt), and the expansion of a tour back into a node
path and polyline along those trees.

The tour is the open path that the paper's TSP finds through an extra node
joined to start and end at zero cost: those two edges are forced, so the
greedy builds the same path when start and end simply begin as one fragment
(see `solve_tsp`).
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.sparse import csgraph

from .errors import InfeasibleError, InvariantError
from .rag import Rag
from .volume_io import Polyline


@dataclasses.dataclass
class Route:
    """A realized path: graph nodes, their centroid polyline, diagnostics."""

    nodes: list
    polyline: Polyline
    total_cost: float
    legs: list = dataclasses.field(default_factory=list)   # {pair, source, n_nodes, cost}

    def __post_init__(self):
        if not self.nodes:
            raise InvariantError("route has no nodes")


@dataclasses.dataclass
class SimplifiedGraph:
    """Complete graph over V' = {start} + must-pass + {end}.

    costs[m, n] is the branch-normalized cost: shortest-path cost / M for
    pairs closer than delta, Euclidean distance / delta for far pairs, and
    distance / delta + 1 for near-but-unreachable pairs.  trees[m] is the
    shortest-path tree from members[m] over the whole rag."""

    members: np.ndarray      # rag node index per V' position; [0]=start, [-1]=end
    costs: np.ndarray        # (n, n) symmetric, zero diagonal
    trees: np.ndarray        # (n, rag nodes) predecessors, -1 at the root and unreachable nodes
    near: np.ndarray         # (n, n) bool, centroid distance <= delta

    def __post_init__(self):
        n = len(self.members)
        if self.costs.shape != (n, n) or self.near.shape != (n, n):
            raise InvariantError("cost matrix shape mismatch")
        if self.trees.ndim != 2 or len(self.trees) != n:
            raise InvariantError("need one shortest-path tree per member")
        if not np.allclose(self.costs, self.costs.T):
            raise InvariantError("cost matrix must be symmetric")
        if np.any(np.diag(self.costs) != 0):
            raise InvariantError("cost matrix diagonal must be zero")
        if np.any(~np.isfinite(self.costs)) or np.any(self.costs < 0):
            raise InvariantError("costs must be finite and non-negative")


def _shortest_paths(rag: Rag, sources):
    """Shortest-path costs and predecessors from each source, one row each.

    Ties go to the smallest predecessor id among positive-cost edges into a
    node; a node reached only over zero-cost edges keeps scipy's predecessor.
    Every positive-cost link lowers the cost, so the tree has no cycles.
    Sources and unreachable nodes have predecessor -1."""
    n = rag.n_nodes
    adj = rag.adjacency()
    indptr, nbr, weight = adj.indptr, adj.indices, adj.data
    dist, pred = csgraph.dijkstra(adj, directed=True, indices=sources,
                                  return_predecessors=True)
    pred = np.where(pred < 0, -1, pred).astype(np.int64)      # scipy writes -9999 for none
    positive = weight > 0
    src = np.repeat(np.arange(n), np.diff(indptr))[positive]
    dst, cost = nbr[positive], weight[positive]
    for d, p in zip(dist, pred):        # one row at a time bounds the memory
        via = d[src]
        tight = np.isfinite(via) & (via + cost == d[dst])
        smallest = np.full(n, n)
        np.minimum.at(smallest, dst[tight], src[tight])
        found = smallest < n
        p[found] = smallest[found]
    return dist, pred


def path_from_predecessors(pred: np.ndarray, source: int, target: int) -> list:
    path = [int(target)]
    while path[-1] != source:
        p = int(pred[path[-1]])
        if p < 0:
            raise InfeasibleError(f"node {target} unreachable from {source}")
        path.append(p)
        if len(path) > len(pred):
            raise InvariantError(f"predecessor cycle on the walk from {target} to {source}")
    path.reverse()
    return path


def _walk_cost(rag: Rag, nodes) -> float:
    """Edge costs summed in walk order; a step that is not an edge (a
    straight-line leg) adds nothing."""
    total = 0.0
    if len(nodes) > 1:
        for cost in rag.adjacency()[nodes[:-1], nodes[1:]].tolist():
            total += cost
    return total


def _route_from_nodes(rag: Rag, nodes: list, legs=None) -> Route:
    return Route(
        nodes=list(nodes),
        polyline=Polyline(rag.centroids[np.asarray(nodes, dtype=int)].copy()),
        total_cost=_walk_cost(rag, nodes),
        legs=legs or [],
    )


def shortest_path_baseline(rag: Rag, v_st: int, v_ed: int) -> Route:
    """Plain minimal-cost path; shortcuts through touching walls happily."""
    for node in (v_st, v_ed):
        if not (0 <= node < rag.n_nodes):
            raise ValueError(f"node {node} outside graph")
    (dist,), (pred,) = _shortest_paths(rag, [v_st])
    if not np.isfinite(dist[v_ed]):
        raise InfeasibleError(f"end node {v_ed} unreachable from start {v_st}")
    nodes = path_from_predecessors(pred, v_st, v_ed)
    leg = {"pair": (v_st, v_ed), "source": "dijkstra", "n_nodes": len(nodes),
           "cost": _walk_cost(rag, nodes)}
    return _route_from_nodes(rag, nodes, legs=[leg])


def build_simplified_graph(
    rag: Rag, v_st: int, v_ed: int, must_pass_ids, delta: float
) -> SimplifiedGraph:
    """Metric-closure-style graph over start/must-pass/end nodes: near pairs
    carry normalized shortest-path cost, far pairs carry distance / delta.
    Each member's shortest-path tree is kept for `expand_tour`."""
    mp_nodes = [n for n in dict.fromkeys(map(int, must_pass_ids)) if n not in (v_st, v_ed)]
    members = np.asarray([v_st] + mp_nodes + [v_ed], dtype=np.int64)
    if len(members) < 2 or v_st == v_ed:
        raise ValueError("simplified graph needs at least distinct start and end")
    for node in members:
        if not (0 <= node < rag.n_nodes):
            raise ValueError(f"node {node} outside graph")

    n = len(members)
    positions = rag.centroids[members]
    diff = positions[:, None, :] - positions[None, :, :]
    eucl = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))

    dist, trees = _shortest_paths(rag, members)
    sp_cost = dist[:, members]

    near = eucl <= delta
    reachable = np.isfinite(sp_cost)
    store = near & reachable
    finite_near = sp_cost[store & ~np.eye(n, dtype=bool)]
    normalizer = float(finite_near.max()) if len(finite_near) else 0.0

    short = sp_cost / normalizer if normalizer > 0 else np.zeros((n, n))
    costs = np.triu(np.where(store, short, eucl / delta + (near & ~reachable)), 1)
    costs = costs + costs.T      # each pair costed from its lower member's row

    return SimplifiedGraph(
        members=members,
        costs=costs,
        trees=trees,
        near=near,
    )


def solve_tsp(simplified: SimplifiedGraph) -> list:
    """Order V' from start to end: the nearest-fragment heuristic builds an
    open start-to-end path, then 2-opt refines it and never worsens it.

    This is the paper's TSP with an extra node that joins start and end at
    zero cost and every other node at a prohibitive cost.  Both of its
    zero-cost edges are in the cycle before the greedy makes a choice, so
    the extra node never has a free link and never takes part in a choice,
    and cutting the cycle there leaves a start-to-end path.  Letting start
    and end begin as one fragment with one free link each gives the greedy
    exactly the same choices."""
    order = _nearest_fragment_path(simplified.costs)
    return _two_opt(order, simplified.costs)


def _nearest_fragment_path(cost: np.ndarray) -> list:
    """Greedy path from node 0 to node n-1: start and end begin as one
    fragment with one free link each; then join the globally cheapest pair
    of open ends of different fragments (ties to the lowest index pair)
    until one fragment is left, and join its two loose ends."""
    n = len(cost)
    fragment_of = np.arange(n)
    fragment_of[n - 1] = 0
    degree = np.zeros(n, dtype=np.int64)
    degree[[0, n - 1]] = 1
    link = [[] for _ in range(n)]

    def join(i, j):
        link[i].append(j)
        link[j].append(i)
        degree[[i, j]] += 1
        fragment_of[fragment_of == fragment_of[j]] = fragment_of[i]

    for _ in range(n - 2):
        open_end = degree < 2
        allowed = (
            open_end[:, None]
            & open_end[None, :]
            & (fragment_of[:, None] != fragment_of[None, :])
        )
        flat = int(np.argmin(np.where(allowed, cost, np.inf)))   # C order: ties fall to lowest (i, j)
        join(*divmod(flat, n))
    join(*np.flatnonzero(degree < 2).tolist())

    path = [0]
    while len(path) < n:
        path.append(next(v for v in link[path[-1]] if v not in path[-2:]))
    if path[-1] != n - 1:
        raise InvariantError("greedy path does not end at the end node")
    return path


def _two_opt(path: list, cost: np.ndarray) -> list:
    """Reverse interior segments while it strictly lowers the path cost;
    endpoints stay fixed."""
    path = list(path)
    n = len(path)
    improved = True
    while improved:
        improved = False
        for i in range(1, n - 2):
            for j in range(i + 1, n - 1):
                a, b = path[i - 1], path[i]
                c, d = path[j], path[j + 1]
                delta = (cost[a, c] + cost[b, d]) - (cost[a, b] + cost[c, d])
                if delta < -1e-12:
                    path[i : j + 1] = path[i : j + 1][::-1]
                    improved = True
    return path


def expand_tour(rag: Rag, order: list, simplified: SimplifiedGraph) -> Route:
    """Realize consecutive V' pairs as node paths along the members'
    shortest-path trees.  A near pair walks its lower member's tree (reversed
    when the tour runs downward, so the path is the same either way round;
    source "cached"), a far pair walks the tree of the leg's start (source
    "dijkstra"), and a pair with no path becomes a flagged straight segment."""
    members, trees = simplified.members, simplified.trees
    nodes = [int(members[order[0]])]
    legs = []
    for m, k in zip(order, order[1:]):
        a, b = int(members[m]), int(members[k])
        if trees[m, b] < 0:
            seq, source = [a, b], "straight"
        elif simplified.near[m, k]:
            lo, hi = min(m, k), max(m, k)
            seq = path_from_predecessors(trees[lo], int(members[lo]), int(members[hi]))
            seq, source = (seq if lo == m else seq[::-1]), "cached"
        else:
            seq, source = path_from_predecessors(trees[m], a, b), "dijkstra"
        legs.append({"pair": (a, b), "source": source, "n_nodes": len(seq),
                     "cost": _walk_cost(rag, seq)})
        nodes.extend(seq[1:])
    return _route_from_nodes(rag, nodes, legs=legs)
