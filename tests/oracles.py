"""Test-only oracles for the routing code: an exact must-pass solver and the
cost of a visiting order over a simplified-graph cost matrix."""

import heapq

import numpy as np

from boweltrack.errors import InfeasibleError
from boweltrack.rag import Rag
from boweltrack.route import Route, _must_pass_ids, _route_from_nodes

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
    indptr, nbr, weight = rag.adjacency()

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
