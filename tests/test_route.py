"""Path-finding against enumeration oracles and cost-normalization rules."""

import itertools

import numpy as np
import pytest

import boweltrack.route as route_module
from boweltrack.errors import InfeasibleError, InvariantError
from boweltrack.rag import Rag
from boweltrack.route import (
    SimplifiedGraph,
    _shortest_paths,
    _two_opt,
    build_simplified_graph,
    expand_tour,
    path_from_predecessors,
    shortest_path_baseline,
    solve_tsp,
)
from oracles import constrained_dijkstra_exact, dummy_node_path, neighbors, path_cost


def make_rag(n, edges, positions=None):
    """Hand-built graph; edges are (i, j, cost) with any order of i, j."""
    if positions is None:
        positions = np.zeros((n, 3))
        positions[:, 0] = np.arange(n, dtype=float)
    lo = np.array([min(i, j) for i, j, _ in edges], dtype=np.int64)
    hi = np.array([max(i, j) for i, j, _ in edges], dtype=np.int64)
    cost = np.array([c for _, _, c in edges], dtype=np.float64)
    return Rag(
        node_ids=np.arange(n, dtype=np.int64),
        centroids=np.asarray(positions, dtype=np.float64),
        counts=np.ones(n, dtype=np.int64),
        edge_i=lo,
        edge_j=hi,
        edge_cost=cost,
        edge_faces=np.ones(len(edges), dtype=np.int64),
    )


def random_rag(seed, n_lo=4, n_hi=10, p=0.5, tie_free=True):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_lo, n_hi + 1))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                cost = float(rng.uniform(0.1, 2.0)) if tie_free else float(
                    rng.integers(1, 4)
                )
                edges.append((i, j, cost))
    if not edges:
        edges = [(0, 1, 1.0)]
    positions = rng.uniform(0, 100, size=(n, 3))
    return make_rag(n, edges, positions)


def enumerate_shortest(rag, source):
    """All-simple-paths exhaustion; exponential, fine for n <= 10."""
    n = rag.n_nodes
    adj = {k: [] for k in range(n)}
    for i, j, c in zip(rag.edge_i.tolist(), rag.edge_j.tolist(), rag.edge_cost.tolist()):
        adj[i].append((j, c))
        adj[j].append((i, c))
    best = np.full(n, np.inf)
    best[source] = 0.0

    def walk(u, cost, seen):
        for v, c in adj[u]:
            if v in seen:
                continue
            nc = cost + c
            if nc < best[v]:
                best[v] = nc
            walk(v, nc, seen | {v})

    walk(source, 0.0, {source})
    return best


def floyd_warshall(rag):
    n = rag.n_nodes
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for i, j, c in zip(rag.edge_i, rag.edge_j, rag.edge_cost):
        d[i, j] = d[j, i] = min(d[i, j], c)
    for k in range(n):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    return d


def brute_constrained(rag, st, ed, must_pass):
    """Min over visiting orders of chained pairwise shortest paths (revisits
    allowed through the all-pairs distances)."""
    d = floyd_warshall(rag)
    best = np.inf
    for perm in itertools.permutations(must_pass):
        stops = [st, *perm, ed]
        cost = sum(d[a, b] for a, b in zip(stops, stops[1:]))
        best = min(best, cost)
    return best


def random_simplified(seed, n_lo=3, n_hi=8):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_lo, n_hi + 1))
    rng.uniform(0, 100, size=(n, 3))     # once the positions: keeps each seed's costs
    costs = rng.uniform(0.05, 2.0, size=(n, n))
    costs = 0.5 * (costs + costs.T)
    np.fill_diagonal(costs, 0.0)
    return SimplifiedGraph(
        members=np.arange(n, dtype=np.int64),
        costs=costs,
        trees=np.full((n, n), -1),
        near=np.zeros((n, n), dtype=bool),
    )


def brute_tsp(sg):
    n = len(sg.members)
    best = np.inf
    for perm in itertools.permutations(range(1, n - 1)):
        best = min(best, path_cost([0, *perm, n - 1], sg.costs))
    return best


class TestDijkstra:
    def test_triangle(self):
        rag = make_rag(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 3.0)])
        (dist,), (pred,) = _shortest_paths(rag, [0])
        assert dist[2] == pytest.approx(2.0)
        assert path_from_predecessors(pred, 0, 2) == [0, 1, 2]

    def test_single_node(self):
        rag = make_rag(1, [])
        (dist,), _ = _shortest_paths(rag, [0])
        assert dist[0] == 0.0

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_enumeration(self, seed):
        rag = random_rag(seed)
        source = seed % rag.n_nodes
        (dist,), _ = _shortest_paths(rag, [source])
        ref = enumerate_shortest(rag, source)
        assert np.allclose(dist, ref, equal_nan=True)

    @pytest.mark.parametrize("seed", range(10))
    def test_triangle_property(self, seed):
        rag = random_rag(seed + 50)
        (dist,), _ = _shortest_paths(rag, [0])
        for i, j, c in zip(rag.edge_i, rag.edge_j, rag.edge_cost):
            if np.isfinite(dist[j]):
                assert dist[i] <= dist[j] + c + 1e-12
            if np.isfinite(dist[i]):
                assert dist[j] <= dist[i] + c + 1e-12

    def test_equal_cost_tie_prefers_smaller_predecessor(self):
        rag = make_rag(4, [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)])
        _, (pred,) = _shortest_paths(rag, [0])
        assert pred[3] == 1

    @pytest.mark.parametrize("seed", range(20))
    def test_predecessor_is_smallest_tight_neighbor(self, seed):
        rag = random_rag(seed + 900, tie_free=False)
        source = seed % rag.n_nodes
        ref = enumerate_shortest(rag, source)
        _, (pred,) = _shortest_paths(rag, [source])
        for v in range(rag.n_nodes):
            nbr, cost = neighbors(rag, v)
            tight = [int(u) for u, c in zip(nbr, cost) if ref[u] + c == ref[v]]
            reached = v != source and np.isfinite(ref[v])
            expected = min(tight) if reached and tight else -1
            assert pred[v] == expected, v

    @pytest.mark.parametrize("seed", range(20))
    def test_zero_cost_ties_give_an_acyclic_tight_tree(self, seed):
        rng = np.random.default_rng(seed + 700)
        n = int(rng.integers(4, 12))
        edges = [(i, j, float(rng.integers(0, 3)))
                 for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        rag = make_rag(n, edges or [(0, 1, 0.0)])
        (dist,), _ = _shortest_paths(rag, [0])
        assert np.array_equal(dist, enumerate_shortest(rag, 0))
        for v in np.flatnonzero(np.isfinite(dist))[1:]:
            route = shortest_path_baseline(rag, 0, int(v))
            assert len(set(route.nodes)) == len(route.nodes)
            assert route.total_cost == dist[v]

    def test_predecessor_cycle_raises(self):
        with pytest.raises(InvariantError, match="cycle"):
            path_from_predecessors(np.array([1, 0, -1, -1]), 3, 0)


class TestBaseline:
    def test_route_shape(self):
        rag = make_rag(3, [(0, 1, 1.0), (1, 2, 1.0)])
        route = shortest_path_baseline(rag, 0, 2)
        assert route.nodes == [0, 1, 2]
        assert route.total_cost == pytest.approx(2.0)
        assert np.allclose(route.polyline.points, rag.centroids[[0, 1, 2]])

    def test_invalid_source(self):
        rag = make_rag(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError, match="node 5 outside graph"):
            shortest_path_baseline(rag, 5, 0)

    def test_unreachable_end_raises(self):
        rag = make_rag(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(InfeasibleError, match="unreachable"):
            shortest_path_baseline(rag, 0, 3)

    def test_zero_cost_edge_terminates(self):
        rag = make_rag(4, [(0, 1, 0.0), (1, 3, 1.0)])
        route = shortest_path_baseline(rag, 3, 0)
        assert route.nodes == [3, 1, 0]
        assert route.total_cost == 1.0
        assert route.legs[0]["cost"] == 1.0

    def test_leg_counts_its_nodes(self):
        route = shortest_path_baseline(make_rag(3, [(0, 1, 1.0), (1, 2, 1.0)]), 0, 2)
        assert route.legs == [{"pair": (0, 2), "source": "dijkstra", "n_nodes": 3,
                               "cost": 2.0}]

    @pytest.mark.parametrize("seed", range(10))
    def test_cost_scaling_preserves_argmin(self, seed):
        rag = random_rag(seed + 200, tie_free=True)
        (dist,), _ = _shortest_paths(rag, [0])
        target = int(np.argmax(np.where(np.isfinite(dist), dist, -1)))
        if target == 0:
            return
        base = shortest_path_baseline(rag, 0, target)
        scaled = Rag(
            node_ids=rag.node_ids,
            centroids=rag.centroids,
            counts=rag.counts,
            edge_i=rag.edge_i,
            edge_j=rag.edge_j,
            edge_cost=rag.edge_cost * 7.0,
            edge_faces=rag.edge_faces,
        )
        again = shortest_path_baseline(scaled, 0, target)
        assert again.nodes == base.nodes
        assert again.total_cost == pytest.approx(7.0 * base.total_cost)


class TestConstrainedExact:
    def test_empty_must_pass_reduces_to_baseline(self):
        rag = random_rag(7)
        (dist,), _ = _shortest_paths(rag, [0])
        target = int(np.argmax(np.where(np.isfinite(dist), dist, -1)))
        base = shortest_path_baseline(rag, 0, target)
        exact = constrained_dijkstra_exact(rag, 0, target, [])
        assert exact.total_cost == pytest.approx(base.total_cost)
        assert exact.nodes == base.nodes

    def test_path_graph_with_one_stop(self):
        rag = make_rag(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        route = constrained_dijkstra_exact(rag, 0, 3, [1])
        assert route.total_cost == pytest.approx(3.0)
        assert route.nodes == [0, 1, 2, 3]

    def test_star_detour_needs_revisit(self):
        rag = make_rag(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
        route = constrained_dijkstra_exact(rag, 1, 2, [3])
        assert route.total_cost == pytest.approx(4.0)
        assert route.nodes == [1, 0, 3, 0, 2]

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_order_enumeration(self, seed):
        rng = np.random.default_rng(seed + 1000)
        rag = random_rag(seed + 1000, n_lo=4, n_hi=8, p=0.6)
        n = rag.n_nodes
        st, ed = 0, n - 1
        k = int(rng.integers(1, 4))
        interior = [v for v in range(n) if v not in (st, ed)]
        must = list(rng.choice(interior, size=min(k, len(interior)), replace=False))
        ref = brute_constrained(rag, st, ed, must)
        if not np.isfinite(ref):
            with pytest.raises(InfeasibleError):
                constrained_dijkstra_exact(rag, st, ed, must)
            return
        route = constrained_dijkstra_exact(rag, st, ed, must)
        assert route.total_cost == pytest.approx(ref, abs=1e-9)
        assert route.nodes[0] == st and route.nodes[-1] == ed
        assert set(must).issubset(route.nodes)

    def test_limit_enforced(self):
        rag = make_rag(25, [(i, i + 1, 1.0) for i in range(24)])
        with pytest.raises(ValueError, match="exact-solver limit"):
            constrained_dijkstra_exact(rag, 0, 24, list(range(1, 22)))

    def test_unreachable_must_pass_raises(self):
        rag = make_rag(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(InfeasibleError):
            constrained_dijkstra_exact(rag, 0, 1, [2])


def largest_near_cost(rag, sg):
    """The largest finite shortest-path cost between two distinct near
    members, 0 when there is none."""
    dist, _ = _shortest_paths(rag, sg.members)
    sp = dist[:, sg.members]
    return sp[sg.near & np.isfinite(sp) & ~np.eye(len(sg.members), dtype=bool)].max(initial=0.0)


def assert_near_costs_normalized(rag, sg):
    """Each stored near, reachable pair costs its shortest-path cost from
    its lower member divided by the largest finite near cost, or 0 when
    that is 0."""
    dist, _ = _shortest_paths(rag, sg.members)
    sp = dist[:, sg.members]
    store = np.triu(sg.near & np.isfinite(sp), 1)
    largest = largest_near_cost(rag, sg)
    want = sp[store] / largest if largest > 0 else np.zeros(np.count_nonzero(store))
    assert sg.costs[store].tobytes() == want.tobytes()


class TestSimplifiedGraph:
    def three_node_rag(self):
        positions = np.array([[0.0, 0, 0], [30.0, 0, 0], [75.0, 0, 0]])
        return make_rag(3, [(0, 1, 5.0), (1, 2, 10.0)], positions)

    def three_node_instance(self):
        return build_simplified_graph(self.three_node_rag(), 0, 2, [1], delta=50.0)

    def test_near_pair_normalized_cost(self):
        rag = self.three_node_rag()
        sg = build_simplified_graph(rag, 0, 2, [1], delta=50.0)
        assert largest_near_cost(rag, sg) == 10.0
        assert_near_costs_normalized(rag, sg)
        assert sg.costs[0, 1] == pytest.approx(0.5)

    def test_near_pair_at_normalizer_is_one(self):
        sg = self.three_node_instance()
        assert sg.costs[1, 2] == pytest.approx(1.0)

    def test_far_pair_distance_ratio(self):
        sg = self.three_node_instance()
        assert sg.costs[0, 2] == pytest.approx(75.0 / 50.0)

    def test_all_near_equal_costs_normalize_to_one(self):
        positions = np.array([[0.0, 0, 0], [10.0, 0, 0], [5.0, 8.0, 0]])
        rag = make_rag(3, [(0, 1, 4.0), (1, 2, 4.0), (0, 2, 4.0)], positions)
        sg = build_simplified_graph(rag, 0, 2, [1], delta=50.0)
        off_diag = sg.costs[~np.eye(3, dtype=bool)]
        assert np.allclose(off_diag, 1.0)

    def test_near_unreachable_pair_penalized(self):
        positions = np.array([[0.0, 0, 0], [30.0, 0, 0]])
        rag = make_rag(2, [], positions)
        sg = build_simplified_graph(rag, 0, 1, [], delta=50.0)
        assert sg.costs[0, 1] == pytest.approx(30.0 / 50.0 + 1.0)

    def test_zero_normalizer_degenerates_to_zero(self):
        positions = np.array([[0.0, 0, 0], [10.0, 0, 0]])
        rag = make_rag(2, [(0, 1, 0.0)], positions)
        sg = build_simplified_graph(rag, 0, 1, [], delta=50.0)
        assert largest_near_cost(rag, sg) == 0.0
        assert_near_costs_normalized(rag, sg)
        assert sg.costs[0, 1] == 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_near_reachable_never_exceeds_far(self, seed):
        rag = random_rag(seed + 400, n_lo=5, n_hi=10, p=0.55)
        n = rag.n_nodes
        interior = list(range(1, n - 1))
        rng = np.random.default_rng(seed)
        k = int(rng.integers(0, min(3, len(interior)) + 1))
        must = list(rng.choice(interior, size=k, replace=False)) if k else []
        sg = build_simplified_graph(rag, 0, n - 1, must, delta=60.0)
        m = len(sg.members)
        positions = rag.centroids[sg.members]
        diff = positions[:, None] - positions[None, :]
        eucl = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        off = ~np.eye(m, dtype=bool)
        reachable = sg.trees[:, sg.members] >= 0
        near_cached = sg.near & reachable & off
        far = (eucl > 60.0) & off
        assert np.all(sg.costs[near_cached] <= 1.0 + 1e-12)
        if far.any():
            assert sg.costs[far].min() > 1.0

    @pytest.mark.parametrize("seed", range(20))
    def test_costs_mirror_the_lower_members_row(self, seed):
        # Summed in opposite directions, the two shortest-path costs of a
        # pair can differ in the last bit; the matrix takes the lower row's.
        rag = random_rag(seed + 700, n_lo=6, n_hi=10, p=0.5)
        n = rag.n_nodes
        sg = build_simplified_graph(rag, 0, n - 1, list(range(1, n - 1)), delta=1e6)
        assert np.array_equal(sg.costs, sg.costs.T)
        assert_near_costs_normalized(rag, sg)
        largest = largest_near_cost(rag, sg)
        for m in range(n):
            (dist,), _ = _shortest_paths(rag, [int(sg.members[m])])
            for k in range(m + 1, n):
                if np.isfinite(dist[sg.members[k]]):
                    assert sg.costs[m, k] == dist[sg.members[k]] / largest

    def test_cached_paths_cover_near_reachable_pairs_only(self):
        sg = self.three_node_instance()
        assert sg.near.tolist() == [[True, True, False], [True, True, True],
                                    [False, True, True]]
        assert path_from_predecessors(sg.trees[0], 0, 1) == [0, 1]
        assert path_from_predecessors(sg.trees[1], 1, 2) == [1, 2]
        # A near pair without a path has no tree path either.
        positions = np.array([[0.0, 0, 0], [30.0, 0, 0], [60.0, 0, 0]])
        rag = make_rag(3, [(0, 1, 5.0)], positions)
        sg = build_simplified_graph(rag, 0, 2, [1], delta=50.0)
        assert sg.near[1, 2] and sg.trees[1, 2] == -1 and sg.trees[2, 1] == -1

    def test_degenerate_endpoints_rejected(self):
        rag = make_rag(3, [(0, 1, 1.0), (1, 2, 1.0)])
        with pytest.raises(ValueError, match="distinct"):
            build_simplified_graph(rag, 1, 1, [], delta=50.0)

    def test_symmetry_enforced_by_type(self):
        with pytest.raises(InvariantError, match="symmetric"):
            SimplifiedGraph(
                members=np.arange(2),
                costs=np.array([[0.0, 1.0], [2.0, 0.0]]),
                trees=np.full((2, 2), -1),
                near=np.zeros((2, 2), dtype=bool),
            )


class TestSolveTsp:
    def test_no_must_pass(self):
        sg = random_simplified(0, n_lo=2, n_hi=2)
        assert solve_tsp(sg) == [0, 1]

    def test_collinear_chain_orders_monotonically(self):
        n = 6
        x = np.linspace(0.0, 50.0, n)
        costs = np.abs(x[:, None] - x[None, :]) / 50.0
        sg = SimplifiedGraph(
            members=np.arange(n),
            costs=costs,
            trees=np.full((n, n), -1),
            near=np.zeros((n, n), dtype=bool),
        )
        assert solve_tsp(sg) == list(range(n))

    @pytest.mark.parametrize("seed", range(30))
    def test_tour_within_bounds_of_optimum(self, seed):
        sg = random_simplified(seed)
        order = solve_tsp(sg)
        assert order[0] == 0 and order[-1] == len(sg.members) - 1
        assert sorted(order) == list(range(len(sg.members)))
        got = path_cost(order, sg.costs)
        opt = brute_tsp(sg)
        assert got >= opt - 1e-9
        assert got <= 1.3 * opt + 1e-9

    @pytest.mark.parametrize("seed", range(15))
    def test_refinement_never_worsens(self, seed, monkeypatch):
        sg = random_simplified(seed + 500)
        with monkeypatch.context() as patch:
            patch.setattr(route_module, "_two_opt", lambda path, cost: list(path))
            raw = solve_tsp(sg)
        refined = _two_opt(raw, sg.costs)
        assert refined == solve_tsp(sg)
        assert path_cost(refined, sg.costs) <= path_cost(raw, sg.costs) + 1e-12

    def test_deterministic(self):
        sg = random_simplified(33)
        assert solve_tsp(sg) == solve_tsp(sg)

    @pytest.mark.parametrize("chunk", range(4))
    def test_matches_dummy_node_construction(self, chunk, monkeypatch):
        # 4 x 300 matrices with n in 3..24; every third one has costs in
        # {0, 1, 2}, so ties between candidate pairs are common.
        for seed in range(300 * chunk, 300 * (chunk + 1)):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 25))
            if seed % 3 == 0:
                costs = rng.integers(0, 3, size=(n, n)).astype(float)
            else:
                costs = rng.uniform(0.0, 2.0, size=(n, n))
            costs = np.triu(costs, 1)
            sg = SimplifiedGraph(
                members=np.arange(n, dtype=np.int64),
                costs=costs + costs.T,
                trees=np.full((n, n), -1),
                near=np.zeros((n, n), dtype=bool),
            )
            reference = dummy_node_path(sg.costs)
            assert solve_tsp(sg) == _two_opt(reference, sg.costs), seed
            with monkeypatch.context() as patch:
                patch.setattr(route_module, "_two_opt", lambda path, cost: list(path))
                assert solve_tsp(sg) == reference, seed


def crossing_rag():
    """Two equal-cost routes between nodes 0 and 5 (0-1-4-5 and 0-2-3-5),
    so the smallest-predecessor tree from 0 takes 0-2-3-5 while the tree
    from 5 takes 5-4-1-0; node 6 hangs off 5 and node 7 off 0."""
    edges = [(0, 1, 1.0), (1, 4, 1.0), (4, 5, 1.0), (0, 2, 1.0), (2, 3, 1.0),
             (3, 5, 1.0), (5, 6, 1.0), (0, 7, 1.0)]
    positions = np.zeros((8, 3))
    positions[:, 0] = np.arange(8) * 10.0
    return make_rag(8, edges, positions)


def leg_nodes(route):
    """Each leg's node sequence, cut from the route at the junctions."""
    out, at = [], 0
    for leg in route.legs:
        out.append(route.nodes[at : at + leg["n_nodes"]])
        at += leg["n_nodes"] - 1
    return out


class TestExpandTour:
    def test_far_leg_walks_the_tree_of_its_start(self):
        rag = crossing_rag()
        # Members [6, 0, 5, 7]; every pair is farther apart than delta.
        sg = build_simplified_graph(rag, 6, 7, [0, 5], delta=1.0)
        route = expand_tour(rag, [0, 2, 1, 3], sg)
        assert [leg["source"] for leg in route.legs] == ["dijkstra"] * 3
        for leg, seq in zip(route.legs, leg_nodes(route)):
            a, b = leg["pair"]
            assert seq == path_from_predecessors(_shortest_paths(rag, [a])[1][0], a, b)
        assert leg_nodes(route)[1] == [5, 4, 1, 0]

    def test_near_leg_toured_downward_is_reversed(self):
        rag = crossing_rag()
        sg = build_simplified_graph(rag, 6, 7, [0, 5], delta=1000.0)
        up = expand_tour(rag, [0, 1, 2, 3], sg)
        down = expand_tour(rag, [0, 2, 1, 3], sg)
        assert all(leg["source"] == "cached" for leg in up.legs + down.legs)
        assert leg_nodes(up)[1] == [0, 2, 3, 5]
        assert down.legs[1]["pair"] == (5, 0)
        assert leg_nodes(down)[1] == [5, 3, 2, 0]

    def test_two_adjacent_endpoints(self):
        positions = np.array([[0.0, 0, 0], [10.0, 0, 0]])
        rag = make_rag(2, [(0, 1, 1.0)], positions)
        sg = build_simplified_graph(rag, 0, 1, [], delta=50.0)
        route = expand_tour(rag, solve_tsp(sg), sg)
        assert route.nodes == [0, 1]
        assert np.allclose(route.polyline.points, positions)
        assert route.legs[0]["source"] == "cached"

    def test_cached_sequence_passthrough(self):
        positions = np.zeros((4, 3))
        positions[:, 0] = [0.0, 10.0, 20.0, 30.0]
        rag = make_rag(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], positions)
        sg = build_simplified_graph(rag, 0, 3, [2], delta=100.0)
        route = expand_tour(rag, solve_tsp(sg), sg)
        assert route.nodes == [0, 1, 2, 3]
        assert all(leg["source"] == "cached" for leg in route.legs)
        assert route.total_cost == pytest.approx(3.0)

    def test_straight_line_fallback_flagged(self):
        positions = np.array([[0.0, 0, 0], [200.0, 0, 0]])
        rag = make_rag(2, [], positions)
        sg = build_simplified_graph(rag, 0, 1, [], delta=50.0)
        route = expand_tour(rag, [0, 1], sg)
        assert route.legs[0]["source"] == "straight"
        assert route.nodes == [0, 1]
        assert route.legs[0]["cost"] == 0.0
        assert route.total_cost == 0.0

    def test_legs_carry_their_realized_cost(self):
        positions = np.zeros((4, 3))
        positions[:, 0] = [0.0, 10.0, 20.0, 30.0]
        rag = make_rag(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0)], positions)
        sg = build_simplified_graph(rag, 0, 3, [2], delta=100.0)
        route = expand_tour(rag, solve_tsp(sg), sg)
        assert [leg["cost"] for leg in route.legs] == [3.0, 4.0]
        assert route.total_cost == 7.0

    def test_junctions_not_duplicated(self):
        positions = np.zeros((5, 3))
        positions[:, 0] = [0.0, 10.0, 20.0, 30.0, 40.0]
        rag = make_rag(
            5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)], positions
        )
        sg = build_simplified_graph(rag, 0, 4, [2], delta=500.0)
        route = expand_tour(rag, solve_tsp(sg), sg)
        assert route.nodes == [0, 1, 2, 3, 4]
        for a, b in zip(route.nodes, route.nodes[1:]):
            assert a != b


class TestExactnessDominance:
    @pytest.mark.parametrize("seed", range(15))
    def test_exact_no_worse_than_tsp_pipeline(self, seed):
        rag = random_rag(seed + 300, n_lo=5, n_hi=9, p=0.7)
        n = rag.n_nodes
        (dist,), _ = _shortest_paths(rag, [0])
        if not np.isfinite(dist[n - 1]):
            return
        rng = np.random.default_rng(seed)
        interior = [v for v in range(1, n - 1) if np.isfinite(dist[v])]
        if not interior:
            return
        must = list(rng.choice(interior, size=min(2, len(interior)), replace=False))
        try:
            exact = constrained_dijkstra_exact(rag, 0, n - 1, must)
        except InfeasibleError:
            return
        sg = build_simplified_graph(rag, 0, n - 1, must, delta=1e6)
        tour = expand_tour(rag, solve_tsp(sg), sg)
        assert exact.total_cost <= tour.total_cost + 1e-9
