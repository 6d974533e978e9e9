"""Acceptance gate: ten primary criteria, one test per criterion.

`pytest -v` emits exactly one pass/fail line per criterion.  Every oracle here
is self-contained (exhaustive enumeration, brute force, or direct geometry)
and independent of the library code it checks.
"""

import itertools
import os
import time

import numpy as np
import pytest
from scipy import ndimage

from boweltrack import parallel
from boweltrack.config import TrackingConfig
from boweltrack.metrics import evaluate, resample_polyline
from boweltrack.phantom import PhantomSpec, generate_phantom
from boweltrack.pipeline import ARTIFACTS, run_baseline, run_track
from boweltrack.rag import Rag, build_rag, load_rag
from boweltrack.route import (
    SimplifiedGraph,
    _shortest_paths,
    build_simplified_graph,
    expand_tour,
    solve_tsp,
)
from boweltrack.sampling import distance_transform, sample_must_pass
from boweltrack.supervoxel import LabelVolume, slic_supervoxels
from boweltrack.volume_io import Polyline, Volume, save_polyline, save_volume
from oracles import constrained_dijkstra_exact, curve_to_curve_distance, neighbors, path_cost


def report(criterion, detail):
    print(f"criterion {criterion:02d} PASS - {detail}")


# ---------------------------------------------------------------- graph oracles


def make_rag(n, edges, positions=None):
    if positions is None:
        positions = np.stack([np.arange(n, dtype=np.float64)] * 3, axis=1)
    ei = np.array([min(a, b) for a, b, _ in edges], dtype=np.int64)
    ej = np.array([max(a, b) for a, b, _ in edges], dtype=np.int64)
    return Rag(
        node_ids=np.arange(n, dtype=np.int64),
        centroids=np.asarray(positions, dtype=np.float64),
        counts=np.ones(n, dtype=np.int64),
        edge_i=ei,
        edge_j=ej,
        edge_cost=np.array([c for *_, c in edges], dtype=np.float64),
        edge_faces=np.ones(len(edges), dtype=np.int64),
    )


def random_connected_graph(rng, n, extra=0.3):
    edges = {}
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges[(u, v)] = float(rng.uniform(0.1, 2.0))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra:
                edges[(u, v)] = float(rng.uniform(0.1, 2.0))
    return [(u, v, c) for (u, v), c in edges.items()]


def enumerate_shortest(n, edges, source):
    """All-simple-paths enumeration; infinity where no path exists."""
    adj = {v: [] for v in range(n)}
    for u, v, c in edges:
        adj[u].append((v, c))
        adj[v].append((u, c))
    best = np.full(n, np.inf)
    best[source] = 0.0

    def walk(u, cost, seen):
        for v, c in adj[u]:
            if v in seen:
                continue
            if cost + c < best[v]:
                best[v] = cost + c
            walk(v, cost + c, seen | {v})

    walk(source, 0.0, {source})
    return best


def floyd_warshall(n, edges):
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v, c in edges:
        dist[u, v] = dist[v, u] = min(dist[u, v], c)
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return dist


def brute_constrained(n, edges, v_st, v_ed, must_pass):
    """Minimum over must-pass visiting orders of chained shortest paths;
    legs themselves may revisit nodes freely."""
    dist = floyd_warshall(n, edges)
    best = np.inf
    for order in itertools.permutations(must_pass):
        seq = [v_st, *order, v_ed]
        cost = sum(dist[a, b] for a, b in zip(seq, seq[1:]))
        best = min(best, cost)
    return best


# -------------------------------------------------------------------- criteria


def test_criterion_01_dijkstra_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for seed in range(30):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 11))
        edges = random_connected_graph(rng, n)
        rag = make_rag(n, edges)
        source = int(rng.integers(0, n))
        (dist,), _ = _shortest_paths(rag, [source])
        oracle = enumerate_shortest(n, edges, source)
        assert np.allclose(dist, oracle, rtol=0, atol=1e-9), f"seed {seed}"
        checked += n
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    report(1, f"30 graphs, {checked} node costs equal enumeration, {elapsed:.2f}s")


def test_criterion_02_constrained_dijkstra_oracle_equivalence():
    start = time.perf_counter()
    for seed in range(30):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(3, 9))
        edges = random_connected_graph(rng, n)
        rag = make_rag(n, edges)
        v_st, v_ed = rng.choice(n, size=2, replace=False)
        k = int(rng.integers(0, min(3, n - 1) + 1))
        pool = [v for v in range(n) if v != v_st]
        must_pass = [int(v) for v in rng.choice(pool, size=k, replace=False)]
        route = constrained_dijkstra_exact(rag, int(v_st), int(v_ed), must_pass)
        oracle = brute_constrained(n, edges, int(v_st), int(v_ed), must_pass)
        assert route.total_cost == pytest.approx(oracle, abs=1e-9), f"seed {seed}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"
    report(2, f"30 graphs with <=3 must-pass equal order brute force, {elapsed:.2f}s")


def test_criterion_03_edt_oracle_equivalence():
    start = time.perf_counter()
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        mask = (rng.random((12, 12, 12)) < 0.55).astype(np.uint8)
        vol = Volume(mask, (1.0, 1.0, 1.0))
        dist = distance_transform(vol, vol.like(np.zeros(mask.shape)), 1.0)
        squared = np.rint(dist.data ** 2).astype(np.int64)

        # O(n^2) oracle: nearest background voxel, volume border counts as
        # background one voxel out (same geometry the transform defines).
        padded = np.pad(mask, 1)
        bg = np.argwhere(padded == 0)
        fg = np.argwhere(padded == 1)
        brute = np.zeros_like(squared)
        for vox in fg:
            d = vox - bg
            brute[tuple(vox - 1)] = int(np.min(np.einsum("ij,ij->i", d, d)))
        assert np.array_equal(squared, brute), f"seed {seed}"
        assert np.array_equal(dist.data, np.sqrt(brute).astype(np.float32)), f"seed {seed}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
    report(3, f"20 random 12^3 masks, exact squared distances, {elapsed:.2f}s")


def brute_tsp_optimum(costs):
    n = len(costs)
    best = np.inf
    for perm in itertools.permutations(range(1, n - 1)):
        order = [0, *perm, n - 1]
        best = min(best, path_cost(order, costs))
    return best


def test_criterion_04_tsp_quality_band():
    start = time.perf_counter()
    worst = 1.0
    for seed in range(30):
        rng = np.random.default_rng(4000 + seed)
        n = int(rng.integers(3, 9))
        costs = np.zeros((n, n))
        iu = np.triu_indices(n, 1)
        costs[iu] = rng.uniform(0.1, 2.0, size=len(iu[0]))
        costs += costs.T
        simplified = SimplifiedGraph(
            members=np.arange(n, dtype=np.int64),
            costs=costs,
            trees=np.full((n, n), -1),
            near=np.zeros((n, n), dtype=bool),
        )
        order = solve_tsp(simplified)
        assert order[0] == 0 and order[-1] == n - 1
        assert sorted(order) == list(range(n))
        heur = path_cost(order, costs)
        opt = brute_tsp_optimum(costs)
        assert heur >= opt - 1e-9, f"seed {seed}: beat the optimum, broken oracle"
        assert heur <= 1.3 * opt + 1e-9, f"seed {seed}: ratio {heur / opt:.3f}"
        worst = max(worst, heur / opt)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"
    report(4, f"30 graphs, tour within [1.0, 1.3] x optimum (worst {worst:.3f}), {elapsed:.2f}s")


# ------------------------------------------------------------- phantom fixtures

STRAIGHT_SPEC = PhantomSpec(dims=(64, 28, 28), spacing=(2.0, 2.0, 2.0),
                            inner_radius=12.0, bends=0, touch_pairs=0, seed=3)
BENT_SPEC = PhantomSpec(dims=(80, 64, 24), spacing=(2.0, 2.0, 2.0),
                        bends=1, touch_pairs=0, seed=7)
SMALL_FOLDED_SPEC = PhantomSpec(dims=(96, 96, 24), spacing=(2.0, 2.0, 2.0),
                                bends=2, touch_pairs=1, seed=5)
ACCEPTANCE_FOLDED_SPEC = PhantomSpec(dims=(128, 128, 56), spacing=(2.0, 2.0, 2.0),
                                     bends=5, touch_pairs=3, seed=1)


@pytest.fixture(scope="module")
def phantom_cache(tmp_path_factory):
    root = tmp_path_factory.mktemp("phantoms")
    cache = {}

    def get(spec):
        key = (spec.dims, spec.bends, spec.touch_pairs, spec.seed, spec.inner_radius)
        if key not in cache:
            out = root / f"p{len(cache)}"
            out.mkdir()
            intensity, seg, gt = generate_phantom(spec)
            paths = {
                "intensity": str(out / "intensity.vol"),
                "segmentation": str(out / "segmentation.vol"),
                "gt": str(out / "gt.poly"),
            }
            save_volume(intensity, paths["intensity"])
            save_volume(seg, paths["segmentation"])
            save_polyline(gt, paths["gt"])
            cache[key] = (paths, gt)
        return cache[key]

    return {"get": get, "root": root}


def phantom_config(paths, gt, out_dir, **kw):
    base = dict(
        intensity_path=paths["intensity"],
        segmentation_path=paths["segmentation"],
        gt_path=paths["gt"],
        start=tuple(gt.points[0]),
        end=tuple(gt.points[-1]),
        output_dir=str(out_dir),
    )
    base.update(kw)
    return TrackingConfig(**base)


def test_criterion_05_exactness_dominance(phantom_cache):
    cases = [
        (STRAIGHT_SPEC, dict(theta_d=20.0)),
        (SMALL_FOLDED_SPEC, dict(theta_d=30.0)),
    ]
    details = []
    for k, (spec, coarse) in enumerate(cases):
        paths, gt = phantom_cache["get"](spec)
        out = phantom_cache["root"] / f"dominance{k}"
        config = phantom_config(paths, gt, out, **coarse)
        result = run_track(config)
        must_pass = result.must_pass
        assert len(must_pass) <= 15, f"coarse thresholds left {len(must_pass)} peaks"
        # Fair cost comparison requires every leg realized in the graph.
        assert all(leg["source"] != "straight" for leg in result.route.legs)
        masked = load_rag(os.path.join(config.output_dir, ARTIFACTS["masked_rag"]))
        v_st, v_ed = result.route.nodes[0], result.route.nodes[-1]
        exact = constrained_dijkstra_exact(masked, v_st, v_ed, must_pass.node_ids)
        assert exact.total_cost <= result.route.total_cost + 1e-9, (
            f"{spec.bends} bends: exact {exact.total_cost} > "
            f"pipeline {result.route.total_cost}"
        )
        details.append(
            f"|Vmp|={len(must_pass)} exact {exact.total_cost:.4f} "
            f"<= tsp {result.route.total_cost:.4f}"
        )
    report(5, "; ".join(details))


def test_criterion_06_folded_phantom_contrast(phantom_cache):
    start = time.perf_counter()
    paths, gt = phantom_cache["get"](ACCEPTANCE_FOLDED_SPEC)
    root = phantom_cache["root"]
    baseline = run_baseline(phantom_config(paths, gt, root / "c6_baseline"))
    proposed = run_track(phantom_config(paths, gt, root / "c6_proposed"))
    elapsed = time.perf_counter() - start

    gap = proposed.report.recall - baseline.report.recall
    assert proposed.report.recall >= 85.0, f"proposed recall {proposed.report.recall:.1f}"
    assert proposed.report.precision >= 85.0, f"proposed precision {proposed.report.precision:.1f}"
    assert gap >= 30.0, (
        f"recall gap {gap:.1f}pp (baseline {baseline.report.recall:.1f}, "
        f"proposed {proposed.report.recall:.1f})"
    )
    assert proposed.report.curve_to_curve <= 6.0, (
        f"curve-to-curve {proposed.report.curve_to_curve:.2f}mm"
    )
    assert elapsed < 300.0, f"took {elapsed:.0f}s, budget 300s"
    report(6, f"recall {baseline.report.recall:.1f}% -> {proposed.report.recall:.1f}% "
              f"(gap {gap:.1f}pp), c2c {proposed.report.curve_to_curve:.2f}mm, "
              f"{elapsed:.0f}s")


def test_criterion_07_straight_tube_sanity(phantom_cache):
    paths, gt = phantom_cache["get"](STRAIGHT_SPEC)
    root = phantom_cache["root"]
    baseline = run_baseline(phantom_config(paths, gt, root / "c7_baseline"))
    proposed = run_track(phantom_config(paths, gt, root / "c7_proposed"))
    floor = 0.95 * gt.arc_length()
    for name, rep in (("baseline", baseline.report), ("proposed", proposed.report)):
        assert rep.recall >= 95.0, f"{name} recall {rep.recall:.1f}"
        assert rep.precision >= 95.0, f"{name} precision {rep.precision:.1f}"
        assert rep.max_len_no_error >= floor, (
            f"{name} error-free length {rep.max_len_no_error:.1f} < {floor:.1f}"
        )
    report(7, f"both methods >=95/95, error-free length >= {floor:.0f}mm")


def test_criterion_08_simplified_cost_suite():
    # Near reachable pair: path cost 5 at distance 30 <= delta, M = 10 -> 0.5.
    # Far pair: distance 75 > delta 50 -> 75 / 50 = 1.5.
    rag = make_rag(
        3,
        [(0, 1, 5.0), (1, 2, 10.0)],
        positions=[[0.0, 0.0, 0.0], [30.0, 0.0, 0.0], [75.0, 0.0, 0.0]],
    )
    simplified = build_simplified_graph(rag, 0, 2, [1], delta=50.0)
    assert simplified.costs[0, 1] == 0.5
    assert simplified.costs[0, 2] == 1.5
    # M is the largest finite near cost: the (1, 2) path, 10 -> 10 / 10.
    assert simplified.costs[1, 2] == 10.0 / 10.0

    # All pairs within delta and every path cost equal to M -> every near cost
    # is the normalization boundary 1.0, strictly below any far-pair cost.
    complete = make_rag(
        4,
        [(a, b, 1.0) for a in range(4) for b in range(a + 1, 4)],
        positions=[[0, 0, 0], [10, 0, 0], [0, 10, 0], [10, 10, 0]],
    )
    uniform = build_simplified_graph(complete, 0, 3, [1, 2], delta=50.0)
    off_diag = uniform.costs[~np.eye(4, dtype=bool)]
    assert np.all(off_diag == 1.0)

    for seed in range(20):
        rng = np.random.default_rng(8000 + seed)
        n = int(rng.integers(4, 9))
        edges = random_connected_graph(rng, n)
        positions = rng.uniform(0, 100, size=(n, 3))
        rag = make_rag(n, edges, positions=positions)
        members = [0, *range(1, n - 1), n - 1]
        delta = 60.0
        simplified = build_simplified_graph(rag, 0, n - 1, members[1:-1], delta=delta)
        centroids = rag.centroids[simplified.members]
        eucl = np.linalg.norm(centroids[:, None] - centroids[None, :], axis=2)
        off = ~np.eye(n, dtype=bool)
        near = off & (eucl <= delta)
        far = off & (eucl > delta)
        assert np.all(simplified.costs[near] <= 1.0 + 1e-12), f"seed {seed}"
        if far.any():
            assert np.min(simplified.costs[far]) > 1.0, f"seed {seed}"
    report(8, "cost-branch examples exact (0.5 / 1.5 / all-1.0); near <= 1 < far on 20 instances")


def test_criterion_09_track_determinism(phantom_cache, monkeypatch):
    # Every artifact but the timed diagnostics; the second run spreads the
    # per-voxel kernels over three processes.
    names = [ARTIFACTS[key] for key in ("wall_map", "labels", "masked_rag",
                                        "distance", "must_pass", "route", "metrics")]
    specs = [STRAIGHT_SPEC, BENT_SPEC, SMALL_FOLDED_SPEC]
    for k, spec in enumerate(specs):
        paths, gt = phantom_cache["get"](spec)
        blobs = []
        for run, workers in enumerate((1, 3)):
            monkeypatch.setattr(parallel, "workers", lambda n=workers: n)
            out = phantom_cache["root"] / f"det{k}_{run}"
            run_track(phantom_config(paths, gt, out))
            blobs.append({name: (out / name).read_bytes() for name in names})
        for name in names:
            assert blobs[0][name] == blobs[1][name], (
                f"config {k}: {name} differs between 1 and 3 workers")
    report(9, "3 phantom configs, bitwise-identical artifacts across reruns on 1 and 3 workers")


def test_criterion_10_invariant_property_suites():
    rng_structure = np.ones((3, 3, 3), dtype=bool)

    # Supervoxels: exact partition, contiguous labels, connected components.
    for seed in range(20):
        rng = np.random.default_rng(10_000 + seed)
        noise = ndimage.gaussian_filter(rng.random((18, 15, 12)), 1.5)
        feature = Volume(noise, (2.0, 2.0, 2.5))
        labels = slic_supervoxels(feature, target_volume=125.0, compactness=0.01)
        counts = np.bincount(labels.data.ravel(), minlength=labels.label_count)
        assert counts.sum() == labels.data.size
        assert np.all(counts > 0)
        for lab in range(labels.label_count):
            _, n_comp = ndimage.label(labels.data == lab, structure=rng_structure)
            assert n_comp == 1, f"seed {seed}: label {lab} split into {n_comp}"

        # RAG on the same labeling: symmetric adjacency, boundary conservation.
        rag = build_rag(feature.like(np.ones(labels.dims, np.uint8)), feature, labels, 0.5)
        for i, j in zip(rag.edge_i[:50], rag.edge_j[:50]):
            nbr_i, _ = neighbors(rag, int(i))
            nbr_j, _ = neighbors(rag, int(j))
            assert int(j) in nbr_i and int(i) in nbr_j
        face_count = 0
        lab = labels.data
        for axis in range(3):
            lo = lab[tuple(slice(None, -1) if a == axis else slice(None) for a in range(3))]
            hi = lab[tuple(slice(1, None) if a == axis else slice(None) for a in range(3))]
            face_count += int((lo != hi).sum())
        assert int(rag.edge_faces.sum()) == face_count, f"seed {seed}"

    # Peak sampling: pairwise separation >= theta_d, values >= theta_v.
    theta_v, theta_d = 0.5, 3.0
    for seed in range(20):
        rng = np.random.default_rng(11_000 + seed)
        mask = (rng.random((14, 12, 10)) < 0.6).astype(np.uint8)
        vol = Volume(mask, (1.0, 1.0, 1.0))
        wall = vol.like(np.zeros(mask.shape))
        dist = distance_transform(vol, wall, 1.0)
        if dist.data.max() < theta_v:
            mask[4:9, 4:9, 4:8] = 1
            dist = distance_transform(Volume(mask, (1.0, 1.0, 1.0)), wall, 1.0)
        flat = LabelVolume(
            np.arange(mask.size, dtype=np.int64).reshape(mask.shape),
            (1.0, 1.0, 1.0), (0.0, 0.0, 0.0),
        )
        peaks = sample_must_pass(dist, flat, make_rag(mask.size, []), theta_v, theta_d)
        assert np.all(peaks.values >= theta_v)
        diff = peaks.positions[:, None] - peaks.positions[None, :]
        gaps = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        off = ~np.eye(len(peaks), dtype=bool)
        assert len(peaks) == 1 or np.all(gaps[off] >= theta_d - 1e-9), f"seed {seed}"

    # Metrics: curve-to-curve symmetry and recall monotone in tolerance.
    for seed in range(20):
        rng = np.random.default_rng(12_000 + seed)
        a = Polyline(np.cumsum(rng.uniform(0.5, 2.0, size=(30, 3)), axis=0))
        b = Polyline(np.cumsum(rng.uniform(0.5, 2.0, size=(25, 3)), axis=0))
        ar, br = resample_polyline(a, 1.0), resample_polyline(b, 1.0)
        assert curve_to_curve_distance(ar, br) == pytest.approx(
            curve_to_curve_distance(br, ar), rel=1e-12
        )
        recalls = [evaluate(a, b, tol).recall for tol in (1.0, 3.0, 8.0, 20.0)]
        assert all(r1 <= r2 + 1e-9 for r1, r2 in zip(recalls, recalls[1:])), f"seed {seed}"
    report(10, "supervoxel/RAG/peak/metric invariants hold on 20 seeds each")
