"""RAG construction against a brute-force per-face boundary scan."""

import tracemalloc

import numpy as np
import pytest

from boweltrack import rag as rag_module

from boweltrack.errors import FormatError, InfeasibleError
from boweltrack.phantom import PhantomSpec, generate_phantom
from boweltrack.rag import Rag, build_rag, load_rag, save_rag
from boweltrack.ridge import meijering_response
from boweltrack.supervoxel import LabelVolume, slic_supervoxels
from boweltrack.volume_io import Volume
from oracles import build_rag_all_faces, mask_nodes, save_rag_fstrings

AXIS_STEPS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def brute_force_edges(lab: np.ndarray, wall: np.ndarray) -> dict:
    """Per-face scan with python loops: {(i, j): (mean cost, face count)}."""
    sums, cnt = {}, {}
    X, Y, Z = lab.shape
    for x in range(X):
        for y in range(Y):
            for z in range(Z):
                for dx, dy, dz in AXIS_STEPS:
                    nx, ny, nz = x + dx, y + dy, z + dz
                    if nx >= X or ny >= Y or nz >= Z:
                        continue
                    a, b = int(lab[x, y, z]), int(lab[nx, ny, nz])
                    if a == b:
                        continue
                    key = (min(a, b), max(a, b))
                    val = 0.5 * (wall[x, y, z] + wall[nx, ny, nz])
                    sums[key] = sums.get(key, 0.0) + val
                    cnt[key] = cnt.get(key, 0) + 1
    return {k: (sums[k] / cnt[k], cnt[k]) for k in sums}


def edge_table(rag) -> dict:
    """{(i, j): (cost, face count)} over the stored edges."""
    return {
        (int(i), int(j)): (float(c), int(f))
        for i, j, c, f in zip(rag.edge_i, rag.edge_j, rag.edge_cost, rag.edge_faces)
    }


def random_labeling(seed, dims=(8, 8, 8), n_labels=4):
    rng = np.random.default_rng(seed)
    while True:
        lab = rng.integers(0, n_labels, size=dims).astype(np.int32)
        if len(np.unique(lab)) == n_labels:
            break
    wall = rng.random(dims).astype(np.float32)
    lv = LabelVolume(lab, (1.5, 2.0, 2.5), (0.0, 0.0, 0.0), n_labels)
    vol = Volume(wall, (1.5, 2.0, 2.5), (0.0, 0.0, 0.0))
    return lv, vol


def blocky_labeling(dims, block=3, seed=0):
    """Supervoxel-like labels: blocks of about block^3 voxels with jittered
    borders, numbered 0..n-1, and a random float32 wall map."""
    rng = np.random.default_rng(seed)
    grid = np.indices(dims) + rng.integers(0, 2, size=(3, *dims))
    lab = np.ravel_multi_index(tuple(grid // block), tuple(d // block + 1 for d in dims))
    lab = np.unique(lab, return_inverse=True)[1].reshape(dims).astype(np.int32)
    n = int(lab.max()) + 1
    wall = rng.random(dims).astype(np.float32)
    return (LabelVolume(lab, (2.0, 2.0, 2.0), (0.0, 0.0, 0.0), n),
            Volume(wall, (2.0, 2.0, 2.0), (0.0, 0.0, 0.0)))


def inside_all(lv):
    """All-ones segmentation on the grid of `lv`."""
    return Volume(np.ones(lv.dims, dtype=np.uint8), lv.spacing, lv.origin)


def full_graph(lv, wall):
    """The graph over every supervoxel: every voxel counts as inside."""
    return build_rag(lv, wall, inside_all(lv), 0.5)


@pytest.fixture(scope="module")
def phantom_graph_inputs():
    """Labels, wall map and 0/1/2-coded segmentation of a small bent phantom."""
    spec = PhantomSpec(dims=(80, 64, 24), bends=1, touch_pairs=0, seed=7)
    intensity, seg, path = generate_phantom(spec)
    wall = meijering_response(intensity)
    labels = slic_supervoxels(wall, 216.0, 0.01)
    return labels, wall, seg, path


def plane_split(wall_value):
    lab = np.zeros((6, 5, 4), dtype=np.int32)
    lab[3:] = 1
    lv = LabelVolume(lab, (2.0, 2.0, 2.0), (0.0, 0.0, 0.0), 2)
    wall = Volume(
        np.full((6, 5, 4), wall_value, dtype=np.float32), (2.0, 2.0, 2.0), (0.0, 0.0, 0.0)
    )
    return lv, wall


class TestBuild:
    def test_plane_split_zero_map_single_zero_edge(self):
        rag = full_graph(*plane_split(0.0))
        assert rag.n_edges == 1
        assert rag.edge_cost[0] == 0.0
        assert rag.edge_faces[0] == 5 * 4

    def test_plane_split_constant_map(self):
        rag = full_graph(*plane_split(0.8))
        assert rag.n_edges == 1
        assert rag.edge_cost[0] == pytest.approx(0.8, abs=1e-7)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        lv, wall = random_labeling(seed)
        rag = full_graph(lv, wall)
        expected = brute_force_edges(lv.data, wall.data.astype(np.float64))
        got = edge_table(rag)
        assert set(got) == set(expected)
        for key, (cost, faces) in expected.items():
            assert got[key][0] == pytest.approx(cost, abs=1e-9)
            assert got[key][1] == faces

    @pytest.mark.parametrize("dims, n_labels", [
        ((8, 8, 8), 4), ((7, 6, 5), 40), ((1, 9, 7), 5), ((6, 1, 1), 3), ((5, 4, 3), 1),
    ])
    def test_edges_match_all_faces_oracle_bitwise(self, dims, n_labels):
        rng = np.random.default_rng(n_labels)
        lab = rng.integers(0, n_labels, size=dims).astype(np.int32)
        lab.flat[:n_labels] = np.arange(n_labels)
        lv = LabelVolume(lab, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), n_labels)
        wall = Volume(rng.random(dims).astype(np.float32), lv.spacing, lv.origin)
        self.assert_matches_oracle(full_graph(lv, wall), lv, wall)

    def test_edges_match_all_faces_oracle_on_phantom(self, phantom_graph_inputs):
        labels, wall, _, _ = phantom_graph_inputs
        self.assert_matches_oracle(full_graph(labels, wall), labels, wall)

    @staticmethod
    def assert_matches_oracle(rag, labels, wall):
        expected = build_rag_all_faces(labels.data, wall.data, labels.label_count)
        got = (rag.edge_i, rag.edge_j, rag.edge_cost, rag.edge_faces)
        for g, e in zip(got, expected):
            assert g.dtype == e.dtype
            assert g.tobytes() == e.tobytes()

    def test_memory_peak_bounded(self):
        # One axis's faces at a time: on 96 x 96 x 48 voxels in blocks of
        # about 27, all inside, this build peaks at 40 bytes per voxel, the
        # all-faces build (one np.unique over every face) at 114.
        lv, wall = blocky_labeling((96, 96, 48))
        seg = inside_all(lv)
        tracemalloc.start()
        try:
            build_rag(lv, wall, seg, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * lv.data.size

    def test_centroids_are_mean_physical_positions(self):
        lv, wall = random_labeling(11)
        rag = full_graph(lv, wall)
        sp = np.asarray(lv.spacing)
        for lab in range(lv.label_count):
            pos = (np.argwhere(lv.data == lab) + 0.5) * sp
            assert np.allclose(rag.centroids[lab], pos.mean(axis=0), atol=1e-9)
            assert rag.counts[lab] == len(pos)

    def test_dimension_mismatch_rejected(self):
        lv, _ = random_labeling(0)
        wall = Volume(np.zeros((4, 4, 4), dtype=np.float32), (1.5, 2.0, 2.5), (0, 0, 0))
        with pytest.raises(ValueError, match="dims"):
            full_graph(lv, wall)

    def test_spacing_mismatch_rejected(self):
        lv, _ = random_labeling(0)
        wall = Volume(np.zeros((8, 8, 8), dtype=np.float32), (1.0, 1.0, 1.0), (0, 0, 0))
        with pytest.raises(ValueError, match="spacing"):
            full_graph(lv, wall)

    def test_origin_mismatch_rejected(self):
        lv, _ = random_labeling(0)
        wall = Volume(np.zeros((8, 8, 8), dtype=np.float32), lv.spacing, (10.0, 0, 0))
        with pytest.raises(ValueError, match="origin"):
            full_graph(lv, wall)

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5, float("nan")])
    def test_fraction_outside_unit_interval_rejected(self, fraction):
        lv, wall = random_labeling(0)
        with pytest.raises(ValueError, match="min_inside_fraction"):
            build_rag(lv, wall, inside_all(lv), fraction)


class TestInvariants:
    @pytest.mark.parametrize("seed", range(20))
    def test_symmetry_and_face_conservation(self, seed):
        lv, wall = random_labeling(seed, dims=(7, 6, 5), n_labels=5)
        rag = full_graph(lv, wall)
        # symmetric adjacency view
        for i, j, cost in zip(rag.edge_i, rag.edge_j, rag.edge_cost):
            nbr_i, cost_i = rag.neighbors(int(i))
            nbr_j, cost_j = rag.neighbors(int(j))
            assert cost_i[nbr_i == j] == pytest.approx(cost)
            assert cost_j[nbr_j == i] == pytest.approx(cost)
        # total face count equals the number of 6-adjacent inter-label pairs
        total = 0
        for axis, step in enumerate(AXIS_STEPS):
            src = tuple(slice(None, -1) if s else slice(None) for s in step)
            dst = tuple(slice(1, None) if s else slice(None) for s in step)
            total += int((lv.data[src] != lv.data[dst]).sum())
        assert rag.edge_faces.sum() == total

    def test_adjacency_is_built_once(self):
        rag = full_graph(*random_labeling(4))
        assert rag.adjacency() is rag.adjacency()

    def test_zero_cost_edges_stay_stored(self):
        rag = full_graph(*plane_split(0.0))
        adj = rag.adjacency()
        assert adj.nnz == 2
        assert np.array_equal(adj.data, [0.0, 0.0])
        assert rag.neighbors(0)[0].tolist() == [1]

    @pytest.mark.parametrize("seed", range(5))
    def test_neighbors_ascend(self, seed):
        lv, wall = random_labeling(seed, dims=(7, 6, 5), n_labels=6)
        rag = full_graph(lv, wall)
        table = edge_table(rag)
        for node in range(rag.n_nodes):
            nbr, cost = rag.neighbors(node)
            assert np.all(np.diff(nbr) > 0)
            for v, c in zip(nbr.tolist(), cost.tolist()):
                assert table[(min(node, v), max(node, v))][0] == c

    def test_costs_nonnegative_finite(self):
        lv, wall = random_labeling(3)
        rag = full_graph(lv, wall)
        assert np.all(np.isfinite(rag.edge_cost))
        assert np.all(rag.edge_cost >= 0)


def random_mask(lv, seed):
    """0/1 segmentation: about 60 % of the voxels at random, plus every
    voxel of half the labels, so those labels lie wholly inside."""
    rng = np.random.default_rng(seed + 100)
    whole = rng.choice(lv.label_count, lv.label_count // 2, replace=False)
    mask = (rng.random(lv.dims) < 0.6) | np.isin(lv.data, whole)
    return Volume(mask.astype(np.uint8), lv.spacing, lv.origin)


class TestMasking:
    def assert_matches_two_step_oracle(self, labels, wall, seg, fraction, tmp_path):
        """Same bytes as the whole-volume graph masked afterwards, or the
        same refusal when no node survives."""
        binary = seg.like((seg.data != 0).astype(np.uint8))
        try:
            expected = mask_nodes(full_graph(labels, wall), binary, labels, fraction)
        except InfeasibleError:
            with pytest.raises(InfeasibleError, match="masking"):
                build_rag(labels, wall, seg, fraction)
            return None
        got = build_rag(labels, wall, seg, fraction)
        save_rag(got, tmp_path / "got.txt")
        save_rag(expected, tmp_path / "expected.txt")
        assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "expected.txt").read_bytes()
        for name in ("node_ids", "counts", "edge_i", "edge_j", "edge_faces"):
            assert getattr(got, name).dtype == getattr(expected, name).dtype, name
        return got

    @pytest.mark.parametrize("fraction", [1e-6, 0.5, 1.0])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_two_step_oracle_bytes(self, seed, fraction, tmp_path):
        lv, wall = random_labeling(seed, dims=(9, 8, 7), n_labels=6)
        got = self.assert_matches_two_step_oracle(
            lv, wall, random_mask(lv, seed), fraction, tmp_path)
        assert got is not None and got.n_edges > 0

    @pytest.mark.parametrize("fraction", [1e-6, 0.5, 1.0])
    def test_matches_two_step_oracle_bytes_on_phantom(self, phantom_graph_inputs, fraction,
                                                      tmp_path):
        labels, wall, seg, _ = phantom_graph_inputs
        got = self.assert_matches_two_step_oracle(labels, wall, seg, fraction, tmp_path)
        assert 0 < got.n_nodes < labels.label_count

    def test_full_mask_keeps_everything(self):
        lv, wall = random_labeling(2)
        kept = build_rag(lv, wall, inside_all(lv), 1.0)
        assert np.array_equal(kept.node_ids, np.arange(lv.label_count))
        TestBuild.assert_matches_oracle(kept, lv, wall)

    def test_empty_mask_raises(self):
        lv, wall = random_labeling(2)
        zeros = Volume(np.zeros(lv.dims, dtype=np.uint8), lv.spacing, lv.origin)
        with pytest.raises(InfeasibleError, match="masking"):
            build_rag(lv, wall, zeros, 0.5)

    @pytest.mark.parametrize("seed", range(8))
    def test_masking_is_a_subgraph(self, seed):
        lv, wall = random_labeling(seed, dims=(9, 8, 7), n_labels=6)
        rng = np.random.default_rng(seed + 100)
        mask = Volume(
            (rng.random(lv.dims) < 0.6).astype(np.uint8), lv.spacing, lv.origin
        )
        try:
            kept = build_rag(lv, wall, mask, 0.5)
        except InfeasibleError:
            return
        orig = edge_table(full_graph(lv, wall))
        for i, j, cost, faces in zip(
            kept.edge_i, kept.edge_j, kept.edge_cost, kept.edge_faces
        ):
            key = (int(kept.node_ids[i]), int(kept.node_ids[j]))
            assert key in orig
            assert orig[key][0] == pytest.approx(cost)
            assert orig[key][1] == faces

    @pytest.mark.parametrize("seed", range(4))
    def test_nonzero_codes_count_as_inside(self, seed, tmp_path):
        # The phantom codes wall 2 and lumen 1; both are inside.
        lv, wall = random_labeling(seed, dims=(9, 8, 7), n_labels=6)
        binary = random_mask(lv, seed)
        coded = binary.data * np.random.default_rng(seed).integers(1, 3, lv.dims)
        coded = binary.like(coded.astype(np.uint8))
        assert set(np.unique(coded.data)) == {0, 1, 2}
        save_rag(build_rag(lv, wall, binary, 0.5), tmp_path / "binary.txt")
        save_rag(build_rag(lv, wall, coded, 0.5), tmp_path / "coded.txt")
        assert (tmp_path / "binary.txt").read_bytes() == (tmp_path / "coded.txt").read_bytes()

    @pytest.mark.parametrize("spacing, origin", [((3.0, 3.0, 3.0), (0.0, 0.0, 0.0)),
                                                 ((1.5, 2.0, 2.5), (0.0, 10.0, 0.0))],
                             ids=["rescaled-spacing", "shifted-origin"])
    def test_mask_on_another_grid_rejected(self, spacing, origin):
        lv, wall = random_labeling(2)
        ones = Volume(np.ones(lv.dims, dtype=np.uint8), spacing, origin)
        with pytest.raises(ValueError, match="different grids"):
            build_rag(lv, wall, ones, 0.5)

    def test_phantom_gt_supervoxels_survive(self, phantom_graph_inputs):
        labels, wall, seg, path = phantom_graph_inputs
        kept = build_rag(labels, wall, seg, 0.5)
        surviving = set(kept.node_ids.tolist())
        sp = np.asarray(labels.spacing)
        for point in path.points:
            idx = np.minimum(
                (point / sp).astype(int), np.asarray(labels.dims) - 1
            )
            assert int(labels.data[tuple(idx)]) in surviving


class TestSerialization:
    def test_round_trip(self, tmp_path):
        lv, wall = random_labeling(4)
        rag = full_graph(lv, wall)
        out = tmp_path / "graph.txt"
        save_rag(rag, out)
        back = load_rag(out)
        assert np.array_equal(back.node_ids, rag.node_ids)
        assert np.allclose(back.centroids, rag.centroids, atol=0)
        assert np.array_equal(back.counts, rag.counts)
        assert np.array_equal(back.edge_i, rag.edge_i)
        assert np.array_equal(back.edge_j, rag.edge_j)
        assert np.allclose(back.edge_cost, rag.edge_cost, atol=0)
        assert np.array_equal(back.edge_faces, rag.edge_faces)

    def test_round_trip_preserves_original_ids_after_masking(self, tmp_path):
        lv, wall = random_labeling(6)
        mask = np.zeros(lv.dims, dtype=np.uint8)
        mask[lv.data != 0] = 1
        kept = build_rag(lv, wall, Volume(mask, lv.spacing, lv.origin), 0.5)
        out = tmp_path / "masked.txt"
        save_rag(kept, out)
        back = load_rag(out)
        assert np.array_equal(back.node_ids, kept.node_ids)
        assert 0 not in back.node_ids

    @staticmethod
    def assert_writer_matches_oracle(rag, tmp_path):
        save_rag(rag, tmp_path / "got.txt")
        save_rag_fstrings(rag, tmp_path / "expected.txt")
        assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "expected.txt").read_bytes()

    def test_writer_matches_fstring_oracle_on_phantom(self, phantom_graph_inputs, tmp_path):
        labels, wall, seg, _ = phantom_graph_inputs
        self.assert_writer_matches_oracle(full_graph(labels, wall), tmp_path)
        self.assert_writer_matches_oracle(build_rag(labels, wall, seg, 0.5), tmp_path)

    def test_writer_blocks_join_seamlessly(self, tmp_path, monkeypatch):
        lv, wall = random_labeling(5, dims=(7, 6, 5), n_labels=12)
        rag = full_graph(lv, wall)
        for rows in (1, 5, rag.n_nodes, rag.n_edges + 1):
            monkeypatch.setattr(rag_module, "SAVE_ROWS", rows)
            self.assert_writer_matches_oracle(rag, tmp_path)

    def test_writer_matches_fstring_oracle_on_extreme_values(self, tmp_path):
        rag = Rag(
            node_ids=np.array([0, 2**31, 2**40 + 3, 7], dtype=np.int64),
            centroids=np.array([[-0.0, -1.5, -1e-300], [-123.456, 1 / 3, 2.0**60],
                                [5e-324, -2.5e-310, 1e308], [0.1, -0.2, 0.3]]),
            counts=np.array([1, 2**31 + 1, 5, 12], dtype=np.int64),
            edge_i=np.array([0, 0, 1, 2], dtype=np.int64),
            edge_j=np.array([1, 2, 3, 3], dtype=np.int64),
            edge_cost=np.array([0.0, 5e-324, 1e308, 2.2250738585072014e-308]),
            edge_faces=np.array([1, 3, 2**33, 4], dtype=np.int64),
        )
        self.assert_writer_matches_oracle(rag, tmp_path)
        back = load_rag(tmp_path / "got.txt")
        assert back.node_ids.tolist() == rag.node_ids.tolist()
        assert back.centroids.tobytes() == rag.centroids.tobytes()
        assert back.edge_cost.tobytes() == rag.edge_cost.tobytes()

    def test_malformed_line_rejected(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("node 0 1.0 2.0 3.0 5\nwedge 0 1\n")
        with pytest.raises(FormatError, match="unrecognized"):
            load_rag(bad)

    @pytest.mark.parametrize("text,lineno", [
        ("node x 1 0 0 1\n", 1),
        ("node 0 1 0 0 1\nnode 1 2 0 0 1\nedge 0 1 cheap 1\n", 3),
    ], ids=["node", "edge"])
    def test_non_numeric_token_rejected(self, tmp_path, text, lineno):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        with pytest.raises(FormatError, match=rf"bad\.txt:{lineno}: bad number"):
            load_rag(bad)

    @pytest.mark.parametrize("node,message", [
        ("node 0 nan 0 0 1", "centroids must be finite"),
        ("node 0 0 -inf 0 1", "centroids must be finite"),
        ("node 0 0 0 0 -3", "at least one voxel"),
        ("node 0 0 0 0 0", "at least one voxel"),
    ])
    def test_bad_node_rejected(self, tmp_path, node, message):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"{node}\nnode 1 1 0 0 1\nedge 0 1 0.5 1\n")
        with pytest.raises(FormatError, match=message):
            load_rag(bad)

    def test_undecodable_byte_rejected(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"node 0 0 0 0 1\nnode 1 1 0 0 1\n\xff")
        with pytest.raises(FormatError, match=r"bad\.txt: not a text graph file"):
            load_rag(bad)

    def test_duplicate_edge_rejected(self, tmp_path):
        # Both orientations name the same pair.  Kept, the adjacency matrix
        # would sum them: a walk over 0-1-2 (Dijkstra cost 2) cost 3.
        for dup in ("edge 0 1 1.0 1", "edge 1 0 1.0 1"):
            bad = tmp_path / "bad.txt"
            bad.write_text("node 0 0 0 0 1\nnode 1 1 0 0 1\nnode 2 2 0 0 1\n"
                           f"edge 0 1 1.0 1\nedge 1 2 1.0 1\n{dup}\n")
            with pytest.raises(FormatError, match="duplicate edge"):
                load_rag(bad)

    def test_unknown_edge_endpoint_rejected(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("node 0 1.0 2.0 3.0 5\nedge 0 7 0.5 3\n")
        with pytest.raises(FormatError, match="unknown node"):
            load_rag(bad)
