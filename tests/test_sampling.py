"""Distance transform against brute force; peak sampling rules."""

import warnings

import numpy as np
import pytest
from scipy import ndimage
from scipy.spatial import cKDTree

from boweltrack.errors import InfeasibleError, InvariantError
from boweltrack.phantom import SEG_LUMEN, PhantomSpec, generate_phantom
from boweltrack.rag import Rag
from boweltrack.sampling import (
    MustPassSet,
    _peak_candidates,
    distance_transform,
    node_map_of,
    sample_must_pass,
)
from boweltrack.supervoxel import LabelVolume
from boweltrack.volume_io import Volume
from memory import traced_peak
from oracles import must_pass_per_peak, peaks_full_ball
from stage_rule import stage_rejects


def brute_force_sq_dist(mask: np.ndarray, spacing) -> np.ndarray:
    """All-pairs squared distance to the nearest background voxel, with the
    volume border padded by one background layer."""
    sp = np.asarray(spacing, dtype=float)
    padded = np.pad(mask, 1)
    background = (np.argwhere(padded == 0) - 1) * sp
    out = np.zeros(mask.shape)
    for idx in np.argwhere(mask):
        delta = background - idx * sp
        out[tuple(idx)] = np.einsum("ij,ij->i", delta, delta).min()
    return out


def cone(center, height, coords):
    return np.maximum(0.0, height - np.linalg.norm(coords - center, axis=-1))


def unit_grid(dims, spacing=1.0):
    """Physical voxel-center coordinates, shape dims + (3,)."""
    axes = [(np.arange(n) + 0.5) * spacing for n in dims]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def interior(mask, spacing):
    """`distance_transform`'s arguments whose interior is the nonzero voxels
    of `mask`: an all-zero wall map under threshold 1.0."""
    seg = Volume(mask, spacing, (0, 0, 0))
    return seg, seg.like(np.zeros(mask.shape, dtype=np.float32)), 1.0


def graph_of(node_ids):
    """A masked graph without edges whose nodes are supervoxels `node_ids`."""
    n = len(node_ids)
    none = np.zeros(0, dtype=np.int64)
    return Rag(np.asarray(node_ids, dtype=np.int64), np.zeros((n, 3)),
               np.ones(n, dtype=np.int64), none, none, np.zeros(0), none)


def voxelwise_labels(dims, spacing):
    lab = np.arange(int(np.prod(dims)), dtype=np.int32).reshape(dims)
    lv = LabelVolume(lab, spacing, (0.0, 0.0, 0.0))
    return lv, graph_of(range(lab.size))


class TestDistanceTransform:
    def test_single_interior_voxel_anisotropic(self):
        mask = np.zeros((7, 7, 7), dtype=np.uint8)
        mask[3, 3, 3] = 1
        d = distance_transform(*interior(mask, (2.0, 3.0, 4.0)))
        assert d.data[3, 3, 3] == pytest.approx(2.0)
        off = d.data.copy()
        off[3, 3, 3] = 0
        assert np.all(off == 0)

    def test_all_interior_cube_center_reaches_padding(self):
        d = distance_transform(*interior(np.ones((5, 5, 5), dtype=np.uint8), (2.0, 2.0, 2.0)))
        assert d.data[2, 2, 2] == pytest.approx(6.0)
        assert d.data[0, 0, 0] == pytest.approx(2.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force_exactly(self, seed):
        rng = np.random.default_rng(seed)
        mask = (rng.random((12, 12, 12)) < 0.7).astype(np.uint8)
        mine = distance_transform(*interior(mask, (1.0, 1.0, 1.0))).data
        ref = brute_force_sq_dist(mask, (1.0, 1.0, 1.0))
        assert np.array_equal(np.round(mine ** 2).astype(int), ref.astype(int))
        assert np.array_equal(mine, np.sqrt(ref).astype(np.float32))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_scipy_on_anisotropic_masks(self, seed):
        rng = np.random.default_rng(100 + seed)
        mask = (rng.random((10, 9, 8)) < 0.75).astype(np.uint8)
        sp = (1.5, 2.0, 0.7)
        mine = distance_transform(*interior(mask, sp)).data
        ref = ndimage.distance_transform_edt(np.pad(mask, 1), sampling=sp)
        ref = ref[1:-1, 1:-1, 1:-1]
        ref[mask == 0] = 0
        assert np.array_equal(mine, ref.astype(np.float32))

    def test_matches_scipy_on_phantom_lumen(self):
        _, seg, _ = generate_phantom(
            PhantomSpec(dims=(80, 64, 24), bends=1, touch_pairs=0, seed=7))
        mask = (seg.data == SEG_LUMEN).astype(np.uint8)
        sp = (2.0, 1.5, 2.5)
        mine = distance_transform(*interior(mask, sp)).data
        ref = ndimage.distance_transform_edt(np.pad(mask, 1), sampling=sp)[1:-1, 1:-1, 1:-1]
        ref[mask == 0] = 0
        assert mine.tobytes() == ref.astype(np.float32).tobytes()

    def test_memory_bounded_by_volume_size(self):
        # The lumen of the phantom the supervoxel tests build: 12 % of the
        # voxels.  Only the feature transform and the output are
        # volume-sized: 2.6 float64 volumes today, 7.1 with scipy's
        # distances.
        _, seg, _ = generate_phantom(
            PhantomSpec(dims=(80, 64, 24), bends=1, touch_pairs=0, seed=7))
        lumen = (seg.data == SEG_LUMEN).astype(np.uint8)
        peak = traced_peak(distance_transform, *interior(lumen, seg.spacing))
        assert peak <= 3 * lumen.size * 8

    def test_all_zero_mask_gives_zeros(self):
        d = distance_transform(*interior(np.zeros((6, 6, 6), dtype=np.uint8), (1.0, 1.0, 1.0)))
        assert d.data.dtype == np.float32
        assert np.all(d.data == 0)

    def test_any_nonzero_code_counts_as_inside(self):
        # Codes 1, 2 and 255 are all inside; the wall map cuts the interior
        # where it reaches the threshold.
        rng = np.random.default_rng(5)
        codes = rng.choice(np.array([0, 1, 2, 255], dtype=np.uint8), (9, 8, 7))
        wall = rng.random(codes.shape).astype(np.float32)
        seg = Volume(codes, (1.0, 1.5, 2.0), (0, 0, 0))
        got = distance_transform(seg, seg.like(wall), 0.7)
        inside = ((codes != 0) & (wall < 0.7)).astype(np.uint8)
        want = distance_transform(*interior(inside, seg.spacing))
        assert 0 < inside.sum() < (codes != 0).sum()
        assert got.data.tobytes() == want.data.tobytes()


class TestPeakSampling:
    def test_single_bump_single_peak(self):
        dims = (15, 11, 11)
        coords = unit_grid(dims)
        center = np.array([7.5, 5.5, 5.5])
        data = cone(center, 5.0, coords)
        dist = Volume(data.astype(np.float64), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
        lv, graph = voxelwise_labels(dims, (1.0, 1.0, 1.0))
        mp = sample_must_pass(dist, lv, graph, 3.0, 6.0)
        assert len(mp) == 1
        assert np.allclose(mp.positions[0], center)
        assert mp.values[0] == pytest.approx(5.0)

    def test_twin_bumps_suppressed_to_lexicographically_smaller(self):
        dims = (20, 9, 9)
        coords = unit_grid(dims)
        c_low = np.array([6.5, 4.5, 4.5])
        c_high = np.array([10.5, 4.5, 4.5])
        data = np.maximum(cone(c_low, 5.0, coords), cone(c_high, 5.0, coords))
        dist = Volume(data, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
        lv, graph = voxelwise_labels(dims, (1.0, 1.0, 1.0))
        mp = sample_must_pass(dist, lv, graph, 3.0, 6.0)
        assert len(mp) == 1
        assert np.allclose(mp.positions[0], c_low)

    def test_straight_tube_peaks_hug_centerline(self):
        spec = PhantomSpec(
            dims=(64, 22, 22), inner_radius=6.0, bends=0, touch_pairs=0, seed=3
        )
        _, seg, path = generate_phantom(spec)
        dist = distance_transform(*interior((seg.data == SEG_LUMEN).astype(np.uint8), seg.spacing))
        lv, graph = voxelwise_labels(seg.dims, seg.spacing)
        mp = sample_must_pass(dist, lv, graph, 3.0, 6.0)
        assert len(mp) >= 5
        gap_to_gt, _ = cKDTree(path.points).query(mp.positions)
        assert gap_to_gt.max() <= np.sqrt(2) * max(spec.spacing) + 1e-9
        xs = np.sort(mp.positions[:, 0])
        assert np.all(np.diff(xs) >= 6.0 - 1e-9)
        assert np.all(np.diff(xs) <= 12.0 + 1e-9)

    def test_no_peaks_is_explicit_error(self):
        dims = (8, 8, 8)
        dist = Volume(np.full(dims, 0.5), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
        lv, graph = voxelwise_labels(dims, (1.0, 1.0, 1.0))
        with pytest.raises(InfeasibleError, match="theta_v"):
            sample_must_pass(dist, lv, graph, 3.0, 6.0)

    @pytest.mark.parametrize("spacing, origin", [((3.0, 3.0, 3.0), (0.0, 0.0, 0.0)),
                                                 ((1.0, 1.0, 1.0), (10.0, 0.0, 0.0))],
                             ids=["rescaled-spacing", "shifted-origin"])
    def test_labels_on_another_grid_rejected(self, spacing, origin):
        dims = (15, 11, 11)
        data = cone(np.array([7.5, 5.5, 5.5]), 5.0, unit_grid(dims))
        dist = Volume(data, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
        lv = LabelVolume(np.zeros(dims, dtype=np.int32), spacing, origin)
        with pytest.raises(ValueError, match="different grids"):
            sample_must_pass(dist, lv, graph_of([0]), 3.0, 6.0)

    def test_pruned_supervoxel_warns_and_drops(self):
        dims = (20, 9, 9)
        coords = unit_grid(dims)
        data = np.maximum(
            cone(np.array([4.5, 4.5, 4.5]), 5.0, coords),
            cone(np.array([14.5, 4.5, 4.5]), 4.0, coords),
        )
        dist = Volume(data, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
        lab = (coords[..., 0] > 9.0).astype(np.int32)
        lv = LabelVolume(lab, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
        with pytest.warns(UserWarning, match="masked-out"):
            mp = sample_must_pass(dist, lv, graph_of([1]), 3.0, 6.0)
        assert mp.pruned_count == 1
        assert len(mp) == 1
        assert mp.positions[0][0] == pytest.approx(14.5)

    def test_all_peaks_pruned_is_explicit_error(self):
        dims = (15, 11, 11)
        coords = unit_grid(dims)
        data = cone(np.array([7.5, 5.5, 5.5]), 5.0, coords)
        dist = Volume(data, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
        lab = np.zeros(dims, dtype=np.int32)
        lv = LabelVolume(lab, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
        with pytest.warns(UserWarning):
            with pytest.raises(InfeasibleError, match="masked-out"):
                sample_must_pass(dist, lv, graph_of([]), 3.0, 6.0)

    def test_same_supervoxel_peaks_collapse_keeping_highest(self):
        dims = (24, 9, 9)
        coords = unit_grid(dims)
        data = np.maximum(
            cone(np.array([6.5, 4.5, 4.5]), 4.0, coords),
            cone(np.array([16.5, 4.5, 4.5]), 5.0, coords),
        )
        dist = Volume(data, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
        lab = np.zeros(dims, dtype=np.int32)
        lv = LabelVolume(lab, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
        mp = sample_must_pass(dist, lv, graph_of([0]), 3.0, 6.0)
        assert len(mp) == 1
        assert mp.values[0] == pytest.approx(5.0)
        assert mp.positions[0][0] == pytest.approx(16.5)

    def test_node_mapping_matches_per_peak_loop(self):
        """Random smooth distance maps over blocky labelings, a random part
        of whose supervoxels are masked out: the node ids, positions,
        values and pruned count are the per-peak loop's, on 12 seeds that
        between them prune peaks and put two peaks in one node.  The
        accepted peaks come from one-voxel supervoxels, where no peak is
        pruned or shares a node."""
        pruned_seen = shared_seen = 0
        for seed in range(12):
            rng = np.random.default_rng(seed)
            dims = tuple(int(n) for n in rng.integers(10, 18, 3))
            spacing = rng.uniform(0.6, 1.6, 3)
            data = ndimage.gaussian_filter(rng.normal(size=dims), 1.5)
            dist = Volume(np.maximum(data - data.mean(), 0).astype(np.float32), spacing, (0, 0, 0))
            theta_v, theta_d = 0.0, float(rng.uniform(1.5, 3.0))
            accepted = sample_must_pass(dist, *voxelwise_labels(dims, spacing), theta_v, theta_d)
            vox = np.column_stack(np.unravel_index(accepted.node_ids, dims))

            block = rng.integers(3, 7, 3)
            cells = (np.indices(dims).T // block).T
            lab = np.ravel_multi_index(tuple(cells), tuple(cells.max(axis=(1, 2, 3)) + 1))
            lv = LabelVolume(np.unique(lab, return_inverse=True)[1].reshape(dims), spacing,
                             (0, 0, 0))
            graph = graph_of(np.flatnonzero(rng.random(lv.label_count) < 0.6))
            want_ids, want_pos, want_val, pruned = must_pass_per_peak(
                vox, accepted.positions, dist.data, lv, node_map_of(graph))
            if len(want_ids) == 0:
                with pytest.raises(InfeasibleError, match="masked-out"):
                    sample_must_pass(dist, lv, graph, theta_v, theta_d)
                continue
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                mp = sample_must_pass(dist, lv, graph, theta_v, theta_d)
            assert len(caught) == (pruned > 0)
            assert mp.node_ids.dtype == np.int64 and mp.node_ids.tolist() == want_ids.tolist()
            assert mp.positions.tobytes() == want_pos.tobytes()
            assert mp.values.dtype == np.float64 and mp.values.tobytes() == want_val.tobytes()
            assert mp.pruned_count == pruned
            pruned_seen += pruned > 0
            shared_seen += len(want_ids) + pruned < len(vox)
        assert pruned_seen and shared_seen


class TestPeakCandidates:
    """The cube-then-ball peak search finds exactly the voxels of one
    maximum filter with the whole theta_d ball."""

    @staticmethod
    def assert_matches_full_ball(data, spacing, theta_v, theta_d):
        expected = peaks_full_ball(data, spacing, theta_v, theta_d)
        got = _peak_candidates(data, np.asarray(spacing, dtype=float), theta_v, theta_d)
        assert np.array_equal(got, expected)
        return len(expected)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "spacing,theta_d",
        [((1.0, 1.0, 1.0), 4.5), ((1.0, 1.5, 2.5), 5.0), ((2.0, 2.0, 2.0), 6.0),
         ((1.0, 1.0, 3.0), 2.0)],
    )
    def test_distance_maps(self, seed, spacing, theta_d):
        rng = np.random.default_rng(seed)
        mask = (rng.random((20, 17, 14)) < 0.85).astype(np.uint8)
        dist = distance_transform(*interior(mask, spacing))
        self.assert_matches_full_ball(dist.data.astype(np.float32), spacing, 1.0, theta_d)

    @pytest.mark.parametrize("seed", range(4))
    def test_plateaus(self, seed):
        rng = np.random.default_rng(seed)
        data = np.round(ndimage.gaussian_filter(rng.random((16, 15, 13)), 2.0) * 8)
        found = self.assert_matches_full_ball(data, (1.0, 1.0, 1.5), 2.0, 3.5)
        assert found > 1
        # A constant volume is one plateau; zero outside the volume keeps it a peak.
        self.assert_matches_full_ball(np.full((9, 8, 7), 3.0), (1.0, 1.0, 1.0), 1.0, 2.5)

    @pytest.mark.parametrize("theta_d", [0.5, 1.9])
    def test_theta_d_below_spacing(self, theta_d):
        # The ball is the centre voxel alone, so every voxel >= theta_v passes.
        data = np.random.default_rng(7).random((10, 9, 8))
        found = self.assert_matches_full_ball(data, (2.0, 2.0, 2.0), 0.5, theta_d)
        assert found == int((data >= 0.5).sum())


class TestPeakInvariants:
    @pytest.mark.parametrize("seed", range(20))
    def test_separation_value_floor_determinism(self, seed):
        rng = np.random.default_rng(seed)
        mask = (rng.random((18, 18, 18)) < 0.8).astype(np.uint8)
        dist = distance_transform(*interior(mask, (1.5, 1.5, 1.5)))
        lv, graph = voxelwise_labels((18, 18, 18), (1.5, 1.5, 1.5))
        theta_v, theta_d = 1.6, 4.5
        mp = sample_must_pass(dist, lv, graph, theta_v, theta_d)
        assert np.all(mp.values >= theta_v)
        if len(mp) > 1:
            gaps = mp.positions[:, None, :] - mp.positions[None, :, :]
            sq = np.einsum("ijk,ijk->ij", gaps, gaps)
            sq[np.diag_indices(len(mp))] = np.inf
            assert np.sqrt(sq.min()) >= theta_d - 1e-9
        again = sample_must_pass(dist, lv, graph, theta_v, theta_d)
        assert np.array_equal(mp.node_ids, again.node_ids)
        assert np.array_equal(mp.positions, again.positions)

    def test_invalid_thetas_rejected(self, tmp_path):
        assert stage_rejects("sample", [0.0, 6.0], tmp_path) == (
            "theta_v must be positive, got 0.0")
        assert stage_rejects("sample", [3.0, -1.0], tmp_path) == (
            "theta_d must be positive, got -1.0")

    def test_must_pass_set_rejects_duplicates(self):
        with pytest.raises(InvariantError, match="duplicate"):
            MustPassSet(
                node_ids=np.array([3, 3]),
                positions=np.zeros((2, 3)),
                values=np.ones(2),
            )

    def test_must_pass_set_rejects_empty(self):
        with pytest.raises(InvariantError, match="empty"):
            MustPassSet(
                node_ids=np.zeros(0, dtype=int),
                positions=np.zeros((0, 3)),
                values=np.zeros(0),
            )
