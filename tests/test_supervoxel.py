"""Supervoxel clustering: partition/connectivity audits, boundary adherence,
equivalence of every compiled part with the numpy code it replaced, the
per-cluster loop and the per-fragment connectivity loop, the kernel's build
and its sanitizer run, and memory bounds."""

import collections
import ctypes
import functools
import os
import platform
import re
import shutil
import shlex
import signal
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

from boweltrack import cli, kernel, parallel, supervoxel
from boweltrack.errors import FormatError, InvariantError
from boweltrack.phantom import PhantomSpec, generate_phantom
from boweltrack.ridge import meijering_response
from boweltrack.supervoxel import (
    LabelVolume,
    load_label_volume,
    save_label_volume,
    slic_supervoxels,
)
from boweltrack.volume_io import Volume, save_volume
from memory import range_peaks, traced_peak
from oracles import (
    assign_per_cluster,
    assign_uncovered_blocks,
    cluster_sums_bincount,
    cluster_sums_slabs,
    enforce_connectivity_per_fragment,
    merge_fragments_pairs,
    same_label_components_all_pairs,
    same_label_components_slabs,
    seed_grid_loop,
    seed_grid_slabs,
)
from stage_rule import stage_rejects


def constant_volume(dims=(60, 60, 60), spacing=(2.0, 2.0, 2.0)):
    return Volume(np.zeros(dims, dtype=np.float32), spacing, (0.0, 0.0, 0.0))


def random_feature(seed, dims=(18, 15, 12), spacing=(2.0, 2.0, 2.5)):
    rng = np.random.default_rng(seed)
    data = ndimage.gaussian_filter(rng.normal(size=dims), 1.5)
    return Volume(data.astype(np.float32), spacing, (0.0, 0.0, 0.0))


def blocky_feature(seed, dims=(18, 15, 12), block=3, levels=4):
    """Cubes of `block` voxels at random levels, at 1 mm: one cube per
    seed-grid cell when the target volume is block^3."""
    rng = np.random.default_rng(seed)
    cubes = rng.integers(0, levels, tuple(-(-n // block) for n in dims)).astype(np.float32)
    data = np.kron(cubes, np.ones((block,) * 3, dtype=np.float32))
    return Volume(np.ascontiguousarray(data[: dims[0], : dims[1], : dims[2]]),
                  (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))


@functools.cache
def phantom_wall_map():
    spec = PhantomSpec(dims=(80, 64, 24), bends=1, touch_pairs=0, seed=7)
    intensity, _, _ = generate_phantom(spec)
    return meijering_response(intensity)


def member_counts(lv: LabelVolume) -> np.ndarray:
    return np.bincount(lv.data.ravel(), minlength=lv.label_count)


def assert_each_label_connected(lv: LabelVolume):
    """Flood-fill audit: every label is a single 26-connected component."""
    structure = np.ones((3, 3, 3), dtype=bool)
    for lab in range(lv.label_count):
        _, n = ndimage.label(lv.data == lab, structure=structure)
        assert n == 1, f"label {lab} splits into {n} components"


class TestConstantFeature:
    def test_count_matches_target_budget(self):
        lv = slic_supervoxels(constant_volume(), 216.0, 0.01)
        expected = (60 * 2) ** 3 / 216.0
        assert 0.7 * expected <= lv.label_count <= 1.3 * expected

    def test_clusters_near_cubic(self):
        lv = slic_supervoxels(constant_volume(), 216.0, 0.01)
        # nominal edge is 3 voxels (6 mm step at 2 mm spacing); allow one
        # voxel of grid rounding
        for lab in range(0, lv.label_count, 101):
            where = np.nonzero(lv.data == lab)
            spans = [w.max() - w.min() + 1 for w in where]
            assert max(spans) <= 4

    def test_partition_and_connectivity(self):
        lv = slic_supervoxels(constant_volume((30, 30, 30)), 216.0, 0.01)
        assert member_counts(lv).sum() == 30**3
        assert member_counts(lv).min() >= 1
        assert_each_label_connected(lv)


class TestBoundaryAdherence:
    def test_plane_split_straddle_at_most_one_voxel(self):
        data = np.zeros((40, 20, 20), dtype=np.float32)
        data[20:] = 1.0
        lv = slic_supervoxels(Volume(data, (2.0, 2.0, 2.0), (0.0, 0.0, 0.0)), 216.0, 0.01)
        for lab in range(lv.label_count):
            xs = np.nonzero(lv.data == lab)[0]
            if xs.min() < 20 <= xs.max():
                left = int((xs < 20).sum())
                right = int((xs >= 20).sum())
                depth = 20 - xs.min() if left <= right else xs.max() - 19
                assert depth <= 1

    def test_wall_map_supervoxels_mostly_pure(self):
        spec = PhantomSpec(dims=(80, 64, 24), bends=1, touch_pairs=0, seed=7)
        intensity, _, _ = generate_phantom(spec)
        wall = meijering_response(intensity)
        lv = slic_supervoxels(wall, 216.0, 0.01)
        wall_side = wall.data >= 0.5
        counts = member_counts(lv).astype(float)
        on_wall = np.bincount(
            lv.data.ravel(), weights=wall_side.ravel(), minlength=lv.label_count
        )
        frac = on_wall / counts
        purity = np.maximum(frac, 1.0 - frac)
        assert (purity >= 0.9).mean() >= 0.95


class TestInvariants:
    @pytest.mark.parametrize("seed", range(20))
    def test_partition_connectivity_randomized(self, seed):
        lv = slic_supervoxels(random_feature(seed), 125.0, 0.01)
        counts = member_counts(lv)
        assert counts.sum() == lv.data.size
        assert counts.min() >= 1
        assert lv.data.min() == 0
        assert lv.data.max() == lv.label_count - 1
        assert_each_label_connected(lv)

    def test_deterministic_on_random_feature(self):
        a = slic_supervoxels(random_feature(5), 125.0, 0.01)
        b = slic_supervoxels(random_feature(5), 125.0, 0.01)
        assert np.array_equal(a.data, b.data)
        assert a.label_count == b.label_count

    def test_deterministic_on_phantom_wall_map(self):
        wall = phantom_wall_map()
        a = slic_supervoxels(wall, 216.0, 0.01)
        b = slic_supervoxels(wall, 216.0, 0.01)
        assert np.array_equal(a.data, b.data)


def signed_zero_feature(seed, dims=(15, 13, 11)):
    """A smooth random feature whose values near 0 are 0.0 or -0.0 by their
    sign: the extremes of `np.minimum.at` and `np.maximum.at` keep the zero
    that came last."""
    feature = random_feature(seed, dims)
    zero = np.copysign(np.float32(0.0), feature.data)
    return feature.like(np.where(np.abs(feature.data) < 0.02, zero, feature.data))


# Each compiled part of slic_supervoxels and the numpy code it replaced.
NUMPY_PARTS = {
    "_seed_grid": seed_grid_slabs,
    "_assign": assign_per_cluster,
    "_cluster_sums": cluster_sums_slabs,
    "_same_label_components": same_label_components_slabs,
    "_merge_fragments": merge_fragments_pairs,
}


def same_bits(a, b) -> bool:
    """Equal arrays of one dtype and shape, bit for bit, in equal nestings
    of tuples and lists; other values equal, or the same object."""
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same_bits, a, b))
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    return a is b or a == b


def check_parts(patch) -> collections.Counter:
    """Patch each compiled part to run its numpy code too, on copies of the
    arguments, and to assert that both return the same bits and leave the
    arguments the same; returns the count of calls per part."""
    calls = collections.Counter()

    def checked(name, part, oracle):
        def both(*args):
            copies = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
            want = oracle(*copies)
            got = part(*args)
            assert same_bits(got, want), name
            assert same_bits(list(args), copies), name
            calls[name] += 1
            return got
        return both

    for name, oracle in NUMPY_PARTS.items():
        patch.setattr(supervoxel, name, checked(name, getattr(supervoxel, name), oracle))
    return calls


def oracle_slic(monkeypatch, feature, target_volume, compactness):
    """slic_supervoxels with the one-point-at-a-time seed grid and the numpy
    code of every other compiled part, the per-cluster assignment loop
    among them."""
    with monkeypatch.context() as patch:
        for name, oracle in NUMPY_PARTS.items():
            patch.setattr(supervoxel, name, oracle)
        patch.setattr(supervoxel, "_seed_grid", seed_grid_loop)
        return slic_supervoxels(feature, target_volume, compactness)


EQUIVALENCE_CASES = {
    # name: (feature, target_volume mm^3, compactness)
    **{
        f"random-{seed}": (random_feature(seed), 125.0, 0.01)
        for seed in range(4)
    },
    "random-compact": (random_feature(9), 125.0, 0.3),
    # Every voxel ties between the clusters that cover it.
    "constant": (constant_volume((20, 17, 13)), 216.0, 0.01),
    # Few feature levels: many equal distances between clusters.
    "quantized": (
        Volume(np.random.default_rng(3).integers(0, 3, (14, 12, 10)).astype(np.float32),
               (1.0, 1.0, 1.0), (0, 0, 0)),
        27.0, 0.3,
    ),
    "anisotropic": (random_feature(11, dims=(16, 14, 9), spacing=(1.0, 1.3, 2.0)), 22.0, 0.5),
    # 17, 13 and 11 voxels are no multiple of the 3-voxel step.
    "ragged-dims": (random_feature(12, dims=(17, 13, 11), spacing=(2.0, 2.0, 2.0)), 216.0, 0.01),
    # Windows reach past every border of these small volumes.
    "tiny": (random_feature(13, dims=(5, 5, 5), spacing=(1.0, 1.0, 1.0)), 8.0, 0.1),
    "tiny-flat": (random_feature(14, dims=(7, 4, 5), spacing=(1.0, 1.0, 1.0)), 9.0, 0.05),
    # Thick slices: the first step's windows leave 24 voxels uncovered.
    "thick-slice": (random_feature(0, dims=(16, 16, 8), spacing=(3.0, 3.0, 0.5)), 44.0, 0.01),
    # One cube per grid cell: most clusters stop moving after step 2.
    "blocky": (blocky_feature(21), 27.0, 0.05),
    # Loose clusters drift: some voxels leave their cluster's window.
    "drifting": (random_feature(16), 125.0, 0.001),
    # Many voxels hold 0.0 or -0.0.
    "signed-zero": (signed_zero_feature(18), 125.0, 0.01),
    # Two rows, which have no central difference, and odd dims.
    "thin": (random_feature(19, dims=(2, 13, 11), spacing=(4.0, 1.0, 1.3)), 64.0, 0.05),
}


class TestOracleEquivalence:
    """The compiled slic gives the labels of the per-cluster loop and the
    numpy code of its other parts, and each part the bits of its numpy
    code."""

    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_labels_match_per_cluster_loop(self, monkeypatch, case):
        feature, target_volume, compactness = EQUIVALENCE_CASES[case]
        got = slic_supervoxels(feature, target_volume, compactness)
        expected = oracle_slic(monkeypatch, feature, target_volume, compactness)
        assert np.array_equal(got.data, expected.data)
        assert got.label_count == expected.label_count

    def test_phantom_wall_map_matches_per_cluster_loop(self, monkeypatch):
        wall = phantom_wall_map()
        got = slic_supervoxels(wall, 216.0, 0.01)
        expected = oracle_slic(monkeypatch, wall, 216.0, 0.01)
        assert np.array_equal(got.data, expected.data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES) + ["phantom"])
    def test_every_part_matches_numpy(self, monkeypatch, case, dtype):
        """Every call slic_supervoxels makes of a compiled part: the phantom
        wall map holds -0.0, and the thick-slice case has uncovered
        voxels."""
        if case == "phantom":
            feature, target_volume, compactness = phantom_wall_map(), 216.0, 0.01
        else:
            feature, target_volume, compactness = EQUIVALENCE_CASES[case]
        feature = feature.like(feature.data.astype(dtype))
        calls = check_parts(monkeypatch)
        slic_supervoxels(feature, target_volume, compactness)
        steps = supervoxel.SLIC_ITERATIONS
        assert calls == {"_seed_grid": 1, "_assign": steps, "_cluster_sums": steps - 1,
                         "_same_label_components": 1, "_merge_fragments": 1}

    @staticmethod
    def assert_seed_grid_matches_loop(feature, target_volume):
        step = target_volume ** (1.0 / 3.0)
        got = supervoxel._seed_grid(feature, step)
        expected = seed_grid_loop(feature, step)
        for a, b in zip(got, expected):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_seed_grid_matches_loop(self, case):
        feature, target_volume, _ = EQUIVALENCE_CASES[case]
        self.assert_seed_grid_matches_loop(feature, target_volume)

    # The numpy seed search's gradient slabs of 1 and 2 rows, and one slab
    # holding every row; the 2-row volume has no row with a central
    # difference.
    @pytest.mark.parametrize("rows", [1, 2, "all"])
    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES) + ["two-rows"])
    def test_seed_grid_any_slab_height(self, case, rows):
        if case == "two-rows":
            feature, target_volume = random_feature(15, dims=(2, 12, 10),
                                                    spacing=(4.0, 1.0, 1.0)), 27.0
        else:
            feature, target_volume, _ = EQUIVALENCE_CASES[case]
        step = target_volume ** (1.0 / 3.0)
        rows = feature.dims[0] + 1 if rows == "all" else rows
        got = supervoxel._seed_grid(feature, step)
        assert same_bits(seed_grid_slabs(feature, step, rows), got)
        self.assert_seed_grid_matches_loop(feature, target_volume)


def step_states(monkeypatch, assign, feature, target_volume, compactness):
    """(labels, distances) after each assignment step of slic_supervoxels
    run with `assign`."""
    states = []

    def record(*args):
        assign(*args)
        states.append((args[7].copy(), args[8].copy()))

    with monkeypatch.context() as patch:
        patch.setattr(supervoxel, "_assign", record)
        patch.setattr(supervoxel, "_seed_grid", seed_grid_loop)
        slic_supervoxels(feature, target_volume, compactness)
    return states


class TestIncrementalAssignment:
    """The labels and distances of every assignment step are the
    per-cluster loop's, whatever the buffers held before the step."""

    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_every_step_matches_per_cluster_loop(self, monkeypatch, case):
        feature, target_volume, compactness = EQUIVALENCE_CASES[case]
        got = step_states(monkeypatch, supervoxel._assign, feature, target_volume, compactness)
        expected = step_states(monkeypatch, assign_per_cluster, feature, target_volume,
                               compactness)
        assert len(got) == len(expected) == supervoxel.SLIC_ITERATIONS
        for (labels, dist), (oracle_labels, oracle_dist) in zip(got, expected):
            assert labels.tobytes() == oracle_labels.tobytes()
            assert dist.tobytes() == oracle_dist.tobytes()

    @staticmethod
    def assign_step(assign, args, state=None):
        best_label = parallel.shared_array(args[0].shape, np.int32)
        best_dist = parallel.shared_array(args[0].shape, np.float64)
        if state is not None:
            best_label[...], best_dist[...] = state
        assign(*args, best_label, best_dist)
        return best_label, best_dist

    @pytest.mark.parametrize("seed", range(12))
    def test_step_after_moves_matches_per_cluster_loop(self, seed):
        """One step into buffers holding a previous step's state, after
        some clusters moved by one ulp, some by whole voxels and some
        changed feature or compactness, the rest not at all.  Centers on
        voxel centers and a three-level feature make many distances tie."""
        rng = np.random.default_rng(seed)
        dims, step = (12, 11, 10), 3.0
        feat = rng.integers(0, 3, dims).astype(np.float32)
        axis_pos = [np.arange(n) + 0.5 for n in dims]
        grid = np.meshgrid(*(np.arange(1.5, n, step) for n in dims), indexing="ij")
        centers = np.stack(grid, axis=-1).reshape(-1, 3)
        n = len(centers)
        cluster_feat = rng.integers(0, 3, n).astype(np.float64)
        cluster_m = rng.choice([0.3, 1.0, 3.0], n)
        args = [feat, axis_pos, centers, cluster_feat, cluster_m, step, 1.5 * step]
        state = self.assign_step(supervoxel._assign, args)
        assert np.all(state[0] >= 0)

        kind = rng.integers(0, 5, n)
        axis = rng.integers(0, 3, n)
        ulp = kind == 1
        centers[ulp, axis[ulp]] = np.nextafter(centers[ulp, axis[ulp]], np.inf)
        moved = kind == 2
        centers[moved, axis[moved]] += rng.choice([-1.0, 1.0], np.count_nonzero(moved))
        cluster_feat[kind == 3] = np.nextafter(cluster_feat[kind == 3], -np.inf)
        cluster_m[kind == 4] *= 2.0
        got = self.assign_step(supervoxel._assign, args, state)
        expected = self.assign_step(assign_per_cluster, args)
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[1].tobytes() == expected[1].tobytes()


class TestFeatureDtype:
    """The loop reads the feature in the smallest float type that holds it
    exactly and widens it to float64 voxel by voxel, so the labels are those
    of the feature's float64 conversion, bit for bit."""

    @staticmethod
    def assert_same_labels(feature, target_volume, compactness):
        wide = feature.like(feature.data.astype(np.float64))
        got = slic_supervoxels(feature, target_volume, compactness)
        expected = slic_supervoxels(wide, target_volume, compactness)
        assert got.data.tobytes() == expected.data.tobytes()
        assert got.label_count == expected.label_count

    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES) + ["phantom"])
    def test_float32_matches_float64_widening(self, case):
        if case == "phantom":
            wall = phantom_wall_map()
            feature, target_volume, compactness = (
                wall.like(wall.data.astype(np.float32)), 216.0, 0.01)
        else:
            feature, target_volume, compactness = EQUIVALENCE_CASES[case]
        assert feature.data.dtype == np.float32
        self.assert_same_labels(feature, target_volume, compactness)

    # The feature extremes are found in a float type: an integer one could
    # not start from -inf and +inf.
    @pytest.mark.parametrize("dtype,high", [(np.uint8, 255), (np.uint16, 4000),
                                            (np.uint32, 2**31), (np.int64, 2**40)])
    def test_integer_feature_matches_float64(self, dtype, high):
        rng = np.random.default_rng(int(high) % 97)
        data = rng.integers(0, high, (14, 12, 10)).astype(dtype)
        self.assert_same_labels(Volume(data, (1.0, 1.0, 1.0), (0, 0, 0)), 27.0, 0.3 * high)


def anisotropic_feature(dtype, dims=(17, 13, 11)):
    """(feature, compactness): a smooth random feature on a 0.7 x 0.9 x 1.3
    mm grid, coded as `dtype`, with a compactness of a tenth of its range.
    float32 and int16 reach the loop as float32, float64 and int32 as
    float64."""
    data = ndimage.gaussian_filter(np.random.default_rng(17).normal(size=dims), 1.5)
    if np.issubdtype(dtype, np.integer):
        data = np.round(data / np.abs(data).max() * (np.iinfo(dtype).max // 2))
    data = data.astype(dtype)
    return Volume(data, (0.7, 0.9, 1.3), (0.0, 0.0, 0.0)), 0.1 * float(np.ptp(data))


def source_env():
    """The environment with this checkout's sources first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(supervoxel.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


# Generates the straight test phantom into argv[1] and tracks it, then
# prints the path of the kernel it loaded.
TRACK_SCRIPT = """
import sys
from boweltrack import kernel, pipeline
from boweltrack.config import TrackingConfig
from boweltrack.phantom import PhantomSpec, generate_phantom
from boweltrack.volume_io import save_polyline, save_volume

out = sys.argv[1]
spec = PhantomSpec(dims=(64, 28, 28), spacing=(2.0, 2.0, 2.0), inner_radius=12.0, bends=0,
                   touch_pairs=0, seed=3)
intensity, seg, gt = generate_phantom(spec)
save_volume(intensity, out + "/intensity.vol")
save_volume(seg, out + "/segmentation.vol")
save_polyline(gt, out + "/gt.poly")
pipeline.run_track(TrackingConfig(
    intensity_path=out + "/intensity.vol", segmentation_path=out + "/segmentation.vol",
    gt_path=out + "/gt.poly", start=tuple(gt.points[0]), end=tuple(gt.points[-1]),
    output_dir=out + "/track"))
print(kernel.load()._name)
"""


# Builds the kernel from the source copy argv[1] with AddressSanitizer and
# UndefinedBehaviorSanitizer, which end the process at their first error,
# and runs the tests argv[2:] on it.
SANITIZED_TESTS = """
import sys
from pathlib import Path
import pytest
from boweltrack import kernel

kernel._SOURCE = Path(sys.argv[1])
kernel._COMPILE = [*kernel._COMPILE, "-fsanitize=address,undefined",
                   "-fno-sanitize-recover=all"]
assert b"__asan_report" in Path(kernel.load()._name).read_bytes()
sys.exit(pytest.main(["-q", "--capture=sys", "-p", "no:cacheprovider", *sys.argv[2:]]))
"""


class TestKernel:
    """The compiled parts: the per-cluster loop's labels and distances bit
    for bit, on the AVX2 clone and the default one; every entry point typed
    and its arguments checked; no sanitizer error; built once and then
    loaded, into the user's cache where the package cannot be written,
    leaving one library; and a failed build that names the compiler
    command."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 7])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int16, np.int32])
    def test_every_step_matches_per_cluster_loop(self, monkeypatch, dtype, workers):
        feature, compactness = anisotropic_feature(dtype)
        monkeypatch.setattr(parallel, "workers", lambda: workers)
        got = step_states(monkeypatch, supervoxel._assign, feature, 12.0, compactness)
        expected = step_states(monkeypatch, assign_per_cluster, feature, 12.0, compactness)
        assert len(got) == len(expected) == supervoxel.SLIC_ITERATIONS
        for (labels, dist), (oracle_labels, oracle_dist) in zip(got, expected):
            assert labels.tobytes() == oracle_labels.tobytes()
            assert dist.tobytes() == oracle_dist.tobytes()

    def test_inconsistent_arguments_are_rejected(self):
        """The kernel reads and writes through raw pointers, so each entry
        point checks each length, type and memory order before it runs, and
        the kernel each label or component id it indexes with."""
        feat = np.zeros((4, 5, 6), dtype=np.float32)
        axis_pos = [np.arange(n) + 0.5 for n in feat.shape]
        centers, cluster_feat, cluster_m = np.full((2, 3), 2.0), np.zeros(2), np.ones(2)
        buffers = np.zeros(feat.shape, np.int32), np.zeros(feat.shape)
        supervoxel._assign(feat, axis_pos, centers, cluster_feat, cluster_m, 3.0, 4.5, *buffers)
        assert np.all(buffers[0] >= 0)
        bad = [
            (feat.astype(np.int32), axis_pos, centers, cluster_feat),
            (np.asfortranarray(feat), axis_pos, centers, cluster_feat),
            (feat[:3], axis_pos, centers, cluster_feat),
            (feat, [axis_pos[0][:3], *axis_pos[1:]], centers, cluster_feat),
            (feat, axis_pos, centers[:, :2], cluster_feat),
            (feat, axis_pos, centers, cluster_feat[:1]),
        ]
        for f, pos, c, cf in bad:
            with pytest.raises(InvariantError, match="cannot assign"):
                supervoxel._assign(f, pos, c, cf, cluster_m, 3.0, 4.5, *buffers)
        for label, dist in [(buffers[0], buffers[1][:3]), (buffers[0][:3], buffers[1])]:
            with pytest.raises(InvariantError, match="cannot assign"):
                supervoxel._assign(feat, axis_pos, centers, cluster_feat, cluster_m, 3.0, 4.5,
                                   label, dist)

        labels = (np.arange(feat.size) % 3 == 0).astype(np.int32).reshape(feat.shape)
        supervoxel._cluster_sums(labels, axis_pos, 2, feat)
        for lab, pos, f in [(labels.astype(np.int64), axis_pos, feat),
                            (labels[:3], axis_pos, feat),
                            (labels, axis_pos[::-1], feat),
                            (labels, axis_pos, feat[:3]),
                            (labels, axis_pos, feat.astype(np.int32)),
                            (labels, axis_pos, np.asfortranarray(feat))]:
            with pytest.raises(InvariantError, match="cannot sum"):
                supervoxel._cluster_sums(lab, pos, 2, f)
        for outside in (-1, 2):
            labels[1, 2, 3] = outside
            with pytest.raises(InvariantError, match=r"labels outside 0\.\.1"):
                supervoxel._cluster_sums(labels, axis_pos, 2, feat)
        labels[1, 2, 3] = 0

        for lab in (labels.astype(np.int64), np.asfortranarray(labels)):
            with pytest.raises(InvariantError, match="cannot find the components"):
                supervoxel._same_label_components(lab)
        comp, n_comp = supervoxel._same_label_components(labels)
        merged, expected = comp.copy(), comp.copy()
        supervoxel._merge_fragments(labels, merged, n_comp)
        merge_fragments_pairs(labels, expected, n_comp)
        assert np.array_equal(merged, expected)
        for lab, c in [(labels.astype(np.int64), comp), (np.asfortranarray(labels), comp),
                       (labels, comp.astype(np.int64)), (labels, np.asfortranarray(comp)),
                       (labels, comp.reshape(5, 4, 6)), (labels[:, :, :5].copy(), comp)]:
            with pytest.raises(InvariantError, match="cannot merge the fragments"):
                supervoxel._merge_fragments(lab, c, n_comp)
        # A component id at the count, written into the map or left by a
        # count one too small: the map is left as it was.
        outside = comp.copy()
        outside[3, 4, 0] = n_comp
        for c, n in [(outside, n_comp), (comp, n_comp - 1)]:
            kept = c.copy()
            with pytest.raises(InvariantError, match=f"component ids outside 0..{n - 1}"):
                supervoxel._merge_fragments(labels, kept, n)
            assert np.array_equal(kept, c)
        # One more component than the map holds: it has no voxel, so no
        # pass can place it.
        with pytest.raises(InvariantError, match="failed to converge"):
            supervoxel._merge_fragments(labels, comp.copy(), n_comp + 1)

        with pytest.raises(ValueError, match="axis 1 has 1 voxel"):
            supervoxel._seed_grid(Volume(feat[:, :1], (1.0, 1.0, 1.0), (0, 0, 0)), 1.0)

    def test_every_entry_point_is_typed(self):
        """ctypes passes an untyped function's arguments as ints and reads an
        int back: every function the source exports has its result type and
        one argument type per parameter."""
        source = kernel._SOURCE.read_text()
        exported = re.findall(r"^(void|int64_t) (\w+)\(([^)]*)\)", source, flags=re.M)
        assert sorted(name for _, name, _ in exported) == sorted(kernel._SIGNATURES)
        assert {"slic_assign", "ridge_hessian"} <= set(kernel._SIGNATURES)
        lib = kernel.load()
        for result, name, params in exported:
            fn = getattr(lib, name)
            assert fn.restype is (None if result == "void" else ctypes.c_int64), name
            assert len(fn.argtypes) == params.count(",") + 1, name

    @pytest.mark.skipif(platform.machine() != "x86_64" or platform.libc_ver()[0] != "glibc",
                        reason="the AVX2 clone is built for x86-64 glibc only")
    def test_assignment_has_an_avx2_clone(self):
        assert b"slic_assign.avx2" in Path(kernel.load()._name).read_bytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_default_clone_matches_per_cluster_loop(self, monkeypatch, source_copy, dtype):
        """The assignment built with no AVX2 clone, as for a CPU, compiler
        or C library without one."""
        source = source_copy.read_text()
        clones = 'target_clones("avx2", "default")'
        assert source.count(clones) == 1
        source_copy.write_text(source.replace(clones, "unused"))
        lib = Path(kernel.load()._name)
        assert lib.parent == source_copy.parent / "__pycache__"
        assert b"slic_assign.avx2" not in lib.read_bytes()
        feature, compactness = anisotropic_feature(dtype)
        got = step_states(monkeypatch, supervoxel._assign, feature, 12.0, compactness)
        expected = step_states(monkeypatch, assign_per_cluster, feature, 12.0, compactness)
        assert same_bits(got, expected)

    def test_missing_compiler_is_named(self, monkeypatch, source_copy):
        monkeypatch.setattr(kernel, "_COMPILE", ["/nonexistent/cc", "-O2"])
        with pytest.raises(OSError, match="cannot compile the C kernel: "
                                          "/nonexistent/cc -O2 .*No such file"):
            kernel.load()

    def test_compiler_error_output_is_named(self, monkeypatch, source_copy):
        monkeypatch.setattr(kernel, "_COMPILE", [*kernel._COMPILE, "-fno-such-option"])
        with pytest.raises(OSError, match=r"-fno-such-option -o .* exited with status "
                                          r"[1-9]\d*: .*no-such-option"):
            kernel.load()
        assert list((source_copy.parent / "__pycache__").iterdir()) == []

    def test_cli_reports_a_failed_build(self, monkeypatch, source_copy, tmp_path, capsys):
        wall, out = tmp_path / "wall.vol", tmp_path / "labels.vol"
        save_volume(random_feature(0), wall)
        monkeypatch.setattr(kernel, "_COMPILE", ["/nonexistent/cc"])
        assert cli.main(["slic", str(wall), str(out)]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o error: cannot compile the C kernel: /nonexistent/cc -o ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_fresh_process_loads_without_compiling(self, source_copy):
        kernel.load()
        built = list((source_copy.parent / "__pycache__").iterdir())
        assert [p.suffix for p in built] == [".so"]
        stamp = built[0].stat().st_mtime_ns
        script = "\n".join([
            "import subprocess",
            "from pathlib import Path",
            "from boweltrack import kernel",
            "def no_compiler(*args, **kwargs):",
            "    raise AssertionError('the compiler ran')",
            "subprocess.run = no_compiler",
            f"kernel._SOURCE = Path({str(source_copy)!r})",
            "kernel.load()",
        ])
        subprocess.run([sys.executable, "-c", script], env=source_env(), check=True)
        assert list((source_copy.parent / "__pycache__").iterdir()) == built
        assert built[0].stat().st_mtime_ns == stamp

    def test_edited_source_leaves_one_library(self, source_copy):
        kernel.load()
        source_copy.write_text(source_copy.read_text() + "/* edited */\n")
        kernel.load.cache_clear()
        lib = Path(kernel.load()._name)
        assert list((source_copy.parent / "__pycache__").iterdir()) == [lib]

    def test_builds_without_a_home_directory(self, monkeypatch, source_copy):
        """No $XDG_CACHE_HOME, and no home directory to put a user cache in:
        the package's __pycache__ serves."""
        def no_home():
            raise RuntimeError("Could not determine home directory.")

        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        monkeypatch.setattr(Path, "home", no_home)
        assert Path(kernel.load()._name).parent == source_copy.parent / "__pycache__"

    def test_read_only_package_builds_in_user_cache(self, tmp_path):
        """A package directory that cannot be written, as in a system-wide
        install or a read-only layer: the kernel is built into
        $XDG_CACHE_HOME/boweltrack, and a small volume is tracked."""
        package = tmp_path / "site" / "boweltrack"
        shutil.copytree(Path(supervoxel.__file__).parent, package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [sys.executable, "-c", TRACK_SCRIPT, str(tmp_path)]
        if os.geteuid() == 0:
            # Root writes any directory while it holds CAP_DAC_OVERRIDE.
            if shutil.which("setpriv") is None:
                pytest.skip("running as root, and setpriv, which drops CAP_DAC_OVERRIDE, "
                            "is not installed")
            drop = ["setpriv", "--inh-caps=-dac_override", "--bounding-set=-dac_override"]
            probe = subprocess.run([*drop, "true"], capture_output=True, text=True)
            if probe.returncode:
                pytest.skip(f"running as root, and setpriv cannot drop CAP_DAC_OVERRIDE: "
                            f"{probe.stderr.strip()}")
            cmd = [*drop, *cmd]
        env = dict(os.environ, PYTHONPATH=str(package.parent),
                   XDG_CACHE_HOME=str(tmp_path / "cache"))
        package.chmod(0o555)
        try:
            done = subprocess.run(cmd, env=env, capture_output=True, text=True)
        finally:
            package.chmod(0o755)
        assert done.returncode == 0, done.stderr
        lib = Path(done.stdout.split()[-1])
        assert list((tmp_path / "cache" / "boweltrack").iterdir()) == [lib]
        assert not (package / "__pycache__").exists()
        assert (tmp_path / "track" / "route.poly").exists()

    def test_sanitizers_find_no_error(self, tmp_path):
        """A tooling gate: built with AddressSanitizer and
        UndefinedBehaviorSanitizer, every entry point gives the bits of its
        numpy code at every call of slic on four equivalence cases, the
        thick-slice one with its uncovered voxels and the two-row one among
        them, and the connectivity step those of its oracles on the random
        labelings; the wall filter's Hessian gives scipy's bytes where each
        axis-0 row reads the 5-row axis reflected more than once, and on
        anisotropic voxels with sub-slabs of 1 and 3 rows.  gcc's libasan
        is loaded first, as it must be, into a Python that was not built
        with it."""
        cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
        version = subprocess.run([*cc, "--version"], capture_output=True, text=True).stdout
        if "Free Software Foundation" not in version:
            pytest.skip(f"the compiler {cc[0]} is not gcc")
        asan = subprocess.run([*cc, "-print-file-name=libasan.so"], capture_output=True,
                              text=True).stdout.strip()
        if not os.path.isabs(asan):
            pytest.skip(f"{cc[0]} has no libasan.so")
        copy = tmp_path / kernel._SOURCE.name
        copy.write_bytes(kernel._SOURCE.read_bytes())
        tests = [f"{__file__}::TestOracleEquivalence::test_every_part_matches_numpy"
                 f"[{case}-{dtype}]" for case in ("thick-slice", "thin", "random-0", "signed-zero")
                 for dtype in ("float32", "float64")]
        tests.append(f"{__file__}::TestConnectivityOracle::test_random_labelings")
        ridge_tests = Path(__file__).with_name("test_ridge.py")
        tests += [f"{ridge_tests}::TestSlabs::test_hessian_axis0_shorter_than_radius",
                  f"{ridge_tests}::TestSlabs::test_hessian_anisotropic_spacing"]
        env = dict(source_env(), LD_PRELOAD=asan, ASAN_OPTIONS="detect_leaks=0")
        done = subprocess.run([sys.executable, "-c", SANITIZED_TESTS, str(copy), *tests],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stdout[-4000:] + done.stderr[:4000]
        assert "49 passed" in done.stdout

    def test_source_compiles_without_warnings(self, tmp_path):
        """A tooling gate: the source is strict C99 that draws no warning.
        The flags the kernel is built with stay the fixed ones."""
        cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
        assert kernel._COMPILE == [*cc, "-O3", "-fno-math-errno", "-ffp-contract=off",
                                   "-shared", "-fPIC"]
        done = subprocess.run([*cc, "-std=c99", "-Wall", "-Wextra", "-Werror", "-O3",
                               "-fno-math-errno", "-ffp-contract=off", "-c",
                               "-o", str(tmp_path / "kernel.o"), str(kernel._SOURCE)],
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("workers", [2, 3, 7, 16])
@pytest.mark.parametrize("source", ["random", "phantom"])
def test_labels_independent_of_workers(monkeypatch, workers, source):
    """Each worker assigns one axis-0 slab; 17 rows on 3, 7 or 16 workers
    end in a shorter slab."""
    if source == "random":
        feature = random_feature(5, dims=(17, 13, 11), spacing=(2.0, 2.0, 2.0))
    else:
        feature = phantom_wall_map()
    monkeypatch.setattr(parallel, "workers", lambda: 1)
    expected = slic_supervoxels(feature, 216.0, 0.01)
    monkeypatch.setattr(parallel, "workers", lambda: workers)
    got = slic_supervoxels(feature, 216.0, 0.01)
    assert got.data.tobytes() == expected.data.tobytes()
    assert got.label_count == expected.label_count


# A 2-worker slic whose forked worker sleeps after its slab, so the tracker
# can be killed while the worker is still running.
SLOW_WORKER_SLIC = """
import time
import numpy as np
from boweltrack import parallel
from boweltrack.supervoxel import slic_supervoxels
from boweltrack.volume_io import Volume

fork_ranges = parallel.fork_ranges

def slow_fork_ranges(fn, n, size):
    def slow(lo, hi):
        fn(lo, hi)
        if lo:
            time.sleep(60)
    fork_ranges(slow, n, size)

parallel.workers = lambda: 2
parallel.fork_ranges = slow_fork_ranges
data = np.random.default_rng(0).random((24, 24, 24), dtype=np.float32)
slic_supervoxels(Volume(data, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)), 27.0, 1.0)
"""


def proc_stat(pid):
    """(state, parent pid) of a live or zombie process, None once gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rpartition(")")[2].split()
    except OSError:
        return None
    return fields[0], int(fields[1])


def running(pid) -> bool:
    stat = proc_stat(pid)
    return stat is not None and stat[0] != "Z"


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the parent-death signal and /proc are Linux's")
def test_workers_die_with_the_tracker():
    tracker = subprocess.Popen([sys.executable, "-c", SLOW_WORKER_SLIC], env=source_env())
    workers = []
    try:
        deadline = time.monotonic() + 60
        while not workers and tracker.poll() is None and time.monotonic() < deadline:
            workers = [int(p) for p in os.listdir("/proc")
                       if p.isdigit() and (proc_stat(p) or ("", 0))[1] == tracker.pid]
            time.sleep(0.01)
        assert workers, "the tracker forked no worker"
        tracker.kill()
        tracker.wait()
        deadline = time.monotonic() + 2
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not any(map(running, workers))
    finally:
        tracker.kill()
        tracker.wait()
        for pid in filter(running, workers):
            os.kill(pid, signal.SIGKILL)


def first_assignment(monkeypatch, feature, target_volume, compactness):
    """The arguments of slic_supervoxels' first assignment step, after it
    filled the label and distance buffers: copies of the arrays."""
    assign, seen = supervoxel._assign, []

    def record(*args):
        assign(*args)
        if not seen:
            seen.extend(a.copy() if isinstance(a, np.ndarray) else a for a in args)

    monkeypatch.setattr(supervoxel, "_assign", record)
    slic_supervoxels(feature, target_volume, compactness)
    return seen


def test_uncovered_voxels_take_the_nearest_cluster(monkeypatch):
    """A voxel that no window covers keeps distance +inf and takes, of all
    clusters, the lowest id minimising |f - f_i| + (m_i / step) * |x - c_i|."""
    feature, target_volume, compactness = EQUIVALENCE_CASES["thick-slice"]
    feat, axis_pos, centers, cluster_feat, cluster_m, step, _, labels, dist = first_assignment(
        monkeypatch, feature, target_volume, compactness)
    stray = np.argwhere(np.isinf(dist))
    assert len(stray) > 0
    for vox in stray:
        pos = np.array([axis_pos[a][vox[a]] for a in range(3)])
        ds = np.sqrt(((pos - centers) ** 2).sum(axis=1))
        d = np.abs(float(feat[tuple(vox)]) - cluster_feat) + (cluster_m / step) * ds
        assert labels[tuple(vox)] == np.flatnonzero(d == d.min())[0]


def test_uncovered_voxel_distance_in_norm_order():
    """The fallback's |x - c_i| is sqrt((dx*dx + dy*dy) + dz*dz), in
    `np.linalg.norm`'s order.  One voxel, at the origin, that no window
    covers and two clusters of equal feature and scale, whose offsets from
    it are a permutation of each other, so only the rounding tells them
    apart: a seeded search picks them where sqrt(dx*dx + (dy*dy + dz*dz))
    picks the other cluster."""
    rng = np.random.default_rng(0)
    for _ in range(1000):
        offset = rng.uniform(-8.0, 8.0, 3)
        centers = np.stack([offset, offset[[1, 2, 0]]])
        dx, dy, dz = centers.T
        norm = np.sqrt((dx * dx + dy * dy) + dz * dz)
        if np.argmin(norm) != np.argmin(np.sqrt(dx * dx + (dy * dy + dz * dz))):
            break
    else:
        pytest.fail("no two clusters that the association order tells apart")
    assert norm.tobytes() == np.linalg.norm(centers, axis=1).tobytes()
    feat, axis_pos = np.zeros((1, 1, 1), dtype=np.float32), [np.zeros(1)] * 3
    buffers = parallel.shared_array((1, 1, 1), np.int32), parallel.shared_array((1, 1, 1), float)
    # Scale m_i / step = 1 and no feature distance: D is the spatial term.
    supervoxel._assign(feat, axis_pos, centers, np.zeros(2), np.full(2, 3.0), 3.0, 0.1, *buffers)
    assert np.isinf(buffers[1][0, 0, 0])
    assert buffers[0][0, 0, 0] == np.argmin(norm)


def test_no_update_after_the_last_step(monkeypatch):
    """The connectivity step reads only the labels, so the last assignment
    step is followed by no update: one cluster sum per step but the last."""
    calls = []
    cluster_sums = supervoxel._cluster_sums

    def counted(*args):
        calls.append(args)
        return cluster_sums(*args)

    monkeypatch.setattr(supervoxel, "_cluster_sums", counted)
    slic_supervoxels(random_feature(0), 125.0, 0.01)
    assert len(calls) == supervoxel.SLIC_ITERATIONS - 1


def max_feature_distance_gather(flat_label, flat_feat, cluster_feat):
    """The update step's former expression: each voxel's |f - c| from a
    gather of its cluster's feature, then np.maximum.at per cluster."""
    max_df = np.zeros(len(cluster_feat))
    np.maximum.at(max_df, flat_label, np.abs(flat_feat - cluster_feat[flat_label]))
    return max_df


@pytest.mark.parametrize("seed", range(9))
def test_cluster_extremes_spread_matches_gather(seed):
    """The update step's spread, max(fmax - c, c - fmin) from the extremes
    `_cluster_sums` returns, has the gather expression's bits; an empty
    cluster reads -inf.  Features far from 0 make the differences round;
    voxels equal to their cluster's feature and empty clusters are
    included."""
    rng = np.random.default_rng(seed)
    n_clusters = int(rng.integers(1, 80))
    n_vox = int(rng.integers(1, 4000))
    offset = (0.0, 1e8, -3.7e5)[seed % 3]
    spread = (1e-6, 1.0, 1e3)[seed // 3]
    flat_label = rng.integers(0, n_clusters, n_vox)
    flat_feat = offset + spread * rng.normal(size=n_vox)
    cluster_feat = offset + spread * rng.normal(size=n_clusters)
    flat_feat[::7] = cluster_feat[flat_label[::7]]
    axis_pos = [np.arange(n_vox) + 0.5, np.array([0.5]), np.array([0.5])]
    *_, fmin, fmax = supervoxel._cluster_sums(flat_label.reshape(-1, 1, 1).astype(np.int32),
                                              axis_pos, n_clusters, flat_feat.reshape(-1, 1, 1))
    got = np.maximum(fmax - cluster_feat, cluster_feat - fmin)
    want = max_feature_distance_gather(flat_label, flat_feat, cluster_feat)
    occupied = np.bincount(flat_label, minlength=n_clusters) > 0
    assert got[occupied].tobytes() == want[occupied].tobytes()
    assert np.all(got[~occupied] == -np.inf)


@pytest.mark.parametrize("rows", [1, 3, "all"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seed", range(6))
def test_cluster_sums_match_whole_volume_bincount(seed, dtype, rows):
    """The update step's sums and feature extremes, and those of its numpy
    code at any slab height, have the bits of whole-volume `np.bincount`s,
    `np.minimum.at` and `np.maximum.at`.  Features from 1e-8 to 1e8 in both
    signs make every sum depend on the order of its terms, so a kernel or a
    `np.add.at` that stopped adding in voxel order would show."""
    rng = np.random.default_rng(seed)
    dims = tuple(int(n) for n in rng.integers(2, 14, 3))
    spacing = rng.uniform(0.3, 3.0, 3)
    n_clusters = int(rng.integers(2, 60))
    # Half the clusters hold no voxel.
    ids = rng.choice(n_clusters, size=n_clusters // 2 or 1, replace=False)
    labels = ids[rng.integers(0, len(ids), dims)].astype(np.int32)
    feat = (rng.choice((-1.0, 1.0), dims) * 10.0 ** rng.uniform(-8, 8, dims)).astype(dtype)
    axis_pos = [(np.arange(n) + 0.5) * s for n, s in zip(dims, spacing)]
    got = supervoxel._cluster_sums(labels, axis_pos, n_clusters, feat)
    want = cluster_sums_bincount(labels, feat, axis_pos, n_clusters)
    assert len(got) == len(want) == 5
    assert np.array_equal(got[0], want[0])
    for a, b in zip(got[1:], want[1:]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    slabs = cluster_sums_slabs(labels, axis_pos, n_clusters, feat,
                               dims[0] + 1 if rows == "all" else rows)
    assert same_bits(slabs, got)


@pytest.mark.parametrize("dims", [(1, 9, 7), (8, 1, 5), (6, 7, 1), (1, 1, 1)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_cluster_sums_any_thin_labeling(dims, order):
    """One-voxel-thin labelings, and labels in F order, as a loaded label
    volume holds them: the sums of C-ordered labels, without the
    feature."""
    rng = np.random.default_rng(sum(dims))
    labels = rng.integers(0, 5, dims).astype(np.int32)
    axis_pos = [rng.uniform(-3.0, 3.0, n) for n in dims]
    got = supervoxel._cluster_sums(np.asarray(labels, order=order), axis_pos, 5)
    assert same_bits(got, cluster_sums_slabs(labels, axis_pos, 5, None, 1))
    assert got[2:] == (None, None, None)


def deferred_fragment_labels():
    """A fragment at the first voxel whose 26 neighbours all lie in another
    fragment: it has the lowest component id, so it waits for a second
    pass."""
    lab = np.zeros((6, 6, 6), dtype=np.int64)
    lab[:2, :2, :2] = 2     # 7-voxel fragment of label 2 ...
    lab[0, 0, 0] = 1        # ... around a 1-voxel fragment of label 1
    lab[4:, 4:, 4:] = 1     # main components, larger than the fragments
    lab[5, :4, :3] = 2
    return lab


def pre_connectivity_labels(monkeypatch, feature):
    """The labels `slic_supervoxels` hands to `_enforce_connectivity`."""
    seen = []
    enforce = supervoxel._enforce_connectivity

    def spy(labels):
        seen.append(labels.copy())
        return enforce(labels)

    monkeypatch.setattr(supervoxel, "_enforce_connectivity", spy)
    slic_supervoxels(feature, 216.0, 0.01)
    return seen[0]


def corner_contact_labels():
    """Distinct labels everywhere but one pair: (1, 0, 0) and (2, 1, 1),
    whose only contact is a cube-corner diagonal across the face between
    rows 1 and 2."""
    labels = np.arange(4 * 3 * 3).reshape(4, 3, 3)
    labels[2, 1, 1] = labels[1, 0, 0]
    return labels


def u_shape_labels():
    """Label 1 is a U whose arms, at z = 0 and z = 4, meet only in row 5;
    a label-2 voxel between them in row 0 takes the id after the
    background's, and the right arm's voxels come after both."""
    labels = np.zeros((6, 4, 5), dtype=np.int64)
    labels[:, 0, 0] = labels[:, 0, 4] = 1
    labels[5, 0, :] = 1
    labels[0, 0, 2] = 2
    return labels


class TestConnectivityOracle:
    """The compiled components and fragment merge against all 13 offset
    pairs, the numpy code (components from slabs of face links and
    corner-free diagonal links, joined across slab faces, at every slab
    height; the placement over the sorted fragment-component pairs, one
    offset at a time) and the per-fragment loop: identical arrays."""

    @staticmethod
    def assert_matches_oracle(monkeypatch, labels):
        labels = labels.astype(np.int32)
        expected_comp, expected_n = same_label_components_all_pairs(labels)
        # Slabs of 1, 2 and 3 rows, and one slab holding every row.
        for rows in (1, 2, 3, labels.shape[0] + 1):
            comp, n_comp = same_label_components_slabs(labels, rows)
            assert n_comp == expected_n
            assert np.array_equal(comp, expected_comp)
        # The labels that occur, renumbered in order to 0..N-1.
        expected_final = np.unique(enforce_connectivity_per_fragment(labels),
                                   return_inverse=True)[1].reshape(labels.shape)
        with monkeypatch.context() as patch:
            calls = check_parts(patch)
            final = supervoxel._enforce_connectivity(labels)
        assert calls == {"_same_label_components": 1, "_merge_fragments": 1}
        assert final.dtype == np.int32
        assert np.array_equal(final, expected_final)

    # Thin volumes keep the 4 values from percolating: many fragments, and
    # on (2, 30, 3) and (1, 12, 10) some seeds need deferred passes.
    @pytest.mark.parametrize("dims", [(2, 30, 3), (1, 12, 10), (2, 9, 13), (5, 7, 11)])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_labelings(self, monkeypatch, dims, seed):
        labels = np.random.default_rng(seed).integers(0, 4, size=dims)
        self.assert_matches_oracle(monkeypatch, labels)

    def test_deferred_fragment(self, monkeypatch):
        labels = deferred_fragment_labels()
        self.assert_matches_oracle(monkeypatch, labels)
        final = supervoxel._enforce_connectivity(labels.astype(np.int32))
        assert final[0, 0, 0] == final[0, 0, 1] == 0

    @pytest.mark.parametrize("dims", [(5, 4, 3), (1, 1, 1)])
    def test_constant_labeling_has_no_fragments(self, monkeypatch, dims):
        labels = np.full(dims, 3, dtype=np.int32)
        self.assert_matches_oracle(monkeypatch, labels)
        comp, n_comp = supervoxel._same_label_components(labels)
        assert n_comp == 1 and not comp.any()

    @pytest.mark.parametrize("dims", [(1, 17, 9), (13, 1, 6), (8, 11, 1)])
    def test_one_voxel_axis(self, monkeypatch, dims):
        labels = np.random.default_rng(sum(dims)).integers(0, 4, size=dims)
        self.assert_matches_oracle(monkeypatch, labels)

    @pytest.mark.parametrize("dims", [(48, 6, 4), (3, 40, 7), (5, 4, 64)])
    def test_anisotropic_dims(self, monkeypatch, dims):
        noise = ndimage.gaussian_filter(np.random.default_rng(1).normal(size=dims), 0.7)
        labels = np.digitize(noise, np.quantile(noise, [0.25, 0.5, 0.75]))
        self.assert_matches_oracle(monkeypatch, labels)

    def test_phantom_pre_connectivity_labels(self, monkeypatch):
        labels = pre_connectivity_labels(monkeypatch, phantom_wall_map())
        self.assert_matches_oracle(monkeypatch, labels)

    def test_corner_contact_across_slab_face(self, monkeypatch):
        labels = corner_contact_labels().astype(np.int32)
        self.assert_matches_oracle(monkeypatch, labels)
        for comp, n_comp in (supervoxel._same_label_components(labels),
                             same_label_components_slabs(labels, 2)):
            assert n_comp == labels.size - 1
            assert comp[1, 0, 0] == comp[2, 1, 1]

    def test_u_shape_merges_in_later_slab(self, monkeypatch):
        labels = u_shape_labels().astype(np.int32)
        self.assert_matches_oracle(monkeypatch, labels)
        for comp, n_comp in (supervoxel._same_label_components(labels),
                             same_label_components_slabs(labels, 2)):
            # Arms, background and the label-2 voxel, by lowest voxel.
            assert n_comp == 3
            assert comp[0, 0, 0] == comp[0, 0, 4] == 0
            assert comp[0, 0, 1] == 1 and comp[0, 0, 2] == 2


def memory_feature():
    data = ndimage.gaussian_filter(np.random.default_rng(0).normal(size=(96, 96, 96)), 2.0)
    return Volume(data.astype(np.float32), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))


def test_memory_bounded_by_volume_size(monkeypatch):
    """The allocation peak stays a fixed multiple of the volume's float64
    size: the assignment holds no (clusters, window) array."""
    feature = memory_feature()
    # Each iteration allocates the same; two keep the test short.  One
    # worker runs every slab in this process, where tracemalloc sees its
    # temporaries, and the label and distance buffers become ordinary
    # arrays, which it sees too.
    monkeypatch.setattr(supervoxel, "SLIC_ITERATIONS", 2)
    monkeypatch.setattr(parallel, "workers", lambda: 1)
    monkeypatch.setattr(parallel, "shared_array", np.zeros)
    peak = traced_peak(slic_supervoxels, feature, 27.0, 1.0)
    # 2.5x today, 3.3x with the numpy assignment's batches.  A new int64
    # label volume per step, a float64 coordinate volume per axis and
    # whole-volume bincounts took it to 5.5x, a float64 copy of the
    # feature to 6.6x, the whole-volume connectivity graph to 10.6x,
    # linking every equally labeled 26-neighbour pair to 25x, and one
    # (clusters, window) float64 array alone is 27x.
    assert peak <= 4.0 * feature.data.size * 8


def test_assignment_workers_memory_bounded(monkeypatch):
    """Each assignment slab, in this process or a forked worker, allocates
    at most a small fixed share of the volume's float64 size on top of what
    the process held when it started."""
    feature = memory_feature()
    monkeypatch.setattr(supervoxel, "SLIC_ITERATIONS", 2)
    monkeypatch.setattr(parallel, "workers", lambda: 2)
    # The connectivity step forks too; only the assignment is measured.
    peaks = range_peaks(monkeypatch, slic_supervoxels, feature, 27.0, 1.0,
                        measured=lambda fn: fn.__qualname__ == "_assign.<locals>.slab")
    assert len(peaks) == 2 * 2 and min(peaks) > 0
    # 0.0015x each today: the compiled loop allocates nothing, and the call
    # converts its arguments.  The numpy loop's batch temporaries took
    # 0.76-0.94x; one slab-sized float64 temporary would add 0.5x.
    assert max(peaks) <= 0.01 * feature.data.size * 8


def many_fragment_labels():
    """A 96^3 labeling of 8 values over smooth noise: many fragments."""
    noise = ndimage.gaussian_filter(np.random.default_rng(2).normal(size=(96, 96, 96)), 1.0)
    return np.digitize(noise, np.quantile(noise, np.linspace(0, 1, 9)[1:-1])).astype(np.int32)


def test_enforce_connectivity_memory_bounded():
    """Many fragments: the fragment merge holds one int32 voxel list beside
    the component map, which it overwrites with the labels."""
    labels = many_fragment_labels()
    peak = traced_peak(supervoxel._enforce_connectivity, labels)
    # Against int64 labels' size: 1.0x today.  The fragment-pair scan with
    # its Python placement took 1.4x; the numpy scan over each offset's
    # distinct pairs, merged into one running set, 2.4x; three int64
    # neighbour positions per fragment voxel, the 26 offsets' distinct keys
    # held until one concatenation, a whole-volume bincount and a second
    # label map 3.7x, and 26 concatenated offsets of all int64 keys 10.7x.
    assert peak <= 2.7 * labels.size * 8


def test_components_memory_bounded():
    """The union-find lives in the component map: nothing else the size of
    the volume is made."""
    labels = many_fragment_labels()
    peak = traced_peak(supervoxel._same_label_components, labels)
    # Against int64 labels' size: 0.5x today, the int32 map.  The numpy
    # slabs, joined across their faces, took 0.94x, and every link of
    # 16-row slabs 2.3-3.1x.
    assert peak <= 1.5 * labels.size * 8


def test_uncovered_voxels_memory_bounded(monkeypatch):
    """Thick slices and more than 10,000 clusters: the fallback for voxels
    no window covers holds no (voxels, clusters) array."""
    dims = (100, 100, 12)
    noise = ndimage.gaussian_filter(np.random.default_rng(1).normal(size=dims), (10, 10, 1))
    feature = Volume(noise.astype(np.float32), (2.0, 2.0, 5.0), (0.0, 0.0, 0.0))
    # As in test_memory_bounded_by_volume_size.
    monkeypatch.setattr(supervoxel, "SLIC_ITERATIONS", 2)
    monkeypatch.setattr(parallel, "workers", lambda: 1)
    monkeypatch.setattr(parallel, "shared_array", np.zeros)
    peak = traced_peak(slic_supervoxels, feature, 216.0, 1.0)
    # The uncovered voxels of the first step keep distance +inf.
    dist = first_assignment(monkeypatch, feature, 216.0, 1.0)[-1]
    assert np.count_nonzero(np.isinf(dist)) > 900
    assert len(supervoxel._seed_grid(feature, 216.0 ** (1.0 / 3.0))[0]) > 10_000
    # 3.7x today.  The numpy blocks of 4,096 voxels against every cluster
    # took 704x (676 MB).
    assert peak <= 4.0 * feature.data.size * 8


class TestValidation:
    def test_one_voxel_axis_rejected(self):
        # The extent checks pass; the seed grid's gradient needs 2 voxels.
        flat = Volume(np.zeros((1, 20, 20), dtype=np.float32), (10.0, 1.0, 1.0), (0, 0, 0))
        with pytest.raises(ValueError, match="axis 0 has 1 voxel"):
            slic_supervoxels(flat, 80.0, 0.01)

    def test_degenerate_grid_rejected(self):
        thin = Volume(np.zeros((40, 40, 2), dtype=np.float32), (2.0, 2.0, 2.0), (0, 0, 0))
        with pytest.raises(ValueError, match="axis 2"):
            slic_supervoxels(thin, 1000.0, 0.01)

    def test_target_smaller_than_eight_voxels_rejected(self):
        vol = constant_volume((20, 20, 20))
        with pytest.raises(ValueError, match="8 voxels"):
            slic_supervoxels(vol, 7.9 * 8.0, 0.01)

    def test_nonpositive_compactness_rejected(self, tmp_path):
        assert stage_rejects("slic", [216.0, 0.0], tmp_path) == (
            "compactness must be positive, got 0.0")

    @pytest.mark.parametrize("compactness", [np.inf, np.nan])
    def test_non_finite_compactness_rejected(self, compactness, tmp_path):
        assert stage_rejects("slic", [216.0, compactness], tmp_path) == (
            f"compactness must be finite, got {compactness}")

    def test_label_volume_rejects_gaps(self):
        data = np.zeros((4, 4, 4), dtype=np.int32)
        data[0, 0, 0] = 2
        with pytest.raises(InvariantError, match="contiguous"):
            LabelVolume(data, (1, 1, 1), (0, 0, 0))

    def test_label_volume_rejects_out_of_range(self):
        data = np.full((4, 4, 4), 64, dtype=np.int32)
        with pytest.raises(InvariantError):
            LabelVolume(data, (1, 1, 1), (0, 0, 0))

    def test_label_volume_range_checked_before_counting(self):
        # One slot per label value would be allocated by the count; a label
        # of 10^6 in 64 voxels must fail on the range, not on the count.
        data = np.zeros((4, 4, 4), dtype=np.int64)
        data[0, 0, 0] = 10**6
        with pytest.raises(InvariantError, match="0..1000000 do not fit 0..63"):
            LabelVolume(data, (1, 1, 1), (0, 0, 0))
        data[0, 0, 0] = -1
        with pytest.raises(InvariantError, match="-1..0 do not fit 0..63"):
            LabelVolume(data, (1, 1, 1), (0, 0, 0))

    def test_label_volume_rejects_float_labels(self):
        with pytest.raises(InvariantError, match="integer"):
            LabelVolume(np.zeros((4, 4, 4)), (1, 1, 1), (0, 0, 0))

    @pytest.mark.parametrize("spacing, origin", [
        ((1, 0, 1), (0, 0, 0)),
        ((1, np.nan, 1), (0, 0, 0)),
        ((1, 1, 1), (0, np.inf, 0)),
        ((1, 1, 1), (np.nan, 0, 0)),
    ])
    def test_label_volume_checks_its_grid(self, spacing, origin):
        # The grid checks are the Volume's.
        with pytest.raises(InvariantError, match="spacing|origin"):
            LabelVolume(np.zeros((4, 4, 4), dtype=np.int32), spacing, origin)

    def test_label_volume_casts_to_int32_keeping_f_order(self):
        data = np.asfortranarray(np.arange(64, dtype=np.uint32).reshape(4, 4, 4))
        lv = LabelVolume(data, (1, 1, 1), (0, 0, 0))
        assert lv.data.dtype == np.int32 and lv.data.flags.f_contiguous
        assert np.array_equal(lv.data, data) and lv.label_count == 64


class TestSerialization:
    def test_round_trip_small_label_count_uses_u16(self, tmp_path):
        lv = slic_supervoxels(constant_volume((20, 20, 20)), 216.0, 0.01)
        out = tmp_path / "labels.vol"
        save_label_volume(lv, out)
        header = out.read_bytes().split(b"\n\n", 1)[0].decode()
        assert "u16" in header
        back = load_label_volume(out)
        assert np.array_equal(back.data, lv.data)
        assert back.label_count == lv.label_count
        assert np.array_equal(back.spacing, lv.spacing)

    def test_fresh_and_loaded_labels_agree(self, tmp_path):
        fresh = slic_supervoxels(phantom_wall_map(), 216.0, 0.01)
        save_label_volume(fresh, tmp_path / "labels.vol")
        back = load_label_volume(tmp_path / "labels.vol")
        for lv in (fresh, back):
            assert lv.data.dtype == np.int32
            assert lv.spacing.dtype == lv.origin.dtype == np.float64
        assert np.array_equal(back.data, fresh.data)
        assert back.label_count == fresh.label_count
        assert np.array_equal(back.spacing, fresh.spacing)
        assert np.array_equal(back.origin, fresh.origin)

    def test_round_trip_large_label_count_uses_u32(self, tmp_path):
        n = 41 * 41 * 40
        data = np.arange(n, dtype=np.int64).reshape(41, 41, 40)
        lv = LabelVolume(data, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
        out = tmp_path / "labels.vol"
        save_label_volume(lv, out)
        header = out.read_bytes().split(b"\n\n", 1)[0].decode()
        assert "u32" in header
        back = load_label_volume(out)
        assert np.array_equal(back.data, data)
        assert back.label_count == n

    @pytest.mark.parametrize("label", [2**31 + 5, 10**6, 64])
    def test_load_rejects_labels_beyond_voxel_count(self, tmp_path, label):
        # 2^31 + 5 would wrap negative in an int32 cast; 10^6 would make the
        # label count allocate far more than the volume.
        data = np.zeros((4, 4, 4), dtype=np.uint32)
        data[1, 2, 3] = label
        out = tmp_path / "labels.vol"
        save_volume(Volume(data, (1, 1, 1), (0, 0, 0)), out)
        with pytest.raises(FormatError, match="do not fit 0..63"):
            load_label_volume(out)

    def test_load_rejects_float_volume(self, tmp_path):
        vol = Volume(np.zeros((4, 4, 4), dtype=np.float32), (1, 1, 1), (0, 0, 0))
        out = tmp_path / "float.vol"
        save_volume(vol, out)
        with pytest.raises(FormatError, match="integer"):
            load_label_volume(out)
