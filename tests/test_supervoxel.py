"""Supervoxel clustering: partition/connectivity audits, boundary adherence,
equivalence with the per-cluster loop and the per-fragment connectivity
loop, and a memory bound."""

import os
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from boweltrack import parallel, supervoxel
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
from memory import traced_peak
from oracles import (
    assign_per_cluster,
    cluster_sums_bincount,
    enforce_connectivity_per_fragment,
    same_label_components_all_pairs,
    same_label_components_whole_volume,
    seed_grid_loop,
)
from stage_rule import stage_rejects


def constant_volume(dims=(60, 60, 60), spacing=(2.0, 2.0, 2.0)):
    return Volume(np.zeros(dims, dtype=np.float32), spacing, (0.0, 0.0, 0.0))


def random_feature(seed, dims=(18, 15, 12), spacing=(2.0, 2.0, 2.5)):
    rng = np.random.default_rng(seed)
    data = ndimage.gaussian_filter(rng.normal(size=dims), 1.5)
    return Volume(data.astype(np.float32), spacing, (0.0, 0.0, 0.0))


def phantom_wall_map():
    spec = PhantomSpec(dims=(80, 64, 24), bends=1, touch_pairs=0, seed=7)
    intensity, _, _ = generate_phantom(spec)
    return meijering_response(intensity)


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
        assert lv.member_counts().sum() == 30**3
        assert lv.member_counts().min() >= 1
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
        counts = lv.member_counts().astype(float)
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
        counts = lv.member_counts()
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


def oracle_slic(monkeypatch, feature, target_volume, compactness):
    """slic_supervoxels with the per-cluster assignment loop and the
    one-point-at-a-time seed grid."""
    with monkeypatch.context() as patch:
        patch.setattr(supervoxel, "_assign", assign_per_cluster)
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
}


class TestOracleEquivalence:
    """The batched assignment and the vectorised seed grid give the labels
    of the per-cluster loop, bit for bit."""

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

    # Gradient slabs of 1 and 2 rows, and one slab holding every row; the
    # 2-row volume has no row with a central difference.
    @pytest.mark.parametrize("rows", [1, 2, "all"])
    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES) + ["two-rows"])
    def test_seed_grid_any_slab_height(self, monkeypatch, case, rows):
        if case == "two-rows":
            feature, target_volume = random_feature(15, dims=(2, 12, 10),
                                                    spacing=(4.0, 1.0, 1.0)), 27.0
        else:
            feature, target_volume, _ = EQUIVALENCE_CASES[case]
        monkeypatch.setattr(supervoxel, "_SLAB_ROWS",
                            feature.dims[0] + 1 if rows == "all" else rows)
        self.assert_seed_grid_matches_loop(feature, target_volume)


class TestFeatureDtype:
    """The loop reads the feature in the smallest float type that holds it
    exactly and widens it to float64 per batch, so the labels are those of
    the feature's float64 conversion, bit for bit."""

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


@pytest.mark.parametrize("workers", [2, 3, 7, 16])
@pytest.mark.parametrize("source", ["random", "phantom"])
def test_labels_independent_of_workers(monkeypatch, workers, source):
    """Each worker assigns one axis-0 slab; 17 rows on 3, 7 or 16 workers
    end in a shorter slab.  A short switch interval interleaves the threads
    often, so a voxel two slabs both wrote would show."""
    if source == "random":
        feature = random_feature(5, dims=(17, 13, 11), spacing=(2.0, 2.0, 2.0))
    else:
        feature = phantom_wall_map()
    monkeypatch.setattr(parallel, "workers", lambda: 1)
    expected = slic_supervoxels(feature, 216.0, 0.01)
    monkeypatch.setattr(parallel, "workers", lambda: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        got = slic_supervoxels(feature, 216.0, 0.01)
    finally:
        sys.setswitchinterval(interval)
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
    src = os.path.dirname(os.path.dirname(supervoxel.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    tracker = subprocess.Popen([sys.executable, "-c", SLOW_WORKER_SLIC], env=env)
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


def max_feature_distance_gather(flat_label, flat_feat, cluster_feat):
    """The update step's former expression: each voxel's |f - c| from a
    gather of its cluster's feature, then np.maximum.at per cluster."""
    max_df = np.zeros(len(cluster_feat))
    np.maximum.at(max_df, flat_label, np.abs(flat_feat - cluster_feat[flat_label]))
    return max_df


@pytest.mark.parametrize("seed", range(9))
def test_max_feature_distance_matches_gather(seed):
    # Features far from 0 make the differences round; voxels equal to
    # their cluster's feature and empty clusters are included.
    rng = np.random.default_rng(seed)
    n_clusters = int(rng.integers(1, 80))
    n_vox = int(rng.integers(1, 4000))
    offset = (0.0, 1e8, -3.7e5)[seed % 3]
    spread = (1e-6, 1.0, 1e3)[seed // 3]
    flat_label = rng.integers(0, n_clusters, n_vox)
    flat_feat = offset + spread * rng.normal(size=n_vox)
    cluster_feat = offset + spread * rng.normal(size=n_clusters)
    flat_feat[::7] = cluster_feat[flat_label[::7]]
    got = supervoxel._max_feature_distance(flat_label, flat_feat, cluster_feat)
    want = max_feature_distance_gather(flat_label, flat_feat, cluster_feat)
    occupied = np.bincount(flat_label, minlength=n_clusters) > 0
    assert got[occupied].tobytes() == want[occupied].tobytes()
    assert np.all(got[~occupied] == -np.inf)


@pytest.mark.parametrize("rows", [1, 3, "all"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seed", range(6))
def test_cluster_sums_match_whole_volume_bincount(monkeypatch, seed, dtype, rows):
    """The update step's slab-wise sums have the bits of whole-volume
    `np.bincount`s.  Features from 1e-8 to 1e8 in both signs make every
    sum depend on the order of its terms, so a `np.add.at` that stopped
    adding in voxel order would show."""
    rng = np.random.default_rng(seed)
    dims = tuple(int(n) for n in rng.integers(2, 14, 3))
    spacing = rng.uniform(0.3, 3.0, 3)
    n_clusters = int(rng.integers(2, 60))
    # Half the clusters hold no voxel.
    ids = rng.choice(n_clusters, size=n_clusters // 2 or 1, replace=False)
    labels = ids[rng.integers(0, len(ids), dims)].astype(np.int32)
    feat = (rng.choice((-1.0, 1.0), dims) * 10.0 ** rng.uniform(-8, 8, dims)).astype(dtype)
    axis_pos = [(np.arange(n) + 0.5) * s for n, s in zip(dims, spacing)]
    monkeypatch.setattr(supervoxel, "_SLAB_ROWS", dims[0] + 1 if rows == "all" else rows)
    got = supervoxel._cluster_sums(labels, axis_pos, n_clusters, feat)
    want = cluster_sums_bincount(labels, feat, axis_pos, n_clusters)
    assert np.array_equal(got[0], want[0])
    for a, b in zip(got[1:], want[1:]):
        assert a.tobytes() == b.tobytes()


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
    """Components from slabs of face links and corner-free diagonal links,
    joined across slab faces, and the fragment placement over the
    fragment-component adjacency list, against all 13 offset pairs, one
    whole-volume graph and the per-fragment loop: identical arrays for
    every slab height and worker count."""

    @staticmethod
    def assert_matches_oracle(monkeypatch, labels):
        expected_comp, expected_n = same_label_components_all_pairs(labels)
        whole_comp, whole_n = same_label_components_whole_volume(labels)
        assert whole_n == expected_n
        assert np.array_equal(whole_comp, expected_comp)
        expected_final = enforce_connectivity_per_fragment(labels)
        # Slabs of 1, 2 and 3 rows, and one slab holding every row.
        for rows in (1, 2, 3, labels.shape[0] + 1):
            for workers in (1, 2, 3):
                monkeypatch.setattr(supervoxel, "_COMP_ROWS", rows)
                monkeypatch.setattr(parallel, "workers", lambda: workers)
                comp, n_comp = supervoxel._same_label_components(labels)
                assert n_comp == expected_n
                assert comp.dtype == np.int32
                assert np.array_equal(comp, expected_comp)
                final = supervoxel._enforce_connectivity(labels)
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
        final = supervoxel._enforce_connectivity(labels)
        assert final[0, 0, 0] == final[0, 0, 1] == 0

    @pytest.mark.parametrize("dims", [(5, 4, 3), (1, 1, 1)])
    def test_constant_labeling_has_no_fragments(self, monkeypatch, dims):
        labels = np.full(dims, 3, dtype=np.int64)
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
        labels = corner_contact_labels()
        self.assert_matches_oracle(monkeypatch, labels)
        monkeypatch.setattr(supervoxel, "_COMP_ROWS", 2)
        comp, n_comp = supervoxel._same_label_components(labels)
        assert n_comp == labels.size - 1
        assert comp[1, 0, 0] == comp[2, 1, 1]

    def test_u_shape_merges_in_later_slab(self, monkeypatch):
        labels = u_shape_labels()
        self.assert_matches_oracle(monkeypatch, labels)
        monkeypatch.setattr(supervoxel, "_COMP_ROWS", 2)
        comp, n_comp = supervoxel._same_label_components(labels)
        # Arms, background and the label-2 voxel, by lowest voxel.
        assert n_comp == 3
        assert comp[0, 0, 0] == comp[0, 0, 4] == 0
        assert comp[0, 0, 1] == 1 and comp[0, 0, 2] == 2


def memory_feature():
    data = ndimage.gaussian_filter(np.random.default_rng(0).normal(size=(96, 96, 96)), 2.0)
    return Volume(data.astype(np.float32), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))


def test_memory_bounded_by_volume_size(monkeypatch):
    """The allocation peak stays a fixed multiple of the volume's float64
    size: assignment temporaries are batched, never (clusters, window)."""
    feature = memory_feature()
    # Each iteration allocates the same; two keep the test short.  One
    # worker runs every slab in this process, where tracemalloc sees its
    # temporaries, and the label and distance buffers become ordinary
    # arrays, which it sees too.
    monkeypatch.setattr(supervoxel, "SLIC_ITERATIONS", 2)
    monkeypatch.setattr(parallel, "workers", lambda: 1)
    monkeypatch.setattr(parallel, "shared_array", np.zeros)
    peak = traced_peak(slic_supervoxels, feature, 27.0, 1.0)
    # 3.3x today.  A new int64 label volume per step, a float64
    # coordinate volume per axis and whole-volume bincounts took it to
    # 5.5x, a float64 copy of the feature to 6.6x, the whole-volume
    # connectivity graph to 10.6x, linking every equally labeled
    # 26-neighbour pair to 25x, and one (clusters, window) float64 array
    # alone is 27x.
    assert peak <= 4.0 * feature.data.size * 8


def test_assignment_workers_memory_bounded(monkeypatch):
    """Each assignment slab, in this process or a forked worker, allocates
    at most a fixed share of the volume's float64 size on top of what the
    process held when it started."""
    feature = memory_feature()
    monkeypatch.setattr(supervoxel, "SLIC_ITERATIONS", 2)
    monkeypatch.setattr(parallel, "workers", lambda: 2)
    fork_ranges, peaks = parallel.fork_ranges, []

    def measured_fork_ranges(fn, n, size):
        slab_peaks = parallel.shared_array(n, np.int64)

        def measured(lo, hi):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            fn(lo, hi)
            slab_peaks[lo] = tracemalloc.get_traced_memory()[1] - held

        fork_ranges(measured, n, size)
        peaks.extend(slab_peaks[slab_peaks > 0].tolist())

    monkeypatch.setattr(parallel, "fork_ranges", measured_fork_ranges)
    tracemalloc.start()
    try:
        slic_supervoxels(feature, 27.0, 1.0)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 2 * 2
    # 0.90-0.94x each today: per-cluster window bounds and the batch
    # temporaries.  One slab-sized float64 temporary would add 0.5x.
    assert max(peaks) <= 1.2 * feature.data.size * 8


def test_enforce_connectivity_memory_bounded():
    """Many fragments: each offset's distinct fragment-component pairs are
    merged into one running set, the components come from slabs and the
    labels are written over the component map."""
    noise = ndimage.gaussian_filter(np.random.default_rng(2).normal(size=(96, 96, 96)), 1.0)
    labels = np.digitize(noise, np.quantile(noise, np.linspace(0, 1, 9)[1:-1]))
    peak = traced_peak(supervoxel._enforce_connectivity, labels)
    # 2.4x today.  Three int64 neighbour positions per fragment voxel, the
    # 26 offsets' distinct keys held until one concatenation, a
    # whole-volume bincount and a second label map took 3.7x, and 26
    # concatenated offsets of all int64 keys 10.7x.
    assert peak <= 2.7 * labels.size * 8


def test_components_memory_bounded(monkeypatch):
    """Many slab faces: each face's links are reduced to distinct component
    pairs before the join, so the slabs can be thin."""
    noise = ndimage.gaussian_filter(np.random.default_rng(2).normal(size=(96, 96, 96)), 1.0)
    labels = np.digitize(noise, np.quantile(noise, np.linspace(0, 1, 9)[1:-1]))
    # Each worker holds one slab's graph.
    monkeypatch.setattr(parallel, "workers", lambda: 2)
    peak = traced_peak(supervoxel._same_label_components, labels)
    # 1.2x today, 0.5x of it the int32 map; every link of 16-row slabs
    # took 2.3-3.1x.
    assert peak <= 1.5 * labels.size * 8


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
            LabelVolume(data, (1, 1, 1), (0, 0, 0), 3)

    def test_label_volume_rejects_out_of_range(self):
        data = np.full((4, 4, 4), 5, dtype=np.int32)
        with pytest.raises(InvariantError):
            LabelVolume(data, (1, 1, 1), (0, 0, 0), 3)

    def test_label_volume_range_checked_before_counting(self):
        # One slot per label value would be allocated by the count; a label
        # of 10^6 in 64 voxels must fail on the range, not on the count.
        data = np.zeros((4, 4, 4), dtype=np.int64)
        data[0, 0, 0] = 10**6
        with pytest.raises(InvariantError, match="exceeds the 64 voxels"):
            LabelVolume(data, (1, 1, 1), (0, 0, 0), 10**6 + 1)
        with pytest.raises(InvariantError, match="outside"):
            LabelVolume(data, (1, 1, 1), (0, 0, 0), 64)
        data[0, 0, 0] = -1
        with pytest.raises(InvariantError, match="negative"):
            LabelVolume(data, (1, 1, 1), (0, 0, 0), 1)

    def test_label_volume_rejects_float_labels(self):
        with pytest.raises(InvariantError, match="integer"):
            LabelVolume(np.zeros((4, 4, 4)), (1, 1, 1), (0, 0, 0), 1)


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
        assert back.spacing == lv.spacing

    def test_round_trip_large_label_count_uses_u32(self, tmp_path):
        n = 41 * 41 * 40
        data = np.arange(n, dtype=np.int64).reshape(41, 41, 40)
        lv = LabelVolume(data, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), n)
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
