"""Phantom generator: geometry promises checked by brute force on the grid."""

import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

import oracles
from boweltrack import parallel, phantom
from boweltrack.errors import ConfigError, InfeasibleError
from boweltrack.phantom import (
    SEG_BACKGROUND,
    SEG_LUMEN,
    SEG_WALL,
    PhantomSpec,
    generate_phantom,
    load_phantom_spec,
)
from boweltrack.volume_io import Polyline
from memory import traced_peak

FOLDED = PhantomSpec(seed=1)
STRAIGHT = PhantomSpec(dims=(64, 20, 20), bends=0, touch_pairs=0, seed=3)


@pytest.fixture(scope="module")
def folded():
    return generate_phantom(FOLDED)


@pytest.fixture(scope="module")
def straight():
    return generate_phantom(STRAIGHT)


def nearest_arc_of(centers, path):
    """Arc position of the nearest centerline vertex for each query point."""
    arcs = path.cumulative_arc()
    _, vi = cKDTree(path.points).query(centers)
    return arcs[vi]


class TestBasicShape:
    def test_output_types_and_dims(self, folded):
        intensity, seg, path = folded
        assert intensity.data.dtype == np.float32
        assert seg.data.dtype == np.uint8
        assert intensity.dims == FOLDED.dims
        assert seg.dims == FOLDED.dims
        assert np.array_equal(intensity.spacing, FOLDED.spacing)
        assert path.points.shape[1] == 3

    def test_noiseless_histogram_has_exactly_three_values(self, folded):
        intensity, seg, _ = folded
        values = np.unique(intensity.data)
        expected = sorted(
            [FOLDED.background_intensity, FOLDED.wall_intensity, FOLDED.lumen_intensity]
        )
        assert values.tolist() == expected
        assert set(np.unique(seg.data)) == {SEG_BACKGROUND, SEG_LUMEN, SEG_WALL}

    def test_segmentation_matches_intensity(self, folded):
        intensity, seg, _ = folded
        assert np.all(intensity.data[seg.data == SEG_LUMEN] == FOLDED.lumen_intensity)
        assert np.all(intensity.data[seg.data == SEG_WALL] == FOLDED.wall_intensity)
        assert np.all(
            intensity.data[seg.data == SEG_BACKGROUND] == FOLDED.background_intensity
        )

    def test_centerline_inside_lumen(self, folded):
        _, seg, path = folded
        sp = np.asarray(FOLDED.spacing)
        idx = np.floor(path.points / sp).astype(int)
        idx = np.clip(idx, 0, np.asarray(FOLDED.dims) - 1)
        classes = seg.data[idx[:, 0], idx[:, 1], idx[:, 2]]
        assert np.all(classes == SEG_LUMEN)

    def test_centerline_margin_inside_mask(self, folded):
        # Every centerline point keeps at least one inner radius of masked
        # tissue around it.
        _, seg, path = folded
        sp = np.asarray(FOLDED.spacing)
        bg = (np.argwhere(seg.data == SEG_BACKGROUND) + 0.5) * sp
        d, _ = cKDTree(bg).query(path.points)
        assert d.min() >= FOLDED.inner_radius

    def test_tube_margin_inside_grid(self, folded):
        # No tube voxel on the outermost voxel shell: the tube fits entirely.
        _, seg, _ = folded
        m = seg.data
        shell = np.concatenate(
            [
                m[0].ravel(), m[-1].ravel(),
                m[:, 0].ravel(), m[:, -1].ravel(),
                m[:, :, 0].ravel(), m[:, :, -1].ravel(),
            ]
        )
        assert np.all(shell == SEG_BACKGROUND)


class TestStraightTube:
    def test_centerline_is_straight(self, straight):
        _, _, path = straight
        assert np.allclose(path.points[:, 1], path.points[0, 1], atol=1e-9)
        assert np.allclose(path.points[:, 2], path.points[0, 2], atol=1e-9)
        xs = path.points[:, 0]
        assert np.all(np.diff(xs) > 0)

    def test_lumen_radius_from_voxels(self, straight):
        # Voxel centers at distance <= r from the axis are lumen, the rest of
        # the tube up to r + wall is wall: check the radial histogram.
        _, seg, path = straight
        sp = np.asarray(STRAIGHT.spacing)
        y0, z0 = path.points[0, 1], path.points[0, 2]
        idx = np.argwhere(seg.data != SEG_BACKGROUND)
        centers = (idx + 0.5) * sp
        inside_x = (centers[:, 0] >= path.points[0, 0]) & (centers[:, 0] <= path.points[-1, 0])
        radial = np.hypot(centers[:, 1] - y0, centers[:, 2] - z0)
        classes = seg.data[idx[:, 0], idx[:, 1], idx[:, 2]]
        lum = classes[inside_x] == SEG_LUMEN
        assert np.all(radial[inside_x][lum] <= STRAIGHT.inner_radius + 1e-9)
        assert np.all(radial[inside_x][~lum] > STRAIGHT.inner_radius)
        assert np.all(radial[inside_x] <= STRAIGHT.inner_radius + STRAIGHT.wall_thickness + 1e-9)

    def test_arc_length_spans_usable_x(self, straight):
        _, _, path = straight
        extent_x = STRAIGHT.dims[0] * STRAIGHT.spacing[0]
        # Tube endpoints leave a margin of tube radius plus one voxel.
        margin = STRAIGHT.inner_radius + STRAIGHT.wall_thickness + max(STRAIGHT.spacing)
        assert path.arc_length() == pytest.approx(extent_x - 2 * margin, abs=1e-6)


class TestTouchPairs:
    def test_brute_force_touch_site_count(self, folded):
        # At a touch the lumen gap shrinks to one wall thickness, against two
        # walls plus clearance everywhere else; searching for cross-strand
        # lumen voxels closer than wall + 2 voxels finds exactly the touches.
        _, seg, path = folded
        sp = np.asarray(FOLDED.spacing)
        centers = (np.argwhere(seg.data == SEG_LUMEN) + 0.5) * sp
        varc = nearest_arc_of(centers, path)
        close = FOLDED.wall_thickness + 2.0 * min(FOLDED.spacing)
        pairs = cKDTree(centers).query_pairs(r=close, output_type="ndarray")
        gap = np.abs(varc[pairs[:, 0]] - varc[pairs[:, 1]])
        far = gap > 10.0 * FOLDED.inner_radius
        assert far.sum() > 0
        xs = np.sort(centers[pairs[far][:, 0]][:, 0])
        n_sites = 1 + int((np.diff(xs) > 12.0).sum())
        assert n_sites == FOLDED.touch_pairs

    def test_touch_corridor_is_wall_only(self, folded):
        # The closest cross-strand lumen pair is separated by wall voxels
        # only: the two tube segments share a single wall.
        _, seg, path = folded
        sp = np.asarray(FOLDED.spacing)
        centers = (np.argwhere(seg.data == SEG_LUMEN) + 0.5) * sp
        varc = nearest_arc_of(centers, path)
        close = FOLDED.wall_thickness + 2.0 * min(FOLDED.spacing)
        pairs = cKDTree(centers).query_pairs(r=close, output_type="ndarray")
        gap = np.abs(varc[pairs[:, 0]] - varc[pairs[:, 1]])
        far = np.where(gap > 10.0 * FOLDED.inner_radius)[0]
        d = np.linalg.norm(centers[pairs[far, 0]] - centers[pairs[far, 1]], axis=1)
        best = far[np.argmin(d)]
        v1, v2 = centers[pairs[best, 0]], centers[pairs[best, 1]]
        ts = np.linspace(0.0, 1.0, 65)[:, None]
        samples = v1[None, :] * (1 - ts) + v2[None, :] * ts
        idx = np.clip(np.floor(samples / sp).astype(int), 0, np.asarray(FOLDED.dims) - 1)
        crossed = seg.data[idx[:, 0], idx[:, 1], idx[:, 2]]
        assert np.all(crossed != SEG_BACKGROUND)
        assert np.any(crossed == SEG_WALL)

    def test_no_touch_phantom_has_no_far_close_pairs(self):
        spec = PhantomSpec(bends=3, touch_pairs=0, seed=5)
        _, seg, path = generate_phantom(spec)
        sp = np.asarray(spec.spacing)
        centers = (np.argwhere(seg.data == SEG_LUMEN) + 0.5) * sp
        varc = nearest_arc_of(centers, path)
        close = spec.wall_thickness + 2.0 * min(spec.spacing)
        pairs = cKDTree(centers).query_pairs(r=close, output_type="ndarray")
        if len(pairs):
            gap = np.abs(varc[pairs[:, 0]] - varc[pairs[:, 1]])
            assert np.all(gap <= 10.0 * spec.inner_radius)

    def test_strand_clearance_at_least_wall_thickness(self, folded):
        # Far-apart curve points keep distance >= 2r + wall: the lumens never
        # get closer than one shared wall.
        _, _, path = folded
        pts, arcs = path.points, path.cumulative_arc()
        sub = pts[::2]
        sarc = arcs[::2]
        d = np.linalg.norm(sub[:, None, :] - sub[None, :, :], axis=-1)
        far = np.abs(sarc[:, None] - sarc[None, :]) > 10.0 * FOLDED.inner_radius
        min_clear = d[far].min()
        assert min_clear >= 2 * FOLDED.inner_radius + FOLDED.wall_thickness - 0.75


class TestDeterminism:
    @pytest.mark.parametrize(
        "spec",
        [
            PhantomSpec(dims=(80, 64, 24), bends=1, touch_pairs=0, seed=11),
            PhantomSpec(bends=5, touch_pairs=2, seed=12, noise_sigma=10.0),
            PhantomSpec(dims=(64, 20, 20), bends=0, touch_pairs=0, seed=13),
        ],
    )
    def test_same_spec_bitwise_identical(self, spec):
        a = generate_phantom(spec)
        b = generate_phantom(spec)
        assert np.array_equal(a[0].data, b[0].data)
        assert np.array_equal(a[1].data, b[1].data)
        assert np.array_equal(a[2].points, b[2].points)

    def test_different_seed_differs(self):
        base = PhantomSpec(bends=3, touch_pairs=1, noise_sigma=5.0)
        a = generate_phantom(base)
        b = generate_phantom(PhantomSpec(**{**base.__dict__, "seed": base.seed + 1}))
        assert not np.array_equal(a[0].data, b[0].data)


class TestNoise:
    def test_noise_clamped_to_value_range(self):
        spec = PhantomSpec(dims=(80, 64, 24), bends=1, touch_pairs=0, noise_sigma=50.0, seed=2)
        intensity, _, _ = generate_phantom(spec)
        assert intensity.data.min() >= spec.background_intensity
        assert intensity.data.max() <= spec.lumen_intensity
        assert len(np.unique(intensity.data)) > 3

    def test_zero_sigma_is_noise_free(self):
        spec = PhantomSpec(dims=(80, 64, 24), bends=1, touch_pairs=0, noise_sigma=0.0, seed=2)
        intensity, _, _ = generate_phantom(spec)
        assert len(np.unique(intensity.data)) == 3


class TestSpecValidation:
    def test_touch_needs_enough_lanes(self):
        with pytest.raises(InfeasibleError, match="lanes"):
            generate_phantom(PhantomSpec(bends=2, touch_pairs=3))

    def test_straight_tube_rejects_touch(self):
        with pytest.raises(InfeasibleError):
            generate_phantom(PhantomSpec(dims=(64, 16, 16), bends=0, touch_pairs=1))

    def test_grid_too_small_reports_constraint(self):
        with pytest.raises(InfeasibleError, match="mm"):
            generate_phantom(PhantomSpec(dims=(24, 96, 48), bends=5, touch_pairs=0))

    def test_too_many_lanes_for_y(self):
        with pytest.raises(InfeasibleError, match="lanes"):
            generate_phantom(PhantomSpec(dims=(96, 40, 48), bends=5, touch_pairs=0))

    def test_thin_z_rejected(self):
        with pytest.raises(InfeasibleError, match="z extent"):
            generate_phantom(PhantomSpec(dims=(96, 96, 10), bends=2, touch_pairs=0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(inner_radius=3.0),
            dict(lumen_intensity=80.0),
            dict(wall_thickness=0.0),
            dict(bends=-1),
            dict(touch_pairs=-1),
            dict(noise_sigma=-1.0),
            dict(dims=(0, 96, 48)),
            dict(dims=(40.7, 24, 24)),
            dict(spacing=(2.0, -1.0, 2.0)),
        ],
    )
    def test_invalid_spec_fields(self, kwargs):
        with pytest.raises(ConfigError):
            PhantomSpec(**kwargs)

    @pytest.mark.parametrize("field", ["inner_radius", "wall_thickness", "lumen_intensity",
                                       "wall_intensity", "background_intensity", "noise_sigma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_fields(self, field, value):
        # nan noise once gave a silently noise-free phantom, a nan radius a
        # bare ValueError naming no field.
        with pytest.raises(ConfigError, match=f"^{field} must be finite, got {value}$"):
            PhantomSpec(**{field: value})


class TestSpecFile:
    def test_round_trip_via_file(self, tmp_path):
        text = (
            "dims: 64 48 24\n"
            "spacing: 2 2 2\n"
            "inner_radius: 6\n"
            "wall_thickness: 3\n"
            "seed: 4\n"
            "bends: 1\n"
            "touch_pairs: 0\n"
            "noise_sigma: 2.5\n"
        )
        p = tmp_path / "spec.txt"
        p.write_text(text)
        spec = load_phantom_spec(p)
        assert spec.dims == (64, 48, 24)
        assert spec.noise_sigma == 2.5
        assert spec.lumen_intensity == 300.0  # default preserved

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "spec.txt"
        p.write_text("dims: 64 48 24\nwiggle: 3\n")
        with pytest.raises(ConfigError, match="wiggle"):
            load_phantom_spec(p)

    def test_non_integral_dims_rejected(self, tmp_path):
        p = tmp_path / "spec.txt"
        p.write_text("dims: 40.7 24 24\n")
        with pytest.raises(ConfigError, match="dims"):
            load_phantom_spec(p)

    def test_non_utf8_spec_names_the_file(self, tmp_path):
        p = tmp_path / "spec.txt"
        p.write_bytes(b"dims: 64 48 24\nseed: \xff\n")
        with pytest.raises(ConfigError, match=r"spec\.txt: not a UTF-8 text file"):
            load_phantom_spec(p)

    def test_comments_and_blank_lines(self, tmp_path):
        p = tmp_path / "spec.txt"
        p.write_text("# phantom\n\nbends: 2  # two turns\nseed: 9\n")
        spec = load_phantom_spec(p)
        assert spec.bends == 2
        assert spec.seed == 9


# Small versions of the bench and CT-scale cases: folded at 2 mm, a straight
# tube, a folded tube at 1 mm, and anisotropic 2x2x3 mm voxels with noise.
ORACLE_SPECS = {
    "folded": FOLDED,
    "straight": STRAIGHT,
    "fine": PhantomSpec(
        dims=(80, 80, 24), spacing=(1.0, 1.0, 1.0), inner_radius=4.0, wall_thickness=2.0,
        bends=3, touch_pairs=1, seed=4,
    ),
    "anisotropic": PhantomSpec(
        dims=(80, 80, 16), spacing=(2.0, 2.0, 3.0), inner_radius=7.0, noise_sigma=20.0,
        bends=3, touch_pairs=1, seed=2,
    ),
}


def generate_capturing(spec, distance):
    """generate_phantom with `distance` as the centerline distance pass;
    returns its output and the (dist, arc) that pass produced."""
    captured = []

    def capture(spec, path):
        captured.append(distance(spec, path))
        return captured[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(phantom, "_distance_to_centerline", capture)
        out = generate_phantom(spec)
    return out, captured[0]


@pytest.fixture(scope="module")
def full_grid():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = generate_capturing(
                ORACLE_SPECS[name], oracles.distance_to_centerline_full_grid
            )
        return cache[name]

    return get


def arrays(phantom_out):
    intensity, seg, path = phantom_out
    return intensity.data, seg.data, path.points


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestDistanceOracle:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
    def test_matches_full_grid(self, monkeypatch, full_grid, name, workers):
        monkeypatch.setattr(parallel, "workers", lambda: workers)
        spec = ORACLE_SPECS[name]
        ref_out, (ref_dist, ref_arc) = full_grid(name)
        out, (dist, arc) = generate_capturing(spec, phantom._distance_to_centerline)
        for got, want in zip(arrays(out), arrays(ref_out)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        inside = ref_dist <= spec.tube_radius
        assert np.array_equal(bits(dist[inside]), bits(ref_dist[inside]))
        dropped = np.isinf(dist)
        assert np.all(ref_dist[dropped] > spec.tube_radius)
        assert np.all(np.isnan(arc[dropped]))
        assert np.array_equal(bits(arc[~dropped]), bits(ref_arc[~dropped]))

    def test_more_workers_than_cores(self, monkeypatch, full_grid):
        # Seven worker processes write their disjoint runs of ranges of the
        # shared output arrays.
        monkeypatch.setattr(parallel, "workers", lambda: 7)
        (_, _, path), (ref_dist, ref_arc) = full_grid("fine")
        dist, arc = phantom._distance_to_centerline(ORACLE_SPECS["fine"], path)
        kept = np.isfinite(dist)
        assert np.array_equal(bits(dist[kept]), bits(ref_dist[kept]))
        assert np.array_equal(bits(arc[kept]), bits(ref_arc[kept]))
        assert np.all(ref_dist[~kept] > ORACLE_SPECS["fine"].tube_radius)

    @pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
    def test_nearest_segment_among_candidates(self, full_grid, name):
        # Inside the tube the k=8 vertex candidates always hold the nearest
        # segment: the distance is the minimum over every segment.  At most
        # 12k evenly strided tube voxels keep the all-segment sweep short.
        spec = ORACLE_SPECS[name]
        (_, _, path), _ = full_grid(name)
        dist, _ = phantom._distance_to_centerline(spec, path)
        inside = np.argwhere(dist <= spec.tube_radius)
        inside = inside[:: -(-len(inside) // 12000)]
        centers = (inside + 0.5) * np.asarray(spec.spacing)
        a = path.points[:-1]
        d = np.diff(path.points, axis=0)
        l2 = np.sum(d * d, axis=1)
        brute = np.empty(len(centers))
        for lo in range(0, len(centers), 256):
            rel = centers[lo : lo + 256, None, :] - a[None]
            t = np.clip(np.sum(rel * d, axis=-1) / l2, 0.0, 1.0)
            diff = rel - t[..., None] * d
            brute[lo : lo + 256] = np.sqrt(np.sum(diff * diff, axis=-1).min(axis=1))
        got = dist[inside[:, 0], inside[:, 1], inside[:, 2]]
        assert np.max(np.abs(got - brute)) <= 1e-12

    def test_memory_peak_bounded(self, monkeypatch):
        # Only voxels near the tube hold candidate arrays, one range of 2^14
        # voxels at a time; 22 MB today, and the full-grid pass peaked at
        # about 210 MB.  One worker runs every range in this process, where
        # tracemalloc sees its arrays, and the distance and arc outputs
        # become ordinary arrays, which it sees too.
        monkeypatch.setattr(parallel, "workers", lambda: 1)
        monkeypatch.setattr(parallel, "shared_array", np.zeros)
        peak = traced_peak(generate_phantom, PhantomSpec(seed=1))
        assert peak <= 100 * 2**20


def two_strand_path(spec, sep, lane_len=140.0):
    """Hairpin: a lane of lane_len mm along x, a half-turn of radius sep/2
    and a lane back, sep mm apart, in the z mid-plane of the spec's grid."""
    x0, y0, z = 40.0, 40.0, spec.extent[2] / 2.0
    x1 = x0 + lane_len
    xs = np.arange(x0, x1, 0.5)
    ang = np.linspace(-np.pi / 2, np.pi / 2, 64)[1:-1]
    turn = np.stack([x1 + sep / 2 * np.cos(ang), y0 + sep / 2 + sep / 2 * np.sin(ang)], axis=1)
    xy = np.concatenate(
        [np.stack([xs, np.full_like(xs, y0)], 1), turn, np.stack([xs[::-1], np.full_like(xs, y0 + sep)], 1)]
    )
    return Polyline(np.column_stack([xy, np.full(len(xy), z)]))


class TestStrandClearance:
    def test_merging_strands_rejected_with_exact_clearance(self):
        spec = PhantomSpec()
        path = two_strand_path(spec, 2.0 * spec.inner_radius - 3.0)
        min_clear = oracles.strand_clearance_all_pairs(spec, path)
        assert min_clear < 2.0 * spec.inner_radius
        with pytest.raises(InfeasibleError, match="lumens would merge") as err:
            phantom._verify_geometry(spec, path, None, None, [])
        assert f"strand clearance {min_clear:.2f}mm" in str(err.value)

    @pytest.mark.parametrize("delta", [-0.5, -1e-6, 0.0, 1e-6, 0.5, 5.0])
    def test_rejects_exactly_when_oracle_below_lumen_diameter(self, delta):
        spec = PhantomSpec()
        path = two_strand_path(spec, 2.0 * spec.inner_radius + delta)
        min_clear = oracles.strand_clearance_all_pairs(spec, path)
        if min_clear < 2.0 * spec.inner_radius:
            with pytest.raises(InfeasibleError, match=f"strand clearance {min_clear:.2f}mm"):
                phantom._verify_geometry(spec, path, None, None, [])
        else:
            phantom._verify_geometry(spec, path, None, None, [])

    @pytest.mark.parametrize("lane_len", [40.0, 50.0, 70.0, 100.0])
    def test_only_pairs_far_along_the_arc_count(self, lane_len):
        # The lanes are 2 mm closer than a lumen diameter, but the two ends
        # of the hairpin are about 2 lane_len + 35 mm apart along it:
        # below FAR_PAIR_ARC_FACTOR inner radii (120 mm) for short lanes,
        # above it for the others.
        spec = PhantomSpec()
        path = two_strand_path(spec, 2.0 * spec.inner_radius - 2.0, lane_len)
        min_clear = oracles.strand_clearance_all_pairs(spec, path)
        assert np.isinf(min_clear) == (lane_len < 50.0)
        if np.isinf(min_clear):
            phantom._verify_geometry(spec, path, None, None, [])
        else:
            with pytest.raises(InfeasibleError, match=f"strand clearance {min_clear:.2f}mm"):
                phantom._verify_geometry(spec, path, None, None, [])

    @pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
    def test_generated_phantoms_clear(self, full_grid, name):
        spec = ORACLE_SPECS[name]
        (_, _, path), _ = full_grid(name)
        assert oracles.strand_clearance_all_pairs(spec, path) >= 2.0 * spec.inner_radius
