"""Hessian wall-detection filter: analytic values, brute-force convolution
and whole-volume oracles, the compiled passes against scipy's, the
closed-form eigenvalue's accuracy, and the published invariants (shift,
range, rotation)."""

import math
import platform
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage
from scipy.ndimage import binary_erosion, correlate

from boweltrack import kernel, parallel, ridge
from boweltrack.errors import InvariantError
from boweltrack.phantom import PhantomSpec, generate_phantom
from boweltrack.ridge import meijering_response
from boweltrack.volume_io import Volume

from memory import range_peaks, traced_peak
from oracles import (
    _gaussian_kernel1d,
    gaussian_hessian,
    meijering_response_whole_volume,
    sheet_response_eigvalsh,
    sheet_response_in_place,
)
from stage_rule import stage_rejects

HESSIAN_ORDERS = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]


def oracle_hessian(data, sigma_mm, spacing):
    """Each Hessian component as one 3D correlation with the product of the
    oracle's 1D kernels, scaled as the wall filter scales it."""
    shifted = data - data.min()
    for orders in HESSIAN_ORDERS:
        k1, k2, k3 = (_gaussian_kernel1d(sigma_mm / spacing, o) for o in orders)
        kernel3d = k1[:, None, None] * k2[None, :, None] * k3[None, None, :]
        scale = sigma_mm**2 / spacing ** sum(orders)
        yield correlate(shifted, kernel3d, mode="reflect") * scale


def make_volume(data, spacing=(1.0, 1.0, 1.0)):
    return Volume(np.asarray(data, dtype=np.float64), spacing, (0.0, 0.0, 0.0))


def slab_hessian(vol, sigma_mm):
    """The six components of ridge._hessian_slabs over the whole row range,
    after checking that its sub-slabs tile axis 0 exactly once.  The
    sub-slabs run in worker processes, so they write shared buffers; a
    failed assertion in a worker fails the call."""
    data = vol.data.astype(np.float64)
    data = data - data.min()
    out = parallel.shared_array((6,) + vol.dims, np.float64)
    out.fill(np.nan)
    cover = parallel.shared_array(vol.dims[0], np.int64)

    def keep(a, b, h):
        assert h.shape == (6, b - a) + vol.dims[1:]
        out[:, a:b] = h
        cover[a:b] += 1

    def fill(s0, s1, buf):
        buf[...] = data[s0:s1]

    ridge._hessian_slabs(fill, vol.dims, vol.spacing, sigma_mm, keep)
    assert (cover == 1).all()
    return out


class TestGaussianHessian:
    """Properties of the slab Hessian over the whole row range."""

    def test_constant_volume_all_zero(self):
        vol = make_volume(np.full((12, 10, 8), 37.0))
        for comp in slab_hessian(vol, 1.5):
            assert np.all(comp == 0.0)

    def test_x_squared_ramp(self):
        # Gaussian smoothing leaves the second derivative of x^2 at exactly
        # 2; the sampled kernels land within 5% after undoing the sigma^2
        # scale normalisation.
        nx, ny, nz = 32, 12, 12
        sp = (2.0, 2.0, 2.0)
        x_mm = (np.arange(nx) + 0.5) * sp[0]
        vol = make_volume(np.broadcast_to((x_mm**2)[:, None, None], (nx, ny, nz)).copy(), sp)
        sigma = 4.0
        hxx, hxy, hxz, hyy, hyz, hzz = slab_hessian(vol, sigma)
        interior = (slice(10, -10), slice(4, -4), slice(4, -4))
        dxx = hxx[interior] / sigma**2
        assert np.all(np.abs(dxx - 2.0) <= 0.1)
        # Cross terms vanish; the axis-aligned ramp has no mixed curvature.
        assert np.all(np.abs(hxy[interior]) <= 1e-9)
        assert np.all(np.abs(hxz[interior]) <= 1e-9)

    def test_separable_equals_direct_3d_convolution(self):
        rng = np.random.default_rng(42)
        data = rng.random((11, 11, 11))
        vol = make_volume(data)
        sigma = 1.2
        components = slab_hessian(vol, sigma)
        for comp, direct in zip(components, oracle_hessian(data, sigma, 1.0)):
            assert np.max(np.abs(comp - direct)) <= 1e-5

    def test_kernel_support_is_ceil_four_sigma(self):
        # sigma 2 mm at 1.5 mm spacing is 4/3 voxel: the oracle's support
        # ceil(16/3) = 6 is one voxel wider than scipy's default
        # int(16/3 + 0.5) = 5; the narrower kernel is off by ~3e-4 here.
        rng = np.random.default_rng(7)
        data = rng.random((15, 14, 13))
        sp = 1.5
        sigma = 2.0
        components = slab_hessian(make_volume(data, (sp, sp, sp)), sigma)
        for comp, direct in zip(components, oracle_hessian(data, sigma, sp)):
            assert np.max(np.abs(comp - direct)) <= 1e-12

    def test_sigma_below_spacing_rejected(self):
        vol = make_volume(np.zeros((8, 8, 8)), spacing=(2.0, 2.0, 2.0))
        with pytest.raises(ValueError, match="spacing"):
            meijering_response(vol, scales_mm=(1.0,))

    def test_sigma_below_one_axis_spacing_warns(self):
        # 2 x 2 x 4 mm: the default 2 and 3 mm scales are below the z
        # spacing, half a voxel and 3/4 of one.
        vol = make_volume(np.random.default_rng(1).random((12, 12, 8)), spacing=(2.0, 2.0, 4.0))
        with pytest.warns(UserWarning) as caught:
            meijering_response(vol, scales_mm=ridge.DEFAULT_SCALES_MM)
        assert [str(w.message) for w in caught] == [
            f"sigma_mm {s} below axis 2's voxel spacing 4.0; "
            "the kernel is undersampled along that axis" for s in (2.0, 3.0)]

    def test_bad_sigma_rejected(self, tmp_path):
        for sigma in (0.0, -1.0, float("nan"), float("inf")):
            message = stage_rejects("ridge", [(sigma,)], tmp_path)
            assert message.startswith("scales must be positive and finite")

    @pytest.mark.parametrize("bad", [0.5, 0.0, -2.0, float("nan"), float("inf")])
    def test_every_scale_checked_before_filtering(self, monkeypatch, tmp_path, bad):
        # A bad second scale raises before the first scale filters anything:
        # one below the spacing in the filter, one outside the scales' rule
        # where the stage reads its parameters.
        calls = []
        lib = kernel.load()
        real = lib.ridge_hessian

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(lib, "ridge_hessian", spy)
        vol = make_volume(np.random.default_rng(0).random((10, 9, 8)))
        if bad == 0.5:
            with pytest.raises(ValueError, match="spacing"):
                meijering_response(vol, scales_mm=(2.0, bad))
        else:
            assert "positive and finite" in stage_rejects("ridge", [(2.0, bad)], tmp_path)
        assert calls == []
        # One worker, one sub-slab: a valid scale makes one kernel call.
        monkeypatch.setattr(parallel, "workers", lambda: 1)
        monkeypatch.setattr(ridge, "_SLAB_ROWS", vol.dims[0])
        meijering_response(vol, scales_mm=(2.0,))
        assert len(calls) == 1


class TestMeijeringResponse:
    def test_constant_volume_zero_response(self):
        vol = make_volume(np.full((10, 10, 10), 5.0))
        resp = meijering_response(vol, scales_mm=(1.5,))
        assert np.all(resp.data == 0.0)

    def test_dark_plane_argmax_on_plane(self):
        # A one-voxel dark sheet in bright surroundings is the canonical
        # valley; the strongest response must sit on it.
        data = np.full((25, 20, 20), 100.0)
        data[12, :, :] = 0.0
        resp = meijering_response(make_volume(data), scales_mm=(1.5, 2.5))
        argmax = np.unravel_index(np.argmax(resp.data), resp.data.shape)
        assert argmax[0] == 12

    def test_wall_response_dominates_lumen_interior(self):
        # Walls must light up while the deep lumen stays quiet; measured at
        # the wall-matched scale on a noiseless bent tube.
        spec = PhantomSpec(dims=(80, 64, 24), bends=1, touch_pairs=0, seed=7)
        intensity, seg, _ = generate_phantom(spec)
        resp = meijering_response(intensity, scales_mm=(2.0,))
        core = binary_erosion(seg.data == 1, iterations=2)
        wall_mean = resp.data[seg.data == 2].mean()
        core_mean = resp.data[core].mean()
        assert wall_mean > 5.0 * core_mean

    def test_response_range(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            vol = make_volume(rng.random((14, 12, 10)) * 50.0)
            resp = meijering_response(vol, scales_mm=(1.5, 2.0))
            assert resp.data.min() >= 0.0
            assert resp.data.max() <= 1.0
            assert resp.data.max() in (0.0, 1.0)

    def test_intensity_shift_invariance_bitwise(self):
        # Integer-valued data plus integer shifts stay exactly representable,
        # so the mean-level removal makes the response bitwise identical.
        rng = np.random.default_rng(11)
        data = rng.integers(0, 300, size=(16, 14, 12)).astype(np.float64)
        base = meijering_response(make_volume(data), scales_mm=(1.5,))
        for c in (50.0, -120.0, 1000.0):
            shifted = meijering_response(make_volume(data + c), scales_mm=(1.5,))
            assert np.array_equal(base.data, shifted.data)

    def test_integer_input_widened_before_negation(self):
        # int16 -32768 has no int16 negation; each sub-slab widens its rows
        # to float64 first, so the map equals that of a float64 copy.
        rng = np.random.default_rng(12)
        data = rng.integers(-32768, 32768, size=(14, 12, 10)).astype(np.int16)
        data[3, 4, 5] = -32768
        vol = Volume(data, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
        got = meijering_response(vol, scales_mm=(1.5,))
        want = meijering_response(make_volume(data), scales_mm=(1.5,))
        assert got.data.tobytes() == want.data.tobytes()

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(5)
        data = rng.random((14, 14, 14)) * 10.0
        resp = meijering_response(make_volume(data), scales_mm=(1.5,)).data
        for axes in ((0, 1), (0, 2), (1, 2)):
            rotated = np.rot90(data, k=1, axes=axes).copy()
            resp_rot = meijering_response(make_volume(rotated), scales_mm=(1.5,)).data
            assert np.allclose(resp_rot, np.rot90(resp, k=1, axes=axes), atol=1e-9)

    def test_polarity_selects_dark_sheets(self):
        # Dark plane in bright volume: the response peaks on it.  The
        # inverted volume's bright plane is no wall: its peak lies beside it.
        data = np.full((25, 16, 16), 100.0)
        data[12, :, :] = 0.0
        dark = meijering_response(make_volume(data), scales_mm=(1.5,))
        bright = meijering_response(make_volume(100.0 - data), scales_mm=(1.5,))
        assert np.unravel_index(np.argmax(dark.data), dark.data.shape)[0] == 12
        assert np.unravel_index(np.argmax(bright.data), bright.data.shape)[0] != 12

    def test_empty_scales_rejected(self, tmp_path):
        assert stage_rejects("ridge", [()], tmp_path) == (
            "scales must be positive and finite, got ()")


# The phantom that the supervoxel tests also build.
PHANTOM_SPEC = PhantomSpec(dims=(80, 64, 24), bends=1, touch_pairs=0, seed=7)


def assert_hessian_bytes(vol, sigma_mm):
    for got, want in zip(slab_hessian(vol, sigma_mm), gaussian_hessian(vol, sigma_mm)):
        assert got.tobytes() == want.data.tobytes()


class TestSlabs:
    """The slab Hessian has the whole-volume filters' bytes, and the wall map
    does not depend on the worker count or the sub-slab height."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("rows", [1, 4, 1000])
    def test_hessian_matches_whole_volume(self, monkeypatch, workers, rows):
        monkeypatch.setattr(parallel, "workers", lambda: workers)
        monkeypatch.setattr(ridge, "_SLAB_ROWS", rows)
        vol = make_volume(np.random.default_rng(workers).random((23, 9, 7)) * 50.0)
        # Radius 6 rows: inner sub-slabs read past neither border.
        assert_hessian_bytes(vol, 1.5)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_hessian_axis0_shorter_than_radius(self, monkeypatch, workers):
        # sigma 8 voxels: every row reads the whole 5-row axis, reflected
        # more than once.
        monkeypatch.setattr(parallel, "workers", lambda: workers)
        monkeypatch.setattr(ridge, "_SLAB_ROWS", 1)
        vol = make_volume(np.random.default_rng(8).random((5, 9, 7)))
        assert_hessian_bytes(vol, 8.0)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_hessian_anisotropic_spacing(self, monkeypatch, workers, rows):
        monkeypatch.setattr(parallel, "workers", lambda: workers)
        monkeypatch.setattr(ridge, "_SLAB_ROWS", rows)
        vol = make_volume(np.random.default_rng(9).random((17, 12, 9)), (2.0, 1.0, 1.5))
        assert_hessian_bytes(vol, 2.5)

    @pytest.mark.parametrize("scales", [ridge.DEFAULT_SCALES_MM, (2.0,)])
    def test_float32_map_matches_whole_volume_pipeline(self, scales):
        # The artifact contract: the float32 rounding of the whole-volume
        # float64 map, byte for byte.
        vol, _, _ = generate_phantom(PHANTOM_SPEC)
        got = meijering_response(vol, scales)
        want = meijering_response_whole_volume(vol, scales)
        want = want.like(want.data.astype(np.float32))
        assert got.data.dtype == np.float32
        assert got.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("rows", [1, 7])
    def test_float32_map_matches_whole_volume_on_any_slabs(
            self, monkeypatch, phantom_map, workers, rows):
        vol, want = phantom_map
        monkeypatch.setattr(parallel, "workers", lambda: workers)
        monkeypatch.setattr(ridge, "_SLAB_ROWS", rows)
        assert meijering_response(vol).data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 3, 7])
    @pytest.mark.parametrize("source", ["random", "phantom"])
    def test_response_independent_of_workers_and_slabs(self, monkeypatch, workers, source):
        if source == "random":
            vol = make_volume(np.random.default_rng(4).random((13, 9, 7)) * 50.0)
        else:
            vol, _, _ = generate_phantom(PHANTOM_SPEC)
        expected = meijering_response(vol).data
        monkeypatch.setattr(parallel, "workers", lambda: workers)
        # Many sub-slabs, and a short last one.
        monkeypatch.setattr(ridge, "_SLAB_ROWS", 1 if source == "random" else 7)
        got = meijering_response(vol).data
        assert got.tobytes() == expected.tobytes()

    def test_memory_peak_bounded(self, monkeypatch):
        # folded-hard's grid, in float64 volumes.  Besides one scale's
        # float64 map and the float32 response (1.5 volumes), the filter
        # holds only one worker's sub-slab buffers: 2.36 volumes in all
        # (2.44 with scipy's passes, which kept a second buffer of input
        # rows).  One worker runs every sub-slab in this process, where
        # tracemalloc sees its buffers, and the map becomes an ordinary
        # array, which it sees too.  A whole-volume float64 copy of the input would add 1.0; a
        # float64 response and 16-row sub-slabs with that copy gave 5.7 at
        # 2 workers, the whole-volume Hessian and eigvalsh slabs 16.1.
        monkeypatch.setattr(parallel, "workers", lambda: 1)
        monkeypatch.setattr(parallel, "shared_array", np.zeros)
        vol = memory_phantom()
        peak = traced_peak(meijering_response, vol)
        assert peak <= 3.0 * vol.data.size * 8

    @pytest.mark.parametrize("workers", [2, 8, 16])
    def test_worker_memory_bounded(self, monkeypatch, workers):
        # Each range, in this process or a forked worker, allocates only its
        # sub-slab buffers on top of what the process held: 0.85 volumes
        # today, one of `read` rows, the axis-0 pass and six Hessian arrays
        # of 8 rows, one axis-2 line and the sheet response's temporaries
        # (0.94 with scipy's passes).  A worker writes at least one
        # sub-slab's input rows, so past 8 workers there are fewer ranges
        # than workers.
        monkeypatch.setattr(parallel, "workers", lambda: workers)
        vol = memory_phantom()
        peaks = range_peaks(monkeypatch, meijering_response, vol)
        assert min(peaks) > 0
        assert max(peaks) <= 1.0 * vol.data.size * 8


def one_axis_taps(axis, sigma_vox):
    """Taps that filter along `axis` alone: scipy's weights of radius
    ceil(4 sigma) there, and the one weight 1.0, which leaves every value
    as it is, along the other two axes."""
    taps = [np.ones((3, 1))] * 3
    taps[axis] = ridge._taps(sigma_vox, math.ceil(4.0 * sigma_vox))
    return taps


def compiled_hessian(data, taps):
    """The six components `ridge._filter_rows` writes for every row of
    `data`, with scales of 1."""
    h, rows = np.empty((6,) + data.shape), np.empty(data.shape)
    buf = np.empty(data.shape[2] + taps[2].shape[1] - 1)
    ridge._filter_rows(data, 0, len(data), taps, np.ones(6), h, rows, buf)
    return h


def signed_data(shape, seed):
    """Random values over runs of +0.0, -0.0 and two constants, 3 voxels
    long along each axis, so that sums of zeros have a sign to check."""
    rng = np.random.default_rng(seed)
    coarse = rng.choice([0.0, -0.0, 2.5, -1.0], size=[-(-n // 3) for n in shape])
    data = coarse.repeat(3, 0).repeat(3, 1).repeat(3, 2)[tuple(map(slice, shape))].copy()
    noisy = rng.random(shape) < 0.4
    data[noisy] = rng.normal(size=int(noisy.sum()))
    return data


class TestCompiledPasses:
    """The kernel's one-axis passes against scipy's, its checks, and its
    build: loaded before the wall filter forks, with an AVX2 clone and a
    default one of the same bytes."""

    @pytest.mark.parametrize("sigma", [1.0, 1.5, 3.0, 8.0])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("shape", [(19, 14, 23), (3, 2, 5)])
    def test_one_axis_pass_is_scipys(self, shape, axis, sigma):
        # Radius 4 to 32: every line of the small volume, and every line
        # of the other at sigma 8, is shorter than the radius.
        data = signed_data(shape, axis)
        h = compiled_hessian(data, one_axis_taps(axis, sigma))
        for k, orders in enumerate(ridge._ORDERS):
            want = ndimage.gaussian_filter1d(data, sigma, axis=axis, order=orders[axis],
                                             mode="reflect", radius=math.ceil(4.0 * sigma))
            assert h[k].tobytes() == want.tobytes()

    def test_signed_zeros_reach_the_output(self):
        # The bit test above sees zeros of both signs come out.
        data = signed_data((19, 14, 23), 0)
        h = compiled_hessian(data, one_axis_taps(2, 1.0))
        assert np.signbit(h[h == 0]).any() and not np.signbit(h[h == 0]).all()

    def test_inconsistent_arguments_are_rejected(self):
        """The kernel reads and writes through raw pointers, so every length
        and type is checked before it runs."""
        data = np.random.default_rng(0).random((7, 5, 6))
        taps = [ridge._taps(1.5, 6)] * 3
        h, rows, buf = np.empty((6, 3, 5, 6)), np.empty((3, 5, 6)), np.empty(18)
        ridge._filter_rows(data, 2, 5, taps, np.ones(6), h, rows, buf)
        bad = [
            (data.astype(np.float32), 2, 5, taps, np.ones(6), h, rows, buf),
            (np.asfortranarray(data), 2, 5, taps, np.ones(6), h, rows, buf),
            (data[:, :, :0], 2, 5, taps, np.ones(6), h[..., :0], rows[..., :0], buf),
            (data, 5, 5, taps, np.ones(6), h, rows, buf),
            (data, 4, 8, taps, np.ones(6), h, rows, buf),
            (data, -1, 2, taps, np.ones(6), h, rows, buf),
            (data, 1, 5, taps, np.ones(6), h, rows, buf),
            (data, 2, 5, [taps[0][:2], *taps[1:]], np.ones(6), h, rows, buf),
            (data, 2, 5, [taps[0][:, 1:], *taps[1:]], np.ones(6), h, rows, buf),
            (data, 2, 5, [*taps[:2], taps[2].astype(np.float32)], np.ones(6), h, rows, buf),
            (data, 2, 5, taps, np.ones(5), h, rows, buf),
            (data, 2, 5, taps, np.ones(6), h[:5], rows, buf),
            (data, 2, 5, taps, np.ones(6), h[:, :, :4], rows, buf),
            (data, 2, 5, taps, np.ones(6), h, rows[:2], buf),
            (data, 2, 5, taps, np.ones(6), h, rows[:, :4], buf),
            (data, 2, 5, taps, np.ones(6), h, rows, buf[:17]),
        ]
        for args in bad:
            with pytest.raises(InvariantError, match="cannot filter rows"):
                ridge._filter_rows(*args)

    def test_weights_that_are_not_exactly_symmetric_are_rejected(self, monkeypatch):
        # scipy would take its general path, whose sums the kernel lacks.
        real = ridge._filters._gaussian_kernel1d

        def nudged(sigma, order, radius):
            w = real(sigma, order, radius)
            w[0] = np.nextafter(w[0], 1.0)
            return w

        monkeypatch.setattr(ridge._filters, "_gaussian_kernel1d", nudged)
        with pytest.raises(InvariantError, match="order-0 Gaussian of sigma 1.5 voxels"):
            ridge._taps(1.5, 6)

    def test_kernel_loaded_before_the_fork(self, monkeypatch):
        # Loaded in a forked worker, the kernel would be loaded, or even
        # compiled, once per worker.
        fork, forks = parallel._fork, []

        def checked_fork():
            assert kernel.load.cache_info().currsize == 1, "the kernel is not loaded yet"
            forks.append(True)
            return fork()

        monkeypatch.setattr(parallel, "_fork", checked_fork)
        monkeypatch.setattr(parallel, "workers", lambda: 2)
        kernel.load.cache_clear()
        vol = make_volume(np.random.default_rng(3).random((48, 9, 7)))
        meijering_response(vol, scales_mm=(1.5,))
        assert forks

    @pytest.mark.skipif(platform.machine() != "x86_64" or platform.libc_ver()[0] != "glibc",
                        reason="the AVX2 clone is built for x86-64 glibc only")
    def test_hessian_has_an_avx2_clone(self):
        assert b"ridge_hessian.avx2" in Path(kernel.load()._name).read_bytes()

    def test_default_clone_matches_whole_volume(self, source_copy):
        """The Hessian built with no AVX2 clone, as for a CPU, compiler or C
        library without one."""
        source = source_copy.read_text()
        clones = 'target_clones("avx2", "default")'
        assert source.count(clones) == 1
        source_copy.write_text(source.replace(clones, "unused"))
        assert b"ridge_hessian.avx2" not in Path(kernel.load()._name).read_bytes()
        vol = make_volume(np.random.default_rng(9).random((17, 12, 9)), (2.0, 1.0, 1.5))
        assert_hessian_bytes(vol, 2.5)


def memory_phantom():
    vol, _, _ = generate_phantom(PhantomSpec(
        dims=(128, 128, 56), spacing=(2.0, 2.0, 2.0), bends=5, touch_pairs=3, seed=1))
    return vol


@pytest.fixture(scope="module")
def phantom_map():
    """PHANTOM_SPEC's intensity and the float32 rounding of its whole-volume
    wall map."""
    vol, _, _ = generate_phantom(PHANTOM_SPEC)
    wall = meijering_response_whole_volume(vol, ridge.DEFAULT_SCALES_MM)
    return vol, wall.like(wall.data.astype(np.float32))


# Documented error of the closed-form response, in units of max|l|.
RANDOM_BOUND = 4e-12
SEPARATED_BOUND = 5e-13     # two smallest eigenvalues >= 1e-3 max|l| apart
COINCIDENT_BOUND = 3e-8     # two smallest eigenvalues nearly equal


def rotated_hessians(spectra, seed):
    """The six upper-triangle components of Q diag(l) Q^T, one random
    rotation Q per spectrum l."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(len(spectra), 3, 3)))
    h = np.einsum("nij,nj,nkj->nik", q, spectra, q)
    return np.stack([h[:, 0, 0], h[:, 0, 1], h[:, 0, 2], h[:, 1, 1], h[:, 1, 2], h[:, 2, 2]])


def closed_form(h):
    out = np.empty(h.shape[1:])
    ridge._sheet_response(h.copy(), out)
    return out


def relative_error(h):
    """|closed form - eigvalsh response| / max|l| per matrix."""
    hxx, hxy, hxz, hyy, hyz, hzz = h
    hmat = np.stack([np.stack([hxx, hxy, hxz], -1),
                     np.stack([hxy, hyy, hyz], -1),
                     np.stack([hxz, hyz, hzz], -1)], -2)
    scale = np.abs(np.linalg.eigvalsh(hmat)).max(axis=-1)
    return np.abs(closed_form(h) - sheet_response_eigvalsh(h)) / scale


class TestClosedForm:
    """The closed-form smallest eigenvalue against LAPACK eigvalsh."""

    def test_random_spectra(self):
        spectra = np.random.default_rng(0).normal(size=(50_000, 3))
        assert relative_error(rotated_hessians(spectra, 1)).max() <= RANDOM_BOUND

    def test_separated_spectra(self):
        spectra = np.sort(np.random.default_rng(2).normal(size=(50_000, 3)), axis=1)
        gap = spectra[:, 1] - spectra[:, 0]
        spectra = spectra[gap >= 1e-3 * np.abs(spectra).max(axis=1)]
        assert relative_error(rotated_hessians(spectra, 3)).max() <= SEPARATED_BOUND

    @pytest.mark.parametrize("gap", [10.0**-k for k in range(1, 14)])
    def test_near_repeated_smallest(self, gap):
        rng = np.random.default_rng(4)
        spectra = rng.normal(size=(5_000, 3))
        spectra[:, 1] = spectra[:, 0] + gap * np.abs(spectra).max(axis=1)
        spectra[:, 2] = np.maximum(spectra[:, 2], spectra[:, 1] + 0.1)
        bound = SEPARATED_BOUND if gap >= 1e-3 else COINCIDENT_BOUND
        assert relative_error(rotated_hessians(spectra, 5)).max() <= bound

    @pytest.mark.parametrize("pattern, bound", [
        ((0, 0, 1), COINCIDENT_BOUND), ((0, 1, 1), SEPARATED_BOUND), ((0, 0, 0), COINCIDENT_BOUND)])
    def test_exactly_repeated(self, pattern, bound):
        rng = np.random.default_rng(6)
        mu = rng.normal(size=5_000)
        lam = mu + np.abs(rng.normal(size=5_000)) + 0.01
        spectra = np.stack([(mu, lam)[i] for i in pattern], axis=1)
        assert relative_error(rotated_hessians(spectra, 7)).max() <= bound

    def test_zero_hessian(self):
        # Exactly 0, with the eigvalsh form's sign bit.
        h = np.zeros((6, 4))
        out = closed_form(h)
        assert np.all(out == 0.0)
        assert out.tobytes() == sheet_response_eigvalsh(h).tobytes()

    def test_ideal_sheet(self):
        # Spectrum (l, 0, 0), l < 0: l'_1 = l, so the response is -l.
        lam = -np.abs(np.random.default_rng(8).normal(size=5_000)) - 0.01
        spectra = np.stack([lam, 0 * lam, 0 * lam], axis=1)
        axis_aligned = np.zeros((6, len(lam)))
        axis_aligned[0] = lam
        for h in (axis_aligned, rotated_hessians(spectra, 9)):
            assert np.max(np.abs(closed_form(h) + lam) / -lam) <= SEPARATED_BOUND
            assert relative_error(h).max() <= SEPARATED_BOUND


def special_hessians(seed):
    """Six-component Hessians over the cases where rounding and signs are
    easiest to change: random entries, zeros with either sign, isotropic
    matrices (p = 0), small integers and magnitudes near 1e+-150."""
    rng = np.random.default_rng(seed)
    n = 20_000
    cases = [rng.normal(size=(6, n)),
             np.zeros((6, 64)),
             -np.zeros((6, 64)),
             rng.choice([0.0, -0.0], size=(6, 64)),
             rng.integers(-3, 4, size=(6, n)).astype(np.float64)]
    iso = np.zeros((6, 1000))
    iso[[0, 3, 5]] = rng.normal(size=1000)
    cases.append(iso)
    for exponent in (-150, 150):
        cases.append(rng.normal(size=(6, n)) * 10.0**exponent)
    mixed = rng.normal(size=(6, n))
    mixed[rng.random((6, n)) < 0.3] = 0.0
    cases.append(mixed)
    return np.concatenate(cases, axis=1)


@pytest.mark.parametrize("seed", [0, 1])
def test_sheet_response_matches_in_place_oracle_bitwise(seed):
    h = special_hessians(seed)
    want = np.empty(h.shape[1:])
    with np.errstate(all="ignore"):     # 1e+-150 entries overflow to NaN in both
        sheet_response_in_place(h.copy(), np.empty((3,) + h.shape[1:]), want)
        got = closed_form(h)
    assert got.tobytes() == want.tobytes()
