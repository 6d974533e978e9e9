"""Hessian wall-detection filter: analytic values, brute-force convolution
oracle, and the published invariants (shift, range, rotation)."""

import functools

import numpy as np
import pytest
from scipy.ndimage import binary_erosion, correlate

from boweltrack import parallel, ridge
from boweltrack.phantom import PhantomSpec, generate_phantom
from boweltrack.ridge import gaussian_hessian, meijering_response
from boweltrack.volume_io import Volume

from oracles import _gaussian_kernel1d

HESSIAN_ORDERS = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]


def oracle_hessian(data, sigma_mm, spacing):
    """Each Hessian component as one 3D correlation with the product of the
    oracle's 1D kernels, scaled as gaussian_hessian scales it."""
    shifted = data - data.min()
    for orders in HESSIAN_ORDERS:
        k1, k2, k3 = (_gaussian_kernel1d(sigma_mm / spacing, o) for o in orders)
        kernel3d = k1[:, None, None] * k2[None, :, None] * k3[None, None, :]
        scale = sigma_mm**2 / spacing ** sum(orders)
        yield correlate(shifted, kernel3d, mode="reflect") * scale


def make_volume(data, spacing=(1.0, 1.0, 1.0)):
    return Volume(np.asarray(data, dtype=np.float64), spacing, (0.0, 0.0, 0.0))


class TestGaussianHessian:
    def test_constant_volume_all_zero(self):
        vol = make_volume(np.full((12, 10, 8), 37.0))
        for comp in gaussian_hessian(vol, 1.5):
            assert np.all(comp.data == 0.0)

    def test_x_squared_ramp(self):
        # Gaussian smoothing leaves the second derivative of x^2 at exactly
        # 2; the sampled kernels land within 5% after undoing the sigma^2
        # scale normalisation.
        nx, ny, nz = 32, 12, 12
        sp = (2.0, 2.0, 2.0)
        x_mm = (np.arange(nx) + 0.5) * sp[0]
        vol = make_volume(np.broadcast_to((x_mm**2)[:, None, None], (nx, ny, nz)).copy(), sp)
        sigma = 4.0
        hxx, hxy, hxz, hyy, hyz, hzz = gaussian_hessian(vol, sigma)
        interior = (slice(10, -10), slice(4, -4), slice(4, -4))
        dxx = hxx.data[interior] / sigma**2
        assert np.all(np.abs(dxx - 2.0) <= 0.1)
        # Cross terms vanish; the axis-aligned ramp has no mixed curvature.
        assert np.all(np.abs(hxy.data[interior]) <= 1e-9)
        assert np.all(np.abs(hxz.data[interior]) <= 1e-9)

    def test_separable_equals_direct_3d_convolution(self):
        rng = np.random.default_rng(42)
        data = rng.random((11, 11, 11))
        vol = make_volume(data)
        sigma = 1.2
        components = gaussian_hessian(vol, sigma)
        for comp, direct in zip(components, oracle_hessian(data, sigma, 1.0)):
            assert np.max(np.abs(comp.data - direct)) <= 1e-5

    def test_kernel_support_is_ceil_four_sigma(self):
        # sigma 2 mm at 1.5 mm spacing is 4/3 voxel: the oracle's support
        # ceil(16/3) = 6 is one voxel wider than scipy's default
        # int(16/3 + 0.5) = 5; the narrower kernel is off by ~3e-4 here.
        rng = np.random.default_rng(7)
        data = rng.random((15, 14, 13))
        sp = 1.5
        sigma = 2.0
        components = gaussian_hessian(make_volume(data, (sp, sp, sp)), sigma)
        for comp, direct in zip(components, oracle_hessian(data, sigma, sp)):
            assert np.max(np.abs(comp.data - direct)) <= 1e-12

    def test_sigma_below_spacing_rejected(self):
        vol = make_volume(np.zeros((8, 8, 8)), spacing=(2.0, 2.0, 2.0))
        with pytest.raises(ValueError, match="spacing"):
            gaussian_hessian(vol, 1.0)

    def test_bad_sigma_rejected(self):
        vol = make_volume(np.zeros((8, 8, 8)))
        for sigma in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                gaussian_hessian(vol, sigma)


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

    def test_empty_scales_rejected(self):
        vol = make_volume(np.zeros((8, 8, 8)))
        with pytest.raises(ValueError, match="scales"):
            meijering_response(vol, scales_mm=())


def whole_volume_response(hessian):
    """max(0, -min_i l'_i) from one (X, Y, Z, 3, 3) eigvalsh call."""
    hxx, hxy, hxz, hyy, hyz, hzz = hessian
    hmat = np.stack([np.stack([hxx, hxy, hxz], -1),
                     np.stack([hxy, hyy, hyz], -1),
                     np.stack([hxz, hyz, hzz], -1)], -2)
    eigs = np.linalg.eigvalsh(hmat)
    return np.maximum(0.0, -(eigs[..., 0] - (eigs[..., 1] + eigs[..., 2]) / 3.0))


class TestSlabs:
    """The wall map does not depend on the worker count or the slab size."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_slab_eigenvalues_match_whole_volume(self, monkeypatch, workers):
        monkeypatch.setattr(parallel, "workers", lambda: workers)
        rng = np.random.default_rng(workers)
        hessian = tuple(rng.normal(size=(11, 5, 4)) for _ in range(6))
        out = np.full((11, 5, 4), np.nan)
        # 64-voxel slabs: the 220 voxels end in a 28-voxel slab.
        parallel.map_ranges(
            functools.partial(ridge._sheet_response, tuple(h.reshape(-1) for h in hessian),
                              out.reshape(-1)),
            out.size, 64)
        assert np.array_equal(out, whole_volume_response(hessian))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("source", ["random", "phantom"])
    def test_response_independent_of_workers_and_slabs(self, monkeypatch, workers, source):
        if source == "random":
            vol = make_volume(np.random.default_rng(4).random((13, 9, 7)) * 50.0)
        else:
            vol, _, _ = generate_phantom(
                PhantomSpec(dims=(80, 64, 24), bends=1, touch_pairs=0, seed=7))
        expected = meijering_response(vol).data
        monkeypatch.setattr(parallel, "workers", lambda: workers)
        # Many slabs, split inside axis-0 rows, and a short last one.
        monkeypatch.setattr(ridge, "_SLAB_VOXELS", 100 if source == "random" else 1000)
        got = meijering_response(vol).data
        assert got.tobytes() == expected.tobytes()
