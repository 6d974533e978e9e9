"""Wall detection: multi-scale Hessian eigenvalue response.

Tube walls separate two lumens by a thin dark sheet.  After inverting the
image, such sheets carry one strongly negative Hessian eigenvalue, which the
response below turns into a wall likelihood in [0, 1].
"""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
from scipy.ndimage import _filters

from . import kernel, parallel
from .errors import InvariantError
from .volume_io import Volume

DEFAULT_SCALES_MM = (2.0, 3.0)
# Output rows (axis 0) per Hessian sub-slab, whatever the worker count.
_SLAB_ROWS = 8

# Derivative orders per axis of Hxx, Hxy, Hxz, Hyy, Hyz, Hzz, the
# components in the order of kernel.c's ORDERS.
_ORDERS = ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))


def _check_scales(scales_mm, spacing) -> tuple:
    """The scales as floats, each one checked before any filtering: one below
    the smallest spacing raises, one below another axis's spacing warns."""
    scales = tuple(float(s) for s in scales_mm)
    for sigma_mm in scales:
        if sigma_mm < min(spacing):
            raise ValueError(
                f"sigma_mm {sigma_mm} below voxel spacing {min(spacing)}; "
                "the kernel would be undersampled"
            )
    for sigma_mm, (axis, sp) in itertools.product(scales, enumerate(spacing)):
        if sigma_mm < sp:
            warnings.warn(f"sigma_mm {sigma_mm} below axis {axis}'s voxel spacing {float(sp)}; "
                          "the kernel is undersampled along that axis", stacklevel=3)
    return scales


def _taps(sigma_vox: float, radius: int) -> np.ndarray:
    """The weights `ndimage.gaussian_filter1d` hands to `correlate1d` for
    orders 0, 1 and 2, one row each.  scipy takes its symmetric path for the
    even orders and its antisymmetric one for order 1, whose arithmetic the
    kernel has; they are checked to be exactly symmetric or antisymmetric."""
    taps = np.array([_filters._gaussian_kernel1d(sigma_vox, order, radius)[::-1]
                     for order in (0, 1, 2)])
    for order, w in enumerate(taps):
        mirror = w[::-1] if order % 2 == 0 else -w[::-1]
        if not np.array_equal(w[:radius], mirror[:radius]):
            raise InvariantError(f"the order-{order} Gaussian of sigma {sigma_vox} voxels "
                                 "is not exactly (anti)symmetric")
    return taps


def _filter_rows(data, r0: int, r1: int, taps, scales, h, rows, buf) -> None:
    """Hessian rows r0..r1 of the C-ordered float64 volume `data` into
    h[:, :r1 - r0]: component k filtered along axes 0, 1 and 2 with the taps
    of its orders (`_ORDERS`), then multiplied by scales[k], all float64.
    taps[a] holds axis a's weights, one row of 2 R_a + 1 per order.  The
    compiled kernel reads `data` with axis 0 reflected at its own ends, so
    the rows of a clipped sub-slab must reach R_0 rows past r0 and r1, or
    the volume's border.  `rows` holds r1 - r0 rows of the axis-0 pass and
    `buf` one axis-2 line with R_2 reflected values on either side."""
    n0, n1, n2 = data.shape
    radius = [(w.shape[1] - 1) // 2 for w in taps]
    if (data.dtype != np.float64 or not data.flags.c_contiguous or not data.size
            or not 0 <= r0 < r1 <= n0
            or any(w.dtype != np.float64 or w.shape != (3, 2 * r + 1)
                   for w, r in zip(taps, radius))
            or scales.shape != (6,) or h.shape[0] != 6 or h.shape[2:] != (n1, n2)
            or h.shape[1] < r1 - r0 or rows.shape[1:] != (n1, n2) or len(rows) < r1 - r0
            or len(buf) < n2 + 2 * radius[2]):
        raise InvariantError(f"cannot filter rows {r0}..{r1} of a {data.dtype} volume of "
                             f"shape {data.shape}")
    kernel.load().ridge_hessian(data, n0, n1, n2, r0, r1, taps[0], radius[0], taps[1],
                                radius[1], taps[2], radius[2], scales, h, h.shape[1], rows,
                                buf)


def _hessian_slabs(fill, shape, spacing, sigma_mm: float, consume) -> None:
    """Scale-normalised Hessian at physical scale sigma_mm of a float64
    volume of `shape`, one sub-slab of axis-0 rows at a time.

    fill(s0, s1, out) writes rows [s0, s1) of the volume to `out`, so no
    whole-volume copy of it is made.  Calls consume(a, b, h) once for each
    of the disjoint row ranges [a, b) that cover axis 0, in up to
    parallel.workers() forked processes (`parallel.fork_ranges`), so what
    consume writes for the caller must go to `parallel.shared_array`
    buffers made before the call.  h[k] holds component k (Hxx, Hxy, Hxz,
    Hyy, Hyz, Hzz) of rows a..b: second derivatives in 1/mm^2 multiplied by
    sigma_mm^2.  consume may overwrite h.

    The bytes equal those of ndimage.gaussian_filter(volume, order=...) on
    the whole volume.  The kernel makes the same one-axis passes, axis 0
    first, with scipy's arithmetic, and writes only rows a..b of each; the
    three axis-0 orders are filtered once each and shared by the components
    that need them.  An
    output row of the axis-0 pass reads only input rows within its radius
    R0; so rows [a - R0, b + R0), clipped to the volume, give rows a..b,
    and a clipped end is the volume's own border.
    """
    n = shape[0]
    sigma_vox = [sigma_mm / s for s in spacing]
    # Support ceil(4 sigma) per axis; scipy's default int(4 sigma + 0.5) is
    # one voxel shorter when 4 sigma has a fraction below one half.
    radius = [max(1, math.ceil(4.0 * s)) for s in sigma_vox]
    taps = [_taps(s, r) for s, r in zip(sigma_vox, radius)]
    scales = np.array([sigma_mm**2 / spacing[0]**o0 / spacing[1]**o1 / spacing[2]**o2
                       for o0, o1, o2 in _ORDERS])
    # Built or loaded here, once, not in each forked worker.
    kernel.load()

    rows = _SLAB_ROWS
    read = rows + 2 * radius[0]     # input rows of one sub-slab, unclipped
    # Each worker writes at least `read` rows, so the workers' buffers (one
    # of `read` rows; the axis-0 pass, six Hessian arrays and up to four
    # sheet-response temporaries of `rows` rows each) hold about
    # 1 + 11 rows / read volumes at most, whatever the CPU count.
    size = max(-(-n // parallel.workers()), read)
    span = min(read, n)

    def slab(lo, hi):
        data = np.empty((span,) + shape[1:])
        h = np.empty((6, min(rows, hi - lo)) + shape[1:])
        scratch, line = np.empty(h.shape[1:]), np.empty(shape[2] + 2 * radius[2])
        for a in range(lo, hi, rows):
            b = min(a + rows, hi)
            s0, s1 = max(0, a - radius[0]), min(n, b + radius[0])
            fill(s0, s1, data[:s1 - s0])
            _filter_rows(data[:s1 - s0], a - s0, b - s0, taps, scales, h, scratch, line)
            consume(a, b, h[:, :b - a])

    parallel.fork_ranges(slab, n, size)


def _sheet_response(h, out) -> None:
    """max(0, -l'_1) of the Hessians h, written to out; h is overwritten.

    l'_1 = l1 - (tr - l1)/3 belongs to the smallest eigenvalue l1, which
    comes from the trigonometric solution of the characteristic polynomial
    (Smith, CACM 1961): with q = tr/3, p = |H - qI|_F / sqrt(6) and
    r = det(H - qI) / (2 p^3), l1 = q + 2p cos(acos(r)/3 + 2 pi/3), so
    l'_1 = q/3 + 4(l1 - q)/3.  A zero Hessian gives exactly 0.
    """
    xx, xy, xz, yy, yz, zz = h
    q = (xx + yy + zz) / 3.0
    xx -= q
    yy -= q
    zz -= q
    # det(H - qI) by cofactors of the first row.
    r = (yy * zz - yz * yz) * xx - (xy * zz - yz * xz) * xy + (xy * yz - yy * xz) * xz
    # p^2 = (|diagonal|^2 + 2 |off-diagonal|^2) / 6
    h *= h
    p = np.sqrt((xx + yy + zz + (xy + xz + yz) * 2.0) / 6.0)
    # p = 0 only where every entry of H - qI squares to 0, so det is 0 too:
    # r = 0 and l1 = q.
    r /= np.maximum(p * p * p * 2.0, np.finfo(np.float64).tiny, out=xx)
    np.clip(r, -1.0, 1.0, out=r)
    np.cos(np.arccos(r, out=r) / 3.0 + 2.0 * math.pi / 3.0, out=r)
    # -l'_1 = -(q + 4 (l1 - q)) / 3.  As in the eigvalsh form, a zero
    # Hessian gives l'_1 = +0 and a response of np.maximum(0.0, -0.0) = -0.0.
    np.maximum(0.0, (r * p * 8.0 + q) / -3.0, out=out)


def meijering_response(vol: Volume, scales_mm=DEFAULT_SCALES_MM) -> Volume:
    """Multi-scale sheet/line response in [0, 1], as float32: the wall map.

    Per scale: eigenvalues l1 <= l2 <= l3 of the Hessian are shifted to
    l'_i = l_i - (sum of the other two) / 3 and the response is
    max(0, -min_i l'_i) = max(0, -l'_1), normalised by its volume-wide
    maximum.  The final map is the voxelwise maximum over scales.  The input
    is negated first so dark sheets (walls between bright lumens) light up,
    and its minimum is subtracted so constant volumes give exact zeros.

    Each sub-slab writes max(I) - I of its own input rows I, in float64, and
    the maximum over scales is kept in float32.  Rounding is monotone, so it
    holds the float32 rounding of the float64 maximum, byte for byte.

    The Hessian is built one slab of axis-0 rows at a time with the bytes
    of whole-volume Gaussian derivative filters, and l1 comes in closed form.
    Against LAPACK eigvalsh on 200k randomly rotated matrices, the per-scale
    response was off by at most 3.5e-12 max|l| on random spectra and 3e-13
    max|l| where the two smallest eigenvalues are at least 1e-3 max|l|
    apart, but by up to 2e-8 max|l| where they nearly coincide (acos near
    its argument +1); the tests hold it to 4e-12, 5e-13 and 3e-8.  Even the
    last is below float32 spacing (1.2e-7 relative), though it can still
    move a value across a float32 rounding boundary; the float32 map
    matched the eigvalsh one byte for byte on every bench phantom.
    """
    scales = _check_scales(scales_mm, vol.spacing)
    intensity = vol.data
    top = np.float64(intensity.max())

    def fill(s0, s1, out):
        np.subtract(top, intensity[s0:s1], out=out, dtype=np.float64)

    response = np.zeros(vol.dims, dtype=np.float32)
    r = parallel.shared_array(vol.dims, np.float64)
    for sigma in scales:
        _hessian_slabs(fill, vol.dims, vol.spacing, sigma,
                       lambda a, b, h: _sheet_response(h, r[a:b]))
        peak = r.max()
        if peak > 0:
            r /= peak
        # The maximum in float64, rounded to float32 in numpy's small
        # buffered chunks: no float64 or float32 copy of r.
        np.maximum(response, r, out=response)
    return vol.like(response)
