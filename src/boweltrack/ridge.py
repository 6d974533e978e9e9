"""Wall detection: multi-scale Hessian eigenvalue response.

Tube walls separate two lumens by a thin dark sheet.  After inverting the
image, such sheets carry one strongly negative Hessian eigenvalue, which the
response below turns into a wall likelihood in [0, 1].
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import ndimage

from . import parallel
from .volume_io import Volume

DEFAULT_SCALES_MM = (2.0, 3.0)
# Voxels per eigenvalue slab, whatever the worker count.  2^16 measured
# about 12 MB more resident memory after the wall filter on the 1 mm bench
# phantom: malloc keeps what the worker threads free in their own arenas.
_SLAB_VOXELS = 1 << 14


def gaussian_hessian(vol: Volume, sigma_mm: float):
    """Scale-normalised Hessian of a volume at physical scale sigma_mm.

    Returns six Volumes (Hxx, Hxy, Hxz, Hyy, Hyz, Hzz) holding second
    derivatives in 1/mm^2 units multiplied by sigma_mm^2.  The input mean
    level is removed first so constant volumes produce exact zeros and the
    result is invariant under adding a constant.
    """
    if not (sigma_mm > 0) or not math.isfinite(sigma_mm):
        raise ValueError(f"sigma_mm must be positive and finite, got {sigma_mm}")
    if sigma_mm < min(vol.spacing):
        raise ValueError(
            f"sigma_mm {sigma_mm} below voxel spacing {min(vol.spacing)}; "
            "the kernel would be undersampled"
        )
    data = vol.data.astype(np.float64, copy=False)
    data = data - data.min()
    sigma_vox = [sigma_mm / s for s in vol.spacing]
    # Support ceil(4 sigma) per axis; scipy's default int(4 sigma + 0.5) is
    # one voxel shorter when 4 sigma has a fraction below one half.
    radius = [max(1, math.ceil(4.0 * s)) for s in sigma_vox]

    orders = ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
    # Allocated in this thread: glibc keeps what it frees in a worker
    # thread's arena, which measured ~100 MB more peak RSS on the 1 mm bench
    # phantom when the workers allocated the outputs.
    outputs = [np.empty(vol.dims) for _ in orders]

    def component(k, _stop):
        scale = sigma_mm**2
        for s, order in zip(vol.spacing, orders[k]):
            scale /= s**order
        ndimage.gaussian_filter(data, sigma_vox, order=orders[k], output=outputs[k],
                                mode="reflect", radius=radius)
        outputs[k] *= scale

    parallel.map_ranges(component, len(orders), 1)
    return tuple(vol.like(d) for d in outputs)


def _sheet_response(hessian, out, lo, hi) -> None:
    """max(0, -min_i l'_i) of the flat Hessian components' voxels lo..hi,
    written to the same voxels of out."""
    hxx, hxy, hxz, hyy, hyz, hzz = (h[lo:hi] for h in hessian)
    hmat = np.empty((hi - lo, 3, 3), dtype=np.float64)
    hmat[..., 0, 0] = hxx
    hmat[..., 0, 1] = hmat[..., 1, 0] = hxy
    hmat[..., 0, 2] = hmat[..., 2, 0] = hxz
    hmat[..., 1, 1] = hyy
    hmat[..., 1, 2] = hmat[..., 2, 1] = hyz
    hmat[..., 2, 2] = hzz
    eigs = np.linalg.eigvalsh(hmat)
    # l'_i = l_i - (S - l_i)/3 is increasing in l_i, so its minimum belongs
    # to the smallest eigenvalue.
    lp_min = eigs[..., 0] - (eigs[..., 1] + eigs[..., 2]) / 3.0
    np.maximum(0.0, -lp_min, out=out[lo:hi])


def meijering_response(vol: Volume, scales_mm=DEFAULT_SCALES_MM) -> Volume:
    """Multi-scale sheet/line response in [0, 1].

    Per scale: eigenvalues l1 <= l2 <= l3 of the Hessian are shifted to
    l'_i = l_i - (sum of the other two) / 3 and the response is
    max(0, -min_i l'_i), normalised by its volume-wide maximum.  The final
    map is the voxelwise maximum over scales.  The input is negated first so
    dark sheets (walls between bright lumens) light up.
    """
    scales = tuple(float(s) for s in scales_mm)
    if len(scales) == 0:
        raise ValueError("scales_mm must not be empty")
    src = Volume(-vol.data.astype(np.float64), vol.spacing, vol.origin)

    # Eigenvalues in slabs of _SLAB_VOXELS consecutive voxels in C order
    # (axis 0 slowest): the (slab, 3, 3) matrices take about 1 MB instead of
    # 72 B per voxel.
    response = np.zeros(vol.dims, dtype=np.float64)
    r = np.empty(vol.dims, dtype=np.float64)
    for sigma in scales:
        hessian = tuple(h.data.reshape(-1) for h in gaussian_hessian(src, sigma))
        parallel.map_ranges(functools.partial(_sheet_response, hessian, r.reshape(-1)),
                            r.size, _SLAB_VOXELS)
        peak = r.max()
        if peak > 0:
            r /= peak
        np.maximum(response, r, out=response)
    return vol.like(response)
