"""Wall detection: multi-scale Hessian eigenvalue response.

Tube walls separate two lumens by a thin dark sheet.  After inverting the
image, such sheets carry one strongly negative Hessian eigenvalue, which the
response below turns into a wall likelihood in [0, 1].
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

from .volume_io import Volume

DEFAULT_SCALES_MM = (2.0, 3.0)


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

    components = []
    for orders in ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)):
        scale = sigma_mm**2
        for s, order in zip(vol.spacing, orders):
            scale /= s**order
        d = ndimage.gaussian_filter(data, sigma_vox, order=orders, mode="reflect",
                                    radius=radius)
        d *= scale
        components.append(vol.like(d))
    return tuple(components)


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

    response = np.zeros(vol.dims, dtype=np.float64)
    for sigma in scales:
        hxx, hxy, hxz, hyy, hyz, hzz = (h.data for h in gaussian_hessian(src, sigma))
        # Filled in place: building it with np.stack measured ~110 MB more
        # peak RSS on the 1 mm bench phantom (192x192x48).
        hmat = np.empty(vol.dims + (3, 3), dtype=np.float64)
        hmat[..., 0, 0] = hxx
        hmat[..., 0, 1] = hmat[..., 1, 0] = hxy
        hmat[..., 0, 2] = hmat[..., 2, 0] = hxz
        hmat[..., 1, 1] = hyy
        hmat[..., 1, 2] = hmat[..., 2, 1] = hyz
        hmat[..., 2, 2] = hzz
        eigs = np.linalg.eigvalsh(hmat)
        # l'_i = l_i - (S - l_i)/3 is increasing in l_i, so its minimum
        # belongs to the smallest eigenvalue.
        lp_min = eigs[..., 0] - (eigs[..., 1] + eigs[..., 2]) / 3.0
        r = np.maximum(0.0, -lp_min)
        peak = r.max()
        if peak > 0:
            r /= peak
        np.maximum(response, r, out=response)
    return vol.like(response)
