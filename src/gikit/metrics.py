"""Image-quality evaluation against a ground-truth mask.

The headline figure is the contrast-to-noise ratio

    CNR = (mean_in - mean_out) / sqrt((var_in + var_out) / 2)

with population variances over the pixels inside and outside the
transmitting region. CNR is invariant under positive affine transforms of
the image, so reconstructions can be compared without normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVarianceError
from .types import ObjectMask, ObjectScene, ReconImage

__all__ = ["CnrReport", "cnr", "mask_from_scene", "pearson", "normalize_minmax"]


@dataclass(frozen=True)
class CnrReport:
    cnr: float
    mean_in: float
    mean_out: float
    var_in: float
    var_out: float
    n_in: int
    n_out: int


def cnr(image: ReconImage, mask: ObjectMask) -> CnrReport:
    """Contrast-to-noise ratio of an image over a ground-truth mask."""
    if image.data.shape != mask.data.shape:
        raise ValueError(
            f"image is {image.height}x{image.width} but mask is {mask.height}x{mask.width}"
        )
    inside = image.data[mask.data]
    outside = image.data[~mask.data]
    mean_in = float(inside.mean())
    mean_out = float(outside.mean())
    var_in = float(inside.var())
    var_out = float(outside.var())
    pooled = 0.5 * (var_in + var_out)
    if pooled == 0.0:
        raise DegenerateVarianceError("both regions have zero variance; CNR undefined")
    return CnrReport(
        cnr=(mean_in - mean_out) / float(np.sqrt(pooled)),
        mean_in=mean_in,
        mean_out=mean_out,
        var_in=var_in,
        var_out=var_out,
        n_in=inside.size,
        n_out=outside.size,
    )


def mask_from_scene(scene: ObjectScene, threshold: float = 0.5) -> ObjectMask:
    """Threshold a transmission map into the in/out evaluation mask."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    return ObjectMask(scene.transmission >= threshold)


def pearson(image: ReconImage, reference) -> float:
    """Product-moment correlation between an image and a reference array."""
    ref = np.asarray(reference, dtype=np.float64)
    if ref.shape != image.data.shape:
        raise ValueError(f"reference shape {ref.shape} does not match image {image.data.shape}")
    a = image.data.ravel() - image.data.mean()
    b = ref.ravel() - ref.mean()
    na = float(np.sqrt(a @ a))
    nb = float(np.sqrt(b @ b))
    if na == 0.0 or nb == 0.0:
        raise DegenerateVarianceError("correlation undefined for a constant input")
    return float(np.clip((a @ b) / (na * nb), -1.0, 1.0))


def normalize_minmax(image: ReconImage) -> ReconImage:
    """Affine map of [min, max] onto [0, 1]; a constant image maps to 0.5."""
    lo = image.data.min()
    hi = image.data.max()
    if hi == lo:
        return ReconImage(np.full_like(image.data, 0.5))
    return ReconImage((image.data - lo) / (hi - lo))
