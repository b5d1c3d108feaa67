"""3D binary-mask primitives: connected components, surfaces, EDT, dilation."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import ndimage

from .errors import ValidationError
from .volume import BinaryMask, Geometry, ScalarVolume


class Connectivity(Enum):
    Face6 = 6
    Full26 = 26

    @property
    def structure(self) -> np.ndarray:
        rank = 1 if self is Connectivity.Face6 else 3
        return ndimage.generate_binary_structure(3, rank)


@dataclass(frozen=True)
class ComponentMap:
    geometry: Geometry
    ids: np.ndarray  # int32, 0 = background
    sizes: dict[int, int]
    count: int


def connected_components(mask: BinaryMask, conn: Connectivity = Connectivity.Full26) -> ComponentMap:
    """Label connected components, ids 1..count assigned by first encounter
    in x-fastest linear order."""
    # ndimage.label numbers components in the C order of its input, and the C
    # order of the transposed (z, y, x) view is x-fastest. Count on the C-ordered
    # output: ravel() of the transposed result would copy the grid.
    labeled, count = ndimage.label(mask.bits.T, structure=conn.structure)
    counts = np.bincount(labeled.ravel(), minlength=count + 1)
    sizes = {cid: int(counts[cid]) for cid in range(1, count + 1)}
    return ComponentMap(mask.geometry, labeled.T, sizes, int(count))


def surface_voxels(mask: BinaryMask) -> BinaryMask:
    """Mask voxels with at least one Face6 neighbour that is false or off-grid."""
    interior = ndimage.binary_erosion(
        mask.bits, structure=Connectivity.Face6.structure, border_value=0
    )
    return BinaryMask(mask.geometry, mask.bits & ~interior)


def euclidean_dt(mask: BinaryMask, spacing=None) -> ScalarVolume:
    """Exact Euclidean distance (mm) from each voxel centre to the nearest true
    voxel centre. True voxels map to 0; an all-false mask maps to +inf."""
    if spacing is None:
        spacing = mask.geometry.spacing
    if not mask.bits.any():
        dist = np.full(mask.geometry.dims, np.inf, dtype=np.float32)
    else:
        dist = ndimage.distance_transform_edt(~mask.bits, sampling=spacing)
    return ScalarVolume(Geometry(mask.geometry.dims, spacing), dist)


def dilate(mask: BinaryMask, iterations: int, conn: Connectivity = Connectivity.Full26) -> BinaryMask:
    """Union of the mask with all voxels within `iterations` adjacency steps."""
    if iterations < 0:
        raise ValidationError("iterations must be >= 0")
    if iterations == 0 or not mask.bits.any():
        return mask
    grown = ndimage.binary_dilation(mask.bits, structure=conn.structure, iterations=iterations)
    return BinaryMask(mask.geometry, grown)
