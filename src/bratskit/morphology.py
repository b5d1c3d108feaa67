"""3D binary-mask primitives: connected components, surfaces, dilation."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import ndimage

from .volume import BinaryMask, Geometry, integral


# Built once and shared by every call, so read-only.
_STRUCTURES = {6: ndimage.generate_binary_structure(3, 1),
               26: ndimage.generate_binary_structure(3, 3)}
for _structure in _STRUCTURES.values():
    _structure.flags.writeable = False


class Connectivity(Enum):
    Face6 = 6
    Full26 = 26

    @property
    def structure(self) -> np.ndarray:
        return _STRUCTURES[self.value]


@dataclass(frozen=True)
class ComponentMap:
    geometry: Geometry
    ids: np.ndarray  # int32, 0 = background
    sizes: np.ndarray  # voxels per id; sizes[0] counts the background
    count: int


def connected_components(mask: BinaryMask, conn: Connectivity = Connectivity.Full26) -> ComponentMap:
    """Label connected components, ids 1..count assigned by first encounter
    in x-fastest linear order."""
    # ndimage.label numbers components in the C order of its input, so it labels
    # the x-fastest (z, y, x) view: uncopied for an F-ordered mask, else a C copy,
    # which labels faster than a strided view.
    # Count on the C-ordered output: ravel() of the transposed result would copy.
    labeled, count = ndimage.label(np.ascontiguousarray(mask.bits.T), structure=conn.structure)
    sizes = np.bincount(labeled.ravel(), minlength=count + 1)
    return ComponentMap(mask.geometry, labeled.T, sizes, int(count))


def surface_voxels(mask: BinaryMask) -> BinaryMask:
    """Mask voxels with at least one Face6 neighbour that is false or off-grid."""
    # The erosion runs fastest on the last axis varying fastest in memory, so an
    # x-fastest mask is eroded as its transpose, which Face6 leaves unchanged.
    flip = mask.bits.strides[0] < mask.bits.strides[2]
    bits = mask.bits.T if flip else mask.bits
    surface = bits & ~ndimage.binary_erosion(bits, structure=Connectivity.Face6.structure,
                                             border_value=0)
    return BinaryMask(mask.geometry, surface.T if flip else surface)


def dilate(mask: BinaryMask, iterations: int, conn: Connectivity = Connectivity.Full26) -> BinaryMask:
    """Union of the mask with all voxels within `iterations` adjacency steps.
    A non-empty mask fills its grid within sum(dims) - 3 steps, so a larger
    count is cut to sum(dims) and gives the same mask."""
    iterations = min(integral(iterations, "iterations", 0), sum(mask.geometry.dims))
    if iterations == 0 or not mask.bits.any():
        return mask
    grown = ndimage.binary_dilation(mask.bits, structure=conn.structure, iterations=iterations)
    return BinaryMask(mask.geometry, grown)
