"""3D binary-mask primitives: connected components, surfaces, dilation, and
the lesion clusters that bound the work of each."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import ndimage

from .volume import BinaryMask, Geometry, integral, tumour_box


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


def lesion_clusters(volumes, reach):
    """The box of each lesion cluster of volumes on one grid, which holds that
    cluster's voxels alone; none when every volume is empty.

    The nonzero voxels in the volumes' `tumour_box` are pooled with `any` into
    blocks of max(8, reach) voxels a side (the box's extent on a shorter axis),
    and the blocks are labelled with 26-connectivity. While the box of a block
    component holds blocks of another (an L shape), that box alone is filled
    and the blocks labelled again, which merges the two; a cluster is the box
    of a component. Blocks of two components do not touch, so on some axis a
    whole block lies between them: their voxels are more than max(8, reach)
    steps apart, and no component, surface or dilation of up to `reach` steps
    spans two clusters. No array is sized by `reach`: a larger count gives
    one block, the whole box."""
    box = tumour_box(volumes)
    if box is None:
        return []
    extent = [s.stop - s.start for s in box]
    edges = [min(max(8, reach), n) for n in extent]
    blocks = [-(-n // e) for n, e in zip(extent, edges)]
    padded = [b * e for b, e in zip(blocks, edges)]
    hit = np.zeros(padded, bool, order="F")
    inner = hit[:extent[0], :extent[1], :extent[2]]
    for v in volumes:
        np.logical_or(inner, v.payload[box], out=inner)
    # `any` over each block, the slowest axis first: each step ORs whole slabs.
    hit = hit.reshape(padded[0] * padded[1], edges[2], blocks[2], order="F").any(axis=1)
    hit = hit.reshape(padded[0], edges[1], blocks[1] * blocks[2], order="F").any(axis=1)
    hit = hit.reshape(edges[0], -1, order="F").any(axis=0).reshape(blocks, order="F")
    mixed = True
    while mixed:
        labels, _ = ndimage.label(hit, structure=Connectivity.Full26.structure)
        cuts, sizes = ndimage.find_objects(labels), np.bincount(labels.ravel())
        # A box that holds more blocks than its component holds another's.
        mixed = [cut for k, cut in enumerate(cuts, 1) if np.count_nonzero(labels[cut]) > sizes[k]]
        for cut in mixed:
            hit[cut] = True
    return [tuple(slice(s.start + c.start * e, min(s.start + c.stop * e, s.stop))
                  for s, c, e in zip(box, cut, edges)) for cut in cuts]
