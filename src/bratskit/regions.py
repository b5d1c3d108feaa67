"""BraTS label semantics and the label <-> region mapping.

Labels: 0 background, 1 NCR, 2 ED, 3 ET. Evaluation regions are nested:
WT = {1,2,3}, TC = {1,3}, ET = {3}.
"""

from __future__ import annotations

from enum import Enum
from functools import reduce

import numpy as np

from .volume import BinaryMask, LabelVolume, common_geometry


class Region(Enum):
    WT = "WT"
    TC = "TC"
    ET = "ET"

    @property
    def labels(self) -> frozenset[int]:
        return _REGION_LABELS[self]


_REGION_LABELS = {
    Region.WT: frozenset({1, 2, 3}),
    Region.TC: frozenset({1, 3}),
    Region.ET: frozenset({3}),
}

REGIONS = (Region.WT, Region.TC, Region.ET)

LABEL_NCR = 1
LABEL_ED = 2
LABEL_ET = 3


def extract_region(labels: LabelVolume, region: Region) -> BinaryMask:
    """Binary mask of the voxels whose label belongs to the region's label set."""
    # One comparison per label keeps the payload's memory order; np.isin ravels
    # its input in C order and so copies an F-ordered label whole.
    bits = reduce(np.logical_or, (labels.voxels == label for label in sorted(region.labels)))
    return BinaryMask(labels.geometry, bits)


def reconstruct_labels(wt: BinaryMask, tc: BinaryMask, et: BinaryMask) -> LabelVolume:
    """Inverse of extract_region for nested masks.

    Assignment order WT -> TC -> ET with later regions overriding, so
    non-nested inputs still produce a valid, nested label volume.
    """
    geometry = common_geometry((wt, tc, et))
    # In the masks' memory order: masks from a file are F-ordered and scatter slowly into C order.
    out = np.zeros_like(wt.bits, dtype=np.uint8)
    out[wt.bits] = LABEL_ED
    out[tc.bits] = LABEL_NCR
    out[et.bits] = LABEL_ET
    return LabelVolume(geometry, out)
