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


def bit_code(bits) -> np.ndarray:
    """Each voxel's code of the boolean arrays `bits`, as uint16: bit j is bits[j].
    The codes keep the first array's memory order, so F-ordered masks are not
    copied into C order."""
    code = bits[0].astype(np.uint16)
    for j, b in enumerate(bits[1:], 1):
        code |= np.left_shift(b, j, dtype=np.uint16)
    return code


def rebuild_labels(wt, tc, et, out=None) -> np.ndarray:
    """The labels of three boolean arrays of region decisions, in three
    byte-wise passes: ET gives ET, else TC gives NCR, else WT gives ED, else 0.

    The labels are written into `out` when it is given; otherwise they keep
    wt's memory order."""
    out = np.multiply(wt, LABEL_ED, out=out, dtype=np.uint8)
    np.copyto(out, LABEL_NCR, where=tc)
    np.copyto(out, LABEL_ET, where=et)
    return out


def reconstruct_labels(wt: BinaryMask, tc: BinaryMask, et: BinaryMask) -> LabelVolume:
    """Inverse of extract_region for nested masks: `rebuild_labels` of their bits.

    Non-nested inputs still produce a valid, nested label volume, and the
    labels keep the masks' memory order.
    """
    geometry = common_geometry((wt, tc, et))
    return LabelVolume(geometry, rebuild_labels(wt.bits, tc.bits, et.bits))
