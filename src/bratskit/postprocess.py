"""Threshold-based suppression of small predicted lesions.

Suppression relabels downward through the region hierarchy rather than
deleting evidence outright: WT voxels go to background, TC voxels (labels 1, 3)
become ED, ET voxels (label 3) become NCR. Regions are processed WT, TC, ET on
the evolving volume, so nesting is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .morphology import Connectivity, connected_components
from .regions import LABEL_ED, LABEL_NCR, Region
from .volume import BinaryMask, LabelVolume


class ThresholdScope(Enum):
    PerComponent = "per_component"
    WholeRegion = "whole_region"


@dataclass(frozen=True)
class ThresholdSpec:
    wt: int = 0
    tc: int = 0
    et: int = 0
    scope: ThresholdScope = ThresholdScope.PerComponent

    def __post_init__(self):
        if min(self.wt, self.tc, self.et) < 0:
            raise ValueError("thresholds must be >= 0")

    def threshold(self, region: Region) -> int:
        return {Region.WT: self.wt, Region.TC: self.tc, Region.ET: self.et}[region]


# What a suppressed voxel of each region becomes.
_SUPPRESSED_LABEL = {Region.WT: 0, Region.TC: LABEL_ED, Region.ET: LABEL_NCR}


def apply_thresholds(pred: LabelVolume, spec: ThresholdSpec,
                     conn: Connectivity = Connectivity.Full26) -> LabelVolume:
    """Remove sub-threshold lesions per region (strict `< threshold`)."""
    voxels = pred.voxels.copy()
    for region in (Region.WT, Region.TC, Region.ET):
        thr = spec.threshold(region)
        if thr <= 0:
            continue
        # work on the raw buffer; LabelVolume would freeze the array in place
        bits = np.isin(voxels, sorted(region.labels))
        mask = BinaryMask(pred.geometry, bits.copy())
        if spec.scope is ThresholdScope.WholeRegion:
            if mask.count() < thr:
                voxels[mask.bits] = _SUPPRESSED_LABEL[region]
        else:
            comps = connected_components(mask, conn)
            small = [cid for cid, size in comps.sizes.items() if size < thr]
            if not small:
                continue
            suppress_bits = np.isin(comps.ids, small)
            voxels[suppress_bits] = _SUPPRESSED_LABEL[region]
    return LabelVolume(pred.geometry, voxels)


def legacy_et_to_ncr(pred: LabelVolume, threshold: int) -> LabelVolume:
    """Historical whole-region rule: if the total ET voxel count is strictly
    below the threshold, every ET voxel becomes NCR."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    et_count = int((pred.voxels == 3).sum())
    if et_count == 0 or et_count >= threshold:
        return pred
    voxels = pred.voxels.copy()
    voxels[voxels == 3] = LABEL_NCR
    return LabelVolume(pred.geometry, voxels)
