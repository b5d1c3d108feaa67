"""Threshold-based suppression of small predicted lesions.

Suppression relabels downward through the region hierarchy rather than
deleting evidence outright: WT voxels go to background, TC voxels (labels 1, 3)
become ED, ET voxels (label 3) become NCR. Regions are processed WT, TC, ET on
the evolving volume, so nesting is preserved. The BraTS 2021 rule that turns
all ET into NCR when the case has fewer than t ET voxels is
`ThresholdSpec(et=t, scope=ThresholdScope.WholeRegion)`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ValidationError
from .morphology import Connectivity, connected_components
from .regions import LABEL_ED, LABEL_NCR, Region
from .volume import LabelVolume, boxed_mask, tumour_box


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
            raise ValidationError("thresholds must be >= 0")

    def threshold(self, region: Region) -> int:
        return {Region.WT: self.wt, Region.TC: self.tc, Region.ET: self.et}[region]


# What a suppressed voxel of each region becomes.
_SUPPRESSED_LABEL = {Region.WT: 0, Region.TC: LABEL_ED, Region.ET: LABEL_NCR}


def apply_thresholds(pred: LabelVolume, spec: ThresholdSpec,
                     conn: Connectivity = Connectivity.Full26) -> LabelVolume:
    """Remove sub-threshold lesions per region (strict `< threshold`).

    Every lesion lies in the tumour box, so the thresholds run on a view of
    the box inside the full-grid copy."""
    voxels = pred.voxels.copy()
    box = tumour_box((pred,))
    if box is None:  # no lesion to remove
        return LabelVolume(pred.geometry, voxels)
    # work on the raw buffer; LabelVolume would freeze the array in place
    view = voxels[box]
    for region in (Region.WT, Region.TC, Region.ET):
        thr = spec.threshold(region)
        if thr <= 0:
            continue
        mask = boxed_mask(np.isin(view, sorted(region.labels)), pred.geometry.spacing)
        if spec.scope is ThresholdScope.WholeRegion:
            if mask.count() < thr:
                view[mask.bits] = _SUPPRESSED_LABEL[region]
        else:
            comps = connected_components(mask, conn)
            small = comps.sizes < thr
            small[0] = False  # id 0 is the background, not a lesion
            if small.any():
                view[small[comps.ids]] = _SUPPRESSED_LABEL[region]
    return LabelVolume(pred.geometry, voxels)
