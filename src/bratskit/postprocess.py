"""Threshold-based suppression of small predicted lesions.

Suppression relabels downward through the region hierarchy rather than
deleting evidence outright: regions are thresholded WT, TC, ET, each inside
what the enclosing region kept, and `regions.reconstruct_labels` rebuilds the
labels from the three nested masks, so a removed voxel takes the label of the
region around it. The BraTS 2021 rule that turns all ET into NCR when the case
has fewer than t ET voxels is
`ThresholdSpec(et=t, scope=ThresholdScope.WholeRegion)`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .morphology import Connectivity, connected_components
from .regions import REGIONS, Region, extract_region, reconstruct_labels
from .volume import BinaryMask, LabelVolume, crop, integral, member, tumour_box


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
        for name in ("wt", "tc", "et"):
            object.__setattr__(self, name, integral(getattr(self, name), name, 0))
        object.__setattr__(self, "scope", member(ThresholdScope, self.scope, "scope"))

    def threshold(self, region: Region) -> int:
        return {Region.WT: self.wt, Region.TC: self.tc, Region.ET: self.et}[region]


def apply_thresholds(pred: LabelVolume, spec: ThresholdSpec,
                     conn: Connectivity = Connectivity.Full26) -> LabelVolume:
    """Remove sub-threshold lesions per region (strict `< threshold`).

    Every lesion lies in the tumour box, so the thresholds run on the box."""
    conn = member(Connectivity, conn, "connectivity")
    box = tumour_box((pred,))
    if box is None:  # no lesion to remove
        return pred
    case = crop(pred, box)
    kept = True  # what the enclosing region kept; WT has none
    masks = []
    for region in REGIONS:
        bits = extract_region(case, region).bits & kept
        thr = spec.threshold(region)
        if spec.scope is ThresholdScope.WholeRegion:
            bits &= bits.sum() >= thr
        elif thr > 0:
            comps = connected_components(BinaryMask(case.geometry, bits), conn)
            small = comps.sizes < thr
            small[0] = False  # id 0 is the background, not a lesion
            if small.any():
                bits = bits & ~small[comps.ids]
        masks.append(BinaryMask(case.geometry, bits))
        kept = bits
    voxels = pred.voxels.copy(order="K")
    voxels[box] = reconstruct_labels(*masks).voxels
    return LabelVolume(pred.geometry, voxels)
