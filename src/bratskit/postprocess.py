"""Threshold-based suppression of small predicted lesions.

Suppression relabels downward through the region hierarchy rather than
deleting evidence outright: regions are thresholded WT, TC, ET, each inside
what the enclosing region kept, and `regions.rebuild_labels` rebuilds the
labels from the three nested masks, so a removed voxel takes the label of the
region around it. The BraTS 2021 rule that turns all ET into NCR when
the case has fewer than t ET voxels is
`ThresholdSpec(et=t, scope=ThresholdScope.WholeRegion)`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .morphology import Connectivity, connected_components, lesion_clusters
from .regions import REGIONS, Region, extract_region, rebuild_labels
from .volume import BinaryMask, LabelVolume, crop, integral, member


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

    The thresholds run on the boxes of the prediction's lesion clusters
    (`morphology.lesion_clusters`): no component spans two clusters, a box
    holds its own cluster alone (L shapes merge) and is pasted whole, and a
    WholeRegion threshold decides on the region's count summed over them."""
    conn = member(Connectivity, conn, "connectivity")
    clusters = lesion_clusters((pred,), 1)  # components look one step past a voxel
    cuts = [crop(pred, box) for box in clusters]
    kept = [True] * len(cuts)  # per cluster, what the enclosing region kept; WT has none
    masks = []
    for region in REGIONS:
        bits = [extract_region(case, region).bits & k for case, k in zip(cuts, kept)]
        thr = spec.threshold(region)
        if spec.scope is ThresholdScope.WholeRegion:
            whole = sum(np.count_nonzero(b) for b in bits) >= thr
            bits = [b & whole for b in bits]
        elif thr > 0:
            bits = [_drop_small(BinaryMask(case.geometry, b), thr, conn)
                    for case, b in zip(cuts, bits)]
        masks.append(bits)
        kept = bits
    voxels = pred.voxels.copy(order="K")
    for box, *regions in zip(clusters, *masks):
        rebuild_labels(*regions, out=voxels[box])
    return LabelVolume(pred.geometry, voxels)


def _drop_small(mask, thr, conn):
    """The mask's bits without its components of fewer than `thr` voxels."""
    comps = connected_components(mask, conn)
    small = comps.sizes < thr
    small[0] = False  # id 0 is the background, not a lesion
    return mask.bits & ~small[comps.ids] if small.any() else mask.bits
