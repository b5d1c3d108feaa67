"""Case-level (legacy) and lesion-wise DSC / HD95 with challenge penalty rules.

Empty-mask conventions: both masks empty -> DSC 1, HD95 0; exactly one empty ->
DSC 0, HD95 374. The same 374 penalty is charged per unmatched lesion in the
lesion-wise mode.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy import ndimage

from .errors import ValidationError
from .morphology import Connectivity, connected_components, dilate, surface_voxels
from .regions import REGIONS, Region, extract_region
from .volume import BinaryMask, LabelVolume

HD95_PENALTY = 374.0


class MetricMode(Enum):
    Legacy = "legacy"
    LesionWise = "lesionwise"


@dataclass(frozen=True)
class MetricPair:
    dsc: float
    hd95: float


@dataclass(frozen=True)
class CaseMetrics:
    case_id: str
    per_region: dict[Region, MetricPair]
    mode: MetricMode


@dataclass(frozen=True)
class MatchParams:
    dilation_iterations: int = 3
    connectivity: Connectivity = Connectivity.Full26
    # Optional floor on ground-truth lesion size; 0 disables the filter.
    min_gt_lesion_size: int = 0

    def __post_init__(self):
        if min(self.dilation_iterations, self.min_gt_lesion_size) < 0:
            raise ValidationError("dilation_iterations and min_gt_lesion_size must be >= 0")


@dataclass(frozen=True)
class LesionMatchReport:
    matched: list  # (gt id, frozenset of pred ids, MetricPair)
    false_positives: list  # pred ids
    false_negatives: list  # gt ids
    params: MatchParams

    @property
    def n_matched(self) -> int:
        return len(self.matched)


def dice(a: BinaryMask, b: BinaryMask) -> float:
    a.geometry.require_compatible(b.geometry)
    na = int(a.bits.sum())
    nb = int(b.bits.sum())
    if na == 0 and nb == 0:
        return 1.0
    if na == 0 or nb == 0:
        return 0.0
    inter = int((a.bits & b.bits).sum())
    return 2.0 * inter / (na + nb)


def _joint_bbox(a_bits, b_bits):
    both = a_bits | b_bits
    xs, ys, zs = np.nonzero(both)
    return (
        slice(int(xs.min()), int(xs.max()) + 1),
        slice(int(ys.min()), int(ys.max()) + 1),
        slice(int(zs.min()), int(zs.max()) + 1),
    )


def _directed_p95(src_surface, dst_surface, spacing):
    """95th percentile (linear interpolation) of distances from each src
    surface voxel to the nearest dst surface voxel."""
    dist = ndimage.distance_transform_edt(~dst_surface, sampling=spacing)
    return float(np.percentile(dist[src_surface], 95, method="linear"))


def hd95(a: BinaryMask, b: BinaryMask, spacing=None) -> float:
    a.geometry.require_compatible(b.geometry)
    if spacing is None:
        spacing = a.geometry.spacing
    na = a.bits.any()
    nb = b.bits.any()
    if not na and not nb:
        return 0.0
    if not na or not nb:
        return HD95_PENALTY
    # Crop to the joint bounding box; both surfaces lie fully inside it, so
    # nearest-surface distances are unaffected.
    box = _joint_bbox(a.bits, b.bits)
    sa = surface_voxels(a)
    sb = surface_voxels(b)
    sa_c = sa.bits[box]
    sb_c = sb.bits[box]
    d_ab = _directed_p95(sa_c, sb_c, spacing)
    d_ba = _directed_p95(sb_c, sa_c, spacing)
    return max(d_ab, d_ba)


def region_metrics(gt_mask: BinaryMask, pred_mask: BinaryMask, spacing=None) -> MetricPair:
    return MetricPair(dice(gt_mask, pred_mask), hd95(gt_mask, pred_mask, spacing))


def case_metrics_legacy(gt: LabelVolume, pred: LabelVolume, case_id: str = "") -> CaseMetrics:
    gt.geometry.require_compatible(pred.geometry)
    per_region = {
        region: region_metrics(extract_region(gt, region), extract_region(pred, region))
        for region in REGIONS
    }
    return CaseMetrics(case_id, per_region, MetricMode.Legacy)


def lesion_match(gt_mask: BinaryMask, pred_mask: BinaryMask,
                 params: MatchParams = MatchParams()) -> LesionMatchReport:
    """Match predicted lesions to ground-truth lesions.

    A predicted component is matched to a gt component iff it intersects the
    dilated gt component; predictions touching several gt lesions go to the one
    with the largest intersection (ties broken by lower gt id).
    """
    gt_mask.geometry.require_compatible(pred_mask.geometry)
    gt_comps = connected_components(gt_mask, params.connectivity)
    pred_comps = connected_components(pred_mask, params.connectivity)

    gt_ids = [
        cid for cid in range(1, gt_comps.count + 1)
        if gt_comps.sizes[cid] >= params.min_gt_lesion_size
    ]

    # intersection[(pred id, gt id)] -> voxel overlap with the dilated gt lesion
    intersections: dict[int, dict[int, int]] = {}
    for gid in gt_ids:
        comp = gt_comps.component_mask(gid)
        grown = dilate(comp, params.dilation_iterations, params.connectivity)
        hit_ids, hit_counts = np.unique(pred_comps.ids[grown.bits], return_counts=True)
        for pid, n in zip(hit_ids, hit_counts):
            if pid == 0:
                continue
            intersections.setdefault(int(pid), {})[gid] = int(n)

    assigned: dict[int, list[int]] = {gid: [] for gid in gt_ids}
    false_positives = []
    for pid in range(1, pred_comps.count + 1):
        hits = intersections.get(pid)
        if not hits:
            false_positives.append(pid)
            continue
        best = max(hits.items(), key=lambda kv: (kv[1], -kv[0]))[0]
        assigned[best].append(pid)

    matched = []
    false_negatives = []
    for gid in gt_ids:
        pids = assigned[gid]
        if not pids:
            false_negatives.append(gid)
            continue
        union = np.isin(pred_comps.ids, pids)
        pair = region_metrics(
            gt_comps.component_mask(gid), BinaryMask(pred_mask.geometry, union)
        )
        matched.append((gid, frozenset(pids), pair))

    return LesionMatchReport(matched, false_positives, false_negatives, params)


def _lesionwise_region(gt_mask, pred_mask, params):
    if not gt_mask.any() and not pred_mask.any():
        report = LesionMatchReport([], [], [], params)
        return MetricPair(1.0, 0.0), report
    report = lesion_match(gt_mask, pred_mask, params)
    dscs = [pair.dsc for _, _, pair in report.matched]
    hds = [pair.hd95 for _, _, pair in report.matched]
    n_penalty = len(report.false_positives) + len(report.false_negatives)
    dscs.extend([0.0] * n_penalty)
    hds.extend([HD95_PENALTY] * n_penalty)
    if not dscs:
        # Possible only when the size filter removed every gt lesion.
        return MetricPair(1.0, 0.0), report
    return MetricPair(float(np.mean(dscs)), float(np.mean(hds))), report


def case_metrics_lesionwise(gt: LabelVolume, pred: LabelVolume,
                            params: MatchParams = MatchParams(),
                            case_id: str = ""):
    """Lesion-wise metrics: per matched gt lesion a MetricPair against the
    union of its predictions; each FP/FN contributes (0, 374); region score is
    the arithmetic mean over all contributions."""
    gt.geometry.require_compatible(pred.geometry)
    per_region = {}
    reports = {}
    for region in REGIONS:
        pair, report = _lesionwise_region(
            extract_region(gt, region), extract_region(pred, region), params
        )
        per_region[region] = pair
        reports[region] = report
    return CaseMetrics(case_id, per_region, MetricMode.LesionWise), reports


CSV_COLUMNS = ["case_id", "mode", "region", "dsc", "hd95", "n_matched", "n_fp", "n_fn"]


def metrics_rows(case: CaseMetrics, reports=None):
    """Rows for one case, sorted by region name to match the batch ordering."""
    rows = []
    for region in sorted(REGIONS, key=lambda r: r.value):
        pair = case.per_region[region]
        if reports is not None:
            rep = reports[region]
            counts = (str(rep.n_matched), str(len(rep.false_positives)),
                      str(len(rep.false_negatives)))
        else:
            counts = ("", "", "")
        rows.append([case.case_id, case.mode.value, region.value,
                     f"{pair.dsc:.6f}", f"{pair.hd95:.6f}", *counts])
    return rows


def mean_rows(rows, mode: str):
    """`__mean__` rows: per region with rows, the mean DSC and HD95 of the
    6-decimal strings as written, summed in row order."""
    means = []
    for region in sorted(r.value for r in REGIONS):
        picked = [(float(row[3]), float(row[4])) for row in rows if row[2] == region]
        if picked:
            # cumsum adds the rows in order, as a running float sum does.
            dsc, hd = np.cumsum(picked, axis=0)[-1] / len(picked)
            means.append(["__mean__", mode, region, f"{dsc:.6f}", f"{hd:.6f}", "", "", ""])
    return means


def write_metrics_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)
