"""Case-level (legacy) and lesion-wise DSC / HD95 with challenge penalty rules.

Empty-mask conventions: both masks empty -> DSC 1, HD95 0; exactly one empty ->
DSC 0, HD95 374. The same 374 penalty is charged per unmatched lesion in the
lesion-wise mode.

HD95 is two stages: `_hd95` counts voxels on both surfaces as 0.0 and skips the
searches they settle; `_directed_p95` picks and runs a search, on the calling thread.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .morphology import (Connectivity, connected_components, dilate, lesion_clusters,
                         surface_voxels)
from .regions import REGIONS, Region, extract_region
from .volume import BinaryMask, LabelVolume, boxed_mask, crop, hull, integral, member, tumour_box

HD95_PENALTY = 374.0


@dataclass(frozen=True)
class MetricPair:
    dsc: float
    hd95: float


@dataclass(frozen=True)
class CaseMetrics:
    case_id: str
    per_region: dict[Region, MetricPair]
    mode: str  # "legacy" or "lesionwise", as in the CSV mode column


@dataclass(frozen=True)
class MatchParams:
    dilation_iterations: int = 3
    connectivity: Connectivity = Connectivity.Full26
    # Optional floor on ground-truth lesion size; 0 disables the filter.
    min_gt_lesion_size: int = 0

    def __post_init__(self):
        for name in ("dilation_iterations", "min_gt_lesion_size"):
            object.__setattr__(self, name, integral(getattr(self, name), name, 0))
        object.__setattr__(self, "connectivity",
                           member(Connectivity, self.connectivity, "connectivity"))


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
    return _dice([(None, a, b)])


def _dice(pairs):
    """Dice of a region split into (origin, a, b) pairs, from the summed counts."""
    na = sum(a.count() for _, a, _ in pairs)
    nb = sum(b.count() for _, _, b in pairs)
    if na == 0 and nb == 0:
        return 1.0
    if na == 0 or nb == 0:
        return 0.0
    inter = sum(np.count_nonzero(a.bits & b.bits) for _, a, b in pairs)
    return 2.0 * inter / (na + nb)


# Up to this many (src, dst) point pairs, scoring every pair costs less than
# building and searching a k-d tree; above it the tree costs less. Measured on
# ball surfaces: without the tie search the tree wins from 8,100 pairs (50
# against 54 us, 1 mm); with it the tree still loses at 61,716 (387 against 327
# us, (0.9375, 0.9375, 1.5) mm).
_ALL_PAIRS_MAX_EXACT = 1 << 13
_ALL_PAIRS_MAX = 1 << 16


def _ranks(n):
    """The two ranks of n sorted values that numpy's linear 95th percentile
    mixes, around its virtual index (n - 1) * 0.95, and the index's fraction."""
    at = (n - 1) * 0.95
    return int(at), min(int(at) + 1, n - 1), at - int(at)


def _p95(x, zeros=0):
    """np.percentile of x and `zeros` more 0.0 values, 95, method="linear",
    for x >= 0: a rank below `zeros` reads 0.0, any other is partitioned out
    of x, shifted past the zeros; the two are mixed as numpy's `_lerp` mixes
    them."""
    low, high, t = _ranks(len(x) + zeros)
    k = [r - zeros for r in (low, high) if r >= zeros]
    a, b = [0.0] * (2 - len(k)) + (list(np.partition(x, k)[k]) if k else [])
    return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)


def _directed_p95(src, dst, spacing, zeros=0):
    """95th percentile (linear interpolation, `_p95`) of the distances (mm)
    from each src point, and from `zeros` more points that dst holds, to the
    nearest dst point; points are voxel coordinates. A point that dst holds
    is exactly 0.0 from it, so it is counted, not searched for.

    Squared distances are summed in axis order from the voxel offsets scaled
    per axis, as the exact EDT sums them. On an exact grid, each spacing an
    integer of at most 512 mm, every coordinate stays below
    volume.MAX_DIM * 512 < 2**24 mm, so every sum is an exact integer: tied
    offsets have equal sums and the tree's distance is the correctly rounded
    root of the sum the EDT takes. On other grids offsets of equal length can
    round one bit apart and the EDT keeps the lesser, so the tree path
    searches every dst point tied with the nearest and keeps the least sum.
    Up to `_ALL_PAIRS_MAX_EXACT` (exact grid) or `_ALL_PAIRS_MAX` pairs, every
    (src, dst) pair is scored instead; `_hd95` skips the needless searches."""
    exact = all(float(s).is_integer() and s <= 512 for s in spacing)
    if len(src) * len(dst) <= (_ALL_PAIRS_MAX_EXACT if exact else _ALL_PAIRS_MAX):
        # one (src x dst) plane per axis keeps the temporaries small
        sq = sum(((src[:, None, i] - dst[None, :, i]) * s) ** 2 for i, s in enumerate(spacing))
        sq = sq.min(axis=1)
    else:
        tree = cKDTree(dst * spacing)
        near, _ = tree.query(src * spacing)
        if exact:
            return _p95(near, zeros)
        ties = tree.query_ball_point(src * spacing, near * (1 + 1e-9), return_sorted=False)
        counts = [len(t) for t in ties]
        offsets = src.repeat(counts, axis=0) - dst[np.concatenate(ties)]
        sq = np.minimum.reduceat(((offsets * spacing) ** 2).sum(axis=1), np.cumsum(counts) - counts)
    return _p95(np.sqrt(sq), zeros)


def hd95(a: BinaryMask, b: BinaryMask) -> float:
    # Callers may pass whole grids, so work on the boxes of the lesion clusters.
    # They hold every true voxel, and the erosion treats off-box voxels as false,
    # as they are within the one step it looks: the surfaces are the grid's.
    return _hd95(_tight(_clusters(a, b, 1)))


def _hd95(pairs):
    """HD95 of a region split into (origin, a, b) pairs, a and b of each on one
    box: the surface points of every pair, shifted by its origin to grid
    coordinates, scored together. A voxel on both surfaces is exactly 0.0
    from the other, so each direction counts those and searches from the
    rest (`_directed_p95`), or reads 0.0 unsearched if both p95 ranks do."""
    points, alone, shared = ([], []), ([], []), 0
    for origin, a, b in pairs:
        surfaces = [surface_voxels(m).bits if m.any() else None for m in (a, b)]
        for side, (mine, theirs) in enumerate((surfaces, surfaces[::-1])):
            if mine is None:
                continue
            p = np.argwhere(mine) + origin
            # theirs[mine] lists, in argwhere's order, which of p the other surface holds
            both = np.zeros(len(p), bool) if theirs is None else theirs[mine]
            points[side].append(p)
            alone[side].append(p[~both])
            shared += int(np.count_nonzero(both))
    shared //= 2  # each voxel on both surfaces was counted once from each side
    if not points[0] and not points[1]:
        return 0.0
    if not points[0] or not points[1]:
        return HD95_PENALTY
    spacing = pairs[0][1].geometry.spacing
    sa, sb = (np.concatenate(p) for p in points)
    return max(0.0 if _ranks(len(src) + shared)[1] < shared
               else _directed_p95(src, dst, spacing, shared)
               for src, dst in ((np.concatenate(alone[0]), sb), (np.concatenate(alone[1]), sa)))


def _clusters(x, y, reach):
    """(origin, x cut, y cut) per lesion cluster of x and y (`lesion_clusters`);
    origin is the grid index of the first voxel of the box (L shapes merge,
    so a box holds its own cluster alone)."""
    return [(tuple(s.start for s in box), crop(x, box), crop(y, box))
            for box in lesion_clusters((x, y), reach)]


def _tight(cuts):
    """Each (origin, a, b) with a and b cut to their joint box, origin moved to
    its first voxel; a pair with both masks empty is dropped. Restricting the
    x-fastest order to a box keeps the order in which components are first met."""
    pairs = []
    for origin, a, b in cuts:
        box = tumour_box((a, b))
        if box is not None:
            start = tuple(o + s.start for o, s in zip(origin, box))
            pairs.append((start, crop(a, box), crop(b, box)))
    return pairs


def _region_masks(gt: LabelVolume, pred: LabelVolume, reach: int):
    """(region, pairs) per region: the (origin, gt mask, pred mask) of each
    lesion cluster of the case (`morphology.lesion_clusters`) that holds the
    region, the pair cut to its own box with no pad. This is exact: no
    component, surface or dilation of up to `reach` steps spans two clusters,
    a box holds no other cluster's voxel (L shapes merge), and clamped into a
    box, a path of adjacency steps is still one, so the dilation on a box
    that holds both masks is the whole-grid dilation cut to it."""
    cuts = _clusters(gt, pred, reach)
    for region in REGIONS:
        yield region, _tight([(origin, extract_region(g, region), extract_region(p, region))
                              for origin, g, p in cuts])


def case_metrics_legacy(gt: LabelVolume, pred: LabelVolume, case_id: str = "") -> CaseMetrics:
    # Surfaces look one step past a voxel.
    per_region = {region: MetricPair(_dice(pairs), _hd95(pairs))
                  for region, pairs in _region_masks(gt, pred, 1)}
    return CaseMetrics(case_id, per_region, "legacy")


def lesion_match(gt_mask: BinaryMask, pred_mask: BinaryMask,
                 params: MatchParams = MatchParams()) -> LesionMatchReport:
    """Match predicted lesions to ground-truth lesions.

    A predicted component is matched to a gt component iff it intersects the
    dilated gt component; predictions touching several gt lesions go to the one
    with the largest intersection (ties broken by lower gt id). Ids number the
    components of each mask by first encounter in x-fastest order.

    The masks are split into lesion clusters more than
    max(8, dilation_iterations) steps apart (`morphology.lesion_clusters`),
    and each cluster is matched on its own box; the ids are those of the
    whole grid.
    """
    gt_mask.geometry.require_compatible(pred_mask.geometry)
    return _match_clusters(_tight(_clusters(gt_mask, pred_mask, params.dilation_iterations)),
                           params, gt_mask.geometry.dims)


def _match_clusters(pairs, params, dims):
    """The lesion match of a region split into (origin, gt mask, pred mask)
    pairs, with whole-grid ids. Each id is the rank of its component's first
    voxel among those of every pair: a pair's own x-fastest order is the grid's
    order restricted to its box, so with one pair its ids are already global."""
    runs = []
    for origin, gt_mask, pred_mask in pairs:
        comps = [connected_components(m, params.connectivity) for m in (gt_mask, pred_mask)]
        runs.append((origin, comps, _match(*comps, params)))
    if len(runs) == 1:
        return runs[0][2]
    gt_ids, pred_ids = (_global_ids([(origin, comps[side]) for origin, comps, _ in runs], dims)
                        for side in (0, 1))
    matched, false_positives, false_negatives = [], [], []
    for (_, _, report), g, p in zip(runs, gt_ids, pred_ids):
        matched += [(int(g[gid]), frozenset(p[list(pids)].tolist()), pair)
                    for gid, pids, pair in report.matched]
        false_positives += p[report.false_positives].tolist()
        false_negatives += g[report.false_negatives].tolist()
    # Pairs in gt id order: the region mean sums them in this order.
    matched.sort(key=lambda m: m[0])
    return LesionMatchReport(matched, sorted(false_positives), sorted(false_negatives), params)


def _global_ids(runs, dims):
    """Per (origin, ComponentMap), the whole-grid id of each local id (index 0
    maps the background to 0): components ranked by the grid flat index
    (x fastest) of their first voxel. Local ids number components by first
    encounter, so id k first appears where the running maximum of the ids
    reaches k."""
    firsts = []
    for origin, comps in runs:
        running = np.maximum.accumulate(comps.ids.ravel(order="F"))
        local = np.unravel_index(np.searchsorted(running, np.arange(1, comps.count + 1)),
                                 comps.ids.shape, order="F")
        firsts.append(np.ravel_multi_index([i + o for i, o in zip(local, origin)], dims, order="F"))
    ranked = np.sort(np.concatenate([np.zeros(0, np.intp), *firsts]))
    return [np.concatenate(([0], np.searchsorted(ranked, f) + 1)) for f in firsts]


def _match(gt_comps, pred_comps, params):
    """The lesion match of two component maps on one grid, in their own ids.

    Each lesion is handled inside its `find_objects` box. The dilation reaches
    at most `dilation_iterations` voxels past the gt box, so it runs in that
    box padded by as much; a pair is scored in the hull of its boxes."""
    gt_boxes = ndimage.find_objects(gt_comps.ids)
    pred_boxes = ndimage.find_objects(pred_comps.ids)
    dims, spacing = gt_comps.geometry.dims, gt_comps.geometry.spacing

    gt_ids = (np.flatnonzero(gt_comps.sizes[1:] >= params.min_gt_lesion_size) + 1).tolist()

    # owner[p]: the gt lesion whose dilation holds most voxels of pred lesion p,
    # 0 for none. gt ids rise and only a larger overlap takes a pred lesion
    # over, so a tie stays with the lower gt id. A (gt x pred) overlap array
    # would cost memory in the product of the lesion counts.
    best = np.zeros(pred_comps.count + 1, dtype=np.int64)
    owner = np.zeros(pred_comps.count + 1, dtype=np.int64)
    for gid in gt_ids:
        box = hull([gt_boxes[gid - 1]], params.dilation_iterations, dims)
        grown = dilate(boxed_mask(gt_comps.ids[box] == gid, spacing),
                       params.dilation_iterations, params.connectivity)
        hits = np.bincount(pred_comps.ids[box][grown.bits], minlength=pred_comps.count + 1)
        wins = hits > best
        best[wins], owner[wins] = hits[wins], gid
    owner[0] = 0  # id 0 counted the background
    false_positives = np.flatnonzero(owner == 0)[1:].tolist()

    matched = []
    false_negatives = []
    for gid in gt_ids:
        pids = np.flatnonzero(owner == gid).tolist()
        if not pids:
            false_negatives.append(gid)
            continue
        # The pair's box is already the joint box hd95 would cut them to.
        box = hull([gt_boxes[gid - 1], *(pred_boxes[p - 1] for p in pids)], 0, dims)
        lesion = boxed_mask(gt_comps.ids[box] == gid, spacing)
        preds = boxed_mask(owner[pred_comps.ids[box]] == gid, spacing)
        pair = MetricPair(dice(lesion, preds), _hd95([((0, 0, 0), lesion, preds)]))
        matched.append((gid, frozenset(pids), pair))

    return LesionMatchReport(matched, false_positives, false_negatives, params)


def _lesionwise_region(report):
    """A region's lesion-wise score from its match report."""
    dscs = [pair.dsc for _, _, pair in report.matched]
    hds = [pair.hd95 for _, _, pair in report.matched]
    n_penalty = len(report.false_positives) + len(report.false_negatives)
    dscs.extend([0.0] * n_penalty)
    hds.extend([HD95_PENALTY] * n_penalty)
    # Nothing to score: both masks empty, or the size filter removed every gt lesion.
    return MetricPair(float(np.mean(dscs)), float(np.mean(hds))) if dscs else MetricPair(1.0, 0.0)


def case_metrics_lesionwise(gt: LabelVolume, pred: LabelVolume,
                            params: MatchParams = MatchParams(),
                            case_id: str = ""):
    """Lesion-wise metrics: per matched gt lesion a MetricPair against the
    union of its predictions; each FP/FN contributes (0, 374); region score is
    the arithmetic mean over all contributions. Each region is scored on the
    boxes of its lesion clusters (`_region_masks`), with whole-grid lesion ids."""
    reports = {region: _match_clusters(pairs, params, gt.geometry.dims)
               for region, pairs in _region_masks(gt, pred, params.dilation_iterations)}
    per_region = {region: _lesionwise_region(report) for region, report in reports.items()}
    return CaseMetrics(case_id, per_region, "lesionwise"), reports


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
        rows.append([case.case_id, case.mode, region.value,
                     f"{pair.dsc:.6f}", f"{pair.hd95:.6f}", *counts])
    return rows


def row_order_mean(values) -> np.ndarray:
    """Column means with the rows added in order, as a running float sum adds them;
    `.sum(axis=0)` turns pairwise on a single column and changes the last bits."""
    return np.cumsum(values, axis=0)[-1] / len(values)


def mean_rows(rows, mode: str):
    """`__mean__` rows: per region with rows, the mean DSC and HD95 of the
    6-decimal strings as written, summed in row order."""
    means = []
    for region in sorted(r.value for r in REGIONS):
        picked = [(float(row[3]), float(row[4])) for row in rows if row[2] == region]
        if picked:
            dsc, hd = row_order_mean(picked)
            means.append(["__mean__", mode, region, f"{dsc:.6f}", f"{hd:.6f}", "", "", ""])
    return means


def write_metrics_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)
