"""The tumour box, the lesion clusters and the exactness of the callers that
work inside them.

A case embedded in a larger zero grid must score, threshold and fuse exactly
as the case itself: every true voxel lies in the box, and the box keeps the
order in which components are first met. A case split into lesion clusters
must score and threshold exactly as its whole grid.
"""

import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from bratskit.errors import IncompatibleGeometryError
from bratskit.fusion import staple_binary
from bratskit.metrics import (
    MatchParams,
    MetricPair,
    _dice,
    _hd95,
    _lesionwise_region,
    _match_clusters,
    case_metrics_legacy,
    case_metrics_lesionwise,
    hd95,
    lesion_match,
)
from bratskit.morphology import Connectivity, dilate, lesion_clusters
from bratskit.phantom import Lesion, Perturbation, PhantomSpec, generate_phantom
from bratskit.postprocess import ThresholdScope, ThresholdSpec, apply_thresholds
from bratskit.regions import REGIONS, Region, extract_region
from bratskit.volume import BinaryMask, Geometry, LabelVolume, boxed_mask, crop, hull, tumour_box

from conftest import labels_from_array
from oracles import (NEIGHBOURS_6, NEIGHBOURS_26, brute_dice, brute_lesion_match,
                     brute_thresholds, edt_hd95)

SPACINGS = [(1.0, 1.0, 1.0), (0.7, 1.3, 2.1)]
OFFSET = (4, 2, 6)
MARGIN = (9, 7, 11)


def phantom_case():
    """Three lesions; pred drops none, adds one FP and is shifted by one voxel."""
    spec = PhantomSpec((22, 20, 18), (
        Lesion((6, 6, 6), (4.0, 3.5, 3.0)),
        Lesion((15, 13, 11), (3.0, 4.0, 3.5)),
        Lesion((16, 5, 13), (2.0, 2.0, 2.5)),
    ), Perturbation("shift", shift=(1, 0, -1)))
    gt, pred = generate_phantom(spec)
    vox = pred.voxels.copy()
    vox[3:5, 15:17, 14:16] = 3  # far-away FP lesion
    return gt.voxels, vox


def faces_case():
    """A lesion on the centre of each grid face, so every padded box is clipped."""
    dims = (14, 15, 16)
    gt = np.zeros(dims, np.uint8)
    pred = np.zeros(dims, np.uint8)
    for axis in range(3):
        for side, core in ((0, 1), (1, 3)):
            lo = [n // 2 - 2 for n in dims]
            hi = [n // 2 + 2 for n in dims]
            lo[axis], hi[axis] = (0, 3) if side == 0 else (dims[axis] - 3, dims[axis])
            box = tuple(slice(a, b) for a, b in zip(lo, hi))
            gt[box] = 2
            gt[tuple(slice(a + 1, b - 1) for a, b in zip(lo, hi))] = core
            pred[box] = 2 if axis else 1  # axis 0 keeps the core label only
    pred[0:2, 0:2, 0:2] = 3  # FP in a corner, touching three faces
    pred[2:5, 5:9, 6:10] = 0  # misses the inner part of the x = 0 lesion
    return gt, pred


CASES = {"phantom": phantom_case, "faces": faces_case}


def embed(voxels, offset=OFFSET, margin=MARGIN):
    big = np.zeros(tuple(n + m for n, m in zip(voxels.shape, margin)), voxels.dtype)
    big[tuple(slice(o, o + n) for o, n in zip(offset, voxels.shape))] = voxels
    return big


def label_pair(case, spacing, embedded):
    gt, pred = CASES[case]()
    if embedded:
        gt, pred = embed(gt), embed(pred)
    return labels_from_array(gt, spacing), labels_from_array(pred, spacing)


@pytest.mark.parametrize("spacing", SPACINGS)
@pytest.mark.parametrize("case", sorted(CASES))
class TestEmbeddedCase:
    def test_legacy_metrics(self, case, spacing):
        own = case_metrics_legacy(*label_pair(case, spacing, False), "c")
        assert case_metrics_legacy(*label_pair(case, spacing, True), "c") == own

    @pytest.mark.parametrize("k", [0, 1, 3])
    @pytest.mark.parametrize("conn", list(Connectivity))
    def test_lesionwise_metrics_and_reports(self, case, spacing, conn, k):
        params = MatchParams(k, conn)
        own = case_metrics_lesionwise(*label_pair(case, spacing, False), params, "c")
        big = case_metrics_lesionwise(*label_pair(case, spacing, True), params, "c")
        assert big == own
        assert any(report.matched for report in own[1].values())

    @pytest.mark.parametrize("conn", list(Connectivity))
    @pytest.mark.parametrize("spec", [ThresholdSpec(40, 10, 12),
                                      ThresholdSpec(0, 100, 5, ThresholdScope.WholeRegion),
                                      ThresholdSpec(0, 0, 500, ThresholdScope.WholeRegion)])
    def test_apply_thresholds(self, case, spacing, conn, spec):
        _, pred = label_pair(case, spacing, False)
        _, big_pred = label_pair(case, spacing, True)
        own = apply_thresholds(pred, spec, conn)
        big = apply_thresholds(big_pred, spec, conn)
        assert big == labels_from_array(embed(own.voxels), spacing)
        assert big.voxels.sum() == own.voxels.sum()  # zero outside the embedding
        assert own != pred  # the spec removed something

    def test_staple_binary(self, case, spacing):
        # Raters placed at the grid origin, inside and at the far corner of one
        # grid: the pattern counts are the same, so EM runs on the same numbers.
        gt, pred = CASES[case]()
        third = np.roll(gt, 1, axis=1)
        results = []
        for offset in ((0, 0, 0), OFFSET, MARGIN):
            masks = [extract_region(labels_from_array(embed(v, offset), spacing), Region.WT)
                     for v in (gt, pred, third)]
            inside = tuple(slice(o, o + n) for o, n in zip(offset, gt.shape))
            outside = np.ones(masks[0].geometry.dims, bool)
            outside[inside] = False
            res = staple_binary(masks)
            results.append((res.weights[inside], np.unique(res.weights[outside]),
                            res.consensus.bits[inside], res.consensus.count(),
                            res.rater_performance, res.iterations_run, res.converged))
        for other in results[1:]:
            assert np.array_equal(other[0], results[0][0])
            assert np.array_equal(other[1], results[0][1])
            assert len(other[1]) == 1
            assert np.array_equal(other[2], results[0][2])
            assert other[3:] == results[0][3:]


@pytest.mark.parametrize("spacing", SPACINGS)
@pytest.mark.parametrize("case", sorted(CASES))
class TestWholeGrid:
    """The embedded cases scored as the oracles score their whole grids. Unlike
    two runs cut to one box, this fails when a box is too tight."""

    def test_legacy_metrics(self, case, spacing):
        gt, pred = label_pair(case, spacing, True)
        per_region = case_metrics_legacy(gt, pred).per_region
        for region in REGIONS:
            a, b = extract_region(gt, region).bits, extract_region(pred, region).bits
            assert per_region[region] == MetricPair(brute_dice(a, b), edt_hd95(a, b, spacing))

    @pytest.mark.parametrize("k", [0, 1, 3, 5])
    @pytest.mark.parametrize("conn,neighbours", [(Connectivity.Face6, NEIGHBOURS_6),
                                                 (Connectivity.Full26, NEIGHBOURS_26)])
    def test_lesionwise_reports(self, case, spacing, conn, neighbours, k):
        gt, pred = label_pair(case, spacing, True)
        _, reports = case_metrics_lesionwise(gt, pred, MatchParams(k, conn))
        for region in REGIONS:
            matched, fps, fns = brute_lesion_match(extract_region(gt, region).bits,
                                                   extract_region(pred, region).bits,
                                                   neighbours, k, spacing=spacing)
            report = reports[region]
            assert (report.false_positives, report.false_negatives) == (fps, fns)
            assert [m[:2] for m in report.matched] == [m[:2] for m in matched]
            for (_, _, pair), (_, _, (dsc, hd)) in zip(report.matched, matched):
                assert pair.dsc == pytest.approx(dsc)
                assert pair.hd95 == pytest.approx(hd, abs=1e-5)


CONNECTIVITIES = [(Connectivity.Face6, NEIGHBOURS_6), (Connectivity.Full26, NEIGHBOURS_26)]


def paint(voxels, lo, hi, label):
    voxels[tuple(slice(a, b) for a, b in zip(lo, hi))] = label


def assert_scores_as_the_oracles(gt, pred, ks, spacing=(1.0, 1.0, 1.0)):
    """Both modes against the whole-grid oracles: legacy against brute Dice and
    the EDT's HD95, lesion-wise reports (global ids) against brute matching."""
    gt, pred = labels_from_array(gt, spacing), labels_from_array(pred, spacing)
    masks = {r: (extract_region(gt, r).bits, extract_region(pred, r).bits) for r in REGIONS}
    per_region = case_metrics_legacy(gt, pred).per_region
    for region, (a, b) in masks.items():
        assert per_region[region] == MetricPair(brute_dice(a, b), edt_hd95(a, b, spacing))
    for k in ks:
        for conn, neighbours in CONNECTIVITIES:
            _, reports = case_metrics_lesionwise(gt, pred, MatchParams(k, conn))
            for region, (a, b) in masks.items():
                matched, fps, fns = brute_lesion_match(a, b, neighbours, k, spacing=spacing)
                report = reports[region]
                assert (report.false_positives, report.false_negatives) == (fps, fns)
                assert [m[:2] for m in report.matched] == [m[:2] for m in matched]
                for (_, _, pair), (_, _, (dsc, hd)) in zip(report.matched, matched):
                    assert pair.dsc == pytest.approx(dsc)
                    assert pair.hd95 == pytest.approx(hd, abs=1e-5)


def assert_thresholds_as_the_oracle(pred, specs):
    for conn, neighbours in CONNECTIVITIES:
        for spec in specs:
            whole = spec.scope is ThresholdScope.WholeRegion
            want = brute_thresholds(pred, (spec.wt, spec.tc, spec.et), whole, neighbours)
            got = apply_thresholds(labels_from_array(pred), spec, conn)
            assert np.array_equal(got.voxels, want)


def gap_case(gap):
    """gt lesion A fills x 2..9 and a pred lesion P starts `gap` steps (Chebyshev
    and L1) past A's last x; a copy of A shifted by one voxel is predicted too.
    P joins A's match when the dilation reaches it and is a false positive when
    not. Lesion B lies 10 or more steps further on, so a case has two clusters
    or more. A starts the box and fills 8 voxels, so with 8-voxel blocks a gap
    of 9 puts P two blocks past A."""
    gt = np.zeros((44, 16, 16), np.uint8)
    pred = np.zeros_like(gt)
    paint(gt, (2, 4, 4), (10, 12, 12), 2)
    paint(gt, (4, 6, 6), (8, 10, 10), 3)
    paint(pred, (3, 4, 4), (11, 12, 12), 2)
    paint(pred, (5, 6, 6), (8, 10, 10), 1)
    paint(pred, (9 + gap, 6, 6), (12 + gap, 10, 10), 3)
    paint(gt, (32, 5, 3), (37, 10, 9), 1)
    paint(pred, (32, 6, 3), (37, 11, 8), 1)
    return gt, pred


class TestClusterBoundary:
    """Lesions as far apart as a dilation reaches, and one step further."""

    @pytest.mark.parametrize("gap", [8, 9])
    def test_scores_as_the_oracles(self, gap):
        assert_scores_as_the_oracles(*gap_case(gap), ks=(8, 9))

    @pytest.mark.parametrize("gap,k,joined", [(8, 8, True), (9, 8, False), (9, 9, True)])
    def test_the_dilation_decides_the_match(self, gap, k, joined):
        # The fixture is not trivial: whether P joins A's match turns on the gap.
        _, reports = case_metrics_lesionwise(*map(labels_from_array, gap_case(gap)),
                                             MatchParams(k))
        assert (reports[Region.WT].false_positives == []) is joined

    def test_a_count_beyond_any_grid(self):
        # The dilation fills the grid; no step of the work is sized by the count.
        gt, pred = gap_case(9)
        assert_scores_as_the_oracles(gt, pred, ks=(10**12,))


def corners_case():
    """Lesions in opposite corners of a 48 x 44 x 40 grid. The ET total passes
    an ET threshold of 60 only when the corners are summed (18 and 54 voxels)."""
    gt = np.zeros((48, 44, 40), np.uint8)
    pred = np.zeros_like(gt)
    paint(gt, (0, 0, 0), (6, 5, 4), 2)
    paint(gt, (1, 1, 1), (4, 4, 3), 3)
    paint(gt, (8, 0, 0), (10, 3, 3), 1)  # missed: a false negative
    paint(pred, (0, 1, 0), (6, 6, 4), 2)
    paint(pred, (1, 2, 1), (4, 5, 3), 3)
    paint(gt, (40, 38, 34), (48, 44, 40), 2)
    paint(gt, (42, 40, 36), (46, 43, 39), 3)
    paint(pred, (41, 38, 34), (48, 44, 40), 2)
    paint(pred, (42, 40, 36), (45, 43, 39), 3)
    paint(pred, (44, 30, 37), (47, 33, 40), 3)  # a false positive
    return gt, pred


def l_case():
    """An L with a small lesion beside it, and lesion B in the L's bend: the
    L's blocks have a box that holds B's, so they merge into one cluster. Its
    lesion ids would interleave two clusters: the small lesion starts first,
    then B, then the L. The ET total is 76 voxels."""
    gt = np.zeros((44, 44, 12), np.uint8)
    pred = np.zeros_like(gt)
    for labels, dz in ((gt, 0), (pred, 1)):
        paint(labels, (0, 0, 2 + dz), (40, 4, 6 + dz), 2)
        paint(labels, (36, 0, 2 + dz), (40, 40, 6 + dz), 2)
        paint(labels, (10, 1, 3 + dz), (14 + 6 * dz, 3, 5 + dz), 3)
        paint(labels, (37, 30, 3), (39, 40, 5), 1)
    paint(gt, (30, 6, 0), (33, 9, 2), 1)
    paint(pred, (30, 6, 0), (33, 8, 2), 1)
    paint(gt, (4, 20, 0), (10, 26, 6), 2)
    paint(gt, (5, 21, 1), (8, 24, 5), 3)
    paint(pred, (4, 21, 0), (10, 27, 6), 2)
    paint(pred, (5, 22, 1), (8, 25, 5), 3)
    return gt, pred


def interleaved_case():
    """Two clusters whose lesion ids interleave: cluster A holds a lesion at the
    grid's first planes and one from plane 6 on, and cluster B's lesion starts
    at plane 2, between them. The ET total passes an ET threshold of 60 only
    when the clusters are summed (35 and 36 voxels)."""
    gt = np.zeros((44, 44, 16), np.uint8)
    pred = np.zeros_like(gt)
    paint(gt, (0, 0, 0), (6, 6, 3), 2)
    paint(gt, (1, 1, 0), (4, 4, 2), 3)
    paint(gt, (0, 0, 6), (6, 6, 12), 2)
    paint(gt, (1, 1, 7), (5, 5, 11), 3)
    paint(gt, (30, 30, 2), (36, 36, 8), 2)
    paint(gt, (31, 31, 3), (35, 35, 7), 3)
    paint(pred, (0, 1, 0), (6, 7, 3), 2)
    paint(pred, (1, 2, 0), (3, 4, 2), 3)
    paint(pred, (0, 0, 7), (6, 6, 12), 2)
    paint(pred, (1, 1, 7), (4, 4, 10), 3)
    paint(pred, (31, 30, 2), (37, 36, 8), 2)
    paint(pred, (32, 31, 3), (35, 34, 7), 3)
    paint(pred, (30, 38, 9), (33, 41, 12), 1)  # a false positive
    return gt, pred


EMBEDDED = {"corners": corners_case, "interleaved": interleaved_case, "l-shape": l_case}


@pytest.mark.parametrize("case", sorted(EMBEDDED))
class TestClusters:
    """Cases with lesion clusters far apart, with lesion ids that interleave
    across clusters, or merged from an L shape, scored and post-processed as
    the oracles treat the whole grid."""

    def test_scores_as_the_oracles(self, case):
        assert_scores_as_the_oracles(*EMBEDDED[case](), ks=(1, 3))

    def test_thresholds_as_the_oracle(self, case):
        _, pred = EMBEDDED[case]()
        assert_thresholds_as_the_oracle(pred, [
            ThresholdSpec(40, 10, 20),
            ThresholdSpec(0, 50, 60, ThresholdScope.WholeRegion),  # ET kept by the sum alone
            ThresholdSpec(0, 0, 80, ThresholdScope.WholeRegion),
        ])

    def test_the_whole_region_sum_decides(self, case):
        _, pred = EMBEDDED[case]()
        et = extract_region(labels_from_array(pred), Region.ET).count()
        assert 60 <= et < 80
        kept = apply_thresholds(labels_from_array(pred), ThresholdSpec(et=60, scope="whole_region"))
        assert kept == labels_from_array(pred)


def scattered_case(seed, dims=(40, 36, 32)):
    """Nine small lesions of random labels scattered over the grid, so the case
    splits into several clusters; pred moves each by up to one voxel, drops
    one in five and adds two."""
    rng = np.random.default_rng(seed)
    gt = np.zeros(dims, np.uint8)
    pred = np.zeros_like(gt)

    def blob():
        lo = [int(rng.integers(0, n - 2)) for n in dims]
        return lo, [a + int(rng.integers(1, 5)) for a in lo], int(rng.integers(1, 4))

    for _ in range(9):
        lo, hi, label = blob()
        paint(gt, lo, hi, label)
        if rng.random() < 0.8:
            shift = [int(d) for d in rng.integers(-1, 2, 3)]
            paint(pred, [max(a + d, 0) for a, d in zip(lo, shift)],
                  [b + d for b, d in zip(hi, shift)], label)
    for _ in range(2):
        paint(pred, *blob())
    return gt, pred


# Seed 3 merges into one cluster (an L shape), so seed 5 takes its place.
@pytest.mark.parametrize("seed", [0, 1, 2, 5])
def test_clusters_give_the_one_box_answer(seed):
    # Scored over one box that is the whole grid, each region gives the same
    # numbers and ids, bit for bit, as split into its lesion clusters.
    spacing = SPACINGS[seed % 2]
    gt, pred = (labels_from_array(v, spacing) for v in scattered_case(seed, (64, 56, 48)))
    assert len(lesion_clusters((gt, pred), 9)) > 2
    legacy = case_metrics_legacy(gt, pred).per_region
    for region in REGIONS:
        a, b = extract_region(gt, region), extract_region(pred, region)
        whole = [((0, 0, 0), a, b)]
        one_box_hd95 = _hd95(whole)
        assert hd95(a, b) == one_box_hd95
        assert legacy[region] == MetricPair(_dice(whole), one_box_hd95)
        for k in (0, 2, 8, 9):
            for conn in Connectivity:
                params = MatchParams(k, conn)
                report = _match_clusters(whole, params, gt.geometry.dims)
                one_box = (_lesionwise_region(report), report)
                assert lesion_match(a, b, params) == one_box[1]
                case, reports = case_metrics_lesionwise(gt, pred, params)
                assert (case.per_region[region], reports[region]) == one_box


@pytest.mark.parametrize("seed", range(2))
def test_scattered_thresholds_as_the_oracle(seed):
    _, pred = scattered_case(seed)
    assert_thresholds_as_the_oracle(pred, [ThresholdSpec(20, 10, 8),
                                           ThresholdSpec(200, 60, 30, ThresholdScope.WholeRegion)])


class TestLesionClusters:
    def test_empty_volumes_have_none(self):
        zero = labels_from_array(np.zeros((5, 6, 7)))
        assert lesion_clusters((zero, zero), 3) == []

    def test_refuses_volumes_on_two_grids(self):
        with pytest.raises(IncompatibleGeometryError):
            lesion_clusters((labels_from_array(np.ones((4, 5, 5))),
                             labels_from_array(np.ones((5, 5, 5)))), 1)

    def test_one_lesion_is_its_tumour_box(self):
        gt, _ = gap_case(9)
        gt = labels_from_array(gt)
        gt_a = crop(gt, (slice(0, 20), slice(None), slice(None)))
        assert lesion_clusters((gt_a,), 1) == [tumour_box((gt_a,))]

    @pytest.mark.parametrize("reach", [0, 8, 9, 13])
    @pytest.mark.parametrize("seed", range(6))
    def test_clusters_partition_the_voxels_and_lie_apart(self, seed, reach):
        rng = np.random.default_rng(seed)
        dims = tuple(int(n) for n in rng.integers(1, 48, 3))
        mask = BinaryMask(Geometry(dims), rng.random(dims) < 0.001)
        labels = labels_from_array(np.where(rng.random(dims) < 0.001, rng.integers(1, 4, dims), 0))
        union = mask.bits | (labels.voxels != 0)
        owner = np.zeros(dims, np.int64)
        clusters = lesion_clusters((mask, labels), reach)
        for i, box in enumerate(clusters, start=1):
            own = crop(BinaryMask(Geometry(dims), union), box).bits
            assert own.any()
            assert not owner[box][own].any()  # no voxel in two boxes
            owner[box][own] = i
        assert np.array_equal(owner != 0, union)  # every voxel in a box
        for i, box in enumerate(clusters, start=1):
            # The box holds no voxel of another cluster.
            assert np.array_equal(crop(labels, box).voxels,
                                  np.where(owner[box] == i, labels.voxels[box], 0))
        points = [np.argwhere(owner == i) for i in range(1, len(clusters) + 1)]
        for i, p in enumerate(points):
            for q in points[i + 1:]:
                assert np.abs(p[:, None] - q[None]).max(axis=2).min() > max(8, reach)

    def test_an_l_shape_merges_into_one_box(self):
        # The L's blocks have a box that holds the blocks in its bend, so the
        # two merge into one cluster: the hull of both.
        gt, pred = map(labels_from_array, l_case())
        assert lesion_clusters((gt, pred), 3) == [tumour_box((gt, pred))]

    def test_only_a_box_that_holds_another_cluster_is_filled(self):
        # Blocks of 8 voxels. In z block 2 an L of five blocks has a box that
        # holds a lone block, so the two merge. In z block 0 an L of three
        # blocks has a box whose empty block touches the corner of a lone
        # block. Filled, that box would merge them too; it holds no other
        # block, so it is left as it is.
        voxels = np.zeros((17, 17, 17), np.uint8)
        for x, y in ((0, 0), (8, 0), (0, 8), (16, 16)):
            voxels[x, y, 0] = 1
        for x, y in ((0, 0), (8, 0), (16, 0), (0, 8), (0, 16), (16, 16)):
            voxels[x, y, 16] = 1
        clusters = lesion_clusters((labels_from_array(voxels),), 0)
        assert sorted(clusters, key=lambda box: [(s.start, s.stop) for s in box]) == [
            (slice(0, 16), slice(0, 16), slice(0, 8)),
            (slice(0, 17), slice(0, 17), slice(16, 17)),
            (slice(16, 17), slice(16, 17), slice(0, 8))]

    def test_interleaved_ids_span_two_clusters(self):
        gt, pred = map(labels_from_array, interleaved_case())
        clusters = lesion_clusters((gt, pred), 3)
        # Labelled as (z, y, x), ids number the lesions in x-fastest order.
        ids = ndimage.label(gt.voxels.T != 0, structure=Connectivity.Full26.structure)[0].T
        assert [sorted(set(np.unique(ids[box])) - {0}) for box in clusters] == [[1, 3], [2]]

    def test_a_count_beyond_any_grid_gives_the_tumour_box(self):
        gt, pred = map(labels_from_array, scattered_case(0))
        tracemalloc.start()
        try:
            clusters = lesion_clusters((gt, pred), 10**12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert clusters == [tumour_box((gt, pred))]
        assert peak < 2 * gt.geometry.n_voxels


def test_work_scales_with_the_lesions_not_the_grid(monkeypatch):
    # Two small lesions in opposite corners of a full-size grid: their joint box
    # is nearly the grid, but labelling, erosion and dilation see only the
    # lesions' own boxes.
    given = dict.fromkeys(("label", "binary_erosion", "binary_dilation"), 0)
    for name in given:
        def counting(input, *args, _name=name, _original=getattr(ndimage, name), **kwargs):
            given[_name] += np.asarray(input).size
            return _original(input, *args, **kwargs)
        monkeypatch.setattr(ndimage, name, counting)
    dims = (240, 240, 155)
    gt, pred = np.zeros(dims, np.uint8, order="F"), np.zeros(dims, np.uint8, order="F")
    for lo, hi in (((3, 4, 2), (9, 10, 7)), ((230, 231, 146), (237, 238, 153))):
        paint(gt, lo, hi, 2)
        paint(gt, [a + 1 for a in lo], [b - 1 for b in hi], 3)
        paint(pred, [a + 1 for a in lo], [b + 1 for b in hi], 1)
        paint(pred, [a + 2 for a in lo], [a + 4 for a in lo], 3)  # 8 ET voxels
    gt, pred = labels_from_array(gt), labels_from_array(pred)
    case_metrics_legacy(gt, pred)
    case_metrics_lesionwise(gt, pred)
    for spec in (ThresholdSpec(30, 20, 10), ThresholdSpec(30, 20, 20, ThresholdScope.WholeRegion)):
        assert apply_thresholds(pred, spec) != pred
    assert all(given.values())
    assert sum(given.values()) < 0.02 * gt.geometry.n_voxels


@pytest.mark.parametrize("k", range(6))
@pytest.mark.parametrize("conn", list(Connectivity))
def test_dilation_on_a_box_is_the_whole_grid_dilation_cut_to_it(conn, k):
    # Why a box that holds both masks needs no pad: clamped into the box, a
    # path of adjacency steps is still one, so no dilated voxel of the box is lost.
    rng = np.random.default_rng(100 * k + conn.value)
    for _ in range(30):
        dims = tuple(int(n) for n in rng.integers(2, 16, 3))
        lo = [int(rng.integers(0, n)) for n in dims]
        hi = [int(rng.integers(a, n)) + 1 for a, n in zip(lo, dims)]
        inner = tuple(slice(a, b) for a, b in zip(lo, hi))
        bits = np.zeros(dims, bool)
        bits[inner] = rng.random(bits[inner].shape) < 0.2
        box = tuple(slice(max(a - int(rng.integers(0, 4)), 0), min(b + int(rng.integers(0, 4)), n))
                    for a, b, n in zip(lo, hi, dims))
        whole = dilate(BinaryMask(Geometry(dims), bits), k, conn)
        assert np.array_equal(dilate(boxed_mask(bits[box], (1.0, 1.0, 1.0)), k, conn).bits,
                              whole.bits[box])


class TestAllEmpty:
    g = Geometry((7, 8, 9), (0.7, 1.3, 2.1))
    zero = LabelVolume(g, np.zeros(g.dims, np.uint8))

    def test_tumour_box_is_none(self):
        assert tumour_box((self.zero, self.zero)) is None

    def test_legacy(self):
        case = case_metrics_legacy(self.zero, self.zero)
        assert case.per_region == {r: MetricPair(1.0, 0.0) for r in REGIONS}

    @pytest.mark.parametrize("conn", list(Connectivity))
    def test_lesionwise(self, conn):
        case, reports = case_metrics_lesionwise(self.zero, self.zero, MatchParams(3, conn))
        assert case.per_region == {r: MetricPair(1.0, 0.0) for r in REGIONS}
        for report in reports.values():
            assert report.matched == report.false_positives == report.false_negatives == []

    @pytest.mark.parametrize("scope", list(ThresholdScope))
    def test_apply_thresholds(self, scope):
        out = apply_thresholds(self.zero, ThresholdSpec(5, 5, 5, scope))
        assert out == self.zero
        assert out.geometry == self.g

    def test_staple_binary(self):
        empty = BinaryMask(self.g, np.zeros(self.g.dims, bool))
        res = staple_binary([empty, empty, empty])
        assert res.consensus == empty
        assert res.weights.shape == self.g.dims and not res.weights.any()
        assert res.rater_performance == [(1.0, 1.0)] * 3
        assert (res.iterations_run, res.converged) == (0, True)


class TestTumourBox:
    def mask(self, dims, *coords):
        bits = np.zeros(dims, bool)
        for c in coords:
            bits[c] = True
        return BinaryMask(Geometry(dims), bits)

    def test_box_of_the_nonzero_voxels(self):
        m = self.mask((10, 11, 12), (2, 3, 4), (5, 3, 7))
        assert tumour_box((m,)) == (slice(2, 6), slice(3, 4), slice(4, 8))

    def test_box_holds_every_volume(self):
        a = self.mask((10, 11, 12), (2, 3, 4))
        b = self.mask((10, 11, 12), (7, 9, 1))
        assert tumour_box((a, b)) == (slice(2, 8), slice(3, 10), slice(1, 5))

    def test_label_volume_counts_every_label(self):
        vox = np.zeros((6, 6, 6), np.uint8)
        vox[1, 2, 3] = 3
        vox[4, 2, 1] = 1
        vox[2, 5, 2] = 2
        assert tumour_box((labels_from_array(vox),)) == (slice(1, 5), slice(2, 6), slice(1, 4))

    def test_empty(self):
        assert tumour_box((self.mask((4, 5, 6)),)) is None

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_the_extent_of_the_nonzero_voxels(self, seed):
        rng = np.random.default_rng(seed)
        dims = tuple(int(n) for n in rng.integers(1, 9, 3))
        a = BinaryMask(Geometry(dims), rng.random(dims) < 0.05)
        vox = np.where(rng.random(dims) < 0.05, rng.integers(1, 4, dims), 0).astype(np.uint8)
        nz = np.nonzero(a.bits | (vox != 0))
        expected = tuple(slice(int(i.min()), int(i.max()) + 1) for i in nz) if nz[0].size else None
        assert tumour_box((a, labels_from_array(vox))) == expected

    @pytest.mark.parametrize("order", [1, -1], ids=["larger-first", "smaller-first"])
    def test_refuses_volumes_on_two_grids(self, order):
        # numpy would broadcast the (1, 5, 5) grid over the (4, 5, 5) one.
        volumes = (self.mask((4, 5, 5), (1, 2, 3)), self.mask((1, 5, 5), (0, 1, 1)))
        with pytest.raises(IncompatibleGeometryError):
            tumour_box(volumes[::order])

    def test_bounds_are_python_ints(self):
        box = tumour_box((self.mask((4, 5, 6), (1, 2, 3)),))
        assert all(type(s.start) is int and type(s.stop) is int for s in box)

    def test_hull(self):
        boxes = [(slice(2, 4), slice(0, 1), slice(5, 6)), (slice(3, 7), slice(2, 3), slice(1, 2))]
        assert hull(boxes, 0, (9, 9, 9)) == (slice(2, 7), slice(0, 3), slice(1, 6))
        assert hull(boxes, 2, (8, 9, 7)) == (slice(0, 8), slice(0, 5), slice(0, 7))


class TestCrop:
    def test_keeps_spacing_and_flags(self):
        vox = np.arange(4 * 5 * 6).reshape(4, 5, 6) % 4
        labels = LabelVolume(Geometry((4, 5, 6), (0.5, 2.0, 3.0)), vox, legacy_remapped=True)
        box = (slice(1, 3), slice(0, 5), slice(2, 3))
        cut = crop(labels, box)
        assert cut.geometry == Geometry((2, 5, 1), (0.5, 2.0, 3.0))
        assert np.array_equal(cut.voxels, vox[box])
        assert cut.legacy_remapped and not cut.voxels.flags.writeable

    def test_boxed_mask_is_on_a_grid_of_its_own_shape(self):
        bits = np.zeros((4, 5, 6), bool)
        bits[1, 2, 3] = True
        m = boxed_mask(bits[1:3, 2:5, 3:4], (0.5, 2.0, 3.0))
        assert m.geometry == Geometry((2, 3, 1), (0.5, 2.0, 3.0))
        assert m.count() == 1
