"""The tumour box and the exactness of the callers that work inside it.

A case embedded in a larger zero grid must score, threshold and fuse exactly
as the case itself: every true voxel lies in the box, and the box keeps the
order in which components are first met.
"""

import numpy as np
import pytest

from bratskit.errors import IncompatibleGeometryError
from bratskit.fusion import staple_binary
from bratskit.metrics import (
    MatchParams,
    MetricPair,
    case_metrics_legacy,
    case_metrics_lesionwise,
)
from bratskit.morphology import Connectivity, dilate
from bratskit.phantom import Lesion, Perturbation, PhantomSpec, generate_phantom
from bratskit.postprocess import ThresholdScope, ThresholdSpec, apply_thresholds
from bratskit.regions import REGIONS, Region, extract_region
from bratskit.volume import BinaryMask, Geometry, LabelVolume, boxed_mask, crop, hull, tumour_box

from conftest import labels_from_array
from oracles import NEIGHBOURS_6, NEIGHBOURS_26, brute_dice, brute_lesion_match, edt_hd95

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

    def test_none_keeps_the_whole_grid(self):
        m = BinaryMask(Geometry((3, 3, 3)), np.ones((3, 3, 3), bool))
        assert crop(m, None) is m
