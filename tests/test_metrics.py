import threading
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

import bratskit.cores
from bratskit import metrics
from bratskit.metrics import (
    HD95_PENALTY,
    MatchParams,
    MetricPair,
    _directed_p95,
    _p95,
    case_metrics_legacy,
    case_metrics_lesionwise,
    dice,
    hd95,
    lesion_match,
    mean_rows,
    metrics_rows,
)
from bratskit.errors import IncompatibleGeometryError, ValidationError
from bratskit.morphology import Connectivity
from bratskit.phantom import (
    Lesion,
    Perturbation,
    PhantomSpec,
    generate_phantom,
    random_phantom_spec,
)
from bratskit.regions import REGIONS, Region, extract_region
from bratskit.volume import BinaryMask, Geometry, LabelVolume

from conftest import labels_from_array, mask_from_coords
from oracles import (
    NEIGHBOURS_6,
    NEIGHBOURS_26,
    brute_dice,
    brute_hd95,
    brute_lesion_match,
    brute_surface,
    edt_hd95,
)


class TestDice:
    def test_identity(self, rng):
        mask = mask_from_coords((5, 5, 5), [(1, 1, 1), (2, 2, 2)])
        assert dice(mask, mask) == 1.0

    def test_both_empty(self):
        empty = mask_from_coords((4, 4, 4), [])
        assert dice(empty, empty) == 1.0

    def test_one_empty(self):
        empty = mask_from_coords((4, 4, 4), [])
        other = mask_from_coords((4, 4, 4), [(0, 0, 0)])
        assert dice(empty, other) == 0.0
        assert dice(other, empty) == 0.0

    def test_hand_counted_overlap(self):
        a = mask_from_coords((6, 6, 6), [(0, 0, 0), (1, 0, 0)])
        b = mask_from_coords((6, 6, 6), [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)])
        assert dice(a, b) == pytest.approx(2 * 2 / (2 + 4))

    def test_symmetric_random(self, rng):
        for _ in range(20):
            g = Geometry((6, 6, 6))
            a = BinaryMask(g, rng.random((6, 6, 6)) < 0.4)
            b = BinaryMask(g, rng.random((6, 6, 6)) < 0.4)
            assert dice(a, b) == dice(b, a)
            assert dice(a, b) == pytest.approx(brute_dice(a.bits, b.bits))

    def test_geometry_mismatch(self):
        a = mask_from_coords((4, 4, 4), [])
        b = mask_from_coords((4, 4, 5), [])
        with pytest.raises(IncompatibleGeometryError):
            dice(a, b)


class TestHD95:
    def test_identity_zero(self):
        mask = mask_from_coords((6, 6, 6), [(2, 2, 2), (3, 2, 2)])
        assert hd95(mask, mask) == 0.0

    def test_penalty_conventions(self):
        empty = mask_from_coords((6, 6, 6), [])
        blob = mask_from_coords((6, 6, 6), [(1, 1, 1)])
        assert hd95(empty, empty) == 0.0
        assert hd95(empty, blob) == HD95_PENALTY
        assert hd95(blob, empty) == HD95_PENALTY

    def test_two_voxels_axis_distance(self):
        a = mask_from_coords((8, 8, 8), [(1, 1, 1)])
        b = mask_from_coords((8, 8, 8), [(4, 1, 1)])
        assert hd95(a, b) == pytest.approx(3.0)

    def test_matches_brute_force_random(self, rng):
        for _ in range(15):
            g = Geometry((10, 10, 10))
            a = BinaryMask(g, rng.random((10, 10, 10)) < 0.2)
            b = BinaryMask(g, rng.random((10, 10, 10)) < 0.2)
            assert hd95(a, b) == pytest.approx(brute_hd95(a.bits, b.bits), abs=1e-5)

    def test_anisotropic_matches_brute_force(self, rng):
        spacing = (0.7, 1.3, 2.1)
        g = Geometry((9, 9, 9), spacing)
        a = BinaryMask(g, rng.random((9, 9, 9)) < 0.15)
        b = BinaryMask(g, rng.random((9, 9, 9)) < 0.15)
        if a.any() and b.any():
            assert hd95(a, b) == pytest.approx(brute_hd95(a.bits, b.bits, spacing), abs=1e-5)

    def test_spacing_linearity(self, rng):
        g1 = Geometry((9, 9, 9), (1.0, 1.0, 1.0))
        g2 = Geometry((9, 9, 9), (2.5, 2.5, 2.5))
        bits_a = rng.random((9, 9, 9)) < 0.2
        bits_b = rng.random((9, 9, 9)) < 0.2
        v1 = hd95(BinaryMask(g1, bits_a), BinaryMask(g1, bits_b))
        v2 = hd95(BinaryMask(g2, bits_a), BinaryMask(g2, bits_b))
        assert v2 == pytest.approx(2.5 * v1)


def region_pairs(gt, pred, spacing):
    """(gt, pred) region masks of a phantom pair, on a grid of `spacing`."""
    g = Geometry(gt.geometry.dims, spacing)
    for region in REGIONS:
        yield (BinaryMask(g, extract_region(gt, region).bits),
               BinaryMask(g, extract_region(pred, region).bits))


def force_tree(monkeypatch):
    """Score through the k-d tree on every grid, whatever the point counts."""
    for name in ("_ALL_PAIRS_MAX", "_ALL_PAIRS_MAX_EXACT"):
        monkeypatch.setattr(metrics, name, 0)


SPACINGS = [(1.0, 1.0, 1.0), (2.0, 1.0, 3.0), (0.7, 1.3, 2.1), (1.2, 0.8, 3.0), (1.0, 0.5, 1.0)]


class TestP95:
    """`_p95` equals np.percentile(..., method="linear") under ==, so a numpy
    that moves its virtual index or changes `_lerp` fails here."""

    @staticmethod
    def arrays(rng, n):
        yield rng.random(n) * 100
        yield np.sqrt(rng.integers(0, 30, n).astype(np.float64))  # integer-square ties
        yield np.full(n, 3.0)

    def check(self, x):
        assert _p95(x) == np.percentile(x, 95, method="linear")

    @pytest.mark.parametrize("n", [1, 2, 21, 41, 101, 1000, 11226])
    def test_named_lengths(self, rng, n):
        for _ in range(20):
            for x in self.arrays(rng, n):
                self.check(x)

    def test_every_short_length(self, rng):
        for n in range(1, 300):
            for x in self.arrays(rng, n):
                self.check(x)

    def test_zeros_shift_the_ranks(self, rng):
        # `zeros` more 0.0 values, from none to all of them
        for n in range(1, 120):
            for zeros in range(n + 1):
                for x in self.arrays(rng, n - zeros):
                    want = np.percentile(np.concatenate([np.zeros(zeros), x]), 95, method="linear")
                    assert _p95(x, zeros) == want


class TestHD95EqualsEDT:
    """HD95 from nearest surface points equals, under ==, HD95 from the exact
    EDT of the joint box, so the 6-decimal CSV strings cannot move."""

    @pytest.fixture(params=["all-pairs", "tree"])
    def scoring(self, request, monkeypatch):
        """Score small point sets pair by pair, as usual, or through the tree."""
        if request.param == "tree":
            force_tree(monkeypatch)

    @pytest.mark.parametrize("spacing", SPACINGS)
    def test_random_phantoms(self, spacing, scoring):
        rng = np.random.default_rng(606)
        for _ in range(50):
            gt, pred = generate_phantom(random_phantom_spec(rng))
            for a, b in region_pairs(gt, pred, spacing):
                got, want = hd95(a, b), edt_hd95(a.bits, b.bits, spacing)
                assert got == want

    @pytest.mark.parametrize("spacing", SPACINGS)
    def test_sparse_noise(self, spacing, scoring):
        # scattered voxels give many nearest points at equal distances
        rng = np.random.default_rng(7)
        g = Geometry((8, 9, 7), spacing)
        for _ in range(300):
            a = BinaryMask(g, rng.random(g.dims) < 0.08)
            b = BinaryMask(g, rng.random(g.dims) < 0.08)
            got, want = hd95(a, b), edt_hd95(a.bits, b.bits, spacing)
            assert got == want

    def test_equal_offsets_keep_least_sum(self, scoring):
        # Offsets (0, -2, 1) and (3, -2, 0) are both sqrt(11.17) mm long under
        # this spacing, but their sums of squares round one bit apart. The
        # EDT keeps the lesser, whichever point the nearest query returns.
        spacing = (0.7, 1.3, 2.1)
        src, dst = np.array([[1, 3, 0]]), np.array([[1, 1, 1], [4, 1, 0]])
        sums = [np.sqrt((((q - src[0]) * spacing) ** 2).sum()) for q in dst]
        assert sums[0] != sums[1]
        assert _directed_p95(src, dst, spacing) == min(sums)

    @pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (0.9375, 0.9375, 1.5)])
    def test_criterion10_pair(self, spacing):
        spec = PhantomSpec(
            (240, 240, 155),
            (Lesion((80, 80, 70), (22, 18, 16)), Lesion((170, 160, 90), (14, 14, 12))),
            Perturbation(kind="shift", shift=(2, 1, 0)),
        )
        for a, b in region_pairs(*generate_phantom(spec), spacing):
            got, want = hd95(a, b), edt_hd95(a.bits, b.bits, spacing)
            assert got == want


class TestTiePath:
    """The tree searches for tied nearest points only where spacings are not
    all integers of at most 512 mm; elsewhere its distance is already exact."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts, per method, the calls on every tree that metrics builds."""
        counts = {"query": 0, "query_ball_point": 0}

        class CountingTree(metrics.cKDTree):
            def query(self, *args, **kwargs):
                counts["query"] += 1
                return super().query(*args, **kwargs)

            def query_ball_point(self, *args, **kwargs):
                counts["query_ball_point"] += 1
                return super().query_ball_point(*args, **kwargs)

        monkeypatch.setattr(metrics, "cKDTree", CountingTree)
        force_tree(monkeypatch)
        return counts

    def score_phantoms(self, spacing):
        rng = np.random.default_rng(11)
        for _ in range(5):
            gt, pred = generate_phantom(random_phantom_spec(rng))
            for a, b in region_pairs(gt, pred, spacing):
                assert hd95(a, b) == edt_hd95(a.bits, b.bits, spacing)

    @pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (2.0, 1.0, 3.0), (512.0, 1.0, 1.0)])
    def test_exact_grid_skips_tie_search(self, spacing, calls):
        self.score_phantoms(spacing)
        assert calls["query"] > 0
        assert calls["query_ball_point"] == 0

    @pytest.mark.parametrize("spacing", [(0.7, 1.3, 2.1), (1024.0, 1.0, 1.0)])
    def test_other_grid_searches_ties(self, spacing, calls):
        self.score_phantoms(spacing)
        assert calls["query_ball_point"] == calls["query"] > 0


def box_bits(dims, lo, hi):
    bits = np.zeros(dims, bool)
    bits[tuple(slice(l, h) for l, h in zip(lo, hi))] = True
    return bits


def shared_surface_cases():
    """(a, b) masks by the share of their surfaces that they hold in common."""
    ball = generate_phantom(PhantomSpec((16, 15, 14), (Lesion((8, 7, 7), (5, 4.5, 4)),)))[0]
    ball = ball.voxels != 0
    cube = box_bits((14, 14, 14), (3, 3, 3), (11, 11, 11))
    bumped = cube.copy()
    bumped[11, 3:7, 3:7] = True
    slab = box_bits((20, 12, 14), (3, 3, 3), (14, 7, 10))
    return {
        "identical": (ball, ball.copy()),
        "one-voxel-shift": (ball, np.roll(ball, 1, axis=0)),
        "erosion": (ball, ndimage.binary_erosion(ball)),
        "shared-between-the-ranks": (cube, bumped),
        "just-above-all-pairs": (slab, np.roll(slab, 1, axis=0)),
    }


SHARED_CASES = shared_surface_cases()


def surface_counts(a, b):
    """Per direction (a to b, b to a): the source surface's voxel count and
    how many of them the other surface holds, from the oracle's surfaces."""
    sa, sb = brute_surface(a), brute_surface(b)
    return [(int(s.sum()), int((s & o).sum())) for s, o in ((sa, sb), (sb, sa))]


class TestSharedSurface:
    """A voxel on both surfaces is counted as a 0.0 distance and only the
    others are searched from. HD95, legacy and lesion-wise scores still equal
    the EDT and the lesion oracle bit for bit, on an integer and on a
    non-integer anisotropic spacing (the tie search), through all-pairs scans
    and through the tree."""

    @pytest.fixture(params=["all-pairs", "tree"])
    def scoring(self, request, monkeypatch):
        if request.param == "tree":
            force_tree(monkeypatch)

    def test_the_cases_share_what_they_name(self):
        counts = {name: surface_counts(a, b) for name, (a, b) in SHARED_CASES.items()}
        assert all(n == shared for n, shared in counts["identical"])
        assert all(0 < shared < n for n, shared in counts["one-voxel-shift"])
        assert all(shared == 0 for _, shared in counts["erosion"])
        # b to a: the lower p95 rank reads a shared voxel, the upper one does not
        n, shared = counts["shared-between-the-ranks"][1]
        low = int((n - 1) * 0.95)
        assert low < shared == low + 1 < n
        # each direction searches from just more points than all pairs would take
        for n, shared in counts["just-above-all-pairs"]:
            assert metrics._ALL_PAIRS_MAX_EXACT < (n - shared) * n < 1.1 * metrics._ALL_PAIRS_MAX_EXACT

    @pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (0.7, 1.3, 2.1)])
    @pytest.mark.parametrize("name", sorted(SHARED_CASES))
    def test_hd95_and_legacy_equal_the_edt(self, name, spacing, scoring):
        a, b = SHARED_CASES[name]
        want = edt_hd95(a, b, spacing)
        g = Geometry(a.shape, spacing)
        assert hd95(BinaryMask(g, a), BinaryMask(g, b)) == want
        assert hd95(BinaryMask(g, b), BinaryMask(g, a)) == want
        # label 3 puts each mask in every region
        gt, pred = (labels_from_array(np.where(m, 3, 0), spacing) for m in (a, b))
        legacy = case_metrics_legacy(gt, pred)
        assert all(legacy.per_region[region].hd95 == want for region in REGIONS)

    @pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (0.7, 1.3, 2.1)])
    @pytest.mark.parametrize("name", sorted(SHARED_CASES))
    def test_lesionwise_equals_the_oracle(self, name, spacing, scoring):
        a, b = SHARED_CASES[name]
        gt, pred = (labels_from_array(np.where(m, 3, 0), spacing) for m in (a, b))
        _, reports = case_metrics_lesionwise(gt, pred)
        matched, fps, fns = brute_lesion_match(a, b, NEIGHBOURS_26, 3, spacing=spacing)
        # one lesion on each side, so the pair's masks are the whole masks
        assert [m[:2] for m in matched] == [(1, frozenset({1}))] and fps == fns == []
        want = [(1, frozenset({1}), MetricPair(brute_dice(a, b), edt_hd95(a, b, spacing)))]
        for region in REGIONS:
            assert reports[region].matched == want

    def test_the_tree_scores_the_case_just_above_all_pairs(self, monkeypatch):
        built = []

        class CountingTree(metrics.cKDTree):
            def __init__(self, *args, **kwargs):
                built.append(len(args[0]))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(metrics, "cKDTree", CountingTree)
        a, b = SHARED_CASES["just-above-all-pairs"]
        g = Geometry(a.shape)
        assert hd95(BinaryMask(g, a), BinaryMask(g, b)) == edt_hd95(a, b)
        # one tree per direction, on all of the other surface (threads may build in either order)
        assert sorted(built) == sorted(n for n, _ in surface_counts(a, b))

    @pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (0.7, 1.3, 2.1)])
    def test_no_search_when_both_ranks_read_shared_voxels(self, monkeypatch, spacing):
        def refused(*args):
            raise AssertionError("searched")

        monkeypatch.setattr(metrics, "_directed_p95", refused)
        force_tree(monkeypatch)
        a, _ = SHARED_CASES["identical"]
        g = Geometry(a.shape, spacing)
        assert hd95(BinaryMask(g, a), BinaryMask(g, a.copy())) == 0.0
        gt = labels_from_array(np.where(a, 3, 0), spacing)
        assert case_metrics_legacy(gt, gt).per_region[Region.WT] == MetricPair(1.0, 0.0)
        assert case_metrics_lesionwise(gt, gt)[0].per_region[Region.WT] == MetricPair(1.0, 0.0)


class TestLegacyCaseMetrics:
    def test_perfect_prediction(self, rng):
        spec = random_phantom_spec(rng, perturb=False)
        gt, pred = generate_phantom(spec)
        case = case_metrics_legacy(gt, pred, "case0")
        for region in REGIONS:
            assert case.per_region[region].dsc == 1.0
            assert case.per_region[region].hd95 == 0.0

    def test_spurious_et_penalty(self):
        vox_gt = np.zeros((8, 8, 8), np.uint8)
        vox_gt[2:5, 2:5, 2:5] = 2  # WT only
        vox_pred = vox_gt.copy()
        vox_pred[3, 3, 3] = 3  # spurious ET (also TC)
        case = case_metrics_legacy(labels_from_array(vox_gt), labels_from_array(vox_pred))
        assert case.per_region[Region.ET].dsc == 0.0
        assert case.per_region[Region.ET].hd95 == HD95_PENALTY

    def test_equals_region_by_region_recomputation(self, rng):
        spec = random_phantom_spec(rng)
        gt, pred = generate_phantom(spec)
        case = case_metrics_legacy(gt, pred)
        for region in REGIONS:
            gm = extract_region(gt, region)
            pm = extract_region(pred, region)
            assert case.per_region[region].dsc == pytest.approx(
                brute_dice(gm.bits, pm.bits), abs=1e-6)
            assert case.per_region[region].hd95 == pytest.approx(
                brute_hd95(gm.bits, pm.bits), abs=1e-5)


def two_blob_masks():
    g = Geometry((20, 20, 20))
    gt = np.zeros((20, 20, 20), bool)
    gt[2:5, 2:5, 2:5] = True
    return g, gt


class TestLesionMatch:
    def test_exact_single_lesion(self):
        g, gt = two_blob_masks()
        report = lesion_match(BinaryMask(g, gt), BinaryMask(g, gt.copy()))
        assert report.n_matched == 1
        assert report.false_positives == []
        assert report.false_negatives == []
        gid, pids, pair = report.matched[0]
        assert pair.dsc == 1.0 and pair.hd95 == 0.0

    def test_distant_blob_is_fp(self):
        g, gt = two_blob_masks()
        pred = gt.copy()
        pred[15:18, 15:18, 15:18] = True
        report = lesion_match(BinaryMask(g, gt), BinaryMask(g, pred))
        assert report.n_matched == 1
        assert len(report.false_positives) == 1
        assert report.false_negatives == []

    def test_missing_lesion_is_fn(self):
        g, gt = two_blob_masks()
        gt2 = gt.copy()
        gt2[15:18, 15:18, 15:18] = True
        report = lesion_match(BinaryMask(g, gt2), BinaryMask(g, gt))
        assert report.n_matched == 1
        assert report.false_positives == []
        assert len(report.false_negatives) == 1

    def test_multi_gt_assignment_largest_intersection(self):
        # one pred spanning two gt lesions goes to the one it overlaps more
        g = Geometry((20, 8, 8))
        gt = np.zeros((20, 8, 8), bool)
        gt[2:4, 2:5, 2:5] = True     # lesion 1, overlap 2 slabs
        gt[8:13, 2:5, 2:5] = True    # lesion 2, overlap 5 slabs
        pred = np.zeros((20, 8, 8), bool)
        pred[2:13, 2:5, 2:5] = True
        report = lesion_match(BinaryMask(g, gt), BinaryMask(g, pred))
        assert report.n_matched == 1
        gid, pids, _ = report.matched[0]
        assert gid == 2  # bigger overlap
        assert len(report.false_negatives) == 1

    def test_every_component_accounted_once(self, rng):
        g = Geometry((16, 16, 16))
        gt = BinaryMask(g, rng.random((16, 16, 16)) < 0.08)
        pred = BinaryMask(g, rng.random((16, 16, 16)) < 0.08)
        report = lesion_match(gt, pred)
        matched_pids = [pid for _, pids, _ in report.matched for pid in pids]
        assert len(matched_pids) == len(set(matched_pids))
        from bratskit.morphology import connected_components
        n_pred = connected_components(pred, report.params.connectivity).count
        n_gt = connected_components(gt, report.params.connectivity).count
        assert len(matched_pids) + len(report.false_positives) == n_pred
        assert report.n_matched + len(report.false_negatives) == n_gt


CONNECTIVITIES = [(Connectivity.Face6, NEIGHBOURS_6), (Connectivity.Full26, NEIGHBOURS_26)]


def assert_match_equals_oracle(gt_bits, pred_bits, conn, neighbours, k,
                               min_gt_lesion_size=0, spacing=(1.0, 1.0, 1.0)):
    g = Geometry(gt_bits.shape, spacing)
    report = lesion_match(BinaryMask(g, gt_bits), BinaryMask(g, pred_bits),
                          MatchParams(k, conn, min_gt_lesion_size))
    matched, fps, fns = brute_lesion_match(gt_bits, pred_bits, neighbours, k,
                                           min_gt_lesion_size, spacing)
    assert report.false_positives == fps
    assert report.false_negatives == fns
    assert [m[:2] for m in report.matched] == [m[:2] for m in matched]
    for (_, _, pair), (_, _, (dsc, hd)) in zip(report.matched, matched):
        assert pair.dsc == pytest.approx(dsc)
        assert pair.hd95 == pytest.approx(hd, abs=1e-5)
    return report


class TestLesionMatchOracle:
    @pytest.mark.parametrize("k", [0, 1, 3])
    @pytest.mark.parametrize("conn,neighbours", CONNECTIVITIES, ids=["face6", "full26"])
    def test_random_phantoms(self, conn, neighbours, k):
        rng = np.random.default_rng(2023 + k)
        for i in range(50):
            gt, pred = generate_phantom(random_phantom_spec(rng, max_dim=24, max_lesions=3))
            spacing = (1.0, 1.0, 1.0) if i % 2 else (0.7, 1.3, 2.1)
            for region in REGIONS:
                assert_match_equals_oracle(extract_region(gt, region).bits,
                                           extract_region(pred, region).bits,
                                           conn, neighbours, k, spacing=spacing)

    @pytest.mark.parametrize("conn,neighbours", CONNECTIVITIES, ids=["face6", "full26"])
    def test_lesions_on_every_grid_face(self, conn, neighbours):
        # One gt voxel at the centre of each face, so every padded box is
        # clipped. Each gets a pred voxel 3 steps inward (matched for both
        # connectivities) and one 2 steps along each axis (Chebyshev 2, L1 6).
        dims = (11, 12, 13)
        gt = np.zeros(dims, bool)
        pred = np.zeros(dims, bool)
        for axis in range(3):
            for side in (0, dims[axis] - 1):
                at = [d // 2 for d in dims]
                at[axis] = side
                gt[tuple(at)] = True
                inward = 1 if side == 0 else -1
                at[axis] = side + 3 * inward
                pred[tuple(at)] = True
                at[axis] = side + 2 * inward
                at[(axis + 1) % 3] += 2
                at[(axis + 2) % 3] += 2
                pred[tuple(at)] = True
        report = assert_match_equals_oracle(gt, pred, conn, neighbours, 3)
        assert report.n_matched == 6 and report.false_negatives == []
        assert len(report.false_positives) == (6 if conn is Connectivity.Face6 else 0)

    @pytest.mark.parametrize("conn,neighbours", CONNECTIVITIES, ids=["face6", "full26"])
    def test_pred_reaching_past_padded_box(self, conn, neighbours):
        gt = np.zeros((40, 9, 9), bool)
        gt[2:5, 3:6, 3:6] = True
        pred = np.zeros((40, 9, 9), bool)
        pred[3:38, 4, 4] = True  # enters gt, ends far past its padded box (x < 8)
        report = assert_match_equals_oracle(gt, pred, conn, neighbours, 3)
        assert report.n_matched == 1
        pair = report.matched[0][2]
        assert pair.dsc == pytest.approx(2 * 2 / (27 + 35))
        assert pair.hd95 > 30.0

    @pytest.mark.parametrize("conn,neighbours", CONNECTIVITIES, ids=["face6", "full26"])
    def test_overlap_tie_goes_to_lower_gt_id(self, conn, neighbours):
        gt = np.zeros((20, 7, 7), bool)
        gt[2:5, 2:5, 2:5] = True    # gt 1
        gt[12:15, 2:5, 2:5] = True  # gt 2
        pred = np.zeros((20, 7, 7), bool)
        pred[5:12, 3, 3] = True     # 3 voxels within 3 steps of each
        report = assert_match_equals_oracle(gt, pred, conn, neighbours, 3)
        assert [m[:2] for m in report.matched] == [(1, frozenset({1}))]
        assert report.false_negatives == [2]

    @pytest.mark.parametrize("conn,neighbours", CONNECTIVITIES, ids=["face6", "full26"])
    def test_min_gt_lesion_size_drops_lesion(self, conn, neighbours):
        gt = np.zeros((20, 20, 20), bool)
        gt[2, 2, 2] = True           # gt 1, one voxel: dropped
        gt[10:14, 10:14, 10:14] = True
        pred = np.zeros((20, 20, 20), bool)
        pred[2:4, 2, 2] = True       # touches only the dropped lesion
        pred[10:14, 10:14, 10:14] = True
        report = assert_match_equals_oracle(gt, pred, conn, neighbours, 3,
                                            min_gt_lesion_size=5)
        assert [m[:2] for m in report.matched] == [(2, frozenset({2}))]
        assert report.false_positives == [1]
        assert report.false_negatives == []


    def test_memory_does_not_grow_with_lesion_pairs(self):
        # about 3000 lesions on each side: a (gt x pred) array would take 73 MB
        rng = np.random.default_rng(0)
        g = Geometry((48, 48, 48))
        gt = BinaryMask(g, rng.random(g.dims) < 0.03)
        pred = BinaryMask(g, rng.random(g.dims) < 0.03)
        tracemalloc.start()
        try:
            lesion_match(gt, pred, MatchParams(1, Connectivity.Face6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6


class TestLesionwiseCaseMetrics:
    def test_perfect_prediction(self, rng):
        spec = random_phantom_spec(rng, perturb=False)
        gt, pred = generate_phantom(spec)
        case, _ = case_metrics_lesionwise(gt, pred)
        for region in REGIONS:
            assert case.per_region[region].dsc == 1.0
            assert case.per_region[region].hd95 == 0.0

    def test_one_perfect_plus_one_fp_average(self):
        vox_gt = np.zeros((24, 24, 24), np.uint8)
        vox_gt[2:6, 2:6, 2:6] = 2
        vox_pred = vox_gt.copy()
        vox_pred[18:21, 18:21, 18:21] = 2  # far-away FP lesion
        case, reports = case_metrics_lesionwise(
            labels_from_array(vox_gt), labels_from_array(vox_pred))
        assert case.per_region[Region.WT].dsc == pytest.approx(0.5)
        assert case.per_region[Region.WT].hd95 == pytest.approx(HD95_PENALTY / 2)
        assert len(reports[Region.WT].false_positives) == 1

    def test_empty_empty_region(self):
        vox = np.zeros((6, 6, 6), np.uint8)
        vox[2, 2, 2] = 2  # WT only; TC and ET empty on both sides
        case, _ = case_metrics_lesionwise(labels_from_array(vox), labels_from_array(vox))
        assert case.per_region[Region.ET].dsc == 1.0
        assert case.per_region[Region.ET].hd95 == 0.0

    def test_fp_monotone_penalty(self):
        vox_gt = np.zeros((30, 30, 30), np.uint8)
        vox_gt[2:6, 2:6, 2:6] = 2
        vox_pred = vox_gt.copy()
        base, _ = case_metrics_lesionwise(labels_from_array(vox_gt),
                                          labels_from_array(vox_pred))
        vox_pred2 = vox_pred.copy()
        vox_pred2[24:27, 24:27, 24:27] = 2
        worse, _ = case_metrics_lesionwise(labels_from_array(vox_gt),
                                           labels_from_array(vox_pred2))
        assert worse.per_region[Region.WT].dsc <= base.per_region[Region.WT].dsc
        assert worse.per_region[Region.WT].hd95 >= base.per_region[Region.WT].hd95

    def test_single_matched_lesion_equals_legacy(self, rng):
        spec = random_phantom_spec(rng, max_lesions=1, perturb=False)
        gt, pred = generate_phantom(spec)
        legacy = case_metrics_legacy(gt, pred)
        lesionwise, _ = case_metrics_lesionwise(gt, pred)
        for region in REGIONS:
            assert lesionwise.per_region[region].dsc == pytest.approx(
                legacy.per_region[region].dsc)
            assert lesionwise.per_region[region].hd95 == pytest.approx(
                legacy.per_region[region].hd95)

    def test_min_gt_lesion_size_filter(self):
        vox_gt = np.zeros((20, 20, 20), np.uint8)
        vox_gt[2, 2, 2] = 2  # tiny lesion
        vox_gt[10:14, 10:14, 10:14] = 2
        vox_pred = np.zeros((20, 20, 20), np.uint8)
        vox_pred[10:14, 10:14, 10:14] = 2
        params = MatchParams(min_gt_lesion_size=5)
        case, reports = case_metrics_lesionwise(
            labels_from_array(vox_gt), labels_from_array(vox_pred), params)
        assert reports[Region.WT].false_negatives == []
        assert case.per_region[Region.WT].dsc == 1.0


def test_metrics_rows_schema():
    vox = np.zeros((6, 6, 6), np.uint8)
    vox[2, 2, 2] = 3
    case, reports = case_metrics_lesionwise(labels_from_array(vox), labels_from_array(vox))
    rows = metrics_rows(case, reports)
    assert [r[2] for r in rows] == ["ET", "TC", "WT"]
    assert all(r[1] == "lesionwise" for r in rows)
    assert rows[0][3] == "1.000000" and rows[0][4] == "0.000000"


@pytest.mark.parametrize("kwargs", [dict(dilation_iterations=-1), dict(min_gt_lesion_size=-1)])
def test_match_params_reject_negative(kwargs):
    with pytest.raises(ValidationError):
        MatchParams(**kwargs)


@pytest.mark.parametrize("kwargs", [dict(dilation_iterations=1.5), dict(min_gt_lesion_size=2.5),
                                    dict(dilation_iterations=float("nan")),
                                    dict(min_gt_lesion_size=float("inf"))])
def test_match_params_reject_non_integral(kwargs):
    with pytest.raises(ValidationError, match="integers >= 0"):
        MatchParams(**kwargs)


@pytest.mark.parametrize("connectivity", [3, "26", None, True, "Full26"])
def test_match_params_refuse_other_connectivities(connectivity):
    # Refused when the params are built, not as an AttributeError in the matching.
    with pytest.raises(ValidationError, match="one of 6, 26"):
        MatchParams(3, connectivity)


def test_match_params_take_a_connectivity_by_its_value():
    vox = np.zeros((8, 8, 8), np.uint8)
    vox[2:4, 2:4, 2:4] = 2
    vox[5, 5, 5] = 3
    labels = labels_from_array(vox)
    for value, member in ((6, Connectivity.Face6), (np.int64(26), Connectivity.Full26)):
        params = MatchParams(3, value)
        assert params.connectivity is member
        assert case_metrics_lesionwise(labels, labels, params) == \
            case_metrics_lesionwise(labels, labels, MatchParams(3, member))


def test_fractional_dilation_refused_before_matching():
    # Refused when the params are built, not as a TypeError from slicing a box.
    vox = np.zeros((8, 8, 8), np.uint8)
    vox[2:4, 2:4, 2:4] = 2
    labels = labels_from_array(vox)
    mask = extract_region(labels, Region.WT)
    with pytest.raises(ValidationError):
        lesion_match(mask, mask, MatchParams(dilation_iterations=1.5))
    with pytest.raises(ValidationError):
        case_metrics_lesionwise(labels, labels, MatchParams(dilation_iterations=1.5))


def test_match_params_take_integral_values_of_any_type():
    vox = np.zeros((8, 8, 8), np.uint8)
    vox[2:4, 2:4, 2:4] = 2
    labels = labels_from_array(vox)
    params = MatchParams(dilation_iterations=2.0, min_gt_lesion_size=np.int64(1))
    assert params == MatchParams(2, min_gt_lesion_size=1)
    assert type(params.dilation_iterations) is int
    assert case_metrics_lesionwise(labels, labels, params) == \
        case_metrics_lesionwise(labels, labels, MatchParams(2, min_gt_lesion_size=1))


def test_mean_rows_average_the_written_strings():
    rows = [["a", "legacy", "ET", "0.250000", "1.000000", "", "", ""],
            ["a", "legacy", "WT", "1.000000", "2.500000", "", "", ""],
            ["b", "legacy", "ET", "0.500000", "3.000000", "", "", ""]]
    assert mean_rows(rows, "legacy") == [
        ["__mean__", "legacy", "ET", "0.375000", "2.000000", "", "", ""],
        ["__mean__", "legacy", "WT", "1.000000", "2.500000", "", "", ""],
    ]
    assert mean_rows([], "legacy") == []


def on_cores(monkeypatch, n):
    """The package sees `n` usable cores."""
    monkeypatch.setattr(bratskit.cores, "usable_cores", lambda: n)


def threads_case(spacing=(1.0, 1.0, 1.0)):
    """Two shifted lesions, one left out, and a spurious one: surfaces large
    enough for the k-d tree in both modes, and shared voxels."""
    spec = PhantomSpec((48, 44, 40), (Lesion((14, 14, 12), (9, 8, 7)), Lesion((33, 30, 27), (7, 9, 8)),
                                      Lesion((38, 8, 8), (3, 3, 3))),
                       Perturbation("shift", shift=(1, 1, 0)))
    gt, pred = generate_phantom(spec)
    vox = pred.voxels.copy()
    vox[36:41, 6:11, 6:11] = 0
    vox[8:12, 34:38, 30:34] = 2
    return labels_from_array(gt.voxels, spacing), labels_from_array(vox, spacing)


class TestSearchThreads:
    """Every search runs on the thread of the call that asks for it: the
    bytes do not depend on the usable core count, and no thread starts."""

    @pytest.fixture
    def seen(self, monkeypatch):
        """The thread that ran each search, and how many threads were alive then."""
        threads, core = [], metrics._directed_p95

        def noting(*args):
            threads.append((threading.current_thread(), threading.active_count()))
            return core(*args)

        monkeypatch.setattr(metrics, "_directed_p95", noting)
        return threads

    @pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (0.7, 1.3, 2.1)])
    def test_rows_do_not_depend_on_the_core_count(self, monkeypatch, seen, spacing):
        gt, pred = threads_case(spacing)
        calls = (lambda: metrics_rows(case_metrics_legacy(gt, pred, "c")),
                 lambda: metrics_rows(*case_metrics_lesionwise(gt, pred, case_id="c")))
        rows = {}
        for cores in (1, 2, 3):
            on_cores(monkeypatch, cores)
            rows[cores] = []
            for call in calls:
                seen.clear()
                before = threading.active_count()
                rows[cores] += call()
                assert threading.active_count() == before
                assert seen and {(t, alive) for t, alive in seen} == {(threading.main_thread(), before)}
        assert rows[1] == rows[2] == rows[3]
        legacy = case_metrics_legacy(gt, pred).per_region
        for region in REGIONS:
            a, b = extract_region(gt, region).bits, extract_region(pred, region).bits
            assert legacy[region].hd95 == edt_hd95(a, b, spacing)

    def test_hd95_and_lesion_match_on_the_calling_thread(self, monkeypatch, seen):
        gt, pred = threads_case()
        pairs = [(extract_region(gt, r), extract_region(pred, r)) for r in REGIONS]
        want = {}
        for cores in (1, 3):
            on_cores(monkeypatch, cores)
            before = threading.active_count()
            want[cores] = [(hd95(a, b), lesion_match(a, b)) for a, b in pairs]
            assert threading.active_count() == before
        assert want[1] == want[3]
        assert seen and {t for t, _ in seen} == {threading.main_thread()}
