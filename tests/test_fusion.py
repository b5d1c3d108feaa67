import numpy as np
import pytest

from bratskit.errors import IncompatibleGeometryError, ValidationError
import bratskit.fusion
from bratskit.fusion import (
    MAX_RATERS,
    StapleFit,
    average_fusion,
    staple_binary,
    staple_fusion,
)
from bratskit.nifti import open_region_prob, write_volume
from bratskit.regions import REGIONS, Region, extract_region, reconstruct_labels
from bratskit.volume import BinaryMask, Geometry, LabelVolume, RegionProbVolume, tumour_box

from conftest import LAYOUTS, labels_from_array, relaid
from oracles import staple_em_oracle


def prob_volume(rng, g):
    return RegionProbVolume(g, rng.random((3, *g.dims)).astype(np.float32))


class TestAverageFusion:
    def test_single_input_identity(self, rng):
        g = Geometry((5, 5, 5))
        pv = prob_volume(rng, g)
        fused, labels = average_fusion([pv])
        assert np.allclose(fused.channels, pv.channels)
        masks = [BinaryMask(g, pv.channels[c] >= 0.5) for c in range(3)]
        assert labels == reconstruct_labels(*masks)

    def test_arithmetic_mean(self):
        g = Geometry((2, 2, 2))
        a = np.zeros((3, 2, 2, 2), np.float32)
        b = np.zeros((3, 2, 2, 2), np.float32)
        a[0, 0, 0, 0] = 0.4
        b[0, 0, 0, 0] = 0.8
        fused, labels = average_fusion([RegionProbVolume(g, a), RegionProbVolume(g, b)])
        assert fused.channels[0, 0, 0, 0] == pytest.approx(0.6)
        assert extract_region(labels, Region.WT).bits[0, 0, 0]

    def test_unanimous_inputs(self, rng):
        g = Geometry((4, 4, 4))
        pv = prob_volume(rng, g)
        _, single = average_fusion([pv])
        _, triple = average_fusion([pv, pv, pv])
        assert single == triple

    def test_order_and_duplication_invariance(self, rng):
        g = Geometry((4, 4, 4))
        a, b = prob_volume(rng, g), prob_volume(rng, g)
        f1, _ = average_fusion([a, b])
        f2, _ = average_fusion([b, a])
        f3, _ = average_fusion([a, b, a, b])
        assert np.allclose(f1.channels, f2.channels)
        assert np.allclose(f1.channels, f3.channels, atol=1e-7)

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            average_fusion([])

    @pytest.mark.parametrize("n_maps", [2, 3, 5])
    def test_bytes_match_mean_of_stacked_float64_copies(self, rng, n_maps):
        g = Geometry((9, 7, 5))
        maps = [prob_volume(rng, g) for _ in range(n_maps)]
        fused, _ = average_fusion(maps)
        expected = np.mean([m.channels.astype(np.float64) for m in maps], axis=0)
        assert fused.channels.tobytes() == expected.astype(np.float32).tobytes()

    @pytest.mark.parametrize("n_maps", [1, 2, 3, 5])
    def test_generator_bytes_match_mean_of_stacked_float64_copies(self, rng, n_maps):
        g = Geometry((9, 7, 5))
        maps = [prob_volume(rng, g) for _ in range(n_maps)]
        fused, labels = average_fusion(m for m in maps)
        expected = np.mean([m.channels.astype(np.float64) for m in maps], axis=0)
        assert fused.channels.tobytes() == expected.astype(np.float32).tobytes()
        assert labels == average_fusion(maps)[1]

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_file_maps_and_any_layout_give_the_same_bytes(self, rng, tmp_path, layout):
        g = Geometry((9, 7, 5), (1.0, 1.5, 2.0))
        maps = [prob_volume(rng, g) for _ in range(3)]
        paths = [tmp_path / f"p{i}.nii" for i in range(3)]
        for m, path in zip(maps, paths):
            write_volume(m, path)
        fused, labels = average_fusion(maps)
        for other in (average_fusion([relaid(m, layout) for m in maps]),
                      average_fusion([open_region_prob(path) for path in paths])):
            assert other[0].channels.tobytes() == fused.channels.tobytes()
            assert other[1] == labels

    def test_result_in_file_order(self, rng):
        fused, labels = average_fusion([prob_volume(rng, Geometry((9, 7, 5)))] * 2)
        assert np.moveaxis(fused.channels, 0, 3).flags.f_contiguous
        assert labels.voxels.flags.f_contiguous

    def test_negative_zero_kept(self, rng):
        # -0.0 lies in [0, 1]; the mean of stacked copies keeps its sign bit.
        g = Geometry((4, 3, 2))
        a, b = np.zeros((3, *g.dims), np.float32), np.zeros((3, *g.dims), np.float32)
        a[1, 2, 1, 0] = b[1, 2, 1, 0] = -0.0
        fused, _ = average_fusion([RegionProbVolume(g, a), RegionProbVolume(g, b)])
        assert np.signbit(fused.channels[1, 2, 1, 0])
        assert np.signbit(fused.channels).sum() == 1

    def test_empty_generator_rejected(self):
        with pytest.raises(ValidationError):
            average_fusion(m for m in [])

    def test_generator_geometry_mismatch_rejected(self, rng):
        g, other = Geometry((4, 4, 4)), Geometry((4, 4, 5))
        maps = (prob_volume(rng, geom) for geom in (g, g, other, g))
        with pytest.raises(IncompatibleGeometryError):
            average_fusion(maps)


def block_mask(g, lo, hi):
    bits = np.zeros(g.dims, bool)
    bits[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = True
    return BinaryMask(g, bits)


def staple_and_oracle(masks):
    """staple_binary's result and the per-voxel oracle's, under the same prior."""
    d = np.stack([m.bits.ravel() for m in masks]).astype(float)
    return staple_binary(masks), staple_em_oracle(d, d.mean(axis=0))


class TestStapleBinary:
    def test_needs_two_masks(self):
        g = Geometry((3, 3, 3))
        with pytest.raises(ValidationError):
            staple_binary([block_mask(g, (0, 0, 0), (1, 1, 1))])

    def test_rater_bound(self, rng):
        g = Geometry((4, 4, 3))
        masks = [BinaryMask(g, rng.random(g.dims) < 0.5) for _ in range(MAX_RATERS + 1)]
        with pytest.raises(ValidationError, match=str(MAX_RATERS)):
            staple_binary(masks)
        res = staple_binary(masks[:MAX_RATERS])
        assert res.weights.shape == g.dims
        assert np.isfinite(res.weights).all()

    def test_max_iters_must_be_positive(self):
        g = Geometry((3, 3, 3))
        m = block_mask(g, (0, 0, 0), (1, 1, 1))
        with pytest.raises(ValidationError, match="max_iters"):
            staple_binary([m, m], max_iters=0)

    @pytest.mark.parametrize("max_iters", [2.5, float("nan"), float("inf")])
    def test_max_iters_must_be_an_integer(self, max_iters):
        g = Geometry((3, 3, 3))
        m = block_mask(g, (0, 0, 0), (1, 1, 1))
        with pytest.raises(ValidationError, match="max_iters"):
            staple_binary([m, m], max_iters=max_iters)

    def test_integral_max_iters_accepted(self, rng):
        g = Geometry((6, 5, 4))
        masks = [BinaryMask(g, rng.random(g.dims) < 0.4) for _ in range(3)]
        res = staple_binary(masks, max_iters=3.0)
        assert type(res.iterations_run) is int
        assert res.iterations_run <= 3

    def test_unanimous_raters(self):
        g = Geometry((6, 6, 6))
        m = block_mask(g, (1, 1, 1), (4, 4, 4))
        res = staple_binary([m, m, m])
        assert res.consensus == m
        assert res.converged
        for sens, spec in res.rater_performance:
            assert sens == pytest.approx(1.0, abs=1e-3)
            assert spec == pytest.approx(1.0, abs=1e-3)

    def test_majority_two_vs_one(self):
        g = Geometry((4, 4, 4))
        m = block_mask(g, (1, 1, 1), (3, 3, 3))
        empty = block_mask(g, (0, 0, 0), (0, 0, 0))
        res = staple_binary([m, m, empty])
        assert res.consensus == m

    def test_all_empty_short_circuit(self):
        g = Geometry((4, 4, 4))
        empty = block_mask(g, (0, 0, 0), (0, 0, 0))
        res = staple_binary([empty, empty])
        assert res.consensus == empty
        assert res.converged
        assert res.iterations_run == 0

    def test_matches_independent_em_oracle(self, rng):
        g = Geometry((6, 6, 6))
        for _ in range(8):
            # raters are noisy observations of a common latent mask
            truth = rng.random(g.dims) < 0.4
            masks = [BinaryMask(g, truth ^ (rng.random(g.dims) < 0.1))
                     for _ in range(3)]
            if not any(m.any() for m in masks):
                continue
            res = staple_binary(masks)
            d = np.stack([m.bits.ravel() for m in masks]).astype(float)
            prior = d.mean(axis=0)
            w, p, q, _ = staple_em_oracle(d, prior)
            assert res.converged
            assert res.iterations_run <= 100
            assert np.allclose(res.weights.ravel(), w, atol=1e-6)

    def test_oracle_agreement_without_shared_truth(self, rng):
        # fully independent raters may not converge, but the EM trajectory
        # must still track the oracle step for step
        g = Geometry((6, 6, 6))
        masks = [BinaryMask(g, rng.random(g.dims) < 0.4) for _ in range(3)]
        res = staple_binary(masks)
        d = np.stack([m.bits.ravel() for m in masks]).astype(float)
        w, _, _, _ = staple_em_oracle(d, d.mean(axis=0))
        assert np.allclose(res.weights.ravel(), w, atol=1e-6)

    @pytest.mark.parametrize("n_raters", [2, 3, 4, 5, 6])
    def test_pattern_histogram_matches_per_voxel_oracle(self, rng, n_raters):
        g = Geometry((9, 8, 7))
        for _ in range(4):
            truth = rng.random(g.dims) < rng.uniform(0.1, 0.6)
            masks = [BinaryMask(g, truth ^ (rng.random(g.dims) < rng.uniform(0.0, 0.2)))
                     for _ in range(n_raters)]
            res, (w, p, q, iterations) = staple_and_oracle(masks)
            assert res.iterations_run == iterations
            assert np.allclose(res.weights.ravel(), w, rtol=0, atol=1e-6)
            assert np.allclose(np.array(res.rater_performance), np.stack([p, q], axis=1),
                               rtol=0, atol=1e-6)

    @pytest.mark.parametrize("decisions", [(1, 1), (1, 1, 1), (1, 0), (0, 1, 1)])
    def test_single_pattern_matches_oracle(self, decisions):
        # every voxel carries the same decision pattern
        g = Geometry((4, 3, 2))
        masks = [BinaryMask(g, np.full(g.dims, bool(v))) for v in decisions]
        res, (w, _, _, iterations) = staple_and_oracle(masks)
        assert res.iterations_run == iterations
        assert np.allclose(res.weights.ravel(), w, rtol=0, atol=1e-6)
        assert np.ptp(res.weights) == 0.0

    def test_rater_order_invariance(self, rng):
        g = Geometry((5, 5, 5))
        masks = [BinaryMask(g, rng.random(g.dims) < 0.4) for _ in range(3)]
        res = staple_binary(masks)
        res_rev = staple_binary(masks[::-1])
        assert res.consensus == res_rev.consensus
        assert np.allclose(
            np.array(res.rater_performance)[::-1], np.array(res_rev.rater_performance),
            atol=1e-9)

    def test_posterior_in_unit_interval(self, rng):
        g = Geometry((5, 5, 5))
        masks = [BinaryMask(g, rng.random(g.dims) < 0.3) for _ in range(4)]
        res = staple_binary(masks)
        assert np.isfinite(res.weights).all()
        assert res.weights.min() >= 0.0 and res.weights.max() <= 1.0

    def test_raters_box_is_the_whole_grid(self, rng):
        # Opposite corners are marked, so no voxel lies outside the raters' box.
        g = Geometry((9, 8, 7))
        truth = rng.random(g.dims) < 0.3
        bits = [truth ^ (rng.random(g.dims) < 0.1) for _ in range(3)]
        bits[0][0, 0, 0] = bits[0][-1, -1, -1] = True
        masks = [BinaryMask(g, b) for b in bits]
        assert tumour_box(masks) == tuple(slice(0, n) for n in g.dims)
        res, (w, p, q, iterations) = staple_and_oracle(masks)
        assert res.iterations_run == iterations
        assert np.allclose(res.weights.ravel(), w, rtol=0, atol=1e-6)
        assert np.allclose(np.array(res.rater_performance), np.stack([p, q], axis=1),
                           rtol=0, atol=1e-6)

    @pytest.mark.parametrize("n_raters", [3, 5, 8])
    def test_all_raters_mark_every_voxel(self, n_raters):
        # The posterior is exactly 1 everywhere, so no voxel weighs on the
        # specificity update; it must keep its value instead of becoming 0/0.
        g = Geometry((4, 4, 4))
        full = BinaryMask(g, np.ones(g.dims, bool))
        res = staple_binary([full] * n_raters)
        assert res.converged
        assert res.consensus == full
        assert np.allclose(res.weights, 1.0)
        assert all(np.isfinite(pq).all() for pq in res.rater_performance)


class TestStapleFusion:
    @pytest.mark.parametrize("n", [0, 1, MAX_RATERS + 1])
    def test_refuses_rater_count_outside_2_to_16(self, n):
        labels = [labels_from_array(np.zeros((3, 3, 3), np.uint8))] * n
        with pytest.raises(ValidationError, match=f"STAPLE needs 2 to {MAX_RATERS} raters, got {n}"):
            staple_fusion(labels)

    @pytest.mark.parametrize("shape, spacing", [((6, 6, 7), (1.0, 1.0, 1.0)),
                                                ((6, 6, 6), (1.0, 1.0, 3.0))],
                             ids=["dims", "spacing"])
    def test_refuses_mismatched_geometry(self, rng, shape, spacing):
        # The geometry check lives in staple_binary; each extracted region
        # keeps its volume's geometry, so the mismatch still surfaces here.
        vox = rng.integers(0, 4, (6, 6, 6)).astype(np.uint8)
        other = labels_from_array(rng.integers(0, 4, shape).astype(np.uint8), spacing)
        with pytest.raises(IncompatibleGeometryError):
            staple_fusion([labels_from_array(vox), labels_from_array(vox), other])

    @pytest.mark.parametrize("max_iters", [0, 2.5])
    def test_max_iters_checked_when_every_region_is_empty(self, max_iters):
        labels = [labels_from_array(np.zeros((3, 3, 3), np.uint8))] * 2
        with pytest.raises(ValidationError, match="max_iters"):
            staple_fusion(labels, max_iters=max_iters)

    def test_identical_inputs(self, rng):
        vox = rng.integers(0, 4, (6, 6, 6)).astype(np.uint8)
        labels = labels_from_array(vox)
        assert staple_fusion([labels, labels, labels]) == labels

    def test_majority(self, rng):
        vox = rng.integers(0, 4, (6, 6, 6)).astype(np.uint8)
        a = labels_from_array(vox)
        other = labels_from_array(np.zeros((6, 6, 6), np.uint8))
        fused = staple_fusion([a, a, other])
        assert fused == a

    def test_output_nested(self, rng):
        inputs = [labels_from_array(rng.integers(0, 4, (6, 6, 6)).astype(np.uint8))
                  for _ in range(3)]
        fused = staple_fusion(inputs)
        wt = extract_region(fused, Region.WT).bits
        tc = extract_region(fused, Region.TC).bits
        et = extract_region(fused, Region.ET).bits
        assert not (et & ~tc).any()
        assert not (tc & ~wt).any()


def region_consensus(labels, max_iters=100):
    """reconstruct_labels of each region's staple_binary consensus on the full grid."""
    results = [staple_binary([extract_region(lv, r) for lv in labels], max_iters) for r in REGIONS]
    return reconstruct_labels(*(res.consensus for res in results)), results


def noisy_raters(rng, dims, n_raters, box):
    """Label volumes that mark only `box`: a shared truth with per-rater flips."""
    truth = rng.integers(0, 4, dims).astype(np.uint8)
    raters = []
    for _ in range(n_raters):
        vox = np.where(rng.random(dims) < 0.15, rng.integers(0, 4, dims), truth).astype(np.uint8)
        out = np.zeros(vox.shape, np.uint8)
        out[box] = vox[box]
        raters.append(out)
    return raters


class TestStapleFusionPaste:
    """staple_fusion runs on the labels' box and fills the rest of the grid;
    it must give the labels of the full-grid per-region STAPLE."""

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_full_grid_region_consensus(self, seed, layout):
        rng = np.random.default_rng(seed)
        dims = tuple(int(n) for n in rng.integers(5, 11, 3))
        lo = [int(rng.integers(0, n - 2)) for n in dims]
        box = tuple(slice(a, int(rng.integers(a + 1, n + 1))) for a, n in zip(lo, dims))
        raters = noisy_raters(rng, dims, int(rng.integers(2, 6)), box)
        labels = [labels_from_array(LAYOUTS[layout](v)) for v in raters]
        expected, _ = region_consensus(labels)
        assert staple_fusion(labels) == expected

    def test_all_empty_raters(self):
        labels = [labels_from_array(np.zeros((4, 5, 6), np.uint8))] * 3
        fits = []
        fused = staple_fusion(labels, on_region=lambda region, fit: fits.append(fit))
        assert fused == labels[0]
        assert [(f.iterations_run, f.converged) for f in fits] == [(0, True)] * 3

    def test_box_is_the_whole_grid(self, rng):
        dims = (7, 6, 5)
        raters = noisy_raters(rng, dims, 3, tuple(slice(0, n) for n in dims))
        raters[0][0, 0, 0] = raters[0][-1, -1, -1] = 2
        labels = [labels_from_array(v) for v in raters]
        assert tumour_box(labels) == tuple(slice(0, n) for n in dims)
        assert staple_fusion(labels) == region_consensus(labels)[0]

    def test_on_region_reports_the_full_grid_fit(self, rng):
        raters = noisy_raters(rng, (8, 7, 6), 3, (slice(1, 6), slice(2, 5), slice(0, 4)))
        labels = [labels_from_array(v) for v in raters]
        fits = {}
        staple_fusion(labels, max_iters=3, on_region=fits.__setitem__)
        _, results = region_consensus(labels, max_iters=3)
        assert list(fits) == list(REGIONS)
        for fit, res in zip(fits.values(), results):
            assert isinstance(fit, StapleFit)
            assert fit.rater_performance == res.rater_performance
            assert (fit.iterations_run, fit.converged) == (res.iterations_run, res.converged)

    @pytest.mark.parametrize("marks_outside, fill", [
        ((True, False, False), 2), ((True, True, False), 1),
        ((True, True, True), 3), ((False, False, True), 3), ((False, True, False), 1)])
    def test_outside_takes_the_reconstructed_fill(self, rng, monkeypatch, marks_outside, fill):
        # EM keeps pattern 0's posterior far below 0.5 on real raters, but no
        # bound holds it there: a core whose pattern-0 posterior is raised to
        # 0.9 for the chosen regions must fill every voxel outside the box.
        core = bratskit.fusion._staple_em
        calls = iter(marks_outside * 2)

        def raised(*args):
            fit = core(*args)
            posterior = fit.posterior.copy()
            if next(calls):
                posterior[0] = 0.9
            return fit._replace(posterior=posterior)

        monkeypatch.setattr(bratskit.fusion, "_staple_em", raised)
        box = (slice(2, 5), slice(1, 4), slice(3, 6))
        labels = [labels_from_array(v) for v in noisy_raters(rng, (8, 7, 9), 3, box)]
        fused = staple_fusion(labels)
        outside = np.ones(fused.geometry.dims, bool)
        outside[tumour_box(labels)] = False
        assert outside.any() and (fused.voxels[outside] == fill).all()
        assert fused == region_consensus(labels)[0]
