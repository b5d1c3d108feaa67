import numpy as np
import pytest

from bratskit.errors import ValidationError
from bratskit.fusion import (
    MAX_RATERS,
    PriorKind,
    StapleParams,
    average_fusion,
    staple_binary,
    staple_fusion,
)
from bratskit.regions import REGIONS, Region, extract_region, reconstruct_labels
from bratskit.volume import BinaryMask, Geometry, LabelVolume, RegionProbVolume

from conftest import labels_from_array
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


def block_mask(g, lo, hi):
    bits = np.zeros(g.dims, bool)
    bits[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = True
    return BinaryMask(g, bits)


def staple_and_oracle(masks, prior, fixed_prior=0.3):
    """staple_binary's result and the per-voxel oracle's, under the same prior."""
    params = StapleParams(prior=prior, fixed_prior=fixed_prior if prior is PriorKind.Fixed else None)
    d = np.stack([m.bits.ravel() for m in masks]).astype(float)
    oracle_prior = d.mean(axis=0) if prior is PriorKind.MeanOfMasks else np.full(d.shape[1], fixed_prior)
    return staple_binary(masks, params), staple_em_oracle(d, oracle_prior)


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
        with pytest.raises(ValidationError):
            StapleParams(max_iters=0)

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
    @pytest.mark.parametrize("prior", [PriorKind.MeanOfMasks, PriorKind.Fixed])
    def test_pattern_histogram_matches_per_voxel_oracle(self, rng, n_raters, prior):
        g = Geometry((9, 8, 7))
        for _ in range(4):
            truth = rng.random(g.dims) < rng.uniform(0.1, 0.6)
            masks = [BinaryMask(g, truth ^ (rng.random(g.dims) < rng.uniform(0.0, 0.2)))
                     for _ in range(n_raters)]
            res, (w, p, q, iterations) = staple_and_oracle(masks, prior)
            assert res.iterations_run == iterations
            assert np.allclose(res.weights.ravel(), w, rtol=0, atol=1e-6)
            assert np.allclose(np.array(res.rater_performance), np.stack([p, q], axis=1),
                               rtol=0, atol=1e-6)

    @pytest.mark.parametrize("decisions", [(1, 1), (1, 1, 1), (1, 0), (0, 1, 1)])
    @pytest.mark.parametrize("prior", [PriorKind.MeanOfMasks, PriorKind.Fixed])
    def test_single_pattern_matches_oracle(self, decisions, prior):
        # every voxel carries the same decision pattern
        g = Geometry((4, 3, 2))
        masks = [BinaryMask(g, np.full(g.dims, bool(v))) for v in decisions]
        res, (w, _, _, iterations) = staple_and_oracle(masks, prior)
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

    def test_fixed_prior(self, rng):
        g = Geometry((4, 4, 4))
        m = block_mask(g, (1, 1, 1), (3, 3, 3))
        params = StapleParams(prior=PriorKind.Fixed, fixed_prior=0.5)
        res = staple_binary([m, m, m], params)
        assert res.consensus == m


class TestStapleFusion:
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
