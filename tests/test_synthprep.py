import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bratskit.errors import (DegenerateInputError, IncompatibleGeometryError, PlacementError,
                             ValidationError)
from bratskit.synthprep import (
    CROP_SIZE,
    CorruptionField,
    LambdaPair,
    TumourGeometry,
    build_corruption_field,
    corrupt_crop,
    decay_exponent,
    discriminator_loss,
    generator_loss,
    lambda_schedule,
    place_label,
    replacement_probability,
    tumour_geometry,
)
from bratskit.volume import BinaryMask, Geometry, LabelVolume, ScalarVolume

from conftest import LAYOUTS, labels_from_array, on_cores
from oracles import brute_corrupt

CROP_GEOM = Geometry((CROP_SIZE,) * 3)
# Not a numeric array: a string, a ragged list, a dict, a complex number, bools, no number.
NOT_SCORES = [["a"], [[0.5], [0.5, 0.4]], {0: 0.5}, [1 + 2j], [True], None]


class TestTumourGeometry:
    def test_single_voxel(self):
        vox = np.zeros((40, 40, 40), np.uint8)
        vox[10, 20, 30] = 3
        geom = tumour_geometry(labels_from_array(vox))
        assert geom.center == (10, 20, 30)
        assert geom.max_size == 1

    def test_box_extents(self):
        vox = np.zeros((16, 16, 16), np.uint8)
        vox[4:10, 4:7, 4:5] = 1  # x in [4,9], y in [4,6], z = 4
        geom = tumour_geometry(labels_from_array(vox))
        assert geom.bbox_min == (4, 4, 4)
        assert geom.bbox_max == (9, 6, 4)
        assert geom.center == (6, 5, 4)
        assert geom.max_size == 6

    def test_empty_tumour_rejected(self):
        with pytest.raises(DegenerateInputError):
            tumour_geometry(labels_from_array(np.zeros((4, 4, 4))))


class TestDecayExponent:
    def test_cancellation_at_96(self):
        assert decay_exponent(96) == pytest.approx(1.1, abs=1e-12)

    def test_value_at_28(self):
        assert decay_exponent(28) == pytest.approx(1.3, abs=1e-9)

    def test_negative_slope(self):
        assert decay_exponent(1) > decay_exponent(96)

    def test_affine(self):
        # second difference of an affine function vanishes
        d1 = decay_exponent(10) - decay_exponent(20)
        d2 = decay_exponent(20) - decay_exponent(30)
        assert d1 == pytest.approx(d2, abs=1e-12)

    @pytest.mark.parametrize("bad", [0, 97, -5, 2.5, None, "5", True])
    def test_domain(self, bad):
        with pytest.raises(ValidationError):
            decay_exponent(bad)


class TestReplacementProbability:
    def test_distance_zero_is_one(self):
        for e in (1.0, 1.1, 1.3, 2.0):
            assert replacement_probability(0.0, e) == pytest.approx(1.0)

    def test_arithmetic(self):
        expected = 83.0 / (1.1**10 + 82.0)
        assert replacement_probability(10.0, 1.1) == pytest.approx(expected, abs=1e-4)
        assert expected == pytest.approx(0.9812, abs=1e-4)

    def test_flat_at_exponent_one(self):
        for d in (0.0, 5.0, 100.0):
            assert replacement_probability(d, 1.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [0.5, float("nan"), -float("inf"), "1.1", None, True])
    def test_exponent_below_one_or_nan_refused(self, bad):
        with pytest.raises(ValidationError, match="exponent"):
            replacement_probability(3.0, bad)

    def test_non_increasing(self):
        probs = [replacement_probability(d, 1.2) for d in np.linspace(0, 80, 50)]
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    # NaN, None, a negative distance, a string, a ragged list, a NaN or a
    # negative entry, complex numbers and bools.
    @pytest.mark.parametrize("bad", [float("nan"), None, -5, -float("inf"), "a", [[1.0], [1.0, 2.0]],
                                     [1.0, float("nan")], np.array([3.0, -0.5]), [1 + 2j], True,
                                     [1.0, None]])
    def test_distance_not_a_number_at_least_zero_refused(self, bad):
        with pytest.raises(ValidationError, match="distance"):
            replacement_probability(bad, 1.2)

    def test_overflow_gives_zero_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert replacement_probability((1e6, 1e300), 1.1).tolist() == [0.0, 0.0]
            assert replacement_probability(float("inf"), 1.3) == 0.0
            assert replacement_probability(1e300, 1.0) == 1.0

    def test_integer_distances_accepted(self):
        assert replacement_probability(np.arange(4), 1.2).tolist() == [
            replacement_probability(float(d), 1.2) for d in range(4)]


class TestCorruptionField:
    def field(self, max_size=96):
        vox = np.zeros((CROP_SIZE,) * 3, np.uint8)
        half = max_size // 2
        lo, hi = 48 - half, 48 - half + max_size
        vox[lo:hi, lo:hi, lo:hi] = 1
        geom = tumour_geometry(labels_from_array(vox))
        assert geom.max_size == max_size
        return build_corruption_field(geom, CROP_GEOM)

    def test_center_probability_one(self):
        field = self.field(20)
        assert field.probs[48, 48, 48] == pytest.approx(1.0)

    def test_spherical_symmetry(self):
        field = self.field(30)
        c = 48
        assert field.probs[c + 7, c, c] == pytest.approx(field.probs[c, c + 7, c])
        assert field.probs[c - 7, c, c] == pytest.approx(field.probs[c, c, c - 7])

    def test_corner_value(self):
        field = self.field(96)
        dist = math.sqrt(3 * 48.0**2)
        expected = 83.0 / (1.1**dist + 82.0)
        assert field.probs[0, 0, 0] == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.0297, abs=1e-3)

    def test_pointwise_formula(self):
        field, e = self.field(40), decay_exponent(40)
        for p in [(10, 20, 30), (48, 48, 0), (90, 48, 48)]:
            d = math.dist(p, (48, 48, 48))
            assert field.probs[p] == pytest.approx(replacement_probability(d, e))

    @pytest.mark.parametrize("max_size", [12, 40, 96])
    def test_field_equals_scalar_calls_at_every_distance(self, max_size):
        field = self.field(max_size)
        c = np.arange(CROP_SIZE) - 48
        dist = np.sqrt(c[:, None, None] ** 2 + c[None, :, None] ** 2 + c[None, None, :] ** 2)
        distances, first = np.unique(dist, return_index=True)
        expected = [replacement_probability(float(d), decay_exponent(max_size))
                    for d in distances]
        assert field.probs.ravel()[first].tolist() == expected

    def test_field_equals_the_distance_grid_formula_at_every_size(self):
        # The field indexes a table over the squared radii; its bytes are
        # those of the formula over the float64 sqrt distance grid.
        c = np.arange(CROP_SIZE, dtype=np.float64) - 48
        dist = np.sqrt(c[:, None, None] ** 2 + c[None, :, None] ** 2 + c[None, None, :] ** 2)
        for max_size in range(1, CROP_SIZE + 1):
            geom = TumourGeometry((0, 0, 0), (max_size - 1,) * 3, (0, 0, 0), max_size)
            field = build_corruption_field(geom, CROP_GEOM)
            expected = replacement_probability(dist, decay_exponent(max_size))
            assert field.probs.dtype == np.float64 and field.probs.shape == dist.shape
            assert field.probs.tobytes() == expected.tobytes(), max_size

    def test_array_call_keeps_the_shape(self):
        distances = np.linspace(0.0, 90.0, 12).reshape(3, 4)
        probs = replacement_probability(distances, 1.3)
        assert probs.shape == (3, 4)
        assert probs.tolist() == [[replacement_probability(d, 1.3) for d in row]
                                  for row in distances.tolist()]

    def test_wrong_crop_size_rejected(self):
        vox = np.zeros((CROP_SIZE,) * 3, np.uint8)
        vox[48, 48, 48] = 1
        geom = tumour_geometry(labels_from_array(vox))
        with pytest.raises(ValidationError):
            build_corruption_field(geom, Geometry((64, 64, 64)))

    @pytest.mark.parametrize("probs", [np.zeros((2, 2, 2)), np.full((4, 4, 4), "x"),
                                       np.full((4, 4, 4), np.nan), np.full((4, 4, 4), 7.0),
                                       np.full((4, 4, 4), -0.5)],
                             ids=["shape", "str", "nan", "above-1", "below-0"])
    def test_hand_built_field_checked(self, probs):
        with pytest.raises(ValidationError, match="probs|probabilit"):
            CorruptionField(Geometry((4, 4, 4)), probs)

    def test_field_is_float64_and_read_only(self):
        field = CorruptionField(Geometry((4, 4, 4)), np.full((4, 4, 4), 0.5, np.float32))
        assert field.probs.dtype == np.float64 and not field.probs.flags.writeable
        built = self.field(40)
        assert not built.probs.flags.writeable
        assert CorruptionField(built.geometry, built.probs).probs is built.probs

    def test_corrupt_crop_refuses_a_small_grid(self, rng):
        g = Geometry((10, 10, 10))
        image = ScalarVolume(g, rng.standard_normal(g.dims).astype(np.float32))
        field = CorruptionField(g, np.full(g.dims, 0.5))
        with pytest.raises(ValidationError, match=r"crop inputs must be 96\^3"):
            corrupt_crop(image, labels_from_array(np.ones(g.dims, np.uint8)), field, 0)


def crop_inputs(rng, tumour_slice=None):
    img = ScalarVolume(CROP_GEOM, rng.standard_normal((CROP_SIZE,) * 3).astype(np.float32))
    vox = np.zeros((CROP_SIZE,) * 3, np.uint8)
    if tumour_slice is not None:
        vox[tumour_slice] = 1
    else:
        vox[40:56, 40:56, 40:56] = 1
    labels = labels_from_array(vox)
    field = build_corruption_field(tumour_geometry(labels), CROP_GEOM)
    return img, labels, field


class TestCorruptCrop:
    def test_deterministic_per_seed(self, rng):
        img, labels, field = crop_inputs(rng)
        a = corrupt_crop(img, labels, field, 7)
        b = corrupt_crop(img, labels, field, 7)
        c = corrupt_crop(img, labels, field, 8)
        assert a.voxels.tobytes() == b.voxels.tobytes()
        assert a.voxels.tobytes() != c.voxels.tobytes()

    def test_all_tumour_everything_replaced(self, rng):
        img, _, field = crop_inputs(rng)
        all_tumour = labels_from_array(np.ones((CROP_SIZE,) * 3, np.uint8))
        out, mask = corrupt_crop(img, all_tumour, field, 3, return_mask=True)
        assert mask.bits.all()

    def test_unreplaced_voxels_in_unit_range(self, rng):
        img, labels, field = crop_inputs(rng)
        out, mask = corrupt_crop(img, labels, field, 5, return_mask=True)
        kept = out.voxels[~mask.bits]
        assert kept.size  # far corners keep the base signal
        assert kept.min() >= -1.0 and kept.max() <= 1.0

    def test_constant_image_rejected(self, rng):
        _, labels, field = crop_inputs(rng)
        flat = ScalarVolume(CROP_GEOM, np.zeros((CROP_SIZE,) * 3, np.float32))
        with pytest.raises(DegenerateInputError):
            corrupt_crop(flat, labels, field, 1)

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", True, None])
    def test_seed_must_be_non_negative_integer(self, rng, seed):
        img, labels, field = crop_inputs(rng)
        with pytest.raises(ValidationError, match="rng_seed"):
            corrupt_crop(img, labels, field, seed)

    @pytest.mark.parametrize("seed", [np.int64(7), np.int64(3), 3.0])
    def test_numpy_integer_seed_accepted(self, rng, seed):
        img, labels, field = crop_inputs(rng)
        a = corrupt_crop(img, labels, field, seed)
        assert a.voxels.tobytes() == corrupt_crop(img, labels, field, int(seed)).voxels.tobytes()

    def test_replacement_frequency_tracks_field(self, rng):
        # Monte Carlo: healthy voxels at a common radius are replaced at the
        # field's rate within 3-sigma binomial bounds
        img, labels, field = crop_inputs(rng, tumour_slice=np.s_[47:50, 47:50, 47:50])
        offsets = [(20, 0, 0), (0, 20, 0), (0, 0, 20), (-20, 0, 0), (0, -20, 0), (0, 0, -20)]
        points = [(48 + dx, 48 + dy, 48 + dz) for dx, dy, dz in offsets]
        p_expected = field.probs[points[0]]
        n_draws = 0
        n_replaced = 0
        for seed in range(150):
            _, mask = corrupt_crop(img, labels, field, seed, return_mask=True)
            for pt in points:
                n_draws += 1
                n_replaced += bool(mask.bits[pt])
        sigma = math.sqrt(n_draws * p_expected * (1 - p_expected))
        assert abs(n_replaced - n_draws * p_expected) <= 3 * sigma



class TestCorruptCropOracle:
    """The draws fill buffers on `cores.Tasks` threads while the caller
    normalises; the bytes are those of the serial formulation in any case."""

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_bytes_equal_the_serial_draws(self, rng, monkeypatch, threads, layout):
        on_cores(monkeypatch, threads)
        img, labels, field = crop_inputs(rng, tumour_slice=np.s_[30:61, 38:52, 44:70])
        img = ScalarVolume(CROP_GEOM, LAYOUTS[layout](img.voxels))
        labels = labels_from_array(LAYOUTS[layout](labels.voxels))
        for seed in (0, 11, 2**40 + 3):
            expected, expected_mask = brute_corrupt(img.voxels, labels.voxels, field.probs, seed)
            out, mask = corrupt_crop(img, labels, field, seed, return_mask=True)
            assert out.voxels.dtype == np.float32
            assert out.voxels.tobytes() == expected.tobytes()
            assert mask.bits.tobytes() == expected_mask.tobytes()
            assert corrupt_crop(img, labels, field, seed).voxels.tobytes() == expected.tobytes()

    def test_inputs_are_left_alone(self, rng, monkeypatch):
        on_cores(monkeypatch, 2)
        img, labels, field = crop_inputs(rng)
        img = ScalarVolume(CROP_GEOM, img.voxels.astype(np.float64))
        before = img.voxels.copy(), labels.voxels.copy(), field.probs.copy()
        corrupt_crop(img, labels, field, 4)
        assert all(np.array_equal(a, b) for a, b in
                   zip(before, (img.voxels, labels.voxels, field.probs)))

    @pytest.mark.parametrize("threads", [1, 3])
    def test_no_thread_outlives_the_call(self, rng, monkeypatch, threads):
        on_cores(monkeypatch, threads)
        img, labels, field = crop_inputs(rng)
        flat = ScalarVolume(CROP_GEOM, np.ones((CROP_SIZE,) * 3, np.float32))
        before = threading.active_count()
        corrupt_crop(img, labels, field, 9)
        assert threading.active_count() == before
        with pytest.raises(DegenerateInputError):
            corrupt_crop(flat, labels, field, 9)
        assert threading.active_count() == before


def brute_place(target, brain, candidate, seed, max_attempts=100):
    """The placement rule voxel by voxel on the whole candidate crop: the
    placed labels and origin, or None when every attempt fails."""
    rng = np.random.default_rng(seed)
    nz = candidate != 0
    for _ in range(max_attempts):
        origin = tuple(int(rng.integers(0, t - c + 1)) for t, c in zip(target.shape, candidate.shape))
        box = tuple(slice(o, o + c) for o, c in zip(origin, candidate.shape))
        if brain[box][nz].all() and (target[box][nz] == 0).all():
            out = target.copy()
            out[box][nz] = candidate[nz]
            return out, origin
    return None


class TestPlaceLabel:
    def test_trivial_placement(self, rng):
        target = labels_from_array(np.zeros((20, 20, 20)))
        brain = BinaryMask(target.geometry, np.ones((20, 20, 20), bool))
        cand_vox = np.zeros((4, 4, 4), np.uint8)
        cand_vox[1:3, 1:3, 1:3] = 3
        placed, origin = place_label(target, brain, labels_from_array(cand_vox), 0)
        assert int((placed.voxels != 0).sum()) == 8
        assert all(0 <= o <= 16 for o in origin)

    def test_no_brain_fails(self, rng):
        target = labels_from_array(np.zeros((10, 10, 10)))
        brain = BinaryMask(target.geometry, np.zeros((10, 10, 10), bool))
        cand = labels_from_array(np.full((2, 2, 2), 2, np.uint8))
        with pytest.raises(PlacementError):
            place_label(target, brain, cand, 0, max_attempts=20)

    def test_voxel_count_conservation(self, rng):
        vox = np.zeros((24, 24, 24), np.uint8)
        vox[2:6, 2:6, 2:6] = 2
        target = labels_from_array(vox)
        brain = BinaryMask(target.geometry, np.ones((24, 24, 24), bool))
        cand_vox = np.zeros((3, 3, 3), np.uint8)
        cand_vox[1, 1, 1] = 3
        placed, origin = place_label(target, brain, labels_from_array(cand_vox), 11)
        assert int((placed.voxels != 0).sum()) == int((vox != 0).sum()) + 1
        # target labels outside the placed crop are untouched
        box = tuple(slice(o, o + 3) for o in origin)
        outside = np.ones((24, 24, 24), bool)
        outside[box] = False
        assert np.array_equal(placed.voxels[outside], vox[outside])

    @pytest.mark.parametrize("tumour", [np.s_[5:8, 1:5, 5:9], np.s_[0:0, 0:0, 0:0]],
                             ids=["off-corner", "empty"])
    def test_equals_the_voxelwise_rule(self, rng, tumour):
        # Only the candidate's tumour box is checked and pasted; the origins,
        # labels and failures are those of the rule applied to the whole crop.
        # With 3 attempts the off-corner tumour fails on some seeds, is placed at
        # the first attempt on some and at a later attempt on the rest.
        vox = np.zeros((20, 18, 16), np.uint8)
        vox[3:9, 4:12, 2:7] = 2
        vox[12:16, 10:15, 9:14] = 1
        grid = np.indices(vox.shape)
        brain = sum((g - n / 2) ** 2 / (n / 2) ** 2 for g, n in zip(grid, vox.shape)) <= 1.0
        cand_vox = np.zeros((8, 7, 9), np.uint8)
        cand_vox[tumour] = rng.integers(1, 4, cand_vox[tumour].shape)
        target = labels_from_array(vox)
        mask = BinaryMask(target.geometry, brain)
        for seed in range(30):
            expected = brute_place(vox, brain, cand_vox, seed, max_attempts=3)
            if expected is None:
                with pytest.raises(PlacementError):
                    place_label(target, mask, labels_from_array(cand_vox), seed, max_attempts=3)
                continue
            placed, origin = place_label(target, mask, labels_from_array(cand_vox), seed,
                                         max_attempts=3)
            assert origin == expected[1]
            assert np.array_equal(placed.voxels, expected[0])

    @pytest.mark.parametrize("seed", [-1, 2.5, "3", False, None])
    def test_seed_must_be_non_negative_integer(self, seed):
        target = labels_from_array(np.zeros((8, 8, 8)))
        brain = BinaryMask(target.geometry, np.ones((8, 8, 8), bool))
        cand = labels_from_array(np.full((2, 2, 2), 3, np.uint8))
        with pytest.raises(ValidationError, match="rng_seed"):
            place_label(target, brain, cand, seed)

    @pytest.mark.parametrize("max_attempts", [0, -3, 2.5])
    def test_max_attempts_must_be_positive(self, max_attempts):
        target = labels_from_array(np.zeros((8, 8, 8)))
        brain = BinaryMask(target.geometry, np.ones((8, 8, 8), bool))
        cand = labels_from_array(np.full((2, 2, 2), 3, np.uint8))
        with pytest.raises(ValidationError, match="max_attempts"):
            place_label(target, brain, cand, 0, max_attempts=max_attempts)

    def test_candidate_spacing_must_match(self):
        target = labels_from_array(np.zeros((8, 8, 8)))
        brain = BinaryMask(target.geometry, np.ones((8, 8, 8), bool))
        cand = labels_from_array(np.full((2, 2, 2), 3, np.uint8), spacing=(3.0, 3.0, 3.0))
        with pytest.raises(IncompatibleGeometryError, match="spacing"):
            place_label(target, brain, cand, 0)
        # Within the shared spacing tolerance the candidate is placed.
        close = labels_from_array(np.full((2, 2, 2), 3, np.uint8), spacing=(1.0, 1.0, 1.000001))
        place_label(target, brain, close, 0)

    def test_candidate_too_big(self):
        target = labels_from_array(np.zeros((4, 4, 4)))
        brain = BinaryMask(target.geometry, np.ones((4, 4, 4), bool))
        cand = labels_from_array(np.zeros((8, 8, 8)))
        with pytest.raises(ValidationError):
            place_label(target, brain, cand, 0)


class TestLambdaSchedule:
    def test_endpoints(self):
        assert lambda_schedule(0) == LambdaPair(1.0, 1.0)
        assert lambda_schedule(1000).lambda2 == pytest.approx(100.0)

    def test_midpoint(self):
        pair = lambda_schedule(500)
        assert pair.lambda2 == pytest.approx(50.5)
        assert pair.lambda1 == pytest.approx(1 / 50.5)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 1000))
    def test_reciprocal_invariant(self, epoch):
        pair = lambda_schedule(epoch)
        assert pair.lambda1 * pair.lambda2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("epoch", [-1, 1001, "5", True, 2.5, None])
    def test_domain(self, epoch):
        with pytest.raises(ValidationError):
            lambda_schedule(epoch)


class TestLosses:
    def vol(self, values):
        arr = np.asarray(values, np.float32).reshape(-1, 1, 1)
        return ScalarVolume(Geometry((arr.shape[0], 1, 1)), arr)

    def test_perfect_generator_zero_loss(self):
        target = self.vol([0.3, -0.2, 0.9])
        loss = generator_loss([1.0, 1.0], target, target, LambdaPair(1.0, 1.0))
        assert loss == pytest.approx(0.0)

    def test_adversarial_term(self):
        target = self.vol([0.5, 0.5])
        loss = generator_loss([0.5], target, target, LambdaPair(1.0, 1.0))
        assert loss == pytest.approx(-math.log(0.5), abs=1e-6)

    def test_mae_term_linear_in_lambda2(self):
        target = self.vol([1.0, 0.0])
        recon = self.vol([0.0, 0.0])
        l1 = generator_loss([1.0], recon, target, LambdaPair(1.0, 2.0))
        l2 = generator_loss([1.0], recon, target, LambdaPair(1.0, 4.0))
        assert l2 == pytest.approx(2 * l1)

    def test_nonpositive_score_rejected(self):
        target = self.vol([0.0])
        with pytest.raises(ValidationError):
            generator_loss([0.0], target, target, LambdaPair(1.0, 1.0))

    @pytest.mark.parametrize("bad", [[], [np.nan], [np.inf], [0.5, -0.1]] + NOT_SCORES)
    def test_generator_refuses_bad_scores(self, bad):
        target = self.vol([0.0])
        with pytest.raises(ValidationError, match="discriminator scores"):
            generator_loss(bad, target, target, LambdaPair(1.0, 1.0))

    @pytest.mark.parametrize("bad", [[], [np.nan], [np.inf], [0.5, 0.0]] + NOT_SCORES)
    @pytest.mark.parametrize("side", ["fake", "real"])
    def test_discriminator_refuses_bad_scores(self, bad, side):
        scores = {"fake": [0.5], "real": [0.5], side: bad}
        with pytest.raises(ValidationError, match="discriminator scores"):
            discriminator_loss(scores["fake"], scores["real"])

    def test_discriminator_balanced(self):
        assert discriminator_loss([0.4, 0.6], [0.4, 0.6]) == pytest.approx(0.0)

    def test_discriminator_values(self):
        assert discriminator_loss([0.1], [0.9]) == pytest.approx(
            math.log(0.1) - math.log(0.9))

    def test_discriminator_monotone_in_real_score(self):
        l1 = discriminator_loss([0.5], [0.6])
        l2 = discriminator_loss([0.5], [0.9])
        assert l2 < l1
