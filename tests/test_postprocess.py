import numpy as np
import pytest

from bratskit.errors import ValidationError
from bratskit.morphology import Connectivity
from bratskit.phantom import generate_phantom, random_phantom_spec
from bratskit.postprocess import ThresholdScope, ThresholdSpec, apply_thresholds
from bratskit.regions import REGIONS, Region, extract_region

from conftest import labels_from_array
from oracles import NEIGHBOURS_6, NEIGHBOURS_26, brute_thresholds


def cube(vox, origin, size, label):
    x, y, z = origin
    vox[x:x + size, y:y + size, z:z + size] = label


def test_zero_thresholds_noop(rng):
    vox = rng.integers(0, 4, (10, 10, 10)).astype(np.uint8)
    labels = labels_from_array(vox)
    out = apply_thresholds(labels, ThresholdSpec(0, 0, 0))
    assert out == labels


def test_small_et_lesion_relabeled_to_ncr():
    # isolated 90-voxel ET lesion against the (250, 150, 100) thresholds:
    # WT (90 < 250) removes it entirely before TC/ET are considered
    vox = np.zeros((30, 30, 30), np.uint8)
    vox[2:7, 2:8, 2:5] = 3  # 5*6*3 = 90 voxels
    out = apply_thresholds(labels_from_array(vox), ThresholdSpec(250, 150, 100))
    assert (out.voxels == 0).all()


def test_et_relabeled_when_only_et_threshold_bites():
    # big WT/TC context, small isolated ET island inside it
    vox = np.zeros((30, 30, 30), np.uint8)
    cube(vox, (2, 2, 2), 10, 2)   # 1000-voxel ED rim -> WT safe
    cube(vox, (4, 4, 4), 6, 1)    # 216-voxel NCR -> TC safe
    cube(vox, (5, 5, 5), 4, 3)    # 64-voxel ET island < 100
    out = apply_thresholds(labels_from_array(vox), ThresholdSpec(250, 150, 100))
    assert not extract_region(out, Region.ET).any()
    # suppressed ET voxels became NCR, preserving TC
    assert (out.voxels[5:9, 5:9, 5:9] == 1).all()


def test_component_size_selectivity():
    vox = np.zeros((40, 40, 40), np.uint8)
    vox[1:5, 1:5, 1:3] = 2        # 32 < 250, removed (size 4*4*2=32)
    cube(vox, (20, 20, 20), 8, 2)  # 512 >= 250, untouched
    out = apply_thresholds(labels_from_array(vox), ThresholdSpec(250, 0, 0))
    assert (out.voxels[1:5, 1:5, 1:3] == 0).all()
    assert (out.voxels[20:28, 20:28, 20:28] == 2).all()


def test_whole_region_scope():
    vox = np.zeros((30, 30, 30), np.uint8)
    cube(vox, (2, 2, 2), 4, 2)     # 64
    cube(vox, (20, 20, 20), 4, 2)  # 64; total 128
    spec = ThresholdSpec(200, 0, 0, ThresholdScope.WholeRegion)
    out = apply_thresholds(labels_from_array(vox), spec)
    assert (out.voxels == 0).all()
    # per-component with the same threshold also removes both (each 64 < 200)
    spec_pc = ThresholdSpec(100, 0, 0, ThresholdScope.WholeRegion)
    out2 = apply_thresholds(labels_from_array(vox), spec_pc)
    assert (out2.voxels == vox).all()  # 128 >= 100, whole region survives


def test_idempotent_and_nested(rng):
    for _ in range(10):
        vox = (rng.random((16, 16, 16)) < 0.3).astype(np.uint8) * rng.integers(
            1, 4, (16, 16, 16)).astype(np.uint8)
        labels = labels_from_array(vox)
        spec = ThresholdSpec(20, 10, 5)
        once = apply_thresholds(labels, spec)
        twice = apply_thresholds(once, spec)
        assert once == twice
        wt = extract_region(once, Region.WT)
        tc = extract_region(once, Region.TC)
        et = extract_region(once, Region.ET)
        assert not (et.bits & ~tc.bits).any()
        assert not (tc.bits & ~wt.bits).any()
        # never creates tumour
        wt_in = extract_region(labels, Region.WT)
        assert not (wt.bits & ~wt_in.bits).any()


def test_large_components_untouched(rng):
    vox = np.zeros((20, 20, 20), np.uint8)
    cube(vox, (2, 2, 2), 7, 2)  # 343 voxels
    out = apply_thresholds(labels_from_array(vox), ThresholdSpec(250, 150, 100))
    assert np.array_equal(out.voxels, vox)


@pytest.mark.parametrize("spec", [dict(tc=150), dict(et=100), dict(wt=250, tc=150, et=100)])
def test_small_background_is_not_a_lesion(spec):
    # ET fills the grid but for 5 background and 5 ED voxels. Those 10 voxels
    # are the background (id 0) of the TC and ET masks, not a lesion, however
    # few they are.
    vox = np.full((10, 10, 10), 3, np.uint8)
    vox[0, 0, :5] = 0
    vox[9, 9, :5] = 2
    labels = labels_from_array(vox)
    assert apply_thresholds(labels, ThresholdSpec(**spec)) == labels


@pytest.mark.parametrize("scope", list(ThresholdScope))
@pytest.mark.parametrize("conn,neighbours", [(Connectivity.Face6, NEIGHBOURS_6),
                                             (Connectivity.Full26, NEIGHBOURS_26)])
def test_matches_brute_thresholds_on_noisy_phantoms(scope, conn, neighbours):
    # 3% label noise gives many small components of every label next to the
    # phantom lesions, so each region's relabel meets the earlier ones' output.
    rng = np.random.default_rng(4242)
    for _ in range(15):
        gt, _ = generate_phantom(random_phantom_spec(rng, max_dim=24, max_lesions=3))
        vox = gt.voxels.copy()
        noisy = rng.random(vox.shape) < 0.03
        vox[noisy] = rng.integers(0, 4, int(noisy.sum()))
        thresholds = [int(t) if rng.random() < 0.8 else 0
                      for t in rng.integers(1, 80 if scope is ThresholdScope.PerComponent
                                            else 800, 3)]
        out = apply_thresholds(labels_from_array(vox), ThresholdSpec(*thresholds, scope), conn)
        want = brute_thresholds(vox, thresholds, scope is ThresholdScope.WholeRegion, neighbours)
        assert np.array_equal(out.voxels, want)


@pytest.mark.parametrize("spec", [dict(wt=-1), dict(tc=-1), dict(et=-1)])
def test_negative_threshold_rejected(spec):
    with pytest.raises(ValidationError):
        ThresholdSpec(**spec)


@pytest.mark.parametrize("spec", [dict(wt=2.5), dict(tc=float("nan")), dict(et=float("nan")),
                                  dict(et=float("inf"))])
def test_non_integral_threshold_rejected(spec):
    # A NaN threshold compares false with every size, so it would remove nothing.
    with pytest.raises(ValidationError):
        ThresholdSpec(**spec)


@pytest.mark.parametrize("scope", ["bogus", "WholeRegion", None, 1])
def test_unknown_scope_rejected(scope):
    with pytest.raises(ValidationError, match="'per_component', 'whole_region'"):
        ThresholdSpec(et=30, scope=scope)


@pytest.mark.parametrize("conn", [3, "6", None, ThresholdScope.WholeRegion])
def test_unknown_connectivity_rejected(conn):
    with pytest.raises(ValidationError, match="one of 6, 26"):
        apply_thresholds(labels_from_array(np.ones((3, 3, 3), np.uint8)), ThresholdSpec(), conn)


def test_settings_taken_by_their_values():
    # ET lesions of 8 and 27 voxels: 35 ET voxels in the case, fewer than 30
    # in each lesion. The whole-region rule keeps them, the per-component one not.
    vox = np.zeros((20, 20, 20), np.uint8)
    cube(vox, (2, 2, 2), 2, 3)
    cube(vox, (10, 10, 10), 3, 3)
    labels = labels_from_array(vox)
    spec = ThresholdSpec(et=30, scope="whole_region")
    assert spec == ThresholdSpec(et=30, scope=ThresholdScope.WholeRegion)
    assert apply_thresholds(labels, spec) == labels
    assert not (apply_thresholds(labels, ThresholdSpec(et=30)).voxels == 3).any()
    per_component = ThresholdSpec(et=9)
    assert apply_thresholds(labels, per_component, 6) == \
        apply_thresholds(labels, per_component, Connectivity.Face6)


def test_integral_threshold_stored_as_int():
    spec = ThresholdSpec(wt=250.0, tc=np.int64(150), et=100)
    assert (spec.wt, spec.tc, spec.et) == (250, 150, 100)
    assert all(type(t) is int for t in (spec.wt, spec.tc, spec.et))


class TestLegacyEtToNcr:
    """The BraTS 2021 rule: fewer than t ET voxels in the case -> all ET to NCR."""

    @staticmethod
    def legacy(labels, threshold):
        return apply_thresholds(labels, ThresholdSpec(et=threshold, scope=ThresholdScope.WholeRegion))

    def make(self, n_et):
        vox = np.zeros((20, 20, 20), np.uint8)
        flat = vox.reshape(-1)
        flat[:n_et] = 3
        return labels_from_array(flat.reshape(20, 20, 20))

    def test_below_threshold_flips(self):
        out = self.legacy(self.make(199), 200)
        assert (out.voxels != 3).all()
        assert int((out.voxels == 1).sum()) == 199

    def test_at_threshold_unchanged(self):
        labels = self.make(200)
        assert self.legacy(labels, 200) == labels

    def test_no_et_unchanged(self):
        labels = self.make(0)
        out = self.legacy(labels, 200)
        assert out == labels
        assert not (out.voxels == 3).any()

    def test_zero_threshold_unchanged(self):
        labels = self.make(5)
        assert self.legacy(labels, 0) == labels
