import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bratskit.regions import REGIONS, Region, extract_region, rebuild_labels, reconstruct_labels
from bratskit.volume import BinaryMask, Geometry, LabelVolume

from conftest import LAYOUTS, labels_from_array
from oracles import brute_labels


def test_label_sets():
    assert Region.WT.labels == {1, 2, 3}
    assert Region.TC.labels == {1, 3}
    assert Region.ET.labels == {3}


def test_all_zero_labels_give_empty_masks():
    labels = labels_from_array(np.zeros((4, 4, 4)))
    for region in REGIONS:
        assert not extract_region(labels, region).any()


@pytest.mark.parametrize("label,expected", [
    (3, {Region.WT, Region.TC, Region.ET}),
    (1, {Region.WT, Region.TC}),
    (2, {Region.WT}),
])
def test_single_voxel_membership(label, expected):
    vox = np.zeros((3, 3, 3), np.uint8)
    vox[1, 1, 1] = label
    labels = labels_from_array(vox)
    for region in REGIONS:
        mask = extract_region(labels, region)
        assert mask.bits[1, 1, 1] == (region in expected)
        assert mask.count() == (1 if region in expected else 0)


def test_reconstruct_override_order():
    g = Geometry((1, 1, 1))
    t = np.ones((1, 1, 1), bool)
    f = np.zeros((1, 1, 1), bool)
    # et alone wins despite wt/tc false
    out = reconstruct_labels(BinaryMask(g, f), BinaryMask(g, f), BinaryMask(g, t))
    assert out.voxels[0, 0, 0] == 3
    out = reconstruct_labels(BinaryMask(g, t), BinaryMask(g, f), BinaryMask(g, f))
    assert out.voxels[0, 0, 0] == 2
    out = reconstruct_labels(BinaryMask(g, t), BinaryMask(g, t), BinaryMask(g, f))
    assert out.voxels[0, 0, 0] == 1
    out = reconstruct_labels(BinaryMask(g, f), BinaryMask(g, f), BinaryMask(g, f))
    assert out.voxels[0, 0, 0] == 0


def test_reconstruct_keeps_fortran_order_of_masks(rng):
    g = Geometry((5, 4, 3))
    bits = [rng.random((5, 4, 3)) < p for p in (0.6, 0.4, 0.2)]
    c_out = reconstruct_labels(*(BinaryMask(g, b) for b in bits))
    f_out = reconstruct_labels(*(BinaryMask(g, np.asfortranarray(b)) for b in bits))
    assert f_out == c_out
    # Masks thresholded from a file-order probability map are F-ordered; the
    # labels keep that order, so writing them is one copy of the buffer.
    assert f_out.voxels.flags.f_contiguous


@pytest.mark.parametrize("layout", LAYOUTS)
def test_reconstruct_matches_the_scatter_oracle(rng, layout):
    g = Geometry((6, 5, 4))
    bits = [LAYOUTS[layout](rng.random(g.dims) < 0.5) for _ in range(3)]
    # Not nested: every one of the 8 codes of region decisions occurs.
    assert np.unique(bits[0] + 2 * bits[1] + 4 * bits[2]).size == 8
    out = reconstruct_labels(*(BinaryMask(g, b) for b in bits))
    assert np.array_equal(out.voxels, brute_labels(*bits))
    if layout == "F":
        assert out.voxels.flags.f_contiguous


@pytest.mark.parametrize("order", ["C", "F"])
def test_every_decision_code_rebuilds_the_brute_labels(order):
    # Voxel (i, j, k) of a 2x2x2 grid holds code i + 2j + 4k: bit 0 WT, bit 1 TC, bit 2 ET.
    code = np.arange(8).reshape(2, 2, 2, order="F")
    bits = [np.array(code >> b & 1, bool, order=order) for b in range(3)]
    labels = rebuild_labels(*bits)
    assert labels.dtype == np.uint8 and labels.flags[f"{order}_CONTIGUOUS"]
    assert np.array_equal(labels, brute_labels(*bits))
    assert sorted(labels.ravel(order="F")) == [0, 1, 1, 2, 3, 3, 3, 3]
    out = np.full((2, 2, 2), 9, np.uint8, order=order)
    assert rebuild_labels(*bits, out=out) is out and np.array_equal(out, labels)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=27, max_size=27))
def test_round_trip_and_nesting(flat):
    labels = labels_from_array(np.array(flat, np.uint8).reshape(3, 3, 3))
    wt = extract_region(labels, Region.WT)
    tc = extract_region(labels, Region.TC)
    et = extract_region(labels, Region.ET)
    # nesting: ET <= TC <= WT voxelwise
    assert not (et.bits & ~tc.bits).any()
    assert not (tc.bits & ~wt.bits).any()
    assert reconstruct_labels(wt, tc, et) == labels
