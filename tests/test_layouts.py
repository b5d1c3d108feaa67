"""Layout independence: every label consumer gives the same results, and the
same written bytes, whatever the memory order of its input payloads; F-ordered
labels stay F-ordered, so the writer never transposes them."""

import numpy as np
import pytest

from bratskit.fusion import staple_fusion
from bratskit.metrics import (case_metrics_legacy, case_metrics_lesionwise, metrics_rows,
                              write_metrics_csv)
from bratskit.morphology import lesion_clusters, surface_voxels
from bratskit.nifti import write_volume
from bratskit.phantom import generate_phantom, random_phantom_spec
from bratskit.postprocess import ThresholdScope, ThresholdSpec, apply_thresholds
from bratskit.regions import Region, extract_region
from bratskit.synthprep import (CROP_SIZE, build_corruption_field, corrupt_crop, place_label,
                                tumour_geometry)
from bratskit.volume import BinaryMask, Geometry, LabelVolume, ScalarVolume, tumour_box

from conftest import LAYOUTS, relaid


def _speckled(labels, rng, share):
    """The labels with a random share of voxels set to a random label."""
    noise = rng.random(labels.geometry.dims) < share
    voxels = np.where(noise, rng.integers(0, 4, labels.geometry.dims), labels.voxels)
    return LabelVolume(labels.geometry, voxels.astype(np.uint8))


@pytest.fixture(scope="module")
def inputs():
    rng = np.random.default_rng(19)
    gt, pred = generate_phantom(random_phantom_spec(rng, max_dim=40, max_lesions=3))
    dims = gt.geometry.dims
    brain = np.zeros(dims, bool)
    brain[2:-2, 2:-2, 2:-2] = True
    candidate = np.zeros((6, 6, 6), np.uint8)
    candidate[1:4, 2:5, 1:5] = rng.integers(1, 4, (3, 3, 4))
    crop_labels = np.zeros((CROP_SIZE,) * 3, np.uint8)
    crop_labels[40:60, 35:50, 44:52] = rng.integers(0, 4, (20, 15, 8))
    crop_geometry = Geometry((CROP_SIZE,) * 3)
    return {
        "gt": gt,
        "pred": _speckled(pred, rng, 0.01),
        "third": _speckled(gt, rng, 0.02),
        "brain": BinaryMask(gt.geometry, brain),
        "candidate": LabelVolume(Geometry(candidate.shape), candidate),
        "image": ScalarVolume(crop_geometry,
                              rng.standard_normal(crop_geometry.dims).astype(np.float32)),
        "crop_labels": LabelVolume(crop_geometry, crop_labels),
    }


def _legacy(v):
    case = case_metrics_legacy(v["gt"], v["pred"])
    return [case, metrics_rows(case)]


def _lesionwise(v):
    case, reports = case_metrics_lesionwise(v["gt"], v["pred"])
    return [case, reports, metrics_rows(case, reports)]


def _thresholds(spec):
    return lambda v: [apply_thresholds(v["pred"], spec)]


def _corrupt(v):
    field = build_corruption_field(tumour_geometry(v["crop_labels"]), v["image"].geometry)
    return list(corrupt_crop(v["image"], v["crop_labels"], field, 5, return_mask=True))


CALLS = {
    "case_metrics_legacy": _legacy,
    "case_metrics_lesionwise": _lesionwise,
    "staple_fusion": lambda v: [staple_fusion([v["gt"], v["pred"], v["third"]])],
    "apply_thresholds-per_component": _thresholds(ThresholdSpec(30, 10, 5)),
    # more ET voxels than the grid holds: every ET voxel becomes NCR
    "apply_thresholds-whole_region": _thresholds(ThresholdSpec(et=10**5,
                                                               scope=ThresholdScope.WholeRegion)),
    "place_label": lambda v: list(place_label(v["pred"], v["brain"], v["candidate"], 3)),
    "tumour_geometry": lambda v: [tumour_geometry(v["gt"])],
    "surface_voxels": lambda v: [surface_voxels(extract_region(v["pred"], Region.WT))],
    "corrupt_crop": _corrupt,
}


def written(results, directory):
    """The bytes each volume or metrics-row result is written as."""
    out = []
    for i, result in enumerate(results):
        path = directory / f"{i}.out"
        if isinstance(result, (LabelVolume, ScalarVolume)):
            write_volume(result, path)
        elif isinstance(result, list):
            write_metrics_csv(path, result)
        else:
            continue
        out.append(path.read_bytes())
    return out


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("call", sorted(CALLS))
def test_results_and_bytes_do_not_depend_on_layout(inputs, tmp_path, call, layout):
    reference = CALLS[call](inputs)
    results = CALLS[call]({name: relaid(v, layout) for name, v in inputs.items()})
    assert results == reference
    (tmp_path / "ref").mkdir()
    (tmp_path / "relaid").mkdir()
    assert written(results, tmp_path / "relaid") == written(reference, tmp_path / "ref")


def test_layout_gate_inputs_are_not_trivial(inputs):
    # Each labelled output differs from its input, so the gate compares real work.
    assert CALLS["apply_thresholds-per_component"](inputs)[0] != inputs["pred"]
    assert CALLS["apply_thresholds-whole_region"](inputs)[0] != inputs["pred"]
    assert CALLS["place_label"](inputs)[0] != inputs["pred"]
    _, reports, _ = CALLS["case_metrics_lesionwise"](inputs)
    assert all(r.matched and r.false_positives for r in reports.values())


@pytest.mark.parametrize("call", ["staple_fusion", "apply_thresholds-per_component",
                                  "apply_thresholds-whole_region", "place_label"])
def test_f_ordered_labels_give_f_ordered_labels(inputs, call):
    labels = CALLS[call]({name: relaid(v, "F") for name, v in inputs.items()})[0]
    assert labels.voxels.flags.f_contiguous


def test_tumour_box_of_volumes_in_mixed_layouts():
    # Each volume is reduced in its own memory order; the box is that of the union.
    geometry = Geometry((7, 6, 5))
    points = [(1, 4, 2), (5, 3, 1), (2, 1, 3), (3, 2, 2)]
    volumes = []
    for point, layout in zip(points, sorted(LAYOUTS)):
        voxels = np.zeros(geometry.dims, np.uint8)
        voxels[point] = 1
        volumes.append(relaid(LabelVolume(geometry, voxels), layout))
    assert tumour_box(volumes) == (slice(1, 6), slice(1, 5), slice(1, 4))
    assert tumour_box(volumes[:1]) == (slice(1, 2), slice(4, 5), slice(2, 3))


def _reversed(a):
    """The array's values stored back to front: F order with negative strides."""
    return np.asfortranarray(a[::-1, ::-1, ::-1])[::-1, ::-1, ::-1]


@pytest.mark.parametrize("second", sorted(LAYOUTS) + ["reversed"])
@pytest.mark.parametrize("first", sorted(LAYOUTS) + ["reversed"])
def test_lesion_clusters_do_not_depend_on_layout(first, second):
    # The clusters and their order are the same in every layout. Sparse
    # voxels on this grid give nine block components, and the L shapes among
    # them merge into seven clusters.
    rng = np.random.default_rng(2)
    dims = (48, 40, 33)
    a, b = (LabelVolume(Geometry(dims), np.where(rng.random(dims) < 1e-4,
                                                 rng.integers(1, 4, dims), 0).astype(np.uint8))
            for _ in range(2))
    relay = {**LAYOUTS, "reversed": _reversed}
    ab = (LabelVolume(a.geometry, relay[first](np.array(a.voxels))),
          LabelVolume(b.geometry, relay[second](np.array(b.voxels))))
    for reach in (0, 3):
        reference = lesion_clusters((a, b), reach)
        assert len(reference) == 7
        assert lesion_clusters(ab, reach) == reference
