import hashlib
import tracemalloc

import numpy as np
import pytest

from bratskit.errors import ValidationError
from bratskit.metrics import case_metrics_legacy, case_metrics_lesionwise
from bratskit.nifti import write_volume
from bratskit.phantom import (
    Lesion,
    Perturbation,
    PhantomSpec,
    generate_phantom,
    random_phantom_spec,
)
from bratskit.regions import REGIONS, Region, extract_region


def test_no_perturbation_perfect_metrics():
    spec = PhantomSpec((24, 24, 24), (Lesion((12, 12, 12), (5, 4, 3)),))
    gt, pred = generate_phantom(spec)
    assert gt == pred
    case = case_metrics_legacy(gt, pred)
    for region in REGIONS:
        assert case.per_region[region].dsc == 1.0


def test_shift_of_single_voxel_lesion_hd95():
    spec = PhantomSpec(
        (16, 16, 16),
        (Lesion((8, 8, 8), (0.5, 0.5, 0.5), shells=((3, 1.0),)),),
        Perturbation(kind="shift", shift=(3, 0, 0)),
    )
    gt, pred = generate_phantom(spec)
    assert int((gt.voxels != 0).sum()) == 1
    case = case_metrics_legacy(gt, pred)
    assert case.per_region[Region.ET].hd95 == pytest.approx(3.0)


def test_add_fp_creates_one_false_positive():
    spec = PhantomSpec(
        (30, 30, 30),
        (Lesion((8, 8, 8), (3, 3, 3)),),
        Perturbation(kind="add_fp", fp_center=(24, 24, 24), fp_radius=1.5, fp_label=2),
    )
    gt, pred = generate_phantom(spec)
    _, reports = case_metrics_lesionwise(gt, pred)
    assert len(reports[Region.WT].false_positives) == 1
    assert reports[Region.WT].n_matched == 1


def test_drop_lesion_creates_false_negative():
    spec = PhantomSpec(
        (32, 32, 32),
        (Lesion((8, 8, 8), (3, 3, 3)), Lesion((24, 24, 24), (3, 3, 3))),
        Perturbation(kind="drop_lesion", drop_index=1),
    )
    gt, pred = generate_phantom(spec)
    _, reports = case_metrics_lesionwise(gt, pred)
    assert len(reports[Region.WT].false_negatives) == 1
    assert reports[Region.WT].n_matched == 1


def test_gt_always_nested():
    spec = PhantomSpec((20, 20, 20), (Lesion((10, 10, 10), (6, 5, 4)),))
    gt, _ = generate_phantom(spec)
    wt = extract_region(gt, Region.WT).bits
    tc = extract_region(gt, Region.TC).bits
    et = extract_region(gt, Region.ET).bits
    assert et.any() and tc.any() and wt.any()
    assert not (et & ~tc).any()
    assert not (tc & ~wt).any()


def test_deterministic():
    spec = PhantomSpec((20, 20, 20), (Lesion((10, 10, 10), (4, 4, 4)),),
                       Perturbation(kind="erode"))
    a = generate_phantom(spec)
    b = generate_phantom(spec)
    assert a[0] == b[0] and a[1] == b[1]


def test_overlapping_lesions_rejected():
    spec = PhantomSpec(
        (20, 20, 20),
        (Lesion((10, 10, 10), (4, 4, 4)), Lesion((11, 11, 11), (4, 4, 4))),
    )
    with pytest.raises(ValidationError):
        generate_phantom(spec)


def test_lesion_outside_dims_rejected():
    spec = PhantomSpec((10, 10, 10), (Lesion((9, 9, 9), (4, 4, 4)),))
    with pytest.raises(ValidationError):
        generate_phantom(spec)


@pytest.mark.parametrize("lesion,pert", [
    (Lesion((8, 8, 8), (0.0, 3, 3)), Perturbation()),
    (Lesion((8, 8, 8), (-3.0, 3, 3)), Perturbation()),
    (Lesion((8, 8, 8), (float("nan"), 3, 3)), Perturbation()),
    (Lesion((8, 8, 8), (float("inf"), 3, 3)), Perturbation()),
    (Lesion((8, 8, 8), (3, 3, 3), shells=((2, 1.0), (3, 0.0))), Perturbation()),
    (Lesion((8, 8, 8), (3, 3, 3), shells=((2, -1.0),)), Perturbation()),
    (Lesion((8, 8, 8), (3, 3, 3)), Perturbation(kind="erode", iterations=0)),
    (Lesion((8, 8, 8), (3, 3, 3)), Perturbation(kind="erode", iterations=-2)),
    (Lesion((8, 8, 8), (3, 3, 3)), Perturbation(kind="add_fp", fp_radius=0.0)),
    (Lesion((8, 8, 8), (3, 3, 3)), Perturbation(kind="add_fp", fp_radius=float("inf"))),
    (Lesion((8, 8), (3, 3, 3)), Perturbation()),
    (Lesion((8, 8, 8, 8), (3, 3, 3)), Perturbation()),
    (Lesion((8, 8, 8), (3, 3)), Perturbation()),
    (Lesion((8, 8, 8), (3, 3, 3)), Perturbation(kind="shift", shift=(3,))),
    (Lesion((8, 8, 8), (3, 3, 3)), Perturbation(kind="add_fp", fp_center=(3, 3))),
    (Lesion((8, 8, 8), (3, 3, 3)), Perturbation(kind="none", shift=(1, 1))),
    (Lesion((8, 8, 8), (3, 3, 3)), Perturbation(kind="drop_lesion", drop_index=0.5)),
    (Lesion((8, 8, 8), (3, 3, 3)), Perturbation(kind="add_fp", fp_label=1.5)),
    (Lesion((8, 8, 8), (3, 3, 3), shells=((1.5, 1.0),)), Perturbation()),
    (Lesion((8, 8, 8), (3, 3, 3)), Perturbation(kind="add_fp", fp_label=-1)),
    (Lesion((8, 8, 8), (3, 3, 3)), Perturbation(kind="shift", shift=(1.5, 0, 0))),
    (Lesion((8, 8, 8), (3, 3, 3)), Perturbation(kind="erode", iterations=1.5)),
    (Lesion((8, 8, 8), (3, 3, 3), shells=((256, 1.0),)), Perturbation()),
    (Lesion((8, 8, 8), (3, 3, 3)), Perturbation(kind="add_fp", fp_label=256)),
    (Lesion((8, 8, 8), (3, 3, 3), shells=((2,),)), Perturbation()),
    (Lesion((8, 8, 8), (3, 3, 3), shells=((2, 1.0, 0.5),)), Perturbation()),
], ids=["zero-radius", "negative-radius", "nan-radius", "inf-radius", "zero-shell-scale",
        "negative-shell-scale", "erode-0-iterations", "erode-negative-iterations",
        "zero-fp-radius", "inf-fp-radius", "short-center", "long-center", "short-radii",
        "short-shift", "short-fp-center", "short-unused-shift", "fractional-drop-index",
        "fractional-fp-label", "fractional-shell-label", "negative-fp-label",
        "fractional-shift", "fractional-iterations", "shell-label-256", "fp-label-256",
        "one-entry-shell", "three-entry-shell"])
def test_degenerate_spec_rejected(lesion, pert):
    # Let through, each would build an empty, mirrored or whole-grid lesion, or
    # (for a vector without 3 entries) one whose missing axes zip drops.
    with pytest.raises(ValidationError):
        generate_phantom(PhantomSpec((16, 16, 16), (lesion,), pert))


@pytest.mark.parametrize("spec", [
    PhantomSpec((16, 16, 16), (Lesion((8, 8, 8), (3, 3, 3), shells=5),)),
    PhantomSpec((16, 16, 16), 5),
    PhantomSpec((16, 16, 16), [5]),
    PhantomSpec((16, 16, 16), (Lesion((8, 8, 8), (3, 3, 3)),), perturbation=5),
    5,
    PhantomSpec((10**12, 4, 4), (Lesion((8, 2, 2), (1, 1, 1)),)),
], ids=["shells-not-a-sequence", "lesions-not-a-sequence", "lesion-not-a-lesion",
        "perturbation-not-a-perturbation", "spec-not-a-spec", "dim-past-nifti-limit"])
def test_malformed_spec_rejected(spec):
    with pytest.raises(ValidationError):
        generate_phantom(spec)


def test_erosion_past_the_grid_leaves_nothing():
    # 6-connected erosion with a zero border empties any grid within max(dims)
    # iterations, so a huge count gives the same empty prediction.
    lesions = (Lesion((8, 8, 8), (6, 6, 6)),)
    for iterations in (16, 10**30):
        gt, pred = generate_phantom(PhantomSpec((16, 16, 16), lesions,
                                                Perturbation("erode", iterations=iterations)))
        assert gt.voxels.any()
        assert not pred.voxels.any()


# NIfTI digests (sha256, first 16 hex digits) of gt and pred, recorded before
# generate_phantom's checks moved into the shared volume rules (the first six)
# and before ellipsoids became sums of broadcast axis terms (the last three);
# the benchmark corpus is built from these bytes.
@pytest.mark.parametrize("spec,digests", [
    (PhantomSpec((20, 18, 16), (Lesion((10, 9, 8), (5, 4, 3)),)),
     ("cae1587f14352c46", "cae1587f14352c46")),
    (PhantomSpec((24, 24, 24), (Lesion((12, 12, 12), (4, 5, 3)),),
                 Perturbation("shift", shift=(2, -1, 0))),
     ("d29456032ff7c034", "cb062e18b7d6864c")),
    (PhantomSpec((24, 24, 24), (Lesion((12, 12, 12), (6, 5, 4)),),
                 Perturbation("erode", iterations=2)),
     ("8636d1b0b052f694", "5c7a7a6c6c750745")),
    (PhantomSpec((24, 24, 24), (Lesion((8, 8, 8), (3, 3, 3)),),
                 Perturbation("add_fp", fp_center=(18, 18, 17.5), fp_radius=1.7, fp_label=1)),
     ("9508985c5df2ed0a", "0fad3818107f9cf5")),
    (PhantomSpec((32, 32, 32), (Lesion((8, 8, 8), (3, 3, 3)), Lesion((22, 22, 22), (4, 3, 5))),
                 Perturbation("drop_lesion", drop_index=0)),
     ("5c0d2443924bc8cd", "91e755655b5d58e3")),
    (PhantomSpec((22, 20, 18),
                 (Lesion((10.5, 9.25, 8.0), (4.3, 3.7, 2.9), shells=((2, 1.0), (3, 0.5))),),
                 Perturbation("shift", shift=(0, 1, -2)), spacing=(0.8, 1.2, 2.5)),
     ("670f6e362a686b86", "543cbd3095655c22")),
    (PhantomSpec((240, 240, 155),
                 (Lesion((80, 80, 70), (22, 18, 16)), Lesion((170, 160, 90), (14, 14, 12))),
                 Perturbation("shift", shift=(2, 1, 0))),
     ("31e4215ed4498381", "169e790cadb0bc99")),
    # Shells paint in their given order, a label-0 shell included.
    (PhantomSpec((24, 24, 24),
                 (Lesion((12, 12, 12), (6, 5, 4), shells=((3, 0.3), (0, 0.6), (2, 1.0))),)),
     ("3967313e81cf4381", "3967313e81cf4381")),
    (PhantomSpec((16, 16, 16), (Lesion((3, 3, 3), (3.5, 3.5, 3.5)),),
                 Perturbation("erode", iterations=1)),
     ("60a9ad910d133a1f", "730a7867c9171f6f")),
], ids=["none", "shift", "erode", "add_fp", "drop_lesion", "float-lesion-and-spacing",
        "criterion-10", "unordered-shells-with-label-0", "lesion-on-three-faces"])
def test_phantom_bytes_pinned(tmp_path, spec, digests):
    for volume, name, digest in zip(generate_phantom(spec), ("gt", "pred"), digests):
        write_volume(volume, tmp_path / f"{name}.nii")
        assert hashlib.sha256((tmp_path / f"{name}.nii").read_bytes()).hexdigest()[:16] == digest


def test_random_specs_always_generate(rng):
    for _ in range(25):
        spec = random_phantom_spec(rng)
        gt, pred = generate_phantom(spec)
        assert (gt.voxels != 0).any()
        assert gt.geometry == pred.geometry


def test_peak_memory_below_two_float_grids():
    # Each ellipsoid is a sum of three broadcast axis terms, so only that sum
    # has the grid's shape; a full-grid accumulator plus one full-grid add per
    # axis peaks at about 2.5 float64 grids.
    spec = PhantomSpec((96, 96, 96), (Lesion((48, 48, 48), (20, 16, 12)),))
    generate_phantom(spec)
    tracemalloc.start()
    try:
        generate_phantom(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * 96 ** 3
