import numpy as np
import pytest

from bratskit.errors import ValidationError
from bratskit.metrics import case_metrics_legacy, case_metrics_lesionwise
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
], ids=["zero-radius", "negative-radius", "nan-radius", "inf-radius", "zero-shell-scale",
        "negative-shell-scale", "erode-0-iterations", "erode-negative-iterations",
        "zero-fp-radius", "inf-fp-radius", "short-center", "long-center", "short-radii",
        "short-shift", "short-fp-center", "short-unused-shift"])
def test_degenerate_spec_rejected(lesion, pert):
    # Let through, each would build an empty, mirrored or whole-grid lesion, or
    # (for a vector without 3 entries) one whose missing axes zip drops.
    with pytest.raises(ValidationError):
        generate_phantom(PhantomSpec((16, 16, 16), (lesion,), pert))


def test_random_specs_always_generate(rng):
    for _ in range(25):
        spec = random_phantom_spec(rng)
        gt, pred = generate_phantom(spec)
        assert (gt.voxels != 0).any()
        assert gt.geometry == pred.geometry
