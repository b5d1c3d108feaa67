"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(visible with ``pytest -s``). Criteria with a runtime budget assert it.
"""

import functools
import time

import numpy as np
import pytest

from bratskit.cli import main as cli_main
from bratskit.fusion import staple_binary, staple_fusion
from bratskit.metrics import (
    HD95_PENALTY,
    case_metrics_legacy,
    case_metrics_lesionwise,
)
from bratskit.nifti import read_volume, write_volume
from bratskit.phantom import Lesion, Perturbation, PhantomSpec, generate_phantom, random_phantom_spec
from bratskit.postprocess import ThresholdScope, ThresholdSpec, apply_thresholds
from bratskit.ranking import METRICS, MetricTable, rank_solutions
from bratskit.regions import REGIONS, Region, extract_region
from bratskit.synthprep import (
    build_corruption_field,
    corrupt_crop,
    decay_exponent,
    lambda_schedule,
    replacement_probability,
    tumour_geometry,
)
from bratskit.volume import BinaryMask, Geometry, LabelVolume, RegionProbVolume, ScalarVolume

from conftest import labels_from_array
from oracles import brute_dice, brute_hd95, brute_rank, staple_em_oracle


def criterion(number, description, budget_s=None):
    """Print one PASS/FAIL line per criterion; enforce the runtime budget."""
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                if budget_s is not None:
                    assert elapsed < budget_s, (
                        f"runtime {elapsed:.1f}s exceeds budget {budget_s}s")
            except BaseException:
                print(f"criterion {number:2d} FAIL  {description}")
                raise
            print(f"criterion {number:2d} PASS  {description}"
                  f"  [{time.perf_counter() - start:.2f}s]")
        return wrapper
    return decorate


@criterion(1, "empty-region penalty conventions (DSC 0/HD95 374; both empty 1/0)",
           budget_s=1.0)
def test_penalty_conventions():
    vox_gt = np.zeros((12, 12, 12), np.uint8)
    vox_gt[2:6, 2:6, 2:6] = 2  # edema only: ET region empty in gt
    vox_pred = vox_gt.copy()
    vox_pred[3:5, 3:5, 3:5] = 3  # spurious enhancing tumour
    case = case_metrics_legacy(labels_from_array(vox_gt), labels_from_array(vox_pred))
    assert case.per_region[Region.ET].dsc == 0.0
    assert case.per_region[Region.ET].hd95 == HD95_PENALTY == 374.0

    both_empty = case_metrics_legacy(labels_from_array(vox_gt),
                                     labels_from_array(vox_gt))
    assert both_empty.per_region[Region.ET].dsc == 1.0
    assert both_empty.per_region[Region.ET].hd95 == 0.0


@criterion(2, "dice/hd95 match brute-force oracles on 200 random phantoms",
           budget_s=60.0)
def test_metric_oracle_equivalence():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        gt, pred = generate_phantom(random_phantom_spec(rng, max_dim=32))
        case = case_metrics_legacy(gt, pred)
        for region in REGIONS:
            a = extract_region(gt, region).bits
            b = extract_region(pred, region).bits
            pair = case.per_region[region]
            assert abs(pair.dsc - brute_dice(a, b)) <= 1e-6
            assert abs(pair.hd95 - brute_hd95(a, b)) <= 1e-5


@criterion(3, "lesion-wise mean of one perfect match plus one FP is (0.5, 187.0)")
def test_lesionwise_averaging_rule():
    gt = np.zeros((24, 24, 24), np.uint8)
    gt[2:6, 2:6, 2:6] = 3
    pred = gt.copy()
    pred[18:21, 18:21, 18:21] = 3  # unmatched spurious lesion
    case, reports = case_metrics_lesionwise(labels_from_array(gt),
                                            labels_from_array(pred))
    for region in REGIONS:
        assert reports[region].n_matched == 1
        assert len(reports[region].false_positives) == 1
        assert case.per_region[region].dsc == 0.5
        assert case.per_region[region].hd95 == (0.0 + HD95_PENALTY) / 2 == 187.0


@criterion(4, "corruption-field formulas and Monte Carlo replacement frequency",
           budget_s=30.0)
def test_corruption_field():
    assert abs(decay_exponent(96) - 1.1) <= 1e-12
    for e in (1.0, 1.05, 1.1, 1.2, 1.3, 2.0, 10.0):
        assert replacement_probability(0.0, e) == 1.0

    # small tumour in the crop corner so the shells around the crop centre
    # stay healthy tissue
    lab = np.zeros((96, 96, 96), np.uint8)
    lab[0:4, 0:4, 0:4] = 1
    labels = labels_from_array(lab)
    geom = tumour_geometry(labels)
    field = build_corruption_field(geom, labels.geometry)

    coords = np.arange(96) - 48
    dist_sq = (coords[:, None, None] ** 2 + coords[None, :, None] ** 2
               + coords[None, None, :] ** 2)
    shells = {r: (dist_sq == r * r) & (lab == 0) for r in (5, 10, 13)}
    n_points = {r: int(s.sum()) for r, s in shells.items()}
    assert min(n_points.values()) >= 24

    rng = np.random.default_rng(7)
    image = ScalarVolume(labels.geometry,
                         rng.standard_normal((96, 96, 96)).astype(np.float32))
    n_seeds = 334  # >= 10_000 draws per shell
    hits = {r: 0 for r in shells}
    for seed in range(n_seeds):
        _, replaced = corrupt_crop(image, labels, field, seed, return_mask=True)
        for r, shell in shells.items():
            hits[r] += int((replaced.bits & shell).sum())
    for r, shell in shells.items():
        p = float(field.probs[shell][0])
        n = n_points[r] * n_seeds
        assert n >= 10_000
        freq = hits[r] / n
        sigma = np.sqrt(p * (1.0 - p) / n)
        assert abs(freq - p) <= 3.0 * sigma, (r, freq, p, sigma)


@criterion(5, "loss-weight schedule endpoints and lambda1*lambda2 == 1")
def test_lambda_schedule():
    assert lambda_schedule(0).lambda2 == 1.0
    assert lambda_schedule(1000).lambda2 == 100.0
    for epoch in range(0, 1001):
        pair = lambda_schedule(epoch)
        assert abs(pair.lambda1 * pair.lambda2 - 1.0) <= 1e-12


@criterion(6, "consensus fusion sanity and EM-oracle equivalence", budget_s=30.0)
def test_staple_sanity():
    g = Geometry((6, 6, 6))
    bits = np.zeros(g.dims, bool)
    bits[1:4, 1:4, 1:4] = True
    mask = BinaryMask(g, bits)
    assert staple_binary([mask, mask, mask]).consensus == mask

    g4 = Geometry((4, 4, 4))
    maj = np.zeros(g4.dims, bool)
    maj[1:3, 1:3, 1:3] = True
    majority = BinaryMask(g4, maj)
    empty = BinaryMask(g4, np.zeros(g4.dims, bool))
    assert staple_binary([majority, majority, empty]).consensus == majority

    rng = np.random.default_rng(31)
    for _ in range(25):
        # raters as noisy views of a common latent mask
        truth = rng.random(g.dims) < 0.4
        masks = [BinaryMask(g, truth ^ (rng.random(g.dims) < 0.1))
                 for _ in range(3)]
        if not any(m.any() for m in masks):
            continue
        res = staple_binary(masks)
        assert res.converged and res.iterations_run <= 100
        d = np.stack([m.bits.ravel() for m in masks]).astype(float)
        w, _, _, _ = staple_em_oracle(d, d.mean(axis=0))
        assert np.abs(res.weights.ravel() - w).max() <= 1e-6


@criterion(7, "size-threshold suppression (250/150/100) and legacy 199/200 rule")
def test_postprocessing():
    vox = np.zeros((32, 32, 32), np.uint8)
    # nested lesion: whole tumour 500 voxels, core 90, enhancing 40
    vox[2:12, 2:12, 2:7] = 2
    vox[3:9, 3:8, 3:6] = 1
    vox[3:8, 3:7, 3:5] = 3
    # separate 40-voxel edema component
    vox[20:24, 20:25, 20:22] = 2
    vol = labels_from_array(vox)
    sizes = {r: int(np.isin(vox, sorted(r.labels)).sum()) for r in REGIONS}
    assert sizes == {Region.WT: 540, Region.TC: 90, Region.ET: 40}

    spec = ThresholdSpec(wt=250, tc=150, et=100, scope=ThresholdScope.PerComponent)
    out = apply_thresholds(vol, spec)
    # small WT component removed, small core demoted to edema
    expected = np.zeros_like(vox)
    expected[2:12, 2:12, 2:7] = 2
    assert np.array_equal(out.voxels, expected)
    assert apply_thresholds(out, spec) == out  # idempotent
    wt = extract_region(out, Region.WT).bits
    tc = extract_region(out, Region.TC).bits
    et = extract_region(out, Region.ET).bits
    assert not (et & ~tc).any() and not (tc & ~wt).any()

    for count, flipped in ((199, True), (200, False)):
        v = np.zeros((16, 16, 16), np.uint8)
        v.reshape(-1)[:count] = 3
        legacy = ThresholdSpec(et=200, scope=ThresholdScope.WholeRegion)
        res = apply_thresholds(labels_from_array(v), legacy)
        if flipped:
            assert int((res.voxels == 1).sum()) == count
            assert not (res.voxels == 3).any()
        else:
            assert int((res.voxels == 3).sum()) == count


@criterion(8, "rank aggregation matches sort oracle; dominance and monotonicity",
           budget_s=5.0)
def test_ranking():
    rng = np.random.default_rng(11)
    solutions = ["s1", "s2", "s3"]
    cases = [f"c{i}" for i in range(10)]

    def random_table():
        entries = {}
        for sol in solutions:
            for case in cases:
                for region in REGIONS:
                    entries[(sol, case, region.value, "DSC")] = float(rng.random())
                    entries[(sol, case, region.value, "HD95")] = float(
                        rng.uniform(0, 374))
        return MetricTable(list(solutions), list(cases), entries)

    table = random_table()
    result = rank_solutions(table)
    oracle = brute_rank(table)
    for sol in solutions:
        assert abs(result.normalized_rank[sol] - oracle[sol]) <= 1e-12

    # strict dominance: best scores 0.0, worst 1.0
    dom = {}
    for i, sol in enumerate(solutions):
        for case in cases:
            for region in REGIONS:
                dom[(sol, case, region.value, "DSC")] = 1.0 - 0.1 * i
                dom[(sol, case, region.value, "HD95")] = 10.0 * i
    dom_result = rank_solutions(MetricTable(list(solutions), list(cases), dom))
    assert dom_result.normalized_rank["s1"] == 0.0
    assert dom_result.normalized_rank["s3"] == 1.0

    # improving a single entry never worsens that solution's aggregate rank
    keys = list(table.keys())
    for _ in range(100):
        sol = solutions[int(rng.integers(len(solutions)))]
        case, region, metric = keys[int(rng.integers(len(keys)))]
        entries = dict(table.entries)
        before = rank_solutions(table).normalized_rank[sol]
        if metric == "DSC":
            entries[(sol, case, region, metric)] = min(
                1.0, entries[(sol, case, region, metric)] + float(rng.uniform(0, 0.5)))
        else:
            entries[(sol, case, region, metric)] = max(
                0.0, entries[(sol, case, region, metric)] - float(rng.uniform(0, 50)))
        improved = MetricTable(list(solutions), list(cases), entries)
        assert rank_solutions(improved).normalized_rank[sol] <= before + 1e-12


@criterion(9, "bit-exact volume round trips and legacy label-4 remap")
def test_io_round_trip(tmp_path):
    rng = np.random.default_rng(5150)
    for i in range(50):
        dims = tuple(int(rng.integers(1, 12)) for _ in range(3))
        spacing = tuple(float(np.float32(rng.uniform(0.5, 3.0))) for _ in range(3))
        g = Geometry(dims, spacing)
        volumes = [
            LabelVolume(g, rng.integers(0, 4, dims).astype(np.uint8)),
            ScalarVolume(g, rng.standard_normal(dims).astype(np.float32)),
            RegionProbVolume(g, rng.random((3, *dims)).astype(np.float32)),
        ]
        for vol, kind in zip(volumes, ("label", "scalar", "region_prob")):
            path = tmp_path / f"{kind}_{i}.nii"
            write_volume(vol, path)
            back = read_volume(path, kind)
            assert back == vol
            assert back.geometry == vol.geometry
            # writing the reread volume reproduces the file byte for byte
            path2 = tmp_path / f"{kind}_{i}_again.nii"
            write_volume(back, path2)
            assert path.read_bytes() == path2.read_bytes()

    vox = np.zeros((6, 6, 6), np.uint8)
    vox[1:4, 1:4, 1:4] = 3
    path = tmp_path / "legacy.nii"
    write_volume(labels_from_array(vox), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:352] + raw[352:].replace(b"\x03", b"\x04"))
    remapped = read_volume(path, "label")
    assert remapped.legacy_remapped
    assert np.array_equal(remapped.voxels, vox)


@criterion(10, "full-size case under 10 s; batch output identical across workers")
def test_performance_envelope(tmp_path):
    spec = PhantomSpec(
        (240, 240, 155),
        (Lesion((80, 80, 70), (22, 18, 16)), Lesion((170, 160, 90), (14, 14, 12))),
        Perturbation(kind="shift", shift=(2, 1, 0)),
    )
    gt, pred = generate_phantom(spec)
    start = time.perf_counter()
    case_metrics_legacy(gt, pred)
    case_metrics_lesionwise(gt, pred)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"full-size evaluation took {elapsed:.1f}s"

    gt_dir = tmp_path / "gt"
    pred_dir = tmp_path / "pred"
    gt_dir.mkdir()
    pred_dir.mkdir()
    rng = np.random.default_rng(404)
    for i in range(100):
        g, p = generate_phantom(random_phantom_spec(rng, max_dim=24))
        write_volume(g, gt_dir / f"case{i:03d}.nii")
        write_volume(p, pred_dir / f"case{i:03d}.nii")
    outputs = {}
    for workers in (1, 2, 4):
        out = tmp_path / f"metrics_w{workers}.csv"
        code = cli_main(["evaluate", "--gt-dir", str(gt_dir),
                         "--pred-dir", str(pred_dir), "--out", str(out),
                         "--mode", "lesionwise", "--workers", str(workers)])
        assert code == 0
        outputs[workers] = out.read_bytes()
    assert outputs[1] == outputs[2] == outputs[4]
