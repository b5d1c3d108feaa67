"""Deterministic inputs for the four benchmark workloads.

Every workload draws its items from a fixed pool that depends only on the
constants in this file. The run seed picks which pool entries a run uses and
in which order, so the same seed always gives the same inputs, and every
output the CLI can write has a sha256 digest recorded in `digests.json`.

Pool variants of one item share what sets its cost (grid size, lesion count
and radii, perturbation kind, the FP label and the dropped lesion) and differ
in lesion positions and the remaining perturbation parameters, so that runs
with different seeds cost about the same.

A workload is set up as a list of units (one case, one rater, one solution
directory, one crop); each unit is timed on its own so `setup_s` can be
reported as the median unit time.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import ndimage

from bratskit.metrics import CSV_COLUMNS
from bratskit.nifti import write_volume
from bratskit.phantom import Lesion, Perturbation, PhantomSpec, generate_phantom
from bratskit.regions import REGIONS, extract_region
from bratskit.volume import Geometry, LabelVolume, RegionProbVolume, ScalarVolume

POOL_SEED = 20240227
FULL = (240, 240, 155)

# The two-lesion phantom of acceptance criterion 10.
CRIT10 = PhantomSpec(
    FULL,
    (Lesion((80, 80, 70), (22, 18, 16)), Lesion((170, 160, 90), (14, 14, 12))),
    Perturbation(kind="shift", shift=(2, 1, 0)),
)

# lesionwise-fullsize: position -> (lesion count, perturbation kind); the
# seed picks the variant of each position.
LESIONWISE_POSITIONS = ((2, "shift"), (3, "erode"), (1, "add_fp"), (5, "drop_lesion"))
LESIONWISE_VARIANTS = 3

LEADERBOARD_GTS = 4
LEADERBOARD_SOLUTIONS = 6
LEADERBOARD_CASES = 100
SYNTHETIC_SOLUTIONS = 40
TRUNCATED_STEM = f"case{LEADERBOARD_CASES - 1:03d}"
UNPAIRED_STEM = "unpaired"

ENSEMBLE_CASES = 4
# Three imperfect raters. Small, fixed disagreements keep STAPLE's iteration
# count (and so the item cost) close across pool cases.
RATERS = (
    Perturbation(kind="shift", shift=(1, 0, 0)),
    Perturbation(kind="shift", shift=(0, -1, 0)),
    Perturbation(kind="erode", iterations=1),
)

SYNTH_POOL = 16
SYNTH_CORPUS = 8
CROP = 96


@dataclass
class Item:
    """One unit of CLI work: argv lists run back to back by the pass."""

    key: str
    calls: list  # [argv, ...]
    expect: list  # expected exit code per call
    outputs: list  # per call, the files it writes (relative to the work dir)
    skipped: dict = field(default_factory=dict)  # report file -> stems it must list


@dataclass
class Corpus:
    items: list  # items in run order; the pass cycles through them
    min_items: int
    unit_s: list  # set-up time per unit
    rank_inputs: list = field(default_factory=list)  # leaderboard: CSVs the rank call ranks
    rank_out: str = ""
    oracle_cases: list = field(default_factory=list)  # (gt, pred, csv, case id)


def _rng(*key):
    return np.random.default_rng([POOL_SEED, *key])


def _timed(unit_s, fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    unit_s.append(time.perf_counter() - start)
    return out


def _radii(rng, count, rmin, rmax):
    return [tuple(float(rng.uniform(rmin, rmax)) for _ in range(3)) for _ in range(count)]


def _place_lesions(rng, dims, radii, margin=2):
    """Ellipsoids of the given radii at centres drawn from `rng`, bounding
    spheres at least `margin` apart; a lesion with no room after 200 draws is
    left out."""
    lesions = []
    for r3 in radii:
        r = max(r3)
        lo = int(np.ceil(r)) + 1
        for _ in range(200):
            center = tuple(int(rng.integers(lo, n - lo)) for n in dims)
            if all(np.linalg.norm(np.subtract(center, l.center)) > r + max(l.radii) + margin
                   for l in lesions):
                lesions.append(Lesion(center, r3))
                break
    return tuple(lesions)


def _free_point(rng, dims, lesions, clearance):
    """A point `clearance` voxels clear of every lesion, or the last draw."""
    for _ in range(100):
        p = tuple(int(rng.integers(clearance, n - clearance)) for n in dims)
        if all(np.linalg.norm(np.subtract(p, l.center)) > max(l.radii) + clearance
               for l in lesions):
            break
    return p


def _perturbation(shared, rng, kind, dims, lesions):
    """The FP label and the dropped lesion come from `shared`, the rest from `rng`."""
    if kind == "shift":
        return Perturbation(kind="shift", shift=tuple(int(rng.integers(-2, 3)) for _ in range(3)))
    if kind == "erode":
        return Perturbation(kind="erode", iterations=1)
    if kind == "add_fp":
        clearance = min(8, min(dims) // 4)
        return Perturbation(kind="add_fp", fp_label=int(shared.integers(1, 4)),
                            fp_center=_free_point(rng, dims, lesions, clearance),
                            fp_radius=float(rng.uniform(1.0, 3.0)))
    if kind == "drop_lesion":
        return Perturbation(kind="drop_lesion", drop_index=int(shared.integers(len(lesions))))
    return Perturbation()


def _write_pair(spec, gt_path, pred_path):
    gt, pred = generate_phantom(spec)
    write_volume(gt, gt_path)
    write_volume(pred, pred_path)


def lesionwise_spec(position, variant):
    if position == 0:
        return CRIT10
    count, kind = LESIONWISE_POSITIONS[position]
    shared, rng = _rng(1, position), _rng(1, position, variant)
    lesions = _place_lesions(rng, FULL, _radii(shared, count, 3.0, 22.0))
    return PhantomSpec(FULL, lesions, _perturbation(shared, rng, kind, FULL, lesions))


def setup_lesionwise(work, positions):
    items, unit_s = [], []
    for position, variant in positions:
        key = f"p{position}v{variant}"
        d = work / "items" / key
        for sub in ("gt", "pred"):
            (d / sub).mkdir(parents=True)
        spec = lesionwise_spec(position, variant)
        _timed(unit_s, _write_pair, spec, d / "gt" / f"{key}.nii", d / "pred" / f"{key}.nii")
        calls, outputs = [], []
        for mode in ("lesionwise", "legacy"):
            out = f"out/{key}.{mode}.csv"
            calls.append(["evaluate", "--gt-dir", str(d / "gt"), "--pred-dir", str(d / "pred"),
                          "--out", str(work / out), "--mode", mode, "--workers", "1"])
            outputs.append([out])
        items.append(Item(key, calls, [0, 0], outputs))
    return Corpus(items, min_items=2, unit_s=unit_s)


def _leaderboard_gt(g):
    """Ground truth of leaderboard variant `g`: 24^3-48^3 grids, 1-3 lesions."""
    shared, rng = _rng(2), _rng(2, g)
    specs = []
    for _ in range(LEADERBOARD_CASES):
        dims = tuple(int(shared.integers(24, 49)) for _ in range(3))
        radii = _radii(shared, int(shared.integers(1, 4)), 1.5, min(dims) / 5)
        specs.append(PhantomSpec(dims, _place_lesions(rng, dims, radii)))
    return specs


def _write_solution(gt_specs, g, s, sol_dir):
    sol_dir.mkdir(parents=True)
    kinds = ("none", "shift", "erode", "add_fp", "drop_lesion")
    for i, spec in enumerate(gt_specs):
        shared = _rng(3, s, i)
        kind = kinds[int(shared.integers(len(kinds)))]
        pert = _perturbation(shared, _rng(3, g, s, i), kind, spec.dims, spec.lesions)
        _, pred = generate_phantom(PhantomSpec(spec.dims, spec.lesions, pert))
        write_volume(pred, sol_dir / f"case{i:03d}.nii")
    # One truncated file and one stem without ground truth: evaluate must
    # report both and exit 1.
    trunc = sol_dir / f"{TRUNCATED_STEM}.nii"
    trunc.write_bytes(trunc.read_bytes()[:400])
    _, extra = generate_phantom(gt_specs[0])
    write_volume(extra, sol_dir / f"{UNPAIRED_STEM}.nii")


def _write_gt(gt_specs, gt_dir):
    gt_dir.mkdir(parents=True)
    for i, spec in enumerate(gt_specs):
        gt, _ = generate_phantom(spec)
        write_volume(gt, gt_dir / f"case{i:03d}.nii")


def write_synthetic_csvs(g, out_dir):
    """Solution CSVs in the evaluate schema, including the ties real
    leaderboards have (DSC 0 / HD95 374 and DSC 1 / HD95 0)."""
    out_dir.mkdir(parents=True)
    rng = _rng(4, g)
    cases = [f"case{i:03d}" for i in range(LEADERBOARD_CASES) if f"case{i:03d}" != TRUNCATED_STEM]
    regions = sorted(r.value for r in REGIONS)
    paths = []
    for s in range(SYNTHETIC_SOLUTIONS):
        rows, sums = [], {r: [0.0, 0.0] for r in regions}
        for case in cases:
            for region in regions:
                u = rng.random()
                if u < 0.1:
                    dsc, hd = 0.0, 374.0
                elif u < 0.2:
                    dsc, hd = 1.0, 0.0
                else:
                    dsc, hd = float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.0, 30.0))
                dsc, hd = float(f"{dsc:.6f}"), float(f"{hd:.6f}")
                sums[region][0] += dsc
                sums[region][1] += hd
                counts = [str(int(rng.integers(0, 4))) for _ in range(3)]
                rows.append([case, "lesionwise", region, f"{dsc:.6f}", f"{hd:.6f}", *counts])
        for region in regions:
            d, h = sums[region]
            rows.append(["__mean__", "lesionwise", region,
                         f"{d / len(cases):.6f}", f"{h / len(cases):.6f}", "", "", ""])
        path = str(out_dir / f"syn{s:02d}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            writer.writerows(rows)
        paths.append(path)
    return paths


ORACLE_SAMPLE = (0, 1, 2)  # case indices re-scored by brute force in every solution


def setup_leaderboard(work, selection, workers):
    g, order = selection
    gt_specs = _leaderboard_gt(g)
    unit_s = []
    gt_dir = work / "gt"
    _timed(unit_s, _write_gt, gt_specs, gt_dir)
    items, oracle = [], []
    for s in order:
        key = f"g{g}s{s}"
        sol_dir = work / "solutions" / key
        _timed(unit_s, _write_solution, gt_specs, g, s, sol_dir)
        out = f"out/{key}.csv"
        report = f"out/{key}.skipped.txt"
        items.append(Item(
            key,
            [["evaluate", "--gt-dir", str(gt_dir), "--pred-dir", str(sol_dir),
              "--out", str(work / out), "--mode", "lesionwise", "--workers", str(workers)]],
            [1], [[out, report]], {report: [TRUNCATED_STEM, UNPAIRED_STEM]},
        ))
        oracle += [(gt_dir / f"case{i:03d}.nii", sol_dir / f"case{i:03d}.nii", work / out,
                    f"case{i:03d}") for i in ORACLE_SAMPLE]
    synthetic = _timed(unit_s, write_synthetic_csvs, g, work / "synthetic")
    return Corpus(items, min_items=len(items), unit_s=unit_s,
                  rank_inputs=[str(work / item.outputs[0][0]) for item in items] + synthetic,
                  rank_out=f"out/ranking.lb-g{g}.csv", oracle_cases=oracle)


def ensemble_specs(e):
    lesions = _place_lesions(_rng(5, e), FULL, _radii(_rng(5), 3, 8.0, 22.0))
    return [PhantomSpec(FULL, lesions, rater) for rater in RATERS]


def _prob_map(labels):
    """Smoothed region masks of one rater, as a 4-D region probability map."""
    channels = np.zeros((3,) + labels.geometry.dims, dtype=np.float32)
    for c, region in enumerate(REGIONS):
        bits = extract_region(labels, region).bits
        if not bits.any():
            continue
        nz = np.nonzero(bits)
        box = tuple(slice(max(int(a.min()) - 4, 0), int(a.max()) + 5) for a in nz)
        smooth = ndimage.gaussian_filter(bits[box].astype(np.float32), sigma=1.0)
        channels[(c,) + box] = np.clip(smooth, 0.0, 1.0)
    return RegionProbVolume(labels.geometry, channels)


def _write_rater(spec, label_path, prob_path):
    _, labels = generate_phantom(spec)
    write_volume(labels, label_path)
    write_volume(_prob_map(labels), prob_path)


def setup_ensemble(work, e):
    key = f"e{e}"
    raters = ensemble_specs(e)
    d = work / "items" / key
    d.mkdir(parents=True)
    unit_s, labels, probs = [], [], []
    for r, spec in enumerate(raters):
        labels.append(str(d / f"rater{r}.nii"))
        probs.append(str(d / f"rater{r}.prob.nii"))
        _timed(unit_s, _write_rater, spec, labels[-1], probs[-1])
    out = {name: f"out/{key}.{name}.nii" for name in ("staple", "mean", "meanprob", "post")}
    p = {name: str(work / rel) for name, rel in out.items()}
    calls = [
        ["fuse", "--method", "staple", "--inputs", *labels, "--out", p["staple"]],
        ["fuse", "--method", "mean", "--inputs", *probs, "--out", p["mean"],
         "--prob-out", p["meanprob"]],
        ["postprocess", "--input", p["staple"], "--out", p["post"],
         "--wt", "250", "--tc", "150", "--et", "100", "--scope", "per_component"],
    ]
    outputs = [[out["staple"]], [out["mean"], out["meanprob"]], [out["post"]]]
    return Corpus([Item(key, calls, [0, 0, 0], outputs)], min_items=1, unit_s=unit_s)


def crop_inputs(c):
    """Image, labels and the corrupt/place seeds of pool crop `c`."""
    rng = _rng(6, c)
    dims = (CROP,) * 3
    lesions = []
    for _ in range(int(rng.integers(1, 3))):
        radii = tuple(float(rng.uniform(6.0, 16.0)) for _ in range(3))
        center = tuple(int(rng.integers(40, 57)) for _ in range(3))
        if all(np.linalg.norm(np.subtract(center, l.center)) > max(radii) + max(l.radii) + 2
               for l in lesions):
            lesions.append(Lesion(center, radii))
    labels, _ = generate_phantom(PhantomSpec(dims, tuple(lesions)))
    image = ndimage.uniform_filter(rng.normal(size=dims).astype(np.float32), size=3)
    image = image + 0.5 * labels.voxels
    return (ScalarVolume(Geometry(dims), image.astype(np.float32)), labels,
            int(rng.integers(2**31)), int(rng.integers(2**31)))


def _write_target(d):
    """Full-size target with one tumour inside an ellipsoidal brain mask."""
    grids = np.ogrid[0:FULL[0], 0:FULL[1], 0:FULL[2]]
    acc = sum(((g - c) / r) ** 2 for g, c, r in zip(grids, (120, 120, 77), (112, 112, 76)))
    write_volume(LabelVolume(Geometry(FULL), (acc <= 1.0).astype(np.uint8)), d / "brain.nii")
    target, _ = generate_phantom(PhantomSpec(FULL, (Lesion((70, 150, 60), (12, 10, 9)),)))
    write_volume(target, d / "target.nii")


def _write_crop(c, d):
    image, labels, corrupt_seed, place_seed = crop_inputs(c)
    write_volume(image, d / f"crop{c:02d}.img.nii")
    write_volume(labels, d / f"crop{c:02d}.lab.nii")
    return corrupt_seed, place_seed


def setup_synth(work, crops):
    d = work / "items"
    d.mkdir(parents=True)
    unit_s, items = [], []
    _timed(unit_s, _write_target, d)
    for c in crops:
        corrupt_seed, place_seed = _timed(unit_s, _write_crop, c, d)
        key = f"c{c:02d}"
        out = {name: f"out/{key}.{name}.nii" for name in ("corrupt", "placed")}
        lab = str(d / f"crop{c:02d}.lab.nii")
        calls = [
            ["corrupt", "--image", str(d / f"crop{c:02d}.img.nii"), "--label", lab,
             "--seed", str(corrupt_seed), "--out", str(work / out["corrupt"])],
            ["place", "--target", str(d / "target.nii"), "--brain-mask", str(d / "brain.nii"),
             "--candidate", lab, "--seed", str(place_seed), "--out", str(work / out["placed"])],
        ]
        items.append(Item(key, calls, [0, 0], [[out["corrupt"]], [out["placed"]]]))
    return Corpus(items, min_items=len(items), unit_s=unit_s)


def select(workload, seed):
    """The pool entries (and their order) that the run seed picks."""
    rng = np.random.default_rng(seed)
    if workload == "lesionwise-fullsize":
        return [(0, 0)] + [(p, int(rng.integers(LESIONWISE_VARIANTS)))
                           for p in range(1, len(LESIONWISE_POSITIONS))]
    if workload == "leaderboard-small":
        g = int(rng.integers(LEADERBOARD_GTS))
        return g, [int(s) for s in rng.permutation(LEADERBOARD_SOLUTIONS)]
    if workload == "ensemble-fullsize":
        return int(rng.integers(ENSEMBLE_CASES))
    return [int(c) for c in rng.permutation(SYNTH_POOL)[:SYNTH_CORPUS]]


def pool(workload):
    """Selections that together cover every pool entry of the workload."""
    if workload == "lesionwise-fullsize":
        return [[(0, 0)] + [(p, v) for p in range(1, len(LESIONWISE_POSITIONS))
                            for v in range(LESIONWISE_VARIANTS)]]
    if workload == "leaderboard-small":
        return [(g, list(range(LEADERBOARD_SOLUTIONS))) for g in range(LEADERBOARD_GTS)]
    if workload == "ensemble-fullsize":
        return list(range(ENSEMBLE_CASES))
    return [list(range(SYNTH_POOL))]


def build(workload, work: Path, selection, workers: int) -> Corpus:
    """Generate and write the corpus of a selection."""
    (work / "out").mkdir(parents=True, exist_ok=True)
    if workload == "leaderboard-small":
        return setup_leaderboard(work, selection, workers)
    return SETUP[workload](work, selection)


SETUP = {
    "lesionwise-fullsize": setup_lesionwise,
    "ensemble-fullsize": setup_ensemble,
    "synth-crops": setup_synth,
}
