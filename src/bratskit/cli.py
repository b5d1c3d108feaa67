"""Command-line entry point.

Subcommands: evaluate, rank, fuse, postprocess, corrupt, place, phantom.
All outputs are deterministic given the inputs, flags and master seed; the
evaluate worker pool gathers results in sorted case order so the CSV bytes do
not depend on the worker count.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import functools
import json
import sys
from pathlib import Path

from .errors import BratskitError
from .fusion import StapleParams, average_fusion, staple_fusion
from .metrics import (
    CSV_COLUMNS,
    MatchParams,
    case_metrics_legacy,
    case_metrics_lesionwise,
    metrics_rows,
)
from .morphology import Connectivity
from .nifti import read_volume, write_volume
from .phantom import Lesion, Perturbation, PhantomSpec, generate_phantom
from .postprocess import ThresholdScope, ThresholdSpec, apply_thresholds, legacy_et_to_ncr
from .ranking import build_table, rank_solutions, write_ranking_csv
from .regions import REGIONS
from .synthprep import build_corruption_field, corrupt_crop, place_label, tumour_geometry
from .volume import BinaryMask

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2


def _connectivity(name):
    return Connectivity.Face6 if name == "6" else Connectivity.Full26


def _case_stems(directory):
    return {p.stem: p for p in sorted(Path(directory).iterdir()) if p.is_file()}


def _evaluate_case(pair, mode, params):
    """Worker: returns (case_id, rows, error_message)."""
    case_id, gt_path, pred_path = pair
    try:
        gt = read_volume(gt_path, "label")
        pred = read_volume(pred_path, "label")
        if mode == "legacy":
            case = case_metrics_legacy(gt, pred, case_id)
            rows = metrics_rows(case)
        else:
            case, reports = case_metrics_lesionwise(gt, pred, params, case_id)
            rows = metrics_rows(case, reports)
        return case_id, rows, None
    except BratskitError as exc:
        return case_id, [], str(exc)


def cmd_evaluate(args):
    gt_dir = Path(args.gt_dir)
    pred_dir = Path(args.pred_dir)
    if not gt_dir.is_dir() or not pred_dir.is_dir():
        print("evaluate: gt and pred directories must exist", file=sys.stderr)
        return EXIT_CONFIG
    gt_files = _case_stems(gt_dir)
    pred_files = _case_stems(pred_dir)
    paired = sorted(set(gt_files) & set(pred_files))
    unpaired = sorted(set(gt_files) ^ set(pred_files))
    params = MatchParams(args.dilation_iterations, _connectivity(args.connectivity))
    jobs = [(cid, gt_files[cid], pred_files[cid]) for cid in paired]

    worker = functools.partial(_evaluate_case, mode=args.mode, params=params)
    if args.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(worker, jobs))
    else:
        results = [worker(job) for job in jobs]

    failed = {cid: err for cid, _, err in results if err}
    rows = [row for _, case_rows, err in results if not err for row in case_rows]

    # Per-region mean over the successfully evaluated cases.
    region_order = sorted(r.value for r in REGIONS)
    sums = {r: [0.0, 0.0, 0] for r in region_order}
    for row in rows:
        acc = sums[row[2]]
        acc[0] += float(row[3])
        acc[1] += float(row[4])
        acc[2] += 1
    for region in region_order:
        dsc_sum, hd_sum, n = sums[region]
        if n:
            rows.append(["__mean__", args.mode, region,
                         f"{dsc_sum / n:.6f}", f"{hd_sum / n:.6f}", "", "", ""])

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)

    if unpaired or failed:
        report = Path(args.out).with_suffix(".skipped.txt")
        with open(report, "w") as fh:
            for cid in unpaired:
                fh.write(f"{cid}\tunpaired\n")
            for cid in sorted(failed):
                fh.write(f"{cid}\t{failed[cid]}\n")
        print(f"evaluate: {len(unpaired) + len(failed)} case(s) skipped, see {report}",
              file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_rank(args):
    paths = {}
    if args.manifest:
        with open(args.manifest, newline="") as fh:
            for row in csv.reader(fh):
                paths[row[0]] = row[1]
    for path in args.inputs:
        paths[Path(path).stem] = path
    if not paths:
        print("rank: no solution CSVs given", file=sys.stderr)
        return EXIT_CONFIG
    table = build_table(paths)
    result = rank_solutions(table, normalization=args.normalization)
    write_ranking_csv(args.out, table, result)
    return EXIT_OK


def _warn_unconverged(region, result):
    if not result.converged:
        print(f"warning: STAPLE for {region.value} stopped after {result.iterations_run} "
              "iterations without converging", file=sys.stderr)


def cmd_fuse(args):
    if args.method == "mean":
        maps = [read_volume(p, "region_prob") for p in args.inputs]
        fused, labels = average_fusion(maps)
        write_volume(labels, args.out)
        if args.prob_out:
            write_volume(fused, args.prob_out)
    else:
        labels_in = [read_volume(p, "label") for p in args.inputs]
        fused_labels = staple_fusion(labels_in, StapleParams(max_iters=args.max_iters),
                                     on_region=_warn_unconverged)
        write_volume(fused_labels, args.out)
    return EXIT_OK


def cmd_postprocess(args):
    pred = read_volume(args.input, "label")
    spec = ThresholdSpec(args.wt, args.tc, args.et,
                         ThresholdScope(args.scope))
    out = apply_thresholds(pred, spec, _connectivity(args.connectivity))
    if args.legacy_et_threshold is not None:
        out = legacy_et_to_ncr(out, args.legacy_et_threshold)
    write_volume(out, args.out)
    return EXIT_OK


def cmd_corrupt(args):
    image = read_volume(args.image, "scalar")
    labels = read_volume(args.label, "label")
    geom = tumour_geometry(labels)
    field = build_corruption_field(geom, image.geometry)
    out = corrupt_crop(image, labels, field, args.seed)
    write_volume(out, args.out)
    return EXIT_OK


def cmd_place(args):
    target = read_volume(args.target, "label")
    brain = read_volume(args.brain_mask, "label")
    mask = BinaryMask(brain.geometry, brain.voxels != 0)
    candidate = read_volume(args.candidate, "label")
    placed, origin = place_label(target, mask, candidate, args.seed, args.max_attempts)
    write_volume(placed, args.out)
    print(f"placed at origin {origin[0]} {origin[1]} {origin[2]}")
    return EXIT_OK


def _phantom_spec_from_json(doc):
    lesions = tuple(
        Lesion(tuple(l["center"]), tuple(l["radii"]),
               tuple((int(lab), float(sc)) for lab, sc in l.get("shells",
                     [[2, 1.0], [1, 0.6], [3, 0.3]])))
        for l in doc["lesions"]
    )
    p = doc.get("perturbation", {})
    pert = Perturbation(
        kind=p.get("kind", "none"),
        shift=tuple(p.get("shift", (0, 0, 0))),
        iterations=int(p.get("iterations", 1)),
        fp_center=tuple(p.get("fp_center", (0, 0, 0))),
        fp_radius=float(p.get("fp_radius", 1.0)),
        fp_label=int(p.get("fp_label", 3)),
        drop_index=int(p.get("drop_index", 0)),
    )
    return PhantomSpec(tuple(doc["dims"]), lesions, pert,
                       tuple(doc.get("spacing", (1.0, 1.0, 1.0))),
                       int(doc.get("seed", 0)))


def cmd_phantom(args):
    with open(args.spec) as fh:
        doc = json.load(fh)
    spec = _phantom_spec_from_json(doc)
    gt, pred = generate_phantom(spec)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_volume(gt, out_dir / "gt.nii")
    write_volume(pred, out_dir / "pred.nii")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="bratskit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="score a prediction directory against ground truth")
    p.add_argument("--gt-dir", required=True)
    p.add_argument("--pred-dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=["legacy", "lesionwise"], default="lesionwise")
    p.add_argument("--dilation-iterations", type=int, default=3)
    p.add_argument("--connectivity", choices=["6", "26"], default="26")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("rank", help="rank-then-aggregate over solution metric CSVs")
    p.add_argument("--inputs", nargs="*", default=[])
    p.add_argument("--manifest", help="CSV of solution_id,path rows")
    p.add_argument("--out", required=True)
    p.add_argument("--normalization", choices=["minus_one", "rank_over_p"],
                   default="minus_one")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("fuse", help="fuse model outputs")
    p.add_argument("--method", choices=["mean", "staple"], required=True)
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--prob-out", help="also write the averaged probability map")
    p.add_argument("--max-iters", type=int, default=100)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("postprocess", help="suppress small lesions per region")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--wt", type=int, default=0)
    p.add_argument("--tc", type=int, default=0)
    p.add_argument("--et", type=int, default=0)
    p.add_argument("--scope", choices=[s.value for s in ThresholdScope],
                   default=ThresholdScope.PerComponent.value)
    p.add_argument("--connectivity", choices=["6", "26"], default="26")
    p.add_argument("--legacy-et-threshold", type=int)
    p.set_defaults(func=cmd_postprocess)

    p = sub.add_parser("corrupt", help="build the noisy generator input for a crop")
    p.add_argument("--image", required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("place", help="place a tumour label crop into healthy brain")
    p.add_argument("--target", required=True)
    p.add_argument("--brain-mask", required=True)
    p.add_argument("--candidate", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-attempts", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_place)

    p = sub.add_parser("phantom", help="generate a synthetic gt/pred pair")
    p.add_argument("--spec", required=True, help="JSON file mirroring PhantomSpec")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_phantom)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BratskitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
