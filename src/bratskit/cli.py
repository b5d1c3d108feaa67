"""Command-line entry point.

Subcommands: evaluate, rank, fuse, postprocess, corrupt, place, phantom.
All outputs are deterministic given the inputs, flags and master seed; the
evaluate worker pool gathers results in sorted case order so the CSV bytes do
not depend on the worker count.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import functools
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .errors import BratskitError, ValidationError
from .fusion import average_fusion, staple_fusion
from .metrics import (
    MatchParams,
    case_metrics_legacy,
    case_metrics_lesionwise,
    mean_rows,
    metrics_rows,
    write_metrics_csv,
)
from .nifti import open_region_prob, read_volume, write_volume
from .phantom import Lesion, Perturbation, PhantomSpec, generate_phantom
from .postprocess import ThresholdScope, ThresholdSpec, apply_thresholds
from .ranking import build_table, rank_solutions, write_ranking_csv
from .synthprep import build_corruption_field, corrupt_crop, place_label, tumour_geometry
from .volume import BinaryMask, integral

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2


def _case_stems(directory):
    """Each stem of the files in `directory` with the files it names, in sorted order."""
    stems = {}
    for p in sorted(Path(directory).iterdir()):
        if p.is_file():
            stems.setdefault(p.stem, []).append(p)
    return stems


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
    except (BratskitError, OSError) as exc:
        return case_id, [], str(exc)


def _refuse_given(options, context):
    """Refuse each option of `options` (dest: value, None when not given) that
    was given, as the command would ignore it: never drop one in silence."""
    for dest, value in options.items():
        if value is not None:
            raise ValidationError(f"--{dest.replace('_', '-')} does not apply to {context}")


def cmd_evaluate(args):
    match = {"dilation_iterations": args.dilation_iterations, "connectivity": args.connectivity}
    if args.mode == "legacy":
        _refuse_given(match, "--mode legacy")
    gt_dir = Path(args.gt_dir)
    pred_dir = Path(args.pred_dir)
    if not gt_dir.is_dir() or not pred_dir.is_dir():
        raise ValidationError("gt and pred directories must exist")
    gt_files = _case_stems(gt_dir)
    pred_files = _case_stems(pred_dir)
    # A stem that names two files in one directory does not say which one is the case.
    clashes = {cid: [p for files in (gt_files, pred_files) if len(files.get(cid, ())) > 1
                     for p in files[cid]] for cid in {*gt_files, *pred_files}}
    ambiguous = {cid: "stem names " + " and ".join(map(str, paths))
                 for cid, paths in clashes.items() if paths}
    paired = sorted((set(gt_files) & set(pred_files)) - set(ambiguous))
    unpaired = sorted((set(gt_files) ^ set(pred_files)) - set(ambiguous))
    params = MatchParams(**{dest: int(value) for dest, value in match.items() if value is not None})
    jobs = [(cid, gt_files[cid][0], pred_files[cid][0]) for cid in paired]

    # A pool starts all its processes at its first submit: no more than there are jobs.
    workers = min(integral(args.workers, "workers", 1), len(jobs))
    worker = functools.partial(_evaluate_case, mode=args.mode, params=params)
    if workers > 1:
        # About four chunks per worker: few round trips, and the last chunks
        # are short enough to even out the workers' loads.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(worker, jobs, chunksize=math.ceil(len(jobs) / (4 * workers))))
    else:
        results = [worker(job) for job in jobs]

    failed = {**ambiguous, **{cid: err for cid, _, err in results if err}}
    rows = [row for _, case_rows, err in results if not err for row in case_rows]
    write_metrics_csv(args.out, rows + mean_rows(rows, args.mode))

    report = Path(args.out).with_suffix(".skipped.txt")
    if not (unpaired or failed):
        report.unlink(missing_ok=True)  # a report from an earlier run would list its skips
        return EXIT_OK
    with open(report, "w") as fh:
        for cid in unpaired:
            fh.write(f"{cid}\tunpaired\n")
        for cid in sorted(failed):
            fh.write(f"{cid}\t{failed[cid]}\n")
    print(f"evaluate: {len(unpaired) + len(failed)} case(s) skipped, see {report}",
          file=sys.stderr)
    return EXIT_PARTIAL


def cmd_rank(args):
    entries = []
    if args.manifest:
        with open(args.manifest, newline="") as fh:
            for line, row in enumerate(csv.reader(fh), 1):
                if len(row) < 2:
                    raise ValidationError(f"{args.manifest} line {line}: expected "
                                          f"solution_id,path, got {row}")
                entries.append(row[:2])
    entries += [(Path(path).stem, path) for path in args.inputs]
    paths = {}
    for solution, path in entries:
        if solution in paths:
            raise ValidationError(f"solution id {solution!r} names both {paths[solution]} "
                                  f"and {path}")
        paths[solution] = path
    if not paths:
        raise ValidationError("no solution CSVs given")
    table = build_table(paths)
    result = rank_solutions(table, normalization=args.normalization)
    write_ranking_csv(args.out, table, result)
    return EXIT_OK


def _warn_unconverged(region, result):
    if not result.converged:
        print(f"warning: STAPLE for {region.value} stopped after {result.iterations_run} "
              "iterations without converging", file=sys.stderr)


def cmd_fuse(args):
    _refuse_given({"mean": {"max_iters": args.max_iters},
                   "staple": {"prob_out": args.prob_out}}[args.method], f"--method {args.method}")
    if args.method == "mean":
        # Every header is checked before any channel is read, and every channel
        # is read before anything is written, so an output may name an input.
        maps = [open_region_prob(p) for p in args.inputs]
        fused, labels = average_fusion(maps)
        write_volume(labels, args.out)
        if args.prob_out:
            write_volume(fused, args.prob_out)
    else:
        labels_in = [read_volume(p, "label") for p in args.inputs]
        iters = {} if args.max_iters is None else {"max_iters": args.max_iters}
        fused_labels = staple_fusion(labels_in, **iters, on_region=_warn_unconverged)
        write_volume(fused_labels, args.out)
    return EXIT_OK


def cmd_postprocess(args):
    if args.scope == ThresholdScope.WholeRegion.value:
        _refuse_given({"connectivity": args.connectivity}, "--scope whole_region")
    pred = read_volume(args.input, "label")
    spec = ThresholdSpec(args.wt, args.tc, args.et, args.scope)
    out = apply_thresholds(pred, spec, int(args.connectivity or 26))
    if args.legacy_et_threshold is not None:
        legacy = ThresholdSpec(et=args.legacy_et_threshold, scope=ThresholdScope.WholeRegion)
        out = apply_thresholds(out, legacy)
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


def _from_json(cls, doc):
    """`cls` built from the keys of a JSON object that name its fields."""
    return cls(**{f.name: doc[f.name] for f in dataclasses.fields(cls) if f.name in doc.keys()})


def _phantom_spec_from_json(doc):
    """A PhantomSpec from its JSON object: keys that name no field are ignored, a
    missing key takes the field's default; generate_phantom checks the values."""
    return _from_json(PhantomSpec, {
        **doc, "lesions": [_from_json(Lesion, l) for l in doc["lesions"]],
        "perturbation": _from_json(Perturbation, doc.get("perturbation", {}))})


def cmd_phantom(args):
    with open(args.spec) as fh:
        try:
            gt, pred = generate_phantom(_phantom_spec_from_json(json.load(fh)))
        # ValueError covers bad JSON, the rest a misshapen part or a count too large for C.
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"{args.spec}: not a phantom spec "
                                  f"({type(exc).__name__}: {exc})") from None
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
    p.add_argument("--dilation-iterations", type=int, help="lesion-wise only (default 3)")
    p.add_argument("--connectivity", choices=["6", "26"], help="lesion-wise only (default 26)")
    p.add_argument("--workers", type=int, default=1)
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
    p.add_argument("--max-iters", type=int, help="STAPLE's EM iteration cap (default 100)")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("postprocess", help="suppress small lesions per region")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--wt", type=int, default=0)
    p.add_argument("--tc", type=int, default=0)
    p.add_argument("--et", type=int, default=0)
    p.add_argument("--scope", choices=[s.value for s in ThresholdScope],
                   default=ThresholdScope.PerComponent.value)
    p.add_argument("--connectivity", choices=["6", "26"], help="per_component only (default 26)")
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


@functools.cache
def _steady_heap():
    """Fix glibc's mmap and trim thresholds at 32 MiB, once per process. Left
    to move, they let a process's first frees decide whether later commands
    reuse freed grid-sized buffers or fault them in again, 30% slower."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt:  # glibc
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 32 << 20)  # M_TRIM_THRESHOLD


def main(argv=None):
    _steady_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BratskitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
