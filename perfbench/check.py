"""Correctness checks made after each pass.

Every file the CLI writes is compared with the sha256 digest recorded in
`digests.json`. The leaderboard workload also checks its expected partial
success (exit code 1 plus a `.skipped.txt` report listing the truncated file
and the unpaired stem) and re-scores a fixed sample of cases with the
brute-force oracles of `tests/oracles.py`.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np

from bratskit.nifti import read_volume

REGION_LABELS = {"WT": (1, 2, 3), "TC": (1, 3), "ET": (3,)}
DILATION = 3  # evaluate's default --dilation-iterations, 26-connected
PENALTY = 374.0
TOLERANCE = 1e-6


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digest_ok(path, digests):
    path = Path(path)
    return path.is_file() and digests.get(path.name) == sha256(path)


def report_ok(path, stems):
    """The skipped report lists exactly the expected stems."""
    path = Path(path)
    if not path.is_file():
        return False
    listed = [line.split("\t", 1)[0] for line in path.read_text().splitlines() if line]
    return sorted(listed) == sorted(stems)


def account(expects, executed, codes, verdicts):
    """(attempted calls, failed calls, items whose calls all succeeded).

    expects[i] lists item i's expected exit codes, executed the item index of
    each execution, codes the exit codes it returned, and verdicts[i] whether
    each call of item i wrote correct outputs. A call fails when its exit code
    differs from the expected one (0, or 1 for the leaderboard's partial
    success) or when its outputs are wrong.
    """
    attempted = failed = ok_items = 0
    for index, call_codes in zip(executed, codes):
        bad = [code != want or not good
               for code, want, good in zip(call_codes, expects[index], verdicts[index])]
        attempted += len(bad)
        failed += sum(bad)
        ok_items += not any(bad)
    return attempted, failed, ok_items


def _dilate_cube(bits, radius):
    """Chebyshev-ball dilation with zero fill, by shifted ORs along each axis;
    equal to `radius` iterations of 26-connected dilation."""
    out = bits.copy()
    for axis in range(3):
        acc = out.copy()
        for k in range(1, min(radius, bits.shape[axis] - 1) + 1):
            lo = [slice(None)] * 3
            hi = [slice(None)] * 3
            lo[axis], hi[axis] = slice(0, -k), slice(k, None)
            acc[tuple(hi)] |= out[tuple(lo)]
            acc[tuple(lo)] |= out[tuple(hi)]
        out = acc
    return out


def lesionwise_oracle(gt, pred, oracles):
    """(dsc, hd95, matched, fp, fn) of one region from the brute-force oracles."""
    if not gt.any() and not pred.any():
        return 1.0, 0.0, 0, 0, 0
    # Crop to the joint box padded by the dilation radius; nothing outside it
    # can change components, matches or surfaces.
    nz = np.nonzero(gt | pred)
    box = tuple(slice(max(int(a.min()) - DILATION - 1, 0), int(a.max()) + DILATION + 2)
                for a in nz)
    gt, pred = gt[box], pred[box]
    gids, n_gt = oracles.flood_fill_components(gt, oracles.NEIGHBOURS_26)
    pids, n_pred = oracles.flood_fill_components(pred, oracles.NEIGHBOURS_26)
    hits = {}
    for g in range(1, n_gt + 1):
        ids, counts = np.unique(pids[_dilate_cube(gids == g, DILATION)], return_counts=True)
        for pid, n in zip(ids, counts):
            if pid:
                hits.setdefault(int(pid), {})[g] = int(n)
    assigned = {g: [] for g in range(1, n_gt + 1)}
    fp = 0
    for pid in range(1, n_pred + 1):
        if pid not in hits:
            fp += 1
            continue
        best = max(hits[pid].items(), key=lambda kv: (kv[1], -kv[0]))[0]
        assigned[best].append(pid)
    dscs, hds, fn = [], [], 0
    for g, pids_g in assigned.items():
        if not pids_g:
            fn += 1
            continue
        union = np.isin(pids, pids_g)
        dscs.append(oracles.brute_dice(gids == g, union))
        hds.append(oracles.brute_hd95(gids == g, union))
    matched = len(dscs)
    dscs += [0.0] * (fp + fn)
    hds += [PENALTY] * (fp + fn)
    if not dscs:
        return 1.0, 0.0, matched, fp, fn
    return float(np.mean(dscs)), float(np.mean(hds)), matched, fp, fn


def oracle_case_ok(gt_path, pred_path, csv_path, case_id, oracles):
    """The CSV rows of one case agree with the oracles to TOLERANCE."""
    gt = read_volume(gt_path, "label").voxels
    pred = read_volume(pred_path, "label").voxels
    with open(csv_path, newline="") as fh:
        rows = {row["region"]: row for row in csv.DictReader(fh) if row["case_id"] == case_id}
    for region, labels in REGION_LABELS.items():
        row = rows.get(region)
        if row is None:
            return False
        dsc, hd, matched, fp, fn = lesionwise_oracle(
            np.isin(gt, labels), np.isin(pred, labels), oracles)
        if (abs(float(row["dsc"]) - dsc) > TOLERANCE or abs(float(row["hd95"]) - hd) > TOLERANCE
                or (int(row["n_matched"]), int(row["n_fp"]), int(row["n_fn"])) != (matched, fp, fn)):
            return False
    return True
