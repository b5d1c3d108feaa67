import argparse
import csv
import dataclasses
import errno
import filecmp
import inspect
import json
import os
import platform
import re
import shlex
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bratskit.cli
import bratskit.phantom
from bratskit.cli import build_parser, main
from bratskit.fusion import staple_fusion
from bratskit.nifti import VOX_OFFSET, read_volume, write_volume
from bratskit.phantom import (
    Lesion,
    Perturbation,
    PhantomSpec,
    generate_phantom,
    random_phantom_spec,
)
from bratskit.regions import REGIONS, extract_region
from bratskit.volume import Geometry, LabelVolume, RegionProbVolume, ScalarVolume

from conftest import labels_from_array, on_cores


def write_corpus(gt_dir, pred_dir, n_cases=4, perturb=True):
    gt_dir.mkdir(parents=True, exist_ok=True)
    pred_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(99)
    for i in range(n_cases):
        pert = (Perturbation(kind="shift", shift=(1, 0, 0)) if perturb and i % 2
                else Perturbation())
        spec = PhantomSpec((20, 20, 20), (Lesion((10, 10, 10), (4, 3, 3)),), pert)
        gt, pred = generate_phantom(spec)
        write_volume(gt, gt_dir / f"case{i:03d}.nii")
        write_volume(pred, pred_dir / f"case{i:03d}.nii")


class TestEvaluate:
    def test_perfect_when_pred_is_gt(self, tmp_path):
        write_corpus(tmp_path / "gt", tmp_path / "gt2", perturb=False)
        # evaluate gt against itself via two identical directories
        write_corpus(tmp_path / "same_gt", tmp_path / "same_pred", perturb=False)
        out = tmp_path / "m.csv"
        code = main(["evaluate", "--gt-dir", str(tmp_path / "same_gt"),
                     "--pred-dir", str(tmp_path / "same_pred"),
                     "--out", str(out), "--mode", "legacy"])
        assert code == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        case_rows = [r for r in rows if r["case_id"] != "__mean__"]
        assert all(float(r["dsc"]) == 1.0 for r in case_rows)
        assert all(float(r["hd95"]) == 0.0 for r in case_rows)
        mean_rows = [r for r in rows if r["case_id"] == "__mean__"]
        assert len(mean_rows) == 3

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        write_corpus(tmp_path / "gt", tmp_path / "pred")
        out1 = tmp_path / "w1.csv"
        out2 = tmp_path / "w2.csv"
        assert main(["evaluate", "--gt-dir", str(tmp_path / "gt"),
                     "--pred-dir", str(tmp_path / "pred"),
                     "--out", str(out1), "--mode", "lesionwise", "--workers", "1"]) == 0
        assert main(["evaluate", "--gt-dir", str(tmp_path / "gt"),
                     "--pred-dir", str(tmp_path / "pred"),
                     "--out", str(out2), "--mode", "lesionwise", "--workers", "4"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_unpaired_case_reported(self, tmp_path):
        write_corpus(tmp_path / "gt", tmp_path / "pred", n_cases=3)
        (tmp_path / "gt" / "case009.nii").write_bytes(
            (tmp_path / "gt" / "case000.nii").read_bytes())
        out = tmp_path / "m.csv"
        code = main(["evaluate", "--gt-dir", str(tmp_path / "gt"),
                     "--pred-dir", str(tmp_path / "pred"), "--out", str(out)])
        assert code == 1
        report = out.with_suffix(".skipped.txt").read_text()
        assert "case009" in report and "unpaired" in report

    def test_clean_rerun_removes_the_old_report(self, tmp_path):
        write_corpus(tmp_path / "gt", tmp_path / "pred", n_cases=2)
        extra = tmp_path / "pred" / "extra.nii"
        extra.write_bytes((tmp_path / "pred" / "case000.nii").read_bytes())
        out = tmp_path / "m.csv"
        argv = ["evaluate", "--gt-dir", str(tmp_path / "gt"),
                "--pred-dir", str(tmp_path / "pred"), "--out", str(out)]
        assert main(argv) == 1
        assert out.with_suffix(".skipped.txt").read_text() == "extra\tunpaired\n"
        extra.unlink()
        assert main(argv) == 0
        assert not out.with_suffix(".skipped.txt").exists()

    def test_geometry_mismatch_skipped(self, tmp_path):
        write_corpus(tmp_path / "gt", tmp_path / "pred", n_cases=2)
        bad = LabelVolume(Geometry((8, 8, 8)), np.zeros((8, 8, 8), np.uint8))
        write_volume(bad, tmp_path / "pred" / "case000.nii")
        out = tmp_path / "m.csv"
        code = main(["evaluate", "--gt-dir", str(tmp_path / "gt"),
                     "--pred-dir", str(tmp_path / "pred"), "--out", str(out)])
        assert code == 1
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert not any(r["case_id"] == "case000" for r in rows)

    def test_unreadable_case_skipped(self, tmp_path, monkeypatch):
        write_corpus(tmp_path / "gt", tmp_path / "pred", n_cases=3)
        real_read = bratskit.cli.read_volume

        def read_volume(path, kind):
            if Path(path).stem == "case001":
                raise PermissionError(f"[Errno 13] Permission denied: '{path}'")
            return real_read(path, kind)

        monkeypatch.setattr(bratskit.cli, "read_volume", read_volume)
        out = tmp_path / "m.csv"
        code = main(["evaluate", "--gt-dir", str(tmp_path / "gt"),
                     "--pred-dir", str(tmp_path / "pred"), "--out", str(out),
                     "--workers", "1"])
        assert code == 1
        with out.open() as fh:
            cases = {r["case_id"] for r in csv.DictReader(fh)}
        assert cases == {"case000", "case002", "__mean__"}
        report = out.with_suffix(".skipped.txt").read_text()
        assert report.startswith("case001\t") and "Permission denied" in report

    def test_stem_naming_two_files_skipped(self, tmp_path):
        # Keyed by stem, pred/case001 would silently replace pred/case001.nii.
        write_corpus(tmp_path / "gt", tmp_path / "pred", n_cases=3)
        (tmp_path / "pred" / "case001").write_bytes(
            (tmp_path / "pred" / "case000.nii").read_bytes())
        out = tmp_path / "m.csv"
        code = main(["evaluate", "--gt-dir", str(tmp_path / "gt"),
                     "--pred-dir", str(tmp_path / "pred"), "--out", str(out)])
        assert code == 1
        with out.open() as fh:
            cases = {r["case_id"] for r in csv.DictReader(fh)}
        assert cases == {"case000", "case002", "__mean__"}
        report = out.with_suffix(".skipped.txt").read_text().splitlines()
        assert len(report) == 1 and report[0].startswith("case001\t")
        assert str(tmp_path / "pred" / "case001") in report[0]
        assert str(tmp_path / "pred" / "case001.nii") in report[0]

    def test_negative_dilation_iterations_config_error(self, tmp_path, capsys):
        write_corpus(tmp_path / "gt", tmp_path / "pred", n_cases=1)
        out = tmp_path / "m.csv"
        code = main(["evaluate", "--gt-dir", str(tmp_path / "gt"),
                     "--pred-dir", str(tmp_path / "pred"), "--out", str(out),
                     "--dilation-iterations", "-1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("option", [["--dilation-iterations", "7"], ["--connectivity", "6"],
                                        ["--dilation-iterations", "3"], ["--connectivity", "26"]])
    def test_legacy_refuses_the_lesion_match_options(self, tmp_path, capsys, option):
        write_corpus(tmp_path / "gt", tmp_path / "pred", n_cases=1)
        out = tmp_path / "m.csv"
        code = main(["evaluate", "--gt-dir", str(tmp_path / "gt"),
                     "--pred-dir", str(tmp_path / "pred"), "--out", str(out),
                     "--mode", "legacy", *option])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert option[0] in err and "legacy" in err
        assert not out.exists() and not out.with_suffix(".skipped.txt").exists()

    def test_lesionwise_defaults_are_the_match_defaults(self, tmp_path):
        write_corpus(tmp_path / "gt", tmp_path / "pred")
        outputs = []
        for option in ([], ["--dilation-iterations", "3", "--connectivity", "26"]):
            out = tmp_path / f"m{len(outputs)}.csv"
            assert main(["evaluate", "--gt-dir", str(tmp_path / "gt"),
                         "--pred-dir", str(tmp_path / "pred"), "--out", str(out), *option]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_huge_dilation_count_scores_as_the_grid_fill(self, tmp_path):
        # On a 16^3 grid, 48 steps already fill the grid from any lesion.
        gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
        lesions = (Lesion((5, 5, 5), (2, 2, 2)), Lesion((11, 11, 11), (2, 2, 2)))
        pair = generate_phantom(PhantomSpec((16, 16, 16), lesions, Perturbation("shift", (1, 0, 0))))
        for directory, volume in zip((gt_dir, pred_dir), pair):
            directory.mkdir()
            write_volume(volume, directory / "case.nii")
        outputs = []
        for count in ("48", "100000000000000000000"):
            out = tmp_path / f"m{len(outputs)}.csv"
            assert main(["evaluate", "--gt-dir", str(gt_dir), "--pred-dir", str(pred_dir),
                         "--out", str(out), "--dilation-iterations", count]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_pool_is_no_larger_than_the_job_list(self, tmp_path, monkeypatch):
        # A real pool starts all its processes at the first submit; this one
        # records its size and chunk size and maps in this process.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, **options):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                sizes.append(chunksize)
                return map(fn, jobs)

        monkeypatch.setattr(bratskit.cli, "ProcessPoolExecutor", RecordingPool)
        write_corpus(tmp_path / "gt", tmp_path / "pred", n_cases=9)
        for workers in ("64", "2"):
            assert main(["evaluate", "--gt-dir", str(tmp_path / "gt"),
                         "--pred-dir", str(tmp_path / "pred"),
                         "--out", str(tmp_path / f"w{workers}.csv"), "--workers", workers]) == 0
        # (pool size, chunk size): about four chunks per worker
        assert sizes == [9, 1, 2, 2]
        assert (tmp_path / "w64.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_config_error(self, tmp_path, capsys, workers):
        write_corpus(tmp_path / "gt", tmp_path / "pred", n_cases=1)
        out = tmp_path / "m.csv"
        code = main(["evaluate", "--gt-dir", str(tmp_path / "gt"),
                     "--pred-dir", str(tmp_path / "pred"), "--out", str(out),
                     "--workers", workers])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "workers" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    # The --out named here would overwrite a case, or become one in the next run.
    @pytest.mark.parametrize("where", ["a-prediction", "pred-dir", "gt-dir", "symlink-to-pred",
                                       "missing-dir"])
    def test_refuses_an_out_before_any_work(self, tmp_path, capsys, monkeypatch, where):
        write_corpus(tmp_path / "gt", tmp_path / "pred", n_cases=2)
        out = {"a-prediction": tmp_path / "pred" / "case001.nii",
               "pred-dir": tmp_path / "pred" / "m.csv", "gt-dir": tmp_path / "gt" / "m.csv",
               "symlink-to-pred": tmp_path / "link.csv",
               "missing-dir": tmp_path / "nodir" / "m.csv"}[where]
        if where == "symlink-to-pred":
            out.symlink_to(tmp_path / "pred" / "case001.nii")
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        monkeypatch.setattr(bratskit.cli, "read_volume", None)  # a scored case would raise
        code = main(["evaluate", "--gt-dir", str(tmp_path / "gt"),
                     "--pred-dir", str(tmp_path / "pred"), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: --out {out}") and len(err.strip().splitlines()) == 1
        assert ("no directory" if where == "missing-dir" else "lies in --") in err
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    def test_missing_dir_config_error(self, tmp_path, capsys):
        code = main(["evaluate", "--gt-dir", str(tmp_path / "nope"),
                     "--pred-dir", str(tmp_path / "nope2"),
                     "--out", str(tmp_path / "m.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "m.csv").exists()


class TestRank:
    def test_end_to_end(self, tmp_path):
        write_corpus(tmp_path / "gt", tmp_path / "predA", perturb=False)
        write_corpus(tmp_path / "gt2", tmp_path / "predB", perturb=True)
        # score two solutions against one gt
        a_csv = tmp_path / "solA.csv"
        b_csv = tmp_path / "solB.csv"
        assert main(["evaluate", "--gt-dir", str(tmp_path / "gt"),
                     "--pred-dir", str(tmp_path / "predA"),
                     "--out", str(a_csv), "--mode", "legacy"]) == 0
        assert main(["evaluate", "--gt-dir", str(tmp_path / "gt"),
                     "--pred-dir", str(tmp_path / "predB"),
                     "--out", str(b_csv), "--mode", "legacy"]) == 0
        out = tmp_path / "rank.csv"
        assert main(["rank", "--inputs", str(a_csv), str(b_csv),
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("solution_id,")
        assert len(lines) == 3
        assert lines[1].startswith("solA")  # perfect predictions rank first

    @pytest.mark.parametrize("body", [
        "case_id,mode,region,dsc\nc0,legacy,WT,1.0\n",  # no hd95 column
        "case_id,mode,region,dsc,hd95\nc0,legacy,WT,high,0.0\n",  # non-numeric dsc
        "case_id,mode,region,dsc,hd95\nc0,legacy,WT\n",  # short row
        # A complete table whose WT row holds an impossible DSC or HD95.
        *("case_id,mode,region,dsc,hd95\nc0,legacy,ET,0.5,1.0\nc0,legacy,TC,0.5,1.0\n"
          f"c0,legacy,WT,{wt}\n"
          for wt in ("1.5,0.0", "-0.2,0.0", "inf,0.0", "nan,0.0", "0.5,-4.0", "0.5,inf", "0.5,nan")),
    ], ids=["no-hd95", "non-numeric-dsc", "short-row", "dsc-above-1", "negative-dsc", "inf-dsc",
            "nan-dsc", "negative-hd95", "inf-hd95", "nan-hd95"])
    def test_malformed_metrics_csv_config_error(self, tmp_path, capsys, body):
        src = tmp_path / "sol.csv"
        src.write_text(body)
        out = tmp_path / "rank.csv"
        code = main(["rank", "--inputs", str(src), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert "sol.csv line" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_no_inputs_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "rank.csv"
        code = main(["rank", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_mixed_modes_refused(self, tmp_path, capsys):
        write_corpus(tmp_path / "gt", tmp_path / "pred", n_cases=2)
        paths = []
        for mode in ("lesionwise", "legacy"):
            paths.append(str(tmp_path / f"{mode}.csv"))
            assert main(["evaluate", "--gt-dir", str(tmp_path / "gt"),
                         "--pred-dir", str(tmp_path / "pred"),
                         "--out", paths[-1], "--mode", mode]) == 0
        out = tmp_path / "rank.csv"
        code = main(["rank", "--inputs", *paths, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "legacy" in err and "lesionwise" in err
        assert not out.exists()

    def test_different_case_sets_refused(self, tmp_path, capsys):
        write_corpus(tmp_path / "gt", tmp_path / "pred", n_cases=3)
        paths = [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]
        assert main(["evaluate", "--gt-dir", str(tmp_path / "gt"), "--pred-dir",
                     str(tmp_path / "pred"), "--out", paths[0], "--mode", "legacy"]) == 0
        (tmp_path / "pred" / "case001.nii").unlink()
        assert main(["evaluate", "--gt-dir", str(tmp_path / "gt"), "--pred-dir",
                     str(tmp_path / "pred"), "--out", paths[1], "--mode", "legacy"]) == 1
        capsys.readouterr()
        out = tmp_path / "rank.csv"
        code = main(["rank", "--inputs", *paths, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == ("error: solution b covers a different case set than solution a: "
                       "missing ['case001'], extra []\n")
        assert not out.exists()

    @pytest.mark.parametrize("manifest,inputs", [
        ([], ["a/sol.csv", "b/sol.csv", "other.csv"]),
        ([("sol", "a/sol.csv"), ("sol", "b/sol.csv"), ("other", "other.csv")], []),
        ([("sol", "a/sol.csv"), ("other", "other.csv")], ["b/sol.csv"]),
    ], ids=["inputs", "manifest", "manifest-and-inputs"])
    def test_solution_id_given_twice_refused(self, tmp_path, capsys, manifest, inputs):
        # Keyed by id, the second path would silently replace the first.
        write_corpus(tmp_path / "gt", tmp_path / "pred", n_cases=2)
        for name in ("a/sol.csv", "b/sol.csv", "other.csv"):
            (tmp_path / name).parent.mkdir(exist_ok=True)
            assert main(["evaluate", "--gt-dir", str(tmp_path / "gt"),
                         "--pred-dir", str(tmp_path / "pred"),
                         "--out", str(tmp_path / name), "--mode", "legacy"]) == 0
        argv = ["rank", "--inputs", *(str(tmp_path / name) for name in inputs)]
        if manifest:
            (tmp_path / "manifest.csv").write_text(
                "".join(f"{sid},{tmp_path / name}\n" for sid, name in manifest))
            argv += ["--manifest", str(tmp_path / "manifest.csv")]
        out = tmp_path / "rank.csv"
        code = main([*argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "'sol'" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("alias", ["input", "dotted-input", "hardlink-to-input", "manifest",
                                       "missing-dir"])
    def test_refuses_an_out_before_any_work(self, tmp_path, capsys, monkeypatch, alias):
        write_corpus(tmp_path / "gt", tmp_path / "pred", n_cases=2)
        for name in ("a2.csv", "b.csv"):
            assert main(["evaluate", "--gt-dir", str(tmp_path / "gt"),
                         "--pred-dir", str(tmp_path / "pred"),
                         "--out", str(tmp_path / name), "--mode", "legacy"]) == 0
        (tmp_path / "manifest.csv").write_text(f"c,{tmp_path / 'b.csv'}\n")
        out = {"input": tmp_path / "a2.csv", "dotted-input": tmp_path / "." / "a2.csv",
               "hardlink-to-input": tmp_path / "hard.csv", "manifest": tmp_path / "manifest.csv",
               "missing-dir": tmp_path / "nodir" / "r.csv"}[alias]
        if alias == "hardlink-to-input":
            os.link(tmp_path / "a2.csv", out)
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        monkeypatch.setattr(bratskit.cli, "build_table", None)  # a read would raise
        code = main(["rank", "--inputs", str(tmp_path / "a2.csv"),
                     "--manifest", str(tmp_path / "manifest.csv"), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: --out {out}") and len(err.strip().splitlines()) == 1
        assert ("no directory" if alias == "missing-dir" else " names ") in err
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("manifest", ["solA\n", "\n"], ids=["one-column", "blank"])
    def test_short_manifest_row_config_error(self, tmp_path, capsys, manifest):
        path = tmp_path / "manifest.csv"
        path.write_text(manifest)
        out = tmp_path / "rank.csv"
        code = main(["rank", "--manifest", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()


class TestFuse:
    @staticmethod
    def write_labels(tmp_path, volumes):
        paths = []
        for i, vol in enumerate(volumes):
            p = tmp_path / f"l{i}.nii"
            write_volume(vol, p)
            paths.append(str(p))
        return paths

    def test_mean(self, tmp_path):
        g = Geometry((6, 6, 6))
        rng = np.random.default_rng(3)
        paths = []
        for i in range(3):
            pv = RegionProbVolume(g, rng.random((3, 6, 6, 6)).astype(np.float32))
            p = tmp_path / f"prob{i}.nii"
            write_volume(pv, p)
            paths.append(str(p))
        out = tmp_path / "fused.nii"
        prob_out = tmp_path / "fused_prob.nii"
        assert main(["fuse", "--method", "mean", "--inputs", *paths,
                     "--out", str(out), "--prob-out", str(prob_out)]) == 0
        labels = read_volume(out, "label")
        probs = read_volume(prob_out, "region_prob")
        assert labels.geometry.dims == (6, 6, 6)
        assert probs.channels.shape == (3, 6, 6, 6)

    def test_mean_holds_one_input_map_at_a_time(self, tmp_path):
        g = Geometry((64, 64, 64))
        rng = np.random.default_rng(9)
        paths = []
        for i in range(5):
            p = tmp_path / f"prob{i}.nii"
            write_volume(RegionProbVolume(g, rng.random((3, *g.dims), np.float32)), p)
            paths.append(str(p))
        payload_bytes = 3 * 4 * 64 ** 3
        tracemalloc.start()
        try:
            code = main(["fuse", "--method", "mean", "--inputs", *paths,
                         "--out", str(tmp_path / "fused.nii"),
                         "--prob-out", str(tmp_path / "fused_prob.nii")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        # One map, the float64 accumulator and the float32 result; the five
        # maps read into a list need about 8x.
        assert peak < 4 * payload_bytes

    @staticmethod
    def write_probs(tmp_path, n, dims=(6, 5, 4), seed=3):
        rng = np.random.default_rng(seed)
        paths = []
        for i in range(n):
            p = tmp_path / f"prob{i}.nii"
            write_volume(RegionProbVolume(Geometry(dims), rng.random((3, *dims), np.float32)), p)
            paths.append(str(p))
        return paths

    def test_mean_peak_does_not_grow_with_the_map_count(self, tmp_path):
        # One input channel, the float64 channel accumulator and the float32
        # result: about 2x one map's payload, whatever the number of maps.
        paths = self.write_probs(tmp_path, 5, (64, 64, 64), seed=9)
        payload_bytes = 3 * 4 * 64 ** 3
        peaks = []
        for n in (2, 5):
            tracemalloc.start()
            try:
                code = main(["fuse", "--method", "mean", "--inputs", *paths[:n],
                             "--out", str(tmp_path / "fused.nii"),
                             "--prob-out", str(tmp_path / "fused_prob.nii")])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
        assert max(peaks) < 2.5 * payload_bytes
        assert abs(peaks[1] - peaks[0]) < 0.1 * payload_bytes

    @pytest.mark.parametrize("method, option", [("staple", ["--prob-out", "p.nii"]),
                                                ("mean", ["--max-iters", "0"]),
                                                ("mean", ["--max-iters", "100"])])
    def test_refuses_an_option_its_method_ignores(self, tmp_path, capsys, method, option):
        if method == "mean":
            paths = self.write_probs(tmp_path, 2)
        else:
            paths = self.write_labels(tmp_path, [labels_from_array(np.ones((4, 4, 4), np.uint8))] * 2)
        option = [str(tmp_path / v) if v.endswith(".nii") else v for v in option]
        out = tmp_path / "fused.nii"
        code = main(["fuse", "--method", method, "--inputs", *paths, "--out", str(out), *option])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert option[0] in err and method in err
        assert not out.exists() and not (tmp_path / "p.nii").exists()

    @staticmethod
    def _truncate_last_channel(path):
        path.write_bytes(path.read_bytes()[:-4])

    @staticmethod
    def _nan_in_last_channel(path):
        raw = bytearray(path.read_bytes())
        raw[-4:] = np.float32(np.nan).tobytes()
        path.write_bytes(bytes(raw))

    @staticmethod
    def _uint8(path):
        write_volume(labels_from_array(np.ones((6, 5, 4), np.uint8)), path)

    @staticmethod
    def _three_d(path):
        write_volume(ScalarVolume(Geometry((6, 5, 4)), np.full((6, 5, 4), 0.5, np.float32)), path)

    @staticmethod
    def _other_grid(path):
        rng = np.random.default_rng(1)
        write_volume(RegionProbVolume(Geometry((6, 5, 5)), rng.random((3, 6, 5, 5), np.float32)),
                     path)

    @pytest.mark.parametrize("damage", ["_truncate_last_channel", "_nan_in_last_channel",
                                        "_uint8", "_three_d", "_other_grid"])
    def test_mean_refuses_a_bad_last_map(self, tmp_path, capsys, damage):
        paths = self.write_probs(tmp_path, 3)
        getattr(self, damage)(Path(paths[-1]))
        out, prob_out = tmp_path / "fused.nii", tmp_path / "fused_prob.nii"
        code = main(["fuse", "--method", "mean", "--inputs", *paths,
                     "--out", str(out), "--prob-out", str(prob_out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert not out.exists() and not prob_out.exists()

    # The map is written slab by slab while later slabs of the inputs are read.
    @pytest.mark.parametrize("alias", ["same", "dotted", "symlink", "hardlink"])
    def test_mean_refuses_a_prob_out_that_names_an_input(self, tmp_path, capsys, monkeypatch,
                                                          alias):
        paths = self.write_probs(tmp_path, 3)
        named = Path(paths[1])
        prob_out = {"same": named, "dotted": tmp_path / "." / named.name,
                    "symlink": tmp_path / "sym.nii", "hardlink": tmp_path / "hard.nii"}[alias]
        if alias == "symlink":
            prob_out.symlink_to(named)
        elif alias == "hardlink":
            os.link(named, prob_out)
        before = named.read_bytes()
        monkeypatch.setattr(bratskit.cli, "open_region_prob", None)  # a read would raise
        out = tmp_path / "fused.nii"
        code = main(["fuse", "--method", "mean", "--inputs", *paths,
                     "--out", str(out), "--prob-out", str(prob_out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: --prob-out") and len(err.strip().splitlines()) == 1
        assert f"names an input {named}" in err
        assert named.read_bytes() == before and not out.exists()

    # How --prob-out names the --out file, and whether that file exists.
    @pytest.mark.parametrize("alias, exists", [("same", False), ("same", True),
                                               ("dotted", False), ("symlink", False),
                                               ("symlink", True), ("hardlink", True)])
    def test_mean_refuses_a_prob_out_that_names_the_out_file(self, tmp_path, capsys,
                                                              alias, exists):
        paths = self.write_probs(tmp_path, 3)
        out = tmp_path / "fused.nii"
        if exists:
            out.write_bytes(b"kept")
        prob_out = {"same": out, "dotted": tmp_path / "." / "fused.nii",
                    "symlink": tmp_path / "sym.nii", "hardlink": tmp_path / "hard.nii"}[alias]
        if alias == "symlink":
            prob_out.symlink_to(out)
        elif alias == "hardlink":
            os.link(out, prob_out)
        code = main(["fuse", "--method", "mean", "--inputs", *paths,
                     "--out", str(out), "--prob-out", str(prob_out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "--prob-out" in err and "--out" in err
        assert out.read_bytes() == b"kept" if exists else not out.exists()

    def test_mean_refuses_the_out_file_before_reading_a_map(self, tmp_path, capsys, monkeypatch):
        paths = self.write_probs(tmp_path, 2)
        monkeypatch.setattr(bratskit.cli, "open_region_prob", None)  # a read would raise
        out = str(tmp_path / "fused.nii")
        assert main(["fuse", "--method", "mean", "--inputs", *paths,
                     "--out", out, "--prob-out", out]) == 2
        assert capsys.readouterr().err.startswith("error: --prob-out")

    def test_staple(self, tmp_path):
        rng = np.random.default_rng(4)
        vox = rng.integers(0, 4, (6, 6, 6)).astype(np.uint8)
        a = labels_from_array(vox)
        b = labels_from_array(np.zeros((6, 6, 6), np.uint8))
        paths = self.write_labels(tmp_path, [a, a, b])
        out = tmp_path / "staple.nii"
        assert main(["fuse", "--method", "staple", "--inputs", *paths,
                     "--out", str(out)]) == 0
        assert read_volume(out, "label") == a

    def test_staple_rejects_more_than_16_inputs(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        paths = self.write_labels(tmp_path, [
            labels_from_array(rng.integers(0, 4, (4, 4, 4)).astype(np.uint8))
            for _ in range(17)])
        code = main(["fuse", "--method", "staple", "--inputs", *paths,
                     "--out", str(tmp_path / "staple.nii")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "16" in err
        assert "Traceback" not in err
        assert not (tmp_path / "staple.nii").exists()

    def test_staple_rejects_one_input(self, tmp_path, capsys):
        vox = np.zeros((4, 4, 4), np.uint8)
        vox[1:3, 1:3, 1:3] = 2
        paths = self.write_labels(tmp_path, [labels_from_array(vox)])
        code = main(["fuse", "--method", "staple", "--inputs", *paths,
                     "--out", str(tmp_path / "staple.nii")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: STAPLE needs 2 to 16 raters, got 1"]
        assert not (tmp_path / "staple.nii").exists()

    def test_staple_warns_when_not_converged(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        vox = rng.integers(0, 4, (6, 6, 6)).astype(np.uint8)
        inputs = [labels_from_array(vox), labels_from_array(vox),
                  labels_from_array(np.roll(vox, 1, axis=0))]
        paths = self.write_labels(tmp_path, inputs)
        out = tmp_path / "staple.nii"
        assert main(["fuse", "--method", "staple", "--inputs", *paths,
                     "--out", str(out), "--max-iters", "1"]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"warning: STAPLE for {r} stopped after 1 iterations without converging"
                         for r in ("WT", "TC", "ET")]
        expected = tmp_path / "expected.nii"
        write_volume(staple_fusion(inputs, max_iters=1), expected)
        assert out.read_bytes() == expected.read_bytes()

        assert main(["fuse", "--method", "staple", "--inputs", *paths,
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""

    def test_staple_rejects_zero_max_iters(self, tmp_path, capsys):
        vox = np.zeros((4, 4, 4), np.uint8)
        vox[1:3, 1:3, 1:3] = 2
        paths = self.write_labels(tmp_path, [labels_from_array(vox)] * 2)
        code = main(["fuse", "--method", "staple", "--inputs", *paths,
                     "--out", str(tmp_path / "staple.nii"), "--max-iters", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    def test_mean_rejects_nan_map(self, tmp_path, capsys):
        g = Geometry((4, 4, 4))
        rng = np.random.default_rng(8)
        paths = []
        for i in range(2):
            p = tmp_path / f"prob{i}.nii"
            write_volume(RegionProbVolume(g, rng.random((3, 4, 4, 4)).astype(np.float32)), p)
            paths.append(str(p))
        raw = bytearray(Path(paths[1]).read_bytes())
        raw[352:356] = np.float32(np.nan).tobytes()
        Path(paths[1]).write_bytes(bytes(raw))
        out = tmp_path / "fused.nii"
        code = main(["fuse", "--method", "mean", "--inputs", *paths, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()


class TestPostprocessCommand:
    def test_thresholds_and_legacy_rule(self, tmp_path):
        vox = np.zeros((20, 20, 20), np.uint8)
        vox[2:4, 2:4, 2:4] = 3  # 8 ET voxels, tiny lesion
        src = tmp_path / "in.nii"
        write_volume(labels_from_array(vox), src)
        out = tmp_path / "out.nii"
        assert main(["postprocess", "--input", str(src), "--out", str(out),
                     "--wt", "0", "--tc", "0", "--et", "100"]) == 0
        result = read_volume(out, "label")
        assert not (result.voxels == 3).any()
        assert (result.voxels[2:4, 2:4, 2:4] == 1).all()


    @pytest.mark.parametrize("n_et, flipped", [(199, True), (200, False)])
    def test_legacy_et_threshold(self, tmp_path, n_et, flipped):
        vox = np.zeros((20, 20, 20), np.uint8)
        vox.reshape(-1)[:n_et] = 3
        src = tmp_path / "in.nii"
        write_volume(labels_from_array(vox), src)
        out = tmp_path / "out.nii"
        assert main(["postprocess", "--input", str(src), "--out", str(out),
                     "--legacy-et-threshold", "200"]) == 0
        if flipped:
            result = read_volume(out, "label")
            assert not (result.voxels == 3).any()
            assert int((result.voxels == 1).sum()) == n_et
        else:
            assert out.read_bytes() == src.read_bytes()

    @pytest.mark.parametrize("connectivity", ["6", "26"])
    def test_whole_region_refuses_a_connectivity(self, tmp_path, capsys, connectivity):
        src = tmp_path / "in.nii"
        write_volume(labels_from_array(np.full((4, 4, 4), 3, np.uint8)), src)
        out = tmp_path / "out.nii"
        code = main(["postprocess", "--input", str(src), "--out", str(out), "--et", "100",
                     "--scope", "whole_region", "--connectivity", connectivity])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "--connectivity" in err and "whole_region" in err
        assert not out.exists()

    def test_per_component_connectivity_defaults_to_26(self, tmp_path):
        vox = np.zeros((8, 8, 8), np.uint8)
        vox[2, 2, 2] = vox[3, 3, 3] = 3  # one 26-connected lesion, two 6-connected ones
        src = tmp_path / "in.nii"
        write_volume(labels_from_array(vox), src)
        outputs = []
        for option in ([], ["--connectivity", "26"], ["--connectivity", "6"]):
            out = tmp_path / f"out{len(outputs)}.nii"
            assert main(["postprocess", "--input", str(src), "--out", str(out),
                         "--et", "2", *option]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == src.read_bytes() != outputs[2]

    @pytest.mark.parametrize("flag", ["--wt", "--tc", "--et", "--legacy-et-threshold"])
    def test_negative_threshold_config_error(self, tmp_path, capsys, flag):
        src = tmp_path / "in.nii"
        write_volume(labels_from_array(np.zeros((4, 4, 4), np.uint8)), src)
        out = tmp_path / "out.nii"
        code = main(["postprocess", "--input", str(src), "--out", str(out), flag, "-1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()


class TestSynthCommands:
    def test_corrupt_deterministic(self, tmp_path):
        rng = np.random.default_rng(5)
        img = ScalarVolume(Geometry((96, 96, 96)),
                           rng.standard_normal((96, 96, 96)).astype(np.float32))
        vox = np.zeros((96, 96, 96), np.uint8)
        vox[40:60, 40:60, 40:60] = 1
        write_volume(img, tmp_path / "img.nii")
        write_volume(labels_from_array(vox), tmp_path / "lab.nii")
        out1 = tmp_path / "c1.nii"
        out2 = tmp_path / "c2.nii"
        for out in (out1, out2):
            assert main(["corrupt", "--image", str(tmp_path / "img.nii"),
                         "--label", str(tmp_path / "lab.nii"),
                         "--seed", "42", "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_place(self, tmp_path):
        target = labels_from_array(np.zeros((16, 16, 16)))
        brain = labels_from_array(np.ones((16, 16, 16)))
        cand = np.zeros((3, 3, 3), np.uint8)
        cand[1, 1, 1] = 3
        write_volume(target, tmp_path / "t.nii")
        write_volume(brain, tmp_path / "b.nii")
        write_volume(labels_from_array(cand), tmp_path / "c.nii")
        out = tmp_path / "placed.nii"
        assert main(["place", "--target", str(tmp_path / "t.nii"),
                     "--brain-mask", str(tmp_path / "b.nii"),
                     "--candidate", str(tmp_path / "c.nii"),
                     "--seed", "1", "--out", str(out)]) == 0
        placed = read_volume(out, "label")
        assert int((placed.voxels != 0).sum()) == 1

    def test_place_refuses_candidate_of_other_spacing(self, tmp_path, capsys):
        write_volume(labels_from_array(np.zeros((16, 16, 16))), tmp_path / "t.nii")
        write_volume(labels_from_array(np.ones((16, 16, 16))), tmp_path / "b.nii")
        write_volume(labels_from_array(np.full((3, 3, 3), 3), spacing=(3.0, 3.0, 3.0)),
                     tmp_path / "c.nii")
        out = tmp_path / "placed.nii"
        code = main(["place", "--target", str(tmp_path / "t.nii"),
                     "--brain-mask", str(tmp_path / "b.nii"),
                     "--candidate", str(tmp_path / "c.nii"),
                     "--seed", "1", "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:") and "spacing" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["corrupt", "place"])
    def test_negative_seed_config_error(self, tmp_path, capsys, command):
        rng = np.random.default_rng(5)
        write_volume(ScalarVolume(Geometry((96, 96, 96)),
                                  rng.standard_normal((96, 96, 96)).astype(np.float32)),
                     tmp_path / "img.nii")
        vox = np.zeros((96, 96, 96), np.uint8)
        vox[40:60, 40:60, 40:60] = 1
        write_volume(labels_from_array(vox), tmp_path / "lab.nii")
        write_volume(labels_from_array(np.ones((96, 96, 96))), tmp_path / "brain.nii")
        write_volume(labels_from_array(np.full((3, 3, 3), 3)), tmp_path / "cand.nii")
        out = tmp_path / "out.nii"
        inputs = {"corrupt": ["--image", "img.nii", "--label", "lab.nii"],
                  "place": ["--target", "lab.nii", "--brain-mask", "brain.nii",
                            "--candidate", "cand.nii"]}[command]
        argv = [command, *(a if a.startswith("--") else str(tmp_path / a) for a in inputs),
                "--seed", "-1", "--out", str(out)]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_phantom_subcommand(self, tmp_path):
        doc = {
            "dims": [20, 20, 20],
            "lesions": [{"center": [10, 10, 10], "radii": [4, 4, 4]}],
            "perturbation": {"kind": "shift", "shift": [2, 0, 0]},
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        assert main(["phantom", "--spec", str(spec_path), "--out", str(out_dir)]) == 0
        gt = read_volume(out_dir / "gt.nii", "label")
        pred = read_volume(out_dir / "pred.nii", "label")
        assert gt.geometry == pred.geometry
        assert (gt.voxels != 0).any()
        assert not np.array_equal(gt.voxels, pred.voxels)

    def test_phantom_spec_seed_key_is_ignored(self, tmp_path):
        doc = {"dims": [16, 16, 16], "lesions": [{"center": [8, 8, 8], "radii": [3, 3, 3]}]}
        outputs = []
        for extra in ({}, {"seed": 7}):
            spec_path = tmp_path / "spec.json"
            spec_path.write_text(json.dumps({**doc, **extra}))
            out_dir = tmp_path / f"out{len(outputs)}"
            assert main(["phantom", "--spec", str(spec_path), "--out", str(out_dir)]) == 0
            outputs.append((out_dir / "gt.nii").read_bytes() + (out_dir / "pred.nii").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("text", [
        '{"dims": [16, 16, 16]}',  # no lesions
        '{"dims": [16, 16, 16], "lesions": [',  # not JSON
        '{"dims": [16, 16, 16], "lesions": [{"center": [8, 8, 8]}]}',  # lesion without radii
        '[1, 2, 3]',  # not an object
        '{"dims": [16, 16, 16], "lesions": [{"center": [8, 8, 8], "radii": [0, 3, 3]}]}',
        '{"dims": [16, 16, 16], "lesions": [{"center": [8, 8, 8], "radii": [-3, 3, 3]}]}',
        '{"dims": [16, 16, 16], "lesions": [{"center": [8, 8, 8], "radii": [NaN, 3, 3]}]}',
        '{"dims": [16, 16, 16], "lesions": [{"center": [8, 8, 8], "radii": [3, 3, 3],'
        ' "shells": [[2, 1.0], [3, 0.0]]}]}',
        '{"dims": [16, 16, 16], "lesions": [{"center": [8, 8, 8], "radii": [3, 3, 3]}],'
        ' "perturbation": {"kind": "erode", "iterations": 0}}',
        '{"dims": [16, 16, 16], "lesions": [{"center": [8, 8, 8], "radii": [3, 3, 3]}],'
        ' "perturbation": {"kind": "add_fp", "fp_center": [3, 3, 3], "fp_radius": 0}}',
        '{"dims": [16, 16, 16], "lesions": [{"center": [8, 8, 8], "radii": ["a", 3, 3]}]}',
        '{"dims": [16, 16, 16], "lesions": [{"center": ["x", 8, 8], "radii": [3, 3, 3]}]}',
        '{"dims": [16, "16", 16], "lesions": [{"center": [8, 8, 8], "radii": [3, 3, 3]}]}',
        '{"dims": [16, 16.5, 16], "lesions": [{"center": [8, 8, 8], "radii": [3, 3, 3]}]}',
        '{"dims": [16, 16, 16], "lesions": [{"center": [8, 8], "radii": [3, 3, 3]}]}',
        '{"dims": [16, 16, 16], "lesions": [{"center": [8, 8, 8], "radii": [3, 3, 3]}],'
        ' "spacing": ["a", 1, 1]}',
        '{"dims": [16, 16, 16], "lesions": [{"center": [8, 8, 8], "radii": [3, 3, 3],'
        ' "shells": [[2, "1.0"]]}]}',
        '{"dims": [16, 16, 16], "lesions": [{"center": [8, 8, 8], "radii": [3, 3, 3]}],'
        ' "perturbation": {"kind": "shift", "shift": [0.5, 0, 0]}}',
        '{"dims": [16, 16, 16], "lesions": [{"center": [8, 8, 8], "radii": [3, 3, 3]}],'
        ' "perturbation": {"kind": "erode", "iterations": "2"}}',
        '{"dims": [16, 16, 16], "lesions": [{"center": [8, 8, 8], "radii": [3, 3, 3]}],'
        ' "perturbation": {"kind": "add_fp", "fp_center": [3, 3, true], "fp_label": 3}}',
        '{"dims": [16, 16, 16], "lesions": [{"center": [8, 8, 8], "radii": [3, 3, 3]}],'
        ' "perturbation": {"kind": "add_fp", "fp_center": [3, 3, 3], "fp_label": 2.5}}',
        '{"dims": [16, 16, 16], "lesions": [{"center": [8, 8, 8], "radii": [3, 3, 3]}],'
        ' "perturbation": {"kind": "drop_lesion", "drop_index": Infinity}}',
        '{"dims": [16, 16, 16], "lesions": [{"center": [1' + '0' * 400 + ', 8, 8],'
        ' "radii": [3, 3, 3]}]}',
        '{"dims": [16, 16, 16], "lesions": [{"center": [8, 8, 8], "radii": [3, 3, 3]}],'
        ' "perturbation": 5}',
        '{"dims": [16, 16, 16], "lesions": [{"center": [8, 8, 8], "radii": [3, 3, 3],'
        ' "shells": [[256, 1.0]]}]}',
        '{"dims": [16, 16, 16], "lesions": [{"center": [8, 8, 8], "radii": [3, 3, 3],'
        ' "shells": [[2]]}]}',
        '{"dims": [40000, 4, 4], "lesions": [{"center": [8, 2, 2], "radii": [1, 1, 1]}]}',
        '{"dims": [1000000000000, 4, 4], "lesions": [{"center": [8, 2, 2], "radii": [1, 1, 1]}]}',
        '{"dims": [16, 16, 16], "lesions": [{"center": [8, 8, 8], "radii": [3, 3, 3]}],'
        ' "perturbation": {"kind": "bogus"}}',
    ], ids=["no-lesions", "not-json", "no-radii", "not-object", "zero-radius",
            "negative-radius", "nan-radius", "zero-shell-scale", "erode-0-iterations",
            "zero-fp-radius", "string-radius", "string-center", "string-dim",
            "fractional-dim", "short-center", "string-spacing", "string-shell-scale",
            "fractional-shift", "string-iterations", "bool-fp-center",
            "fractional-fp-label", "infinite-drop-index", "huge-center",
            "perturbation-not-object", "shell-label-256", "one-entry-shell",
            "dim-past-nifti-limit", "dim-past-memory", "unknown-kind"])
    def test_malformed_phantom_spec_config_error(self, tmp_path, capsys, text):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(text)
        out_dir = tmp_path / "out"
        code = main(["phantom", "--spec", str(spec_path), "--out", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert not out_dir.exists()

    def test_phantom_grid_too_large_to_allocate_config_error(self, tmp_path, capsys,
                                                            monkeypatch):
        def build_labels(dims, lesions):
            raise MemoryError(f"Unable to allocate array with shape {dims}")

        monkeypatch.setattr(bratskit.phantom, "_build_labels", build_labels)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"dims": [4000, 4000, 4000], '
                             '"lesions": [{"center": [8, 8, 8], "radii": [3, 3, 3]}]}')
        out_dir = tmp_path / "out"
        code = main(["phantom", "--spec", str(spec_path), "--out", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "(4000, 4000, 4000)" in err
        assert len(err.strip().splitlines()) == 1
        assert not out_dir.exists()

    def test_phantom_spec_json_round_trip_builds_same_volumes(self):
        rng = np.random.default_rng(2023)
        for _ in range(60):
            spec = random_phantom_spec(rng, max_dim=24, max_lesions=3)
            doc = json.loads(json.dumps(dataclasses.asdict(spec)))
            parsed = bratskit.cli._phantom_spec_from_json(doc)
            for built, expected in zip(generate_phantom(parsed), generate_phantom(spec)):
                assert built.geometry == expected.geometry
                assert built.voxels.tobytes() == expected.voxels.tobytes()


WRITING_COMMANDS = ["fuse-staple", "fuse-mean", "postprocess", "corrupt", "place", "phantom"]


def writing_command(tmp_path, command):
    """A function of an output directory that gives the argv of `command`, with
    its inputs written in `tmp_path`, and the names of the files it writes there."""
    rng = np.random.default_rng(11)
    vox = rng.integers(0, 4, (8, 8, 8)).astype(np.uint8)

    def put(name, volume):
        write_volume(volume, tmp_path / name)
        return str(tmp_path / name)

    if command == "phantom":
        spec = tmp_path / "spec.json"
        spec.write_text('{"dims": [16, 16, 16], '
                        '"lesions": [{"center": [8, 8, 8], "radii": [4, 3, 3]}]}')
        return lambda d: ["phantom", "--spec", str(spec), "--out", str(d)], ["gt.nii", "pred.nii"]
    if command == "fuse-staple":
        inputs = [put(f"l{i}.nii", labels_from_array(np.roll(vox, i, 0))) for i in range(3)]
        argv = ["fuse", "--method", "staple", "--inputs", *inputs]
    elif command == "fuse-mean":
        inputs = [put(f"p{i}.nii", RegionProbVolume(Geometry((8, 8, 8)),
                                                    rng.random((3, 8, 8, 8), np.float32)))
                  for i in range(3)]
        argv = ["fuse", "--method", "mean", "--inputs", *inputs, "--prob-out", "prob.nii"]
    elif command == "postprocess":
        argv = ["postprocess", "--input", put("in.nii", labels_from_array(vox)), "--et", "3"]
    elif command == "corrupt":
        crop = np.zeros((96, 96, 96), np.uint8)
        crop[40:60, 40:60, 40:60] = 1
        image = ScalarVolume(Geometry(crop.shape), rng.standard_normal(crop.shape, np.float32))
        argv = ["corrupt", "--image", put("img.nii", image),
                "--label", put("lab.nii", labels_from_array(crop)), "--seed", "3"]
    else:
        argv = ["place", "--target", put("t.nii", labels_from_array(np.zeros((16, 16, 16)))),
                "--brain-mask", put("b.nii", labels_from_array(np.ones((16, 16, 16)))),
                "--candidate", put("c.nii", labels_from_array(np.full((3, 3, 3), 3))),
                "--seed", "1"]
    argv += ["--out", "out.nii"]
    names = [a for a in argv if a in ("out.nii", "prob.nii")]
    return lambda d: [str(d / a) if a in names else a for a in argv], names


@pytest.mark.parametrize("command", WRITING_COMMANDS)
def test_a_rerun_rewrites_its_outputs_byte_for_byte(tmp_path, command):
    argv_for, names = writing_command(tmp_path, command)
    fresh, again = tmp_path / "fresh", tmp_path / "again"
    fresh.mkdir()
    again.mkdir()
    assert main(argv_for(fresh)) == 0
    for name in names:  # outputs longer than what the command writes
        (again / name).write_bytes((fresh / name).read_bytes() * 2)
    for _ in range(2):
        assert main(argv_for(again)) == 0
        for name in names:
            assert filecmp.cmp(fresh / name, again / name, shallow=False), name


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("command, name", [("postprocess", "out.nii"), ("fuse-mean", "prob.nii")])
def test_a_fifo_output_is_refused(tmp_path, capsys, command, name):
    # Outputs are written at offsets, which a pipe does not have.
    argv_for, names = writing_command(tmp_path, command)
    os.mkfifo(tmp_path / name)
    # With a reader open, the command's open of the pipe does not wait.
    reader = os.open(tmp_path / name, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(argv_for(tmp_path)) == 2
        assert os.read(reader, 1) == b""  # the writer closed without writing
    finally:
        os.close(reader)
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: [Errno {errno.ESPIPE}] {os.strerror(errno.ESPIPE)}: "
                   f"{str(tmp_path / name)!r}"]
    assert [n for n in names if (tmp_path / n).exists()] == [name]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("full", ["prob.nii", "out.nii"])
def test_a_full_disk_names_the_output(tmp_path, capsys, monkeypatch, full, threads):
    # The payload writes of one output fail; with two cores the map's fail on
    # a slab thread. The output this call created is removed.
    on_cores(monkeypatch, threads)
    argv_for, _ = writing_command(tmp_path, "fuse-mean")
    os_open, os_pwrite, opened = os.open, os.pwrite, {}

    def opening(path, *args):
        fd = os_open(path, *args)
        opened[fd] = os.path.basename(path)
        return fd

    def disk_full(fd, data, offset):
        if opened.get(fd) == full and offset >= VOX_OFFSET:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return os_pwrite(fd, data, offset)

    with monkeypatch.context() as patched:
        patched.setattr(os, "open", opening)
        patched.setattr(os, "pwrite", disk_full)
        assert main(argv_for(tmp_path)) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: "
                   f"{str(tmp_path / full)!r}"]
    assert not (tmp_path / full).exists()
    if full == "out.nii":  # the map was written before the labels
        assert read_volume(tmp_path / "prob.nii", "region_prob").geometry.dims == (8, 8, 8)
    else:
        assert not (tmp_path / "out.nii").exists()


@pytest.fixture(scope="module")
def heap_items(tmp_path_factory):
    """Each item sequence of the heap test, as argv lists over full-size inputs."""
    d = tmp_path_factory.mktemp("heap")
    full = (240, 240, 155)
    lesions = (Lesion((80, 90, 70), (20, 16, 14)), Lesion((160, 150, 90), (10, 12, 9)))
    pairs = [generate_phantom(PhantomSpec(full, lesions, pert)) for pert in (
        Perturbation(kind="shift", shift=(2, 0, 0)), Perturbation(kind="shift", shift=(0, -1, 0)),
        Perturbation(kind="erode", iterations=1))]
    labels, maps = [], []
    for r, (_, rater) in enumerate(pairs):
        labels.append(str(d / f"rater{r}.nii"))
        write_volume(rater, labels[-1])
        maps.append(str(d / f"rater{r}.prob.nii"))
        channels = np.stack([extract_region(rater, region).bits for region in REGIONS])
        write_volume(RegionProbVolume(Geometry(full), channels * np.float32(0.9)), maps[-1])
    for sub, volume in zip(("gt", "pred"), pairs[0]):
        (d / sub).mkdir()
        write_volume(volume, d / sub / "c.nii")
    crop, _ = generate_phantom(PhantomSpec((96,) * 3, (Lesion((48, 46, 50), (14, 12, 10)),)))
    write_volume(crop, d / "crop.nii")
    image = np.random.default_rng(5).normal(size=(96,) * 3).astype(np.float32) + crop.voxels
    write_volume(ScalarVolume(Geometry((96,) * 3), image), d / "image.nii")
    grids = np.ogrid[:240, :240, :155]
    brain = sum(((g - c) / r) ** 2 for g, c, r in zip(grids, (120, 120, 77), (112, 112, 76))) <= 1
    write_volume(LabelVolume(Geometry(full), brain.astype(np.uint8)), d / "brain.nii")
    out = str(d / "out")
    yield {
        "ensemble": [
            ["fuse", "--method", "staple", "--inputs", *labels, "--out", out + ".staple.nii"],
            ["fuse", "--method", "mean", "--inputs", *maps, "--out", out + ".mean.nii",
             "--prob-out", out + ".prob.nii"],
            ["postprocess", "--input", out + ".staple.nii", "--out", out + ".post.nii",
             "--wt", "250", "--tc", "150", "--et", "100"]],
        "synth": [
            ["corrupt", "--image", str(d / "image.nii"), "--label", str(d / "crop.nii"),
             "--seed", "7", "--out", out + ".noisy.nii"],
            ["place", "--target", labels[0], "--brain-mask", str(d / "brain.nii"),
             "--candidate", str(d / "crop.nii"), "--seed", "11", "--out", out + ".placed.nii"]],
        "evaluate": [
            ["evaluate", "--gt-dir", str(d / "gt"), "--pred-dir", str(d / "pred"),
             "--out", out + ".csv", "--mode", mode] for mode in ("lesionwise", "legacy")],
    }
    shutil.rmtree(d)  # about 0.4 GB of maps


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds")
@pytest.mark.parametrize("item", ["ensemble", "synth", "evaluate"])
def test_later_calls_reuse_the_heap(heap_items, item):
    # The first round of an item faults its buffers in. A process that gives
    # freed heap back to the kernel faults them in again on every later call
    # (hundreds to thousands of faults a call on these inputs); one that keeps
    # its heap finds them there. The interpreter runs on one core, so that
    # every cores.Tasks task runs inline: worker threads are new in each call,
    # and on two cores their arenas may still grow for a call or two.
    code = f"""
import contextlib, io, os, resource, bratskit.cli
os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
faults = []
for _ in range(4):
    for argv in {heap_items[item]!r}:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        with contextlib.redirect_stdout(io.StringIO()):
            assert bratskit.cli.main(argv) == 0, argv
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults)
"""
    src = str(Path(bratskit.cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    faults = json.loads(out.stdout)
    calls = len(faults) // 4
    assert max(faults[calls:]) < 200, f"faults per call, round by round: {faults}"


def test_a_usage_error_leaves_later_calls_correct(tmp_path, capsys):
    # main builds its parser once per process; every call parses afresh.
    _, pred = generate_phantom(random_phantom_spec(np.random.default_rng(3), 24))
    write_volume(pred, tmp_path / "pred.nii")
    argv = ["postprocess", "--input", str(tmp_path / "pred.nii"), "--wt", "5"]
    assert main([*argv, "--out", str(tmp_path / "a.nii"), "--connectivity", "6"]) == 0
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--out", str(tmp_path / "b.nii"), "--scope", "nowhere"])
    assert exit_.value.code == 2 and not (tmp_path / "b.nii").exists()
    assert "invalid choice: 'nowhere'" in capsys.readouterr().err
    # No option of an earlier call carries over: whole_region refuses a --connectivity.
    assert main([*argv, "--out", str(tmp_path / "b.nii"), "--scope", "whole_region"]) == 0
    assert main([*argv, "--out", str(tmp_path / "c.nii"), "--connectivity", "6"]) == 0
    assert (tmp_path / "a.nii").read_bytes() == (tmp_path / "c.nii").read_bytes()
    assert capsys.readouterr().err == ""
    assert build_parser() is not build_parser()


def test_main_runs_a_handler_rebound_on_the_module(tmp_path, monkeypatch):
    spec = tmp_path / "spec.json"
    spec.write_text("{}")
    assert main(["phantom", "--spec", str(spec), "--out", str(tmp_path)]) == 2  # parser built
    calls = []
    monkeypatch.setattr(bratskit.cli, "cmd_phantom", lambda args: calls.append(args.spec) or 0)
    assert main(["phantom", "--spec", str(spec), "--out", str(tmp_path)]) == 0
    assert calls == [str(spec)]


def test_no_handler_refuses_by_itself():
    # A refusal is a BratskitError that main prints as one error: line.
    handlers = [f for name, f in inspect.getmembers(bratskit.cli, inspect.isfunction)
                if name.startswith("cmd_")]
    assert len(handlers) == 7
    for handler in handlers:
        assert "EXIT_CONFIG" not in inspect.getsource(handler), handler.__name__
    assert inspect.getsource(main).count("except") == 1


def test_every_option_is_read_by_its_handler():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for name, sub in commands.choices.items():
        source = inspect.getsource(sub.get_default("func"))
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            assert re.search(rf"\bargs\.{action.dest}\b", source), \
                f"{name} {action.option_strings[0]} is never read by its handler"


def test_readme_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines
                if line.startswith("bratskit ")]
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)  # argparse exits on an unknown or missing option
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert {argv[0] for argv in commands} == set(sub.choices)
