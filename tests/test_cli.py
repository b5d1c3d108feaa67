import csv
import json
from pathlib import Path

import numpy as np
import pytest

from bratskit.cli import main
from bratskit.fusion import StapleParams, staple_fusion
from bratskit.nifti import read_volume, write_volume
from bratskit.phantom import Lesion, Perturbation, PhantomSpec, generate_phantom
from bratskit.volume import Geometry, LabelVolume, RegionProbVolume, ScalarVolume

from conftest import labels_from_array


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
        rows = list(csv.DictReader(out.open()))
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

    def test_geometry_mismatch_skipped(self, tmp_path):
        write_corpus(tmp_path / "gt", tmp_path / "pred", n_cases=2)
        bad = LabelVolume(Geometry((8, 8, 8)), np.zeros((8, 8, 8), np.uint8))
        write_volume(bad, tmp_path / "pred" / "case000.nii")
        out = tmp_path / "m.csv"
        code = main(["evaluate", "--gt-dir", str(tmp_path / "gt"),
                     "--pred-dir", str(tmp_path / "pred"), "--out", str(out)])
        assert code == 1
        rows = list(csv.DictReader(out.open()))
        assert not any(r["case_id"] == "case000" for r in rows)

    def test_missing_dir_config_error(self, tmp_path):
        code = main(["evaluate", "--gt-dir", str(tmp_path / "nope"),
                     "--pred-dir", str(tmp_path / "nope2"),
                     "--out", str(tmp_path / "m.csv")])
        assert code == 2


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
        write_volume(staple_fusion(inputs, StapleParams(max_iters=1)), expected)
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
