"""The benchmark's traced pass wraps package functions by module and name
(`perfbench/spans.py`), and some of the wrappers read the result with a
counter. Each wrapped function must exist and each counter must read a real
result of its function, or only a traced benchmark run would notice that one
was deleted or renamed."""

import importlib
import importlib.util
import threading
from pathlib import Path

import numpy as np

import bratskit.cores
import bratskit.metrics
import bratskit.synthprep
from bratskit.fusion import average_fusion, staple_fusion
from bratskit.nifti import open_region_prob, write_volume
from bratskit.phantom import Lesion, Perturbation, PhantomSpec, generate_phantom
from bratskit.postprocess import ThresholdSpec
from bratskit.ranking import MetricTable
from bratskit.regions import REGIONS, Region, extract_region
from bratskit.volume import Geometry, LabelVolume, RegionProbVolume, ScalarVolume

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_is_a_package_function():
    spans = load_spans()
    layers = [(m, f) for m, f, _ in spans.PASS_LAYERS + spans.SETUP_LAYERS]
    assert layers
    missing = [f"bratskit.{m}.{f}" for m, f in layers
               if not callable(getattr(importlib.import_module(f"bratskit.{m}"), f, None))]
    assert missing == []


def _phantom():
    spec = PhantomSpec((16, 16, 16), (Lesion((5, 5, 5), (3, 3, 3)), Lesion((11, 11, 11), (2, 2, 2))),
                       Perturbation("add_fp", fp_center=(12, 3, 12), fp_radius=1.5, fp_label=2))
    return generate_phantom(spec)


def _gt_file(tmp_path):
    gt, _ = _phantom()
    path = tmp_path / "gt.nii"
    write_volume(gt, path)
    return path


def _table():
    rng = np.random.default_rng(0)
    solutions, cases = ["a", "b"], ["c1"]
    entries = {(s, c, r.value, m): float(rng.random())
               for s in solutions for c in cases for r in REGIONS for m in ("DSC", "HD95")}
    return MetricTable(solutions, cases, entries)


# (args, kwargs) of a small real call for each layer whose wrapper has a counter.
COUNTER_CALLS = {
    ("nifti", "read_volume"): lambda tmp_path: ((_gt_file(tmp_path), "label"), {}),
    ("nifti", "write_volume"): lambda tmp_path: ((_phantom()[0], tmp_path / "out.nii"), {}),
    ("fusion", "staple_binary"): lambda tmp_path: (
        ([extract_region(v, Region.WT) for v in _phantom() * 2],), {}),
    ("metrics", "case_metrics_lesionwise"): lambda tmp_path: (_phantom(), {}),
    ("postprocess", "apply_thresholds"): lambda tmp_path: ((_phantom()[1], ThresholdSpec(wt=20)), {}),
    ("ranking", "rank_solutions"): lambda tmp_path: ((_table(),), {}),
}


class WriteLog(dict):
    """The counter dict of a traced pass, noting each key a counter writes. A
    counter that adds to a name COUNTERS does not list fails on the read."""

    def __init__(self, names):
        super().__init__(dict.fromkeys(names, 0))
        self.written = set()

    def __setitem__(self, key, value):
        self.written.add(key)
        super().__setitem__(key, value)


def test_every_counter_reads_a_real_result(tmp_path):
    spans = load_spans()
    counted = [(m, f, c) for m, f, c in spans.PASS_LAYERS + spans.SETUP_LAYERS if c is not None]
    assert [(m, f) for m, f, _ in counted if (m, f) not in COUNTER_CALLS] == []
    recorder = spans.Recorder()
    recorder.counters = WriteLog(spans.COUNTERS)
    for module_name, func_name, counter in counted:
        original = getattr(importlib.import_module(f"bratskit.{module_name}"), func_name)
        args, kwargs = COUNTER_CALLS[module_name, func_name](tmp_path)
        recorder.wrap(f"{module_name}.{func_name}", original, counter)(*args, **kwargs)
    assert recorder.counters.written == set(spans.COUNTERS)
    assert all(recorder.counters[name] > 0 for name in
               ("nifti.read_volume.bytes", "nifti.write_volume.bytes", "metrics.lesions.matched",
                "metrics.lesions.fp", "fusion.staple_binary.iterations", "ranking.keys",
                "postprocess.voxels_changed"))


def test_no_traced_layer_runs_on_a_worker_thread(tmp_path, monkeypatch):
    # A recorder keeps one span stack for the process, so a wrapped function
    # called from one of mean fusion's slab threads or one of the corrupt
    # draw threads would corrupt it.
    spans = load_spans()
    threads = []
    targets = [getattr(importlib.import_module(f"bratskit.{m}"), f) for m, f, _ in spans.PASS_LAYERS]
    for module_name in spans.BRATSKIT_MODULES:
        module = importlib.import_module(module_name)
        for name, value in list(vars(module).items()):
            if any(value is target for target in targets):
                def noting(*args, _fn=value, **kwargs):
                    threads.append(threading.current_thread())
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(module, name, noting)
    gt, pred = _phantom()
    rng = np.random.default_rng(1)
    paths = []
    for i in range(3):
        paths.append(tmp_path / f"p{i}.nii")
        write_volume(RegionProbVolume(gt.geometry, rng.random((3, 16, 16, 16), np.float32)),
                     paths[-1])
    monkeypatch.setattr(bratskit.cores, "usable_cores", lambda: 3)
    average_fusion([open_region_prob(p) for p in paths])
    staple_fusion([gt, pred, gt])
    # Surfaces large enough for the k-d tree: every search runs on the calling thread.
    searched, search = [], bratskit.metrics._directed_p95
    monkeypatch.setattr(bratskit.metrics, "_directed_p95",
                        lambda *args: searched.append(threading.current_thread()) or search(*args))
    big_gt, big_pred = generate_phantom(PhantomSpec(
        (40, 40, 36), (Lesion((14, 14, 12), (8, 7, 6)), Lesion((27, 28, 24), (7, 8, 7))),
        Perturbation("shift", shift=(1, 1, 0))))
    bratskit.metrics.case_metrics_legacy(big_gt, big_pred)
    bratskit.metrics.case_metrics_lesionwise(big_gt, big_pred)
    assert searched and set(searched) == {threading.main_thread()}
    # The corrupt draws run as two tasks, off the main thread on 3 cores.
    drawn = []
    for name in ("_normal_draws", "_replacement_draws"):
        monkeypatch.setattr(bratskit.synthprep, name,
                            lambda *args, _draw=getattr(bratskit.synthprep, name):
                            drawn.append(threading.current_thread()) or _draw(*args))
    crop = Geometry((bratskit.synthprep.CROP_SIZE,) * 3)
    tumour = np.zeros(crop.dims, np.uint8)
    tumour[40:50, 44:52, 46:49] = 2
    labels = LabelVolume(crop, tumour)
    field = bratskit.synthprep.build_corruption_field(bratskit.synthprep.tumour_geometry(labels), crop)
    image = ScalarVolume(crop, rng.random(crop.dims, np.float32))
    bratskit.synthprep.corrupt_crop(image, labels, field, 5)
    assert len(drawn) == 2 and threading.main_thread() not in drawn
    assert threads and set(threads) == {threading.main_thread()}
