"""Span recorders wrapped around the package's public functions.

The wrappers live here, not in the package: `install` replaces every module
attribute that binds a listed function (for example `read_volume` in both
`bratskit.nifti` and `bratskit.cli`) with a wrapper that records a span of
(name, start, end, parent). Spans stay in memory and are written out once,
when the pass ends. A span's self time is its duration minus the part of it
covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# Counters run after the wrapped call returns; their time is recorded as a
# span of this name under the caller, so it is excluded from every layer's
# self time and is not reported.
COUNTER_SPAN = "trace.counters"


def _read_bytes(counters, args, kwargs, result):
    counters["nifti.read_volume.bytes"] += os.path.getsize(args[0])


def _write_bytes(counters, args, kwargs, result):
    counters["nifti.write_volume.bytes"] += os.path.getsize(args[1])


def _staple(counters, args, kwargs, result):
    counters["fusion.staple_binary.iterations"] += result.iterations_run
    counters["fusion.staple_binary.converged"] += int(result.converged)


def _lesions(counters, args, kwargs, result):
    for report in result[1].values():
        counters["metrics.lesions.matched"] += report.n_matched
        counters["metrics.lesions.fp"] += len(report.false_positives)
        counters["metrics.lesions.fn"] += len(report.false_negatives)


def _voxels_changed(counters, args, kwargs, result):
    counters["postprocess.voxels_changed"] += int((args[0].voxels != result.voxels).sum())


def _keys(counters, args, kwargs, result):
    counters["ranking.keys"] += sum(1 for _ in args[0].keys())


COUNTERS = (
    "nifti.read_volume.bytes", "nifti.write_volume.bytes",
    "metrics.lesions.matched", "metrics.lesions.fp", "metrics.lesions.fn",
    "fusion.staple_binary.iterations", "fusion.staple_binary.converged",
    "postprocess.voxels_changed", "ranking.keys",
)

# (module, function, counter) for every function the traced pass wraps.
PASS_LAYERS = (
    ("cli", "main", None),
    ("nifti", "read_volume", _read_bytes),
    ("nifti", "write_volume", _write_bytes),
    ("regions", "extract_region", None),
    ("regions", "reconstruct_labels", None),
    ("morphology", "connected_components", None),
    ("morphology", "surface_voxels", None),
    ("morphology", "dilate", None),
    ("metrics", "dice", None),
    ("metrics", "hd95", None),
    ("metrics", "lesion_match", None),
    ("metrics", "case_metrics_lesionwise", _lesions),
    ("metrics", "case_metrics_legacy", None),
    ("fusion", "staple_binary", _staple),
    ("fusion", "staple_fusion", None),
    ("fusion", "average_fusion", None),
    ("postprocess", "apply_thresholds", _voxels_changed),
    ("ranking", "build_table", None),
    ("ranking", "rank_solutions", _keys),
    ("ranking", "write_ranking_csv", None),
    ("synthprep", "tumour_geometry", None),
    ("synthprep", "build_corruption_field", None),
    ("synthprep", "corrupt_crop", None),
    ("synthprep", "place_label", None),
)

# Set-up is traced only for the phantom layer.
SETUP_LAYERS = (("phantom", "generate_phantom", None),)

BRATSKIT_MODULES = (
    "bratskit", "bratskit.cli", "bratskit.errors", "bratskit.volume", "bratskit.nifti",
    "bratskit.regions", "bratskit.morphology", "bratskit.metrics", "bratskit.ranking",
    "bratskit.postprocess", "bratskit.fusion", "bratskit.synthprep", "bratskit.phantom",
)


class Recorder:
    """In-memory span list; `stack` holds the indices of the open spans."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counters = dict.fromkeys(COUNTERS, 0)

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[index][2] = time.perf_counter()
            if counter is not None:
                start = time.perf_counter()
                counter(self.counters, args, kwargs, result)
                self.spans.append([COUNTER_SPAN, start, time.perf_counter(), parent])
            return result

        return wrapper

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def install(recorder, layers, extra_modules=()):
    """Wrap each listed function on every module attribute bound to it.

    Returns {layer name: number of bindings replaced}.
    """
    bound = {}
    for module_name, func_name, counter in layers:
        original = getattr(importlib.import_module(f"bratskit.{module_name}"), func_name)
        name = f"{module_name}.{func_name}"
        wrapper = recorder.wrap(name, original, counter)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "bratskit" or n.startswith("bratskit.")] + list(extra_modules)
        bound[name] = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    bound[name] += 1
    return bound


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """{name: (calls, total self seconds)} from [name, start, end, parent] spans.

    Child intervals are clipped to their parent before the union is taken.
    Counter spans are subtracted from their parent but not reported.
    """
    children = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals = {}
    for index, (name, start, end, _) in enumerate(spans):
        if name == COUNTER_SPAN:
            continue
        kids = [(max(s, start), min(e, end)) for s, e in children.get(index, ())
                if min(e, end) > max(s, start)]
        calls, self_s = totals.get(name, (0, 0.0))
        totals[name] = (calls + 1, self_s + (end - start) - _covered(kids))
    return totals


def first_item_spans(spans, n_calls):
    """{name: [calls, inclusive seconds]} over the spans under the first
    `n_calls` top-level `cli.main` spans, i.e. inside the pass's first item."""
    roots = {i for i, span in enumerate(spans) if span[3] == -1 and span[0] == "cli.main"}
    roots = set(sorted(roots)[:n_calls])
    root_of = {}
    out = {}
    for index, (name, start, end, parent) in enumerate(spans):
        root_of[index] = index if parent < 0 else root_of[parent]
        if root_of[index] in roots and name != COUNTER_SPAN:
            calls, total = out.get(name, (0, 0.0))
            out[name] = [calls + 1, total + end - start]
    return out


def parse_importtime(stderr_text):
    """{module: cumulative seconds} for the bratskit modules in `-X importtime` output."""
    out = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].strip()
        if name in BRATSKIT_MODULES:
            out[name] = int(fields[1]) / 1e6
    return out


def layer_metrics(spans, counters, imports, overhead, workers):
    """Every per-layer metric, named `<module>.<function>.<stat>`."""
    st = self_times(spans)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for module_name, func_name, _ in PASS_LAYERS + SETUP_LAYERS:
        name = f"{module_name}.{func_name}"
        calls, self_s = st.get(name, (0, 0.0))
        put(f"{name}.calls", calls, "count")
        put(f"{name}.self_s", self_s, "s")
    for name in COUNTERS:
        put(name, counters.get(name, 0), "B" if name.endswith(".bytes") else "count")
    for module in BRATSKIT_MODULES:
        put(f"cli.import.{module}.cum_s", imports.get(module, 0.0), "s")
    put("trace.overhead", overhead, "ratio")
    put("trace.workers", workers, "count")
    return metrics
