"""The benchmark's traced pass wraps package functions by module and name
(`perfbench/spans.py`). Each of them must exist, or only a traced benchmark
run would notice that one was deleted or renamed."""

import importlib
import importlib.util
from pathlib import Path

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
