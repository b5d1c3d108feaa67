"""Self-tests for the harness arithmetic.

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def test_self_time_nested_spans():
    recorded = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1]]
    st = spans.self_times(recorded)
    assert st["a"] == (1, pytest.approx(7.0))
    assert st["b"] == (1, pytest.approx(2.0))
    assert st["c"] == (1, pytest.approx(1.0))


def test_self_time_sibling_spans_and_repeated_names():
    recorded = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["b", 5.0, 7.0, 0],
                ["c", 8.0, 9.5, 0]]
    st = spans.self_times(recorded)
    assert st["a"] == (1, pytest.approx(10.0 - 3.0 - 2.0 - 1.5))
    assert st["b"] == (2, pytest.approx(5.0))


def test_self_time_overlapping_children_counted_once():
    recorded = [["a", 0.0, 10.0, -1], ["b", 1.0, 5.0, 0], ["c", 3.0, 6.0, 0],
                ["d", 9.0, 12.0, 0]]
    assert spans.self_times(recorded)["a"] == (1, pytest.approx(10.0 - 5.0 - 1.0))


def test_counter_spans_are_subtracted_but_not_reported():
    recorded = [["a", 0.0, 10.0, -1], ["b", 1.0, 2.0, 0], [spans.COUNTER_SPAN, 2.0, 4.0, 0]]
    st = spans.self_times(recorded)
    assert spans.COUNTER_SPAN not in st
    assert st["a"] == (1, pytest.approx(7.0))


def test_first_item_spans_are_inclusive_and_limited_to_the_item():
    recorded = [["cli.main", 0.0, 4.0, -1], ["x", 1.0, 3.0, 0], ["y", 1.5, 2.0, 1],
                ["cli.main", 5.0, 6.0, -1], ["x", 5.0, 5.5, 3]]
    assert spans.first_item_spans(recorded, 1) == {"cli.main": [1, 4.0], "x": [1, 2.0],
                                                   "y": [1, 0.5]}
    assert spans.first_item_spans(recorded, 2)["x"] == [2, 2.5]


def test_recorder_links_parents_and_runs_counters():
    recorder = spans.Recorder()

    def count(counters, args, kwargs, result):
        counters["ranking.keys"] += result

    inner = recorder.wrap("inner", lambda x: x, count)
    outer = recorder.wrap("outer", lambda: inner(3) + inner(4))
    assert outer() == 7
    names = [s[0] for s in recorder.spans]
    assert names == ["outer", "inner", spans.COUNTER_SPAN, "inner", spans.COUNTER_SPAN]
    assert [s[3] for s in recorder.spans] == [-1, 0, 0, 0, 0]
    assert recorder.counters["ranking.keys"] == 7


def test_install_wraps_every_binding():
    import bratskit.cli
    import bratskit.nifti

    original = bratskit.nifti.read_volume
    recorder = spans.Recorder()
    try:
        bound = spans.install(recorder, [("nifti", "read_volume", None)])
        assert bound["nifti.read_volume"] >= 2
        assert bratskit.cli.read_volume is bratskit.nifti.read_volume
        assert bratskit.cli.read_volume is not original
    finally:
        for module in (bratskit.cli, bratskit.nifti, sys.modules["bratskit"]):
            module.read_volume = original


@pytest.mark.parametrize("n, expected", [
    (1, 50), (10, 50), (19, 50), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90),
    (200, 95), (999, 95), (1000, 99), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected


def test_percentile_matches_numpy_linear():
    values = list(np.random.default_rng(0).random(37))
    for p in (0, 50, 75, 90, 100):
        assert run.percentile(values, p) == pytest.approx(np.percentile(values, p))


def test_expected_partial_success_counts_as_correct():
    expects = [[1]]
    # exit 1 with a complete skipped report: correct
    assert check.account(expects, [0], [[1]], {0: [True]}) == (1, 0, 1)
    # exit 0 (the bad files went unnoticed): failed
    assert check.account(expects, [0], [[0]], {0: [True]}) == (1, 1, 0)
    # exit 1 but the report misses a stem: failed
    assert check.account(expects, [0], [[1]], {0: [False]}) == (1, 1, 0)
    # exit 2 (configuration error): failed
    assert check.account(expects, [0, 0], [[2], [1]], {0: [True]}) == (2, 1, 1)


def test_failed_calls_counted_per_call_and_per_repeat():
    expects = [[0, 0, 0], [0, 0]]
    executed = [0, 1, 0, 1]
    codes = [[0, 0, 0], [0, 2], [0, 0, 0], [0, 0]]
    verdicts = {0: [True, False, True], 1: [True, True]}
    # item 0 has a wrong output in call 1 (both repeats); item 1 exits 2 once
    assert check.account(expects, executed, codes, verdicts) == (10, 3, 1)


def test_report_lists_exactly_the_expected_stems(tmp_path):
    report = tmp_path / "m.skipped.txt"
    report.write_text("unpaired\tunpaired\ncase099\tpayload truncated\n")
    assert check.report_ok(report, ["case099", "unpaired"])
    assert not check.report_ok(report, ["case099"])
    assert not check.report_ok(tmp_path / "missing.txt", ["case099"])


def test_dilate_cube_matches_26_connected_iterations():
    from scipy import ndimage

    bits = np.zeros((9, 8, 7), dtype=bool)
    bits[1, 2, 3] = bits[7, 7, 0] = True
    expected = ndimage.binary_dilation(bits, ndimage.generate_binary_structure(3, 3), 3)
    assert np.array_equal(check._dilate_cube(bits, 3), expected)


def test_parse_importtime():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       120 |        340 |   bratskit.errors\n"
            "import time:      3425 |    1200314 | bratskit.cli\n"
            "import time:        10 |         10 | numpy.core\n")
    assert spans.parse_importtime(text) == {"bratskit.errors": 340e-6, "bratskit.cli": 1.200314}


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    reported = spans.layer_metrics([], {}, {}, 1.0, 1)
    assert [m["name"] for m in spec["per_layer"]] == list(reported)
    assert all(m["unit"] == reported[m["name"]]["unit"] for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
