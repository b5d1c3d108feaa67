import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import rankdata

import bratskit
from bratskit.errors import ValidationError
from bratskit.metrics import write_metrics_csv, CSV_COLUMNS
from bratskit.ranking import (
    METRICS,
    MetricTable,
    _average_ranks,
    build_table,
    load_metrics_csv,
    rank_solutions,
    write_ranking_csv,
)
from bratskit.regions import REGIONS

from oracles import brute_rank


def make_table(rng, solutions, cases):
    entries = {}
    for sol in solutions:
        for case in cases:
            for region in REGIONS:
                entries[(sol, case, region.value, "DSC")] = float(rng.random())
                entries[(sol, case, region.value, "HD95")] = float(rng.uniform(0, 374))
    return MetricTable(list(solutions), list(cases), entries)


def test_single_solution_rank_zero(rng):
    table = make_table(rng, ["only"], ["c1", "c2"])
    result = rank_solutions(table)
    assert result.normalized_rank["only"] == 0.0


def test_dominance(rng):
    table = make_table(rng, ["A", "B"], [f"c{i}" for i in range(4)])
    # A strictly beats B everywhere
    for case in table.cases:
        for region in REGIONS:
            table.entries[("A", case, region.value, "DSC")] = 0.9
            table.entries[("B", case, region.value, "DSC")] = 0.5
            table.entries[("A", case, region.value, "HD95")] = 1.0
            table.entries[("B", case, region.value, "HD95")] = 100.0
    result = rank_solutions(table)
    assert result.normalized_rank["A"] == 0.0
    assert result.normalized_rank["B"] == 1.0


def test_matches_brute_force_oracle(rng):
    table = make_table(rng, ["A", "B", "C"], [f"c{i}" for i in range(10)])
    result = rank_solutions(table)
    oracle = brute_rank(table)
    for sol in table.solutions:
        assert result.normalized_rank[sol] == pytest.approx(oracle[sol], abs=1e-12)


@pytest.mark.parametrize("n_solutions", [1, 2, 5])
def test_equals_per_key_loop_bit_for_bit(rng, n_solutions):
    # The average ranks are exact, and both sum the keys in the same order.
    table = make_table(rng, [f"s{i}" for i in range(n_solutions)], [f"c{i}" for i in range(40)])
    assert rank_solutions(table).normalized_rank == brute_rank(table)


@pytest.mark.parametrize("n_solutions", [1, 2, 3, 7, 30])
def test_average_ranks_equal_scipy_rankdata(rng, n_solutions):
    # Tie-heavy rows: signed zeros and infinities, which a negated DSC or a
    # penalty HD95 can produce, mixed with values rounded to one decimal.
    pool = np.array([0.0, -0.0, np.inf, -np.inf, 0.5, -0.5, 1.0, 374.0])
    for _ in range(40):
        shape = (int(rng.integers(1, 60)), n_solutions)
        keyed = np.where(rng.random(shape) < 0.5, rng.choice(pool, shape),
                         rng.normal(size=shape).round(1))
        ranks = _average_ranks(keyed)
        expected = rankdata(keyed, method="average", axis=1)
        assert ranks.shape == expected.shape and ranks.tobytes() == expected.tobytes()


def test_cli_import_leaves_scipy_stats_out():
    src = str(Path(bratskit.__file__).resolve().parents[1])
    code = "import sys, bratskit.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_ties_get_average_rank(rng):
    table = make_table(rng, ["A", "B", "C"], ["c"])
    for region in REGIONS:
        for metric in METRICS:
            for sol in "ABC":
                table.entries[(sol, "c", region.value, metric)] = 0.5
    result = rank_solutions(table)
    # full three-way tie everywhere: everyone gets rank 2 of 3 -> 0.5
    for sol in "ABC":
        assert result.normalized_rank[sol] == pytest.approx(0.5)


def test_permutation_invariance(rng):
    table = make_table(rng, ["A", "B", "C"], ["c1", "c2"])
    result = rank_solutions(table)
    shuffled = MetricTable(["C", "A", "B"], table.cases, table.entries)
    result2 = rank_solutions(shuffled)
    assert result.normalized_rank == result2.normalized_rank


def test_monotone_improvement(rng):
    table = make_table(rng, ["A", "B", "C"], [f"c{i}" for i in range(5)])
    base = rank_solutions(table).normalized_rank["B"]
    for _ in range(30):
        case = table.cases[int(rng.integers(len(table.cases)))]
        region = REGIONS[int(rng.integers(3))].value
        metric = METRICS[int(rng.integers(2))]
        key = ("B", case, region, metric)
        old = table.entries[key]
        table.entries[key] = old + 0.1 if metric == "DSC" else max(0.0, old - 10)
        new = rank_solutions(table).normalized_rank["B"]
        assert new <= base + 1e-12
        base = new


def test_scale_invariance_within_key(rng):
    table = make_table(rng, ["A", "B", "C"], ["c1"])
    before = rank_solutions(table).per_key_ranks
    key = ("c1", "WT", "DSC")
    for sol in "ABC":
        v = table.entries[(sol, *key)]
        table.entries[(sol, *key)] = math.exp(3 * v)  # strictly monotone
    after = rank_solutions(table).per_key_ranks
    assert before == after


def test_incomplete_table_rejected(rng):
    table = make_table(rng, ["A", "B"], ["c1"])
    del table.entries[("A", "c1", "WT", "DSC")]
    with pytest.raises(ValidationError):
        rank_solutions(table)


def test_nan_entry_rejected(rng):
    table = make_table(rng, ["A", "B"], ["c1"])
    table.entries[("A", "c1", "WT", "DSC")] = float("nan")
    with pytest.raises(ValidationError):
        rank_solutions(table)


def test_errors_name_the_entry(rng):
    table = make_table(rng, ["A", "B"], ["c1", "c2"])
    del table.entries[("B", "c1", "WT", "DSC")]
    with pytest.raises(ValidationError, match=r"missing entries: \[\('B', 'c1', 'WT', 'DSC'\)\]"):
        rank_solutions(table)
    # a NaN is reported in preference to missing entries, even later in key order
    table.entries[("A", "c2", "ET", "HD95")] = float("nan")
    with pytest.raises(ValidationError, match=r"NaN entry at \('A', 'c2', 'ET', 'HD95'\)"):
        rank_solutions(table)


def test_empty_case_set_rejected():
    with pytest.raises(ValidationError):
        rank_solutions(MetricTable(["A", "B"], [], {}))


def test_unknown_normalization_rejected(rng):
    table = make_table(rng, ["A", "B"], ["c1"])
    with pytest.raises(ValidationError, match="unknown normalization 'rank'"):
        rank_solutions(table, normalization="rank")


def test_rank_over_p_switch(rng):
    table = make_table(rng, ["A", "B"], ["c1"])
    for region in REGIONS:
        for metric in METRICS:
            table.entries[("A", "c1", region.value, metric)] = 0.9 if metric == "DSC" else 1.0
            table.entries[("B", "c1", region.value, metric)] = 0.1 if metric == "DSC" else 90.0
    result = rank_solutions(table, normalization="rank_over_p")
    assert result.normalized_rank["A"] == pytest.approx(0.5)
    assert result.normalized_rank["B"] == pytest.approx(1.0)


def test_csv_round_trip(tmp_path, rng):
    # build per-solution metrics CSVs, rank them, and check the output order
    paths = {}
    for sol, quality in [("good", 0.9), ("bad", 0.3)]:
        rows = []
        for case in ["c1", "c2"]:
            for region in sorted(r.value for r in REGIONS):
                rows.append([case, "legacy", region,
                             f"{quality:.6f}", f"{(1 - quality) * 100:.6f}", "", "", ""])
        path = tmp_path / f"{sol}.csv"
        write_metrics_csv(path, rows)
        paths[sol] = path
    table = build_table(paths)
    result = rank_solutions(table)
    out = tmp_path / "ranking.csv"
    write_ranking_csv(out, table, result)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "solution_id,normalized_rank,mean_dsc,mean_hd95"
    assert lines[1].startswith("good,0.000000")
    assert lines[2].startswith("bad,1.000000")


def test_mixed_modes_rejected(tmp_path):
    paths = {}
    for sol, mode in [("a", "lesionwise"), ("b", "legacy")]:
        rows = [["c1", mode, region, "0.500000", "1.000000", "", "", ""]
                for region in sorted(r.value for r in REGIONS)]
        paths[sol] = tmp_path / f"{sol}.csv"
        write_metrics_csv(paths[sol], rows)
    with pytest.raises(ValidationError, match="legacy and lesionwise"):
        build_table(paths)


def test_load_keeps_first_appearance_case_order(tmp_path):
    # cases interleaved, each (case, region) once; the order is that of their first row
    order = [("c9", "ET"), ("c1", "ET"), ("c5", "ET"), ("c1", "TC"), ("c9", "TC"),
             ("c2", "ET"), ("c5", "TC"), ("c2", "TC")]
    rows = [[case, "legacy", region, "0.500000", "1.000000", "", "", ""]
            for case, region in order]
    path = tmp_path / "m.csv"
    write_metrics_csv(path, rows)
    cases, entries, modes = load_metrics_csv(path, "s")
    assert cases == ["c9", "c1", "c5", "c2"]
    assert len(entries) == 4 * 2 * 2 and modes == {"legacy"}


def test_second_row_for_a_case_region_rejected(tmp_path):
    rows = [["c1", "legacy", "WT", "0.900000", "1.000000", "", "", ""],
            ["c1", "legacy", "TC", "0.800000", "1.000000", "", "", ""],
            ["c1", "legacy", "WT", "0.100000", "9.000000", "", "", ""]]
    path = tmp_path / "m.csv"
    write_metrics_csv(path, rows)
    with pytest.raises(ValidationError, match=r"m\.csv line 4: second row for case 'c1' region 'WT'"):
        load_metrics_csv(path, "s")
