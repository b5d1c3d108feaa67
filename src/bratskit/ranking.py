"""Rank-then-aggregate scoring across solutions, cases, regions and metrics.

For every (case, region, metric) key the solutions are ranked 1..P (DSC
descending, HD95 ascending, ties averaged); a solution's final score is the
mean normalized rank over all keys, 0 best and 1 worst.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .metrics import row_order_mean
from .regions import REGIONS

METRICS = ("DSC", "HD95")


@dataclass(frozen=True)
class MetricTable:
    solutions: list[str]
    cases: list[str]
    entries: dict  # (solution, case, region_name, metric) -> float

    def keys(self):
        for case in self.cases:
            for region in REGIONS:
                for metric in METRICS:
                    yield case, region.value, metric

    def to_array(self) -> np.ndarray:
        """The entries as a (keys x solutions) array, rows in `keys()` order.
        A NaN entry, else a missing one, raises ValidationError."""
        keys = list(self.keys())
        values = np.array([[self.entries.get((sol, *key), np.nan) for sol in self.solutions]
                           for key in keys], dtype=float).reshape(len(keys), len(self.solutions))
        # Missing entries read as NaN too; np.nonzero lists keys, then solutions.
        bad = [(self.solutions[j], *keys[i]) for i, j in zip(*np.nonzero(np.isnan(values)))]
        nan = [k for k in bad if k in self.entries]
        if nan:
            raise ValidationError(f"NaN entry at {nan[0]}")
        if bad:
            raise ValidationError(f"incomplete table, missing entries: {bad[:10]}"
                                  + ("..." if len(bad) > 10 else ""))
        return values


@dataclass(frozen=True)
class RankingResult:
    normalized_rank: dict  # solution -> [0, 1]
    per_key_ranks: dict  # (solution, case, region, metric) -> fractional rank


def _is_dsc(table: MetricTable) -> np.ndarray:
    return np.array([metric == "DSC" for _, _, metric in table.keys()])


def _average_ranks(keyed: np.ndarray) -> np.ndarray:
    """The 1-based rank of each entry within its row, ties sharing the mean of
    their positions: scipy.stats.rankdata(keyed, method="average", axis=1)
    without importing scipy.stats. In a sorted row the ties of x fill the
    positions after the entries below x, up to the entries not above x. The
    ranks are integers and halves, so exact."""
    ranks = np.empty(keyed.shape)
    for row, ordered, out in zip(keyed, np.sort(keyed, axis=1), ranks):
        out[:] = (ordered.searchsorted(row, "left") + ordered.searchsorted(row, "right") + 1) / 2
    return ranks


def rank_solutions(table: MetricTable, normalization: str = "minus_one") -> RankingResult:
    """Aggregate fractional ranks into a normalized score per solution.

    normalization: "minus_one" -> (rank - 1) / (P - 1) so best is exactly 0 and
    worst exactly 1; "rank_over_p" -> rank / P.
    """
    if normalization not in ("minus_one", "rank_over_p"):
        raise ValidationError(f"unknown normalization {normalization!r}")
    if not table.solutions:
        raise ValidationError("need at least one solution")
    if not table.cases:
        raise ValidationError("need at least one case")
    values = table.to_array()
    p = len(table.solutions)
    # lower rank is better: negate DSC so higher DSC ranks first
    keyed = np.where(_is_dsc(table)[:, None], -values, values)
    ranks = _average_ranks(keyed)
    per_key_ranks = {(sol, *key): rank for key, row in zip(table.keys(), ranks.tolist())
                     for sol, rank in zip(table.solutions, row)}
    if normalization == "minus_one":
        scores = np.zeros_like(ranks) if p == 1 else (ranks - 1.0) / (p - 1.0)
    else:
        scores = ranks / p
    normalized = dict(zip(table.solutions, row_order_mean(scores).tolist()))
    return RankingResult(normalized, per_key_ranks)


def load_metrics_csv(path, solution_id):
    """Read one solution's metrics CSV (module metrics schema) into table
    entries and the set of metric modes its rows name."""
    entries = {}
    cases = {}  # a dict keeps the first-seen order and finds a case in O(1)
    modes = set()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            for row in reader:
                case = row["case_id"]
                cases.setdefault(case)
                modes.add(row["mode"])
                region = row["region"]
                if (solution_id, case, region, "DSC") in entries:
                    raise ValidationError(f"{path} line {reader.line_num}: second row for "
                                          f"case {case!r} region {region!r}")
                dsc, hd95 = float(row["dsc"]), float(row["hd95"])
                # NaN fails every comparison, so it is refused too.
                if not (0.0 <= dsc <= 1.0 and 0.0 <= hd95 < np.inf):
                    raise ValidationError(f"{path} line {reader.line_num}: DSC {dsc} not in "
                                          f"[0, 1] or HD95 {hd95} not a finite distance >= 0")
                entries[(solution_id, case, region, "DSC")] = dsc
                entries[(solution_id, case, region, "HD95")] = hd95
        except (KeyError, TypeError, ValueError) as exc:  # a short row reads None
            raise ValidationError(f"{path} line {reader.line_num}: not a metrics row "
                                  f"({type(exc).__name__}: {exc})") from None
    return list(cases), entries, modes


def build_table(csv_paths_by_solution: dict) -> MetricTable:
    entries = {}
    all_cases = None
    modes = set()
    solutions = sorted(csv_paths_by_solution)
    for sol in solutions:
        cases, sol_entries, sol_modes = load_metrics_csv(csv_paths_by_solution[sol], sol)
        entries.update(sol_entries)
        modes |= sol_modes
        if all_cases is None:
            all_cases = cases
        elif set(all_cases) != set(cases):
            raise ValidationError(f"solution {sol} covers a different case set")
    if len(modes) > 1:
        raise ValidationError(f"cannot rank a mix of {' and '.join(sorted(modes))} metrics")
    return MetricTable(solutions, sorted(all_cases or []), entries)


def write_ranking_csv(path, table: MetricTable, result: RankingResult):
    """Leaderboard CSV: solution_id, normalized_rank, mean_dsc, mean_hd95."""
    values, is_dsc = table.to_array(), _is_dsc(table)
    rows = sorted(zip(table.solutions, map(result.normalized_rank.get, table.solutions),
                      row_order_mean(values[is_dsc]).tolist(),
                      row_order_mean(values[~is_dsc]).tolist()),
                  key=lambda r: (r[1], r[0]))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["solution_id", "normalized_rank", "mean_dsc", "mean_hd95"])
        for sol, nr, md, mh in rows:
            writer.writerow([sol, f"{nr:.6f}", f"{md:.6f}", f"{mh:.6f}"])
