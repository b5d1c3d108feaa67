"""bratskit benchmark: four CLI workloads, measured end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the package is imported from `src/`, the
oracles from `tests/oracles.py`). The run generates its corpus from the seed,
then drives `bratskit.cli.main(argv)` in a separate pass process until S
seconds have elapsed (and at least the workload's minimum item count), checks
every output, and prints one JSON object as its last line of output.

With --trace 0 the metrics are the end-to-end ones. With --trace 1 the run
makes an untraced pass and a traced pass over the same items, both with
--workers 1 because spans recorded in pool workers are not collected, and the
metrics are the per-layer ones plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lesionwise-fullsize", "leaderboard-small", "ensemble-fullsize", "synth-crops")
CLI_START_SAMPLES = 3
RANK_REPEATS = 5
PASS_TIMEOUT_S = 150
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)


def tail_percentile(n):
    """Highest percentile of TAIL_LADDER with at least ten samples beyond it;
    50 when there are fewer than 20 samples."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if round(n * (100 - p) / 100, 9) >= 10:
            best = p
    return best


def percentile(values, p):
    """Linear-interpolation percentile, as numpy's default method."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def cli_start_s():
    """Median wall time of a fresh interpreter running `import bratskit.cli`."""
    samples = []
    for _ in range(CLI_START_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import bratskit.cli"], env=_env(), check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def import_times():
    import spans

    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bratskit.cli"],
                          env=_env(), check=True, capture_output=True, text=True, timeout=60)
    return spans.parse_importtime(proc.stderr)


def run_pass(work, corpus, seconds, name, count=None, spans_out=None, rank_repeats=1):
    """Run one pass process over the corpus; returns its result dict.

    With `count` the pass runs exactly that many items, whatever the time.
    """
    plan = {
        "items": [asdict(item) for item in corpus.items],
        "min_items": count or corpus.min_items,
        "max_items": count or 10**9,
        "seconds": seconds,
        "rank": (["rank", "--inputs", *corpus.rank_inputs, "--out", str(work / corpus.rank_out)]
                 if corpus.rank_out else None),
        "rank_repeats": rank_repeats,
        "spans_out": str(spans_out) if spans_out else None,
    }
    plan_path, result_path = work / f"{name}.plan.json", work / f"{name}.result.json"
    plan_path.write_text(json.dumps(plan))
    with open(work / f"{name}.log", "w") as log:
        proc = subprocess.run([sys.executable, str(HERE / "passrun.py"), str(plan_path),
                               str(result_path)], env=_env(), stdout=log, stderr=log,
                              timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write((work / f"{name}.log").read_text()[-4000:])
        raise RuntimeError(f"pass process {name} exited with {proc.returncode}")
    return json.loads(result_path.read_text())


def verify(work, corpus, executed, digests, oracles):
    """Per item index run, whether each call's outputs are correct."""
    import check

    oracle_ok = {}
    for gt, pred, csv_path, case_id in corpus.oracle_cases:
        ok = check.oracle_case_ok(gt, pred, csv_path, case_id, oracles)
        oracle_ok[str(csv_path)] = oracle_ok.get(str(csv_path), True) and ok
    verdicts = {}
    for index in sorted(set(executed)):
        item = corpus.items[index]
        calls = []
        for outputs in item.outputs:
            good = all(check.digest_ok(work / rel, digests) for rel in outputs)
            good = good and all(check.report_ok(work / rel, item.skipped[rel])
                                for rel in outputs if rel in item.skipped)
            good = good and all(oracle_ok.get(str(work / rel), True) for rel in outputs)
            calls.append(good)
        verdicts[index] = calls
    return verdicts


def _load_oracles():
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def environment():
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def measure(workload, seed, seconds, trace):
    import check
    import corpus as corpus_mod
    import spans

    oracles = _load_oracles()
    digests = json.loads((HERE / "digests.json").read_text())
    workers = 1 if trace else min(2, os.cpu_count() or 1)
    work = ROOT / ".bench_work" / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        selection = corpus_mod.select(workload, seed)
        setup_recorder = None
        if trace:
            setup_recorder = spans.Recorder()
            spans.install(setup_recorder, spans.SETUP_LAYERS, extra_modules=[corpus_mod])
        corpus = corpus_mod.build(workload, work, selection, workers)
        detail = {"workload": workload, "seed": seed, "items": [i.key for i in corpus.items],
                  "workers": workers, "environment": environment()}

        if not trace:
            start_s = cli_start_s()
            res = run_pass(work, corpus, seconds, "pass", rank_repeats=RANK_REPEATS)
        else:
            imports = import_times()
            res = run_pass(work, corpus, seconds, "untraced")
            traced = run_pass(work, corpus, seconds, "traced", count=len(res["executed"]),
                              spans_out=work / "spans.json")

        expects = [item.expect for item in corpus.items]
        verdicts = verify(work, corpus, res["executed"], digests, oracles)
        attempted, failed, ok_items = check.account(expects, res["executed"], res["codes"],
                                                    verdicts)
        if res["rank_codes"]:
            rank_ok = check.digest_ok(work / corpus.rank_out, digests)
            attempted += len(res["rank_codes"])
            failed += sum(code != 0 or not rank_ok for code in res["rank_codes"])
        lat = res["latencies"]
        p_tail = tail_percentile(len(lat))
        detail.update({"executed": len(lat), "pass_wall_s": res["wall_s"], "latencies": lat,
                       "failed_ratio": failed / attempted,
                       "item_s_tail": {"percentile": p_tail, "samples": len(lat)}})
        if res["rank_s"]:
            detail["rank_s"] = {"value": statistics.median(res["rank_s"]), "unit": "s",
                                "samples": res["rank_s"]}

        if not trace:
            metrics = {
                "setup_s": {"value": statistics.median(corpus.unit_s), "unit": "s"},
                "items_per_s": {"value": ok_items / res["wall_s"], "unit": "1/s"},
                "item_s_p50": {"value": percentile(lat, 50), "unit": "s"},
                "item_s_tail": {"value": percentile(lat, p_tail), "unit": "s"},
                "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            }
            detail["cli_start_s"] = {"value": start_s, "unit": "s"}
        else:
            # The traced pass must reproduce the untraced outputs and codes.
            if traced["codes"] != res["codes"]:
                failed += 1
            recorded = json.loads((work / "spans.json").read_text())
            all_spans = recorded["spans"] + [
                [n, s, e, p + len(recorded["spans"]) if p >= 0 else -1]
                for n, s, e, p in setup_recorder.spans]
            overhead = traced["wall_s"] / res["wall_s"]
            detail.update({"trace": {
                "workers": 1, "overhead": overhead, "traced_wall_s": traced["wall_s"],
                "first_item_spans": spans.first_item_spans(
                    recorded["spans"], len(corpus.items[0].calls)),
            }})
            metrics = spans.layer_metrics(all_spans, recorded["counters"], imports,
                                          overhead, workers)
        print(json.dumps(detail))
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/bratskit/cli.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"run.py: not a bratskit checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
