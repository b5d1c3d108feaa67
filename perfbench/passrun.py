"""One measured pass, run in its own process so its peak RSS excludes set-up.

Usage: python3 passrun.py PLAN.json RESULT.json

The plan names the items (each a list of CLI argv lists), the time budget, the
minimum and maximum item counts, the `rank` call that follows the items (if
any) and, for a traced pass, the file the spans are written to. Every call
goes through `bratskit.cli.main(argv)` in this process.
"""

import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def run_pass(plan):
    import bratskit.cli

    recorder = None
    if plan["spans_out"]:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder, spans.PASS_LAYERS)

    items = plan["items"]
    executed, latencies, codes = [], [], []
    start = time.perf_counter()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        while len(executed) < plan["max_items"] and (
            len(executed) < plan["min_items"] or time.perf_counter() - start < plan["seconds"]
        ):
            index = len(executed) % len(items)
            t0 = time.perf_counter()
            codes.append([bratskit.cli.main(argv) for argv in items[index]["calls"]])
            latencies.append(time.perf_counter() - t0)
            executed.append(index)
        wall = time.perf_counter() - start
        rank_s, rank_codes = [], []
        for _ in range(plan["rank_repeats"] if plan["rank"] else 0):
            t0 = time.perf_counter()
            rank_codes.append(bratskit.cli.main(plan["rank"]))
            rank_s.append(time.perf_counter() - t0)

    if recorder is not None:
        recorder.dump(plan["spans_out"])
    # ru_maxrss is in KiB on Linux; the children figure is the largest reaped
    # pool worker.
    peak_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {"executed": executed, "latencies": latencies, "codes": codes, "wall_s": wall,
            "rank_s": rank_s, "rank_codes": rank_codes, "peak_rss_mb": peak_kib / 1024.0}


if __name__ == "__main__":
    plan = json.loads(Path(sys.argv[1]).read_text())
    Path(sys.argv[2]).write_text(json.dumps(run_pass(plan)))
