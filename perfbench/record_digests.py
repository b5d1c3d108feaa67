"""Record the sha256 digest of every output the benchmark can make.

    python3 perfbench/record_digests.py [WORKLOAD ...]

Runs every pool entry of the named workloads (all four by default) once and
merges the digests into `digests.json`. Run it only when outputs are meant to
change; the benchmark counts any output that differs from its digest as a
failed call.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import corpus as corpus_mod  # noqa: E402
import run  # noqa: E402


def record(workload, work):
    digests = {}
    for n, selection in enumerate(corpus_mod.pool(workload)):
        sub = work / f"{workload}-{n}"
        corpus = corpus_mod.build(workload, sub, selection, workers=2)
        res = run.run_pass(sub, corpus, 0.0, "record", count=len(corpus.items))
        for item, codes in zip(corpus.items, res["codes"]):
            if codes != item.expect:
                raise SystemExit(f"{workload} {item.key}: exit codes {codes}, "
                                 f"expected {item.expect}")
            for rel in (rel for outputs in item.outputs for rel in outputs):
                digests[Path(rel).name] = check.sha256(sub / rel)
        if corpus.rank_out:
            digests[Path(corpus.rank_out).name] = check.sha256(sub / corpus.rank_out)
        shutil.rmtree(sub)
        print(workload, selection, "done", flush=True)
    return digests


def main(workloads):
    path = HERE / "digests.json"
    digests = json.loads(path.read_text()) if path.exists() else {}
    work = HERE.parent / ".bench_work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for workload in workloads:
            digests.update(record(workload, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path.write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:] or list(run.WORKLOADS))
