"""The factmine benchmark: one command, three workloads.

    python3 bench/run.py --workload mine|train|serve --seed N --seconds S --trace 0|1

Run from the root of a checkout; factmine is imported from its `src`.
Each run generates its inputs from the seed in one process, measures the
import time in a few more, runs the workload in a fresh process of its
own, then checks every output with code that does not import factmine.
The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`, the end-to-end metrics with
`--trace 0` and the per-layer metrics with `--trace 1`. See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import common  # noqa: E402

IMPORT_PROBES = 6  # fresh processes that only import factmine
DEADLINE_S = 170   # every run ends well within 180 s

IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import factmine, factmine.cli\n"
    "print(time.perf_counter() - t)\n"
)

def _child(argv, started):
    """Run one child process to its end within the run's deadline."""
    left = DEADLINE_S - (time.monotonic() - started)
    proc = subprocess.Popen(argv, env=common.child_env(), cwd=common.ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, left))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"{os.path.basename(argv[1])} did not finish in time")
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:3])} exited {proc.returncode}")
    return out


def _check(workload, files):
    import checks

    c = checks.Corpus(files.corpus)
    outputs = {name: files.path(name) for name in (
        "sweep.jsonl", "train.log", "run.tsv", "eval.json", "oracle.tsv",
        "rag.jsonl", "queries.json", "batch.json")}
    if workload == "mine":
        with open(outputs["queries.json"], encoding="utf-8") as fh:
            queries = json.load(fh)
        with open(outputs["batch.json"], encoding="utf-8") as fh:
            batches = json.load(fh)
        errors = checks.check_mine(c, files.pairs, outputs["sweep.jsonl"], queries, batches)
        return errors, checks.mine_mrr(c, files.pairs)
    if workload == "train":
        return checks.check_train(c, files, outputs)
    return checks.check_serve(c, files, outputs)


def end_to_end(result, imports, mrr):
    """Timings average over the whole run: this shared machine switches
    between speed phases lasting seconds, and a median or tail taken over
    all of a run's operations jumps from one phase to another between
    runs. So p50 is the mean of the medians of blocks of queries, and p95
    the mean of each round's 95th percentile."""
    rounds = result["rounds"]
    if any(len(r["latency_ms"]) < 200 for r in rounds):
        raise SystemExit("a round timed fewer than 200 queries; its p95 needs 200")
    latencies = [x for r in rounds for x in r["latency_ms"]]
    blocks = [latencies[i:i + common.BATCH_BLOCK]
              for i in range(0, len(latencies), common.BATCH_BLOCK)]
    batches = [b for r in rounds for b in r["batch"]]
    return {
        "setup_s": statistics.median(imports) + statistics.median(result["setup_s"]),
        "job_s": statistics.mean(r["job_s"] for r in rounds),
        "peak_rss_mb": result["peak_rss_mb"],
        "mrr": mrr,
        "query_p50_ms": statistics.mean(statistics.median(b) for b in blocks),
        "query_p95_ms": statistics.mean(
            statistics.quantiles(r["latency_ms"], n=20)[18] for r in rounds),
        "batch_qps": sum(n for n, _ in batches) / sum(t for _, t in batches),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("mine", "train", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not os.path.isfile(os.path.join(common.SRC, "factmine", "__init__.py")):
        print(f"no factmine package under {common.SRC}", file=sys.stderr)
        return 2

    work = os.path.join(BENCH_DIR, "_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    files = common.Inputs(work)
    py = common.python()
    _child([py, os.path.join(BENCH_DIR, "gen.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--out", work], started)
    imports = [float(_child([py, "-c", IMPORT_PROBE], started))
               for _ in range(IMPORT_PROBES)]
    _child([py, os.path.join(BENCH_DIR, "workload.py"), "--workload", args.workload,
            "--dir", work, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)], started)
    with open(files.result, encoding="utf-8") as fh:
        result = json.load(fh)
    imports.append(result["import_s"])

    errors, mrr = _check(args.workload, files)
    digests = {r["digest"] for r in result["rounds"]}
    if len(digests) != 1:
        errors.append(f"{len(digests)} different outputs from {len(result['rounds'])} rounds")
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)

    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    values = result["per_layer"] if args.trace else end_to_end(result, imports, mrr)
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in declared}
    width = max(map(len, metrics))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:6} {name:{width}} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in result["rounds"]),
        "failed": sum(r["failed"] for r in result["rounds"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
