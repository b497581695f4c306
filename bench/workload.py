"""One workload, run in a fresh process on inputs made beforehand.

    python3 bench/workload.py --workload serve --dir DIR --seconds 25 --trace 0

It times the import of factmine and the set-up, then runs whole rounds
of the workload's operations until `--seconds` have passed, and writes
`result.json` and the outputs the checks read into DIR. Only the
standard library is imported before factmine, so the import time holds
numpy's import as a user would pay it.

With `--trace 1` the first half of the time runs untraced and the second
half traced, so the difference in job time is the tracing overhead.
"""

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import common  # noqa: E402

SETUP_REPEATS = 3


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str) and os.path.exists(part):
            with open(part, "rb") as fh:
                h.update(fh.read())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def _log_without_clock(path):
    """Training log entries without `wall_ms`, the one field that varies."""
    with open(path, encoding="utf-8") as fh:
        return [{k: v for k, v in json.loads(line).items() if k != "wall_ms"} for line in fh]


class Workload:
    """Base: the timing loop shared by the three workloads."""

    def __init__(self, fm, files):
        self.fm = fm
        self.files = files
        self.tracer = None

    def span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def cli(self, command, *flags):
        """One call into `factmine.cli.main`; returns 1 if it failed."""
        with self.span(f"cli.{command.replace('-', '_')}"):
            code = self.fm.cli.main([command, *flags])
        return 0 if code == 0 else 1

    def interleave(self, n, single, batch, batch_queries=None):
        """`single(i)` for i < n in blocks of `BATCH_BLOCK`, each block
        followed by one `batch(block)` call; interleaving keeps both
        sampling the same moments of a shared machine. A batch call serves
        `batch_queries` queries, by default the block's."""
        singles, batches, latencies, sizes = [], [], [], []
        for lo in range(0, n, common.BATCH_BLOCK):
            block = range(lo, min(lo + common.BATCH_BLOCK, n))
            with self.span("bench.queries"):
                for i in block:
                    t = time.perf_counter()
                    singles.append(single(i))
                    latencies.append((time.perf_counter() - t) * 1e3)
            with self.span("bench.batch"):
                t = time.perf_counter()
                batches.append(batch(block))
                sizes.append([batch_queries or len(block), time.perf_counter() - t])
        return singles, batches, latencies, sizes

    def serve(self, index, params, records):
        """Top-k `search` per record and `search_batch` over blocks of them."""
        fm, policy = self.fm, self.policy
        queries = [fm.encoder.encode_query(params, r.image_features) for r in records]
        who = [(r.report_id, r.patient_id) for r in records]
        singles, batches, latencies, sizes = self.interleave(
            len(records),
            lambda i: fm.index.search(index, queries[i], common.K, policy, who[i]),
            lambda block: fm.index.search_batch(index, [queries[i] for i in block], common.K,
                                                policy, [who[i] for i in block]))
        batches = [ranked for batch in batches for ranked in batch]
        return singles, batches, latencies, sizes


class Mine(Workload):
    """`factmine mine` and `factmine sweep`; then blocks of per-query
    candidate mining, each followed by one bulk `mine_pairs` call, in
    process."""

    def setup(self):
        self.corpus = self.fm.corpus.load_corpus(self.files.corpus)

    def round(self):
        f, fm = self.files, self.fm
        sweep = f.path("sweep.jsonl")
        t = time.perf_counter()
        failed = self.cli("mine", "--corpus", f.corpus, "--pairs", f.pairs, *common.MINE_FLAGS)
        failed += self.cli(
            "sweep", "--corpus", f.corpus, "--output", sweep,
            "--chexbert-grid", ",".join(map(str, common.SWEEP_CHEXBERT)),
            "--radgraph-grid", ",".join(map(str, common.SWEEP_RADGRAPH)),
            "--top-k", str(common.MINING["top_k"]),
        )
        job_s = time.perf_counter() - t

        config = fm.mining.MiningConfig(**common.MINING)
        train = self.corpus.split("train")
        queries = [train[i % len(train)] for i in range(common.QUERIES)]
        singles, batches, latencies, sizes = self.interleave(
            len(queries),
            lambda i: fm.mining.candidate_pairs(queries[i], train, config)[: config.top_k],
            lambda block: fm.mining.mine_pairs(self.corpus, config),
            batch_queries=len(train))
        singles = [[q.report_id, kept] for q, kept in zip(queries, singles)]
        batches = [{q: [[p.doc_id, p.rank, p.rad_score, p.chex_score] for p in ps]
                    for q, ps in sorted(pair_set.pairs.items())} for pair_set in batches]
        self.outputs = {"queries.json": singles, "batch.json": batches}
        return {
            "job_s": job_s, "latency_ms": latencies, "batch": sizes,
            "attempted": 2 + len(queries) + len(sizes), "failed": failed,
            "digest": _digest(f.pairs, sweep, singles, batches),
        }


class Train(Workload):
    """`factmine train` then index, retrieve, eval, oracle and build-rag;
    after each command from index on, the trained retriever serves the
    test queries in process."""

    def setup(self):
        self.corpus = self.fm.corpus.load_corpus(self.files.corpus)
        self.policy = self.fm.index.ExclusionPolicy(**common.POLICY)

    def round(self):
        f, fm = self.files, self.fm
        cfg = common.TRAIN
        out = {name: f.path(name) for name in
               ("train.log", "docs.idx", "run.tsv", "eval.json", "oracle.tsv", "rag.jsonl")}
        commands = [
            ["train", "--corpus", f.corpus, "--pairs", f.pairs, "--checkpoint", f.checkpoint,
             "--log", out["train.log"], "--seed", str(self.seed),
             *(arg for key in ("learning_rate", "batch_size", "max_epochs",
                               "early_stop_patience", "hard_negative_k", "embedding_dim",
                               "temperature")
               for arg in ("--" + key.replace("_", "-"), str(cfg[key])))],
            ["index", "--corpus", f.corpus, "--checkpoint", f.checkpoint,
             "--index", out["docs.idx"]],
            ["retrieve", "--corpus", f.corpus, "--checkpoint", f.checkpoint,
             "--index", out["docs.idx"], "--run", out["run.tsv"], "--k", str(common.K)],
            ["eval", "--corpus", f.corpus, "--run", out["run.tsv"], "--output", out["eval.json"]],
            ["oracle", "--corpus", f.corpus, "--run", out["oracle.tsv"]],
            ["build-rag", "--corpus", f.corpus, "--checkpoint", f.checkpoint,
             "--output", out["rag.jsonl"], "--mode", "rag"],
        ]
        test = self.corpus.split("test")
        job_s, failed = 0.0, 0
        singles, batches, latencies, sizes = [], [], [], []
        for argv in commands:
            t = time.perf_counter()
            failed += self.cli(*argv)
            job_s += time.perf_counter() - t
            if argv[0] == "train":
                params = fm.encoder.load_params(f.checkpoint)
                index = fm.index.build_index(self.corpus, params, "train")
                continue
            # A pass over the test queries after each later command spreads
            # the timed searches over the round.
            for acc, part in zip((singles, batches, latencies, sizes),
                                 self.serve(index, params, test)):
                acc += part
        ids = [r.report_id for r in test] * (len(commands) - 1)
        self.outputs = {"queries.json": [ids, singles], "batch.json": [ids, batches]}
        return {
            "job_s": job_s, "latency_ms": latencies, "batch": sizes,
            "attempted": len(commands) + len(ids) + len(sizes), "failed": failed,
            "digest": _digest(f.checkpoint, *(out[k] for k in out if k != "train.log"),
                              _log_without_clock(out["train.log"]), singles, batches),
        }


class Serve(Workload):
    """Single `search` calls and `search_batch` blocks over a train-split
    index built from a saved checkpoint."""

    def setup(self):
        fm = self.fm
        self.corpus = self.index = None  # let the previous repeat's go first
        self.corpus = fm.corpus.load_corpus(self.files.corpus)
        self.params = fm.encoder.load_params(self.files.checkpoint)
        self.index = fm.index.build_index(self.corpus, self.params, "train")
        self.policy = fm.index.ExclusionPolicy(**common.POLICY)

    def round(self):
        records = self.corpus.split("test")[: common.QUERIES]
        t = time.perf_counter()
        singles, batches, latencies, sizes = self.serve(self.index, self.params, records)
        job_s = time.perf_counter() - t
        ids = [r.report_id for r in records]
        self.outputs = {"queries.json": [ids, singles], "batch.json": [ids, batches]}
        return {
            "job_s": job_s, "latency_ms": latencies, "batch": sizes,
            "attempted": len(records) + len(sizes), "failed": 0,
            "digest": _digest(singles, batches),
        }


WORKLOADS = {"mine": Mine, "train": Train, "serve": Serve}


def _rounds(workload, seconds, traced):
    """Whole rounds, at least one, until less than half a round of the
    `seconds` is left, so a run lasts `seconds` give or take half a round."""
    rounds = []
    start = time.perf_counter()
    while not rounds or (time.perf_counter() - start) * (1 + 0.5 / len(rounds)) < seconds:
        tracer = workload.tracer
        mark = (len(tracer.name), tracer.pairs_scored, tracer.pairs_kept) if tracer else None
        with workload.span("bench.round"):
            result = workload.round()
        result["traced"] = traced
        if tracer:
            result["span_range"] = [mark[0], len(tracer.name)]
            result["pairs_scored"] = tracer.pairs_scored - mark[1]
            result["pairs_kept"] = tracer.pairs_kept - mark[2]
        rounds.append(result)
    return rounds


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    files = common.Inputs(args.dir)

    t = time.perf_counter()
    import factmine
    import factmine.cli
    import_s = time.perf_counter() - t
    common.require_checkout_package()

    workload = WORKLOADS[args.workload](factmine, files)
    workload.seed = args.seed
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - t)

    if args.trace:
        import tracer as tracing

        rounds = _rounds(workload, args.seconds / 2, traced=False)
        tracer = workload.tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            with tracer.span("bench.setup"):
                workload.setup()
            traced_setup = [0, len(tracer.name)]
            rounds += _rounds(workload, args.seconds / 2, traced=True)
        finally:
            uninstall()
        tracer.save(files.spans)
    else:
        rounds = _rounds(workload, args.seconds, traced=False)

    for name, value in workload.outputs.items():
        with open(files.path(name), "w", encoding="utf-8") as fh:
            json.dump(value, fh)
    result = {
        "import_s": import_s,
        "setup_s": setup_s,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        result["per_layer"] = per_layer(tracer, traced_setup, rounds)
    with open(files.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


CLI_COMMANDS = ("mine", "sweep", "train", "index", "retrieve", "eval", "oracle", "build_rag")


def per_layer(tracer, setup_range, rounds):
    """Per-layer metrics of one traced set-up plus one traced round
    (medians over traced rounds), and the tracing overhead against the
    untraced rounds."""
    import numpy as np
    import tracer as tracing

    spans = tracing.Spans(tracer)
    per_round = []
    for r in rounds:
        if not r["traced"]:
            continue
        ids = np.r_[setup_range[0]:setup_range[1], r["span_range"][0]:r["span_range"][1]]
        tot = spans.totals(ids)

        def secs(name):
            return tot.get(name, (0.0, 0))[0]

        def calls(name):
            return tot.get(name, (0.0, 0))[1]

        epochs = spans.epoch_times(ids)
        m = {
            "corpus.load_s": secs("corpus.load_corpus"),
            "corpus.load_calls": calls("corpus.load_corpus"),
            "corpus.normalize_calls": calls("corpus.normalize_entity"),
            "metrics.fact_items_calls": calls("metrics.fact_items"),
            "metrics.factual_similarity_calls": calls("metrics.factual_similarity"),
            "metrics.chexbert_instance_calls": calls("metrics.chexbert_instance"),
            "mining.mine_s": secs("mining.mine_pairs"),
            "mining.sweep_s": secs("mining.threshold_sweep"),
            "mining.pairs_scored": r["pairs_scored"],
            "mining.pairs_kept": r["pairs_kept"],
            "mining.kept_per_scored": r["pairs_kept"] / r["pairs_scored"] if r["pairs_scored"] else 0.0,
            "evaluator.judge_s": secs("evaluator.judge_relevance"),
            "evaluator.judge_calls": calls("evaluator.judge_relevance"),
            "evaluator.oracle_s": secs("evaluator.oracle_retrieve"),
            "evaluator.oracle_calls": calls("evaluator.oracle_retrieve"),
            "evaluator.eval_s": secs("evaluator.eval_retrieval"),
            "encoder.train_s": secs("encoder.train"),
            "encoder.epoch_s": statistics.median(epochs) if epochs else 0.0,
            "encoder.epochs": len(epochs),
            "encoder.loss_s": secs("encoder.contrastive_loss"),
            "encoder.loss_calls": calls("encoder.contrastive_loss"),
            "encoder.encode_calls": calls("encoder.encode_query") + calls("encoder.encode_doc"),
            "index.build_s": secs("index.build_index"),
            "index.search_s": secs("index.search"),
            "index.search_calls": calls("index.search"),
            "index.batch_s": secs("index.search_batch"),
            "index.full_rank_s": secs("index.full_rank"),
            "index.full_rank_calls": calls("index.full_rank"),
            "ragdata.build_s": secs("ragdata.build_rag_dataset"),
            "cli.provenance_s": secs("cli.write_provenance"),
            "trace.spans": len(ids),
        }
        m["metrics.fact_items_per_similarity"] = (
            m["metrics.fact_items_calls"] / m["metrics.factual_similarity_calls"]
            if m["metrics.factual_similarity_calls"] else 0.0)
        for command in CLI_COMMANDS:
            m[f"cli.{command}_s"] = secs(f"cli.{command}")
        for layer, own in spans.self_times(ids).items():
            m[f"{layer}.self_s"] = own
        per_round.append(m)
    out = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    plain = statistics.mean(r["job_s"] for r in rounds if not r["traced"])
    traced = statistics.mean(r["job_s"] for r in rounds if r["traced"])
    out["trace.overhead_s"] = traced - plain
    out["trace.overhead_share"] = (traced - plain) / plain
    return out


if __name__ == "__main__":
    sys.exit(main())
