"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import math
import time

import numpy as np
import pytest

from factmine.cli import main as cli_main
from factmine.corpus import synth_corpus, write_corpus
from factmine.encoder import (
    TrainConfig,
    _batch_loss,
    encode_query,
    init_params,
    train,
)
from factmine.evaluator import (
    RetrievalRun,
    eval_retrieval,
    judge_relevance,
    mrr,
    oracle_retrieve,
)
from factmine.index import ExclusionPolicy, build_index, search, search_batch
from factmine.metrics import (
    chexbert_instance,
    chexbert_micro,
    factual_similarity,
    rouge_l,
)
from factmine.mining import MiningConfig, candidate_pairs, mine_pairs

from conftest import entity_graph
from reference import contrastive_loss, row_scores

NO_FILTER = ExclusionPolicy(exclude_self=False, exclude_same_patient=False, min_report_chars=0)


def report(n, detail):
    print(f"\nACCEPTANCE {n} PASS: {detail}")


# --- criterion 1: metric unit suite ---------------------------------------


def test_criterion_1_metric_unit_suite():
    start = time.monotonic()
    tol = 1e-9

    assert abs(factual_similarity(entity_graph("a", "b", "c"), entity_graph("b", "c", "d"))
               - 2 / 3) < tol
    g = entity_graph("a", "b")
    assert factual_similarity(g, g) == 1.0
    assert factual_similarity(entity_graph("a"), entity_graph("b")) == 0.0

    assert abs(chexbert_instance((1, 0, 1, 0, 0), (1, 0, 0, 0, 0)) - 0.8) < tol
    assert chexbert_instance((1, 0, 1, 0, 0), (1, 0, 1, 0, 0)) == 1.0
    assert chexbert_instance((1, 1, 1, 1, 1), (0, 0, 0, 0, 0)) == 0.0

    refs = [(1, 1, 0, 0, 0), (0, 0, 0, 0, 1)]
    hyps = [(1, 0, 0, 0, 0), (0, 0, 0, 1, 1)]
    assert abs(chexbert_micro(refs, hyps) - 2 / 3) < tol
    assert chexbert_micro(refs, refs) == 1.0
    assert chexbert_micro([(1, 0, 0, 0, 0)], [(0, 0, 0, 0, 0)]) == 0.0

    assert rouge_l("no acute findings", "no acute findings") == 1.0
    assert abs(rouge_l("no pleural effusion seen", "no effusion seen") - 6 / 7) < tol
    assert rouge_l("heart enlarged", "lungs clear") == 0.0

    # contrastive loss closed-form values (tau = 1)
    from test_encoder import axis_params, unit_doc

    params = axis_params()
    loss, _, _ = contrastive_loss(
        params, np.array([1.0, 0.0]), [unit_doc([1.0, 0.0])], [unit_doc([0.0, 1.0])]
    )
    assert abs(loss - math.log(1 + math.exp(-1))) < tol
    doc = unit_doc([1.0, 0.0])
    loss, _, _ = contrastive_loss(params, np.array([1.0, 0.0]), [doc], [doc])
    assert abs(loss - math.log(2)) < tol

    from factmine.evaluator import RelevanceJudgment

    run = RetrievalRun(
        {"q1": [("a", 3.0)], "q2": [("x", 3.0), ("b", 2.0)],
         "q3": [("x", 3.0), ("y", 2.0), ("z", 1.5), ("c", 1.0)]}
    )
    judged = RelevanceJudgment({"q1": {"a"}, "q2": {"b"}, "q3": {"c"}}, 0, 0)
    assert abs(mrr(run, judged) - (1 + 0.5 + 0.25) / 3) < tol

    elapsed = time.monotonic() - start
    assert elapsed < 10
    report(1, f"metric unit suite at 1e-9 tolerance in {elapsed:.2f}s")


# --- criterion 2: gradient check -------------------------------------------


def test_criterion_2_gradient_check():
    from test_encoder import central_differences, finite_difference_grads, max_relative_error

    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(100):
        d_img = int(rng.integers(2, 6))
        d_txt = int(rng.integers(2, 6))
        e = int(rng.integers(2, 9))
        params = init_params(trial, d_img, d_txt, e, temperature=float(rng.uniform(0.2, 1.5)))
        x = rng.normal(size=d_img)
        n_docs = int(rng.integers(2, 5))
        docs = [(rng.normal(size=d_img), rng.normal(size=d_txt)) for _ in range(n_docs)]
        n_pos = int(rng.integers(1, n_docs))
        _, gq, gd = contrastive_loss(params, x, docs[:n_pos], docs[n_pos:])
        fq, fd = finite_difference_grads(params, x, docs[:n_pos], docs[n_pos:], h=1e-5)
        worst = max(worst, max_relative_error(gq, fq), max_relative_error(gd, fd))

    # The training kernel: batches with a repeated document, stage-1 batches
    # (h = 0) and ragged masked hard-negative blocks, in turn.
    rng = np.random.default_rng(2025)
    for trial in range(100):
        d_img, d_txt, e = (int(v) for v in rng.integers(2, [6, 6, 9]))
        params = init_params(trial, d_img, d_txt, e, temperature=float(rng.uniform(0.2, 1.5)))
        b = int(rng.integers(2, 6))
        width = int(rng.integers(1, 4)) if trial % 3 == 2 else 0
        pool = rng.normal(size=(b + width, d_img + d_txt))
        x = rng.normal(size=(b, d_img))
        z = pool[:b].copy()
        if trial % 3 == 0:
            z[-1] = z[0]  # a positive that is also another row's negative
        hard = pool[rng.integers(0, len(pool), size=(b, width))]
        counts = rng.integers(0, width + 1, size=b)
        counts[0], counts[-1] = width, 0
        mask = np.arange(width) < counts[:, None]
        _, gq, gd = _batch_loss(params, x, z, hard, mask)
        fq, fd = central_differences(params, lambda p: _batch_loss(p, x, z, hard, mask)[0])
        worst = max(worst, max_relative_error(gq, fq), max_relative_error(gd, fd))
    elapsed = time.monotonic() - start
    assert worst < 1e-4
    assert elapsed < 30
    report(2, f"100 reference instances and 100 training batches, max relative error "
              f"{worst:.2e} in {elapsed:.1f}s")


# --- criterion 3: monotonicity suite ---------------------------------------


def test_criterion_3_monotonicity():
    start = time.monotonic()
    violations = 0
    for seed in range(50):
        corpus = synth_corpus(seed, 50)
        train_split = corpus.split("train")
        for query in train_split:
            loose = {d for d, _, _ in candidate_pairs(
                query, train_split, MiningConfig(chexbert_threshold=0.4, radgraph_threshold=0.1, top_k=10**6))}
            tight_delta = {d for d, _, _ in candidate_pairs(
                query, train_split, MiningConfig(chexbert_threshold=0.4, radgraph_threshold=0.5, top_k=10**6))}
            tight_theta = {d for d, _, _ in candidate_pairs(
                query, train_split, MiningConfig(chexbert_threshold=0.8, radgraph_threshold=0.1, top_k=10**6))}
            if not (tight_delta <= loose and tight_theta <= loose):
                violations += 1
        low = judge_relevance(corpus, 0.4, 0.1)
        high = judge_relevance(corpus, 0.8, 0.5)
        for qid in low.relevant:
            if not high.relevant[qid] <= low.relevant[qid]:
                violations += 1
    elapsed = time.monotonic() - start
    assert violations == 0
    assert elapsed < 60
    report(3, f"50 corpora, zero inclusion violations in {elapsed:.1f}s")


# --- criterion 4: exact-search oracle --------------------------------------


def test_criterion_4_exact_search_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(4)
    n, e, k = 1000, 32, 10
    matrix = rng.normal(size=(n, e))
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    from factmine.index import EmbeddingIndex

    index = EmbeddingIndex(
        [f"d{i:05d}" for i in range(n)], matrix,
        [f"p{i:05d}" for i in range(n)], [20] * n,
    )
    queries = rng.normal(size=(100, e))
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    identities = [(f"q{i}", f"qp{i}") for i in range(100)]
    batch = search_batch(index, list(queries), k, NO_FILTER, identities)
    for q, ident, got in zip(queries, identities, batch):
        # naive per-query scan: score everything, full sort, take the head
        scores = row_scores(index.matrix, q)
        naive = sorted(zip(index.doc_ids, scores), key=lambda t: (-t[1], t[0]))[:k]
        assert [(d, float(s)) for d, s in naive] == got  # bit-identical
        assert got == search(index, q, k, NO_FILTER, ident)
    elapsed = time.monotonic() - start
    assert elapsed < 30
    report(4, f"100 queries x n=1000 bit-identical to naive scan in {elapsed:.1f}s")


# --- criteria 5 & 6: learning sanity and oracle dominance -------------------

VAL_POLICY = NO_FILTER


def _evaluate(corpus, params):
    index = build_index(corpus, params, "train")
    results = {}
    for rec in corpus.split("validation"):
        q = encode_query(params, rec.image_features)
        results[rec.report_id] = search(
            index, q, len(index.doc_ids), VAL_POLICY, (rec.report_id, rec.patient_id)
        )
    run = RetrievalRun(results)
    judgments = judge_relevance(corpus, 0.6, 0.1, query_split="validation")
    score = eval_retrieval(run, corpus)
    rad1 = float(np.mean([
        factual_similarity(corpus[qid].graph, corpus[ranked[0][0]].graph)
        for qid, ranked in results.items()
    ]))
    return {"mrr": mrr(run, judgments), "chex": score.f1_chexbert_micro, "rad1": rad1, "run": run}


@pytest.fixture(scope="module")
def learning_runs():
    start = time.monotonic()
    runs = []
    for seed in range(5):
        corpus = synth_corpus(seed, 715)  # ~500 train / ~100 validation
        pairs = mine_pairs(corpus, MiningConfig(chexbert_threshold=0.6, radgraph_threshold=0.1))
        config = TrainConfig(
            learning_rate=0.05, batch_size=32, max_epochs=6, early_stop_patience=5,
            seed=seed, embedding_dim=64,
        )
        params, _ = train(corpus, pairs, config)
        baseline = init_params(seed, corpus.d_img, corpus.d_txt, 64)
        runs.append({
            "corpus": corpus,
            "params": params,
            "trained": _evaluate(corpus, params),
            "baseline": _evaluate(corpus, baseline),
        })
    return {"runs": runs, "elapsed": time.monotonic() - start}


def test_criterion_5_learning_sanity(learning_runs):
    runs, elapsed = learning_runs["runs"], learning_runs["elapsed"]
    for r in runs:
        assert r["trained"]["mrr"] > r["baseline"]["mrr"]
        assert r["trained"]["rad1"] > r["baseline"]["rad1"]
    chex_gain = np.mean([r["trained"]["chex"] - r["baseline"]["chex"] for r in runs])
    assert chex_gain >= 0.05
    assert elapsed < 300
    report(
        5,
        f"5 seeds: MRR/rad1 strictly improve, mean chexbert_micro gain "
        f"{chex_gain:.3f} >= 0.05, {elapsed:.0f}s",
    )


def test_criterion_6_oracle_dominance(learning_runs):
    checked = 0
    for r in learning_runs["runs"]:
        corpus = r["corpus"]
        for qid, ranked in r["trained"]["run"].results.items():
            query = corpus[qid]
            retrieved = corpus[ranked[0][0]]
            oracle_doc = corpus[oracle_retrieve(corpus, qid)[0]]

            def sum_score(doc):
                return chexbert_instance(query.labels, doc.labels) + factual_similarity(
                    query.graph, doc.graph
                )

            assert sum_score(oracle_doc) >= sum_score(retrieved)
            checked += 1
    report(6, f"oracle rank-1 sum-score dominates trained retriever on {checked}/{checked} queries")


# --- criterion 7: threshold saturation -------------------------------------


def test_criterion_7_threshold_saturation(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_corpus(synth_corpus(7, 120), tmp_path / "corpus.jsonl")
    assert cli_main([
        "sweep", "--corpus", "corpus.jsonl", "--output", "sweep.jsonl",
        "--chexbert-grid", "0,0.4,0.8,1.0", "--radgraph-grid", "0,0.2,0.4,0.6,0.8",
    ]) == 0
    rows = [json.loads(l) for l in (tmp_path / "sweep.jsonl").read_text().splitlines()]
    assert len(rows) == 20
    table = {(r["chexbert_threshold"], r["radgraph_threshold"]): r for r in rows}
    thetas, deltas = (0.0, 0.4, 0.8, 1.0), (0.0, 0.2, 0.4, 0.6, 0.8)
    for theta in thetas:
        means = [table[(theta, d)]["mean_pairs_per_query"] for d in deltas]
        assert all(a >= b for a, b in zip(means, means[1:]))
    for delta in deltas:
        means = [table[(t, delta)]["mean_pairs_per_query"] for t in thetas]
        assert all(a >= b for a, b in zip(means, means[1:]))
    loosest = table[(0.0, 0.0)]
    strictest = table[(1.0, 0.8)]
    assert strictest["mean_pairs_per_query"] < loosest["mean_pairs_per_query"]
    assert strictest["zero_pair_fraction"] > loosest["zero_pair_fraction"]
    report(
        7,
        "sweep non-increasing in both thresholds; strictest config excludes "
        f"pairs for {strictest['zero_pair_fraction']:.0%} of queries",
    )


# --- criterion 8: end-to-end determinism -----------------------------------


def test_criterion_8_end_to_end_determinism(tmp_path, monkeypatch):
    artifacts = ("pairs.tsv", "enc.ckpt", "run.tsv", "eval.json")
    outputs = {}
    for name in ("one", "two"):
        d = tmp_path / name
        d.mkdir()
        monkeypatch.chdir(d)
        write_corpus(synth_corpus(7, 80), d / "corpus.jsonl")
        for argv in (
            ["mine", "--corpus", "corpus.jsonl", "--pairs", "pairs.tsv",
             "--chexbert-threshold", "0.6", "--radgraph-threshold", "0.1"],
            ["train", "--corpus", "corpus.jsonl", "--pairs", "pairs.tsv",
             "--checkpoint", "enc.ckpt", "--seed", "7", "--learning-rate", "0.05",
             "--max-epochs", "3", "--embedding-dim", "16"],
            ["index", "--corpus", "corpus.jsonl", "--checkpoint", "enc.ckpt",
             "--index", "docs.idx"],
            ["retrieve", "--corpus", "corpus.jsonl", "--checkpoint", "enc.ckpt",
             "--index", "docs.idx", "--run", "run.tsv", "--k", "5",
             "--min-report-chars", "0"],
            ["eval", "--corpus", "corpus.jsonl", "--run", "run.tsv",
             "--output", "eval.json"],
        ):
            assert cli_main(argv) == 0
        outputs[name] = {f: (d / f).read_bytes() for f in artifacts}
    assert outputs["one"] == outputs["two"]
    report(8, "two identical-seed pipeline runs produced byte-identical artifacts")
