from fractions import Fraction

import numpy as np
import pytest

from factmine.corpus import synth_corpus
from factmine.encoder import init_params
from factmine.errors import MissingResult
from factmine.evaluator import (
    RelevanceJudgment,
    RetrievalRun,
    _mean_reciprocal_rank,
    _relevant_rows,
    eval_retrieval,
    judge_relevance,
    mrr,
    oracle_retrieve,
    read_run,
    write_run,
)
from factmine.index import build_index
from factmine.metrics import chexbert_instance, factual_similarity

from conftest import entity_graph, make_corpus, make_record


def test_self_retrieval_upper_bound():
    corpus = synth_corpus(1, 20)
    run = RetrievalRun({r.report_id: [(r.report_id, 1.0)] for r in corpus.records})
    score = eval_retrieval(run, corpus)
    assert score.f1_chexbert_micro == 1.0
    assert score.f1_radgraph_mean == pytest.approx(1.0)
    assert score.rouge_l_mean == pytest.approx(1.0)


def test_eval_single_query_degenerates_to_instance_scores(tiny_corpus):
    run = RetrievalRun({"s1": [("s2", 0.9)]})
    score = eval_retrieval(run, corpus=tiny_corpus)
    q, d = tiny_corpus["s1"], tiny_corpus["s2"]
    assert score.f1_radgraph_mean == pytest.approx(factual_similarity(q.graph, d.graph))


def test_eval_missing_result():
    corpus = synth_corpus(1, 10)
    run = RetrievalRun({corpus.records[0].report_id: []})
    with pytest.raises(MissingResult):
        eval_retrieval(run, corpus)


def test_random_rankings_score_near_base_rate():
    # label-uncorrelated corpus: random rank-1 picks should average to the
    # all-pairs mean graph overlap (Monte-Carlo oracle over 100 run seeds)
    rng = np.random.default_rng(0)
    records = []
    for i in range(30):
        tokens = [f"t{j}" for j in rng.choice(40, size=5, replace=False)]
        records.append(
            make_record(
                f"s{i:03d}",
                labels=tuple(int(v) for v in rng.integers(0, 2, size=5)),
                graph=entity_graph(*tokens),
            )
        )
    corpus = make_corpus(records)
    ids = [r.report_id for r in records]
    pair_scores = [
        factual_similarity(corpus[a].graph, corpus[b].graph)
        for a in ids
        for b in ids
        if a != b
    ]
    base_rate = np.mean(pair_scores)
    samples = []
    for seed in range(100):
        pick = np.random.default_rng(seed)
        run = RetrievalRun(
            {a: [(ids[pick.integers(len(ids))], 0.0)] for a in ids}
        )
        samples.append(eval_retrieval(run, corpus).f1_radgraph_mean)
    # includes occasional self-picks, which pull the mean up slightly
    assert abs(np.mean(samples) - base_rate) < 0.05


# --- judgments and mrr -----------------------------------------------------


def test_judge_relevance_floor_and_ceiling(tiny_corpus):
    floor = judge_relevance(tiny_corpus, 0.0, 0.0, query_split="train")
    assert floor.relevant["s1"] == {"s2"}  # only graph-overlapping doc
    ceiling = judge_relevance(tiny_corpus, 1.0, 0.99, query_split="train")
    assert all(not v for v in ceiling.relevant.values())


def test_judge_relevance_monotone():
    corpus = synth_corpus(8, 40)
    loose = judge_relevance(corpus, 0.4, 0.1)
    tight = judge_relevance(corpus, 0.8, 0.1)
    for qid in loose.relevant:
        assert tight.relevant[qid] <= loose.relevant[qid]


def test_mrr_direct_formula():
    judgments = RelevanceJudgment({"q1": {"a"}, "q2": {"b"}, "q3": {"c"}}, 0, 0)
    run = RetrievalRun(
        {
            "q1": [("a", 0.9)],
            "q2": [("x", 0.9), ("b", 0.8)],
            "q3": [("x", 0.9), ("y", 0.8), ("z", 0.7), ("c", 0.6)],
        }
    )
    assert mrr(run, judgments) == pytest.approx((1 + 0.5 + 0.25) / 3)


def test_mrr_bounds():
    run = RetrievalRun({"q": [("a", 1.0)]})
    assert mrr(run, RelevanceJudgment({"q": {"a"}}, 0, 0)) == 1.0
    assert mrr(run, RelevanceJudgment({"q": set()}, 0, 0)) == 0.0


def test_mrr_dropped_unjudged_variant():
    run = RetrievalRun({"q1": [("a", 1.0)], "q2": [("b", 1.0)]})
    judgments = RelevanceJudgment({"q1": {"a"}, "q2": set()}, 0, 0)
    assert mrr(run, judgments) == pytest.approx(0.5)
    assert mrr(run, judgments, drop_unjudged=True) == 1.0


# --- oracle ----------------------------------------------------------------


def oracle_fixture():
    # candidate sums: a -> 1.0 + 0.3, b -> 0.8 + 0.9, c -> 1.0 + 0.35
    q_tokens = [f"t{i}" for i in range(10)]
    query = make_record("q", labels=(1, 1, 1, 1, 1), graph=entity_graph(*q_tokens), split="test")
    a = make_record(
        "a", labels=(1, 1, 1, 1, 1),
        graph=entity_graph(*q_tokens[:3], *[f"a{i}" for i in range(7)]),  # dice 0.3
    )
    b = make_record(
        "b", labels=(1, 1, 1, 1, 0),
        graph=entity_graph(*q_tokens[:9], "bx"),  # dice 0.9
    )
    c = make_record(
        "c", labels=(1, 1, 1, 1, 1),
        graph=entity_graph(*q_tokens[:7], *[f"c{i}" for i in range(23)]),  # dice 0.35
    )
    return make_corpus([query, a, b, c])


def test_oracle_argmax_of_sums():
    corpus = oracle_fixture()
    assert factual_similarity(corpus["q"].graph, corpus["a"].graph) == pytest.approx(0.3)
    assert factual_similarity(corpus["q"].graph, corpus["b"].graph) == pytest.approx(0.9)
    assert factual_similarity(corpus["q"].graph, corpus["c"].graph) == pytest.approx(0.35)
    assert oracle_retrieve(corpus, "q")[0] == "b"


def test_oracle_exact_duplicate_wins():
    corpus = oracle_fixture()
    dup = make_record("dup", labels=(1, 1, 1, 1, 1), graph=corpus["q"].graph)
    corpus = make_corpus(corpus.records + [dup])
    assert oracle_retrieve(corpus, "q")[0] == "dup"
    doc = corpus["dup"]
    total = chexbert_instance(corpus["q"].labels, doc.labels) + factual_similarity(
        corpus["q"].graph, doc.graph
    )
    assert total == pytest.approx(2.0)


def test_oracle_train_query_excludes_self():
    corpus = synth_corpus(4, 20)
    for rec in corpus.split("train"):
        assert oracle_retrieve(corpus, rec.report_id)[0] != rec.report_id


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_oracle_score_is_the_summed_reference_score(seed):
    corpus = synth_corpus(seed, 30)
    train = corpus.split("train")
    for rec in corpus.records:
        doc_id, score = oracle_retrieve(corpus, rec.report_id)
        doc = corpus[doc_id]
        assert score == chexbert_instance(rec.labels, doc.labels) + factual_similarity(
            rec.graph, doc.graph
        )
        best = max(
            chexbert_instance(rec.labels, d.labels) + factual_similarity(rec.graph, d.graph)
            for d in train
            if d.report_id != rec.report_id
        )
        assert score == best


@pytest.mark.parametrize("seed", [1, 2])
def test_judge_relevance_equals_reference_filter(seed):
    corpus = synth_corpus(seed, 30)
    judged = judge_relevance(corpus, 0.6, 0.1)
    for query in corpus.records:
        assert judged.relevant[query.report_id] == {
            doc.report_id
            for doc in corpus.split("train")
            if doc.report_id != query.report_id
            and chexbert_instance(query.labels, doc.labels) >= 0.6
            and factual_similarity(query.graph, doc.graph) > 0.1
        }


@pytest.mark.parametrize("split", ["validation", "test", None], ids=["validation", "test", "all"])
@pytest.mark.parametrize("thresholds", [(0.0, 0.0), (0.6, 0.1), (1.0, 1.0)],
                         ids=["0-0", "0.6-0.1", "1-1"])
def test_relevant_rows_are_judged_ids_as_index_rows(thresholds, split):
    # 150 records, so the all-record queries span two blocks of the fact index
    corpus = synth_corpus(3, 150)
    queries = corpus.records if split is None else corpus.split(split)
    judged = judge_relevance(corpus, *thresholds, query_split=split).relevant
    index = build_index(corpus, init_params(0, corpus.d_img, corpus.d_txt, 4), "train")
    row = {doc_id: i for i, doc_id in enumerate(index.doc_ids)}
    got = list(_relevant_rows(corpus, *thresholds, queries))
    assert len(got) == len(queries)
    for query, rows in zip(queries, got):
        assert rows.tolist() == sorted(row[doc_id] for doc_id in judged[query.report_id])


def test_oracle_dominates_any_run():
    corpus = synth_corpus(12, 30)

    def sum_score(qid, did):
        q, d = corpus[qid], corpus[did]
        return chexbert_instance(q.labels, d.labels) + factual_similarity(q.graph, d.graph)

    rng = np.random.default_rng(0)
    train_ids = [r.report_id for r in corpus.split("train")]
    for rec in corpus.split("test"):
        oracle_score = sum_score(rec.report_id, oracle_retrieve(corpus, rec.report_id)[0])
        arbitrary = train_ids[rng.integers(len(train_ids))]
        assert oracle_score >= sum_score(rec.report_id, arbitrary)


# --- persistence -----------------------------------------------------------


def test_run_file_roundtrip(tmp_path):
    corpus = synth_corpus(3, 15)
    run = RetrievalRun(
        {r.report_id: [(corpus.records[0].report_id, 0.123456789)] for r in corpus.records},
        provenance={"k": 1},
    )
    path = tmp_path / "run.tsv"
    write_run(run, path)
    back = read_run(path)
    assert back.results == run.results
    assert back.provenance == run.provenance
    before = eval_retrieval(run, corpus)
    after = eval_retrieval(back, corpus)
    assert (before.f1_chexbert_micro, before.f1_radgraph_mean, before.rouge_l_mean) == (
        after.f1_chexbert_micro,
        after.f1_radgraph_mean,
        after.rouge_l_mean,
    )


def test_mean_reciprocal_rank_is_the_rounded_exact_mean_in_any_order():
    ranks = [3, 7, 1, 0, 11, 6, 9, 13, 2, 0, 17, 3, 5, 19]
    firsts = [(rank > 0 or i % 3 == 0, rank) for i, rank in enumerate(ranks)]
    for drop_unjudged in (False, True):
        kept = [rank for judged, rank in firsts if judged or not drop_unjudged]
        want = float(sum(Fraction(1.0 / rank) for rank in kept if rank)) / len(kept)
        rng = np.random.default_rng(0)
        for _ in range(20):
            order = rng.permutation(len(firsts))
            got = _mean_reciprocal_rank([firsts[i] for i in order], drop_unjudged)
            assert got.hex() == want.hex()
    assert _mean_reciprocal_rank([(False, 0)], drop_unjudged=True) == 0.0
