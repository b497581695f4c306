"""Exact top-k retrieval, factual evaluation, and the oracle upper bound.

Run: python demos/03_retrieval_evaluation.py
"""

from factmine import (
    ExclusionPolicy,
    MiningConfig,
    RetrievalRun,
    TrainConfig,
    build_index,
    encode_queries,
    eval_retrieval,
    judge_relevance,
    mine_pairs,
    mrr,
    oracle_retrieve,
    search_batch,
    synth_corpus,
    train,
)

corpus = synth_corpus(seed=3, n=300)
pairs = mine_pairs(corpus, MiningConfig(chexbert_threshold=0.6, radgraph_threshold=0.1))
params, _ = train(
    corpus, pairs,
    TrainConfig(learning_rate=0.05, max_epochs=5, seed=3, embedding_dim=64),
)

# Retrieval corpus is always the train split; test queries bring images only.
index = build_index(corpus, params, "train")
policy = ExclusionPolicy(exclude_self=False, exclude_same_patient=False, min_report_chars=0)
# One call encodes the whole test split and one batch call ranks it, each
# query as `encode_query` and `search` would.
test = corpus.split("test")
ranked = search_batch(
    index,
    encode_queries(params, corpus.inputs[corpus.rows("test"), : corpus.d_img]),
    10,
    policy,
    [(rec.report_id, rec.patient_id) for rec in test],
)
run = RetrievalRun({rec.report_id: hits for rec, hits in zip(test, ranked)})

score = eval_retrieval(run, corpus)
judgments = judge_relevance(corpus, 0.6, 0.1, query_split="test")
print("rank-1 retrieved report scored against each query's ground truth:")
print(f"  micro label F1:      {score.f1_chexbert_micro:.3f}")
print(f"  mean graph overlap:  {score.f1_radgraph_mean:.3f}")
print(f"  mean ROUGE-L:        {score.rouge_l_mean:.3f}")
print(f"  MRR:                 {mrr(run, judgments):.3f}")

# The oracle retriever sees the ground truth and picks the argmax of
# (label agreement + graph overlap); no retriever can beat it per query.
oracle_results = {
    rec.report_id: [oracle_retrieve(corpus, rec.report_id)] for rec in corpus.split("test")
}
oracle_score = eval_retrieval(RetrievalRun(oracle_results), corpus)
print("\noracle upper bound:")
print(f"  micro label F1:      {oracle_score.f1_chexbert_micro:.3f}")
print(f"  mean graph overlap:  {oracle_score.f1_radgraph_mean:.3f}")
