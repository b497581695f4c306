"""Training the contrastive dual-head retriever on mined pairs.

Run: python demos/02_train_retriever.py (a few seconds on a laptop CPU)
"""

from factmine import (
    ExclusionPolicy,
    MiningConfig,
    RetrievalRun,
    TrainConfig,
    build_index,
    encode_queries,
    init_params,
    judge_relevance,
    mine_pairs,
    mrr,
    search_batch,
    synth_corpus,
    train,
)

corpus = synth_corpus(seed=7, n=400)
pairs = mine_pairs(corpus, MiningConfig(chexbert_threshold=0.6, radgraph_threshold=0.1))

config = TrainConfig(
    learning_rate=0.05,   # the 5e-6 default targets pretrained backbones, far too small for linear heads
    batch_size=32,
    max_epochs=6,
    early_stop_patience=5,
    seed=7,
    embedding_dim=64,
)
params, log = train(corpus, pairs, config)

print("epoch  stage         loss      val MRR")
for entry in log:
    print(f"{entry['epoch']:5d}  {entry['stage']:<12s} {entry['train_loss']:8.2f}  "
          f"{entry['val_mrr']:.3f}")


def validation_mrr(params):
    """MRR of the validation queries over full rankings of the train split,
    as the early-stopping monitor counts it: nothing excluded."""
    index = build_index(corpus, params, "train")
    queries = corpus.split("validation")
    ranked = search_batch(
        index,
        encode_queries(params, corpus.inputs[corpus.rows("validation"), : corpus.d_img]),
        len(index.doc_ids),
        ExclusionPolicy(exclude_self=False, exclude_same_patient=False, min_report_chars=0),
        [(rec.report_id, rec.patient_id) for rec in queries],
    )
    run = RetrievalRun({rec.report_id: hits for rec, hits in zip(queries, ranked)})
    return mrr(run, judgments)


judgments = judge_relevance(corpus, 0.6, 0.1, query_split="validation")
baseline = init_params(7, corpus.d_img, corpus.d_txt, 64)
print(f"\nuntrained random-projection MRR: {validation_mrr(baseline):.3f}")
print(f"trained MRR:                     {validation_mrr(params):.3f}")
