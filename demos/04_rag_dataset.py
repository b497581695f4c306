"""Assembling the retrieval-augmented fine-tuning dataset.

Run: python demos/04_rag_dataset.py
"""

from factmine import (
    ExclusionPolicy,
    MiningConfig,
    TrainConfig,
    build_rag_dataset,
    mine_pairs,
    synth_corpus,
    train,
)

corpus = synth_corpus(seed=5, n=150)
pairs = mine_pairs(corpus, MiningConfig(chexbert_threshold=0.6, radgraph_threshold=0.1))
params, _ = train(
    corpus, pairs,
    TrainConfig(learning_rate=0.05, max_epochs=4, seed=5, embedding_dim=32),
)

# The production filters: never hand a query its own report, another study
# of the same patient, or a degenerate report shorter than 5 characters.
policy = ExclusionPolicy(exclude_self=True, exclude_same_patient=True, min_report_chars=5)

for mode in ("vqa", "rag", "oracle-rag"):
    examples, warnings = build_rag_dataset(corpus, params, policy, mode)
    print(f"mode={mode}: {len(examples)} examples, {warnings} fallbacks")

examples, _ = build_rag_dataset(corpus, params, policy, "rag")
ex = next(e for e in examples if e.retrieved_doc_id is not None)
print(f"\nexample for query {ex.query_report_id} "
      f"(retrieved {ex.retrieved_doc_id}):\n")
print(ex.prompt_text)
print(f"\n-> target: {ex.target_text}")
