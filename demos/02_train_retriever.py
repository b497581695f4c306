"""Training the contrastive dual-head retriever on mined pairs.

Run: python demos/02_train_retriever.py (about a minute on a laptop CPU)
"""

from factmine import (
    MiningConfig,
    TrainConfig,
    init_params,
    judge_relevance,
    mine_pairs,
    synth_corpus,
    train,
)
from factmine.encoder import _validation_mrr

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

baseline = init_params(7, corpus.d_img, corpus.d_txt, 64)
judgments = judge_relevance(corpus, 0.6, 0.1, query_split="validation")
print(f"\nuntrained random-projection MRR: {_validation_mrr(baseline, corpus, judgments):.3f}")
print(f"trained MRR:                     {_validation_mrr(params, corpus, judgments):.3f}")
