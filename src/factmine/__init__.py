"""factmine: fact-aware report pair mining, contrastive retrieval, evaluation."""

__version__ = "0.1.0"

from .corpus import (
    Corpus,
    FactGraph,
    ReportRecord,
    load_corpus,
    normalize_entity,
    synth_corpus,
    write_corpus,
)
from .encoder import (
    EncoderParams,
    TrainConfig,
    encode_queries,
    encode_query,
    init_params,
    load_params,
    save_params,
    train,
)
from .evaluator import (
    RelevanceJudgment,
    RetrievalRun,
    eval_retrieval,
    judge_relevance,
    mrr,
    oracle_retrieve,
)
from .index import EmbeddingIndex, ExclusionPolicy, build_index, search, search_batch
from .metrics import (
    chexbert_instance,
    chexbert_micro,
    fact_items,
    factual_similarity,
    rouge_l,
)
from .mining import MiningConfig, PairSet, mine_pairs, threshold_sweep
from .ragdata import build_rag_dataset
