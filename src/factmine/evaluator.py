"""Retrieval evaluation: rank-1 factual scoring, MRR, and oracle retrieval."""

import math
from dataclasses import dataclass, field

import numpy as np

from . import artifacts
from .corpus import _best_first
from .errors import EmptyCandidateSet, MalformedArtifact, MissingResult
from .metrics import chexbert_micro, factual_similarity, rouge_l
from .mining import MiningConfig, _fact_index, _kept

# The (chexbert_threshold, radgraph_threshold) at which MRR judges a train
# document relevant, for validation early stopping and `factmine eval`
# alike: label agreement >= 0.6 and graph Dice > 0.1.
MRR_THRESHOLDS = (0.6, 0.1)


@dataclass
class RetrievalRun:
    """Ranked results per query plus provenance."""

    results: dict  # query_id -> list of (doc_id, score), rank order
    provenance: dict = field(default_factory=dict)


@dataclass
class RelevanceJudgment:
    relevant: dict  # query_id -> set of doc_ids
    chexbert_threshold: float
    radgraph_threshold: float


@dataclass
class CorpusScore:
    f1_chexbert_micro: float
    f1_radgraph_mean: float
    rouge_l_mean: float


def eval_retrieval(run, corpus):
    """Score each query's rank-1 retrieved report against its ground truth."""
    refs, hyps = [], []
    rad_total = 0.0
    rouge_total = 0.0
    for query_id in run.results:
        if not run.results[query_id]:
            raise MissingResult(query_id)
    for query_id, ranked in run.results.items():
        query = corpus[query_id]
        top = corpus[ranked[0][0]]
        refs.append(query.labels)
        hyps.append(top.labels)
        rad_total += factual_similarity(query.graph, top.graph)
        rouge_total += rouge_l(query.report_text, top.report_text)
    n = len(run.results)
    return CorpusScore(
        f1_chexbert_micro=chexbert_micro(refs, hyps),
        f1_radgraph_mean=rad_total / n,
        rouge_l_mean=rouge_total / n,
    )


def judge_relevance(corpus, chexbert_threshold, radgraph_threshold, query_split=None):
    """Per-query relevant document sets under the two factual thresholds.

    The mining filter (mining._kept, as candidate_pairs applies it) decides
    relevance: label agreement >= chexbert threshold and graph overlap
    strictly > radgraph threshold, self excluded. Queries default to every
    record in the corpus.
    """
    queries = corpus.records if query_split is None else corpus.split(query_split)
    ids = [doc.report_id for doc in corpus.split("train")]
    found = _relevant_rows(corpus, chexbert_threshold, radgraph_threshold, queries)
    relevant = {q.report_id: {ids[row] for row in rows.tolist()} for q, rows in zip(queries, found)}
    return RelevanceJudgment(relevant, chexbert_threshold, radgraph_threshold)


def _relevant_rows(corpus, chexbert_threshold, radgraph_threshold, queries):
    """Each query record's relevant train documents in turn, as ascending rows
    of corpus.split("train"), the rows build_index(corpus, params, "train")
    gives them; judged as judge_relevance judges, a block at a time."""
    config = MiningConfig(chexbert_threshold, radgraph_threshold)
    index = _fact_index(corpus.split("train"))
    return (
        np.flatnonzero(kept)
        for block in index.blocks(queries)
        for kept in _kept(index.scores(block), config)
    )


def mrr(run, judgments, drop_unjudged=False):
    """Mean reciprocal rank of the first relevant document per query.

    Queries that retrieve no relevant document contribute 0. With
    drop_unjudged, queries whose judgment set is empty are removed from the
    denominator instead (comparison variant for sweep reports).
    """
    firsts = []
    for query_id, ranked in run.results.items():
        relevant = judgments.relevant.get(query_id, set())
        rank = next((r for r, (doc_id, _) in enumerate(ranked, start=1) if doc_id in relevant), 0)
        firsts.append((bool(relevant), rank))
    return _mean_reciprocal_rank(firsts, drop_unjudged)


def _mean_reciprocal_rank(firsts, drop_unjudged):
    """`mrr` of (judged, rank) pairs: whether a query has any relevant
    document, and the rank of the first it retrieved (0 for none). The
    reciprocals are summed exactly (`math.fsum`), so the mean does not
    depend on the order of the pairs."""
    kept = [rank for judged, rank in firsts if judged or not drop_unjudged]
    return math.fsum(1.0 / rank for rank in kept if rank) / len(kept) if kept else 0.0


def _first_relevant_ranks(corpus, run, queries, chexbert_threshold, radgraph_threshold):
    """(judged, rank) of each query record in turn, as `mrr` counts them
    under judge_relevance's judgments, without holding any query's
    relevant set beyond its turn: each query's relevant rows come from
    `_relevant_rows`, and the run's doc ids are looked up as train rows."""
    train_row = {doc.report_id: row for row, doc in enumerate(corpus.split("train"))}
    firsts = []
    for query, rows in zip(
        queries, _relevant_rows(corpus, chexbert_threshold, radgraph_threshold, queries)
    ):
        relevant = np.zeros(len(train_row), dtype=bool)
        relevant[rows] = True
        ranked = run.results.get(query.report_id, ())
        rank = next(
            (r for r, (doc_id, _) in enumerate(ranked, start=1) if relevant[train_row[doc_id]]), 0
        )
        firsts.append((rows.size > 0, rank))
    return firsts


def oracle_retrieve(corpus, query_id):
    """Ground-truth argmax of summed label agreement and graph overlap.

    Candidates come from the train split, never the query itself. Ties
    break by ascending doc_id. Returns (doc_id, summed score), the score
    equal to chexbert_instance + factual_similarity of the pick.
    """
    return _oracle_run(corpus, [corpus[query_id]])[query_id][0]


def _oracle_run(corpus, queries):
    """{query_id: [oracle_retrieve(corpus, query_id)]} over the query records,
    with the train split indexed once for all of them. A query with no
    candidate raises before any later block is scored."""
    run = {}
    for query, pick in zip(queries, _oracle_picks(corpus, queries)):
        if pick is None:
            raise EmptyCandidateSet(f"no oracle candidates for query {query.report_id!r}")
        run[query.report_id] = [pick]
    return run


def _oracle_picks(corpus, queries):
    """oracle_retrieve's (doc_id, score) of each query record in turn, None
    for a query with no candidate; each block is scored as it is reached."""
    index = _fact_index(corpus.split("train"))
    for block in index.blocks(queries):
        agree, rad, others = index.scores(block)
        total = agree + rad
        flat, ends = _best_first(total, others, index.rank, 1)
        ids = [index.ids[c] for c in (flat % len(index.ids)).tolist()]
        scores = total.ravel()[flat].tolist()
        for lo, hi in zip([0] + ends, ends):
            yield (ids[lo], scores[lo]) if hi > lo else None


# --- run file io -----------------------------------------------------------


def write_run(run, path):
    """Line-delimited (query_id, rank, doc_id, score) with a provenance header."""
    artifacts.write_lines(path, [
        artifacts.to_json({"provenance": run.provenance}),
        *(f"{query_id}\t{rank}\t{doc_id}\t{score!r}"
          for query_id in sorted(run.results)
          for rank, (doc_id, score) in enumerate(run.results[query_id], start=1)),
    ])


def read_run(path):
    """Read a file written by write_run.

    Raises MalformedArtifact, naming the line, unless the header is a JSON
    object and every result line is UTF-8 with four tab-separated fields:
    a rank equal to the line's 1-based position among its query's lines,
    and a finite score.
    """
    header, lines = artifacts.read_headed_lines(path, "run")
    results = {}
    for line_no, line in lines:
        try:
            query_id, rank, doc_id, score = line.split("\t")
            ranked = results.setdefault(query_id, [])
            score = float(score)
            if int(rank) != len(ranked) + 1 or not np.isfinite(score):
                raise ValueError
        except ValueError:
            raise MalformedArtifact(
                path, f"line {line_no}: expected query, rank in order from 1, doc and finite score"
            ) from None
        ranked.append((doc_id, score))
    return RetrievalRun(results, header.get("provenance", {}))
