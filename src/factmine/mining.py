"""Mining of factually similar positive report pairs from a train split."""

from dataclasses import dataclass, field, asdict

import numpy as np

from . import artifacts
from .corpus import _id_order
from .errors import EmptyTrainSplit, InvalidConfig, LengthMismatch, MalformedArtifact
from .metrics import fact_items

SELF_RANK = 0  # rank reserved for the query's own report when include_self


@dataclass(frozen=True)
class MiningConfig:
    chexbert_threshold: float = 1.0
    radgraph_threshold: float = 0.0
    top_k: int = 2
    include_self: bool = True

    def __post_init__(self):
        if not (0.0 <= self.chexbert_threshold <= 1.0):
            raise InvalidConfig("chexbert_threshold must be in [0, 1]")
        if not (0.0 <= self.radgraph_threshold <= 1.0):
            raise InvalidConfig("radgraph_threshold must be in [0, 1]")
        if self.top_k < 1:
            raise InvalidConfig("top_k must be >= 1")


@dataclass(frozen=True)
class MinedPair:
    doc_id: str
    rank: int
    rad_score: float
    chex_score: float


@dataclass
class PairSet:
    """Ordered positive pairs per query, immutable after mining."""

    pairs: dict  # query_id -> list[MinedPair]
    config: MiningConfig
    stats: dict = field(default_factory=dict)

    def doc_ids(self, query_id):
        return [p.doc_id for p in self.pairs[query_id]]


class _FactIndex:
    """A docs list as arrays, for scoring one query against every doc at once.

    Each fact item gets an integer id; `postings[starts[i]:starts[i + 1]]`
    are the rows whose graph holds item i. `sizes` counts each row's items,
    `labels` is the (n, 5) label matrix and `rank` each row's place in
    ascending doc_id order.
    """

    def __init__(self, docs):
        self.docs = list(docs)  # holds the records, so no id in the cache key is reused
        self.ids = [doc.report_id for doc in self.docs]
        n = len(self.ids)
        self.vocab = {}
        item_ids, item_rows, sizes = [], [], []
        for row, doc in enumerate(self.docs):
            if len(doc.labels) != 5:
                raise LengthMismatch(
                    f"label vectors must have 5 entries, got {len(doc.labels)} for {doc.report_id!r}"
                )
            items = fact_items(doc.graph)
            sizes.append(len(items))
            item_ids.extend(self.vocab.setdefault(item, len(self.vocab)) for item in items)
            item_rows.extend([row] * len(items))
        item_ids = np.array(item_ids, dtype=np.intp)
        self.postings = np.array(item_rows, dtype=np.intp)[np.argsort(item_ids, kind="stable")]
        self.starts = np.zeros(len(self.vocab) + 1, dtype=np.intp)
        np.cumsum(np.bincount(item_ids, minlength=len(self.vocab)), out=self.starts[1:])
        self.sizes = np.array(sizes, dtype=np.float64)
        self.labels = np.array([doc.labels for doc in self.docs], dtype=np.int8).reshape(n, 5)
        self.rank, self.rows = _id_order(self.ids)

    def scores(self, query):
        """(agree, rad, others) of `query` against every row.

        agree and rad are bit-equal to chexbert_instance and
        factual_similarity: the same integer-valued float operations in the
        same order. others masks out the rows carrying the query's own id.
        """
        if len(query.labels) != 5:
            raise LengthMismatch(f"label vectors must have 5 entries, got {len(query.labels)}")
        n = len(self.ids)
        agree = (self.labels == np.array(query.labels, dtype=np.int8)).sum(axis=1) / 5.0
        items = fact_items(query.graph)
        hits = [self.vocab[item] for item in items if item in self.vocab]
        inter = np.bincount(
            np.concatenate([self.postings[self.starts[i]:self.starts[i + 1]] for i in hits]),
            minlength=n,
        ) if hits else np.zeros(n)
        denom = len(items) + self.sizes
        rad = np.divide(2.0 * inter, denom, out=np.zeros(n), where=denom > 0)
        others = np.ones(n, dtype=bool)
        others[self.rows.get(query.report_id, [])] = False
        return agree, rad, others


_cached_index = None  # (tuple of the docs' ids, _FactIndex): the last docs list indexed


def _fact_index(docs):
    """The _FactIndex of docs, reused while the same records come in the same order.

    Records are taken as unchanged once indexed. The cache entry is
    replaced in one assignment, so concurrent callers see a whole entry.
    """
    global _cached_index
    key = tuple(map(id, docs))
    cached = _cached_index
    if cached is None or cached[0] != key:
        cached = (key, _FactIndex(docs))
        _cached_index = cached
    return cached[1]


def _kept(scores, config):
    """Mask of the rows that pass config's two thresholds, self excluded."""
    agree, rad, others = scores
    return others & (agree >= config.chexbert_threshold) & (rad > config.radgraph_threshold)


def _candidates(index, query, config, limit=None):
    """The first `limit` (default: all) of candidate_pairs(query, docs, config) over docs' index."""
    scores = index.scores(query)
    agree, rad, _ = scores
    rows = np.flatnonzero(_kept(scores, config))
    rows = rows[np.lexsort((index.rank[rows], -rad[rows]))][:limit]
    return list(zip([index.ids[r] for r in rows], rad[rows].tolist(), agree[rows].tolist()))


def candidate_pairs(query, docs, config):
    """Filtered, reranked candidates for one query (pre-truncation).

    Candidates must share labels up to the CheXbert threshold (>=) and
    exceed the graph-overlap threshold (strict >). Ordered by descending
    graph overlap, ties by ascending doc_id. Scores equal chexbert_instance
    and factual_similarity of each pair.
    """
    return _candidates(_fact_index(docs), query, config)


def mine_pairs(corpus, config):
    """Mine the positive pair set for every train-split query."""
    train = corpus.split("train")
    if len(train) < 2:
        raise EmptyTrainSplit(f"train split has {len(train)} records, need >= 2")
    index = _fact_index(train)
    pairs = {}
    n_mined = 0
    n_zero = 0
    for query in train:
        kept = _candidates(index, query, config, config.top_k)
        entries = []
        if config.include_self:
            # The query's own report is always a positive, by convention a
            # perfect match regardless of its graph.
            entries.append(MinedPair(query.report_id, SELF_RANK, 1.0, 1.0))
        entries.extend(
            MinedPair(doc_id, rank, rad, chex)
            for rank, (doc_id, rad, chex) in enumerate(kept, start=1)
        )
        if not kept:
            n_zero += 1
        n_mined += len(kept)
        pairs[query.report_id] = entries
    stats = {
        "n_queries": len(train),
        "mean_pairs_per_query": n_mined / len(train),
        "zero_pair_fraction": n_zero / len(train),
    }
    return PairSet(pairs, config, stats)


def threshold_sweep(corpus, grid):
    """Pair-count summaries over a grid of mining configurations.

    Reports pre-truncation counts so the threshold-exclusion effect is
    visible without the top-k cap; the truncated mean is the same count
    capped at top_k, as mine_pairs reports it. Each query is scored once
    and counted in every grid cell.
    """
    if not grid:
        raise ValueError("empty threshold grid")
    train = corpus.split("train")
    if len(train) < 2:
        raise EmptyTrainSplit(f"train split has {len(train)} records, need >= 2")
    index = _fact_index(train)
    pairs = [0] * len(grid)
    zeros = [0] * len(grid)
    truncated = [0] * len(grid)
    for query in train:
        scores = index.scores(query)
        for cell, config in enumerate(grid):
            n = int(np.count_nonzero(_kept(scores, config)))
            pairs[cell] += n
            zeros[cell] += n == 0
            truncated[cell] += min(n, config.top_k)
    return [
        {
            "chexbert_threshold": config.chexbert_threshold,
            "radgraph_threshold": config.radgraph_threshold,
            "top_k": config.top_k,
            "mean_pairs_per_query": pairs[cell] / len(train),
            "zero_pair_fraction": zeros[cell] / len(train),
            "mean_pairs_per_query_truncated": truncated[cell] / len(train),
        }
        for cell, config in enumerate(grid)
    ]


def write_pairs(pair_set, path):
    """Line-delimited pair file; header carries the mining config and stats."""
    header = {"config": asdict(pair_set.config), "stats": pair_set.stats}
    artifacts.write_lines(path, [
        artifacts.to_json(header),
        *(f"{query_id}\t{p.doc_id}\t{p.rank}\t{p.rad_score!r}\t{p.chex_score!r}"
          for query_id in sorted(pair_set.pairs) for p in pair_set.pairs[query_id]),
    ])


def read_pairs(path):
    """Read a file written by write_pairs.

    Raises MalformedArtifact, naming the line, unless the header is a JSON
    object with a valid mining config and every pair line is UTF-8 with
    five tab-separated fields: an integer rank >= 0 and two finite scores
    in [0, 1] (a graph Dice and a label agreement).
    """
    header, lines = artifacts.read_headed_lines(path, "pairs")
    try:
        config = MiningConfig(**header["config"])
    except (ValueError, TypeError, KeyError):
        raise MalformedArtifact(path, "line 1: pairs header has no valid mining config") from None
    pairs = {}
    for line_no, line in lines:
        try:
            query_id, doc_id, rank, rad, chex = line.split("\t")
            pair = MinedPair(doc_id, int(rank), float(rad), float(chex))
            if pair.rank < 0 or not all(0.0 <= s <= 1.0 for s in (pair.rad_score, pair.chex_score)):
                raise ValueError
        except ValueError:
            raise MalformedArtifact(
                path, f"line {line_no}: expected query, doc, a rank >= 0 and two scores in [0, 1]"
            ) from None
        pairs.setdefault(query_id, []).append(pair)
    return PairSet(pairs, config, header.get("stats", {}))
