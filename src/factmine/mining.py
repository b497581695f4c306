"""Mining of factually similar positive report pairs from a train split."""

import operator
from dataclasses import dataclass, field, asdict

import numpy as np

from . import artifacts
from .corpus import _best_first, _id_order
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


# Bytes of one (G, n) score array. A block of G queries pays numpy's
# per-call overhead once instead of G times, and the budget bounds the
# memory of scoring a whole split. Bench `mine` corpus (n = 300, so 27
# queries a block), 2 shared cores: `mine_pairs` took 6.8-7.0 ms, against
# 14.3 ms in blocks of one query and 7.5-7.9 ms in one block of the whole
# split, which also raised the peak RSS of ten rounds of the bench's calls
# by 3 MB. From n = 4,097 docs on, every block holds one query.
_BLOCK_BYTES = 1 << 16


class _FactIndex:
    """A docs list as arrays, for scoring blocks of queries against every doc at once.

    `postings[item]` are the rows whose graph holds a fact item, `sizes`
    counts each row's items, `labels` is the (n, 5) label matrix and `rank`
    each row's place in ascending doc_id order. The label agreement of a
    query label vector with every row is kept once it has been computed:
    loaded corpora have at most 32 distinct (binary) vectors.
    """

    def __init__(self, docs):
        self.docs = list(docs)
        self.ids = [doc.report_id for doc in self.docs]
        n = len(self.ids)
        vocab = {}
        item_ids, item_rows, sizes = [], [], []
        for row, doc in enumerate(self.docs):
            if len(doc.labels) != 5:
                raise LengthMismatch(
                    f"label vectors must have 5 entries, got {len(doc.labels)} for {doc.report_id!r}"
                )
            items = fact_items(doc.graph)
            sizes.append(len(items))
            item_ids.extend(vocab.setdefault(item, len(vocab)) for item in items)
            item_rows.extend([row] * len(items))
        item_ids = np.array(item_ids, dtype=np.intp)
        postings = np.array(item_rows, dtype=np.intp)[np.argsort(item_ids, kind="stable")]
        ends = np.cumsum(np.bincount(item_ids, minlength=len(vocab)))
        # vocab lists the items in id order, the order of the posting runs.
        self.postings = dict(zip(vocab, np.split(postings, ends[:-1])))
        self.sizes = np.array(sizes, dtype=np.float64)
        self.labels = np.array([doc.labels for doc in self.docs], dtype=np.int8).reshape(n, 5)
        self.rank, self.rows = _id_order(self.ids)
        self._agree = {}  # label vector -> its read-only agreement with every row

    def blocks(self, queries):
        """queries in consecutive blocks whose (G, n) score arrays fit in _BLOCK_BYTES."""
        size = max(1, _BLOCK_BYTES // (8 * max(1, len(self.ids))))
        return (queries[lo:lo + size] for lo in range(0, len(queries), size))

    def _agreement(self, labels):
        agree = self._agree.get(labels)
        if agree is None:
            agree = (self.labels == np.array(labels, dtype=np.int8)).sum(axis=1) / 5.0
            agree.flags.writeable = False
            self._agree[labels] = agree
        return agree

    def _twice_shared(self, queries):
        """Each query's fact-item count, (G,), and twice the items it shares
        with each row, (G, n), as floats. A helper, so that its integer
        temporaries are freed before scores allocates its own."""
        g, n = len(queries), len(self.ids)
        sizes, hits, counts = [], [], []
        for query in queries:
            items = fact_items(query.graph)
            sizes.append(len(items))
            parts = [p for p in map(self.postings.get, items) if p is not None]
            hits.extend(parts)
            counts.append(sum(map(len, parts)))
        sizes = np.array(sizes, dtype=np.float64)
        if not hits:
            return sizes, np.zeros((g, n))
        if g == 1:
            return sizes, 2.0 * np.bincount(np.concatenate(hits), minlength=n).reshape(1, n)
        # Query g's rows are counted at g * n + row.
        keys = np.concatenate(hits)
        keys += np.repeat(np.arange(0, g * n, n), counts)
        return sizes, 2.0 * np.bincount(keys, minlength=g * n).reshape(g, n)

    def scores(self, queries):
        """(agree, rad, others) of a block of G queries, each (G, n).

        Row g of agree and rad is bit-equal to chexbert_instance and
        factual_similarity of queries[g] with every doc: the same
        integer-valued float operations in the same order. others masks out
        the rows carrying the query's own id. Raises LengthMismatch for the
        first query whose label vector is not of length 5.
        """
        for query in queries:
            if len(query.labels) != 5:
                raise LengthMismatch(f"label vectors must have 5 entries, got {len(query.labels)}")
        g, n = len(queries), len(self.ids)
        agree = np.array([self._agreement(tuple(q.labels)) for q in queries]).reshape(g, n)
        sizes, rad = self._twice_shared(queries)
        denom = np.add.outer(sizes, self.sizes)
        # rad is 0.0 where denom is 0: a query and a row with no items share none.
        np.divide(rad, denom, out=rad, where=denom > 0)
        others = np.ones((g, n), dtype=bool)
        for row, query in enumerate(queries):
            own = self.rows.get(query.report_id)
            if own:
                others[row, own] = False
        return agree, rad, others


_cached_index = None  # the _FactIndex of the last docs list indexed


def _fact_index(docs):
    """The _FactIndex of docs, reused while the same records come in the same order.

    Records are taken as unchanged once indexed; the index holds them, so
    an identity check cannot match a new record at a reused address. The
    cache entry is replaced in one assignment, so concurrent callers see a
    whole entry.
    """
    global _cached_index
    index = _cached_index
    same = index is not None and len(index.docs) == len(docs)
    if not (same and all(map(operator.is_, docs, index.docs))):
        index = _FactIndex(docs)
        _cached_index = index
    return index


def _kept(scores, config):
    """Mask of the rows that pass config's two thresholds, self excluded.

    The one place the thresholds are applied: mining, sweeps and relevance
    judgments all read it.
    """
    agree, rad, others = scores
    return others & (agree >= config.chexbert_threshold) & (rad > config.radgraph_threshold)


def _ranked(index, queries, config, limit=None):
    """candidate_pairs of each query over docs' index, in turn, each cut to
    its first `limit` (default: all)."""
    for block in index.blocks(queries):
        scores = index.scores(block)
        agree, rad, _ = scores
        flat, ends = _best_first(rad, _kept(scores, config), index.rank, limit or len(index.ids))
        ids = [index.ids[c] for c in (flat % len(index.ids)).tolist()]
        rads, agrees = rad.ravel()[flat].tolist(), agree.ravel()[flat].tolist()
        for lo, hi in zip([0] + ends, ends):
            yield list(zip(ids[lo:hi], rads[lo:hi], agrees[lo:hi]))


def candidate_pairs(query, docs, config):
    """Filtered, reranked candidates for one query (pre-truncation).

    Candidates must share labels up to the CheXbert threshold (>=) and
    exceed the graph-overlap threshold (strict >). Ordered by descending
    graph overlap, ties by ascending doc_id. Scores equal chexbert_instance
    and factual_similarity of each pair.
    """
    return next(_ranked(_fact_index(docs), [query], config))


def mine_pairs(corpus, config):
    """Mine the positive pair set for every train-split query."""
    train = corpus.split("train")
    if len(train) < 2:
        raise EmptyTrainSplit(f"train split has {len(train)} records, need >= 2")
    pairs = {}
    n_mined = 0
    n_zero = 0
    for query, kept in zip(train, _ranked(_fact_index(train), train, config, config.top_k)):
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
        raise InvalidConfig("empty threshold grid")
    train = corpus.split("train")
    if len(train) < 2:
        raise EmptyTrainSplit(f"train split has {len(train)} records, need >= 2")
    index = _fact_index(train)
    pairs = [0] * len(grid)
    zeros = [0] * len(grid)
    truncated = [0] * len(grid)
    for block in index.blocks(train):
        scores = index.scores(block)
        for cell, config in enumerate(grid):
            n = np.count_nonzero(_kept(scores, config), axis=1)
            pairs[cell] += int(n.sum())
            zeros[cell] += int(np.count_nonzero(n == 0))
            truncated[cell] += int(np.minimum(n, config.top_k).sum())
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
