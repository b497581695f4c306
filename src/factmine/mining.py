"""Mining of factually similar positive report pairs from a train split."""

import json
from dataclasses import dataclass, field, asdict

from .errors import EmptyTrainSplit, InvalidConfig, MalformedArtifact
from .metrics import chexbert_instance, factual_similarity

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


def candidate_pairs(query, docs, config):
    """Filtered, reranked candidates for one query (pre-truncation).

    Candidates must share labels up to the CheXbert threshold (>=) and
    exceed the graph-overlap threshold (strict >). Ordered by descending
    graph overlap, ties by ascending doc_id.
    """
    kept = []
    for doc in docs:
        if doc.report_id == query.report_id:
            continue
        chex = chexbert_instance(query.labels, doc.labels)
        if chex < config.chexbert_threshold:
            continue
        rad = factual_similarity(query.graph, doc.graph)
        if rad > config.radgraph_threshold:
            kept.append((doc.report_id, rad, chex))
    kept.sort(key=lambda t: (-t[1], t[0]))
    return kept


def mine_pairs(corpus, config):
    """Mine the positive pair set for every train-split query."""
    train = corpus.split("train")
    if len(train) < 2:
        raise EmptyTrainSplit(f"train split has {len(train)} records, need >= 2")
    pairs = {}
    n_mined = 0
    n_zero = 0
    for query in train:
        kept = candidate_pairs(query, train, config)[: config.top_k]
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
    capped at top_k, as mine_pairs reports it.
    """
    if not grid:
        raise ValueError("empty threshold grid")
    train = corpus.split("train")
    if len(train) < 2:
        raise EmptyTrainSplit(f"train split has {len(train)} records, need >= 2")
    rows = []
    for config in grid:
        counts = [len(candidate_pairs(query, train, config)) for query in train]
        rows.append(
            {
                "chexbert_threshold": config.chexbert_threshold,
                "radgraph_threshold": config.radgraph_threshold,
                "top_k": config.top_k,
                "mean_pairs_per_query": sum(counts) / len(train),
                "zero_pair_fraction": counts.count(0) / len(train),
                "mean_pairs_per_query_truncated": (
                    sum(min(n, config.top_k) for n in counts) / len(train)
                ),
            }
        )
    return rows


def write_pairs(pair_set, path):
    """Line-delimited pair file; header carries the mining config and stats."""
    with open(path, "w", encoding="utf-8") as fh:
        header = {"config": asdict(pair_set.config), "stats": pair_set.stats}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for query_id in sorted(pair_set.pairs):
            for p in pair_set.pairs[query_id]:
                fh.write(
                    f"{query_id}\t{p.doc_id}\t{p.rank}\t{p.rad_score!r}\t{p.chex_score!r}\n"
                )


def read_pairs(path):
    """Read a file written by write_pairs.

    Raises MalformedArtifact, naming the line, unless the header is a JSON
    object with a valid mining config and every pair line is UTF-8 with
    five tab-separated fields, an integer rank and two float scores.
    """
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline())
            config = MiningConfig(**header["config"])
        except (ValueError, TypeError, KeyError):
            raise MalformedArtifact(
                path, "line 1: pairs header is not a JSON line with a mining config"
            ) from None
        pairs = {}
        for line_no, raw in enumerate(fh, start=2):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                query_id, doc_id, rank, rad, chex = line.rstrip("\n").split("\t")
                pair = MinedPair(doc_id, int(rank), float(rad), float(chex))
            except ValueError:
                raise MalformedArtifact(
                    path, f"line {line_no}: expected UTF-8 query, doc, integer rank and two scores"
                ) from None
            pairs.setdefault(query_id, []).append(pair)
    return PairSet(pairs, config, header.get("stats", {}))
