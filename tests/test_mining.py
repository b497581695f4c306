import pytest

from factmine.corpus import synth_corpus
from factmine.errors import EmptyTrainSplit
from factmine.metrics import chexbert_instance, factual_similarity
from factmine.mining import (
    MiningConfig,
    SELF_RANK,
    candidate_pairs,
    mine_pairs,
    read_pairs,
    threshold_sweep,
    write_pairs,
)

from conftest import entity_graph, make_corpus, make_record


def test_exact_label_candidate_retained():
    corpus = make_corpus(
        [
            make_record("q", labels=(1, 0, 0, 0, 0), graph=entity_graph("a", "b", "c", "d", "e")),
            make_record("d", labels=(1, 0, 0, 0, 0), graph=entity_graph("a", "b", "x", "y", "z")),
        ]
    )
    pairs = mine_pairs(corpus, MiningConfig(chexbert_threshold=1.0, radgraph_threshold=0.0))
    mined = [p for p in pairs.pairs["q"] if p.rank != SELF_RANK]
    assert [p.doc_id for p in mined] == ["d"]
    assert mined[0].rad_score == pytest.approx(0.4)


def test_filter_sort_truncate():
    # similarities against q: d1 -> 0.4, d2 -> 0.6, d3 -> 0.9
    q = entity_graph(*"abcdefghij")
    docs = {
        "d1": entity_graph(*"abc", *"vw"),            # 3 shared of 5
        "d2": entity_graph(*"abcdef", *"vwxy"),       # 6 shared of 10
        "d3": entity_graph(*"abcdefghi", *"v"),       # 9 shared of 10
    }
    corpus = make_corpus(
        [make_record("q", graph=q)] + [make_record(k, graph=g) for k, g in docs.items()]
    )
    config = MiningConfig(chexbert_threshold=0.0, radgraph_threshold=0.5, top_k=2)
    pairs = mine_pairs(corpus, config)
    mined = [p for p in pairs.pairs["q"] if p.rank != SELF_RANK]
    assert [p.doc_id for p in mined] == ["d3", "d2"]
    assert mined[0].rad_score == pytest.approx(0.9)
    assert mined[1].rad_score == pytest.approx(0.6)


def test_threshold_monotone_subset():
    corpus = synth_corpus(5, 40)
    strict = MiningConfig(chexbert_threshold=1.0, radgraph_threshold=0.0, top_k=10**6)
    loose = MiningConfig(chexbert_threshold=0.0, radgraph_threshold=0.0, top_k=10**6)
    for query in corpus.split("train"):
        train = corpus.split("train")
        tight = {d for d, _, _ in candidate_pairs(query, train, strict)}
        wide = {d for d, _, _ in candidate_pairs(query, train, loose)}
        assert tight <= wide


def test_empty_train_split():
    corpus = make_corpus([make_record("only", split="test")])
    with pytest.raises(EmptyTrainSplit):
        mine_pairs(corpus, MiningConfig())


def test_self_pair_convention():
    corpus = synth_corpus(2, 20)
    with_self = mine_pairs(corpus, MiningConfig(include_self=True))
    without = mine_pairs(corpus, MiningConfig(include_self=False))
    for qid, entries in with_self.pairs.items():
        assert entries[0].doc_id == qid
        assert entries[0].rank == SELF_RANK
        assert entries[0].rad_score == entries[0].chex_score == 1.0
    for qid, entries in without.pairs.items():
        assert all(p.doc_id != qid for p in entries)


def test_mined_scores_recompute(tiny_corpus):
    config = MiningConfig(chexbert_threshold=0.0, radgraph_threshold=0.0, top_k=5)
    pairs = mine_pairs(tiny_corpus, config)
    for qid, entries in pairs.pairs.items():
        for p in entries:
            if p.rank == SELF_RANK:
                continue
            q, d = tiny_corpus[qid], tiny_corpus[p.doc_id]
            assert abs(p.rad_score - factual_similarity(q.graph, d.graph)) < 1e-12
            assert abs(p.chex_score - chexbert_instance(q.labels, d.labels)) < 1e-12


def test_pair_file_roundtrip_and_determinism(tmp_path):
    corpus = synth_corpus(9, 30)
    config = MiningConfig(chexbert_threshold=0.6, radgraph_threshold=0.1)
    pa, pb = tmp_path / "a.pairs", tmp_path / "b.pairs"
    write_pairs(mine_pairs(corpus, config), pa)
    write_pairs(mine_pairs(corpus, config), pb)
    assert pa.read_bytes() == pb.read_bytes()
    back = read_pairs(pa)
    assert back.config == config
    assert back.pairs == mine_pairs(corpus, config).pairs


def test_sweep_singleton():
    corpus = synth_corpus(4, 20)
    rows = threshold_sweep(corpus, [MiningConfig()])
    assert len(rows) == 1
    assert rows[0]["mean_pairs_per_query"] >= 0


def test_sweep_monotone_in_radgraph_threshold():
    corpus = synth_corpus(4, 40)
    grid = [MiningConfig(chexbert_threshold=0.4, radgraph_threshold=d) for d in (0.1, 0.9)]
    low, high = threshold_sweep(corpus, grid)
    assert high["mean_pairs_per_query"] <= low["mean_pairs_per_query"]


def test_sweep_identical_graphs_pair_everyone():
    shared = entity_graph("heart", "edema")
    corpus = make_corpus(
        [make_record(f"s{i}", labels=(1, 0, 0, 0, 0), graph=shared) for i in range(5)]
    )
    rows = threshold_sweep(
        corpus, [MiningConfig(chexbert_threshold=0.0, radgraph_threshold=0.5, top_k=10)]
    )
    assert rows[0]["mean_pairs_per_query"] == 4.0


def naive_candidate_count(query, train, config):
    return sum(
        1
        for doc in train
        if doc.report_id != query.report_id
        and chexbert_instance(query.labels, doc.labels) >= config.chexbert_threshold
        and factual_similarity(query.graph, doc.graph) > config.radgraph_threshold
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("top_k", [1, 10])
def test_sweep_rows_equal_naive_recount(seed, top_k):
    corpus = synth_corpus(seed, 40)
    train = corpus.split("train")
    grid = [
        MiningConfig(chexbert_threshold=c, radgraph_threshold=r, top_k=top_k)
        for c in (0.0, 0.6, 1.0)
        for r in (0.0, 0.2)
    ]
    for config, row in zip(grid, threshold_sweep(corpus, grid)):
        counts = [naive_candidate_count(q, train, config) for q in train]
        assert row == {
            "chexbert_threshold": config.chexbert_threshold,
            "radgraph_threshold": config.radgraph_threshold,
            "top_k": top_k,
            "mean_pairs_per_query": sum(counts) / len(train),
            "zero_pair_fraction": counts.count(0) / len(train),
            "mean_pairs_per_query_truncated": sum(min(n, top_k) for n in counts) / len(train),
        }
        mined = mine_pairs(corpus, config).stats["mean_pairs_per_query"]
        assert row["mean_pairs_per_query_truncated"] == mined
