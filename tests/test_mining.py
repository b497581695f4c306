import pytest
from hypothesis import given, settings, strategies as st

from factmine.corpus import FactGraph, synth_corpus
from factmine.errors import EmptyCandidateSet, EmptyTrainSplit, LengthMismatch
from factmine.evaluator import oracle_retrieve
from factmine.metrics import chexbert_instance, factual_similarity
from factmine.mining import (
    MiningConfig,
    SELF_RANK,
    candidate_pairs,
    mine_pairs,
    read_pairs,
    threshold_sweep,
    write_pairs,
    _fact_index,
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


# --- the scoring kernel against the per-pair reference -----------------------

# Texts that normalise to the same entity, and texts that normalise to empty.
TEXTS = ["heart", "Heart.", " heart ", "edema", "Edema", "lung", "base", "", "...", "  "]
LABEL_VECTORS = [(1, 0, 0, 0, 0), (1, 0, 1, 0, 0), (0, 1, 0, 0, 0), (1, 1, 1, 1, 1)]
THRESHOLDS = st.one_of(
    st.sampled_from([0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0, 1 / 3, 2 / 3]), st.floats(0.0, 1.0)
)


@st.composite
def fact_graphs(draw):
    """Unvalidated graphs: repeated items, entities normalising to empty and
    relations touching them, empty graphs."""
    entities = draw(st.lists(
        st.tuples(st.sampled_from(TEXTS), st.sampled_from(["OBS-DP", "ANAT-DP"])), max_size=5
    ))
    n = len(entities)
    relations = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.sampled_from(["modify", "located_at"]),
                  st.integers(0, n - 1)),
        max_size=4,
    )) if n else []
    return FactGraph(tuple(entities), tuple(relations))


@st.composite
def fact_problems(draw):
    """(docs, query, config): docs may repeat an id; the query is one of
    them or a record outside them."""
    n = draw(st.integers(0, 10))
    ids = draw(st.lists(st.sampled_from([f"d{i:02d}" for i in range(12)]), min_size=n, max_size=n))
    docs = [
        make_record(doc_id, labels=draw(st.sampled_from(LABEL_VECTORS)), graph=draw(fact_graphs()))
        for doc_id in ids
    ]
    if docs and draw(st.booleans()):
        query = docs[draw(st.integers(0, n - 1))]
    else:
        query = make_record("q", labels=draw(st.sampled_from(LABEL_VECTORS)),
                            graph=draw(fact_graphs()), split="test")
    config = MiningConfig(draw(THRESHOLDS), draw(THRESHOLDS), top_k=draw(st.integers(1, 4)))
    return docs, query, config


def naive_candidates(query, docs, config):
    kept = [
        (doc.report_id, factual_similarity(query.graph, doc.graph),
         chexbert_instance(query.labels, doc.labels))
        for doc in docs
        if doc.report_id != query.report_id
    ]
    kept = [t for t in kept if t[2] >= config.chexbert_threshold and t[1] > config.radgraph_threshold]
    return sorted(kept, key=lambda t: (-t[1], t[0]))


@settings(max_examples=300, deadline=None)
@given(fact_problems())
def test_candidate_pairs_equal_naive_filter(problem):
    docs, query, config = problem
    assert candidate_pairs(query, docs, config) == naive_candidates(query, docs, config)


@settings(max_examples=200, deadline=None)
@given(fact_problems())
def test_oracle_equals_naive_max(problem):
    docs, query, _ = problem
    corpus = make_corpus(docs + ([] if any(d is query for d in docs) else [query]))
    query = corpus[query.report_id]
    sums = [
        (chexbert_instance(query.labels, d.labels) + factual_similarity(query.graph, d.graph),
         d.report_id)
        for d in corpus.split("train")
        if d.report_id != query.report_id
    ]
    if not sums:
        with pytest.raises(EmptyCandidateSet):
            oracle_retrieve(corpus, query.report_id)
        return
    best = max(score for score, _ in sums)
    assert oracle_retrieve(corpus, query.report_id) == (
        min(doc_id for score, doc_id in sums if score == best), best
    )


@settings(max_examples=100, deadline=None)
@given(fact_problems(), st.lists(st.tuples(THRESHOLDS, THRESHOLDS), min_size=1, max_size=4))
def test_sweep_and_mining_equal_naive_recount(problem, cells):
    docs, _, config = problem
    docs = list({doc.report_id: doc for doc in docs}.values())  # a corpus has unique ids
    if len(docs) < 2:
        return  # mining needs two train records
    corpus = make_corpus(docs)
    grid = [MiningConfig(c, r, config.top_k) for c, r in cells]
    for cell, row in zip(grid, threshold_sweep(corpus, grid)):
        counts = [len(naive_candidates(q, docs, cell)) for q in docs]
        assert row == {
            "chexbert_threshold": cell.chexbert_threshold,
            "radgraph_threshold": cell.radgraph_threshold,
            "top_k": cell.top_k,
            "mean_pairs_per_query": sum(counts) / len(docs),
            "zero_pair_fraction": counts.count(0) / len(docs),
            "mean_pairs_per_query_truncated": sum(min(n, cell.top_k) for n in counts) / len(docs),
        }
    mined = mine_pairs(corpus, config).pairs
    for q in docs:
        want = naive_candidates(q, docs, config)[: config.top_k]
        assert [(p.doc_id, p.rank, p.rad_score, p.chex_score) for p in mined[q.report_id][1:]] == [
            (doc_id, rank, rad, chex) for rank, (doc_id, rad, chex) in enumerate(want, start=1)
        ]


def test_fact_index_is_rebuilt_for_other_docs():
    corpus = synth_corpus(3, 40)
    other = synth_corpus(4, 40)
    config = MiningConfig(chexbert_threshold=0.6, radgraph_threshold=0.1)
    train = corpus.split("train")
    assert _fact_index(corpus.split("train")) is _fact_index(train)
    for docs in (train, other.split("train"), train[::-1], train[1:], train):
        for query in corpus.records[:10]:
            assert candidate_pairs(query, docs, config) == naive_candidates(query, docs, config)
    assert _fact_index(train[::-1]) is not _fact_index(train)


def test_label_length_mismatch_raises():
    docs = [make_record("a"), make_record("b")]
    config = MiningConfig(chexbert_threshold=0.0)
    with pytest.raises(LengthMismatch):
        candidate_pairs(make_record("q", labels=(1, 0, 0, 0)), docs, config)
    with pytest.raises(LengthMismatch):
        candidate_pairs(docs[0], docs + [make_record("c", labels=(1, 0, 0, 0, 0, 0))], config)
