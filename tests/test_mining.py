import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from factmine import mining
from factmine.corpus import FactGraph, synth_corpus
from factmine.errors import EmptyCandidateSet, EmptyTrainSplit, InvalidConfig, LengthMismatch
from factmine.evaluator import _oracle_run, judge_relevance, oracle_retrieve
from factmine.index import ExclusionPolicy
from factmine.metrics import chexbert_instance, factual_similarity
from factmine.mining import (
    MinedPair,
    MiningConfig,
    SELF_RANK,
    candidate_pairs,
    mine_pairs,
    read_pairs,
    threshold_sweep,
    write_pairs,
    _FactIndex,
    _fact_index,
)
from factmine.ragdata import build_rag_dataset

from conftest import entity_graph, make_corpus, make_record, traced_peak


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


def test_sweep_empty_grid_raises_invalid_config():
    with pytest.raises(InvalidConfig, match="^empty threshold grid$"):
        threshold_sweep(synth_corpus(4, 20), [])


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


# --- blocks of queries -------------------------------------------------------

# Label vectors no doc in fact_problems carries.
UNSEEN_LABEL_VECTORS = [(0, 0, 0, 0, 1), (0, 1, 1, 0, 1)]


@st.composite
def score_blocks(draw):
    """(docs, queries, warm): 1-6 queries drawn from the docs (ids may
    repeat) and from records outside them; warm lists label vectors whose
    agreement the index computes before the block."""
    docs, _, _ = draw(fact_problems())
    outside = [
        make_record(f"q{i}", labels=draw(st.sampled_from(LABEL_VECTORS + UNSEEN_LABEL_VECTORS)),
                    graph=draw(fact_graphs()), split="test")
        for i in range(3)
    ]
    queries = draw(st.lists(st.sampled_from(docs + outside), min_size=1, max_size=6))
    warm = draw(st.lists(st.sampled_from(LABEL_VECTORS + UNSEEN_LABEL_VECTORS), max_size=3))
    return docs, queries, warm


@settings(max_examples=200, deadline=None)
@given(score_blocks())
def test_block_scores_equal_each_query_alone_and_the_reference(problem):
    docs, queries, warm = problem
    index = _FactIndex(docs)
    for labels in warm:
        index.scores([make_record("w", labels=labels)])
    block = index.scores(queries)
    for arr, dtype in zip(block, (np.float64, np.float64, np.bool_)):
        assert arr.dtype == dtype and arr.shape == (len(queries), len(docs))
    for g, query in enumerate(queries):
        alone = _FactIndex(docs).scores([query])
        for got, want in zip(block, alone):
            assert np.array_equal(got[g].view(np.int8), want[0].view(np.int8))
        agree = np.array([chexbert_instance(query.labels, d.labels) for d in docs], dtype=float)
        rad = np.array([factual_similarity(query.graph, d.graph) for d in docs], dtype=float)
        assert np.array_equal(block[0][g].view(np.int64), agree.view(np.int64))
        assert np.array_equal(block[1][g].view(np.int64), rad.view(np.int64))
        assert block[2][g].tolist() == [d.report_id != query.report_id for d in docs]


def naive_oracle(query, train):
    sums = [
        (chexbert_instance(query.labels, d.labels) + factual_similarity(query.graph, d.graph),
         d.report_id)
        for d in train
        if d.report_id != query.report_id
    ]
    if not sums:
        return None
    best = max(score for score, _ in sums)
    return min(doc_id for score, doc_id in sums if score == best), best


def block_results(corpus):
    """What every blocked caller of the fact kernel returns on corpus."""
    mined = mine_pairs(corpus, MiningConfig(0.6, 0.1, top_k=3))
    rag, warnings = build_rag_dataset(corpus, None, ExclusionPolicy(), "oracle-rag")
    return {
        "mine": (mined.pairs, mined.stats),
        "sweep": threshold_sweep(
            corpus, [MiningConfig(c, r, top_k=2) for c in (0.6, 1.0) for r in (0.0, 0.2)]
        ),
        "judge": judge_relevance(corpus, 0.6, 0.1).relevant,
        "oracle": _oracle_run(corpus, corpus.split("test")),
        "oracle-rag": ([ex.retrieved_doc_id for ex in rag], warnings),
    }


@pytest.fixture(scope="module")
def block_corpus():
    corpus = synth_corpus(6, 40)
    return corpus, block_results(corpus)


def test_default_block_results_equal_naive_references(block_corpus):
    corpus, got = block_corpus
    train = corpus.split("train")
    mine_config = MiningConfig(0.6, 0.1, top_k=3)
    pairs, stats = got["mine"]
    for q in train:
        want = naive_candidates(q, train, mine_config)[:3]
        assert [(p.doc_id, p.rank, p.rad_score, p.chex_score) for p in pairs[q.report_id]] == [
            (q.report_id, SELF_RANK, 1.0, 1.0),
            *((doc_id, rank, rad, chex) for rank, (doc_id, rad, chex) in enumerate(want, start=1)),
        ]
    mined = sum(len(pairs[q.report_id]) - 1 for q in train)
    assert stats["mean_pairs_per_query"] == mined / len(train)
    for row, (c, r) in zip(got["sweep"], [(c, r) for c in (0.6, 1.0) for r in (0.0, 0.2)]):
        counts = [naive_candidate_count(q, train, MiningConfig(c, r)) for q in train]
        assert row["mean_pairs_per_query"] == sum(counts) / len(train)
        assert row["zero_pair_fraction"] == counts.count(0) / len(train)
        assert row["mean_pairs_per_query_truncated"] == sum(min(n, 2) for n in counts) / len(train)
    assert got["judge"] == {
        q.report_id: {d for d, _, _ in naive_candidates(q, train, MiningConfig(0.6, 0.1))}
        for q in corpus.records
    }
    assert got["oracle"] == {q.report_id: [naive_oracle(q, train)] for q in corpus.split("test")}
    picks = [naive_oracle(q, train) for q in corpus.records]
    assert got["oracle-rag"] == ([p and p[0] for p in picks], picks.count(None))


@pytest.mark.parametrize("entries", ["1", "n - 1", "n", "n + 1", "2n + 1", "7n"])
def test_block_boundaries_do_not_change_results(block_corpus, monkeypatch, entries):
    corpus, default = block_corpus
    n = len(corpus.split("train"))
    budget = {"1": 1, "n - 1": n - 1, "n": n, "n + 1": n + 1, "2n + 1": 2 * n + 1, "7n": 7 * n}
    monkeypatch.setattr(mining, "_BLOCK_BYTES", 8 * budget[entries])
    assert block_results(corpus) == default


def test_bad_label_vector_in_a_later_block_is_reported_first_come(monkeypatch):
    train = [make_record(f"t{i}", graph=entity_graph("heart", f"x{i}")) for i in range(4)]
    tests = [make_record(f"q{i}", split="test") for i in range(9)]
    tests[5] = make_record("q5", labels=(1, 0, 0, 0), split="test")
    tests[7] = make_record("q7", labels=(1, 0, 0, 0, 0, 0), split="test")
    corpus = make_corpus(train + tests)
    monkeypatch.setattr(mining, "_BLOCK_BYTES", 8 * 2 * len(train))  # blocks of 2 queries
    message = "^label vectors must have 5 entries, got 4$"
    with pytest.raises(LengthMismatch, match=message):
        judge_relevance(corpus, 0.6, 0.1, query_split="test")
    with pytest.raises(LengthMismatch, match=message):
        _oracle_run(corpus, corpus.split("test"))
    with pytest.raises(LengthMismatch, match=message):
        build_rag_dataset(corpus, None, ExclusionPolicy(), "oracle-rag")
    with pytest.raises(LengthMismatch, match=message):
        _fact_index(train).scores(tests)
    tests[5] = make_record("q5", split="test")
    with pytest.raises(LengthMismatch, match="^label vectors must have 5 entries, got 6$"):
        judge_relevance(make_corpus(train + tests), 0.6, 0.1, query_split="test")


def test_oracle_reports_a_query_without_candidates_before_a_later_block(monkeypatch):
    train = [make_record("t0")]
    corpus = make_corpus(train + [make_record("q0", labels=(1, 0, 0, 0), split="test")])
    queries = [train[0], corpus["q0"]]  # t0's only candidate is itself
    # One block: its label vectors are checked before any query is picked.
    with pytest.raises(LengthMismatch, match="^label vectors must have 5 entries, got 4$"):
        _oracle_run(corpus, queries)
    monkeypatch.setattr(mining, "_BLOCK_BYTES", 8)  # blocks of 1 query
    with pytest.raises(EmptyCandidateSet, match="^no oracle candidates for query 't0'$"):
        _oracle_run(corpus, queries)


def mined_one_query_at_a_time(corpus, config):
    """mine_pairs(corpus, config).pairs, each query scored by candidate_pairs."""
    train = corpus.split("train")
    return {
        q.report_id: [MinedPair(q.report_id, SELF_RANK, 1.0, 1.0)] + [
            MinedPair(doc_id, rank, rad, chex) for rank, (doc_id, rad, chex)
            in enumerate(candidate_pairs(q, train, config)[: config.top_k], start=1)
        ]
        for q in train
    }


def test_mining_memory_is_bounded_by_the_block_budget():
    """Blocks add at most 1 MiB (16 block budgets) to the peak of mining a
    split one query at a time; one block of the whole split would add 72 MB
    an array at this size."""
    corpus = synth_corpus(0, 4300)
    assert len(corpus.split("train")) >= 2900
    config = MiningConfig(1.0, 0.0)
    mine_pairs(corpus, config)  # builds and caches the fact index and every graph's items
    blocked, peak = traced_peak(mine_pairs, corpus, config)
    single, single_peak = traced_peak(mined_one_query_at_a_time, corpus, config)
    assert blocked.pairs == single
    assert peak <= single_peak + 16 * mining._BLOCK_BYTES
