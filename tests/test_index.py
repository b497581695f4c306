import contextlib
import copy
import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import factmine.index as index_module
from factmine.corpus import synth_corpus
from factmine.encoder import encode_query, init_params
from factmine.errors import (
    DegenerateEmbedding,
    DimensionMismatch,
    EmptyCandidateSet,
    InvalidConfig,
    MalformedArtifact,
    MissingTextFeatures,
)
from factmine.index import (
    EmbeddingIndex,
    ExclusionPolicy,
    _block_rows,
    _rank_of_first,
    build_index,
    load_index,
    save_index,
    search,
    search_batch,
)

from conftest import make_corpus, make_record, traced_peak
from reference import encode_doc

NO_FILTER = ExclusionPolicy(exclude_self=False, exclude_same_patient=False, min_report_chars=0)


def filtered_route():
    """Sends every `search_batch` group, however small, through `_filtered_scores`."""
    return mock.patch.object(index_module, "_FILTER_VALUES", 0)


def random_index(n, e, seed=0):
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(n, e))
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    ids = [f"d{i:05d}" for i in range(n)]
    return EmbeddingIndex(ids, matrix, [f"p{i:05d}" for i in range(n)], [20] * n)


def test_build_index_cardinality_and_determinism(tmp_path):
    corpus = synth_corpus(6, 72)  # ~50 train records
    params = init_params(0, corpus.d_img, corpus.d_txt, 16)
    index = build_index(corpus, params, "train")
    assert len(index.doc_ids) == len(corpus.split("train"))
    assert np.allclose(np.linalg.norm(index.matrix, axis=1), 1.0, atol=1e-9)
    pa, pb = tmp_path / "a.idx", tmp_path / "b.idx"
    save_index(index, pa)
    save_index(build_index(corpus, params, "train"), pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_build_index_rows_are_encode_doc():
    corpus = synth_corpus(6, 72)
    params = init_params(0, corpus.d_img, corpus.d_txt, 16)
    index = build_index(corpus, params, "train")
    np.testing.assert_allclose(np.linalg.norm(index.matrix, axis=1), 1.0, rtol=0, atol=1e-15)
    for rec, row in zip(corpus.split("train"), index.matrix):
        want = encode_doc(params, rec.image_features, rec.text_features)
        np.testing.assert_allclose(row, want, rtol=0, atol=1e-15)


def test_build_index_memory_is_about_one_matrix():
    corpus = synth_corpus(5, 4286)  # 3,000 train records
    params = init_params(0, corpus.d_img, corpus.d_txt, 256)
    index, peak = traced_peak(build_index, corpus, params, "train")
    matrix = index.matrix.nbytes
    gathered = corpus.inputs[corpus.rows("train")].nbytes
    assert matrix == 3000 * 256 * 8
    assert peak < matrix + gathered + matrix // 2


def test_build_index_missing_text_features():
    records = [make_record(f"s{i}") for i in range(5)]
    records[2].text_features = None
    records[4].text_features = None
    params = init_params(0, 4, 3, 8)
    with pytest.raises(MissingTextFeatures) as exc:
        build_index(make_corpus(records), params, "train")
    assert exc.value.doc_id == "s2"


def test_build_index_rejects_checkpoint_of_other_feature_dims():
    with pytest.raises(DimensionMismatch):
        build_index(make_corpus([make_record("s1")]), init_params(0, 4, 4, 8), "train")


def test_search_self_match():
    index = random_index(50, 8)
    hits = search(index, index.matrix[7], 1, NO_FILTER, ("q", "pq"))
    assert hits[0][0] == index.doc_ids[7]
    assert hits[0][1] == pytest.approx(1.0, abs=1e-12)


def test_search_exclusions_exhaust():
    index = random_index(5, 8)
    policy = ExclusionPolicy(exclude_self=False, exclude_same_patient=True, min_report_chars=0)
    with pytest.raises(EmptyCandidateSet):
        # all five rows share the query's patient
        idx = EmbeddingIndex(index.doc_ids, index.matrix, ["p"] * 5, index.report_chars)
        search(idx, index.matrix[0], 1, policy, ("q", "p"))


def test_search_k_beyond_corpus():
    index = random_index(10, 4)
    hits = search(index, index.matrix[0], 99, NO_FILTER, ("q", "p"))
    assert len(hits) == 10
    scores = [s for _, s in hits]
    assert scores == sorted(scores, reverse=True)


def test_search_excludes_self_and_patient_and_short_reports():
    index = random_index(6, 4)
    chars = [20, 20, 20, 2, 20, 20]  # row 3's report is too short
    index = EmbeddingIndex(index.doc_ids, index.matrix, index.patient_ids, chars)
    policy = ExclusionPolicy(exclude_self=True, exclude_same_patient=True, min_report_chars=5)
    hits = search(index, index.matrix[0], 99, policy, (index.doc_ids[0], index.patient_ids[1]))
    ids = {d for d, _ in hits}
    assert index.doc_ids[0] not in ids
    assert index.doc_ids[1] not in ids
    assert index.doc_ids[3] not in ids
    assert len(hits) == 3


def test_search_tie_break_ascending_id():
    matrix = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    index = EmbeddingIndex(["b", "a", "c"], matrix, ["p1", "p2", "p3"], [9, 9, 9])
    hits = search(index, np.array([1.0, 0.0]), 2, NO_FILTER, ("q", "p"))
    assert [d for d, _ in hits] == ["a", "b"]


def test_search_batch_of_one_equals_search():
    index = random_index(30, 8)
    q = random_index(1, 8, seed=3).matrix[0]
    assert search_batch(index, [q], 5, NO_FILTER, [("q", "p")]) == [
        search(index, q, 5, NO_FILTER, ("q", "p"))
    ]


def test_search_batch_matches_sequential_bitwise():
    index = random_index(200, 16, seed=5)
    queries = random_index(32, 16, seed=6).matrix
    identities = [(f"q{i}", f"qp{i}") for i in range(32)]
    batch = search_batch(index, list(queries), 10, NO_FILTER, identities)
    for q, ident, got in zip(queries, identities, batch):
        # brute-force oracle: full python sort over all scored rows
        scores = index.matrix @ q
        expected = sorted(
            zip(index.doc_ids, scores), key=lambda t: (-t[1], t[0])
        )[:10]
        assert [(d, float(s)) for d, s in expected] == got
        assert got == search(index, q, 10, NO_FILTER, ident)


def test_search_batch_empty():
    index = random_index(10, 4)
    assert search_batch(index, [], 3, NO_FILTER, []) == []


def raised(fn):
    """(type, message) of what fn() raises."""
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("case", ["k-zero", "ineligible-first", "short-first", "misaligned"])
def test_search_batch_raises_what_the_per_query_loop_raises(case):
    index = random_index(40, 8)
    index = EmbeddingIndex(index.doc_ids, index.matrix, ["p"] * 40, index.report_chars)
    ok = random_index(1, 8, seed=3).matrix[0]
    policy = ExclusionPolicy(exclude_self=False, exclude_same_patient=True, min_report_chars=0)
    fine, ineligible = ("q0", "other"), ("q1", "p")  # patient "p" owns every row
    queries, identities, k = {
        "k-zero": ([ok, ok], [fine, fine], 0),
        "ineligible-first": ([ok, ok, ok[:5], ok], [fine, ineligible, fine, ineligible], 3),
        "short-first": ([ok, ok[:5], ok], [fine, fine, ineligible], 3),
        "misaligned": ([ok, ok], [fine], 3),
    }[case]

    def loop():
        if len(queries) != len(identities):
            raise ValueError("query_embeddings and identities must align")
        return [search(index, q, k, policy, i) for q, i in zip(queries, identities)]

    want = raised(loop)
    assert want[0] is {"k-zero": InvalidConfig, "ineligible-first": EmptyCandidateSet}.get(case, ValueError)
    assert raised(lambda: search_batch(index, queries, k, policy, identities)) == want
    assert search_batch(index, [], k, policy, []) == []


def test_non_finite_query_raises_degenerate_embedding():
    index = random_index(4, 4)
    index = EmbeddingIndex(index.doc_ids, index.matrix, ["p"] * 4, index.report_chars)
    params = init_params(0, 4, 3, 4)
    ok, fine = index.matrix[0], ("q0", "other")
    for bad in ([np.nan, 1.0, 1.0, 1.0], [np.inf, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, -np.inf]):
        q = np.array(bad)
        with pytest.raises(DegenerateEmbedding):
            search(index, q, 1, NO_FILTER, fine)
        with pytest.raises(DegenerateEmbedding):
            search_batch(index, [ok, q, ok], 2, NO_FILTER, [fine] * 3)
        with np.errstate(invalid="ignore"), pytest.raises(DegenerateEmbedding):
            encode_query(params, q)
    # search_batch checks each query for eligibility, then shape, then
    # finiteness, and raises for the first that fails, as search does.
    policy = ExclusionPolicy(exclude_self=False, exclude_same_patient=True, min_report_chars=0)
    nan, ineligible = np.full(4, np.nan), ("q1", "p")  # patient "p" owns every row
    for queries, identities, want in (
        ([nan], [ineligible], EmptyCandidateSet),
        ([nan[:3]], [fine], ValueError),
        ([ok, nan, ok], [fine, fine, ineligible], DegenerateEmbedding),
    ):
        loop = raised(lambda: [search(index, q, 1, policy, i) for q, i in zip(queries, identities)])
        assert loop[0] is want
        assert raised(lambda: search_batch(index, queries, 1, policy, identities)) == loop
    # a finite query whose scores overflow is still answered
    huge = np.full(4, 1.7e308)
    with np.errstate(over="ignore"):
        hits = search(index, huge, 2, NO_FILTER, fine)
        assert len(hits) == 2 and hits[0][1] == np.inf
        assert bits(search_batch(index, [huge], 2, NO_FILTER, [fine])[0]) == bits(hits)


@pytest.mark.parametrize("e", [1, 3, 64, 256])
def test_blocked_scores_are_bit_equal_to_one_gemv(e):
    block = _block_rows(e)
    queries = random_index(3, e, seed=1).matrix
    for n in (1, 2, block - 1, block, block + 1, 2 * block + 1):
        index = random_index(n, e, seed=n)
        got = index_module._scores(index, queries)
        want = np.stack([index.matrix @ q for q in queries])
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist(), (e, n)


def test_search_batch_bits_on_index_whose_last_block_would_have_one_row():
    n = 2 * _block_rows(256) + 1  # three blocks, the last of one row unless folded
    index = random_index(n, 256, seed=2)
    queries = list(random_index(20, 256, seed=4).matrix)
    identities = [(f"q{i}", f"qp{i}") for i in range(20)]
    batch = search_batch(index, queries, n, NO_FILTER, identities)
    assert [bits(hits) for hits in batch] == [
        bits(search(index, q, n, NO_FILTER, i)) for q, i in zip(queries, identities)
    ]


def test_one_row_index_scores_a_zero_with_the_full_products_sign():
    # np.dot of [[0.0]] and [-1.0] gives -0.0, the full product 0.0
    index = EmbeddingIndex(["d"], np.array([[0.0]]), ["p"], [20])
    q = np.array([-1.0])
    assert bits(search(index, q, 1, NO_FILTER, ("q", "qp"))) == [("d", (index.matrix @ q)[0].hex())]


def test_search_batch_bits_on_index_large_enough_for_threaded_gemv():
    # 640,000 values: above the size from which OpenBLAS splits one GEMV
    # between threads, so this runs at the default BLAS thread count.
    n = 2500
    index = random_index(n, 256, seed=5)
    queries = list(random_index(12, 256, seed=6).matrix)
    identities = [(f"q{i}", f"qp{i}") for i in range(12)]
    batch = search_batch(index, queries, n, NO_FILTER, identities)
    assert [bits(hits) for hits in batch] == [
        bits(search(index, q, n, NO_FILTER, i)) for q, i in zip(queries, identities)
    ]


def test_search_batch_memory_stays_within_the_group_budget():
    index = random_index(4000, 64, seed=7)
    queries = list(random_index(500, 64, seed=8).matrix)
    identities = [(f"q{i}", f"qp{i}") for i in range(500)]
    search_batch(index, queries[:2], 10, NO_FILTER, identities[:2])  # fills the `_blocks` cache
    batch, peak = traced_peak(search_batch, index, queries, 10, NO_FILTER, identities)
    assert len(batch) == 500
    # all 500 score rows at once would take 16 MB, one group about 1 MB
    assert peak <= index_module._GROUP_BYTES + index.matrix.nbytes
    # The filtered route, within its own budget: here groups of 262 and 238.
    with filtered_route():
        budget = index_module._FILTER_GROUP_BYTES
        assert len(queries) > index_module._group_size(index) > 1
        batch, peak = traced_peak(search_batch, index, queries, 10, NO_FILTER, identities)
    assert len(batch) == 500
    assert peak <= budget + index.matrix.nbytes


def test_index_file_roundtrip(tmp_path):
    index = random_index(20, 6)
    index.checkpoint_sha256 = "ab" * 32
    path = tmp_path / "x.idx"
    save_index(index, path)
    back = load_index(path)
    assert back.checkpoint_sha256 == index.checkpoint_sha256
    assert back.doc_ids == index.doc_ids
    assert back.patient_ids == index.patient_ids
    assert back.report_chars == index.report_chars
    np.testing.assert_array_equal(back.matrix, index.matrix)


def assert_same_values(got, want):
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, np.ndarray):
            assert got[key].dtype == value.dtype, key
            np.testing.assert_array_equal(got[key], value)
        else:
            assert got[key] == value, key


def derived_arrays(index):
    return {k: v for k, v in vars(index).items() if k.startswith("_")}


def test_search_never_writes_to_the_index(tmp_path):
    n = 30
    index = random_index(n, 8, seed=14)
    chars = [2 if i % 4 == 0 else 20 for i in range(n)]
    index = EmbeddingIndex(index.doc_ids, index.matrix, [f"p{i % 5}" for i in range(n)], chars)
    before = dict(vars(index))  # keeps every object alive, so no id is reused
    ids = {k: id(v) for k, v in before.items()}
    contents = copy.deepcopy(before)
    queries = list(random_index(9, 8, seed=15).matrix)
    identities = [(index.doc_ids[i], f"p{i % 7}") for i in range(9)]
    policy = ExclusionPolicy()
    search(index, queries[0], 3, policy, identities[0])
    with mock.patch.object(index_module, "_GROUP_BYTES", 16 * n * 4):
        assert index_module._group_size(index) == 4  # groups of 4, 4 and 1
        search_batch(index, queries, 3, policy, identities)
        # the path build-rag takes, here with no eligible row for any query
        none_left = ExclusionPolicy(min_report_chars=100)
        assert index_module._search_groups(
            index, queries, 3, none_left, identities, require_candidates=False
        ) == [[]] * 9
    _rank_of_first(index, index.matrix @ queries[0], np.array([2, 5]))
    assert {k: id(v) for k, v in vars(index).items()} == ids
    assert_same_values(before, contents)
    # a loaded or replaced index derives the same arrays
    path = tmp_path / "x.idx"
    save_index(index, path)
    for other in (load_index(path), dataclasses.replace(index)):
        assert_same_values(derived_arrays(other), derived_arrays(index))


# --- vectorised selection against the naive scan ----------------------------


def naive_rows(index, scores, policy, query_identity):
    """Rows left by Python-loop exclusions, fully sorted on (-score, doc_id)."""
    report_id, patient_id = query_identity
    rows = [
        i
        for i, doc_id in enumerate(index.doc_ids)
        if not (policy.exclude_self and doc_id == report_id)
        and not (policy.exclude_same_patient and index.patient_ids[i] == patient_id)
        and index.report_chars[i] >= policy.min_report_chars
    ]
    return sorted(rows, key=lambda i: (-scores[i], index.doc_ids[i]))


def naive_search(index, scores, k, policy, query_identity):
    """Python-loop exclusions and a full sort on (-score, doc_id)."""
    ranked = naive_rows(index, scores, policy, query_identity)
    return [(index.doc_ids[i], float(scores[i])) for i in ranked[:k]]


def bits(hits):
    # float.hex tells -0.0 from 0.0, which == does not
    return [(doc_id, score.hex()) for doc_id, score in hits]


LEVELS = (-1.0, -0.5, -0.0, 0.0, 0.5, 1.0)


def direct_scores(_, queries):
    """Stands in for `_scores` when each query vector *is* its score row."""
    return np.asarray(queries, dtype=np.float64)


@st.composite
def search_problems(draw, directs=st.booleans()):
    n = draw(st.integers(1, 24))
    doc_ids = draw(st.lists(st.sampled_from([f"d{i:02d}" for i in range(30)]), min_size=n, max_size=n))
    patients = draw(st.lists(st.sampled_from(["p0", "p1", "p2"]), min_size=n, max_size=n))
    chars = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
    # direct: each query vector *is* the score vector, so signed zeros and
    # exact ties reach the selection unchanged; otherwise a quantised GEMV.
    direct = draw(directs)
    e = n if direct else draw(st.integers(1, 3))
    levels = st.lists(st.sampled_from(LEVELS), min_size=e, max_size=e)
    matrix = np.array(draw(st.lists(levels, min_size=n, max_size=n)), dtype=np.float64).reshape(n, e)
    policy = ExclusionPolicy(draw(st.booleans()), draw(st.booleans()), draw(st.integers(0, 8)))
    queries = draw(st.lists(
        st.tuples(
            levels.map(lambda v: np.array(v, dtype=np.float64)),
            st.tuples(st.sampled_from(doc_ids + ["absent"]), st.sampled_from(["p0", "p1", "p2", "absent"])),
        ),
        min_size=1, max_size=12,
    ))
    k_kind = draw(st.sampled_from(["one", "eligible", "beyond", "any"]))
    k_any = draw(st.integers(1, n))
    return EmbeddingIndex(doc_ids, matrix, patients, chars), direct, policy, queries, k_kind, k_any


@settings(max_examples=300, deadline=None)
@given(search_problems())
def test_search_matches_naive_scan(problem):
    index, direct, policy, queries, k_kind, k_any = problem
    n = len(index.doc_ids)
    scored = mock.patch.object(index_module, "_scores", direct_scores) if direct else contextlib.nullcontext()
    with scored:
        live = []
        for q, identity in queries:
            scores = q if direct else index.matrix @ q
            eligible = len(naive_search(index, scores, n, policy, identity))
            if eligible == 0:
                with pytest.raises(EmptyCandidateSet):
                    search(index, q, 1, policy, identity)
                continue
            k = {"one": 1, "eligible": eligible, "beyond": n + 1, "any": k_any}[k_kind]
            want = naive_search(index, scores, k, policy, identity)
            assert bits(search(index, q, k, policy, identity)) == bits(want)
            live.append((q, identity, scores))
        if live:
            got = search_batch(index, [q for q, _, _ in live], k, policy, [i for _, i, _ in live])
            want = [naive_search(index, s, k, policy, i) for _, i, s in live]
            assert [bits(hits) for hits in got] == [bits(hits) for hits in want]


@settings(max_examples=300, deadline=None)
@given(search_problems(), st.data())
def test_rank_of_first_matches_naive_scan(problem, data):
    index, direct, _, queries, _, _ = problem
    n = len(index.doc_ids)
    scored = mock.patch.object(index_module, "_scores", direct_scores) if direct else contextlib.nullcontext()
    with scored:
        for q, identity in queries:
            [scores] = index_module._scores(index, [q])
            wanted = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
            ranked = naive_rows(index, scores, NO_FILTER, identity)
            # rows, not ids: an id may repeat across rows with different marks
            want = next((pos for pos, i in enumerate(ranked, 1) if wanted[i]), 0)
            assert _rank_of_first(index, scores, np.flatnonzero(wanted)) == want


@settings(max_examples=150, deadline=None)
@given(search_problems(directs=st.just(False)))
def test_filtered_search_matches_naive_scan(problem):
    index, _, policy, queries, k_kind, k_any = problem
    n = len(index.doc_ids)
    live = []
    for q, identity in queries:
        scores = index.matrix @ q
        eligible = len(naive_search(index, scores, n, policy, identity))
        if eligible:
            live.append((q, identity, scores))
            k = {"one": 1, "eligible": eligible, "beyond": n + 1, "any": k_any}[k_kind]
    if live:
        with filtered_route():
            got = search_batch(index, [q for q, _, _ in live], k, policy, [i for _, i, _ in live])
        want = [naive_search(index, s, k, policy, i) for _, i, s in live]
        assert [bits(hits) for hits in got] == [bits(hits) for hits in want]


@pytest.mark.parametrize("e", [1, 3, 17, 64, 256, 300])
def test_filtered_scores_are_bit_equal_to_scores(e):
    # Every eligible row is kept at k = n, so each random mask makes
    # `_filtered_scores` score again a random set of rows; one mask keeps
    # only the last row and one only the rows after the last group of 4.
    block = _block_rows(e)
    rng = np.random.default_rng(e)
    sizes = [1, 2, 3, 4, 5, 6, 7, 8, 9, 11]
    sizes += [block - 1, block, block + 1, block + 2, block + 3, 2 * block + 1, 2 * block + 2]
    for n in sizes:
        matrix = rng.normal(size=(n, e))
        index = EmbeddingIndex(["d"] * n, matrix, ["p"] * n, [20] * n)  # one id: quick to build
        queries = list(rng.normal(size=(4, e)))
        mask = rng.random((4, n)) < 0.3
        mask[0] = False
        mask[0, -1] = True
        mask[1] = False
        mask[1, n - n % 4 :] = True
        want = index_module._scores(index, queries)
        scores, eligible, columns = index_module._filtered_scores(index, queries, mask.copy(), n)
        assert (eligible == mask[:, columns]).all() and mask[:, columns].sum() == mask.sum()
        want = want[:, columns][eligible]
        assert scores[eligible].view(np.int64).tolist() == want.view(np.int64).tolist(), (e, n)


def near_duplicates(n=600, e=64, seed=21):
    """An index whose rows and queries differ from one unit vector by about
    1e-14, so all scores lie within a few units in the last place of 1 and
    GEMM and GEMV order many of them differently."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=e)
    base /= np.linalg.norm(base)
    matrix = base + 1e-14 * rng.normal(size=(n, e))
    index = EmbeddingIndex([f"d{i:05d}" for i in range(n)], matrix, ["p"] * n, [20] * n)
    queries = list(base + 1e-14 * rng.normal(size=(8, e)))
    return index, queries, [(f"q{i}", f"qp{i}") for i in range(8)]


def test_filtered_search_keeps_the_whole_band_of_near_ties():
    index, queries, identities = near_duplicates()
    k = 10
    with filtered_route():
        got = search_batch(index, queries, k, NO_FILTER, identities)
    assert [bits(hits) for hits in got] == [
        bits(search(index, q, k, NO_FILTER, i)) for q, i in zip(queries, identities)
    ]
    mask = np.ones((len(queries), len(index.doc_ids)), dtype=bool)
    _, eligible, _ = index_module._filtered_scores(index, queries, mask, k)
    assert eligible.sum(axis=1).min() > 5 * k  # the band holds far more than k rows
    # GEMM alone would pick other rows for some queries
    approx = np.stack(queries) @ index.matrix.T
    assert any(
        set(np.argsort(-row, kind="stable")[:k]) != {int(d[1:]) for d, _ in hits}
        for row, hits in zip(approx, got)
    )


def test_filtered_search_with_no_error_bound_picks_wrong_rows():
    # Shows the tests can see a band that is too small: with B = 0 the
    # filter drops rows whose GEMV score reaches the top k.
    index, queries, identities = near_duplicates()
    want = [bits(search(index, q, 10, NO_FILTER, i)) for q, i in zip(queries, identities)]
    no_bound = mock.patch.object(index_module, "_score_error", lambda e, squares, _: 0 * squares)
    with filtered_route(), no_bound:
        got = search_batch(index, queries, 10, NO_FILTER, identities)
    assert [bits(hits) for hits in got] != want


def test_filtered_route_falls_back_to_scores_on_non_finite_values():
    inf, nan = np.inf, np.nan
    matrix = np.array([[1.0, 0.0], [0.0, 1.0], [inf, 1.0], [0.5, -1.0], [nan, 0.5], [0.0, nan]])
    policy = ExclusionPolicy()
    finite = random_index(6, 2, seed=3)
    identities = [("dx", "p9")] * 2
    cases = [
        (matrix, [np.array([1.0, 0.0]), np.array([0.0, 1.0])]),  # non-finite rows
        (finite.matrix, [np.array([1.0, 0.0]), np.full(2, 1e155)]),  # a squared norm overflows
        # squares of 1e308, but ||q|| max ||d|| = 1e308 >= 2^1023: a sum may overflow
        (finite.matrix * 1e154, [np.array([1.0, 0.0]), np.array([1e154, 0.0])]),
    ]
    for rows, queries in cases:
        patients = ["p0"] * 3 + ["p1", "p2", "p3"]
        index = EmbeddingIndex([f"d{i}" for i in range(6)], rows, patients, [9] * 6)
        mask = np.ones((2, 6), dtype=bool)
        with np.errstate(invalid="ignore", over="ignore"):
            assert index_module._filtered_scores(index, queries, mask, 2) is None
            assert mask.all()
            for k in (1, 3, 6):
                with filtered_route(), mock.patch.object(
                    index_module, "_scores", wraps=index_module._scores
                ) as scored:
                    got = search_batch(index, queries, k, policy, identities)
                assert scored.call_count == 1
                assert [bits(hits) for hits in got] == [
                    bits(search(index, q, k, policy, i)) for q, i in zip(queries, identities)
                ]


def test_search_batch_over_unequal_groups_matches_search_and_naive_scan():
    # 20 rows scored with quantised vectors: d00-d03 own two rows each,
    # patient p0 owns 12 rows, three reports are too short, and many
    # scores tie.
    n, k = 20, 5
    rng = np.random.default_rng(11)
    matrix = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(n, 2))
    doc_ids = [f"d{i // 2:02d}" if i < 8 else f"d{i:02d}" for i in range(n)]
    patients = ["p0"] * 12 + [f"p{i}" for i in range(1, 9)]
    chars = [20] * n
    chars[13] = chars[15] = chars[17] = 2
    index = EmbeddingIndex(doc_ids, matrix, patients, chars)
    policy = ExclusionPolicy()
    queries = list(rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(11, 2)))
    # d00 and d01 each own two rows. Patient p0's queries keep the 5 long
    # rows outside p0, and ("d12", "p0") and ("d14", "p0") only 4 (< k).
    identities = [
        ("d00", "p0"), ("d01", "p3"), ("absent", "p0"), ("d12", "p0"), ("d05", "p9"),
        ("d01", "p1"), ("absent", "absent"), ("d19", "p8"), ("d14", "p0"), ("d00", "p2"),
        ("d03", "p4"),
    ]
    scored = [(index.matrix @ q, i) for q, i in zip(queries, identities)]
    ranked = [naive_rows(index, scores, policy, i) for scores, i in scored]
    assert min(map(len, ranked)) < k < max(map(len, ranked))
    # rows whose k-th and (k+1)-th candidates tie, so doc_id decides the cut
    assert sum(len(r) > k and s[r[k - 1]] == s[r[k]] for (s, _), r in zip(scored, ranked)) >= 2
    with mock.patch.object(index_module, "_GROUP_BYTES", 16 * n * 4):
        step = index_module._group_size(index)
        assert step == 4 and len(queries) % step  # groups of 4, 4 and 3
        got = search_batch(index, queries, k, policy, identities)
    assert [bits(hits) for hits in got] == [
        bits(search(index, q, k, policy, i)) for q, i in zip(queries, identities)
    ]
    assert [bits(hits) for hits in got] == [bits(naive_search(index, s, k, policy, i)) for s, i in scored]


def test_search_batch_leaves_queries_and_matrix_unchanged():
    index = random_index(60, 8, seed=12)
    chars = [1 if i % 5 == 0 else 20 for i in range(60)]
    index = EmbeddingIndex(index.doc_ids, index.matrix, [f"p{i % 6}" for i in range(60)], chars)
    queries = random_index(9, 8, seed=13).matrix
    identities = [(index.doc_ids[i], f"p{i % 7}") for i in range(9)]
    before = queries.copy(), index.matrix.copy()
    for batch in (queries, list(queries)):
        search_batch(index, batch, 7, ExclusionPolicy(), identities)
        assert queries.view(np.int64).tolist() == before[0].view(np.int64).tolist()
        assert index.matrix.view(np.int64).tolist() == before[1].view(np.int64).tolist()


def test_search_batch_equals_search_on_non_finite_scores():
    # No order is defined among NaN scores, but a batch must still give
    # what per-query search gives, for rows with fewer and more than k
    # candidates. Queries must be finite, so the scores turn non-finite
    # through non-finite index rows (inf * 0 and NaN give NaN) and through
    # a query that overflows.
    inf, nan = np.inf, np.nan
    matrix = np.array([[1.0, 0.0], [0.0, 1.0], [inf, 1.0], [0.5, -1.0], [nan, 0.5], [0.0, nan]])
    index = EmbeddingIndex([f"d{i}" for i in range(6)], matrix, ["p0"] * 3 + ["p1", "p2", "p3"], [9] * 6)
    policy = ExclusionPolicy()
    queries = [np.array(q) for q in ([1.0, 0.0], [0.0, 1.0], [-1.0, 1.0], [0.0, 0.0], [1e308, 1e308])]
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(1, 7):
            for patient in ("p0", "p9"):  # 3 and 6 candidates
                identities = [("dx", patient)] * len(queries)
                got = search_batch(index, queries, k, policy, identities)
                assert [bits(hits) for hits in got] == [
                    bits(search(index, q, k, policy, i)) for q, i in zip(queries, identities)
                ], (k, patient)


def test_search_on_loaded_index_matches_built_index(tmp_path):
    index = random_index(300, 8, seed=9)
    index.matrix[:] = np.round(index.matrix * 2) / 2  # quantised: many tied scores
    index.patient_ids[:] = [f"p{i % 40}" for i in range(300)]
    index.report_chars[::7] = [3] * len(index.report_chars[::7])
    path = tmp_path / "tied.idx"
    save_index(index, path)
    loaded = load_index(path)
    policy = ExclusionPolicy()
    for j, q in enumerate(random_index(20, 8, seed=10).matrix):
        identity = (index.doc_ids[j], index.patient_ids[j + 1])
        want = naive_search(index, index.matrix @ q, 10, policy, identity)
        assert bits(search(loaded, q, 10, policy, identity)) == bits(want)


# --- load_index rejects files save_index did not write ----------------------


def saved_index(tmp_path):
    path = tmp_path / "x.idx"
    save_index(random_index(4, 3), path)
    header, body = path.read_bytes().split(b"\n", 1)
    return path, json.loads(header), body


def rewrite(path, header, body):
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)


def test_load_index_rejects_truncated_body(tmp_path):
    path, header, body = saved_index(tmp_path)
    rewrite(path, header, body[:-5])
    with pytest.raises(MalformedArtifact, match="body is 91 bytes, expected 96"):
        load_index(path)


@pytest.mark.parametrize(
    "change",
    [
        {"schema_version": "0"},
        {"n": 5},
        {"n": -1},
        {"embedding_dim": 0},
        {"embedding_dim": "3"},
        {"doc_ids": ["d0", "d1", "d2"]},
        {"patient_ids": ["p0", "p1", "p2", 4]},
        {"report_chars": [20, 20, 20, 2.5]},
        {"schema_version": "1"},
        {"checkpoint_sha256": "ab"},
        {"checkpoint_sha256": "AB" * 32},
        {"checkpoint_sha256": 7},
    ],
)
def test_load_index_rejects_bad_header(tmp_path, change):
    path, header, body = saved_index(tmp_path)
    rewrite(path, {**header, **change}, body)
    with pytest.raises(MalformedArtifact):
        load_index(path)


def test_load_index_rejects_non_json_header_and_non_finite_entries(tmp_path):
    path, header, body = saved_index(tmp_path)
    path.write_bytes(b"\x89not json\n" + body)
    with pytest.raises(MalformedArtifact, match="not a JSON line"):
        load_index(path)
    rewrite(path, header, np.float64(np.nan).tobytes() + body[8:])
    with pytest.raises(MalformedArtifact, match="non-finite"):
        load_index(path)
