import contextlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import factmine.index as index_module
from factmine.corpus import synth_corpus
from factmine.encoder import encode_query, init_params
from factmine.errors import EmptyCandidateSet, MalformedArtifact, MissingTextFeatures
from factmine.index import (
    EmbeddingIndex,
    ExclusionPolicy,
    build_index,
    load_index,
    save_index,
    search,
    search_batch,
)

from conftest import make_corpus, make_record

NO_FILTER = ExclusionPolicy(exclude_self=False, exclude_same_patient=False, min_report_chars=0)


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


def test_build_index_missing_text_features():
    rec = make_record("s1")
    rec.text_features = None
    corpus = make_corpus([rec])
    params = init_params(0, 4, 3, 8)
    with pytest.raises(MissingTextFeatures) as exc:
        build_index(corpus, params, "train")
    assert exc.value.doc_id == "s1"


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
    index.report_chars[3] = 2
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


def test_index_file_roundtrip(tmp_path):
    index = random_index(20, 6)
    path = tmp_path / "x.idx"
    save_index(index, path)
    back = load_index(path)
    assert back.doc_ids == index.doc_ids
    assert back.patient_ids == index.patient_ids
    assert back.report_chars == index.report_chars
    np.testing.assert_array_equal(back.matrix, index.matrix)


# --- vectorised selection against the naive scan ----------------------------


def naive_search(index, scores, k, policy, query_identity):
    """Python-loop exclusions and a full sort on (-score, doc_id)."""
    report_id, patient_id = query_identity
    rows = [
        i
        for i, doc_id in enumerate(index.doc_ids)
        if not (policy.exclude_self and doc_id == report_id)
        and not (policy.exclude_same_patient and index.patient_ids[i] == patient_id)
        and index.report_chars[i] >= policy.min_report_chars
    ]
    ranked = sorted(rows, key=lambda i: (-scores[i], index.doc_ids[i]))
    return [(index.doc_ids[i], float(scores[i])) for i in ranked[:k]]


def bits(hits):
    # float.hex tells -0.0 from 0.0, which == does not
    return [(doc_id, score.hex()) for doc_id, score in hits]


LEVELS = (-1.0, -0.5, -0.0, 0.0, 0.5, 1.0)


@st.composite
def search_problems(draw):
    n = draw(st.integers(1, 24))
    doc_ids = draw(st.lists(st.sampled_from([f"d{i:02d}" for i in range(30)]), min_size=n, max_size=n))
    patients = draw(st.lists(st.sampled_from(["p0", "p1", "p2"]), min_size=n, max_size=n))
    chars = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
    # direct: each query vector *is* the score vector, so signed zeros and
    # exact ties reach the selection unchanged; otherwise a quantised GEMV.
    direct = draw(st.booleans())
    e = n if direct else draw(st.integers(1, 3))
    levels = st.lists(st.sampled_from(LEVELS), min_size=e, max_size=e)
    matrix = np.array(draw(st.lists(levels, min_size=n, max_size=n)), dtype=np.float64).reshape(n, e)
    policy = ExclusionPolicy(draw(st.booleans()), draw(st.booleans()), draw(st.integers(0, 8)))
    queries = draw(st.lists(
        st.tuples(
            levels.map(lambda v: np.array(v, dtype=np.float64)),
            st.tuples(st.sampled_from(doc_ids + ["absent"]), st.sampled_from(["p0", "p1", "p2", "absent"])),
        ),
        min_size=1, max_size=4,
    ))
    k_kind = draw(st.sampled_from(["one", "eligible", "beyond", "any"]))
    k_any = draw(st.integers(1, n))
    return EmbeddingIndex(doc_ids, matrix, patients, chars), direct, policy, queries, k_kind, k_any


@settings(max_examples=300, deadline=None)
@given(search_problems())
def test_search_matches_naive_scan(problem):
    index, direct, policy, queries, k_kind, k_any = problem
    n = len(index.doc_ids)
    scored = mock.patch.object(index_module, "_scores", lambda _, q: q) if direct else contextlib.nullcontext()
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
