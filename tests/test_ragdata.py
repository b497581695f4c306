import json

import pytest

from factmine.corpus import synth_corpus
from factmine.encoder import init_params
from factmine.errors import EmptyCandidateSet, MalformedArtifact
from factmine.evaluator import oracle_retrieve
from factmine.index import ExclusionPolicy
from factmine.ragdata import (
    RAG_TEMPLATE,
    VQA_TEMPLATE,
    build_rag_dataset,
    read_rag_dataset,
    write_rag_dataset,
)

from conftest import entity_graph, make_corpus, make_record

POLICY = ExclusionPolicy(exclude_self=True, exclude_same_patient=True, min_report_chars=5)


def default_params(corpus):
    return init_params(0, corpus.d_img, corpus.d_txt, 16)


def test_vqa_prompt_has_no_document():
    corpus = synth_corpus(1, 10)
    examples, warnings = build_rag_dataset(corpus, None, POLICY, "vqa")
    assert len(examples) == len(corpus)
    assert warnings == 0
    for ex in examples:
        assert ex.prompt_text == VQA_TEMPLATE
        assert ex.retrieved_doc_id is None
        assert "related patient" not in ex.prompt_text


def test_rag_prompt_quotes_retrieved_report():
    corpus = synth_corpus(2, 20)
    examples, _ = build_rag_dataset(corpus, default_params(corpus), POLICY, "rag")
    with_doc = [ex for ex in examples if ex.retrieved_doc_id is not None]
    assert with_doc
    for ex in with_doc:
        retrieved = corpus[ex.retrieved_doc_id].report_text
        assert ex.prompt_text == RAG_TEMPLATE.format(document=retrieved)
        assert f'"{retrieved}"' in ex.prompt_text
        assert ex.prompt_text.endswith("Generate a radiology report from this image: <image>")


def test_template_literals():
    assert VQA_TEMPLATE == "Generate a radiology report from this image: <image>"
    assert RAG_TEMPLATE.format(document="No acute findings.") == (
        'Here is a report of a related patient: "No acute findings."\n'
        "Generate a radiology report from this image: <image>"
    )


def oracle_or_none(corpus, query_id):
    try:
        return oracle_retrieve(corpus, query_id)[0]
    except EmptyCandidateSet:
        return None


def test_oracle_rag_delegates_to_oracle():
    # The lone train report has no oracle candidate but itself.
    lone = make_corpus([
        make_record("t", graph=entity_graph("heart")),
        make_record("q", split="test", graph=entity_graph("heart", "lung")),
        make_record("v", split="validation", graph=entity_graph("lung")),
    ])
    for corpus in (synth_corpus(3, 20), lone):
        examples, warnings = build_rag_dataset(corpus, None, POLICY, "oracle-rag")
        want = [oracle_or_none(corpus, rec.report_id) for rec in corpus.records]
        assert [ex.retrieved_doc_id for ex in examples] == want
        assert warnings == want.count(None)
    assert want == [None, "t", "t"]


def test_policy_invariants_hold():
    corpus = synth_corpus(4, 40)
    examples, _ = build_rag_dataset(corpus, default_params(corpus), POLICY, "rag")
    for ex in examples:
        if ex.retrieved_doc_id is None:
            continue
        query = corpus[ex.query_report_id]
        doc = corpus[ex.retrieved_doc_id]
        assert doc.report_id != query.report_id
        assert doc.patient_id != query.patient_id
        assert len(doc.report_text) >= POLICY.min_report_chars


def test_fully_excluded_query_falls_back_to_vqa():
    records = [
        make_record("q", patient_id="shared", graph=entity_graph("heart")),
        make_record("d", patient_id="shared", graph=entity_graph("heart", "lung")),
    ]
    corpus = make_corpus(records)
    examples, warnings = build_rag_dataset(corpus, default_params(corpus), POLICY, "rag")
    assert warnings == 2  # both train queries only see their own patient
    assert all(ex.prompt_text == VQA_TEMPLATE for ex in examples)
    assert all(ex.retrieved_doc_id is None for ex in examples)


def test_target_is_ground_truth_report():
    corpus = synth_corpus(5, 10)
    examples, _ = build_rag_dataset(corpus, None, POLICY, "vqa")
    for ex in examples:
        assert ex.target_text == corpus[ex.query_report_id].report_text
        assert ex.target_text


def test_build_is_deterministic_and_roundtrips(tmp_path):
    corpus = synth_corpus(6, 30)
    params = default_params(corpus)
    a, _ = build_rag_dataset(corpus, params, POLICY, "rag")
    b, _ = build_rag_dataset(corpus, params, POLICY, "rag")
    assert a == b
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_rag_dataset(a, pa)
    write_rag_dataset(b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    assert read_rag_dataset(pa) == a


@pytest.mark.parametrize("mode", ["vqa", "oracle-rag"])
def test_modes_without_retrieval_roundtrip(tmp_path, mode):
    # vqa writes a null retrieved_id, which the reader accepts
    examples, _ = build_rag_dataset(synth_corpus(6, 30), None, POLICY, mode)
    path = tmp_path / "rag.jsonl"
    write_rag_dataset(examples, path)
    assert read_rag_dataset(path) == examples


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        build_rag_dataset(synth_corpus(1, 5), None, POLICY, "freeform")


def _without_id(line):
    obj = json.loads(line)
    del obj["id"]
    return json.dumps(obj).encode() + b"\n"


def _with(**fields):
    def corrupt(line):
        return json.dumps({**json.loads(line), **fields}).encode() + b"\n"
    return corrupt


@pytest.mark.parametrize("corrupt", [
    lambda line: b"garbage line\n",
    lambda line: line[:-20] + b"\n",
    lambda line: b"\xff" + line,
    lambda line: b"[1, 2, 3]\n",
    lambda line: b"null\n",
    _without_id,
    _with(id=5),
    _with(image=None),
    _with(prompt=3),
    _with(target=[]),
    _with(retrieved_id=7),
    _with(retrieved_id=False),
    _with(mode="bogus"),
    _with(mode=None),
    _with(id=5, image=None, prompt=3, target=[], retrieved_id=None, mode="bogus"),
], ids=["not-json", "truncated", "not-utf8", "array", "null", "missing-key", "int-id",
        "null-image", "int-prompt", "list-target", "int-retrieved-id", "false-retrieved-id",
        "unknown-mode", "null-mode", "all-fields-wrong"])
def test_malformed_rag_line_names_file_and_line(tmp_path, corrupt):
    corpus = synth_corpus(6, 10)
    examples, _ = build_rag_dataset(corpus, None, POLICY, "oracle-rag")
    path = tmp_path / "rag.jsonl"
    write_rag_dataset(examples, path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[2] = corrupt(lines[2])
    path.write_bytes(b"".join(lines))
    with pytest.raises(MalformedArtifact, match="line 3") as excinfo:
        read_rag_dataset(path)
    assert excinfo.value.path == str(path)
