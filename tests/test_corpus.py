import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import factmine.corpus as corpus_module
from factmine.corpus import (
    ENTITY_LABELS,
    RELATION_TYPES,
    SPLITS,
    FactGraph,
    _best_first,
    load_corpus,
    normalize_entity,
    synth_corpus,
    write_corpus,
)
from factmine.errors import (
    DimensionMismatch,
    DuplicateId,
    FactmineError,
    InvalidConfig,
    MalformedRecord,
    UnknownLabelArity,
)

from conftest import make_corpus, make_record

HEADER = {"schema_version": "1", "d_img": 2, "d_txt": 2}


def record_obj(report_id="s1", **overrides):
    obj = {
        "report_id": report_id,
        "patient_id": "p1",
        "split": "train",
        "report_text": "mild edema",
        "labels": [0, 1, 0, 0, 0],
        "entities": [["edema", "OBS-DP"], ["lung", "ANAT-DP"]],
        "relations": [[0, "located_at", 1]],
        "image_features": [1.0, 2.0],
        "text_features": [0.5, -0.5],
    }
    obj.update(overrides)
    return obj


def write_file(tmp_path, objs, header=HEADER):
    path = tmp_path / "corpus.jsonl"
    lines = [json.dumps(header)] + [json.dumps(o) for o in objs]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_load_three_valid_records(tmp_path):
    path = write_file(tmp_path, [record_obj(f"s{i}") for i in range(3)])
    corpus = load_corpus(path)
    assert len(corpus) == 3


def test_duplicate_report_id_rejected(tmp_path):
    path = write_file(tmp_path, [record_obj("s1"), record_obj("s1")])
    with pytest.raises(DuplicateId):
        load_corpus(path)


def test_wrong_label_arity_rejected(tmp_path):
    path = write_file(tmp_path, [record_obj(labels=[0, 1, 0, 0])])
    with pytest.raises(UnknownLabelArity):
        load_corpus(path)


def test_out_of_range_relation_rejected(tmp_path):
    path = write_file(tmp_path, [record_obj(relations=[[0, "located_at", 9]])])
    with pytest.raises(MalformedRecord) as exc:
        load_corpus(path)
    assert exc.value.line_no == 2


def test_feature_dimension_mismatch(tmp_path):
    path = write_file(tmp_path, [record_obj(image_features=[1.0, 2.0, 3.0])])
    with pytest.raises(DimensionMismatch):
        load_corpus(path)


def test_null_text_features_allowed(tmp_path):
    path = write_file(tmp_path, [record_obj(text_features=None)])
    corpus = load_corpus(path)
    assert corpus["s1"].text_features is None


@pytest.mark.parametrize("field, shape", [
    ("image_features", (1,)),
    ("image_features", (5,)),
    ("text_features", (4,)),
    ("text_features", (3, 1)),
])
def test_corpus_names_record_of_wrong_feature_shape(field, shape):
    # An in-memory corpus skips load_corpus, so Corpus checks each record.
    records = [make_record(f"s{i}") for i in range(4)]
    setattr(records[2], field, np.ones(shape))
    with pytest.raises(DimensionMismatch, match="s2"):
        make_corpus(records)


@pytest.mark.parametrize("name", ["tets", "Test"])
def test_unknown_split_is_invalid_config(name):
    corpus = make_corpus([make_record("s1")])
    for method in (corpus.rows, corpus.split):
        with pytest.raises(InvalidConfig, match=f"{name!r}.*train, validation, test"):
            method(name)


def test_invalid_json_line_reports_line_number(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(HEADER) + "\n" + json.dumps(record_obj()) + "\nnot-json\n")
    with pytest.raises(MalformedRecord) as exc:
        load_corpus(path)
    assert exc.value.line_no == 3


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("  Pleural  ", "pleural"),
        ("effusion.", "effusion"),
        ("CABG", "cabg"),
        ("right   lower  LOBE", "right lower lobe"),
        ("...", ""),
    ],
)
def test_normalize_entity(raw, expected):
    assert normalize_entity(raw) == expected


def test_roundtrip_semantic_identity(tmp_path):
    corpus = synth_corpus(3, 12)
    path = tmp_path / "a.jsonl"
    write_corpus(corpus, path)
    loaded = load_corpus(path)
    assert len(loaded) == len(corpus)
    for orig, back in zip(corpus.records, loaded.records):
        assert back.report_id == orig.report_id
        assert back.patient_id == orig.patient_id
        assert back.split == orig.split
        assert back.report_text == orig.report_text
        assert back.labels == orig.labels
        assert back.graph == orig.graph
        np.testing.assert_array_equal(back.image_features, orig.image_features)
        np.testing.assert_array_equal(back.text_features, orig.text_features)
    # second serialization is byte-identical
    path2 = tmp_path / "b.jsonl"
    write_corpus(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_synth_determinism(tmp_path):
    a, b = synth_corpus(7, 10), synth_corpus(7, 10)
    pa, pb = tmp_path / "a", tmp_path / "b"
    write_corpus(a, pa)
    write_corpus(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_synth_seed_sensitivity(tmp_path):
    pa, pb = tmp_path / "a", tmp_path / "b"
    write_corpus(synth_corpus(7, 10), pa)
    write_corpus(synth_corpus(8, 10), pb)
    assert pa.read_bytes() != pb.read_bytes()


def test_synth_minimal_corpus_roundtrips(tmp_path):
    corpus = synth_corpus(1, 1)
    assert len(corpus) == 1
    path = tmp_path / "one.jsonl"
    write_corpus(corpus, path)
    assert len(load_corpus(path)) == 1


def test_synth_relations_resolve():
    corpus = synth_corpus(11, 40)
    for rec in corpus.records:
        rec.graph.validate()


def test_graph_rejects_bad_relation_type():
    graph = FactGraph((("edema", "OBS-DP"),), ((0, "caused_by", 0),))
    with pytest.raises(ValueError):
        graph.validate()


def test_graph_rejects_non_string_entity_text():
    with pytest.raises(ValueError, match="not a string"):
        FactGraph(((5, "OBS-DP"),)).validate()


# --- the loader checks each distinct item once and shares it ----------------


def test_repeated_items_are_shared_and_normalized_once(tmp_path, monkeypatch):
    calls = []

    def counting(text):
        calls.append(text)
        return normalize_entity(text)

    monkeypatch.setattr(corpus_module, "normalize_entity", counting)
    corpus = load_corpus(write_file(tmp_path, [record_obj(f"s{i}") for i in range(3)]))
    a, b, c = corpus.records
    assert sorted(calls) == ["edema", "lung"]
    for i in range(2):
        assert a.graph.entities[i] is b.graph.entities[i] is c.graph.entities[i]
    assert a.graph.relations[0] is b.graph.relations[0] is c.graph.relations[0]
    assert a.labels is b.labels is c.labels


@pytest.mark.parametrize("change", [
    {"labels": [0.5, 1, 0, 0, 0]},
    {"labels": [True, 0, 0, 0, 0]},
    {"labels": [1.0, 0, 0, 0, 0]},
    {"labels": "01000"},
    {"relations": [[0.7, "located_at", 1]]},
    {"relations": [[0, "located_at", True]]},
    {"entities": [[5, "OBS-DP"], ["lung", "ANAT-DP"]]},
    {"image_features": [float("nan"), 1.0]},
    {"text_features": [0.5, float("inf")]},
    {"image_features": ["a", 1.0]},
], ids=["label-fraction", "label-bool", "label-float", "label-text", "endpoint-fraction",
        "endpoint-bool", "entity-number", "image-nan", "text-inf", "image-text"])
def test_inexact_values_are_malformed_not_truncated(tmp_path, change):
    path = write_file(tmp_path, [record_obj("s0"), record_obj("s1", **change), record_obj("s2")])
    with pytest.raises(MalformedRecord) as exc:
        load_corpus(path)
    assert exc.value.line_no == 3


def test_overflowing_feature_is_malformed(tmp_path):
    path = write_file(tmp_path, [record_obj("s0"), record_obj("s1", image_features=[1.0, 2.0])])
    path.write_text(path.read_text().replace("[1.0, 2.0]", "[1e400, 2.0]"))
    with pytest.raises(MalformedRecord, match="non-finite") as exc:
        load_corpus(path)
    assert exc.value.line_no == 2


def test_non_finite_feature_is_named_before_a_later_fault(tmp_path):
    path = write_file(tmp_path, [
        record_obj("s0", text_features=[float("nan"), 0.0]),
        record_obj("s1", split="dev"),
    ])
    with pytest.raises(MalformedRecord, match="text_features") as exc:
        load_corpus(path)
    assert exc.value.line_no == 2
    # Only the image features of the second record, after a blank line.
    path = write_file(tmp_path, [
        record_obj("s0", text_features=None),
        {},
        record_obj("s1", image_features=[1.0, float("inf")]),
        record_obj("s2", split="dev"),
    ])
    path.write_text(path.read_text().replace("{}", ""))
    with pytest.raises(MalformedRecord, match="image_features") as exc:
        load_corpus(path)
    assert exc.value.line_no == 4


@pytest.mark.parametrize("line_no", [1, 3])
def test_non_utf8_line_is_malformed(tmp_path, line_no):
    lines = [json.dumps(HEADER), json.dumps(record_obj("s0")), json.dumps(record_obj("s1"))]
    data = [line.encode() for line in lines]
    data[line_no - 1] = data[line_no - 1].replace(b"{", b'{"note": "\xff", ', 1)
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(b"\n".join(data) + b"\n")
    with pytest.raises(MalformedRecord, match="UTF-8") as exc:
        load_corpus(path)
    assert exc.value.line_no == line_no


def test_duplicate_and_arity_errors_name_the_line(tmp_path):
    path = write_file(tmp_path, [record_obj("s1"), {}, record_obj("s1")])
    path.write_text(path.read_text().replace("{}", ""))
    with pytest.raises(DuplicateId, match="line 4: ") as exc:
        load_corpus(path)
    assert (exc.value.report_id, exc.value.line_no) == ("s1", 4)
    path = write_file(tmp_path, [record_obj("s1"), record_obj("s2", labels=[0, 1])])
    with pytest.raises(UnknownLabelArity) as exc:
        load_corpus(path)
    assert (exc.value.got, exc.value.line_no) == (2, 3)


# --- load_corpus against a naive per-line reference parse --------------------


def reference_record(obj, line_no, d_img, d_txt):
    """One record, every check written out in load_corpus's documented order."""

    def malformed(why):
        return MalformedRecord(line_no, why)

    try:
        if not isinstance(obj, dict):
            raise malformed("not an object")
        labels = obj["labels"]
        if not isinstance(labels, list):
            raise malformed("labels not a list")
        if len(labels) != 5:
            raise UnknownLabelArity(len(labels), line_no)
        if not all(type(v) is int and v in (0, 1) for v in labels):
            raise malformed("labels not binary integers")
        entities = []
        for item in obj["entities"]:
            if not (isinstance(item, list) and len(item) == 2):
                raise malformed("entity not a pair")
            text, label = item
            if not isinstance(text, str) or label not in ENTITY_LABELS:
                raise malformed("bad entity")
            if not normalize_entity(text):
                raise malformed("empty entity")
            entities.append((text, label))
        relations = []
        for item in obj["relations"]:
            if not (isinstance(item, list) and len(item) == 3):
                raise malformed("relation not a triple")
            src, rel, dst = item
            if type(src) is not int or type(dst) is not int or rel not in RELATION_TYPES:
                raise malformed("bad relation")
            if not (0 <= src < len(entities) and 0 <= dst < len(entities)):
                raise malformed("relation out of range")
            relations.append((src, rel, dst))
        features = [obj["image_features"], obj.get("text_features")]
        for value in features:
            if value is not None and not (
                isinstance(value, list) and all(type(v) in (int, float) for v in value)
            ):
                raise malformed("features not a list of numbers")
        img, txt = (None if v is None else np.asarray(v, dtype=np.float64) for v in features)
        fields = {k: obj[k] for k in ("report_id", "patient_id", "split", "report_text")}
        if not all(isinstance(fields[k], str) for k in ("report_id", "patient_id", "report_text")):
            raise malformed("text field not a string")
        if fields["split"] not in SPLITS:
            raise malformed("bad split")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise malformed(str(exc)) from exc
    if img.shape != (d_img,) or (txt is not None and txt.shape != (d_txt,)):
        raise DimensionMismatch(f"line {line_no}: bad feature dimension")
    return dict(fields, labels=tuple(labels), entities=tuple(entities),
                relations=tuple(relations), image_features=img, text_features=txt)


def reference_load(data):
    lines = data.split(b"\n")
    header = json.loads(lines[0])
    d_img, d_txt = header["d_img"], header["d_txt"]
    if not (type(d_img) is int and d_img >= 1 and type(d_txt) is int and d_txt >= 0):
        raise MalformedRecord(1, "bad dimensions")
    if header["schema_version"] != "1":
        raise MalformedRecord(1, "bad schema_version")
    records, ids = [], set()
    for line_no, raw in enumerate(lines[1:], start=2):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise MalformedRecord(line_no, "not UTF-8") from None
        if not text.strip():
            continue
        try:
            obj = json.loads(text)
        except ValueError:
            raise MalformedRecord(line_no, "invalid JSON") from None
        rec = reference_record(obj, line_no, d_img, d_txt)
        if rec["report_id"] in ids:
            raise DuplicateId(rec["report_id"], line_no)
        ids.add(rec["report_id"])
        for name in ("image_features", "text_features"):
            if rec[name] is not None and not np.isfinite(rec[name]).all():
                raise MalformedRecord(line_no, "non-finite")
        records.append(rec)
    return records


def outcome(load, arg):
    """Loaded records as dicts, or (error type, line number, report id)."""
    try:
        result = load(arg)
    except FactmineError as exc:
        line = getattr(exc, "line_no", None)
        if line is None:
            line = int(re.match(r"line (\d+): ", str(exc)).group(1))
        return type(exc), line, getattr(exc, "report_id", None)
    if isinstance(result, list):
        return result
    return [
        dict(report_id=r.report_id, patient_id=r.patient_id, split=r.split,
             report_text=r.report_text, labels=r.labels, entities=r.graph.entities,
             relations=r.graph.relations, image_features=r.image_features,
             text_features=r.text_features)
        for r in result.records
    ]


ENTITY_POOL = (["edema", "OBS-DP"], ["Lung ", "ANAT-DP"], ["mild.", "OBS-U"],
               ["HEART", "ANAT-DP"], ["effusion", "OBS-DA"])

# Each fault turns a valid record object (or its line) into a malformed one.
FAULTS = {
    "label-arity": lambda o: o.update(labels=o["labels"][:4]),
    "label-fraction": lambda o: o["labels"].__setitem__(1, 0.5),
    "label-bool": lambda o: o["labels"].__setitem__(0, True),
    "label-two": lambda o: o["labels"].__setitem__(2, 2),
    "label-text": lambda o: o.update(labels="01000"),
    "entity-label": lambda o: o["entities"].append(["edema", "OBS"]),
    "entity-empty": lambda o: o["entities"].append(["...", "OBS-DP"]),
    "entity-number": lambda o: o["entities"].append([5, "OBS-DP"]),
    "entity-single": lambda o: o["entities"].append(["edema"]),
    "relation-fraction": lambda o: o["relations"].append([0.7, "modify", 0]),
    # Equal as dict keys to the valid relation before them.
    "relation-float": lambda o: o["relations"].extend([[0, "modify", 0], [0.0, "modify", 0]]),
    "relation-bool": lambda o: o["relations"].extend([[0, "modify", 0], [0, "modify", False]]),
    "relation-range": lambda o: o["relations"].append([0, "modify", len(o["entities"])]),
    "relation-negative": lambda o: o["relations"].append([-1, "modify", 0]),
    "relation-type": lambda o: o["relations"].append([0, "caused_by", 0]),
    "split": lambda o: o.update(split="dev"),
    "missing-key": lambda o: o.pop("patient_id"),
    "image-dim": lambda o: o["image_features"].append(1.0),
    "text-dim": lambda o: o.update(text_features=[1.0]),
    "image-text": lambda o: o["image_features"].__setitem__(0, "a"),
    "image-nested": lambda o: o.update(image_features=[[1.0], [2.0]]),
    "image-bool": lambda o: o["image_features"].__setitem__(1, True),
    "image-huge-int": lambda o: o["image_features"].__setitem__(0, 10**400),
    "text-strings": lambda o: o.update(text_features=["0.5", "2.0"]),
    "text-bool": lambda o: o.update(text_features=[0.5, False]),
    "report-id-number": lambda o: o.update(report_id=12),
    "patient-id-number": lambda o: o.update(patient_id=7),
    "report-text-number": lambda o: o.update(report_text=5),
    "image-nan": lambda o: o["image_features"].__setitem__(0, float("nan")),
    "text-inf": lambda o: o.update(text_features=[0.0, float("-inf")]),
    "duplicate": lambda o: o.update(report_id="r0"),
}
RAW_FAULTS = {
    "overflow": lambda line: line.replace(b'"image_features": [', b'"image_features": [1e400, ', 1)
    .replace(b", 1e400", b""),
    "not-utf8": lambda line: line.replace(b'"patient_id": "', b'"patient_id": "\xff', 1),
    "not-json": lambda line: line[:-1],
    "not-object": lambda line: b"[1, 2]",
}
# Each turns the valid HEADER into a malformed one.
HEADER_FAULTS = [
    {"d_img": 2.9}, {"d_img": 2.0}, {"d_img": True}, {"d_img": 0}, {"d_txt": "2"},
    {"d_txt": -1}, {"schema_version": 1}, {"schema_version": "2"},
]


@st.composite
def corpus_files(draw):
    header = draw(st.sampled_from([{}] * 20 + HEADER_FAULTS))
    lines = [json.dumps({**HEADER, **header}).encode()]
    for i in range(draw(st.integers(0, 7))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from([b"", b"   ", b"\t"])))
            continue
        entities = [list(ENTITY_POOL[j]) for j in draw(st.lists(st.integers(0, 4), max_size=4))]
        n = len(entities)
        relations = draw(st.lists(
            st.tuples(st.integers(0, max(n - 1, 0)), st.sampled_from(RELATION_TYPES),
                      st.integers(0, max(n - 1, 0))),
            max_size=3 if n else 0))
        obj = {
            "report_id": f"r{i}", "patient_id": f"p{i % 3}",
            "split": draw(st.sampled_from(SPLITS)), "report_text": "text",
            "labels": draw(st.lists(st.integers(0, 1), min_size=5, max_size=5)),
            "entities": entities, "relations": [list(r) for r in relations],
            "image_features": [i, -1.5],
            "text_features": draw(st.sampled_from([None, [0.25, 2.0]])),
        }
        fault = draw(st.sampled_from([None] * 20 + sorted(FAULTS) + sorted(RAW_FAULTS)))
        if fault in FAULTS:
            FAULTS[fault](obj)
        line = json.dumps(obj).encode()
        if fault in RAW_FAULTS:
            line = RAW_FAULTS[fault](line)
        lines.append(line)
    return b"\n".join(lines) + b"\n"


@settings(max_examples=400, deadline=None)
@given(corpus_files())
def test_load_corpus_matches_naive_reference(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    path.write_bytes(data)
    got, want = outcome(load_corpus, path), outcome(reference_load, data)
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, list) and len(got) == len(want)
    corpus = load_corpus(path)
    no_text = np.zeros(corpus.d_txt)
    rows = [np.concatenate([w["image_features"], no_text if w["text_features"] is None
                            else w["text_features"]]) for w in want]
    np.testing.assert_array_equal(
        corpus.inputs, np.reshape(rows, (len(want), corpus.d_img + corpus.d_txt))
    )
    assert corpus.has_text.tolist() == [w["text_features"] is not None for w in want]
    # The features are views of inputs' own buffer: no record owns an array.
    owner = corpus.inputs if corpus.inputs.base is None else corpus.inputs.base
    for rec, row in zip(corpus.records, corpus.inputs):
        assert np.shares_memory(rec.image_features, row) and rec.image_features.base is owner
        assert rec.text_features is None or (
            np.shares_memory(rec.text_features, row) and rec.text_features.base is owner
        )
    for g, w in zip(got, want):
        for key in ("image_features", "text_features"):
            np.testing.assert_array_equal(g.pop(key), w.pop(key))
        assert g == w


# --- the one block selection -------------------------------------------------


def naive_best_first(scores, eligible, rank, k):
    """Each row's picks, as positions in scores.ravel(), by a per-row Python sort.

    A row with more than k eligible entries keeps those tied with its k-th
    largest score, NaN counting as the largest and never kept, then sorts
    them on (-score, rank) and cuts at k; a row with at most k keeps all
    of them, NaN last.
    """
    n = scores.shape[1]
    picks = []
    for g, row in enumerate(scores.tolist()):
        cols = [c for c in range(n) if eligible[g, c]]
        if len(cols) > k:
            kth = sorted((row[c] for c in cols), key=lambda s: (math.isnan(s), s))[-k]
            cols = [c for c in cols if row[c] >= kth]
        cols.sort(key=lambda c: (math.isnan(row[c]), 0.0 if math.isnan(row[c]) else -row[c], rank[c]))
        picks.append([g * n + c for c in cols[:k]])
    return picks


@st.composite
def selection_problems(draw):
    g, n = draw(st.integers(1, 6)), draw(st.integers(0, 10))
    values = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, np.nan, np.inf, -np.inf])
    scores = np.array(draw(st.lists(values, min_size=g * n, max_size=g * n))).reshape(g, n)
    eligible = np.array(draw(st.lists(st.booleans(), min_size=g * n, max_size=g * n)), dtype=bool)
    eligible = eligible.reshape(g, n)
    rank = np.array(draw(st.permutations(range(n))), dtype=np.intp)
    return scores, eligible, rank, draw(st.integers(1, n + 2))


@settings(max_examples=500, deadline=None)
@given(selection_problems())
def test_best_first_matches_per_row_sort(problem):
    scores, eligible, rank, k = problem
    want = naive_best_first(scores, eligible, rank, k)
    before = scores.tobytes()
    flat, ends = _best_first(scores, eligible.copy(), rank, k)
    assert scores.tobytes() == before
    assert [flat[lo:hi].tolist() for lo, hi in zip([0] + ends, ends)] == want
