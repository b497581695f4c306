"""Corpus contract: record types, JSONL parsing/validation, synthetic corpora.

Annotations (entity/relation graphs), diagnostic labels, and feature vectors
are inputs here; the models that produce them live upstream.
"""

import json
import re
from array import array
from dataclasses import InitVar, dataclass, field
from itertools import chain, product

import numpy as np

from . import artifacts
from .errors import (
    DimensionMismatch,
    DuplicateId,
    InvalidConfig,
    MalformedRecord,
    UnknownId,
    UnknownLabelArity,
)

SCHEMA_VERSION = "1"

SPLITS = ("train", "validation", "test")

ENTITY_LABELS = ("ANAT-DP", "OBS-DP", "OBS-DA", "OBS-U")

RELATION_TYPES = ("modify", "located_at", "suggestive_of")

# Order is fixed; label vectors are positional.
OBSERVATIONS = ("Cardiomegaly", "Edema", "Consolidation", "Atelectasis", "Pleural Effusion")

_WS = re.compile(r"\s+")


def normalize_entity(token_text):
    """Lowercase, collapse internal whitespace, strip surrounding punctuation.

    May return an empty string; callers drop empty entities.
    """
    text = _WS.sub(" ", token_text.strip().lower())
    return text.strip(".,;:!?()[]{}\"'")


def _entity_error(text, label):
    """Why (text, label) is not a valid entity, or None if it is one."""
    if type(text) is not str:
        return f"entity text {text!r} is not a string"
    if label not in ENTITY_LABELS:
        return f"unknown entity label {label!r}"
    if not normalize_entity(text):
        return f"entity text {text!r} empty after normalization"
    return None


def _relation_error(src, rel, dst, n):
    """Why (src, rel, dst) is not a valid relation among n entities, or None."""
    if type(src) is not int or type(dst) is not int:
        return f"relation endpoints must be integers, got ({src!r}, {rel!r}, {dst!r})"
    if rel not in RELATION_TYPES:
        return f"unknown relation type {rel!r}"
    if not (0 <= src < n and 0 <= dst < n):
        return f"relation ({src}, {rel}, {dst}) out of range for {n} entities"
    return None


@dataclass(frozen=True, slots=True)
class FactGraph:
    """Annotated entities and relations extracted from one report.

    entities: tuple of (token_text, entity_label)
    relations: tuple of (source_index, relation_type, target_index)
    """

    entities: tuple = ()
    relations: tuple = ()

    def validate(self):
        n = len(self.entities)
        for reason in chain(
            (_entity_error(text, label) for text, label in self.entities),
            (_relation_error(src, rel, dst, n) for src, rel, dst in self.relations),
        ):
            if reason is not None:
                raise ValueError(reason)


@dataclass(slots=True)
class ReportRecord:
    report_id: str
    patient_id: str
    split: str
    report_text: str
    labels: tuple  # 5 binary indicators, OBSERVATIONS order
    graph: FactGraph
    image_features: np.ndarray
    text_features: np.ndarray = None  # optional: query-only records carry images only


@dataclass
class Corpus:
    """Immutable after load; safe for concurrent readers.

    Row i of `inputs` is record i's [image | text] input, with zero text
    columns where `has_text` is False. The corpus owns the records it is
    given: their features are rebound to views of their rows.
    """

    records: list
    d_img: int
    d_txt: int
    # (inputs, has_text) already parsed by load_corpus, whose records carry
    # no features yet; None copies the records' own features.
    _parsed: InitVar[tuple] = None
    by_id: dict = field(init=False, repr=False)
    inputs: np.ndarray = field(init=False, repr=False, compare=False)
    has_text: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, _parsed):
        records, d_img, d_txt = self.records, self.d_img, self.d_txt
        self.by_id = {r.report_id: r for r in records}
        if _parsed is None:
            _parsed = _stack_features(records, d_img, d_txt)
        self.inputs, self.has_text = _parsed
        for r, row, text in zip(records, self.inputs, self.has_text.tolist()):
            r.image_features = row[:d_img]
            r.text_features = row[d_img:] if text else None
        self._rows = {name: np.flatnonzero([r.split == name for r in records]) for name in SPLITS}

    def __len__(self):
        return len(self.records)

    def __getitem__(self, report_id):
        try:
            return self.by_id[report_id]
        except KeyError:
            raise UnknownId(report_id) from None

    def rows(self, name):
        """Positions of the split's records, in corpus order."""
        if name not in SPLITS:
            raise InvalidConfig(f"unknown split {name!r}; expected one of {', '.join(SPLITS)}")
        return self._rows[name]

    def split(self, name):
        return [self.records[i] for i in self.rows(name).tolist()]


def _stack_features(records, d_img, d_txt):
    """(inputs, has_text) copied from the records' own features, whose shapes
    are checked here."""
    inputs = np.zeros((len(records), d_img + d_txt))
    for r, row in zip(records, inputs):
        img, txt = np.shape(r.image_features), np.shape(r.text_features)
        if img != (d_img,) or (r.text_features is not None and txt != (d_txt,)):
            raise DimensionMismatch(
                f"{r.report_id}: features have shapes {img}/{txt}, "
                f"expected ({d_img},)/({d_txt},)"
            )
        row[:d_img] = r.image_features
        if r.text_features is not None:
            row[d_img:] = r.text_features
    return inputs, np.array([r.text_features is not None for r in records], dtype=bool)


def _id_order(ids):
    """Each position's rank in ascending id order, and id -> positions carrying it."""
    rank = np.empty(len(ids), dtype=np.intp)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    rows_of = {}
    for i, doc_id in enumerate(ids):
        rows_of.setdefault(doc_id, []).append(i)
    return rank, rows_of


def _best_first(scores, eligible, rank, k):
    """Each row's first k eligible columns of a (G, n) block in (-score, rank) order.

    The one block selection: mining, the oracle and `search_batch` all
    read it. eligible (G, n) is consumed; scores is left as it is. Returns
    (flat, ends): the picks as positions in scores.ravel(), row by row,
    row g's at flat[ends[g - 1]:ends[g]] (from 0 for row 0).

    When k < n, every eligible entry tied with its row's k-th largest
    score is kept, and all of a row with at most k eligible entries,
    NaN scores too, as `index._top_k` does; one lexsort on (row, -score,
    rank) then decides which make the cut.
    """
    g, n = scores.shape
    if k < n:
        kth = np.where(eligible, scores, -np.inf)
        kth.partition(n - k, axis=1)
        cut = scores >= kth[:, n - k, None]
        cut[np.count_nonzero(eligible, axis=1) <= k] = True
        eligible &= cut
    flat = np.flatnonzero(eligible)
    rows = flat // n
    flat = flat[np.lexsort((rank[flat % n], -scores.ravel()[flat], rows))]
    start = np.searchsorted(rows, np.arange(g + 1))
    if k >= n:
        return flat, start[1:].tolist()
    # rows is ascending, and so still the row of each sorted pick; a
    # pick's position minus its row's start is its place in the row.
    flat = flat[np.arange(len(flat)) - start[rows] < k]
    return flat, np.cumsum(np.minimum(np.diff(start), k)).tolist()


# Every binary label vector, each mapped to itself so that records share it.
_LABEL_VECTORS = {v: v for v in product((0, 1), repeat=5)}
_LABEL_TYPES = [int] * 5
# JSON numbers; bool is a subclass of int but not one of them.
_NUMBER_TYPES = frozenset((int, float))


class _Entities(dict):
    """(text, label) pairs validated so far within one load, each mapped to
    itself: a repeat costs one lookup and shares the first occurrence's tuple."""

    def __missing__(self, item):
        reason = (
            f"entity {list(item)!r} is not a [text, label] pair"
            if len(item) != 2
            else _entity_error(*item)
        )
        if reason is not None:
            raise ValueError(reason)
        self[item] = item
        return item


class _RecordParser:
    """Parses the records of one corpus file.

    Each distinct entity is validated once; every relation is validated
    where it occurs, since its range depends on the record. Records that
    repeat an entity or relation share its tuple. Feature lists go straight
    into one float64 buffer, a record's [image | text] row after the rows
    of the records before it, and its record carries no features until
    `Corpus` rebinds them to that row. Their finiteness is checked
    afterwards by `_require_finite`, in one reduction over the rows.
    """

    def __init__(self, d_img, d_txt):
        self.d_img = d_img
        self.d_txt = d_txt
        self.entities = _Entities()
        self.relations = {}
        self.values = array("d")
        self.has_text = []
        self.no_text = array("d", [0.0] * d_txt)

    def labels(self, value, line_no):
        if type(value) is not list:
            raise ValueError(f"labels must be a list, got {value!r}")
        if len(value) != 5:
            raise UnknownLabelArity(len(value), line_no)
        labels = _LABEL_VECTORS.get(tuple(value)) if list(map(type, value)) == _LABEL_TYPES else None
        if labels is None:
            raise ValueError(f"labels must be binary integers, got {value}")
        return labels

    def graph(self, entities, relations):
        entities = tuple(map(self.entities.__getitem__, map(tuple, entities)))
        n = len(entities)
        seen = self.relations
        out = []
        for src, rel, dst in relations:
            reason = _relation_error(src, rel, dst, n)
            if reason is not None:
                raise ValueError(reason)
            key = (src, rel, dst)
            out.append(seen.setdefault(key, key))
        return FactGraph(entities, tuple(out))

    def features(self, value, name):
        """Append a feature list to `values`, returning its length; every
        entry must be a JSON number, not a bool."""
        if type(value) is not list or not _NUMBER_TYPES.issuperset(map(type, value)):
            raise ValueError(f"{name} must be a list of numbers")
        self.values.extend(value)
        return len(value)

    def inputs(self, n):
        """The first n rows of `values` as an (n, d_img + d_txt) matrix, not copied."""
        width = self.d_img + self.d_txt
        return np.frombuffer(self.values, count=n * width).reshape(n, width)

    def record(self, obj, line_no):
        """The record on line `line_no`, with every check but finiteness."""
        try:
            labels = self.labels(obj["labels"], line_no)
            graph = self.graph(obj["entities"], obj["relations"])
            img = self.features(obj["image_features"], "image_features")
            txt = obj.get("text_features")
            if txt is None:
                self.values.extend(self.no_text)
            else:
                txt = self.features(txt, "text_features")
            report_id, patient_id, text = obj["report_id"], obj["patient_id"], obj["report_text"]
            if not type(report_id) is type(patient_id) is type(text) is str:
                raise ValueError("report_id, patient_id and report_text must be strings")
            rec = ReportRecord(
                report_id=report_id,
                patient_id=patient_id,
                split=obj["split"],
                report_text=text,
                labels=labels,
                graph=graph,
                image_features=None,
                text_features=None,
            )
            if rec.split not in SPLITS:
                raise ValueError(f"unknown split {rec.split!r}")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MalformedRecord(line_no, str(exc)) from exc
        if img != self.d_img:
            raise DimensionMismatch(
                f"line {line_no}: image_features has dim {(img,)}, corpus dim is {self.d_img}"
            )
        if txt is not None and txt != self.d_txt:
            raise DimensionMismatch(
                f"line {line_no}: text_features has dim {(txt,)}, corpus dim is {self.d_txt}"
            )
        self.has_text.append(txt is not None)
        return rec


def _require_finite(inputs, d_img, line_nos):
    """Raise MalformedRecord naming the line of the first row of inputs with a
    NaN or infinite feature; row i was parsed from line `line_nos[i]`."""
    bad = np.flatnonzero(~np.isfinite(inputs).all(axis=1))
    if bad.size:
        row = inputs[bad[0]]
        name = "text_features" if np.isfinite(row[:d_img]).all() else "image_features"
        raise MalformedRecord(line_nos[bad[0]], f"{name} has non-finite values")


def _decode(raw, line_no):
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRecord(line_no, f"not UTF-8: {exc}") from None


def load_corpus(path):
    """Parse and validate a JSONL corpus file.

    The first line is a header carrying schema_version and the corpus-wide
    feature dimensions; every following line is one record. Raises a
    FactmineError naming the line of the first invalid record; the checks
    of each line run in the order of `_RecordParser.record`, then the
    duplicate-id check, then finiteness of its features.
    """
    with open(path, "rb") as fh:
        try:
            header = json.loads(_decode(fh.readline(), 1))
            d_img, d_txt = header["d_img"], header["d_txt"]
            version = header["schema_version"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise MalformedRecord(1, f"bad header: {exc}") from exc
        if not (type(d_img) is int and d_img >= 1 and type(d_txt) is int and d_txt >= 0):
            raise MalformedRecord(1, f"bad header dimensions d_img={d_img!r} d_txt={d_txt!r}")
        if version != SCHEMA_VERSION:
            raise MalformedRecord(1, f"schema_version {version!r}, expected {SCHEMA_VERSION!r}")
        parser = _RecordParser(d_img, d_txt)
        records, line_nos = [], []
        seen = set()
        try:
            for line_no, raw in enumerate(fh, start=2):
                line = _decode(raw, line_no)
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise MalformedRecord(line_no, f"invalid JSON: {exc}") from exc
                rec = parser.record(obj, line_no)
                if rec.report_id in seen:
                    raise DuplicateId(rec.report_id, line_no)
                seen.add(rec.report_id)
                records.append(rec)
                line_nos.append(line_no)
        finally:
            # Also when a later line failed: a non-finite feature on an
            # earlier line comes first.
            inputs = parser.inputs(len(records))
            _require_finite(inputs, d_img, line_nos)
    has_text = np.array(parser.has_text, dtype=bool)
    return Corpus(records, d_img=d_img, d_txt=d_txt, _parsed=(inputs, has_text))


def write_corpus(corpus, path):
    """Serialize a corpus back to the JSONL contract (round-trips load_corpus)."""
    header = {
        "schema_version": SCHEMA_VERSION,
        "d_img": corpus.d_img,
        "d_txt": corpus.d_txt,
    }
    artifacts.write_lines(path, [artifacts.to_json(header), *(
        artifacts.to_json({
            "report_id": r.report_id,
            "patient_id": r.patient_id,
            "split": r.split,
            "report_text": r.report_text,
            "labels": list(r.labels),
            "entities": [[t, l] for t, l in r.graph.entities],
            "relations": [[s, rel, d] for s, rel, d in r.graph.relations],
            "image_features": r.image_features.tolist(),
            "text_features": None if r.text_features is None else r.text_features.tolist(),
        })
        for r in corpus.records
    )])


# --- synthetic corpora -----------------------------------------------------

DEFAULT_VOCAB = (
    "heart", "lung", "mediastinum", "pleura", "diaphragm",
    "cardiomegaly", "edema", "consolidation", "atelectasis", "effusion",
    "opacity", "congestion", "infiltrate", "pneumothorax", "fracture",
    "carina", "hilum", "apex", "base", "silhouette",
)

# Noise scales chosen so a random projection baseline is clearly beatable:
# the image channel is deliberately the noisier modality.
_IMG_NOISE = 1.0
_TXT_NOISE = 0.25


def _observation_items(vocab):
    """Per-observation entity/relation templates drawn from the vocabulary."""
    templates = []
    for i in range(5):
        anat = vocab[i % 5]
        obs = vocab[5 + i]
        qual = vocab[10 + i]
        entities = ((obs, "OBS-DP"), (anat, "ANAT-DP"), (qual, "OBS-U"))
        relations = ((0, "located_at", 1), (2, "modify", 0))
        templates.append((entities, relations))
    return templates


def synth_corpus(seed, n, vocab=DEFAULT_VOCAB, d_img=32, d_txt=24):
    """Deterministic synthetic corpus with learnable structure.

    Labels drive the fact graph (each positive observation contributes a
    fixed entity/relation template) and the graph drives the feature
    vectors (linear prototypes plus noise), so a retriever trained on the
    output has real signal to find. Pure function of its arguments.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    templates = _observation_items(vocab)

    # One prototype direction per possible entity token; relations reuse them.
    token_list = sorted({normalize_entity(t) for ents, _ in templates for t, _ in ents}
                        | {normalize_entity(t) for t in vocab})
    token_index = {t: i for i, t in enumerate(token_list)}
    proto_img = rng.normal(size=(len(token_list), d_img))
    proto_txt = rng.normal(size=(len(token_list), d_txt))

    n_train = max(1, int(round(n * 0.7)))
    n_val = (n - n_train + 1) // 2
    records = []
    for i in range(n):
        labels = tuple(int(v) for v in rng.random(5) < 0.35)
        entities = []
        relations = []
        for obs_idx, flag in enumerate(labels):
            if not flag:
                continue
            ents, rels = templates[obs_idx]
            offset = len(entities)
            entities.extend(ents)
            relations.extend((s + offset, r, d + offset) for s, r, d in rels)
        # A little idiosyncratic content so no two graphs are forced equal.
        extra = rng.choice(len(vocab), size=rng.integers(1, 3), replace=False)
        for j in extra:
            entities.append((vocab[j], "OBS-DA"))
        graph = FactGraph(tuple(entities), tuple(relations))

        bag = np.zeros(len(token_list))
        for text, _ in entities:
            bag[token_index[normalize_entity(text)]] += 1.0
        img = bag @ proto_img + _IMG_NOISE * rng.normal(size=d_img)
        txt = bag @ proto_txt + _TXT_NOISE * rng.normal(size=d_txt)

        phrases = [
            f"{templates[k][0][0][0]} in the {templates[k][0][1][0]}"
            for k in range(5)
            if labels[k]
        ]
        text_body = "there is " + " and ".join(phrases) + "." if phrases else "no acute findings."
        words = [vocab[j] for j in extra]
        text_body += " note " + " ".join(words) + "."

        if i < n_train:
            split = "train"
        elif i < n_train + n_val:
            split = "validation"
        else:
            split = "test"
        # Every tenth record shares a patient with its predecessor so the
        # same-patient exclusion path is exercised.
        patient = f"p{i - 1:05d}" if (i % 10 == 9 and i > 0) else f"p{i:05d}"
        records.append(
            ReportRecord(
                report_id=f"s{i:05d}",
                patient_id=patient,
                split=split,
                report_text=text_body,
                labels=labels,
                graph=graph,
                image_features=img,
                text_features=txt,
            )
        )
    return Corpus(records, d_img=d_img, d_txt=d_txt)
