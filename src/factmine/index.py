"""Exact top-k cosine retrieval over unit-norm document embeddings."""

import json
from dataclasses import dataclass, field

import numpy as np

from .encoder import encode_doc
from .errors import EmptyCandidateSet, MalformedArtifact, MissingTextFeatures


@dataclass(frozen=True)
class ExclusionPolicy:
    exclude_self: bool = True
    exclude_same_patient: bool = True
    min_report_chars: int = 5

    def __post_init__(self):
        if self.min_report_chars < 0:
            raise ValueError("min_report_chars must be >= 0")


@dataclass
class EmbeddingIndex:
    """Immutable after build; unlimited concurrent readers."""

    doc_ids: list
    matrix: np.ndarray  # (n, e), unit-norm rows
    patient_ids: list
    report_chars: list
    # Per-row arrays for vectorised exclusion and tie-breaking, derived from
    # the lists above on first search.
    _rows: "_RowArrays | None" = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class _RowArrays:
    patient_codes: dict  # patient id -> integer code
    patient: np.ndarray  # int64 patient code per row
    chars: np.ndarray  # int64 report length per row
    id_rank: np.ndarray  # each row's rank in ascending doc_id order
    rows_of: dict  # doc id -> rows carrying it


def _row_arrays(index):
    rows = index._rows
    if rows is None:
        n = len(index.doc_ids)
        codes = {}
        patient = np.fromiter(
            (codes.setdefault(p, len(codes)) for p in index.patient_ids), dtype=np.int64, count=n
        )
        id_rank = np.empty(n, dtype=np.int64)
        id_rank[sorted(range(n), key=index.doc_ids.__getitem__)] = np.arange(n)
        rows_of = {}
        for i, doc_id in enumerate(index.doc_ids):
            rows_of.setdefault(doc_id, []).append(i)
        rows = _RowArrays(
            codes, patient, np.asarray(index.report_chars, dtype=np.int64), id_rank, rows_of
        )
        index._rows = rows
    return rows


def build_index(corpus, params, split="train"):
    """Index the chosen split in corpus order."""
    docs = corpus.split(split)
    ids, rows, patients, chars = [], [], [], []
    for rec in docs:
        if rec.text_features is None:
            raise MissingTextFeatures(rec.report_id)
        ids.append(rec.report_id)
        rows.append(encode_doc(params, rec.image_features, rec.text_features))
        patients.append(rec.patient_id)
        chars.append(len(rec.report_text))
    matrix = np.stack(rows) if rows else np.zeros((0, params.embedding_dim))
    return EmbeddingIndex(ids, matrix, patients, chars)


def _scores(index, query_embedding):
    # Single scoring route for every caller so batch and per-query paths
    # are bit-identical (BLAS gemm and gemv reduce in different orders).
    # Measured with numpy 2.4 on OpenBLAS, n = 12,000, e = 256: of the 50
    # columns of one (n x e) @ (e x 50) GEMM, 0 were bit-equal to the
    # per-query GEMV scores (max difference 5e-16). Batches therefore keep
    # one GEMV per query, so results stay bit-identical, not merely close.
    return index.matrix @ np.asarray(query_embedding, dtype=np.float64)


def _eligible(rows, policy, query_identity):
    report_id, patient_id = query_identity
    mask = rows.chars >= policy.min_report_chars
    if policy.exclude_same_patient:
        code = rows.patient_codes.get(patient_id)
        if code is not None:
            mask &= rows.patient != code
    if policy.exclude_self:
        mask[rows.rows_of.get(report_id, [])] = False
    return mask


def search(index, query_embedding, k, policy, query_identity):
    """Exact top-k by dot product among non-excluded rows.

    Descending score, ties by ascending doc_id. Returns fewer than k
    entries when exclusions exhaust the corpus beyond that point.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rows = _row_arrays(index)
    candidates = np.flatnonzero(_eligible(rows, policy, query_identity))
    if candidates.size == 0:
        raise EmptyCandidateSet(f"no eligible documents for query {query_identity[0]!r}")
    scores = _scores(index, query_embedding)
    picked = scores[candidates]
    if k < candidates.size:
        # Keep every row tied with the k-th largest score; the exact
        # (-score, doc_id) order below decides which of them make the cut.
        cut = candidates.size - k
        keep = picked >= np.partition(picked, cut)[cut]
        candidates, picked = candidates[keep], picked[keep]
    order = np.lexsort((rows.id_rank[candidates], -picked))
    top = candidates[order[:k]].tolist()
    return [(index.doc_ids[i], s) for i, s in zip(top, scores[top].tolist())]


def search_batch(index, query_embeddings, k, policy, identities):
    """Elementwise equal (and bit-identical) to per-query search."""
    if len(query_embeddings) != len(identities):
        raise ValueError("query_embeddings and identities must align")
    return [
        search(index, q, k, policy, ident)
        for q, ident in zip(query_embeddings, identities)
    ]


# --- checkpoint io ---------------------------------------------------------

INDEX_VERSION = "1"


def save_index(index, path):
    """JSON header line (ids + metadata) + row-major float64 little-endian matrix."""
    header = {
        "schema_version": INDEX_VERSION,
        "n": len(index.doc_ids),
        "embedding_dim": int(index.matrix.shape[1]),
        "doc_ids": list(index.doc_ids),
        "patient_ids": list(index.patient_ids),
        "report_chars": [int(c) for c in index.report_chars],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(np.ascontiguousarray(index.matrix, dtype="<f8").tobytes())


def _is_count(value, minimum):
    return type(value) is int and value >= minimum


def load_index(path):
    """Read a file written by save_index.

    Raises MalformedArtifact unless the header has this schema version and
    n entries per id list, and the body holds exactly n x embedding_dim
    finite float64 values.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        body = fh.read()
    try:
        header = json.loads(line)
    except ValueError:
        raise MalformedArtifact(path, "index header is not a JSON line") from None
    if not isinstance(header, dict) or header.get("schema_version") != INDEX_VERSION:
        raise MalformedArtifact(path, f"index schema_version is not {INDEX_VERSION!r}")
    n, e = header.get("n"), header.get("embedding_dim")
    if not (_is_count(n, 0) and _is_count(e, 1)):
        raise MalformedArtifact(path, f"bad index shape n={n!r} embedding_dim={e!r}")
    for key, valid in (
        ("doc_ids", lambda v: isinstance(v, str)),
        ("patient_ids", lambda v: isinstance(v, str)),
        ("report_chars", lambda v: _is_count(v, 0)),
    ):
        values = header.get(key)
        if not isinstance(values, list) or len(values) != n or not all(map(valid, values)):
            raise MalformedArtifact(path, f"index {key} is not {n} valid entries")
    if len(body) != n * e * 8:
        raise MalformedArtifact(
            path, f"index body is {len(body)} bytes, expected {n * e * 8} for {n} x {e} float64"
        )
    matrix = np.frombuffer(body, dtype="<f8").reshape(n, e).copy()
    if not np.isfinite(matrix).all():
        raise MalformedArtifact(path, "index matrix has non-finite entries")
    return EmbeddingIndex(
        header["doc_ids"], matrix, header["patient_ids"], header["report_chars"]
    )
