"""Exact top-k cosine retrieval over unit-norm document embeddings."""

import re
from dataclasses import dataclass, field

import numpy as np

from . import artifacts
from .corpus import _id_order
from .encoder import _encode_docs
from .errors import (
    DimensionMismatch,
    EmptyCandidateSet,
    InvalidConfig,
    MalformedArtifact,
    MissingTextFeatures,
)


@dataclass(frozen=True)
class ExclusionPolicy:
    exclude_self: bool = True
    exclude_same_patient: bool = True
    min_report_chars: int = 5

    def __post_init__(self):
        if self.min_report_chars < 0:
            raise InvalidConfig("min_report_chars must be >= 0")


@dataclass
class EmbeddingIndex:
    """Immutable after build; unlimited concurrent readers."""

    doc_ids: list
    matrix: np.ndarray  # (n, e), unit-norm rows
    patient_ids: list
    report_chars: list
    # sha256 of the checkpoint file the rows were encoded with, if known.
    checkpoint_sha256: "str | None" = None
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
        id_rank, rows_of = _id_order(index.doc_ids)
        rows = _RowArrays(
            codes, patient, np.asarray(index.report_chars, dtype=np.int64), id_rank, rows_of
        )
        index._rows = rows
    return rows


def build_index(corpus, params, split="train"):
    """Index the chosen split in corpus order.

    Every document is encoded by one product of the split's rows of
    `corpus.inputs` with w_d, then normalised row by row.
    """
    if (corpus.d_img, corpus.d_txt) != (params.d_img, params.d_txt):
        raise DimensionMismatch(
            f"corpus features are {corpus.d_img}/{corpus.d_txt}, "
            f"checkpoint expects {params.d_img}/{params.d_txt}"
        )
    rows = corpus.rows(split)
    missing = rows[~corpus.has_text[rows]]
    if missing.size:
        raise MissingTextFeatures(corpus.records[missing[0]].report_id)
    matrix = _encode_docs(params, corpus.inputs[rows])
    docs = [corpus.records[i] for i in rows]
    return EmbeddingIndex(
        [r.report_id for r in docs],
        matrix,
        [r.patient_id for r in docs],
        [len(r.report_text) for r in docs],
    )


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
        raise InvalidConfig("k must be >= 1")
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


def _rank_of_first(index, scores, wanted, policy, query_identity):
    """1-based rank, in `search`'s order, of the first eligible row in `wanted`.

    scores are `_scores` of the query and wanted a boolean mask over rows.
    Counts the eligible rows ahead of that row in O(n), without ranking
    them; returns 0 when no eligible row is wanted. Raises
    EmptyCandidateSet where `search` would.
    """
    rows = _row_arrays(index)
    eligible = _eligible(rows, policy, query_identity)
    if not eligible.any():
        raise EmptyCandidateSet(f"no eligible documents for query {query_identity[0]!r}")
    hits = np.flatnonzero(eligible & wanted)
    if hits.size == 0:
        return 0
    best = scores[hits].max()
    first = rows.id_rank[hits[scores[hits] == best]].min()
    ahead = (scores > best) | ((scores == best) & (rows.id_rank < first))
    return int(np.count_nonzero(ahead & eligible)) + 1


def search_batch(index, query_embeddings, k, policy, identities):
    """Elementwise equal (and bit-identical) to per-query search."""
    if len(query_embeddings) != len(identities):
        raise ValueError("query_embeddings and identities must align")
    return [
        search(index, q, k, policy, ident)
        for q, ident in zip(query_embeddings, identities)
    ]


# --- checkpoint io ---------------------------------------------------------

INDEX_VERSION = "2"

_SHA256 = re.compile(r"[0-9a-f]{64}")


def save_index(index, path):
    """JSON header line (ids + metadata) + row-major float64 little-endian matrix."""
    header = {
        "schema_version": INDEX_VERSION,
        "checkpoint_sha256": index.checkpoint_sha256,
        "n": len(index.doc_ids),
        "embedding_dim": int(index.matrix.shape[1]),
        "doc_ids": list(index.doc_ids),
        "patient_ids": list(index.patient_ids),
        "report_chars": [int(c) for c in index.report_chars],
    }
    artifacts.write_matrices(path, header, index.matrix)


def _is_count(value, minimum):
    return type(value) is int and value >= minimum


def load_index(path):
    """Read a file written by save_index.

    Raises MalformedArtifact unless the header has this schema version, a
    checkpoint sha256 (hex) or null, and n entries per id list, and the body
    holds exactly n x embedding_dim finite float64 values.
    """
    header, body = artifacts.read_header(path, "index", INDEX_VERSION)
    n, e = header.get("n"), header.get("embedding_dim")
    if not (_is_count(n, 0) and _is_count(e, 1)):
        raise MalformedArtifact(path, f"bad index shape n={n!r} embedding_dim={e!r}")
    checkpoint_sha256 = header.get("checkpoint_sha256")
    if checkpoint_sha256 is not None and not (
        isinstance(checkpoint_sha256, str) and _SHA256.fullmatch(checkpoint_sha256)
    ):
        raise MalformedArtifact(path, f"bad index checkpoint_sha256 {checkpoint_sha256!r}")
    for key, valid in (
        ("doc_ids", lambda v: isinstance(v, str)),
        ("patient_ids", lambda v: isinstance(v, str)),
        ("report_chars", lambda v: _is_count(v, 0)),
    ):
        values = header.get(key)
        if not isinstance(values, list) or len(values) != n or not all(map(valid, values)):
            raise MalformedArtifact(path, f"index {key} is not {n} valid entries")
    [matrix] = artifacts.read_matrices(path, "index", body, (n, e))
    return EmbeddingIndex(
        header["doc_ids"], matrix, header["patient_ids"], header["report_chars"], checkpoint_sha256
    )
