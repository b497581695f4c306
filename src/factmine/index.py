"""Exact top-k cosine retrieval over unit-norm document embeddings."""

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from . import artifacts
from .corpus import _best_first, _id_order
from .encoder import _encode_docs
from .errors import (
    DegenerateEmbedding,
    DimensionMismatch,
    EmptyCandidateSet,
    InvalidConfig,
    LengthMismatch,
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
    """Immutable after build; unlimited concurrent readers.

    The per-row arrays that exclusion and tie-breaking read are derived
    from the lists below once, when the index is built, and no search
    writes to the index. To change a row's metadata, build a new index.
    """

    doc_ids: list
    matrix: np.ndarray  # (n, e), unit-norm rows
    patient_ids: list
    report_chars: list
    # sha256 of the checkpoint file the rows were encoded with, if known.
    checkpoint_sha256: "str | None" = None

    def __post_init__(self):
        # Derived once, for exclusion and tie-breaking. Plain attributes,
        # not fields, so repr, == and save_index see only the fields above.
        count = len(self.doc_ids)
        codes = {}
        self._patient_codes = codes  # patient id -> integer code
        self._patient = np.fromiter(  # int64 patient code per row
            (codes.setdefault(p, len(codes)) for p in self.patient_ids), dtype=np.int64, count=count
        )
        self._chars = np.asarray(self.report_chars, dtype=np.int64)  # report length per row
        # Each row's rank in ascending doc_id order, and doc id -> rows carrying it.
        self._id_rank, self._rows_of = _id_order(self.doc_ids)
        # The largest computed squared row norm, for `_score_error`; one
        # row-wise product, so no (n, e) temporary is made.
        squares = np.einsum("ij,ij->i", self.matrix, self.matrix)
        self._max_square = float(squares.max()) if count else 0.0
        # The last n % 4 rows with the rows `_padded` puts before them, which
        # `_scores` scores again; none when n % 4 == 0.
        n, e = self.matrix.shape
        self._tail = self.matrix[_padded(np.arange(n))[-4:] if n % 4 else []]
        # matrix.T rounded to float32, C-contiguous, for the filter GEMM of
        # `_filtered_scores`. Filled block by block: on the bench's 12,000 x
        # 256 index one strided copy took 18 ms, blocks of `_blocks` 7 ms.
        # Entries beyond float32's range become inf, so their scores are
        # not finite and the group falls back to `_scores`.
        self._matrix32 = np.empty((e, n), dtype=np.float32)
        with np.errstate(over="ignore"):
            for rows in _blocks(n, e):
                self._matrix32[:, rows] = self.matrix[rows].T


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


# Bytes of index rows one pass of `_scores` keeps in cache while it
# scores a group of queries against them.
_BLOCK_BYTES = 1 << 20
# Bytes of a group's working arrays, 16 a row: its (G, n) score rows and,
# in `search_batch`, `_best_first`'s copy of them with the ineligible
# entries at -inf, partitioned in place while the k-th scores are taken
# (plus one-byte masks). `search_batch` and `_validation_mrr` score more
# queries group by group. A group is selected at once by `_best_first`,
# one partition and one lexsort over all its rows. Below `_FILTER_VALUES`
# single `search` keeps `_top_k` on its candidate rows: on the bench's
# `train` index (n = 300, e = 64, one BLAS thread) a group of one took
# 40-52 us a query against 20-24 us (2 shared cores).
#
# Smaller groups read the matrix more often, and a search is slower the
# longer the matrix has gone unread (after a 33 ms busy loop that reads
# no memory, one took 1.1-1.8 ms longer). Re-measured on the bench's
# 12,000 x 256 index with this route forced, one BLAS thread, alternating
# in one process (6 rounds of 200 queries): batches of 50 ran at
# 1,421-1,488 q/s in groups of 5 (this budget) and 1,545-1,607 in groups
# of 87 (16 MiB), and the next search took 1.14 and 2.01 ms. That index
# now takes the filtered route below; this budget serves smaller ones.
_GROUP_BYTES = 1 << 20
# n * e from which `search_batch` filters each group with one float32 GEMM
# and scores again only the rows that can reach the top k
# (`_filtered_scores`), and `search` its query as a group of one. The
# measured crossover (one BLAS thread, batches of
# 50, k = 10, random unit rows), as the filtered route's q/s over the
# route above (medians of 7 rounds, ranges over repeated runs): 0.39-0.42x
# at n = 300, e = 64 (the bench's `train` index), 0.79-0.87x at 2,000 x
# 64, 1.15-1.32x at 4,000 x 64, 0.60-0.72x at 1,000 x 128, 0.99-1.25x at
# 2,500 x 128, 0.83-1.07x at 1,000 x 256, 1.12-1.45x at 1,500 x 256,
# 1.28-1.92x at 2^19 values (2,000 x 256, 8,000 x 64) and 1.8-3.5x from
# 2,500 x 256 up. Near 2^18 values it read 1.25x at 4,200 x 64, 1.13x at
# 2,100 x 128 and 0.85-0.88x at 1,100 x 256, so the crossover stays
# between 2^18 and 2^19. Below it, the GEMV call and the gather each query
# pays for cost more than the GEMM saves. A single `search` crosses over at
# about the same size: median us a query over the route above -> filtered
# (one BLAS thread, k = 10, random unit rows and queries, 6 alternating
# rounds of 200, ranges of 3-5 runs): 84-127 -> 115-199 at 1,000 x 256 and
# 112-171 -> 131-221 at 4,000 x 64 (2^18 values), 210-285 -> 202-375 at
# 2,000 x 256 and 253-350 -> 233-395 at 8,000 x 64 (2^19), 310-347 ->
# 276-387 at 3,000 x 256, 399-413 -> 329-341 at 4,000 x 256, 1,137-1,356
# -> 730-924 at 12,000 x 256 and 3,806-4,666 -> 2,120-2,208 at 40,000 x
# 256. The group path costs a query of one about 100 us more (31 -> 129 at
# 300 x 64); from 2^19 on the float32 GEMM, which reads half the bytes of
# the float64 GEMV, wins that back.
_FILTER_VALUES = 1 << 19
# Bytes of a filtered group's working arrays, 16 a row as above: a group
# whose GEMM scores are not finite falls back to `_scores` and holds what
# the route above holds. The filter itself holds 8 a row (its float32
# GEMM scores and their partitioned copy, plus one-byte masks; 9.2 a row
# under tracemalloc). The GEMM gains with the group up to this budget: on
# the bench's 12,000 x 256 index batches of 50 ran at 2,382, 3,888, 5,398
# and 6,755 q/s (medians of 24) in groups of 5, 10, 43 and 87 (1, 2, 8
# and 16 MiB), and 1,000 queries in one call, as `factmine retrieve` sends
# a split, at 5,660, 6,500, 5,731 and 4,850 q/s in groups of 43, 87, 139
# and 200, and at 1,339-1,359 on the route above.
_FILTER_GROUP_BYTES = 16 << 20


def _block_rows(e):
    # A multiple of 64 rows, so every block but the last holds whole
    # groups of 4 rows (see `_padded`).
    return max(64, _BLOCK_BYTES // (8 * e) // 64 * 64)


@functools.lru_cache
def _blocks(n, e):
    """Row slices of the blocks `_scores` walks."""
    step = _block_rows(e)
    return tuple(slice(lo, min(lo + step, n)) for lo in range(0, n, step))


def _padded(rows):
    """rows, an integer array, with rows[0] repeated in front to a multiple of 4 entries.

    The one rule for which rows a GEMV gathers. OpenBLAS's GEMV sums the
    rows of its matrix in groups of 4 with one kernel and the last n % 4
    with another. On numpy 2.4 / OpenBLAS 0.3.31, at 1 and 2 threads, 600
    random gathers of a multiple of 4 rows (any order, repeats allowed, e
    from 1 to 7,000, under the thread split of `_scores`) gave every row
    the bits of `(np.tile(row, (4, 1)) @ q)[0]`, while the last n % 4 rows
    of one GEMV differed from them in 231 of 435 shapes. So every returned
    score is a row's four-row-kernel product, which depends only on the
    row and the query, not on where the row sits in the index.
    """
    return np.concatenate([np.repeat(rows[:1], -len(rows) % 4), rows])


def _filters(index):
    """Whether `search` and `search_batch` take the filtered route: n * e >= _FILTER_VALUES."""
    return index.matrix.size >= _FILTER_VALUES


def _group_size(index):
    """Queries whose working arrays, at most two (G, n) float64 arrays (16
    bytes a row), fit in _GROUP_BYTES, or in _FILTER_GROUP_BYTES when
    `_filters`: a filtered group holds 8 a row, 16 when it falls back."""
    budget = _FILTER_GROUP_BYTES if _filters(index) else _GROUP_BYTES
    return max(1, budget // (16 * max(1, len(index.doc_ids))))


def _scores(index, queries):
    """(G, n) scores of a group of G query embeddings against every row.

    The one source of returned scores for `search`, `search_batch` and
    validation, so they stay bit-identical: BLAS GEMM and GEMV reduce in
    different orders (numpy 2.4 on OpenBLAS, the bench's 12,000 x 256
    index: 0 of the 50 score rows of a float64 (50 x e) @ (e x n) GEMM
    were bit-equal to the per-query GEMVs, max difference 1.1e-15). So
    each query still gets GEMVs, not a GEMM (`_filtered_scores` gives the
    same bits to the rows it scores again), but the matrix is walked in
    blocks of about _BLOCK_BYTES and every query is scored against a
    block while it is in cache, so a group reads the matrix once instead
    of once per query. A single query walks the same blocks, so its
    scores do not depend on the group it is in.

    Blocks also keep the scores independent of the BLAS thread count:
    OpenBLAS 0.3.31 splits a GEMV of more than 460,800 values between
    threads and sums the rows at a split in another order, while a block
    holds about 131,072 values (at least 64 rows, so it stays under the
    split for any e up to 7,000). The last n % 4 rows are then scored
    again with the rows `_padded` puts before them (`index._tail`), so
    every score is the four-row kernel's. Blocks are scored with
    `np.matmul`, as `matrix @ q` is: `np.dot` of [[0.0]] and [-1.0] gives
    -0.0 where `matrix @ q` gives 0.0.
    """
    matrix = index.matrix
    out = np.empty((len(queries), len(matrix)))
    pairs = list(zip(queries, out))
    for rows in _blocks(*matrix.shape):
        block = matrix[rows]
        for q, scores in pairs:
            np.matmul(block, q, out=scores[rows])
    tail = len(matrix) % 4
    if tail:
        for q, scores in pairs:
            scores[-tail:] = (index._tail @ q)[-tail:]
    return out


def _dot_error(dtype, e, query_squares, max_square):
    """Per query, a bound on |computed - exact| for q . d computed in dtype.

    q and d are float64 vectors of length e, rounded to dtype (exactly,
    for float64), then multiplied and summed in any order, with or
    without fused multiply-adds. With u the unit roundoff and tiny half
    the smallest subnormal of dtype, each rounding of an entry or of an
    operation has a relative error of at most u, or an absolute error of
    at most tiny where it underflows. So the computed value is within
    gamma_(e+2) sum |q_i d_i| of the exact one (two roundings of the
    inputs and at most e along any path of the sum; Higham, Accuracy and
    Stability of Numerical Algorithms, 3.1), plus (1 + u)(1 + gamma_e)
    tiny (||q||_1 + ||d||_1) for the entries that underflow and (1 +
    gamma_e) e (tiny + tiny^2) for the operations that underflow and the
    products of two entry errors. Here sum |q_i d_i| <= ||q|| max ||d||,
    ||x||_1 <= sqrt(e) ||x||, and each factor (1 + ...) is below 2 for
    e < 2^20. The norms come from computed float64 sums of e squares,
    plus e 2^-1074 for their underflows; the margin of `_score_error`
    covers their roundings. Infinite when a norm is not finite, or from
    ||q|| max ||d|| = max / 4 of dtype on, from where a sum may overflow.
    """
    info = np.finfo(dtype)
    u, tiny = float(info.eps) / 2, float(info.smallest_subnormal) / 2
    unit = e * 2.0**-1074
    query_norms = np.sqrt(query_squares + unit)
    max_norm = math.sqrt(max_square + unit)
    gamma = (e + 2) * u / (1 - (e + 2) * u)
    bound = gamma * query_norms * max_norm
    bound += 2 * tiny * (math.sqrt(e) * (query_norms + max_norm) + 2 * e)
    bound[~(query_norms * max_norm < float(info.max) / 4)] = np.inf
    return bound


def _score_error(e, query_squares, max_square):
    """Per query, a bound E on |filter score - `_scores` score| of any row.

    The filter GEMM of `_filtered_scores` computes q . d in float32 and
    `_scores` in float64, so E is the sum of the two `_dot_error` bounds.
    The relative margin 2^-20 covers the float64 roundings of the norms,
    of E and of t - 2E: each is below 2^-20 of the float32 term.
    """
    float32 = _dot_error(np.float32, e, query_squares, max_square)
    float64 = _dot_error(np.float64, e, query_squares, max_square)
    return (1 + 2.0**-20) * (float32 + float64)


def _filtered_scores(index, queries, mask, k):
    """`_scores` bits for the rows that can reach each query's top k.

    One float32 GEMM of the rounded queries and `_matrix32` scores the
    group; with E from `_score_error`, its score and the `_scores` score
    of one row differ by at most E. So a row whose GEMM score is below
    t - 2E, t the query's k-th largest eligible GEMM score, has a
    `_scores` score below k eligible rows' and cannot be picked; the
    floor t - 2E and the comparison with it are float64. Every other
    eligible row is scored again, one BLAS GEMV per query over its kept
    rows, `_padded` and in `_blocks` of them, so the scores are bit-equal
    to `_scores`; GEMM never supplies a returned score
    (Johnson, Douze and Jegou, Billion-scale similarity search with GPUs,
    2019, filter coarsely and re-rank exactly in the same way).

    Returns (scores, eligible, columns): the group's (G, |U|) block over
    U, the ascending union `columns` of the rows kept for any query, with
    eligible True where a row is kept for a query. mask (G, n) is
    consumed. Returns None, with mask unchanged, when a GEMM score or E
    is not finite (an entry beyond float32's range among them); the group
    then takes `_scores`.
    """
    matrix = index.matrix
    n, e = matrix.shape
    stacked = np.stack(queries)
    # A query whose squared norm overflows gets E = inf (its float64
    # underflow term is 0 * inf on the way) and the group falls back to
    # `_scores`, which warns as the exact route does.
    with np.errstate(over="ignore", invalid="ignore"):
        error = _score_error(e, np.einsum("ij,ij->i", stacked, stacked), index._max_square)
        approx = stacked.astype(np.float32) @ index._matrix32
    if not (np.isfinite(error).all() and np.isfinite(approx).all()):
        return None
    if k < n:
        kth = np.where(mask, approx, -np.inf)
        kth.partition(n - k, axis=1)
        floor = kth[:, n - k].astype(np.float64) - 2 * error
        del kth
        mask &= approx >= floor[:, None]
    del approx
    columns = np.flatnonzero(mask.any(axis=0))
    eligible = mask[:, columns]
    scores = np.zeros(eligible.shape)
    for q, kept, out in zip(stacked, eligible, scores):
        picked = columns[kept]
        rows = _padded(picked)
        exact = np.empty(len(rows))
        for piece in _blocks(len(rows), e):
            np.matmul(matrix[rows[piece]], q, out=exact[piece])
        out[kept] = exact[len(rows) - len(picked) :]
    return scores, eligible, columns


def _candidates(index, policy, query_identity):
    """The eligible rows, ascending; raises EmptyCandidateSet when there are none."""
    report_id, patient_id = query_identity
    mask = index._chars >= policy.min_report_chars
    if policy.exclude_same_patient:
        code = index._patient_codes.get(patient_id)
        if code is not None:
            mask &= index._patient != code
    if policy.exclude_self:
        # Skipped when the query is not indexed: even an empty fancy
        # assignment costs 1.7 us, 6% of a search at n = 300.
        own = index._rows_of.get(report_id)
        if own:
            mask[own] = False
    candidates = np.flatnonzero(mask)
    if candidates.size == 0:
        raise EmptyCandidateSet(f"no eligible documents for query {report_id!r}")
    return candidates


def _query(index, query_embedding):
    q = np.asarray(query_embedding, dtype=np.float64)
    if q.shape != index.matrix.shape[1:]:
        raise DimensionMismatch(
            f"query embedding has shape {q.shape}, index rows have {index.matrix.shape[1:]}"
        )
    # q . q is not finite when an entry is not, and costs about a third of
    # the exact test, which then runs only for such q or an overflow.
    if not math.isfinite(q.dot(q)) and not np.isfinite(q).all():
        raise DegenerateEmbedding("query embedding has a non-finite entry")
    return q


def _top_k(index, scores, candidates, k):
    """The k best candidate rows by (-score, doc_id), as (doc_id, score) pairs."""
    picked = scores[candidates]
    if k < candidates.size:
        # Keep every row tied with the k-th largest score; the exact
        # (-score, doc_id) order below decides which of them make the cut.
        cut = candidates.size - k
        keep = picked >= np.partition(picked, cut)[cut]
        candidates, picked = candidates[keep], picked[keep]
    order = np.lexsort((index._id_rank[candidates], -picked))
    top = candidates[order[:k]].tolist()
    return [(index.doc_ids[i], s) for i, s in zip(top, scores[top].tolist())]


def _rank_of_first(index, scores, rows):
    """1-based rank, in unfiltered `search` order, of the first of `rows`.

    scores are the query's row of `_scores` and rows an integer array of
    row numbers. Counts the rows ahead of that row in O(n), without
    ranking them; returns 0 when rows is empty.
    """
    if rows.size == 0:
        return 0
    id_rank = index._id_rank
    best = scores[rows].max()
    first = id_rank[rows[scores[rows] == best]].min()
    ahead = (scores > best) | ((scores == best) & (id_rank < first))
    return int(np.count_nonzero(ahead)) + 1


def search(index, query_embedding, k, policy, query_identity):
    """Exact top-k by dot product among non-excluded rows.

    Descending score, ties by ascending doc_id. Returns fewer than k
    entries when exclusions exhaust the corpus beyond that point.

    On a large index (`_filters`) the query is a group of one through
    `_search_group`, filtered by `_filtered_scores` as `search_batch`
    filters it; below, `_top_k` selects among its candidate rows of
    `_scores`. Both give the same hits, bit for bit, and raise the same
    errors in the same order (k, eligibility, shape, finiteness).
    """
    if k < 1:
        raise InvalidConfig("k must be >= 1")
    if _filters(index):
        return _search_group(index, [query_embedding], k, policy, [query_identity], True)[0]
    candidates = _candidates(index, policy, query_identity)
    [scores] = _scores(index, [_query(index, query_embedding)])
    return _top_k(index, scores, candidates, k)


def search_batch(index, query_embeddings, k, policy, identities):
    """Per-query `search` over a batch, scored group by group through `_scores`,
    or on a large index through `_filtered_scores` (see `_filters`).

    Elementwise equal and bit-identical to per-query search, which scores
    through the same blocks, and raises what that loop raises for its
    first failing query: each group's queries are checked in order (k,
    eligibility, shape, finiteness) before the group is scored.
    """
    if len(query_embeddings) != len(identities):
        raise LengthMismatch("query_embeddings and identities must align")
    if len(identities) == 0:
        return []
    if k < 1:
        raise InvalidConfig("k must be >= 1")
    return _search_groups(index, query_embeddings, k, policy, identities, require_candidates=True)


def _search_groups(index, query_embeddings, k, policy, identities, require_candidates):
    """`search_batch`'s results, a group of `_group_size` queries at a time,
    filtered by `_filtered_scores` when `_filters(index)`.

    A query with no eligible row raises EmptyCandidateSet when
    require_candidates, and gets [] otherwise (`build_rag_dataset` falls
    back to its VQA prompt there).
    """
    step = _group_size(index)
    results = []
    for lo in range(0, len(identities), step):
        group = slice(lo, lo + step)
        results += _search_group(
            index, query_embeddings[group], k, policy, identities[group], require_candidates
        )
    return results


def _search_group(index, query_embeddings, k, policy, identities, require_candidates):
    """Each query's `search` result, selected for the whole group at once.

    The group's (G, n) eligibility mask is built and checked query by
    query (eligibility, then shape and finiteness) before any scoring;
    then `_best_first` selects every row at once, over all n rows of
    `_scores` or over the compact block of `_filtered_scores`, which holds
    every row that can be picked, with the same bits. The picks and their
    order are those of `_top_k`, which single `search` keeps below
    `_FILTER_VALUES` (see _GROUP_BYTES). A function of its own, so one
    group's arrays are freed before the next group is scored.
    """
    n = len(index.doc_ids)
    mask = np.tile(index._chars >= policy.min_report_chars, (len(identities), 1))
    if policy.exclude_same_patient:
        codes = [index._patient_codes.get(patient_id, -1) for _, patient_id in identities]
        mask &= index._patient != np.array(codes, dtype=np.int64)[:, None]
    if policy.exclude_self:
        own = [
            (g, r)
            for g, (report_id, _) in enumerate(identities)
            for r in index._rows_of.get(report_id, ())
        ]
        if own:
            mask[tuple(zip(*own))] = False
    queries = []
    for eligible, (report_id, _), q in zip(mask.any(axis=1).tolist(), identities, query_embeddings):
        if require_candidates and not eligible:
            raise EmptyCandidateSet(f"no eligible documents for query {report_id!r}")
        queries.append(_query(index, q))
    block = _filtered_scores(index, queries, mask, k) if _filters(index) else None
    if block is None:
        scores = _scores(index, queries)
        flat, ends = _best_first(scores, mask, index._id_rank, k)
        rows = flat % n
    else:
        scores, mask, columns = block
        flat, ends = _best_first(scores, mask, index._id_rank[columns], k)
        rows = columns[flat % len(columns)]
    ids = map(index.doc_ids.__getitem__, rows.tolist())
    hits = list(zip(ids, scores.ravel()[flat].tolist()))
    return [hits[lo:hi] for lo, hi in zip([0] + ends, ends)]


def _score_rows(index, queries):
    """Each query's row of `_scores`, scoring `_group_size` queries at a time."""
    step = _group_size(index)
    for lo in range(0, len(queries), step):
        yield from _scores(index, queries[lo : lo + step])


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
