"""Linear projection encoders on a shared unit sphere, trained contrastively.

Training takes one batched softmax per mini-batch: a B x B logit matrix of
every query against every in-batch document, plus a B x h block of per-query
hard negatives. Both stages run this one path: stage 1 has h = 0, and the
hard-negative stage h = hard_negative_k. Gradients are derived by hand
through the projection and L2 normalization; no autodiff framework is
involved. 64-bit accumulation throughout: with the default temperature of
0.01 logits reach +/-100.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import artifacts
from .errors import (
    DegenerateEmbedding,
    DimensionMismatch,
    DivergedLoss,
    InvalidConfig,
    MalformedArtifact,
    MissingTextFeatures,
    NonFiniteLoss,
    NoPositives,
)
from .evaluator import MRR_THRESHOLDS, _mean_reciprocal_rank, _relevant_rows

_NORM_FLOOR = 1e-12
# Rows per block of `_normalize_rows`: at e = 256 a block's squared
# temporary is 2 MB, however many rows are normalised.
_NORM_BLOCK_ROWS = 1024


def _check_temperature(temperature):
    # load_params applies the same rule to a checkpoint header.
    if not 0 < temperature < np.inf:
        raise InvalidConfig(f"temperature must be positive and finite, got {temperature}")


@dataclass
class EncoderParams:
    w_q: np.ndarray  # (d_img, e)
    w_d: np.ndarray  # (d_img + d_txt, e)
    temperature: float

    def __post_init__(self):
        _check_temperature(self.temperature)
        if self.w_q.shape[1] != self.w_d.shape[1]:
            raise DimensionMismatch("w_q and w_d disagree on embedding dim")
        if self.w_q.shape[1] < 2:
            raise InvalidConfig("embedding dim must be >= 2")
        if not (np.isfinite(self.w_q).all() and np.isfinite(self.w_d).all()):
            raise InvalidConfig("non-finite parameter entries")

    @property
    def embedding_dim(self):
        return self.w_q.shape[1]

    @property
    def d_img(self):
        return self.w_q.shape[0]

    @property
    def d_txt(self):
        return self.w_d.shape[0] - self.w_q.shape[0]

    def copy(self):
        return EncoderParams(self.w_q.copy(), self.w_d.copy(), self.temperature)


@dataclass
class TrainConfig:
    learning_rate: float = 5e-6
    batch_size: int = 32
    max_epochs: int = 15
    early_stop_patience: int = 5
    seed: int = 0
    hard_negative_k: int = 0  # 0 disables the second training stage
    embedding_dim: int = 256
    temperature: float = 0.01

    def __post_init__(self):
        # `factmine train` builds its config, and so checks it, before it reads a file.
        if not 0 <= self.learning_rate < np.inf:
            raise InvalidConfig(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        _check_temperature(self.temperature)
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")
        if self.batch_size < 1 or self.max_epochs < 1 or self.early_stop_patience < 1:
            raise InvalidConfig("batch_size, max_epochs, early_stop_patience must be >= 1")
        if self.hard_negative_k < 0:
            raise InvalidConfig("hard_negative_k must be >= 0")
        if self.embedding_dim < 2:  # the rule of EncoderParams
            raise InvalidConfig(f"embedding_dim must be >= 2, got {self.embedding_dim}")


def init_params(
    seed, d_img, d_txt, embedding_dim=TrainConfig.embedding_dim, temperature=TrainConfig.temperature
):
    """Random projection heads; also serves as the untrained baseline."""
    rng = np.random.default_rng(seed)
    scale_q = 1.0 / np.sqrt(d_img)
    scale_d = 1.0 / np.sqrt(d_img + d_txt)
    return EncoderParams(
        w_q=rng.normal(scale=scale_q, size=(d_img, embedding_dim)),
        w_d=rng.normal(scale=scale_d, size=(d_img + d_txt, embedding_dim)),
        temperature=temperature,
    )


def _check_norms(norms):
    # An overflowing projection has an inf or NaN norm and would divide to a
    # zero or NaN embedding, so it is as degenerate as one below the floor.
    bad = np.asarray(norms)[~((norms >= _NORM_FLOOR) & (norms < np.inf))]
    if bad.size:
        raise DegenerateEmbedding(f"projection norm {bad[0]} outside [{_NORM_FLOOR}, inf)")


def _normalize_rows(u):
    # Divides the fresh projection u in place, row by row, for query,
    # training and document encoding. The norms are taken a block of rows
    # at a time, so no temporary spans all of u; each row is still reduced
    # alone, bit-equal to one np.linalg.norm over u and to the row alone.
    rows = u.reshape(-1, u.shape[-1])
    norms = np.empty((len(rows), 1))
    for start in range(0, len(rows), _NORM_BLOCK_ROWS):
        block = slice(start, start + _NORM_BLOCK_ROWS)
        norms[block] = np.linalg.norm(rows[block], axis=-1, keepdims=True)
    norms = norms.reshape(u.shape[:-1] + (1,))
    _check_norms(norms)
    u /= norms
    return u, norms


def encode_queries(params, image_features):
    """Unit-norm embeddings of the rows of an (m, d_img) array of query image features.

    A row gets the same bits alone as in any batch, at any place: `einsum`
    without `optimize` never calls BLAS and reduces each row on its own,
    where BLAS `X @ w_q` does not. The first degenerate row raises.
    """
    x = np.asarray(image_features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.d_img:
        raise DimensionMismatch(f"image features have shape {x.shape}, expected (m, {params.d_img})")
    e, _ = _normalize_rows(np.einsum("ij,jk->ik", x, params.w_q))
    return e


def encode_query(params, image_features):
    """Unit-norm embedding of a query's image features: `encode_queries` of a batch of one."""
    x = np.asarray(image_features, dtype=np.float64)
    if x.shape != (params.d_img,):
        raise DimensionMismatch(f"image features have shape {x.shape}, expected ({params.d_img},)")
    return encode_queries(params, x[None, :])[0]


def _encode_docs(params, z):
    """Unit-norm embeddings of the rows of z, each a document's [image | text] input."""
    e, _ = _normalize_rows(z @ params.w_d)
    return e


# --- training --------------------------------------------------------------


def _batch_loss(params, x, z, hard, hard_mask):
    """Summed contrastive loss of one mini-batch and its exact gradients.

    Row i of x (B, d_img) is query i's image input and row i of z
    (B, d_img + d_txt) its positive document; every other row of z is one
    of its negatives, duplicates included. hard (B, h, d_img + d_txt) holds
    h >= 0 extra negatives per query, of which the slots where hard_mask
    (B, h) is False do not count; stage 1 passes h = 0. Equals the sum over
    the rows of each query's softmax loss against its own negatives, where
    a row with no negative at all contributes nothing.
    Returns (loss, grad_w_q, grad_w_d).
    """
    tau = params.temperature
    n = len(x)
    q, q_norm = _normalize_rows(x @ params.w_q)
    d, d_norm = _normalize_rows(z @ params.w_d)
    e_h, h_norm = _normalize_rows(hard @ params.w_d)
    extra = np.einsum("be,bhe->bh", q, e_h) / tau
    logits = np.hstack([q @ d.T / tau, np.where(hard_mask, extra, -np.inf)])
    top = logits.max(axis=1, keepdims=True)
    exps = np.exp(logits - top)
    total = exps.sum(axis=1, keepdims=True)
    diag = np.arange(n)
    # A row holding only its positive gives log(1) - 0 = 0 and a zero softmax
    # gradient, which is what skipping it would give.
    loss = float(np.sum(np.log(total[:, 0]) - (logits[diag, diag] - top[:, 0])))
    if not np.isfinite(loss):
        raise NonFiniteLoss(f"loss is {loss}")
    dlogits = exps / total
    dlogits[diag, diag] -= 1.0
    dlogits /= tau

    # Backprop through cosine and the two normalized projections.
    dq = dlogits[:, :n] @ d + np.einsum("bh,bhe->be", dlogits[:, n:], e_h)
    dd = dlogits[:, :n].T @ q
    dv = (dd - np.sum(d * dd, axis=1, keepdims=True) * d) / d_norm
    de_h = dlogits[:, n:, None] * q[:, None, :]
    dv_h = (de_h - np.sum(e_h * de_h, axis=2, keepdims=True) * e_h) / h_norm
    grad_w_d = z.T @ dv + hard.reshape(-1, hard.shape[2]).T @ dv_h.reshape(-1, dv_h.shape[2])
    du = (dq - np.sum(q * dq, axis=1, keepdims=True) * q) / q_norm
    return loss, x.T @ du, grad_w_d


def _batches(corpus, rows, order, batch_size):
    """Per mini-batch `_batch_loss` inputs (x, z, hard, hard_mask), in `order`.

    rows is a stage's (query_rows, doc_rows, hard_rows, hard_mask): per
    example, rows of `corpus.inputs` and its (h,) hard-negative slots.
    """
    query_rows, doc_rows, hard_rows, mask = (a[order] for a in rows)
    z = corpus.inputs
    x = z[:, : corpus.d_img]
    return [
        (x[query_rows[part]], z[doc_rows[part]], z[hard_rows[part]], mask[part])
        for part in (slice(lo, lo + batch_size) for lo in range(0, len(order), batch_size))
    ]


def _validation_mrr(params, corpus, relevant):
    """MRR of validation queries against the train corpus, for early stopping.

    relevant holds each validation query's relevant train rows, in
    `corpus.split("validation")` order (`evaluator._relevant_rows`); a
    list of another length raises ValueError. Equals `evaluator.mrr` over
    full `search` rankings, float for float: each query's first relevant
    rank is counted by `_rank_of_first` instead of ranking every document,
    and both means are `_mean_reciprocal_rank`. The queries are scored
    together, a group that fits the index's score budget per `_scores` call.
    """
    from .index import _rank_of_first, _score_rows, build_index

    rows = corpus.rows("validation")
    if not rows.size:
        return None
    index = build_index(corpus, params, "train")
    queries = encode_queries(params, corpus.inputs[rows, : corpus.d_img])
    firsts = [
        (own.size > 0, _rank_of_first(index, scores, own))
        for scores, own in zip(_score_rows(index, queries), relevant, strict=True)
    ]
    return _mean_reciprocal_rank(firsts, drop_unjudged=False)


def _hard_negatives(params, corpus, pairs, k, rows):
    """Top-k retrieved non-positive train documents per query; rows: train id -> corpus row."""
    from .index import ExclusionPolicy, build_index, search_batch

    index = build_index(corpus, params, "train")
    policy = ExclusionPolicy(exclude_self=True, exclude_same_patient=False, min_report_chars=0)
    queries = [corpus[query_id] for query_id in pairs.pairs]
    positives = [set(pairs.doc_ids(rec.report_id)) for rec in queries]
    # search's order is total, so each query's top k + max |positives| rows
    # are a prefix of the full ranking holding its first k non-positives.
    ranked = search_batch(
        index,
        encode_queries(params, corpus.inputs[[rows[q] for q in pairs.pairs], : corpus.d_img]),
        k + max(map(len, positives), default=0),
        policy,
        [(rec.report_id, rec.patient_id) for rec in queries],
    )
    return {
        rec.report_id: [doc_id for doc_id, _ in hits if doc_id not in own][:k]
        for rec, own, hits in zip(queries, positives, ranked)
    }


def _run_epochs(params, corpus, rows, config, rng, log, stage, val_relevant):
    best = params.copy()
    best_mrr = -np.inf
    stale = 0
    # One permutation per stage: keeps the batch partition (and so the loss
    # at zero learning rate) identical across epochs.
    order = rng.permutation(len(rows[0]))
    batches = _batches(corpus, rows, order, config.batch_size)
    for epoch in range(config.max_epochs):
        start = time.monotonic()
        epoch_loss = 0.0
        for batch in batches:
            loss, g_q, g_d = _batch_loss(params, *batch)
            epoch_loss += loss
            params.w_q -= config.learning_rate * g_q
            params.w_d -= config.learning_rate * g_d
        if not np.isfinite(epoch_loss):
            raise DivergedLoss(f"epoch {epoch} loss is {epoch_loss}")
        val_mrr = _validation_mrr(params, corpus, val_relevant)
        log.append(
            {
                "stage": stage,
                "epoch": epoch,
                "train_loss": epoch_loss,
                "val_mrr": val_mrr,
                "wall_ms": (time.monotonic() - start) * 1e3,
            }
        )
        if val_mrr is None:
            continue
        if val_mrr > best_mrr:
            best_mrr = val_mrr
            best = params.copy()
            stale = 0
        else:
            stale += 1
            if stale >= config.early_stop_patience:
                break
    if best_mrr > -np.inf:
        params.w_q[:] = best.w_q
        params.w_d[:] = best.w_d
    return params


def train(corpus, pairs, config):
    """Mini-batch gradient descent on mined pairs.

    Each batch takes one softmax over its in-batch documents and a block of
    h hard negatives per query (`_batch_loss`). Stage 1 has h = 0; if
    hard_negative_k > 0, a second stage re-mines the top-k retrieved
    non-positive documents per query and continues training with them in
    a block of h = k, capped at the n_train - 1 documents a query can have
    besides itself. Early stopping watches validation MRR, relevance
    judged by `evaluator.MRR_THRESHOLDS`. Deterministic under a fixed seed.
    """
    rows = {corpus.records[i].report_id: i for i in corpus.rows("train")}
    examples = []
    for query_id, entries in sorted(pairs.pairs.items()):
        if query_id not in rows:
            raise NoPositives(f"pair query {query_id!r} is not in the train split")
        for p in entries:
            if p.doc_id not in rows:
                raise NoPositives(f"pair doc {p.doc_id!r} is not in the train split")
            examples.append((rows[query_id], rows[p.doc_id]))
    if not examples:
        raise NoPositives("pair set is empty")
    query_rows, doc_rows = np.array(examples, dtype=np.int64).T
    # A report without text is never a document: build_index refuses it.
    textless = ~corpus.has_text[doc_rows]
    if textless.any():
        raise MissingTextFeatures(corpus.records[doc_rows[textless.argmax()]].report_id)

    rng = np.random.default_rng(config.seed)
    params = init_params(
        config.seed, corpus.d_img, corpus.d_txt, config.embedding_dim, config.temperature
    )
    log = []
    # Relevant train rows per validation query; they never change.
    val_relevant = list(_relevant_rows(corpus, *MRR_THRESHOLDS, corpus.split("validation")))
    no_hard = np.empty((len(examples), 0), dtype=np.int64)
    stage_rows = (query_rows, doc_rows, no_hard, no_hard.astype(bool))
    params = _run_epochs(params, corpus, stage_rows, config, rng, log, "in_batch", val_relevant)
    if config.hard_negative_k > 0:
        k = min(config.hard_negative_k, len(rows) - 1)
        hard = _hard_negatives(params, corpus, pairs, k, rows)
        picked = [hard[corpus.records[i].report_id] for i in query_rows]
        # Each query's picks fill its first slots; the rest are masked out
        # and hold its positive, so every slot normalizes.
        mask = np.arange(k) < np.array([len(p) for p in picked])[:, None]
        hard_rows = np.repeat(doc_rows[:, None], k, axis=1)
        hard_rows[mask] = [rows[doc_id] for p in picked for doc_id in p]
        stage_rows = (query_rows, doc_rows, hard_rows, mask)
        params = _run_epochs(
            params, corpus, stage_rows, config, rng, log, "hard_negative", val_relevant
        )
    return params, log


# --- checkpoint io ---------------------------------------------------------

CHECKPOINT_VERSION = "1"


def save_params(params, path, seed=None):
    """JSON header line + row-major float64 little-endian matrices."""
    header = {
        "schema_version": CHECKPOINT_VERSION,
        "embedding_dim": params.embedding_dim,
        "d_img": params.d_img,
        "d_txt": params.d_txt,
        "temperature": params.temperature,
        "seed": seed,
    }
    artifacts.write_matrices(path, header, params.w_q, params.w_d)


def load_params(path):
    """Read a file written by save_params.

    Raises MalformedArtifact unless the header has this schema version,
    valid dimensions and a positive temperature, and the body holds exactly
    the two matrices' finite float64 values.
    """
    header, body = artifacts.read_header(path, "checkpoint", CHECKPOINT_VERSION)
    e, d_img, d_txt = (header.get(k) for k in ("embedding_dim", "d_img", "d_txt"))
    if not all(type(v) is int for v in (e, d_img, d_txt)) or e < 2 or d_img < 1 or d_txt < 0:
        raise MalformedArtifact(
            path, f"bad checkpoint shape embedding_dim={e!r} d_img={d_img!r} d_txt={d_txt!r}"
        )
    temperature = header.get("temperature")
    if type(temperature) not in (int, float) or not 0 < temperature < np.inf:
        raise MalformedArtifact(path, f"bad checkpoint temperature {temperature!r}")
    w_q, w_d = artifacts.read_matrices(path, "checkpoint", body, (d_img, e), (d_img + d_txt, e))
    return EncoderParams(w_q, w_d, temperature)


def write_training_log(log, path):
    artifacts.write_lines(path, map(artifacts.to_json, log))
