"""Linear projection encoders on a shared unit sphere, trained contrastively.

Gradients are derived by hand through the projection and L2 normalization;
no autodiff framework is involved. 64-bit accumulation throughout: with the
default temperature of 0.01 logits reach +/-100.
"""

import json
import time
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateEmbedding,
    DimensionMismatch,
    DivergedLoss,
    MissingTextFeatures,
    NonFiniteLoss,
    NoPositives,
)

_NORM_FLOOR = 1e-12


@dataclass
class EncoderParams:
    w_q: np.ndarray  # (d_img, e)
    w_d: np.ndarray  # (d_img + d_txt, e)
    temperature: float = 0.01

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.w_q.shape[1] != self.w_d.shape[1]:
            raise DimensionMismatch("w_q and w_d disagree on embedding dim")
        if self.w_q.shape[1] < 2:
            raise ValueError("embedding dim must be >= 2")
        if not (np.isfinite(self.w_q).all() and np.isfinite(self.w_d).all()):
            raise ValueError("non-finite parameter entries")

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
    weight_decay: float = 0.0
    # Thresholds defining "relevant" for the validation MRR used in early
    # stopping; mirror the mining filter semantics.
    val_chexbert_threshold: float = 0.6
    val_radgraph_threshold: float = 0.1

    def __post_init__(self):
        if self.learning_rate < 0 or self.weight_decay < 0:
            raise ValueError("learning_rate and weight_decay must be >= 0")
        if self.batch_size < 1 or self.max_epochs < 1 or self.early_stop_patience < 1:
            raise ValueError("batch_size, max_epochs, early_stop_patience must be >= 1")
        if self.hard_negative_k < 0:
            raise ValueError("hard_negative_k must be >= 0")


def init_params(seed, d_img, d_txt, embedding_dim=256, temperature=0.01):
    """Random projection heads; also serves as the untrained baseline."""
    rng = np.random.default_rng(seed)
    scale_q = 1.0 / np.sqrt(d_img)
    scale_d = 1.0 / np.sqrt(d_img + d_txt)
    return EncoderParams(
        w_q=rng.normal(scale=scale_q, size=(d_img, embedding_dim)),
        w_d=rng.normal(scale=scale_d, size=(d_img + d_txt, embedding_dim)),
        temperature=temperature,
    )


def _normalize(u):
    norm = np.linalg.norm(u)
    if norm < _NORM_FLOOR:
        raise DegenerateEmbedding(f"projection norm {norm} below {_NORM_FLOOR}")
    return u / norm, norm


def encode_query(params, image_features):
    """Unit-norm embedding of a query's image features."""
    x = np.asarray(image_features, dtype=np.float64)
    if x.shape != (params.d_img,):
        raise DimensionMismatch(f"image features have shape {x.shape}, expected ({params.d_img},)")
    e, _ = _normalize(params.w_q.T @ x)
    return e


def encode_doc(params, image_features, text_features):
    """Unit-norm embedding of a document's fused image+text features."""
    if text_features is None:
        raise MissingTextFeatures("<unknown>")
    x = np.asarray(image_features, dtype=np.float64)
    t = np.asarray(text_features, dtype=np.float64)
    if x.shape != (params.d_img,) or t.shape != (params.d_txt,):
        raise DimensionMismatch(
            f"features have shapes {x.shape}/{t.shape}, expected ({params.d_img},)/({params.d_txt},)"
        )
    e, _ = _normalize(params.w_d.T @ np.concatenate([x, t]))
    return e


def relevance(q, d):
    """Cosine relevance of two unit embeddings."""
    return float(np.dot(q, d))


def _doc_input(doc):
    img, txt = doc
    if txt is None:
        raise MissingTextFeatures("<unknown>")
    return np.concatenate([np.asarray(img, dtype=np.float64), np.asarray(txt, dtype=np.float64)])


def contrastive_loss(params, query_features, positives, in_batch_negatives, extra_negatives=()):
    """Temperature-scaled softmax contrastive loss and its exact gradients.

    One softmax term per positive, each against the shared pool of
    negatives. Documents are (image_features, text_features) pairs.
    Returns (loss, grad_w_q, grad_w_d).
    """
    negatives = list(in_batch_negatives) + list(extra_negatives)
    if not positives:
        raise NoPositives("need at least one positive document")
    if not negatives:
        raise NoPositives("need at least one negative document")
    tau = params.temperature

    x = np.asarray(query_features, dtype=np.float64)
    u = params.w_q.T @ x
    q, q_norm = _normalize(u)

    doc_inputs = [_doc_input(d) for d in positives + negatives]
    vs = [params.w_d.T @ z for z in doc_inputs]
    normed = [_normalize(v) for v in vs]
    embs = [e for e, _ in normed]
    norms = [n for _, n in normed]

    n_pos = len(positives)
    scores = np.array([np.dot(q, e) for e in embs])
    logits = scores / tau

    loss = 0.0
    dscores = np.zeros(len(embs))
    neg_logits = logits[n_pos:]
    for i in range(n_pos):
        pool = np.concatenate([[logits[i]], neg_logits])
        m = pool.max()
        exps = np.exp(pool - m)
        z = exps.sum()
        loss += -(logits[i] - m) + np.log(z)
        probs = exps / z
        dscores[i] += (probs[0] - 1.0) / tau
        dscores[n_pos:] += probs[1:] / tau
    if not np.isfinite(loss):
        raise NonFiniteLoss(f"loss is {loss}")

    # Backprop through cosine and the two normalized projections.
    dq = sum(ds * e for ds, e in zip(dscores, embs))
    du = (dq - np.dot(q, dq) * q) / q_norm
    grad_w_q = np.outer(x, du)
    grad_w_d = np.zeros_like(params.w_d)
    for ds, e, n, z in zip(dscores, embs, norms, doc_inputs):
        de = ds * q
        dv = (de - np.dot(e, de) * e) / n
        grad_w_d += np.outer(z, dv)
    return float(loss), grad_w_q, grad_w_d


# --- training --------------------------------------------------------------


def _doc_features(record):
    return (record.image_features, record.text_features)


def _validation_judgments(corpus, config):
    """Relevant train documents per validation query; they never change."""
    from .evaluator import judge_relevance

    return judge_relevance(
        corpus,
        config.val_chexbert_threshold,
        config.val_radgraph_threshold,
        query_split="validation",
    )


def _validation_mrr(params, corpus, config, judgments=None):
    """MRR of validation queries against the train corpus, for early stopping.

    Training passes the judgments it computed once; without them they are
    judged here.
    """
    from .index import ExclusionPolicy, build_index, search

    val = corpus.split("validation")
    if not val:
        return None
    index = build_index(corpus, params, "train")
    if judgments is None:
        judgments = _validation_judgments(corpus, config)
    policy = ExclusionPolicy(exclude_self=False, exclude_same_patient=False, min_report_chars=0)
    total = 0.0
    for rec in val:
        q = encode_query(params, rec.image_features)
        ranked = search(index, q, len(index.doc_ids), policy, (rec.report_id, rec.patient_id))
        relevant = judgments.relevant.get(rec.report_id, set())
        for rank, (doc_id, _) in enumerate(ranked, start=1):
            if doc_id in relevant:
                total += 1.0 / rank
                break
    return total / len(val)


def _hard_negatives(params, corpus, pairs, k):
    """Top-k retrieved non-positive train documents per query."""
    from .index import ExclusionPolicy, build_index, search

    index = build_index(corpus, params, "train")
    policy = ExclusionPolicy(exclude_self=True, exclude_same_patient=False, min_report_chars=0)
    out = {}
    for query_id in pairs.pairs:
        rec = corpus[query_id]
        q = encode_query(params, rec.image_features)
        positives = set(pairs.doc_ids(query_id))
        ranked = search(index, q, len(index.doc_ids), policy, (rec.report_id, rec.patient_id))
        picked = [doc_id for doc_id, _ in ranked if doc_id not in positives][:k]
        out[query_id] = picked
    return out


def _run_epochs(params, corpus, examples, config, rng, log, stage, hard_negs, val_judgments):
    best = params.copy()
    best_mrr = -np.inf
    stale = 0
    # One permutation per stage: keeps the batch partition (and so the loss
    # at zero learning rate) identical across epochs.
    order = rng.permutation(len(examples))
    for epoch in range(config.max_epochs):
        start = time.monotonic()
        epoch_loss = 0.0
        for lo in range(0, len(order), config.batch_size):
            batch = [examples[i] for i in order[lo : lo + config.batch_size]]
            batch_docs = [_doc_features(corpus[doc_id]) for _, doc_id in batch]
            g_q = np.zeros_like(params.w_q)
            g_d = np.zeros_like(params.w_d)
            for i, (query_id, _) in enumerate(batch):
                in_batch = batch_docs[:i] + batch_docs[i + 1 :]
                extra = [
                    _doc_features(corpus[n]) for n in hard_negs.get(query_id, ())
                ] if hard_negs else []
                if not in_batch and not extra:
                    continue
                loss, gq, gd = contrastive_loss(
                    params,
                    corpus[query_id].image_features,
                    [batch_docs[i]],
                    in_batch,
                    extra,
                )
                epoch_loss += loss
                g_q += gq
                g_d += gd
            lr = config.learning_rate
            params.w_q -= lr * g_q + lr * config.weight_decay * params.w_q
            params.w_d -= lr * g_d + lr * config.weight_decay * params.w_d
        if not np.isfinite(epoch_loss):
            raise DivergedLoss(f"epoch {epoch} loss is {epoch_loss}")
        val_mrr = _validation_mrr(params, corpus, config, val_judgments)
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


def train(corpus, pairs, config, embedding_dim=256, temperature=0.01):
    """Mini-batch gradient descent with decoupled weight decay on mined pairs.

    Stage 1 uses in-batch negatives only; if hard_negative_k > 0, a second
    stage re-mines the top-k retrieved non-positive documents per query and
    continues training with them as extra negatives. Early stopping watches
    validation MRR. Deterministic under a fixed seed.
    """
    train_ids = {r.report_id for r in corpus.split("train")}
    examples = []
    for query_id, entries in sorted(pairs.pairs.items()):
        if query_id not in train_ids:
            raise NoPositives(f"pair query {query_id!r} is not in the train split")
        for p in entries:
            if p.doc_id not in train_ids:
                raise NoPositives(f"pair doc {p.doc_id!r} is not in the train split")
            examples.append((query_id, p.doc_id))
    if not examples:
        raise NoPositives("pair set is empty")

    rng = np.random.default_rng(config.seed)
    params = init_params(config.seed, corpus.d_img, corpus.d_txt, embedding_dim, temperature)
    log = []
    val_judgments = _validation_judgments(corpus, config)
    params = _run_epochs(
        params, corpus, examples, config, rng, log, "in_batch", None, val_judgments
    )
    if config.hard_negative_k > 0:
        hard = _hard_negatives(params, corpus, pairs, config.hard_negative_k)
        params = _run_epochs(
            params, corpus, examples, config, rng, log, "hard_negative", hard, val_judgments
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
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(np.ascontiguousarray(params.w_q, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(params.w_d, dtype="<f8").tobytes())


def load_params(path):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        e = header["embedding_dim"]
        d_img, d_txt = header["d_img"], header["d_txt"]
        n_q = d_img * e
        n_d = (d_img + d_txt) * e
        buf = fh.read()
    w_q = np.frombuffer(buf[: n_q * 8], dtype="<f8").reshape(d_img, e).copy()
    w_d = np.frombuffer(buf[n_q * 8 : (n_q + n_d) * 8], dtype="<f8").reshape(d_img + d_txt, e).copy()
    return EncoderParams(w_q, w_d, header["temperature"])


def write_training_log(log, path):
    with open(path, "w", encoding="utf-8") as fh:
        for entry in log:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
