"""Per-item reference implementations the tests check the package against.

`encode_doc` is the one-row case of `encoder._encode_docs`, which
`build_index` uses, and `contrastive_loss` is the per-query form of
`encoder._batch_loss`, the one training path, with its own per-vector
normalisation.
"""

import numpy as np

from factmine.encoder import _encode_docs
from factmine.errors import DimensionMismatch, MissingTextFeatures, NonFiniteLoss, NoPositives


def encode_doc(params, image_features, text_features):
    """Unit-norm embedding of a document's fused image+text features.

    The one-row case of `_encode_docs`, which build_index uses.
    """
    if text_features is None:
        raise MissingTextFeatures("<unknown>")
    x = np.asarray(image_features, dtype=np.float64)
    t = np.asarray(text_features, dtype=np.float64)
    if x.shape != (params.d_img,) or t.shape != (params.d_txt,):
        raise DimensionMismatch(
            f"features have shapes {x.shape}/{t.shape}, expected ({params.d_img},)/({params.d_txt},)"
        )
    return _encode_docs(params, np.concatenate([x, t])[None, :])[0]


def _normalize(u):
    """One vector over its L2 norm, and the norm."""
    norm = np.linalg.norm(u)
    return u / norm, norm


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
