"""Factual and textual similarity metrics for mining and evaluation.

All functions here are pure and safe to call concurrently.
"""

import functools

from .corpus import normalize_entity
from .errors import LengthMismatch


@functools.cache
def fact_items(graph):
    """Frozen set of comparable items carried by a fact graph.

    Entity items are (normalized_text, entity_label); relation items embed
    both endpoints as (src_text, src_label, relation_type, dst_text,
    dst_label) so they compare across reports without index alignment.
    Entities whose text normalizes to empty are dropped, along with any
    relation touching them. Cached: each distinct graph is normalised once.
    """
    norm = [(normalize_entity(t), l) for t, l in graph.entities]
    items = {e for e in norm if e[0]}
    for src, rel, dst in graph.relations:
        s, d = norm[src], norm[dst]
        if s[0] and d[0]:
            items.add((s[0], s[1], rel, d[0], d[1]))
    return frozenset(items)


def factual_similarity(q, d):
    """Dice overlap of the two graphs' fact item sets, in [0, 1].

    Both-empty graphs score 0: an empty annotation is no evidence of
    agreement.
    """
    qi, di = fact_items(q), fact_items(d)
    denom = len(qi) + len(di)
    if denom == 0:
        return 0.0
    return 2.0 * len(qi & di) / denom


def chexbert_instance(ref, hyp):
    """Fraction of the 5 label positions on which two reports agree."""
    if len(ref) != 5 or len(hyp) != 5:
        raise LengthMismatch(f"label vectors must have 5 entries, got {len(ref)}/{len(hyp)}")
    return sum(r == h for r, h in zip(ref, hyp)) / 5.0


def chexbert_micro(refs, hyps):
    """Micro-averaged F1 over pooled (record, class) decisions, 1 = positive."""
    if len(refs) != len(hyps):
        raise LengthMismatch(f"{len(refs)} refs vs {len(hyps)} hyps")
    if not refs:
        raise LengthMismatch("empty input")
    tp = fp = fn = 0
    for ref, hyp in zip(refs, hyps):
        for r, h in zip(ref, hyp):
            if h == 1 and r == 1:
                tp += 1
            elif h == 1:
                fp += 1
            elif r == 1:
                fn += 1
    denom = 2 * tp + fp + fn
    return 2.0 * tp / denom if denom else 0.0


def _lcs_length(a, b):
    """Length of the longest common subsequence of two token lists.

    Bit-parallel (Allison & Dix 1986; Hyyro 2004): bit j of `match[t]` is
    set where b[j] == t, and after each token of a the zero bits of v count
    the LCS of what has been read against b, so one pass of integer
    arithmetic per token replaces a row of the quadratic table.
    """
    match = {}
    for j, token in enumerate(b):
        match[token] = match.get(token, 0) | 1 << j
    full = (1 << len(b)) - 1
    v = full
    for token in a:
        u = v & match.get(token, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(ref, hyp):
    """ROUGE-L F1 (balanced beta) of two strings over lowercase whitespace tokens."""
    ref_toks = ref.lower().split()
    hyp_toks = hyp.lower().split()
    if not ref_toks or not hyp_toks:
        return 0.0
    lcs = _lcs_length(ref_toks, hyp_toks)
    if lcs == 0:
        return 0.0
    p = lcs / len(hyp_toks)
    r = lcs / len(ref_toks)
    return 2 * p * r / (p + r)
