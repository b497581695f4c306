import math

import pytest
from hypothesis import given, settings, strategies as st

from factmine.corpus import FactGraph
from factmine.errors import LengthMismatch
from factmine.metrics import (
    _lcs_length,
    chexbert_instance,
    chexbert_micro,
    fact_items,
    factual_similarity,
    rouge_l,
)

from conftest import entity_graph


# --- fact items ------------------------------------------------------------


def test_fact_items_entities_and_relation():
    graph = FactGraph(
        (("pleural", "ANAT-DP"), ("effusion", "OBS-DP")),
        ((1, "located_at", 0),),
    )
    items = fact_items(graph)
    assert items == {
        ("pleural", "ANAT-DP"),
        ("effusion", "OBS-DP"),
        ("effusion", "OBS-DP", "located_at", "pleural", "ANAT-DP"),
    }


def test_fact_items_empty_graph():
    assert fact_items(FactGraph()) == set()


def test_fact_items_frozen_and_equal_for_equal_graphs():
    def build():
        return FactGraph(
            tuple((t.upper(), "OBS-DP") for t in ["heart", "lung"]), ((0, "modify", 1),)
        )

    a, b = build(), build()
    assert a is not b
    assert isinstance(fact_items(a), frozenset)
    assert fact_items(a) == fact_items(b)


def test_fact_items_collapses_duplicates():
    graph = FactGraph((("lung", "ANAT-DP"), ("Lung", "ANAT-DP")))
    assert fact_items(graph) == {("lung", "ANAT-DP")}


def test_fact_items_drops_empty_entities_and_their_relations():
    graph = FactGraph(
        (("...", "OBS-DP"), ("lung", "ANAT-DP")),
        ((0, "modify", 1),),
    )
    assert fact_items(graph) == {("lung", "ANAT-DP")}


# --- factual similarity ----------------------------------------------------


def test_factual_similarity_dice():
    q = entity_graph("a", "b", "c")
    d = entity_graph("b", "c", "d")
    assert factual_similarity(q, d) == pytest.approx(2 * 2 / 6, abs=1e-12)


def test_factual_similarity_identity():
    g = entity_graph("a", "b")
    assert factual_similarity(g, g) == 1.0


def test_factual_similarity_disjoint():
    assert factual_similarity(entity_graph("a"), entity_graph("b")) == 0.0


def test_factual_similarity_both_empty_scores_zero():
    assert factual_similarity(FactGraph(), FactGraph()) == 0.0


tokens = st.sampled_from(["heart", "lung", "edema", "mass", "apex", "base"])
labels = st.sampled_from(["ANAT-DP", "OBS-DP", "OBS-DA", "OBS-U"])
graphs = st.lists(st.tuples(tokens, labels), max_size=6).map(
    lambda ents: FactGraph(tuple(ents))
)


@given(graphs, graphs)
def test_factual_similarity_matches_brute_force(q, d):
    # independent oracle: enumerate items by hand and apply Dice directly
    def items(g):
        out = set()
        for t, l in g.entities:
            out.add((t.lower().strip(" .,"), l))
        return out

    qi, di = items(q), items(d)
    expected = 0.0 if not (qi or di) else 2 * len(qi & di) / (len(qi) + len(di))
    assert factual_similarity(q, d) == expected


@given(graphs, graphs)
def test_factual_similarity_symmetric_and_bounded(q, d):
    s = factual_similarity(q, d)
    assert s == factual_similarity(d, q)
    assert 0.0 <= s <= 1.0
    if s == 1.0:
        assert fact_items(q) == fact_items(d) and fact_items(q)


# --- label metrics ---------------------------------------------------------


def test_chexbert_instance_examples():
    assert chexbert_instance((1, 0, 1, 0, 0), (1, 0, 0, 0, 0)) == pytest.approx(0.8)
    assert chexbert_instance((1, 0, 1, 0, 0), (1, 0, 1, 0, 0)) == 1.0
    assert chexbert_instance((1, 1, 1, 1, 1), (0, 0, 0, 0, 0)) == 0.0


@given(
    st.lists(st.integers(0, 1), min_size=5, max_size=5),
    st.lists(st.integers(0, 1), min_size=5, max_size=5),
)
def test_chexbert_instance_is_multiple_of_fifth(ref, hyp):
    value = chexbert_instance(tuple(ref), tuple(hyp))
    assert abs(value * 5 - round(value * 5)) < 1e-12


def test_chexbert_micro_perfect():
    refs = [(1, 0, 1, 0, 0), (0, 0, 0, 0, 1)]
    assert chexbert_micro(refs, refs) == 1.0


def test_chexbert_micro_single_miss():
    assert chexbert_micro([(1, 0, 0, 0, 0)], [(0, 0, 0, 0, 0)]) == 0.0


def test_chexbert_micro_pooled_counts():
    refs = [(1, 1, 0, 0, 0), (0, 0, 0, 0, 1)]
    hyps = [(1, 0, 0, 0, 0), (0, 0, 0, 1, 1)]

    # brute-force oracle: count pooled decisions one by one
    tp = sum(r == h == 1 for ref, hyp in zip(refs, hyps) for r, h in zip(ref, hyp))
    fp = sum(h == 1 and r == 0 for ref, hyp in zip(refs, hyps) for r, h in zip(ref, hyp))
    fn = sum(h == 0 and r == 1 for ref, hyp in zip(refs, hyps) for r, h in zip(ref, hyp))
    assert (tp, fp, fn) == (2, 1, 1)
    expected = 2 * tp / (2 * tp + fp + fn)
    assert chexbert_micro(refs, hyps) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.666667, abs=1e-6)


def test_chexbert_micro_length_mismatch():
    with pytest.raises(LengthMismatch):
        chexbert_micro([(1, 0, 0, 0, 0)], [])


def test_chexbert_micro_all_negative_returns_zero():
    zeros = [(0, 0, 0, 0, 0)]
    assert chexbert_micro(zeros, zeros) == 0.0


# --- rouge-l ---------------------------------------------------------------


def _lcs_oracle(a, b):
    # the quadratic table, the reference for the bit-parallel implementation
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[-1][-1]


def test_rouge_l_identity():
    assert rouge_l("no acute findings", "no acute findings") == 1.0


def test_rouge_l_derived_example():
    ref, hyp = "no pleural effusion seen", "no effusion seen"
    lcs = _lcs_oracle(ref.split(), hyp.split())
    assert lcs == 3
    p, r = lcs / 3, lcs / 4
    assert rouge_l(ref, hyp) == pytest.approx(2 * p * r / (p + r), abs=1e-12)
    assert rouge_l(ref, hyp) == pytest.approx(0.857143, abs=1e-6)


def test_rouge_l_disjoint_vocabulary():
    assert rouge_l("heart enlarged", "lungs clear") == 0.0


def test_rouge_l_case_invariant():
    assert rouge_l("No Acute Findings", "no acute findings") == 1.0


def test_rouge_l_empty():
    assert rouge_l("", "anything") == 0.0
    assert rouge_l("anything", "") == 0.0


words = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=8)


@given(words, words)
def test_rouge_l_matches_lcs_oracle(ref, hyp):
    score = rouge_l(" ".join(ref), " ".join(hyp))
    if not ref or not hyp:
        assert score == 0.0
        return
    lcs = _lcs_oracle(ref, hyp)
    if lcs == 0:
        assert score == 0.0
    else:
        p, r = lcs / len(hyp), lcs / len(ref)
        assert math.isclose(score, 2 * p * r / (p + r), abs_tol=1e-12)


# Long enough to span several 64-bit words of the bit-parallel masks.
token_lists = st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=150)


@settings(max_examples=300)
@given(token_lists, token_lists)
def test_lcs_length_equals_quadratic_table(a, b):
    assert _lcs_length(a, b) == _lcs_oracle(a, b)
    assert _lcs_length(b, a) == _lcs_oracle(a, b)
