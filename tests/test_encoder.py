import json
import math
from dataclasses import replace

import numpy as np
import pytest

from factmine.corpus import Corpus, synth_corpus
from factmine.encoder import (
    EncoderParams,
    TrainConfig,
    _NORM_BLOCK_ROWS,
    _batch_loss,
    _hard_negatives,
    _normalize_rows,
    _validation_mrr,
    contrastive_loss,
    encode_doc,
    encode_query,
    init_params,
    load_params,
    save_params,
    train,
)
from factmine.errors import (
    DegenerateEmbedding,
    DimensionMismatch,
    MalformedArtifact,
    MissingTextFeatures,
    NoPositives,
)
from factmine.evaluator import RetrievalRun, judge_relevance, mrr
from factmine.index import ExclusionPolicy, build_index, search
from factmine.mining import SELF_RANK, MinedPair, MiningConfig, PairSet, mine_pairs


def axis_params(d_img=2, d_txt=2):
    """Heads that copy the first two input coordinates, for hand-set scores."""
    w_q = np.zeros((d_img, 2))
    w_q[0, 0] = w_q[1, 1] = 1.0
    w_d = np.zeros((d_img + d_txt, 2))
    w_d[0, 0] = w_d[1, 1] = 1.0
    return EncoderParams(w_q, w_d, temperature=1.0)


def test_encode_query_normalizes():
    params = axis_params(d_img=4)
    out = encode_query(params, np.array([3.0, 4.0, 0.0, 0.0]))
    np.testing.assert_allclose(out, [0.6, 0.8], atol=1e-12)


def test_encode_query_scale_invariant():
    params = init_params(0, 6, 4, 8)
    x = np.random.default_rng(1).normal(size=6)
    np.testing.assert_array_equal(encode_query(params, x), encode_query(params, 2 * x))


def test_encode_query_wrong_dimension():
    with pytest.raises(DimensionMismatch):
        encode_query(init_params(0, 6, 4, 8), np.zeros(5))


def test_encode_query_degenerate():
    with pytest.raises(DegenerateEmbedding):
        encode_query(axis_params(d_img=4), np.array([0.0, 0.0, 1.0, 1.0]))


BLOCK = _NORM_BLOCK_ROWS


@pytest.mark.parametrize("shape", [
    (1, 256), (BLOCK - 1, 256), (BLOCK, 256), (BLOCK + 1, 256), (3 * BLOCK + 7, 256),
    (3 * BLOCK + 7, 5), (7, BLOCK // 2 + 3, 33),
])
def test_block_row_norms_are_one_norm_call(shape):
    rng = np.random.default_rng(shape[0])
    u = rng.normal(size=shape) * rng.uniform(1e-3, 1e3, size=shape[:-1] + (1,))
    want = np.linalg.norm(u, axis=-1, keepdims=True)
    got, norms = _normalize_rows(u.copy())
    assert norms.shape == want.shape and norms.tobytes() == want.tobytes()
    assert got.tobytes() == (u / want).tobytes()


def test_block_row_norms_keep_the_floor_in_the_last_block():
    u = np.random.default_rng(0).normal(size=(2 * BLOCK + 5, 8))
    u[-2] = 1e-14
    with pytest.raises(DegenerateEmbedding):
        _normalize_rows(u)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("row", [np.inf, np.nan, 1e300], ids=["inf", "nan", "overflow"])
def test_non_finite_row_norm_is_degenerate(row):
    u = np.random.default_rng(1).normal(size=(2 * BLOCK + 5, 8))
    u[BLOCK + 3] = row
    with pytest.raises(DegenerateEmbedding, match="outside"):
        _normalize_rows(u)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_encode_query_overflowing_projection_is_degenerate():
    p = init_params(0, 6, 4, 8)
    params = EncoderParams(p.w_q * 1e300, p.w_d * 1e300, p.temperature)
    with pytest.raises(DegenerateEmbedding, match="inf"):
        encode_query(params, np.random.default_rng(2).normal(size=6))


def test_encode_doc_unit_norm():
    corpus = synth_corpus(3, 10)
    params = init_params(0, corpus.d_img, corpus.d_txt, 16)
    for rec in corpus.records:
        e = encode_doc(params, rec.image_features, rec.text_features)
        assert abs(np.linalg.norm(e) - 1.0) < 1e-9


def test_encode_doc_missing_text():
    with pytest.raises(MissingTextFeatures):
        encode_doc(init_params(0, 4, 3, 8), np.zeros(4), None)


def test_encode_doc_pure():
    params = init_params(2, 4, 3, 8)
    img, txt = np.arange(4.0), np.arange(3.0)
    np.testing.assert_array_equal(
        encode_doc(params, img, txt), encode_doc(params, img, txt)
    )


# --- loss ------------------------------------------------------------------


def unit_doc(direction):
    # doc whose embedding under axis_params is the given 2d unit vector
    return (np.array(direction, dtype=float), np.zeros(2))


def test_loss_single_negative_value():
    params = axis_params()
    # f(q, d+) = 1, f(q, d-) = 0, tau = 1
    loss, _, _ = contrastive_loss(
        params, np.array([1.0, 0.0]), [unit_doc([1.0, 0.0])], [unit_doc([0.0, 1.0])]
    )
    assert loss == pytest.approx(math.log(1 + math.exp(-1)), abs=1e-12)


def test_loss_identical_positive_negative():
    params = axis_params()
    doc = unit_doc([1.0, 0.0])
    loss, _, _ = contrastive_loss(params, np.array([1.0, 0.0]), [doc], [doc])
    assert loss == pytest.approx(math.log(2), abs=1e-12)


def test_loss_saturates_with_large_margin():
    params = axis_params()
    params.temperature = 0.02  # margin/tau = (1 - 0) / 0.02 = 50
    loss, _, _ = contrastive_loss(
        params, np.array([1.0, 0.0]), [unit_doc([1.0, 0.0])], [unit_doc([0.0, 1.0])]
    )
    assert 0.0 <= loss < 1e-12


def test_loss_nonnegative_random():
    rng = np.random.default_rng(0)
    params = init_params(1, 5, 4, 6)
    for _ in range(20):
        docs = [(rng.normal(size=5), rng.normal(size=4)) for _ in range(3)]
        loss, _, _ = contrastive_loss(params, rng.normal(size=5), docs[:1], docs[1:])
        assert loss >= 0.0


def test_loss_requires_positive_and_negative():
    params = init_params(0, 4, 3, 8)
    doc = (np.ones(4), np.ones(3))
    with pytest.raises(NoPositives):
        contrastive_loss(params, np.ones(4), [], [doc])
    with pytest.raises(NoPositives):
        contrastive_loss(params, np.ones(4), [doc], [])


def central_differences(params, loss_of, h=1e-5):
    """Central differences of loss_of(params) over every parameter entry (independent oracle)."""
    grads = []
    for w in (params.w_q, params.w_d):
        g = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + h
            up = loss_of(params)
            w[idx] = orig - h
            down = loss_of(params)
            w[idx] = orig
            g[idx] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def finite_difference_grads(params, x, positives, negatives, h=1e-5):
    return central_differences(
        params, lambda p: contrastive_loss(p, x, positives, negatives)[0], h
    )


def max_relative_error(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return np.max(np.abs(analytic - numeric) / denom)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(42)
    for trial in range(10):
        d_img, d_txt = rng.integers(2, 6, size=2)
        e = int(rng.integers(2, 9))
        params = init_params(trial, d_img, d_txt, e, temperature=0.5)
        x = rng.normal(size=d_img)
        n_docs = int(rng.integers(2, 5))
        docs = [(rng.normal(size=d_img), rng.normal(size=d_txt)) for _ in range(n_docs)]
        n_pos = int(rng.integers(1, n_docs))
        _, gq, gd = contrastive_loss(params, x, docs[:n_pos], docs[n_pos:])
        fq, fd = finite_difference_grads(params, x, docs[:n_pos], docs[n_pos:])
        assert max_relative_error(gq, fq) < 1e-4
        assert max_relative_error(gd, fd) < 1e-4


def test_loss_decreases_under_small_step():
    rng = np.random.default_rng(3)
    params = init_params(3, 6, 4, 8, temperature=0.5)
    x = rng.normal(size=6)
    docs = [(rng.normal(size=6), rng.normal(size=4)) for _ in range(4)]
    loss0, gq, gd = contrastive_loss(params, x, docs[:1], docs[1:])
    lr = 1e-3
    for _ in range(10):  # backoff until the step is small enough
        trial = EncoderParams(params.w_q - lr * gq, params.w_d - lr * gd, params.temperature)
        loss1, _, _ = contrastive_loss(trial, x, docs[:1], docs[1:])
        if loss1 < loss0:
            return
        lr /= 10
    pytest.fail("no descent even at tiny step size")


# --- batched training loss -------------------------------------------------


def summed_reference_loss(params, x, z, hard, hard_mask):
    """Sum of contrastive_loss over a batch's rows, skipping rows without negatives."""
    split = lambda row: (row[: params.d_img], row[params.d_img :])
    docs = [split(row) for row in z]
    loss, g_q, g_d = 0.0, np.zeros_like(params.w_q), np.zeros_like(params.w_d)
    for i in range(len(x)):
        in_batch = docs[:i] + docs[i + 1 :]
        extra = [split(row) for row in hard[i][hard_mask[i]]]
        if not in_batch and not extra:
            continue
        l, gq, gd = contrastive_loss(params, x[i], [docs[i]], in_batch, extra)
        loss, g_q, g_d = loss + l, g_q + gq, g_d + gd
    return loss, g_q, g_d


def entry_error(got, want):
    """Largest absolute difference, relative to the reference's largest entry."""
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.fixture(scope="module")
def synth_batch_inputs():
    corpus, pairs = small_training_setup(seed=0, n=300)
    examples = [(q, p.doc_id) for q, entries in sorted(pairs.pairs.items()) for p in entries]
    rows = {r.report_id: i for i, r in enumerate(corpus.records)}
    x, z = corpus.inputs[:, : corpus.d_img], corpus.inputs
    params = init_params(0, corpus.d_img, corpus.d_txt, 256, temperature=0.01)
    return params, examples, rows, x, z


def gather(inputs, batch, hard_counts=None, h=3, seed=0):
    """_batch_loss inputs for examples `batch`, with ragged random hard
    negatives, or a block of width 0 without hard_counts."""
    params, examples, rows, x, z = inputs
    query_rows = [rows[examples[i][0]] for i in batch]
    doc_rows = [rows[examples[i][1]] for i in batch]
    if hard_counts is None:
        h, hard_counts = 0, [0] * len(batch)
    rng = np.random.default_rng(seed)
    hard_rows = rng.choice(len(z), size=(len(batch), h))
    mask = np.arange(h) < np.asarray(hard_counts)[:, None]
    hard_rows[~mask] = np.repeat(doc_rows, h).reshape(len(batch), h)[~mask]
    return x[query_rows], z[doc_rows], z[hard_rows], mask


@pytest.mark.parametrize("case", ["in_batch", "duplicates", "ragged_hard", "single_with_extras"])
def test_batch_loss_equals_summed_reference(synth_batch_inputs, case):
    params, examples = synth_batch_inputs[:2]
    rng = np.random.default_rng(7)
    batch = list(rng.choice(len(examples), size=32, replace=False))
    hard_counts = None
    if case == "duplicates":
        batch = batch[:20] + batch[:12]  # every doc of the first 12 rows twice
    elif case == "ragged_hard":
        batch = batch[:24] + batch[:8]
        hard_counts = rng.integers(0, 4, size=len(batch))
        hard_counts[:4] = [0, 1, 2, 3]
    elif case == "single_with_extras":
        batch, hard_counts = batch[:1], [2]
    inputs = gather(synth_batch_inputs, batch, hard_counts)
    got = _batch_loss(params, *inputs)
    want = summed_reference_loss(params, *inputs)
    assert want[0] > 0
    assert abs(got[0] - want[0]) <= 1e-12 * abs(want[0])
    assert entry_error(got[1], want[1]) <= 1e-12
    assert entry_error(got[2], want[2]) <= 1e-12


@pytest.mark.parametrize("hard_counts", [None, [0]])
def test_batch_loss_skips_row_without_negatives(synth_batch_inputs, hard_counts):
    params = synth_batch_inputs[0]
    loss, g_q, g_d = _batch_loss(params, *gather(synth_batch_inputs, [5], hard_counts))
    assert loss == 0.0
    assert not g_q.any() and not g_d.any()


@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("b", [1, 8, 32, 7, 13])
def test_fully_masked_hard_block_equals_width_zero(synth_batch_inputs, b, k):
    """Stage 1 (h = 0) and a stage-2 batch whose k slots are all masked out
    take one path. numpy sums each logit row pairwise in 8 strided partial
    sums, so the masked zeros leave the row's sum bit-equal when b is a
    multiple of 8 (the default batch size is 32) or at most 3; otherwise they
    regroup its terms and the two agree to rounding."""
    params = synth_batch_inputs[0]
    x, z, no_hard, no_mask = gather(synth_batch_inputs, list(range(b)))
    assert no_hard.shape == (b, 0, z.shape[1]) and no_mask.shape == (b, 0)
    hard = np.repeat(z[:, None, :], k, axis=1)
    got = _batch_loss(params, x, z, hard, np.zeros((b, k), dtype=bool))
    want = _batch_loss(params, x, z, no_hard, no_mask)
    if b % 8 == 0 or b <= 3:
        assert [np.asarray(g).tobytes() for g in got] == [np.asarray(w).tobytes() for w in want]
    else:
        assert abs(got[0] - want[0]) <= 1e-14 * want[0]
        assert entry_error(got[1], want[1]) <= 1e-12
        assert entry_error(got[2], want[2]) <= 1e-12


def test_batch_loss_matches_reference_on_adversarial_batches():
    """Tiny temperatures, feature scales over ten orders of magnitude, documents
    repeated within and across the in-batch and hard blocks."""
    rng = np.random.default_rng(11)
    for trial in range(300):
        d_img, d_txt = (int(v) for v in rng.integers(2, 7, size=2))
        tau = float(np.exp(rng.uniform(np.log(0.01), np.log(2.0))))
        params = init_params(trial, d_img, d_txt, int(rng.integers(2, 9)), temperature=tau)
        b, h = int(rng.integers(1, 9)), int(rng.integers(0, 4))
        n_distinct = int(rng.integers(1, b + h + 1))
        scale = lambda n: np.exp(rng.uniform(-5, 5, size=(n, 1)))
        pool = rng.normal(size=(n_distinct, d_img + d_txt)) * scale(n_distinct)
        x = rng.normal(size=(b, d_img)) * scale(b)
        z = pool[rng.integers(0, n_distinct, size=b)]
        hard = pool[rng.integers(0, n_distinct, size=(b, h))]
        mask = np.arange(h) < rng.integers(0, h + 1, size=(b, 1))
        got = _batch_loss(params, x, z, hard, mask)
        want = summed_reference_loss(params, x, z, hard, mask)
        assert abs(got[0] - want[0]) <= 1e-9 * abs(want[0])
        for g, w in zip(got[1:], want[1:]):
            # Where the reference gradient is a difference of equal terms (a
            # duplicate of the positive carries the softmax), its largest entry
            # is rounding noise and only the absolute error means anything.
            assert np.max(np.abs(g - w)) <= max(1e-9 * np.max(np.abs(w)), 1e-12)


def test_batch_loss_one_distinct_document_cancels():
    rng = np.random.default_rng(12)
    params = init_params(12, 4, 3, 6, temperature=0.01)
    doc = rng.normal(size=7)
    x = rng.normal(size=(5, 4))
    z = np.tile(doc, (5, 1))
    hard, mask = np.tile(doc, (5, 2, 1)), np.ones((5, 2), dtype=bool)
    got = _batch_loss(params, x, z, hard, mask)
    want = summed_reference_loss(params, x, z, hard, mask)
    assert got[0] == pytest.approx(5 * math.log(7), rel=1e-12)
    assert want[0] == pytest.approx(5 * math.log(7), rel=1e-12)
    for g, w in zip(got[1:], want[1:]):
        assert np.max(np.abs(g - w)) <= 1e-12


def test_batch_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(43)
    for trial in range(10):
        d_img, d_txt = (int(v) for v in rng.integers(2, 6, size=2))
        params = init_params(trial, d_img, d_txt, int(rng.integers(2, 9)), temperature=0.5)
        b, h = int(rng.integers(1, 5)), int(rng.integers(0, 3))
        docs = rng.normal(size=(b + h, d_img + d_txt))
        x = rng.normal(size=(b, d_img))
        z = docs[rng.integers(0, len(docs), size=b)]
        hard = docs[rng.integers(0, len(docs), size=(b, h))]
        mask = np.arange(h) < rng.integers(0, h + 1, size=(b, 1))
        _, gq, gd = _batch_loss(params, x, z, hard, mask)
        fq, fd = central_differences(params, lambda p: _batch_loss(p, x, z, hard, mask)[0])
        assert max_relative_error(gq, fq) < 1e-4
        assert max_relative_error(gd, fd) < 1e-4


# --- training --------------------------------------------------------------


def small_training_setup(seed=0, n=100):
    corpus = synth_corpus(seed, n)
    pairs = mine_pairs(corpus, MiningConfig(chexbert_threshold=0.6, radgraph_threshold=0.1))
    return corpus, pairs


def test_train_zero_learning_rate_is_identity():
    corpus, pairs = small_training_setup()
    config = TrainConfig(learning_rate=0.0, max_epochs=2, seed=1, embedding_dim=16)
    params, log = train(corpus, pairs, config)
    baseline = init_params(1, corpus.d_img, corpus.d_txt, 16)
    np.testing.assert_array_equal(params.w_q, baseline.w_q)
    np.testing.assert_array_equal(params.w_d, baseline.w_d)
    losses = [entry["train_loss"] for entry in log]
    assert all(l == pytest.approx(losses[0]) for l in losses)


def test_train_deterministic_under_seed():
    corpus, pairs = small_training_setup()
    config = TrainConfig(learning_rate=0.05, max_epochs=3, seed=5, embedding_dim=16)
    params_a, log_a = train(corpus, pairs, config)
    params_b, log_b = train(corpus, pairs, config)
    np.testing.assert_array_equal(params_a.w_q, params_b.w_q)
    np.testing.assert_array_equal(params_a.w_d, params_b.w_d)
    strip = lambda log: [
        {k: v for k, v in entry.items() if k != "wall_ms"} for entry in log
    ]
    assert strip(log_a) == strip(log_b)


def test_train_improves_validation_mrr():
    corpus, pairs = small_training_setup(seed=11, n=140)
    config = TrainConfig(learning_rate=0.05, max_epochs=5, seed=11, embedding_dim=32)
    params, log = train(corpus, pairs, config)
    judgments = judge_relevance(corpus, 0.6, 0.1, query_split="validation")
    trained = _validation_mrr(params, corpus, judgments)
    untrained = _validation_mrr(
        init_params(11, corpus.d_img, corpus.d_txt, 32), corpus, judgments
    )
    assert trained > untrained


def test_train_rejects_non_train_pairs(tiny_corpus):
    from factmine.mining import MinedPair, PairSet

    pairs = PairSet({"s5": [MinedPair("s1", 1, 0.5, 1.0)]}, MiningConfig())
    with pytest.raises(NoPositives):
        train(tiny_corpus, pairs, TrainConfig(seed=0))


def test_train_names_paired_document_without_text(tiny_corpus):
    from dataclasses import replace

    from factmine.mining import MinedPair, PairSet

    records = [
        replace(r, text_features=None) if r.report_id == "s2" else r
        for r in tiny_corpus.records
    ]
    corpus = type(tiny_corpus)(records, tiny_corpus.d_img, tiny_corpus.d_txt)
    pairs = PairSet({"s1": [MinedPair("s2", 1, 0.5, 1.0)]}, MiningConfig())
    with pytest.raises(MissingTextFeatures, match="'s2'"):
        train(corpus, pairs, TrainConfig(seed=0))


def test_hard_negative_stage_runs():
    corpus, pairs = small_training_setup(seed=2, n=80)
    config = TrainConfig(
        learning_rate=0.05, max_epochs=2, seed=2, hard_negative_k=3, embedding_dim=16
    )
    params, log = train(corpus, pairs, config)
    stages = {entry["stage"] for entry in log}
    assert stages == {"in_batch", "hard_negative"}


# --- training-time retrieval against full rankings ---------------------------

VAL_POLICY = ExclusionPolicy(exclude_self=False, exclude_same_patient=False, min_report_chars=0)
HARD_POLICY = ExclusionPolicy(exclude_self=True, exclude_same_patient=False, min_report_chars=0)


def tied_setup(seed=3, n=80, shared=5):
    """synth_corpus whose train documents share `shared` feature vectors, and
    heads quantised to halves, so that many scores tie exactly."""
    corpus = synth_corpus(seed, n)
    protos = corpus.split("train")[:shared]
    records = [
        replace(r, image_features=protos[i % shared].image_features,
                text_features=protos[i % shared].text_features)
        if r.split == "train" else r
        for i, r in enumerate(corpus.records)
    ]
    corpus = Corpus(records, corpus.d_img, corpus.d_txt)
    p = init_params(seed, corpus.d_img, corpus.d_txt, 4)
    return corpus, EncoderParams(np.round(p.w_q * 2) / 2, np.round(p.w_d * 2) / 2, p.temperature)


def plain_setup(seed=4, n=80):
    corpus = synth_corpus(seed, n)
    return corpus, init_params(seed, corpus.d_img, corpus.d_txt, 8)


def full_ranking(index, params, rec, policy):
    q = encode_query(params, rec.image_features)
    return search(index, q, len(index.doc_ids), policy, (rec.report_id, rec.patient_id))


def full_ranking_mrr(params, corpus, judgments):
    val = corpus.split("validation")
    if not val:
        return None
    index = build_index(corpus, params, "train")
    return mrr(
        RetrievalRun({r.report_id: full_ranking(index, params, r, VAL_POLICY) for r in val}),
        judgments,
    )


def foreign_and_empty_judgments(corpus, seed=0):
    """Per validation query in turn: no entry, an empty set, only ids outside
    the train split, and those plus a few train ids."""
    rng = np.random.default_rng(seed)
    train_ids = [r.report_id for r in corpus.split("train")]
    foreign = [r.report_id for r in corpus.records if r.split != "train"] + ["absent"]
    relevant = {}
    for j, rec in enumerate(corpus.split("validation")):
        if j % 4 == 0:
            continue
        picked = set() if j % 4 == 1 else set(rng.choice(foreign, 3).tolist())
        if j % 4 == 3:
            picked |= set(rng.choice(train_ids, 3).tolist())
        relevant[rec.report_id] = picked
    return replace(judge_relevance(corpus, 0.6, 0.1, query_split="validation"), relevant=relevant)


@pytest.mark.parametrize("setup", [tied_setup, plain_setup])
@pytest.mark.parametrize("judge", [
    lambda corpus: judge_relevance(corpus, 0.6, 0.1, query_split="validation"),
    lambda corpus: judge_relevance(corpus, 0.0, 0.0, query_split="validation"),
    foreign_and_empty_judgments,
], ids=["judged", "all-train-relevant", "foreign-and-empty"])
def test_validation_mrr_equals_mrr_of_full_rankings(setup, judge):
    corpus, params = setup()
    judgments = judge(corpus)
    got = _validation_mrr(params, corpus, judgments)
    assert got.hex() == full_ranking_mrr(params, corpus, judgments).hex()
    if setup is tied_setup:
        index = build_index(corpus, params, "train")
        scores = [s for _, s in full_ranking(index, params, corpus.split("validation")[0], VAL_POLICY)]
        assert len(set(scores)) < len(scores)


def test_validation_mrr_without_validation_split_is_none():
    corpus, params = plain_setup()
    records = [replace(r, split="test") if r.split == "validation" else r for r in corpus.records]
    corpus = Corpus(records, corpus.d_img, corpus.d_txt)
    judgments = judge_relevance(corpus, 0.6, 0.1, query_split="validation")
    assert _validation_mrr(params, corpus, judgments) is None
    assert full_ranking_mrr(params, corpus, judgments) is None


def full_ranking_hard_negatives(params, corpus, pairs, k):
    index = build_index(corpus, params, "train")
    out = {}
    for query_id in pairs.pairs:
        positives = set(pairs.doc_ids(query_id))
        ranked = full_ranking(index, params, corpus[query_id], HARD_POLICY)
        out[query_id] = [doc_id for doc_id, _ in ranked if doc_id not in positives][:k]
    return out


def top_ranked_pairs(params, corpus, include_self, seed=0):
    """Every third train query paired with its three top-ranked documents and
    one random train document, so its first non-positives lie past rank k."""
    rng = np.random.default_rng(seed)
    index = build_index(corpus, params, "train")
    pairs = {}
    for rec in corpus.split("train")[::3]:
        ranked = [doc_id for doc_id, _ in full_ranking(index, params, rec, HARD_POLICY)]
        docs = ranked[:3] + [index.doc_ids[rng.integers(len(index.doc_ids))]]
        own = [MinedPair(rec.report_id, SELF_RANK, 1.0, 1.0)] if include_self else []
        pairs[rec.report_id] = own + [MinedPair(d, r, 0.5, 0.5) for r, d in enumerate(docs, 1)]
    return PairSet(pairs, MiningConfig())


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("include_self", [True, False], ids=["with-self", "without-self"])
@pytest.mark.parametrize("setup", [tied_setup, plain_setup])
def test_hard_negatives_equal_full_ranking_reference(setup, include_self, k):
    corpus, params = setup()
    mined = mine_pairs(corpus, MiningConfig(0.6, 0.1, top_k=5, include_self=include_self))
    for pairs in (top_ranked_pairs(params, corpus, include_self), mined):
        want = full_ranking_hard_negatives(params, corpus, pairs, k)
        assert all(len(picked) == k for picked in want.values())
        assert _hard_negatives(params, corpus, pairs, k) == want


def saved_checkpoint(tmp_path):
    path = tmp_path / "enc.ckpt"
    save_params(init_params(9, 6, 4, 8), path, seed=9)
    header, body = path.read_bytes().split(b"\n", 1)
    return path, json.loads(header), body


def test_load_params_rejects_truncated_body(tmp_path):
    path, header, body = saved_checkpoint(tmp_path)
    path.write_bytes(json.dumps(header).encode() + b"\n" + body[:-20])
    with pytest.raises(MalformedArtifact, match="body is 1004 bytes, expected 1024"):
        load_params(path)


@pytest.mark.parametrize(
    "change",
    [
        {"schema_version": "0"},
        {"embedding_dim": 1},
        {"embedding_dim": "8"},
        {"d_img": 0},
        {"d_txt": -1},
        {"d_txt": 4.0},
        {"temperature": 0},
        {"temperature": "0.01"},
    ],
)
def test_load_params_rejects_bad_header(tmp_path, change):
    path, header, body = saved_checkpoint(tmp_path)
    path.write_bytes(json.dumps({**header, **change}).encode() + b"\n" + body)
    with pytest.raises(MalformedArtifact):
        load_params(path)


def test_load_params_rejects_non_json_header_and_non_finite_entries(tmp_path):
    path, header, body = saved_checkpoint(tmp_path)
    path.write_bytes(b"\x89not json\n" + body)
    with pytest.raises(MalformedArtifact, match="not a JSON line"):
        load_params(path)
    path.write_bytes(json.dumps(header).encode() + b"\n" + np.float64(np.inf).tobytes() + body[8:])
    with pytest.raises(MalformedArtifact, match="non-finite"):
        load_params(path)


def test_checkpoint_roundtrip(tmp_path):
    params = init_params(9, 6, 4, 8)
    path = tmp_path / "enc.ckpt"
    save_params(params, path, seed=9)
    back = load_params(path)
    np.testing.assert_array_equal(back.w_q, params.w_q)
    np.testing.assert_array_equal(back.w_d, params.w_d)
    assert back.temperature == params.temperature
