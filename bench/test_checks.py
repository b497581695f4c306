"""The benchmark's checks accept factmine's real outputs on tiny inputs and
reject one corrupted output each.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

import json
import os
import shutil
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import common  # noqa: E402
import gen  # noqa: E402

import factmine  # noqa: E402
from factmine import cli, encoder, index as fm_index, mining  # noqa: E402

TINY = {"train": 100, "validation": 10, "test": 20}


def _cli(*argv):
    assert cli.main(list(argv)) == 0


def _edit_lines(path, edit):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    edit(lines)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def made(tmp_path_factory):
    """Real outputs of every workload's commands over one tiny corpus."""
    files = common.Inputs(str(tmp_path_factory.mktemp("made")))
    gen.write_corpus(files.corpus, 3, TINY)
    c = files.corpus
    _cli("mine", "--corpus", c, "--pairs", files.pairs, *common.MINE_FLAGS)
    _cli("sweep", "--corpus", c, "--output", files.path("sweep.jsonl"),
         "--chexbert-grid", ",".join(map(str, common.SWEEP_CHEXBERT)),
         "--radgraph-grid", ",".join(map(str, common.SWEEP_RADGRAPH)))
    cfg = common.TRAIN
    encoder.save_params(encoder.init_params(3, gen.D_IMG, gen.D_TXT, cfg["embedding_dim"],
                                            cfg["temperature"]), files.baseline)
    _cli("train", "--corpus", c, "--pairs", files.pairs, "--checkpoint", files.checkpoint,
         "--log", files.path("train.log"), "--seed", "3",
         *(arg for key in ("learning_rate", "batch_size", "max_epochs", "early_stop_patience",
                           "hard_negative_k", "embedding_dim", "temperature")
           for arg in ("--" + key.replace("_", "-"), str(cfg[key]))))
    _cli("index", "--corpus", c, "--checkpoint", files.checkpoint, "--index", files.path("docs.idx"))
    _cli("retrieve", "--corpus", c, "--checkpoint", files.checkpoint,
         "--index", files.path("docs.idx"), "--run", files.path("run.tsv"))
    _cli("eval", "--corpus", c, "--run", files.path("run.tsv"), "--output", files.path("eval.json"))
    _cli("oracle", "--corpus", c, "--run", files.path("oracle.tsv"))
    _cli("build-rag", "--corpus", c, "--checkpoint", files.checkpoint,
         "--output", files.path("rag.jsonl"), "--mode", "rag")

    corpus = factmine.load_corpus(c)
    params = encoder.load_params(files.checkpoint)
    idx = fm_index.build_index(corpus, params, "train")
    policy = fm_index.ExclusionPolicy(**common.POLICY)
    test = corpus.split("test")
    singles = [fm_index.search(idx, encoder.encode_query(params, r.image_features), common.K,
                               policy, (r.report_id, r.patient_id)) for r in test]
    ids = [r.report_id for r in test]
    for name in ("queries.json", "batch.json"):
        with open(files.path(name), "w", encoding="utf-8") as fh:
            json.dump([ids, singles], fh)

    cfg = mining.MiningConfig(**common.MINING)
    train = corpus.split("train")
    mined = [[q.report_id, [list(p) for p in mining.candidate_pairs(q, train, cfg)[: cfg.top_k]]]
             for q in train]
    bulk = mining.mine_pairs(corpus, cfg)
    with open(files.path("mine_queries.json"), "w", encoding="utf-8") as fh:
        json.dump(mined, fh)
    with open(files.path("mine_batch.json"), "w", encoding="utf-8") as fh:
        json.dump([{q: [[p.doc_id, p.rank, p.rad_score, p.chex_score] for p in ps]
                    for q, ps in bulk.pairs.items()}], fh)
    return files


@pytest.fixture
def files(made, tmp_path):
    """A private copy of the real outputs, free to corrupt."""
    root = str(tmp_path / "copy")
    shutil.copytree(made.root, root)
    return common.Inputs(root)


def _outputs(files):
    return {name: files.path(name) for name in (
        "train.log", "run.tsv", "eval.json", "oracle.tsv", "rag.jsonl", "queries.json",
        "batch.json")}


def _mine(files):
    with open(files.path("mine_queries.json"), encoding="utf-8") as fh:
        queries = json.load(fh)
    with open(files.path("mine_batch.json"), encoding="utf-8") as fh:
        batches = json.load(fh)
    return checks.check_mine(checks.Corpus(files.corpus), files.pairs,
                             files.path("sweep.jsonl"), queries, batches)


def _train(files):
    return checks.check_train(checks.Corpus(files.corpus), files, _outputs(files))[0]


def _serve(files):
    return checks.check_serve(checks.Corpus(files.corpus), files, _outputs(files))[0]


def test_real_outputs_pass(files):
    assert _mine(files) == []
    assert _train(files) == []
    assert _serve(files) == []


def test_mine_rejects_swapped_ranks(files):
    def swap(lines):
        rows = [i for i, line in enumerate(lines) if line.split("\t")[2:3] in (["1"], ["2"])]
        for a, b in zip(rows, rows[1:]):
            qa, qb = lines[a].split("\t"), lines[b].split("\t")
            if qa[0] == qb[0] and qa[3] != qb[3]:
                qa[1], qb[1] = qb[1], qa[1]
                qa[3], qb[3] = qb[3], qa[3]
                lines[a], lines[b] = "\t".join(qa), "\t".join(qb)
                return
        raise AssertionError("no query with two differently scored pairs")

    _edit_lines(files.pairs, swap)
    assert any("ordered" in e or "brute force" in e for e in _mine(files))


def test_mine_rejects_pair_below_threshold(files):
    c = checks.Corpus(files.corpus)
    t = c.where("train")
    below = np.argwhere(checks.agreement(c, t, t) < common.MINING["chexbert_threshold"])[0]
    q, d = c.ids[t[below[0]]], c.ids[t[below[1]]]
    _edit_lines(files.pairs, lambda lines: lines.append(f"{q}\t{d}\t3\t0.5\t1.0"))
    assert any("below threshold" in e for e in _mine(files))


def test_mine_rejects_wrong_sweep_count(files):
    def bump(lines):
        row = json.loads(lines[0])
        row["mean_pairs_per_query"] += 0.5
        lines[0] = json.dumps(row)

    _edit_lines(files.path("sweep.jsonl"), bump)
    assert any("sweep" in e for e in _mine(files))


def test_train_rejects_excluded_document(files):
    c = checks.Corpus(files.corpus)
    run = checks.read_run(files.path("run.tsv"))
    for q in run:
        same = [c.ids[i] for i in c.where("train") if c.patient[i] == c.patient[c.pos[q]]]
        if same:
            break
    else:
        pytest.skip("no test query shares a patient with a train report")

    def exclude(lines):
        for i, line in enumerate(lines):
            parts = line.split("\t")
            if parts[0] == q and parts[1] == "1":
                parts[2] = same[0]
                lines[i] = "\t".join(parts)

    _edit_lines(files.path("run.tsv"), exclude)
    assert any("excluded" in e for e in _train(files))


def test_train_rejects_wrong_eval_figure(files):
    path = files.path("eval.json")
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    report["rouge_l_mean"] += 0.01
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    assert any("rouge_l_mean" in e for e in _train(files))


def test_train_rejects_worse_oracle_pick(files):
    c = checks.Corpus(files.corpus)
    test, train = c.where("test"), c.where("train")
    summed = checks.agreement(c, test, train) + checks.dice(c, test, train)
    worst = c.ids[train[int(np.argmin(summed[0]))]]

    def replace(lines):
        parts = lines[1].split("\t")
        parts[2] = worst
        lines[1] = "\t".join(parts)

    _edit_lines(files.path("oracle.tsv"), replace)
    assert any("oracle" in e for e in _train(files))


def test_train_rejects_prompt_without_its_report(files):
    def misquote(lines):
        row = json.loads(lines[0])
        row["prompt"] = row["prompt"].replace('"', "'")
        lines[0] = json.dumps(row)

    _edit_lines(files.path("rag.jsonl"), misquote)
    assert any("quote" in e for e in _train(files))


def test_serve_rejects_swapped_ranks(files):
    path = files.path("queries.json")
    with open(path, encoding="utf-8") as fh:
        ids, singles = json.load(fh)
    first = singles[0]
    first[0], first[-1] = first[-1], first[0]
    for name in ("queries.json", "batch.json"):
        with open(files.path(name), "w", encoding="utf-8") as fh:
            json.dump([ids, singles], fh)
    assert any("rank 1" in e for e in _serve(files))


def test_serve_rejects_batch_unlike_single(files):
    path = files.path("batch.json")
    with open(path, encoding="utf-8") as fh:
        ids, batches = json.load(fh)
    batches[0] = batches[0][:-1]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([ids, batches], fh)
    assert any("search_batch" in e for e in _serve(files))


def test_ranking_allows_tied_scores_in_either_order(made):
    c = checks.Corpus(made.corpus)
    d = c.where("train")[:3]
    scores = np.array([0.5, 0.5, 0.1])
    ok = np.ones(3, dtype=bool)
    tied = [(c.ids[d[1]], 0.5), (c.ids[d[0]], 0.5)]
    assert checks.check_ranked(c, tied, scores, ok, d, 2, "tie") == []
    wrong = [(c.ids[d[2]], 0.1), (c.ids[d[0]], 0.5)]
    assert checks.check_ranked(c, wrong, scores, ok, d, 2, "wrong") != []
