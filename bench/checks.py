"""Checks of every workload's outputs, computed apart from factmine.

Nothing here imports factmine: the corpus, checkpoint, pair, run and RAG
files are read with the benchmark's own readers, fact scores come from a
vectorised scorer over item-incidence matrices, and rankings from a
numpy product, an exclusion mask and an ordering by (-score, doc id).
Each `check_*` function returns a list of error strings; empty means the
outputs are correct. `mrr` values are returned alongside for reporting.
"""

import json
import math

import numpy as np

import common

EPS = 1e-9  # scores closer than this count as tied


# --- readers ---------------------------------------------------------------


class Corpus:
    """A corpus file as arrays, in file order."""

    def __init__(self, path):
        with open(path, encoding="utf-8") as fh:
            fh.readline()  # the header carries nothing the checks need
            recs = [json.loads(line) for line in fh if line.strip()]
        self.ids = [r["report_id"] for r in recs]
        self.pos = {rid: i for i, rid in enumerate(self.ids)}
        self.split = np.array([r["split"] for r in recs])
        self.patient = np.array([r["patient_id"] for r in recs])
        self.text = [r["report_text"] for r in recs]
        self.chars = np.array([len(t) for t in self.text])
        self.labels = np.array([r["labels"] for r in recs], dtype=np.float64).reshape(-1, 5)
        self.items = [fact_items(r["entities"], r["relations"]) for r in recs]
        self.img = np.array([r["image_features"] for r in recs], dtype=np.float64)
        self.txt = np.array([r["text_features"] for r in recs], dtype=np.float64)
        # Position of each record in doc-id order, the ranking tie-break.
        self.id_rank = np.empty(len(recs), dtype=np.int64)
        self.id_rank[np.argsort(np.array(self.ids))] = np.arange(len(recs))
        vocab = {}
        for s in self.items:
            for item in s:
                vocab.setdefault(item, len(vocab))
        self.incidence = np.zeros((len(recs), max(1, len(vocab))))
        for i, s in enumerate(self.items):
            self.incidence[i, [vocab[item] for item in s]] = 1.0
        self.n_items = self.incidence.sum(axis=1)

    def where(self, split):
        return np.flatnonzero(self.split == split)


def fact_items(entities, relations):
    """Entity items (text, label) and relation items (src text, src label,
    type, dst text, dst label); entities that normalise to '' drop out."""
    norm = [(common.normalize_entity(t), label) for t, label in entities]
    items = {e for e in norm if e[0]}
    for src, rel, dst in relations:
        s, d = norm[src], norm[dst]
        if s[0] and d[0]:
            items.add((s[0], s[1], rel, d[0], d[1]))
    return items


def read_checkpoint(path):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        buf = fh.read()
    e, d_img, d_txt = header["embedding_dim"], header["d_img"], header["d_txt"]
    w = np.frombuffer(buf, dtype="<f8")
    if w.size != (2 * d_img + d_txt) * e:
        raise ValueError(f"{path}: {w.size} weights for e={e}, d_img={d_img}, d_txt={d_txt}")
    return w[: d_img * e].reshape(d_img, e), w[d_img * e:].reshape(d_img + d_txt, e)


def read_pairs(path):
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        pairs = {}
        for line in fh:
            if line.strip():
                q, d, rank, rad, chex = line.rstrip("\n").split("\t")
                pairs.setdefault(q, []).append((d, int(rank), float(rad), float(chex)))
    return header, pairs


def read_run(path):
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        results = {}
        for line in fh:
            if line.strip():
                q, rank, d, score = line.rstrip("\n").split("\t")
                results.setdefault(q, []).append((int(rank), d, float(score)))
    return results


def read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# --- scoring ---------------------------------------------------------------


def agreement(c, q, d):
    """Share of the 5 label positions on which each query and doc agree."""
    lq, ld = c.labels[q], c.labels[d]
    return (lq @ ld.T + (1 - lq) @ (1 - ld).T) / 5.0


def dice(c, q, d):
    """Dice overlap of fact item sets; 0 when both sets are empty."""
    inter = c.incidence[q] @ c.incidence[d].T
    denom = c.n_items[q][:, None] + c.n_items[d][None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        out = (2.0 * inter) / denom
    return np.where(denom > 0, out, 0.0)


def relevant(c, q, d, chex=common.EVAL_CHEXBERT, rad=common.EVAL_RADGRAPH):
    """Judged relevant: agreement >= chex, Dice > rad, never the query itself."""
    rel = (agreement(c, q, d) >= chex) & (dice(c, q, d) > rad)
    return rel & (np.asarray(q)[:, None] != np.asarray(d)[None, :])


def _unit(rows):
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    return rows / norms


def embed(c, w_q, w_d, q, d):
    """Unit query embeddings (image) and doc embeddings (image + text)."""
    eq = _unit(c.img[q] @ w_q)
    ed = _unit(np.hstack([c.img[d], c.txt[d]]) @ w_d)
    return eq, ed


def eligible(c, q, d, policy=common.POLICY):
    """Docs the exclusion policy leaves to each query."""
    q, d = np.asarray(q), np.asarray(d)
    ok = np.ones((len(q), len(d)), dtype=bool)
    if policy["exclude_self"]:
        ok &= q[:, None] != d[None, :]
    if policy["exclude_same_patient"]:
        ok &= c.patient[q][:, None] != c.patient[d][None, :]
    ok &= (c.chars[d] >= policy["min_report_chars"])[None, :]
    return ok


def rank(c, scores, ok, d, k):
    """Doc positions in order (-score, doc id) among the eligible, top k."""
    cand = np.flatnonzero(ok)
    order = np.lexsort((c.id_rank[d[cand]], -scores[cand]))
    return cand[order[:k]]


def check_ranked(c, got, scores, ok, d, k, where):
    """`got` [(doc_id, score)] must be a top-k by (-score, doc id) over
    the eligible docs `d`; scores tied within EPS may come in any order."""
    errors = []
    best = rank(c, scores, ok, d, k)
    col = np.full(len(c.ids), -1)
    col[d] = np.arange(len(d))
    if len(got) != len(best):
        return [f"{where}: {len(got)} results, expected {len(best)}"]
    seen = set()
    for pos, (doc_id, score) in enumerate(got):
        j = col[c.pos[doc_id]] if doc_id in c.pos else -1
        if j < 0 or not ok[j] or doc_id in seen:
            return [f"{where}: rank {pos + 1} {doc_id} is excluded, unknown or repeated"]
        seen.add(doc_id)
        if abs(score - scores[j]) > EPS:
            errors.append(f"{where}: {doc_id} score {score!r}, recomputed {scores[j]!r}")
        if j != best[pos] and abs(scores[j] - scores[best[pos]]) > EPS:
            errors.append(f"{where}: rank {pos + 1} is {doc_id}, expected {c.ids[d[best[pos]]]}")
    return errors


def mrr(ranked, rel_sets):
    """Mean reciprocal rank of the first relevant doc over all queries."""
    total = 0.0
    for q, docs in ranked.items():
        for r, doc in enumerate(docs, start=1):
            if doc in rel_sets.get(q, ()):
                total += 1.0 / r
                break
    return total / len(ranked) if ranked else 0.0


def relevance_sets(c, q):
    d = c.where("train")
    rel = relevant(c, q, d)
    return {c.ids[qi]: {c.ids[d[j]] for j in np.flatnonzero(rel[i])} for i, qi in enumerate(q)}


def rouge_l(ref, hyp):
    a, b = ref.lower().split(), hyp.lower().split()
    if not a or not b:
        return 0.0
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i, x in enumerate(a, 1):
        for j, y in enumerate(b, 1):
            table[i][j] = table[i - 1][j - 1] + 1 if x == y else max(table[i - 1][j], table[i][j - 1])
    lcs = table[-1][-1]
    if lcs == 0:
        return 0.0
    p, r = lcs / len(b), lcs / len(a)
    return 2 * p * r / (p + r)


def f1_micro(refs, hyps):
    refs, hyps = np.asarray(refs), np.asarray(hyps)
    tp = float(((refs == 1) & (hyps == 1)).sum())
    fp = float(((refs == 0) & (hyps == 1)).sum())
    fn = float(((refs == 1) & (hyps == 0)).sum())
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def _close(a, b, tol=EPS):
    return a is not None and b is not None and abs(a - b) <= tol


# --- mine ------------------------------------------------------------------


def mined_lists(c, chex, rad, top_k=None):
    """Brute-force candidates per train query: agreement >= chex and
    Dice > rad, self excluded, ordered by (-Dice, doc id)."""
    t = c.where("train")
    agree, overlap = agreement(c, t, t), dice(c, t, t)
    keep = (agree >= chex) & (overlap > rad) & ~np.eye(len(t), dtype=bool)
    out = {}
    for i, qi in enumerate(t):
        cand = np.flatnonzero(keep[i])
        order = cand[np.lexsort((c.id_rank[t[cand]], -overlap[i, cand]))]
        out[c.ids[qi]] = [(c.ids[t[j]], overlap[i, j], agree[i, j]) for j in order[:top_k]]
    return out


def check_mine(c, pairs_path, sweep_path, queries, batches):
    """The pair file, the sweep rows, per-query candidates and each bulk
    `mine_pairs` result."""
    errors = []
    cfg = common.MINING
    top_k = cfg["top_k"]
    expect = mined_lists(c, cfg["chexbert_threshold"], cfg["radgraph_threshold"])
    header, pairs = read_pairs(pairs_path)
    if header["config"] != cfg:
        errors.append(f"pair file config {header['config']}, expected {cfg}")
    if sorted(pairs) != sorted(expect):
        errors.append("pair file queries differ from the train split")
    for q, want in expect.items():
        got = pairs.get(q, [])
        if not got or got[0] != (q, 0, 1.0, 1.0):
            errors.append(f"{q}: first pair is not the self pair at rank 0")
            continue
        kept = got[1:]
        if len(kept) > top_k:
            errors.append(f"{q}: {len(kept)} pairs kept, top_k is {top_k}")
        for r, (doc, rank_, rad, chex) in enumerate(kept, start=1):
            j, i = c.pos.get(doc), c.pos[q]
            if j is None or c.split[j] != "train" or j == i:
                errors.append(f"{q}: pair doc {doc} is not another train report")
                continue
            a, s = agreement(c, [i], [j])[0, 0], dice(c, [i], [j])[0, 0]
            if rank_ != r:
                errors.append(f"{q}: pair {doc} has rank {rank_}, expected {r}")
            if a < cfg["chexbert_threshold"] or s <= cfg["radgraph_threshold"]:
                errors.append(f"{q}: pair {doc} below threshold (agreement {a}, Dice {s})")
            if not (_close(rad, s) and _close(chex, a)):
                errors.append(f"{q}: pair {doc} scores {rad}/{chex}, recomputed {s}/{a}")
        keys = [(-c_dice, doc) for doc, _, c_dice, _ in kept]
        if keys != sorted(keys):
            errors.append(f"{q}: pairs not ordered by (-Dice, doc id)")
        if [p[0] for p in kept] != [doc for doc, _, _ in want[:top_k]]:
            errors.append(f"{q}: kept {[p[0] for p in kept]}, brute force "
                          f"{[doc for doc, _, _ in want[:top_k]]}")
    errors += _check_sweep(c, sweep_path)
    for q, got in queries:
        want = [[d, s, a] for d, s, a in expect[q][:top_k]]
        if [p[0] for p in got] != [p[0] for p in want] or not all(
                _close(g[1], w[1]) and _close(g[2], w[2]) for g, w in zip(got, want)):
            errors.append(f"{q}: candidate_pairs gave {got}, brute force {want}")
    file_rows = {q: [list(p) for p in ps] for q, ps in pairs.items()}
    if any(b != file_rows for b in batches):
        errors.append("mine_pairs output differs from the `factmine mine` pair file")
    return errors


def _check_sweep(c, path):
    errors = []
    rows = read_jsonl(path)
    grid = [(x, y) for x in common.SWEEP_CHEXBERT for y in common.SWEEP_RADGRAPH]
    if [(r["chexbert_threshold"], r["radgraph_threshold"]) for r in rows] != grid:
        return [f"sweep rows {len(rows)} do not follow the grid {grid}"]
    n = len(c.where("train"))
    top_k = common.MINING["top_k"]
    by_cell = {}
    for row in rows:
        lists = mined_lists(c, row["chexbert_threshold"], row["radgraph_threshold"])
        counts = np.array([len(v) for v in lists.values()])
        want = {
            "mean_pairs_per_query": counts.sum() / n,
            "zero_pair_fraction": float((counts == 0).sum()) / n,
            "mean_pairs_per_query_truncated": np.minimum(counts, top_k).sum() / n,
        }
        for key, value in want.items():
            if not _close(row[key], value):
                errors.append(f"sweep {row['chexbert_threshold']}/{row['radgraph_threshold']}: "
                              f"{key} {row[key]}, recomputed {value}")
        if row["mean_pairs_per_query_truncated"] > row["mean_pairs_per_query"]:
            errors.append(f"sweep {row}: truncated count above the untruncated one")
        by_cell[(row["chexbert_threshold"], row["radgraph_threshold"])] = row
    for (x, y), row in by_cell.items():
        for (x2, y2), other in by_cell.items():
            if x2 >= x and y2 >= y and other["mean_pairs_per_query"] > row["mean_pairs_per_query"]:
                errors.append(f"sweep count rises from {x}/{y} to {x2}/{y2}")
    return errors


def mine_mrr(c, pairs_path):
    """MRR of the mined lists of the train queries, judged at the eval
    thresholds."""
    _, pairs = read_pairs(pairs_path)
    t = c.where("train")
    ranked = {q: [d for d, r, _, _ in ps if r > 0] for q, ps in pairs.items()}
    return mrr(ranked, relevance_sets(c, t))


# --- train and serve -------------------------------------------------------


def check_served(c, w_q, w_d, queries, singles, batches, where):
    """In-process `search` results over the train index, and `search_batch`
    against them."""
    errors = []
    d = c.where("train")
    q = np.array([c.pos[qid] for qid in queries])
    eq, ed = embed(c, w_q, w_d, q, d)
    scores = eq @ ed.T
    ok = eligible(c, q, d)
    for i, got in enumerate(singles):
        errors += check_ranked(c, [tuple(p) for p in got], scores[i], ok[i], d, common.K,
                               f"{where} query {queries[i]}")
        if len(errors) > 20:
            break
    if batches != singles:
        errors.append(f"{where}: search_batch results differ from per-query search")
    return errors


def served_mrr(c, queries, singles):
    q = np.array(sorted({c.pos[qid] for qid in queries}))
    ranked = {qid: [doc for doc, _ in got] for qid, got in zip(queries, singles)}
    return mrr(ranked, relevance_sets(c, q))


def check_train(c, files, outputs):
    """Training log, retrieve run, eval figures, oracle, RAG prompts and the
    in-process serving of the trained checkpoint; returns (errors, mrr)."""
    errors = []
    cfg = common.TRAIN
    log = read_jsonl(outputs["train.log"])
    stages = ["in_batch"] * cfg["max_epochs"] + ["hard_negative"] * cfg["max_epochs"]
    if [e["stage"] for e in log] != stages:
        errors.append(f"training ran {[e['stage'] for e in log]}, expected {stages}")
    if not all(math.isfinite(e["train_loss"]) for e in log):
        errors.append("a training loss is not finite")

    w_q, w_d = read_checkpoint(files.checkpoint)
    test, train = c.where("test"), c.where("train")
    eq, ed = embed(c, w_q, w_d, test, train)
    scores, ok = eq @ ed.T, eligible(c, test, train)
    run = read_run(outputs["run.tsv"])
    if sorted(run) != sorted(c.ids[i] for i in test):
        errors.append("the run file does not hold every test query")
        return errors, 0.0
    for i, qi in enumerate(test):
        got = run[c.ids[qi]]
        if [r for r, _, _ in got] != list(range(1, len(got) + 1)):
            errors.append(f"run {c.ids[qi]}: ranks are not 1..n")
        errors += check_ranked(c, [(doc, s) for _, doc, s in got], scores[i], ok[i], train,
                               common.K, f"retrieve {c.ids[qi]}")

    rel_sets = relevance_sets(c, test)
    ranked = {q: [doc for _, doc, _ in got] for q, got in run.items()}
    top = [c.pos[run[c.ids[qi]][0][1]] for qi in test]
    want = {
        "f1_chexbert_micro": f1_micro(c.labels[test], c.labels[top]),
        "f1_radgraph_mean": float(np.mean([dice(c, [qi], [d])[0, 0] for qi, d in zip(test, top)])),
        "rouge_l_mean": float(np.mean([rouge_l(c.text[qi], c.text[d]) for qi, d in zip(test, top)])),
        "mrr": mrr(ranked, rel_sets),
        "mrr_dropped_unjudged": mrr({q: v for q, v in ranked.items() if rel_sets[q]}, rel_sets),
    }
    with open(outputs["eval.json"], encoding="utf-8") as fh:
        report = json.load(fh)
    for key, value in want.items():
        if not _close(report.get(key), value):
            errors.append(f"eval {key} {report.get(key)}, recomputed from the run {value}")

    bq, bd = embed(c, *read_checkpoint(files.baseline), test, train)
    bscores = bq @ bd.T
    baseline = mrr({c.ids[qi]: [c.ids[train[j]] for j in rank(c, bscores[i], ok[i], train, common.K)]
                    for i, qi in enumerate(test)}, rel_sets)
    if not report.get("mrr", 0.0) > baseline:
        errors.append(f"trained MRR {report.get('mrr')} does not beat the random-projection "
                      f"baseline {baseline}")

    summed = agreement(c, test, train) + dice(c, test, train)
    oracle = read_run(outputs["oracle.tsv"])
    for i, qi in enumerate(test):
        got = oracle.get(c.ids[qi], [])
        if len(got) != 1 or got[0][1] not in c.pos or c.split[c.pos[got[0][1]]] != "train":
            errors.append(f"oracle {c.ids[qi]}: not one train pick")
            continue
        j = int(np.flatnonzero(train == c.pos[got[0][1]])[0])
        if not _close(got[0][2], summed[i, j]) or summed[i, j] < summed[i].max() - EPS:
            errors.append(f"oracle {c.ids[qi]}: pick scores {summed[i, j]}, best {summed[i].max()}")

    errors += _check_rag(c, w_q, w_d, read_jsonl(outputs["rag.jsonl"]))

    with open(outputs["queries.json"], encoding="utf-8") as fh:
        qids, singles = json.load(fh)
    with open(outputs["batch.json"], encoding="utf-8") as fh:
        _, batches = json.load(fh)
    errors += check_served(c, w_q, w_d, qids, singles, batches, "served")
    for qid, got in zip(qids, singles):
        if [tuple(p) for p in got] != [(doc, s) for _, doc, s in run[qid]]:
            errors.append(f"served {qid}: differs from `factmine retrieve`")
            break
    return errors, report.get("mrr", 0.0)


def _check_rag(c, w_q, w_d, rows):
    """One `rag` example per record; each prompt quotes the text of a
    rank-1 document of a brute-force search with the trained checkpoint."""
    errors = []
    if [r.get("id") for r in rows] != c.ids:
        return ["rag dataset does not hold one example per record in corpus order"]
    allq, train = np.arange(len(c.ids)), c.where("train")
    eq, ed = embed(c, w_q, w_d, allq, train)
    scores, ok = eq @ ed.T, eligible(c, allq, train)
    col = {c.ids[d]: j for j, d in enumerate(train)}
    for i, row in enumerate(rows):
        doc = row.get("retrieved_id")
        if not ok[i].any():
            if doc is not None:
                errors.append(f"rag {c.ids[i]}: retrieved {doc} with no eligible document")
            continue
        if doc not in col:
            errors.append(f"rag {c.ids[i]}: retrieved {doc}, not a train report")
            continue
        errors += check_ranked(c, [(doc, scores[i][col[doc]])], scores[i], ok[i], train, 1,
                               f"rag {c.ids[i]}")
        if f'"{c.text[c.pos[doc]]}"' not in row.get("prompt", ""):
            errors.append(f"rag {c.ids[i]}: prompt does not quote report {doc}")
        if row.get("target") != c.text[i] or row.get("mode") != "rag":
            errors.append(f"rag {c.ids[i]}: target or mode wrong")
    return errors


def check_serve(c, files, outputs):
    """Every single search against brute force, and batch against single;
    returns (errors, mrr)."""
    w_q, w_d = read_checkpoint(files.checkpoint)
    with open(outputs["queries.json"], encoding="utf-8") as fh:
        qids, singles = json.load(fh)
    with open(outputs["batch.json"], encoding="utf-8") as fh:
        _, batches = json.load(fh)
    errors = check_served(c, w_q, w_d, qids, singles, batches, "search")
    return errors, served_mrr(c, qids, singles)
