"""Generate one workload's inputs from a seed.

Run as its own process before the workload is timed:

    python3 bench/gen.py --workload mine --seed 7 --out DIR

It writes `corpus.jsonl` in the factmine corpus format with the
benchmark's own writer. The `train` workload also gets its pair file
(mined with `factmine mine`) and the random-projection baseline
checkpoint; `serve` gets the checkpoint it serves. Those artifacts are
made with factmine itself, so this process imports the package.
"""

import argparse
import json
import os
import sys

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import common  # noqa: E402

# Five observations in label order, each with the anatomy it is found in
# and the qualifiers that may modify it.
OBSERVATIONS = (
    ("cardiomegaly", ("heart", "cardiac silhouette"), ("mild", "moderate", "marked")),
    ("edema", ("lung", "interstitium"), ("mild", "diffuse", "interstitial")),
    ("consolidation", ("lower lobe", "lingula"), ("patchy", "dense", "focal")),
    ("atelectasis", ("lung base", "lower lobe"), ("subsegmental", "plate-like", "minor")),
    ("effusion", ("pleural space", "costophrenic angle"), ("small", "moderate", "layering")),
)
EXTRAS = (
    "opacity", "congestion", "infiltrate", "pneumothorax", "fracture", "carina",
    "hilum", "apex", "granuloma", "calcification", "nodule", "scarring",
    "hyperinflation", "emphysema", "catheter", "pacemaker", "sternotomy", "scoliosis",
    "osteopenia", "hernia",
)

# The workload sizes. `serve` needs an index of at least 10k documents
# for search cost to dominate; `mine` and `train` score train x train
# pairs, so a few hundred reports keep one round to a few seconds.
SIZES = {
    "mine": {"train": 300, "validation": 20, "test": 20},
    "train": {"train": 300, "validation": 40, "test": 100},
    "serve": {"train": 12000, "validation": 0, "test": 200},
}
D_IMG, D_TXT = 32, 24
SHORT_TEXT_SHARE = 0.03  # train reports shorter than min_report_chars
FIT_REPORTS = 300  # train reports the served checkpoint is fitted on


def _surface(rng, text):
    """A raw spelling of `text` that factmine normalises back to it."""
    style = rng.integers(6)
    if style == 1:
        text = text.title()
    elif style == 2:
        text = text.upper()
    elif style == 3:
        text = text.replace(" ", "  ") + "."
    elif style == 4:
        text = " " + text + ","
    return text


def _labels(rng, n):
    """Each label positive on exactly 35% of `n` records, placed at random:
    seeds change which reports agree, not how many pairs do, so the work
    of scoring them changes little from seed to seed."""
    out = np.zeros((n, 5), dtype=int)
    out[: round(0.35 * n)] = 1
    for k in range(5):
        out[:, k] = rng.permutation(out[:, k])
    return out


def _findings(rng, labels, split, item_index):
    """Labels, fact graph, report text and entity bag of one study."""
    labels = [int(v) for v in labels]
    entities, relations, phrases, negated = [], [], [], []
    for k, flag in enumerate(labels):
        obs, anatomies, qualifiers = OBSERVATIONS[k]
        if not flag:
            if rng.random() < 0.3:
                entities.append([_surface(rng, obs), "OBS-DA"])
                negated.append(obs)
            continue
        anat = anatomies[rng.integers(len(anatomies))]
        base = len(entities)
        entities.append([_surface(rng, obs), "OBS-DP"])
        entities.append([_surface(rng, anat), "ANAT-DP"])
        relations.append([base, "located_at", base + 1])
        phrase = f"{obs} in the {anat}"
        if rng.random() < 0.5:
            qual = qualifiers[rng.integers(len(qualifiers))]
            entities.append([_surface(rng, qual), "OBS-U"])
            relations.append([base + 2, "modify", base])
            phrase = f"{qual} {phrase}"
        phrases.append(phrase)
    extra = rng.choice(len(EXTRAS), size=rng.integers(1, 3), replace=False)
    for j in extra:
        entities.append([_surface(rng, EXTRAS[j]), "OBS-DA"])

    bag = np.zeros(len(item_index))
    for text, _ in entities:
        bag[item_index[common.normalize_entity(text)]] += 1.0
    if split == "train" and rng.random() < SHORT_TEXT_SHARE:
        text = "nil."
    else:
        text = ("there is " + " and ".join(phrases) + ".") if phrases else "no acute findings."
        if negated:
            text += " no " + " or ".join(negated) + "."
        text += " note " + " ".join(EXTRAS[j] for j in extra) + "."
    return {"labels": labels, "entities": entities, "relations": relations,
            "report_text": text, "bag": bag}


def write_corpus(path, seed, sizes):
    """Train records first, then validation, then test.

    One train record in ten is a follow-up of its predecessor's patient,
    and one query in five of a random train report's patient. A follow-up
    repeats the earlier study's findings with fresh feature noise, so the
    same-patient report would rank first were it not excluded.
    """
    rng = np.random.default_rng(seed)
    words = sorted({w for obs, anat, qual in OBSERVATIONS for w in (obs, *anat, *qual)}
                   | set(EXTRAS))
    item_index = {w: n for n, w in enumerate(words)}
    proto_img = rng.normal(size=(len(words), D_IMG))
    proto_txt = rng.normal(size=(len(words), D_TXT))
    train = []  # (patient, findings) of each train record
    with open(path, "w", encoding="utf-8") as fh:
        header = {"schema_version": "1", "d_img": D_IMG, "d_txt": D_TXT}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        i = 0
        for split in ("train", "validation", "test"):
            for labels in _labels(rng, sizes[split]):
                if split == "train":
                    earlier = train[-1] if train and rng.random() < 0.1 else None
                else:
                    earlier = train[rng.integers(len(train))] if rng.random() < 0.2 else None
                if earlier:
                    patient, findings = earlier
                else:
                    patient, findings = f"p{i:06d}", _findings(rng, labels, split, item_index)
                if split == "train":
                    train.append((patient, findings))
                rec = {k: v for k, v in findings.items() if k != "bag"}
                rec.update(
                    report_id=f"s{i:06d}",
                    patient_id=patient,
                    split=split,
                    image_features=(findings["bag"] @ proto_img
                                    + 1.0 * rng.normal(size=D_IMG)).tolist(),
                    text_features=(findings["bag"] @ proto_txt
                                   + 0.25 * rng.normal(size=D_TXT)).tolist(),
                )
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
                i += 1


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    files = common.Inputs(args.out)
    write_corpus(files.corpus, args.seed, SIZES[args.workload])

    from factmine import cli, encoder

    common.require_checkout_package()
    if args.workload == "train":
        code = cli.main(["mine", "--corpus", files.corpus, "--pairs", files.pairs,
                         *common.MINE_FLAGS])
        if code != 0:
            raise SystemExit(f"factmine mine exited {code}")
        cfg = common.TRAIN
        baseline = encoder.init_params(args.seed, D_IMG, D_TXT, cfg["embedding_dim"],
                                       cfg["temperature"])
        encoder.save_params(baseline, files.baseline, seed=args.seed)
    elif args.workload == "serve":
        fit_checkpoint(files, args.seed)
    return 0


def fit_checkpoint(files, seed):
    """Train the served checkpoint for one epoch on the first train reports.

    Search cost does not depend on the weights, but trained ones give the
    served rankings an MRR that varies little from seed to seed, where a
    random projection's swings by a fifth.
    """
    from factmine import cli

    fit, pairs = files.path("fit.jsonl"), files.path("fit_pairs.tsv")
    with open(files.corpus, encoding="utf-8") as src, open(fit, "w", encoding="utf-8") as dst:
        for _ in range(1 + FIT_REPORTS):
            dst.write(src.readline())
    cfg = common.TRAIN
    for argv in (
        ["mine", "--corpus", fit, "--pairs", pairs, *common.MINE_FLAGS],
        ["train", "--corpus", fit, "--pairs", pairs, "--checkpoint", files.checkpoint,
         "--seed", str(seed), "--embedding-dim", str(common.SERVE_EMBEDDING_DIM),
         "--max-epochs", "1", "--early-stop-patience", "1",
         "--learning-rate", str(cfg["learning_rate"]), "--temperature", str(cfg["temperature"])],
    ):
        if cli.main(argv) != 0:
            raise SystemExit(f"factmine {argv[0]} exited non-zero")


if __name__ == "__main__":
    sys.exit(main())
