"""Command-line pipeline driver with reproducible configs and provenance."""

import argparse
import hashlib
import json
import os
import sys

from . import __version__
from .corpus import load_corpus
from .encoder import TrainConfig, load_params, save_params, train, write_training_log
from .errors import DimensionMismatch, FactmineError, MissingResult
from .evaluator import (
    RetrievalRun,
    eval_retrieval,
    judge_relevance,
    mrr,
    oracle_retrieve,
    read_run,
    write_report,
    write_run,
)
from .index import ExclusionPolicy, build_index, load_index, save_index, search
from .metrics import chexbert_instance, factual_similarity, rouge_l
from .mining import MiningConfig, mine_pairs, read_pairs, threshold_sweep, write_pairs
from .ragdata import build_rag_dataset, write_rag_dataset
from .encoder import encode_query


def read_config_file(path):
    """Flat key = value config, '#' comments, JSON-style scalars."""
    config = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            config[key.strip()] = _parse_scalar(value.strip())
    return config


def _parse_scalar(text):
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def resolve_config(args, defaults):
    """File values under flag values under defaults; flags win."""
    config = dict(defaults)
    if getattr(args, "config", None):
        config.update(read_config_file(args.config))
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            # argparse hands every flag over as a string
            config[key] = _parse_scalar(value) if isinstance(value, str) else value
    return config


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_provenance(artifact_path, command, config, inputs):
    sidecar = {
        "command": command,
        "version": __version__,
        "config": config,
        "config_sha256": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()
        ).hexdigest(),
        "inputs": {p: _sha256(p) for p in inputs},
        "threads": worker_count(),
    }
    with open(artifact_path + ".prov", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=2)
        fh.write("\n")


def worker_count():
    """Worker cap from FACTMINE_THREADS; execution is currently serial."""
    try:
        return max(1, int(os.environ.get("FACTMINE_THREADS", "1")))
    except ValueError:
        return 1


def _mining_config(config):
    return MiningConfig(
        chexbert_threshold=float(config["chexbert_threshold"]),
        radgraph_threshold=float(config["radgraph_threshold"]),
        top_k=int(config["top_k"]),
        include_self=bool(config["include_self"]),
    )


def _policy(config):
    return ExclusionPolicy(
        exclude_self=bool(config["exclude_self"]),
        exclude_same_patient=bool(config["exclude_same_patient"]),
        min_report_chars=int(config["min_report_chars"]),
    )


MINING_DEFAULTS = {
    "chexbert_threshold": 1.0,
    "radgraph_threshold": 0.0,
    "top_k": 2,
    "include_self": True,
}

POLICY_DEFAULTS = {
    "exclude_self": True,
    "exclude_same_patient": True,
    "min_report_chars": 5,
}


def cmd_mine(args):
    config = resolve_config(args, {"corpus": None, "pairs": None, **MINING_DEFAULTS})
    corpus = load_corpus(config["corpus"])
    pair_set = mine_pairs(corpus, _mining_config(config))
    write_pairs(pair_set, config["pairs"])
    write_provenance(config["pairs"], "mine", config, [config["corpus"]])
    return 0


def cmd_sweep(args):
    defaults = {
        "corpus": None,
        "output": None,
        "chexbert_grid": "0,0.4,0.8,1.0",
        "radgraph_grid": "0,0.2,0.4,0.6,0.8",
        "top_k": 2,
        "include_self": True,
    }
    config = resolve_config(args, defaults)
    corpus = load_corpus(config["corpus"])
    grid = [
        MiningConfig(
            chexbert_threshold=float(c),
            radgraph_threshold=float(r),
            top_k=int(config["top_k"]),
            include_self=bool(config["include_self"]),
        )
        for c in str(config["chexbert_grid"]).split(",")
        for r in str(config["radgraph_grid"]).split(",")
    ]
    rows = threshold_sweep(corpus, grid)
    with open(config["output"], "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    write_provenance(config["output"], "sweep", config, [config["corpus"]])
    return 0


def cmd_train(args):
    defaults = {
        "corpus": None,
        "pairs": None,
        "checkpoint": None,
        "log": None,
        "learning_rate": 5e-6,
        "batch_size": 32,
        "max_epochs": 15,
        "early_stop_patience": 5,
        "seed": None,
        "hard_negative_k": 0,
        "weight_decay": 0.0,
        "embedding_dim": 256,
        "temperature": 0.01,
        "val_chexbert_threshold": 0.6,
        "val_radgraph_threshold": 0.1,
    }
    config = resolve_config(args, defaults)
    if config["seed"] is None:
        raise FactmineError("--seed is mandatory for train")
    corpus = load_corpus(config["corpus"])
    pairs = read_pairs(config["pairs"])
    train_config = TrainConfig(
        learning_rate=float(config["learning_rate"]),
        batch_size=int(config["batch_size"]),
        max_epochs=int(config["max_epochs"]),
        early_stop_patience=int(config["early_stop_patience"]),
        seed=int(config["seed"]),
        hard_negative_k=int(config["hard_negative_k"]),
        weight_decay=float(config["weight_decay"]),
        val_chexbert_threshold=float(config["val_chexbert_threshold"]),
        val_radgraph_threshold=float(config["val_radgraph_threshold"]),
    )
    params, log = train(
        corpus,
        pairs,
        train_config,
        embedding_dim=int(config["embedding_dim"]),
        temperature=float(config["temperature"]),
    )
    save_params(params, config["checkpoint"], seed=train_config.seed)
    write_provenance(
        config["checkpoint"], "train", config, [config["corpus"], config["pairs"]]
    )
    if config["log"]:
        write_training_log(log, config["log"])
    return 0


def cmd_index(args):
    config = resolve_config(args, {"corpus": None, "checkpoint": None, "index": None, "split": "train"})
    corpus = load_corpus(config["corpus"])
    params = load_params(config["checkpoint"])
    index = build_index(corpus, params, config["split"])
    save_index(index, config["index"])
    write_provenance(config["index"], "index", config, [config["corpus"], config["checkpoint"]])
    return 0


def cmd_retrieve(args):
    defaults = {
        "corpus": None,
        "checkpoint": None,
        "index": None,
        "run": None,
        "query_split": "test",
        "k": 10,
        **POLICY_DEFAULTS,
    }
    config = resolve_config(args, defaults)
    corpus = load_corpus(config["corpus"])
    params = load_params(config["checkpoint"])
    index = load_index(config["index"])
    if index.matrix.shape[1] != params.embedding_dim:
        raise DimensionMismatch(
            f"checkpoint embedding_dim {params.embedding_dim} != "
            f"index embedding_dim {index.matrix.shape[1]}"
        )
    policy = _policy(config)
    results = {}
    for rec in corpus.split(config["query_split"]):
        q = encode_query(params, rec.image_features)
        results[rec.report_id] = search(
            index, q, int(config["k"]), policy, (rec.report_id, rec.patient_id)
        )
    run = RetrievalRun(
        results,
        provenance={
            "checkpoint": config["checkpoint"],
            "policy": {k: config[k] for k in POLICY_DEFAULTS},
            "k": int(config["k"]),
        },
    )
    write_run(run, config["run"])
    write_provenance(
        config["run"], "retrieve", config,
        [config["corpus"], config["checkpoint"], config["index"]],
    )
    return 0


def cmd_eval(args):
    defaults = {
        "corpus": None,
        "run": None,
        "output": None,
        "query_split": "test",
        "eval_chexbert_threshold": 0.6,
        "eval_radgraph_threshold": 0.1,
    }
    config = resolve_config(args, defaults)
    corpus = load_corpus(config["corpus"])
    run = read_run(config["run"])
    for rec in corpus.split(config["query_split"]):
        if rec.report_id not in run.results or not run.results[rec.report_id]:
            raise MissingResult(rec.report_id)
    score = eval_retrieval(run, corpus)
    judgments = judge_relevance(
        corpus,
        float(config["eval_chexbert_threshold"]),
        float(config["eval_radgraph_threshold"]),
        query_split=config["query_split"],
    )
    doc = {
        "f1_chexbert_micro": score.f1_chexbert_micro,
        "f1_radgraph_mean": score.f1_radgraph_mean,
        "rouge_l_mean": score.rouge_l_mean,
        "mrr": mrr(run, judgments),
        "mrr_dropped_unjudged": mrr(run, judgments, drop_unjudged=True),
        "config": config,
        "provenance": run.provenance,
    }
    with open(config["output"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    write_provenance(config["output"], "eval", config, [config["corpus"], config["run"]])
    return 0


def cmd_oracle(args):
    config = resolve_config(args, {"corpus": None, "run": None, "query_split": "test"})
    corpus = load_corpus(config["corpus"])
    results = {}
    for rec in corpus.split(config["query_split"]):
        doc_id = oracle_retrieve(corpus, rec.report_id)
        doc = corpus[doc_id]
        score = chexbert_instance(rec.labels, doc.labels) + factual_similarity(
            rec.graph, doc.graph
        )
        results[rec.report_id] = [(doc_id, score)]
    run = RetrievalRun(results, provenance={"oracle": True, "query_split": config["query_split"]})
    write_run(run, config["run"])
    write_provenance(config["run"], "oracle", config, [config["corpus"]])
    return 0


def cmd_build_rag(args):
    defaults = {
        "corpus": None,
        "checkpoint": None,
        "output": None,
        "mode": "rag",
        **POLICY_DEFAULTS,
    }
    config = resolve_config(args, defaults)
    corpus = load_corpus(config["corpus"])
    params = load_params(config["checkpoint"]) if config["mode"] == "rag" else None
    examples, warnings = build_rag_dataset(corpus, params, _policy(config), config["mode"])
    write_rag_dataset(examples, config["output"])
    inputs = [config["corpus"]]
    if config["mode"] == "rag":
        inputs.append(config["checkpoint"])
    write_provenance(config["output"], "build-rag", config, inputs)
    if warnings:
        print(f"warning: {warnings} queries had no eligible candidates", file=sys.stderr)
    return 0


def cmd_score(args):
    config = resolve_config(args, {"corpus": None, "a": None, "b": None})
    corpus = load_corpus(config["corpus"])
    a, b = corpus[config["a"]], corpus[config["b"]]
    doc = {
        "factual_similarity": factual_similarity(a.graph, b.graph),
        "chexbert_instance": chexbert_instance(a.labels, b.labels),
        "rouge_l": rouge_l(a.report_text, b.report_text),
    }
    print(json.dumps(doc, sort_keys=True))
    return 0


def _add_options(parser, names):
    parser.add_argument("--config")
    for name in names:
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, dest=name)


_COMMANDS = {
    "mine": (cmd_mine, ["corpus", "pairs", *MINING_DEFAULTS]),
    "sweep": (cmd_sweep, ["corpus", "output", "chexbert_grid", "radgraph_grid", "top_k", "include_self"]),
    "train": (
        cmd_train,
        [
            "corpus", "pairs", "checkpoint", "log", "learning_rate", "batch_size",
            "max_epochs", "early_stop_patience", "seed", "hard_negative_k",
            "weight_decay", "embedding_dim", "temperature",
            "val_chexbert_threshold", "val_radgraph_threshold",
        ],
    ),
    "index": (cmd_index, ["corpus", "checkpoint", "index", "split"]),
    "retrieve": (
        cmd_retrieve,
        ["corpus", "checkpoint", "index", "run", "query_split", "k", *POLICY_DEFAULTS],
    ),
    "eval": (
        cmd_eval,
        ["corpus", "run", "output", "query_split", "eval_chexbert_threshold", "eval_radgraph_threshold"],
    ),
    "oracle": (cmd_oracle, ["corpus", "run", "query_split"]),
    "build-rag": (cmd_build_rag, ["corpus", "checkpoint", "output", "mode", *POLICY_DEFAULTS]),
    "score": (cmd_score, ["corpus", "a", "b"]),
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="factmine")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in _COMMANDS.items():
        _add_options(sub.add_parser(name), options)
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command][0]
    try:
        return handler(args)
    except FactmineError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
