"""Command-line pipeline driver with reproducible configs and provenance."""

import argparse
import hashlib
import sys
from dataclasses import fields

import numpy as np

from . import __version__, artifacts
from .corpus import load_corpus
from .encoder import TrainConfig, encode_queries, load_params, save_params, train, write_training_log
from .errors import (
    CheckpointMismatch,
    DimensionMismatch,
    FactmineError,
    InvalidConfig,
    MalformedArtifact,
    MissingResult,
)
from .evaluator import (
    MRR_THRESHOLDS,
    RetrievalRun,
    _first_relevant_ranks,
    _mean_reciprocal_rank,
    _oracle_run,
    eval_retrieval,
    read_run,
    write_run,
)
from .index import ExclusionPolicy, build_index, load_index, save_index, search_batch
from .metrics import chexbert_instance, factual_similarity, rouge_l
from .mining import MiningConfig, mine_pairs, read_pairs, threshold_sweep, write_pairs
from .ragdata import build_rag_dataset, write_rag_dataset


def _option_value(key, text):
    return text if key in _TEXT_OPTIONS else _parse_scalar(text)


def read_config_file(path):
    """Flat key = value config, '#' comments, JSON-style scalars; text options stay text."""
    config = {}
    for _, text in artifacts.read_lines(path):
        line = text.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        config[key] = _option_value(key, value.strip())
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
    """File values under flag values under defaults; flags win.

    Raises InvalidConfig for a config-file key that is not one of the
    command's options, and for required options given neither way.
    """
    config = dict(defaults)
    if getattr(args, "config", None):
        from_file = read_config_file(args.config)
        unknown = sorted(set(from_file) - set(defaults))
        if unknown:
            raise InvalidConfig(f"{args.config}: unknown config keys {unknown}")
        config.update(from_file)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            # argparse hands every flag over as a string
            config[key] = _option_value(key, value) if isinstance(value, str) else value
    missing = ["--" + key.replace("_", "-") for key, value in config.items() if value is _REQUIRED]
    if missing:
        raise InvalidConfig(f"missing required options {', '.join(missing)}")
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
        "config_sha256": hashlib.sha256(artifacts.to_json(config).encode()).hexdigest(),
        "inputs": {p: _sha256(p) for p in inputs},
    }
    artifacts.write_lines(artifact_path + ".prov", [artifacts.to_json(sidecar, indent=2)])


def _defaults(cls):
    return {f.name: f.default for f in fields(cls)}


def _cast(config, name, kind):
    """config[name] as kind: a bool only from true/false, an int only from an integral number."""
    value = config[name]
    if kind is bool:
        if isinstance(value, bool):
            return value
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        if kind is float:
            return float(value)
        if float(value).is_integer():
            return int(value)
    raise InvalidConfig(f"{name} must be {kind.__name__}, got {value!r}")


def _build(cls, config):
    """cls from the config entries named after its fields, each cast to its default's type."""
    return cls(**{f.name: _cast(config, f.name, type(f.default)) for f in fields(cls)})


def cmd_mine(config):
    mining_config = _build(MiningConfig, config)
    corpus = load_corpus(config["corpus"])
    pair_set = mine_pairs(corpus, mining_config)
    write_pairs(pair_set, config["pairs"])
    write_provenance(config["pairs"], "mine", config, [config["corpus"]])
    return 0


def cmd_sweep(config):
    base = {**_defaults(MiningConfig), **config}  # the sweep sets no include_self
    grid = [
        _build(MiningConfig, {**base, "chexbert_threshold": c, "radgraph_threshold": r})
        for c in map(_parse_scalar, config["chexbert_grid"].split(","))
        for r in map(_parse_scalar, config["radgraph_grid"].split(","))
    ]
    corpus = load_corpus(config["corpus"])
    rows = threshold_sweep(corpus, grid)
    artifacts.write_lines(config["output"], map(artifacts.to_json, rows))
    write_provenance(config["output"], "sweep", config, [config["corpus"]])
    return 0


def cmd_train(config):
    train_config = _build(TrainConfig, config)
    corpus = load_corpus(config["corpus"])
    pairs = read_pairs(config["pairs"])
    params, log = train(corpus, pairs, train_config)
    save_params(params, config["checkpoint"], seed=train_config.seed)
    write_provenance(
        config["checkpoint"], "train", config, [config["corpus"], config["pairs"]]
    )
    if config["log"]:
        write_training_log(log, config["log"])
    return 0


def cmd_index(config):
    corpus = load_corpus(config["corpus"])
    params = load_params(config["checkpoint"])
    index = build_index(corpus, params, "train")
    index.checkpoint_sha256 = _sha256(config["checkpoint"])
    save_index(index, config["index"])
    write_provenance(config["index"], "index", config, [config["corpus"], config["checkpoint"]])
    return 0


def cmd_retrieve(config):
    policy = _build(ExclusionPolicy, config)
    k = _cast(config, "k", int)
    if k < 1:  # search_batch checks k only for a non-empty split
        raise InvalidConfig("k must be >= 1")
    corpus = load_corpus(config["corpus"])
    params = load_params(config["checkpoint"])
    index = load_index(config["index"])
    if index.matrix.shape[1] != params.embedding_dim:
        raise DimensionMismatch(
            f"checkpoint embedding_dim {params.embedding_dim} != "
            f"index embedding_dim {index.matrix.shape[1]}"
        )
    checkpoint_sha256 = _sha256(config["checkpoint"])
    if index.checkpoint_sha256 != checkpoint_sha256:
        raise CheckpointMismatch(
            f"{config['index']} was built from checkpoint sha256 {index.checkpoint_sha256}, "
            f"but {config['checkpoint']} has sha256 {checkpoint_sha256}"
        )
    queries = corpus.split(config["query_split"])
    ranked = search_batch(
        index,
        encode_queries(params, corpus.inputs[corpus.rows(config["query_split"]), : corpus.d_img]),
        k,
        policy,
        [(rec.report_id, rec.patient_id) for rec in queries],
    )
    run = RetrievalRun(
        {rec.report_id: hits for rec, hits in zip(queries, ranked)},
        provenance={
            "checkpoint": config["checkpoint"],
            "policy": {f.name: config[f.name] for f in fields(ExclusionPolicy)},
            "k": k,
        },
    )
    write_run(run, config["run"])
    write_provenance(
        config["run"], "retrieve", config,
        [config["corpus"], config["checkpoint"], config["index"]],
    )
    return 0


def cmd_eval(config):
    corpus = load_corpus(config["corpus"])
    run = read_run(config["run"])
    queries = corpus.split(config["query_split"])
    split_ids = {rec.report_id for rec in queries}
    train_ids = {rec.report_id for rec in corpus.split("train")}
    for query_id, ranked in run.results.items():
        if query_id not in split_ids:
            raise MalformedArtifact(
                config["run"], f"query {query_id!r} is not in the {config['query_split']} split"
            )
        # Relevance is judged over train documents only.
        for doc_id, _ in ranked:
            if doc_id not in train_ids:
                raise MalformedArtifact(
                    config["run"], f"query {query_id!r} ranks {doc_id!r}, not a train record"
                )
    for rec in queries:
        if rec.report_id not in run.results or not run.results[rec.report_id]:
            raise MissingResult(rec.report_id)
    score = eval_retrieval(run, corpus)
    # `mrr` under judge_relevance's judgments, from one rank a query.
    firsts = _first_relevant_ranks(corpus, run, queries, *MRR_THRESHOLDS)
    doc = {
        "f1_chexbert_micro": score.f1_chexbert_micro,
        "f1_radgraph_mean": score.f1_radgraph_mean,
        "rouge_l_mean": score.rouge_l_mean,
        "mrr": _mean_reciprocal_rank(firsts, drop_unjudged=False),
        "mrr_dropped_unjudged": _mean_reciprocal_rank(firsts, drop_unjudged=True),
        "config": config,
        "provenance": run.provenance,
    }
    artifacts.write_lines(config["output"], [artifacts.to_json(doc, indent=2)])
    write_provenance(config["output"], "eval", config, [config["corpus"], config["run"]])
    return 0


def cmd_oracle(config):
    corpus = load_corpus(config["corpus"])
    results = _oracle_run(corpus, corpus.split(config["query_split"]))
    run = RetrievalRun(results, provenance={"oracle": True, "query_split": config["query_split"]})
    write_run(run, config["run"])
    write_provenance(config["run"], "oracle", config, [config["corpus"]])
    return 0


def cmd_build_rag(config):
    if config["mode"] == "rag" and config["checkpoint"] is None:
        raise InvalidConfig("missing required option --checkpoint for --mode rag")
    policy = _build(ExclusionPolicy, config)
    corpus = load_corpus(config["corpus"])
    params = load_params(config["checkpoint"]) if config["mode"] == "rag" else None
    examples, warnings = build_rag_dataset(corpus, params, policy, config["mode"])
    write_rag_dataset(examples, config["output"])
    inputs = [config["corpus"]]
    if config["mode"] == "rag":
        inputs.append(config["checkpoint"])
    write_provenance(config["output"], "build-rag", config, inputs)
    if warnings:
        print(f"warning: {warnings} queries had no eligible candidates", file=sys.stderr)
    return 0


def cmd_score(config):
    corpus = load_corpus(config["corpus"])
    a, b = corpus[config["a"]], corpus[config["b"]]
    doc = {
        "factual_similarity": factual_similarity(a.graph, b.graph),
        "chexbert_instance": chexbert_instance(a.labels, b.labels),
        "rouge_l": rouge_l(a.report_text, b.report_text),
    }
    print(artifacts.to_json(doc))
    return 0


# Marks an option that has no default and must be given.
_REQUIRED = object()


def _required(*options):
    return dict.fromkeys(options, _REQUIRED)


# Each command's handler and its options with their defaults; every option
# is also a flag, and None marks an optional one without a default.
_COMMANDS = {
    "mine": (cmd_mine, {**_required("corpus", "pairs"), **_defaults(MiningConfig)}),
    "sweep": (
        cmd_sweep,
        {
            **_required("corpus", "output"),
            "chexbert_grid": "0,0.4,0.8,1.0",
            "radgraph_grid": "0,0.2,0.4,0.6,0.8",
            "top_k": MiningConfig.top_k,
        },
    ),
    "train": (
        cmd_train,
        {
            **_required("corpus", "pairs", "checkpoint"),
            "log": None,
            **_defaults(TrainConfig),
            "seed": _REQUIRED,
        },
    ),
    "index": (cmd_index, _required("corpus", "checkpoint", "index")),
    "retrieve": (
        cmd_retrieve,
        {
            **_required("corpus", "checkpoint", "index", "run"),
            "query_split": "test",
            "k": 10,
            **_defaults(ExclusionPolicy),
        },
    ),
    "eval": (cmd_eval, {**_required("corpus", "run", "output"), "query_split": "test"}),
    "oracle": (cmd_oracle, {**_required("corpus", "run"), "query_split": "test"}),
    "build-rag": (
        cmd_build_rag,
        {
            **_required("corpus", "output"),
            "checkpoint": None,  # needed by --mode rag only
            "mode": "rag",
            **_defaults(ExclusionPolicy),
        },
    ),
    "score": (cmd_score, _required("corpus", "a", "b")),
}

# Options whose default is text or absent name files, report ids, splits,
# modes or comma lists, and their values stay text: `--pairs 1` names a
# file and `--a 00012` an id. The train seed has no default but is a number.
_TEXT_OPTIONS = frozenset(
    option
    for _, defaults in _COMMANDS.values()
    for option, default in defaults.items()
    if default is None or default is _REQUIRED or isinstance(default, str)
) - {"seed"}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="factmine")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, defaults) in _COMMANDS.items():
        command = sub.add_parser(name)
        command.add_argument("--config")
        for option in defaults:
            command.add_argument("--" + option.replace("_", "-"), dest=option)
    args, unknown = parser.parse_known_args(argv)
    handler, defaults = _COMMANDS[args.command]
    try:
        if unknown:  # as resolve_config treats an unknown config-file key
            raise InvalidConfig(f"unknown arguments {unknown}")
        # Overflow and invalid values surface as NonFiniteLoss or
        # DegenerateEmbedding; numpy's warnings would only precede that
        # JSON line on stderr.
        with np.errstate(all="ignore"):
            return handler(resolve_config(args, defaults))
    except (FactmineError, OSError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(artifacts.to_json(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
