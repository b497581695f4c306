import json

import pytest

from factmine.cli import main, read_config_file
from factmine.corpus import Corpus, load_corpus, synth_corpus, write_corpus
from factmine.encoder import EncoderParams, load_params, save_params
from factmine.evaluator import oracle_retrieve, read_run


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_corpus(synth_corpus(7, 60), tmp_path / "corpus.jsonl")
    return tmp_path


def run_pipeline(seed="7"):
    """mine -> train -> index -> retrieve -> eval with small settings."""
    steps = [
        ["mine", "--corpus", "corpus.jsonl", "--pairs", "pairs.tsv",
         "--chexbert-threshold", "0.6", "--radgraph-threshold", "0.1"],
        ["train", "--corpus", "corpus.jsonl", "--pairs", "pairs.tsv",
         "--checkpoint", "enc.ckpt", "--log", "train.log", "--seed", seed,
         "--learning-rate", "0.05", "--max-epochs", "2", "--embedding-dim", "16"],
        ["index", "--corpus", "corpus.jsonl", "--checkpoint", "enc.ckpt",
         "--index", "docs.idx"],
        ["retrieve", "--corpus", "corpus.jsonl", "--checkpoint", "enc.ckpt",
         "--index", "docs.idx", "--run", "run.tsv", "--k", "5",
         "--min-report-chars", "0"],
        ["eval", "--corpus", "corpus.jsonl", "--run", "run.tsv",
         "--output", "eval.json"],
    ]
    for argv in steps:
        assert main(argv) == 0, argv[0]


def test_full_pipeline_and_artifacts(workdir):
    run_pipeline()
    report = json.loads((workdir / "eval.json").read_text())
    assert 0.0 <= report["f1_chexbert_micro"] <= 1.0
    assert 0.0 <= report["mrr"] <= 1.0
    for artifact in ("pairs.tsv", "enc.ckpt", "docs.idx", "run.tsv", "eval.json"):
        sidecar = json.loads((workdir / (artifact + ".prov")).read_text())
        assert {"command", "config", "config_sha256", "inputs", "version"} <= set(sidecar)
        for path, digest in sidecar["inputs"].items():
            assert len(digest) == 64


def test_end_to_end_determinism(tmp_path, monkeypatch):
    outputs = {}
    for name in ("one", "two"):
        d = tmp_path / name
        d.mkdir()
        monkeypatch.chdir(d)
        write_corpus(synth_corpus(7, 60), d / "corpus.jsonl")
        run_pipeline()
        outputs[name] = {
            f: (d / f).read_bytes()
            for f in ("pairs.tsv", "enc.ckpt", "run.tsv", "eval.json")
        }
    assert outputs["one"] == outputs["two"]


def test_sweep_grid_row_count(workdir):
    assert main([
        "sweep", "--corpus", "corpus.jsonl", "--output", "sweep.jsonl",
        "--chexbert-grid", "0,0.4,0.8,1.0", "--radgraph-grid", "0.1,0.3,0.5",
    ]) == 0
    rows = [json.loads(l) for l in (workdir / "sweep.jsonl").read_text().splitlines()]
    assert len(rows) == 4 * 3


def test_eval_missing_query_is_mapped_error(workdir, capsys):
    run_pipeline()
    lines = (workdir / "run.tsv").read_text().splitlines()
    (workdir / "short.tsv").write_text("\n".join(lines[:-6]) + "\n")
    code = main(["eval", "--corpus", "corpus.jsonl", "--run", "short.tsv",
                 "--output", "eval2.json"])
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "MissingResult"


def test_train_requires_seed(workdir, capsys):
    assert main(["mine", "--corpus", "corpus.jsonl", "--pairs", "pairs.tsv"]) == 0
    code = main(["train", "--corpus", "corpus.jsonl", "--pairs", "pairs.tsv",
                 "--checkpoint", "enc.ckpt"])
    assert code == 1
    assert "seed" in capsys.readouterr().err


def test_oracle_and_build_rag(workdir):
    run_pipeline()
    assert main(["oracle", "--corpus", "corpus.jsonl", "--run", "oracle.tsv"]) == 0
    assert main([
        "build-rag", "--corpus", "corpus.jsonl", "--checkpoint", "enc.ckpt",
        "--output", "rag.jsonl", "--mode", "rag", "--min-report-chars", "0",
    ]) == 0
    examples = [json.loads(l) for l in (workdir / "rag.jsonl").read_text().splitlines()]
    assert len(examples) == 60
    assert all(ex["mode"] == "rag" for ex in examples)


@pytest.mark.parametrize("query_split", ["test", "train"])
def test_oracle_command_equals_per_query_oracle_retrieve(workdir, query_split):
    argv = ["oracle", "--corpus", "corpus.jsonl", "--run", "oracle.tsv"]
    assert main(argv + ["--query-split", query_split]) == 0
    corpus = load_corpus(workdir / "corpus.jsonl")
    assert read_run(workdir / "oracle.tsv").results == {
        rec.report_id: [oracle_retrieve(corpus, rec.report_id)]
        for rec in corpus.split(query_split)
    }


def test_score_subcommand(workdir, capsys):
    assert main(["score", "--corpus", "corpus.jsonl", "--a", "s00000", "--b", "s00001"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"factual_similarity", "chexbert_instance", "rouge_l"}


def test_config_file_with_flag_override(workdir):
    (workdir / "mine.cfg").write_text(
        "# mining settings\n"
        "corpus = corpus.jsonl\n"
        "pairs = pairs.tsv\n"
        "chexbert_threshold = 0.6\n"
        "include_self = false\n"
    )
    assert main(["mine", "--config", "mine.cfg", "--chexbert-threshold", "1.0"]) == 0
    header = json.loads((workdir / "pairs.tsv").read_text().splitlines()[0])
    assert header["config"]["chexbert_threshold"] == 1.0
    assert header["config"]["include_self"] is False
    config = read_config_file(workdir / "mine.cfg")
    assert config["chexbert_threshold"] == 0.6


def assert_mapped_error(code, capsys, error):
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    record = json.loads(err.strip())
    assert record["error"] == error
    return record


def test_unknown_config_file_key_is_mapped_error(workdir, capsys):
    (workdir / "mine.cfg").write_text(
        "corpus = corpus.jsonl\npairs = pairs.tsv\nextra_key = 7\n"
    )
    record = assert_mapped_error(main(["mine", "--config", "mine.cfg"]), capsys, "InvalidConfig")
    assert "extra_key" in record["message"]
    assert not (workdir / "pairs.tsv").exists()


@pytest.mark.parametrize("artifact, line_no, text", [
    ("run.tsv", 2, "garbage line"),
    ("run.tsv", 3, "s00001\tfirst\ts00002\t0.5"),
    ("run.tsv", 3, "s00001\t1\ts00002\thigh"),
    ("run.tsv", 1, "not json"),
    ("pairs.tsv", 2, "s00001\ts00002\t1\t0.5"),
    ("pairs.tsv", 2, "s00001\ts00002\tone\t0.5\t1.0"),
    ("pairs.tsv", 3, "s00001\ts00002\t1\t0.5\tall"),
    ("pairs.tsv", 1, "not json"),
    ("run.tsv", 2, "s00001\t-3\ts00002\tnan"),
    ("run.tsv", 2, "s00001\t0\ts00002\t0.5"),
    ("run.tsv", 2, "s00001\t2\ts00002\t0.5"),
    ("run.tsv", 2, "s00001\t1\ts00002\tnan"),
    ("run.tsv", 2, "s00001\t1\ts00002\t-inf"),
    ("pairs.tsv", 2, "s00001\ts00002\t-7\tnan\tinf"),
    ("pairs.tsv", 2, "s00001\ts00002\t-1\t0.5\t0.5"),
    ("pairs.tsv", 3, "s00001\ts00002\t1\tnan\t0.5"),
    ("pairs.tsv", 3, "s00001\ts00002\t1\t0.5\tinf"),
    ("pairs.tsv", 3, "s00001\ts00002\t1\t1.5\t0.5"),
    ("pairs.tsv", 3, "s00001\ts00002\t1\t0.5\t-0.2"),
], ids=["run-field-count", "run-rank", "run-score", "run-header", "pairs-field-count",
        "pairs-rank", "pairs-score", "pairs-header", "run-negative-rank-nan-score",
        "run-rank-zero", "run-rank-not-position", "run-score-nan", "run-score-inf",
        "pairs-negative-rank-nan-inf-scores", "pairs-rank-negative", "pairs-score-nan",
        "pairs-score-inf", "pairs-score-above-one", "pairs-score-negative"])
def test_malformed_pair_or_run_line_is_mapped_error(workdir, capsys, artifact, line_no, text):
    run_pipeline()
    lines = (workdir / artifact).read_text().splitlines()
    lines[line_no - 1] = text
    bad = "bad_" + artifact
    (workdir / bad).write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    if artifact == "run.tsv":
        argv = ["eval", "--corpus", "corpus.jsonl", "--run", bad, "--output", "bad.json"]
    else:
        argv = ["train", "--corpus", "corpus.jsonl", "--pairs", bad, "--checkpoint", "bad.ckpt",
                "--seed", "7"]
    record = assert_mapped_error(main(argv), capsys, "MalformedArtifact")
    assert record["message"].startswith(f"{bad}: line {line_no}: ")


@pytest.mark.parametrize("artifact, line", [
    ("run.tsv", b"s00001\t1\ts\xff\t0.5\n"),
    ("pairs.tsv", b"s00001\ts\xff\t1\t0.5\t0.5\n"),
])
def test_non_utf8_line_is_mapped_error(workdir, capsys, artifact, line):
    run_pipeline()
    header, *lines = (workdir / artifact).read_bytes().splitlines(keepends=True)
    # past the first 8 KiB, which a text-mode reader decodes with the header;
    # each copy renames its queries, so run ranks stay in order
    copies = range(1 + 8192 // len(b"".join(lines)))
    body = [b"c%d" % c + text for c in copies for text in lines] + [line]
    bad = "bad_" + artifact
    (workdir / bad).write_bytes(header + b"".join(body))
    capsys.readouterr()
    if artifact == "run.tsv":
        argv = ["eval", "--corpus", "corpus.jsonl", "--run", bad, "--output", "bad.json"]
    else:
        argv = ["train", "--corpus", "corpus.jsonl", "--pairs", bad, "--checkpoint", "bad.ckpt",
                "--seed", "7"]
    record = assert_mapped_error(main(argv), capsys, "MalformedArtifact")
    assert record["message"].startswith(f"{bad}: line {len(body) + 1}: ")


def retrieve(index):
    return main(["retrieve", "--corpus", "corpus.jsonl", "--checkpoint", "enc.ckpt",
                 "--index", index, "--run", "bad.tsv"])


def test_retrieve_truncated_index_is_mapped_error(workdir, capsys):
    run_pipeline()
    data = (workdir / "docs.idx").read_bytes()
    (workdir / "short.idx").write_bytes(data[:-3])
    capsys.readouterr()
    assert_mapped_error(retrieve("short.idx"), capsys, "MalformedArtifact")


def test_retrieve_index_of_other_dimension_is_mapped_error(workdir, capsys):
    run_pipeline()
    assert main(["train", "--corpus", "corpus.jsonl", "--pairs", "pairs.tsv",
                 "--checkpoint", "other.ckpt", "--seed", "7", "--max-epochs", "1",
                 "--embedding-dim", "8"]) == 0
    assert main(["index", "--corpus", "corpus.jsonl", "--checkpoint", "other.ckpt",
                 "--index", "other.idx"]) == 0
    capsys.readouterr()
    assert_mapped_error(retrieve("other.idx"), capsys, "DimensionMismatch")


def test_index_truncated_checkpoint_is_mapped_error(workdir, capsys):
    run_pipeline()
    data = (workdir / "enc.ckpt").read_bytes()
    (workdir / "short.ckpt").write_bytes(data[:-20])
    capsys.readouterr()
    code = main(["index", "--corpus", "corpus.jsonl", "--checkpoint", "short.ckpt",
                 "--index", "bad.idx"])
    assert_mapped_error(code, capsys, "MalformedArtifact")


def test_retrieve_missing_index_is_mapped_error(workdir, capsys):
    run_pipeline()
    capsys.readouterr()
    assert_mapped_error(retrieve("missing.idx"), capsys, "FileNotFoundError")


# Every option each command records in its .prov sidecar when run with only
# its required flags: the flag defaults, which come from the config classes.
REQUIRED_FLAG_CONFIGS = [
    (["mine", "--pairs", "pairs.tsv"], "pairs.tsv", {
        "corpus": "corpus.jsonl", "pairs": "pairs.tsv", "chexbert_threshold": 1.0,
        "radgraph_threshold": 0.0, "top_k": 2, "include_self": True,
    }),
    (["sweep", "--output", "sweep.jsonl"], "sweep.jsonl", {
        "corpus": "corpus.jsonl", "output": "sweep.jsonl", "chexbert_grid": "0,0.4,0.8,1.0",
        "radgraph_grid": "0,0.2,0.4,0.6,0.8", "top_k": 2,
    }),
    (["train", "--pairs", "pairs.tsv", "--checkpoint", "enc.ckpt", "--seed", "7"], "enc.ckpt", {
        "corpus": "corpus.jsonl", "pairs": "pairs.tsv", "checkpoint": "enc.ckpt", "log": None,
        "learning_rate": 5e-06, "batch_size": 32, "max_epochs": 15, "early_stop_patience": 5,
        "seed": 7, "hard_negative_k": 0, "weight_decay": 0.0, "embedding_dim": 256,
        "temperature": 0.01, "val_chexbert_threshold": 0.6, "val_radgraph_threshold": 0.1,
    }),
    (["index", "--checkpoint", "enc.ckpt", "--index", "docs.idx"], "docs.idx", {
        "corpus": "corpus.jsonl", "checkpoint": "enc.ckpt", "index": "docs.idx", "split": "train",
    }),
    (["retrieve", "--checkpoint", "enc.ckpt", "--index", "docs.idx", "--run", "run.tsv"],
     "run.tsv", {
        "corpus": "corpus.jsonl", "checkpoint": "enc.ckpt", "index": "docs.idx", "run": "run.tsv",
        "query_split": "test", "k": 10, "exclude_self": True, "exclude_same_patient": True,
        "min_report_chars": 5,
    }),
    (["eval", "--run", "run.tsv", "--output", "eval.json"], "eval.json", {
        "corpus": "corpus.jsonl", "run": "run.tsv", "output": "eval.json", "query_split": "test",
        "eval_chexbert_threshold": 0.6, "eval_radgraph_threshold": 0.1,
    }),
    (["oracle", "--run", "oracle.tsv"], "oracle.tsv", {
        "corpus": "corpus.jsonl", "run": "oracle.tsv", "query_split": "test",
    }),
    (["build-rag", "--checkpoint", "enc.ckpt", "--output", "rag.jsonl"], "rag.jsonl", {
        "corpus": "corpus.jsonl", "checkpoint": "enc.ckpt", "output": "rag.jsonl", "mode": "rag",
        "exclude_self": True, "exclude_same_patient": True, "min_report_chars": 5,
    }),
]


def test_sidecar_config_records_defaults(workdir):
    for argv, artifact, expected in REQUIRED_FLAG_CONFIGS:
        assert main([argv[0], "--corpus", "corpus.jsonl", *argv[1:]]) == 0, argv[0]
        sidecar = json.loads((workdir / (artifact + ".prov")).read_text())
        assert sidecar["config"] == expected, argv[0]
    assert json.loads((workdir / "eval.json").read_text())["config"] == REQUIRED_FLAG_CONFIGS[5][2]


@pytest.mark.parametrize("argv, error", [
    (["mine", "--pairs", "bad.tsv", "--chexbert-threshold", "2"], "InvalidConfig"),
    (["mine", "--pairs", "bad.tsv", "--top-k", "abc"], "InvalidConfig"),
    (["retrieve", "--checkpoint", "enc.ckpt", "--index", "docs.idx", "--run", "bad.tsv",
      "--k", "0"], "InvalidConfig"),
    (["train", "--pairs", "pairs.tsv", "--checkpoint", "bad.ckpt", "--seed", "7",
      "--batch-size", "0"], "InvalidConfig"),
    (["score", "--a", "nope", "--b", "s00001"], "UnknownId"),
    (["build-rag", "--output", "bad.jsonl", "--mode", "bogus"], "InvalidConfig"),
    (["mine", "--pairs", "bad.tsv", "--top-k", "2.9"], "InvalidConfig"),
    (["mine", "--pairs", "bad.tsv", "--include-self", "maybe"], "InvalidConfig"),
    (["index", "--checkpoint", "enc.ckpt", "--index", "bad.idx", "--split", "tets"],
     "InvalidConfig"),
    (["retrieve", "--checkpoint", "enc.ckpt", "--index", "docs.idx", "--run", "bad.tsv",
      "--query-split", "tets"], "InvalidConfig"),
    (["oracle", "--run", "bad.tsv", "--query-split", "Test"], "InvalidConfig"),
    (["eval", "--run", "run.tsv", "--output", "bad.json", "--query-split", "tets"],
     "InvalidConfig"),
    pytest.param(["train", "--pairs", "pairs.tsv", "--checkpoint", "bad.ckpt", "--seed", "7",
                  "--temperature", "1e-320", "--max-epochs", "1", "--embedding-dim", "16"],
                 "NonFiniteLoss", marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
], ids=["threshold-out-of-range", "top-k-not-int", "k-zero", "batch-size-zero", "unknown-id",
        "unknown-mode", "top-k-not-integral", "include-self-not-bool", "index-split-misspelt",
        "retrieve-split-misspelt", "oracle-split-misspelt", "eval-split-misspelt",
        "temperature-underflow"])
def test_bad_option_or_id_is_mapped_error(workdir, capsys, argv, error):
    run_pipeline()
    capsys.readouterr()
    code = main([argv[0], "--corpus", "corpus.jsonl", *argv[1:]])
    assert_mapped_error(code, capsys, error)
    assert not list(workdir.glob("bad.*"))


def test_retrieve_index_of_other_checkpoint_is_mapped_error(workdir, capsys):
    run_pipeline()
    assert main(["train", "--corpus", "corpus.jsonl", "--pairs", "pairs.tsv",
                 "--checkpoint", "other.ckpt", "--seed", "8", "--max-epochs", "1",
                 "--embedding-dim", "16"]) == 0
    assert main(["index", "--corpus", "corpus.jsonl", "--checkpoint", "other.ckpt",
                 "--index", "other.idx"]) == 0
    capsys.readouterr()
    record = assert_mapped_error(retrieve("other.idx"), capsys, "CheckpointMismatch")
    assert "other.idx" in record["message"]
    assert retrieve("docs.idx") == 0


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_overflowing_checkpoint_is_mapped_error_and_writes_no_index(workdir, capsys):
    run_pipeline()
    params = load_params(workdir / "enc.ckpt")
    save_params(EncoderParams(params.w_q * 1e300, params.w_d * 1e300, params.temperature),
                workdir / "huge.ckpt")
    capsys.readouterr()
    code = main(["index", "--corpus", "corpus.jsonl", "--checkpoint", "huge.ckpt",
                 "--index", "huge.idx"])
    assert_mapped_error(code, capsys, "DegenerateEmbedding")
    assert not list(workdir.glob("huge.idx*"))


def test_non_utf8_corpus_is_mapped_error(workdir, capsys):
    lines = (workdir / "corpus.jsonl").read_bytes().splitlines(keepends=True)
    lines[5] = lines[5].replace(b"{", b'{"note": "\xff", ', 1)
    (workdir / "bad.jsonl").write_bytes(b"".join(lines))
    record = assert_mapped_error(
        main(["mine", "--corpus", "bad.jsonl", "--pairs", "pairs.tsv"]), capsys, "MalformedRecord"
    )
    assert record["message"].startswith("line 6: ")


@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config-file"])
def test_path_option_that_looks_like_a_number_stays_a_path(workdir, capsys, via_config):
    if via_config:
        (workdir / "mine.cfg").write_text("corpus = corpus.jsonl\npairs = 1\n")
        argv = ["mine", "--config", "mine.cfg"]
    else:
        argv = ["mine", "--corpus", "corpus.jsonl", "--pairs", "1"]
    assert main(argv) == 0
    assert capsys.readouterr().out == ""
    assert (workdir / "1").read_text().startswith("{")
    assert json.loads((workdir / "1.prov").read_text())["config"]["pairs"] == "1"


@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config-file"])
def test_id_option_that_looks_like_a_number_stays_an_id(workdir, capsys, via_config):
    corpus = synth_corpus(7, 60)
    corpus.records[12].report_id = "00012"
    write_corpus(Corpus(corpus.records, corpus.d_img, corpus.d_txt), workdir / "ids.jsonl")
    if via_config:
        (workdir / "score.cfg").write_text("corpus = ids.jsonl\na = 00012\nb = s00001\n")
        argv = ["score", "--config", "score.cfg"]
    else:
        argv = ["score", "--corpus", "ids.jsonl", "--a", "00012", "--b", "s00001"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"factual_similarity", "chexbert_instance", "rouge_l"}
    if via_config:
        assert read_config_file(workdir / "score.cfg")["a"] == "00012"


@pytest.mark.parametrize("argv, missing", [
    (["mine", "--corpus", "corpus.jsonl"], ["--pairs"]),
    (["sweep", "--output", "sweep.jsonl"], ["--corpus"]),
    (["train", "--corpus", "corpus.jsonl", "--log", "train.log"],
     ["--pairs", "--checkpoint", "--seed"]),
    (["index", "--corpus", "corpus.jsonl", "--index", "docs.idx"], ["--checkpoint"]),
    (["retrieve", "--corpus", "corpus.jsonl", "--checkpoint", "enc.ckpt", "--index", "docs.idx"],
     ["--run"]),
    (["eval", "--corpus", "corpus.jsonl", "--run", "run.tsv"], ["--output"]),
    (["oracle", "--corpus", "corpus.jsonl"], ["--run"]),
    (["build-rag", "--corpus", "corpus.jsonl", "--output", "rag.jsonl"], ["--checkpoint"]),
    (["score", "--corpus", "corpus.jsonl", "--b", "s00001"], ["--a"]),
], ids=["mine", "sweep", "train", "index", "retrieve", "eval", "oracle", "build-rag", "score"])
def test_missing_required_option_is_mapped_error(workdir, capsys, argv, missing):
    before = sorted(workdir.iterdir())
    record = assert_mapped_error(main(argv), capsys, "InvalidConfig")
    assert all(flag in record["message"] for flag in missing)
    assert sorted(workdir.iterdir()) == before


@pytest.mark.parametrize("mode", ["vqa", "oracle-rag"])
def test_build_rag_without_retrieval_needs_no_checkpoint(workdir, mode):
    assert main(["build-rag", "--corpus", "corpus.jsonl", "--output", "rag.jsonl",
                 "--mode", mode]) == 0
    assert (workdir / "rag.jsonl").exists()


def test_non_utf8_config_file_is_mapped_error(workdir, capsys):
    (workdir / "mine.cfg").write_bytes(b"corpus = corpus.jsonl\npairs = pairs\xff.tsv\n")
    record = assert_mapped_error(main(["mine", "--config", "mine.cfg"]), capsys, "MalformedArtifact")
    assert record["message"].startswith("mine.cfg: line 2: ")
