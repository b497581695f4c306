import json

import pytest

from factmine.cli import main, read_config_file
from factmine.corpus import synth_corpus, write_corpus


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
    assert json.loads(err.strip())["error"] == error


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
