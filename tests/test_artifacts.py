import os

import pytest
from hypothesis import given, settings, strategies as st

from factmine.artifacts import read_lines, write_lines
from factmine.cli import main, read_config_file
from factmine.corpus import load_corpus, synth_corpus, write_corpus
from factmine.encoder import load_params
from factmine.errors import FactmineError
from factmine.evaluator import read_run
from factmine.index import load_index
from factmine.mining import read_pairs
from factmine.ragdata import read_rag_dataset


def test_interrupted_write_keeps_previous_file(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_lines(path, ["one", "two"])
    before = path.read_bytes()

    def lines():
        yield "three"
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError):
        write_lines(path, lines())
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["rows.jsonl"]


def test_write_follows_umask(tmp_path):
    old = os.umask(0o027)
    try:
        write_lines(tmp_path / "a.txt", ["a"])
    finally:
        os.umask(old)
    assert os.stat(tmp_path / "a.txt").st_mode & 0o777 == 0o640


def test_path_that_is_not_a_regular_file_is_written_in_place(tmp_path):
    target = tmp_path / "target.txt"
    target.write_text("old\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    write_lines(link, ["new"])
    assert link.is_symlink()
    assert target.read_text() == "new\n"


def test_read_lines_numbers_non_blank_lines_and_names_a_bad_one(tmp_path):
    path = tmp_path / "a.txt"
    path.write_bytes(b"one\n\n  \ntwo\r\nthree")
    assert list(read_lines(path)) == [(1, "one"), (4, "two\r"), (5, "three")]
    path.write_bytes(b"one\ntw\xff\n")
    with pytest.raises(FactmineError, match=r"a\.txt: line 2: "):
        list(read_lines(path))


# --- every reader on damaged artifacts --------------------------------------

READERS = {
    "corpus.jsonl": load_corpus,
    "pairs.tsv": read_pairs,
    "enc.ckpt": load_params,
    "docs.idx": load_index,
    "run.tsv": read_run,
    "rag.jsonl": read_rag_dataset,
    "mine.cfg": read_config_file,
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Each reader's artifact, as a small pipeline writes it."""
    d = tmp_path_factory.mktemp("pipeline")
    f = {name: str(d / name) for name in READERS}
    write_corpus(synth_corpus(5, 40), f["corpus.jsonl"])
    (d / "mine.cfg").write_text(
        "# mining settings\ncorpus = corpus.jsonl\npairs = pairs.tsv\n"
        "chexbert_threshold = 0.6\ninclude_self = false\ntop_k = 3\n"
    )
    corpus = ["--corpus", f["corpus.jsonl"]]
    for argv in (
        ["mine", *corpus, "--pairs", f["pairs.tsv"], "--chexbert-threshold", "0.6",
         "--radgraph-threshold", "0.1"],
        ["train", *corpus, "--pairs", f["pairs.tsv"], "--checkpoint", f["enc.ckpt"],
         "--seed", "5", "--max-epochs", "1", "--embedding-dim", "4"],
        ["index", *corpus, "--checkpoint", f["enc.ckpt"], "--index", f["docs.idx"]],
        ["retrieve", *corpus, "--checkpoint", f["enc.ckpt"], "--index", f["docs.idx"],
         "--run", f["run.tsv"], "--k", "3", "--min-report-chars", "0"],
        ["build-rag", *corpus, "--checkpoint", f["enc.ckpt"], "--output", f["rag.jsonl"],
         "--min-report-chars", "0"],
    ):
        assert main(argv) == 0, argv[0]
    for name, reader in READERS.items():
        reader(f[name])
    return d, {name: (d / name).read_bytes() for name in READERS}


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_damaged_artifact_loads_or_raises_factmine_error(pipeline, name, data):
    d, originals = pipeline
    damaged = bytearray(originals[name])
    if data.draw(st.booleans(), label="truncate"):
        del damaged[data.draw(st.integers(0, len(damaged) - 1), label="at"):]
    else:
        for _ in range(data.draw(st.integers(1, 3), label="replacements")):
            at = data.draw(st.integers(0, len(damaged) - 1), label="at")
            damaged[at] = data.draw(st.integers(0, 255), label="byte")
    path = d / f"damaged-{name}"
    path.write_bytes(damaged)
    try:
        READERS[name](path)
    except FactmineError:
        pass
