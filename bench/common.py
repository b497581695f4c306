"""Settings and file names shared by the generator, workload and checks.

Nothing here imports factmine, so the checks stay independent of it.
"""

import os
import re
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# `factmine mine` as the mine workload and the train pair file run it.
MINING = {"chexbert_threshold": 1.0, "radgraph_threshold": 0.0, "top_k": 2,
          "include_self": True}
MINE_FLAGS = ["--chexbert-threshold", str(MINING["chexbert_threshold"]),
              "--radgraph-threshold", str(MINING["radgraph_threshold"]),
              "--top-k", str(MINING["top_k"])]
# Two values on each threshold axis.
SWEEP_CHEXBERT = (0.8, 1.0)
SWEEP_RADGRAPH = (0.2, 0.4)

# Patience equals max_epochs, so early stopping never cuts a stage short
# and every run trains the same number of epochs.
TRAIN = {"learning_rate": 0.05, "batch_size": 32, "max_epochs": 4,
         "early_stop_patience": 4, "hard_negative_k": 2, "embedding_dim": 64,
         "temperature": 0.05}
SERVE_EMBEDDING_DIM = 256  # the CLI's default
K = 10
# The default ExclusionPolicy, as `factmine retrieve` and `build-rag` use it.
POLICY = {"exclude_self": True, "exclude_same_patient": True, "min_report_chars": 5}
# Relevance for MRR, as `factmine eval` judges it by default.
EVAL_CHEXBERT, EVAL_RADGRAPH = 0.6, 0.1

QUERIES = 200     # single-query requests per round of mine and serve
BATCH_BLOCK = 50  # queries per search_batch call


class Inputs:
    """File names of one run's generated inputs and workload outputs."""

    def __init__(self, root):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.corpus = self.path("corpus.jsonl")
        self.pairs = self.path("pairs.tsv")
        self.baseline = self.path("baseline.ckpt")
        self.checkpoint = self.path("model.ckpt")
        self.result = self.path("result.json")
        self.spans = self.path("spans.npz")

    def path(self, name):
        return os.path.join(self.root, name)


def require_checkout_package():
    """Fail unless factmine was imported from this checkout's `src`."""
    import factmine

    here = os.path.realpath(os.path.dirname(factmine.__file__))
    if not here.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"factmine imported from {here}, not from {SRC}")


def child_env():
    """Environment for the generator and workload processes.

    The hash seed is fixed so that set and dict layouts, and with them
    the cost of the many small set operations in fact scoring, are the
    same in every process. BLAS runs one thread: on a shared 2-core
    machine a second one contends with the client and doubled the tail
    of search latency.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


_WS = re.compile(r"\s+")


def normalize_entity(text):
    """Lowercase, collapse whitespace, strip surrounding punctuation."""
    return _WS.sub(" ", text.strip().lower()).strip(".,;:!?()[]{}\"'")


def python():
    return sys.executable or "python3"
