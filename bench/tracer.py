"""Spans and counts recorded around factmine's functions from outside.

`install` replaces each public function of the package's modules, in the
defining module and in every module that bound it with `from .x import
name`, by a wrapper that records one span per call: its name, start,
end and parent. Spans stay in flat in-memory arrays until `save` writes
them out at the end of the run.

Three private encoder functions are wrapped as well, because a training
epoch has no public boundary: `_run_epochs` spans a stage and each
`_validation_mrr` call ends an epoch. `factmine.cli.main` is not wrapped;
the workload opens a `cli.<command>` span around each call it makes.
"""

import functools
import importlib
import inspect
import json
import time
from array import array

import numpy as np

LAYERS = ("corpus", "metrics", "mining", "encoder", "index", "evaluator", "ragdata", "cli")
PRIVATE = {"encoder": ("_run_epochs", "_validation_mrr", "_hard_negatives")}
NOT_WRAPPED = {"cli": ("main",)}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.pairs_scored = 0
        self.pairs_kept = 0

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id):
        sid = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self._stack.append(sid)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid):
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def span(self, name):
        return _Span(self, self.name_id(name))

    def wrap(self, name, fn, pick=None, after=None):
        """`fn` recording a span per call.

        `pick(args, kwargs)` may choose another span name per call;
        `after(args, kwargs, result)` may update counts.
        """
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(nid if pick is None else self.name_id(pick(args, kwargs)))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def arrays(self):
        # Copies, so the arrays can still grow afterwards.
        return (
            np.array(self.name, dtype=np.int32),
            np.array(self.parent, dtype=np.int32),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
        )

    def save(self, path):
        name, parent, start, end = self.arrays()
        np.savez(path, name=name, parent=parent, start=start, end=end,
                 names=np.array(json.dumps(self.names)))


class _Span:
    def __init__(self, tracer, name_id):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        self.sid = self.tracer.open(self.name_id)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.sid)
        return False


def _count_mining(tracer):
    def after(args, kwargs, kept):
        query, docs = args[0], args[1]
        tracer.pairs_scored += sum(1 for d in docs if d.report_id != query.report_id)
        tracer.pairs_kept += len(kept)

    return after


def _search_name(args, kwargs):
    # A search whose k reaches the index size ranks the whole corpus.
    index = args[0]
    k = args[2] if len(args) > 2 else kwargs["k"]
    return "index.full_rank" if k >= len(index.doc_ids) else "index.search"


def install(tracer):
    """Wrap factmine's functions everywhere they are bound; return an undo."""
    package = importlib.import_module("factmine")
    modules = {layer: importlib.import_module(f"factmine.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                continue
            if attr in NOT_WRAPPED.get(layer, ()):
                continue
            pick = after = None
            if layer == "mining" and attr == "candidate_pairs":
                after = _count_mining(tracer)
            elif layer == "index" and attr == "search":
                pick = _search_name
            wrapped[obj] = tracer.wrap(f"{layer}.{attr}", obj, pick, after)
    undo = []
    for module in (package, *modules.values()):
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                undo.append((module, attr, obj))
                setattr(module, attr, wrapped[obj])

    def uninstall():
        for module, attr, obj in undo:
            setattr(module, attr, obj)

    return uninstall


class Spans:
    """The recorded spans as arrays, with each span's own time: its
    duration minus the durations of its direct children."""

    def __init__(self, tracer):
        self.names = tracer.names
        self.name, self.parent, self.start, self.end = tracer.arrays()
        self.dur = self.end - self.start
        nested = self.parent >= 0
        self.own = self.dur - np.bincount(self.parent[nested], weights=self.dur[nested],
                                          minlength=len(self.dur))
        self.layer = np.array([n.split(".", 1)[0] for n in self.names])[self.name]

    def totals(self, ids):
        """Per span name: (summed duration, call count) over spans `ids`."""
        dur = np.bincount(self.name[ids], weights=self.dur[ids], minlength=len(self.names))
        calls = np.bincount(self.name[ids], minlength=len(self.names))
        return {n: (float(dur[i]), int(calls[i])) for i, n in enumerate(self.names)}

    def self_times(self, ids):
        """Per layer: summed own time of its spans among `ids`."""
        return {layer: float(self.own[ids][self.layer[ids] == layer].sum()) for layer in LAYERS}

    def epoch_times(self, ids):
        """Training epochs among `ids`: from the stage start, or the end of
        the previous validation, to the end of the next `_validation_mrr`."""
        ids = np.asarray(ids)
        stage = self.names.index("encoder._run_epochs") if "encoder._run_epochs" in self.names else -1
        val = self.names.index("encoder._validation_mrr") if "encoder._validation_mrr" in self.names else -1
        epochs = []
        for s in ids[self.name[ids] == stage]:
            mark = self.start[s]
            for v in ids[(self.name[ids] == val) & (self.parent[ids] == s)]:
                epochs.append(float(self.end[v] - mark))
                mark = self.end[v]
        return epochs
