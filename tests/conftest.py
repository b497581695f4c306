import tracemalloc
import zlib

import numpy as np
import pytest

from factmine.corpus import Corpus, FactGraph, ReportRecord


def entity_graph(*tokens, label="OBS-DP"):
    """Graph of bare entities; item set is exactly the (token, label) pairs."""
    return FactGraph(tuple((t, label) for t in tokens))


def make_record(
    report_id,
    labels=(1, 0, 0, 0, 0),
    graph=None,
    split="train",
    patient_id=None,
    report_text="stable cardiac silhouette without effusion",
    d_img=4,
    d_txt=3,
):
    rng = np.random.default_rng(zlib.crc32(report_id.encode()))
    return ReportRecord(
        report_id=report_id,
        patient_id=patient_id or f"pat-{report_id}",
        split=split,
        report_text=report_text,
        labels=tuple(labels),
        graph=graph if graph is not None else entity_graph(f"finding-{report_id}"),
        image_features=rng.normal(size=d_img),
        text_features=rng.normal(size=d_txt),
    )


def make_corpus(records, d_img=4, d_txt=3):
    return Corpus(list(records), d_img=d_img, d_txt=d_txt)


def traced_peak(fn, *args):
    """fn(*args), and the peak bytes tracemalloc saw allocated while it ran.

    numpy reports its data buffers to tracemalloc, so arrays count.
    """
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, peak


@pytest.fixture
def tiny_corpus():
    records = [
        make_record("s1", labels=(1, 0, 1, 0, 0), graph=entity_graph("heart", "edema")),
        make_record("s2", labels=(1, 0, 1, 0, 0), graph=entity_graph("heart", "edema", "lung")),
        make_record("s3", labels=(0, 1, 0, 0, 0), graph=entity_graph("pleura")),
        make_record("s4", labels=(1, 0, 1, 0, 0), graph=entity_graph("heart"), split="validation"),
        make_record("s5", labels=(0, 1, 0, 0, 0), graph=entity_graph("pleura", "base"), split="test"),
    ]
    return make_corpus(records)
