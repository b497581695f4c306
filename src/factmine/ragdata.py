"""Retrieval-augmented fine-tuning dataset assembly for an external generator."""

import json
from dataclasses import dataclass

from . import artifacts
from .encoder import encode_query
from .errors import EmptyCandidateSet, InvalidConfig, MalformedArtifact
from .evaluator import _oracle_pick
from .index import build_index, search
from .mining import _fact_index

VQA_TEMPLATE = "Generate a radiology report from this image: <image>"
RAG_TEMPLATE = (
    'Here is a report of a related patient: "{document}"\n'
    "Generate a radiology report from this image: <image>"
)

MODES = ("vqa", "rag", "oracle-rag")


@dataclass(frozen=True)
class RagExample:
    query_report_id: str
    image_ref: str
    retrieved_doc_id: str  # None when retrieval was impossible or mode is vqa
    prompt_text: str
    target_text: str
    mode: str


def _prompt(retrieved_text):
    if retrieved_text is None:
        return VQA_TEMPLATE
    return RAG_TEMPLATE.format(document=retrieved_text)


def build_rag_dataset(corpus, params, policy, mode):
    """One example per query across all splits.

    mode "rag" substitutes the rank-1 retrieved train report into the
    prompt, "oracle-rag" the ground-truth oracle pick, "vqa" none. Queries
    whose candidates are fully excluded fall back to the VQA template.
    Returns (examples, warning_count).
    """
    if mode not in MODES:
        raise InvalidConfig(f"unknown mode {mode!r}")
    index = build_index(corpus, params, "train") if mode == "rag" else None
    facts = _fact_index(corpus.split("train")) if mode == "oracle-rag" else None
    examples = []
    warnings = 0
    for rec in corpus.records:
        retrieved_id = None
        if mode == "rag":
            q = encode_query(params, rec.image_features)
            try:
                ranked = search(index, q, 1, policy, (rec.report_id, rec.patient_id))
                retrieved_id = ranked[0][0]
            except EmptyCandidateSet:
                warnings += 1
        elif mode == "oracle-rag":
            try:
                retrieved_id, _ = _oracle_pick(facts, rec)
            except EmptyCandidateSet:
                warnings += 1
        retrieved_text = None if retrieved_id is None else corpus[retrieved_id].report_text
        examples.append(
            RagExample(
                query_report_id=rec.report_id,
                image_ref=rec.report_id,  # corpus carries no separate image handle
                retrieved_doc_id=retrieved_id,
                prompt_text=_prompt(retrieved_text),
                target_text=rec.report_text,
                mode=mode,
            )
        )
    return examples, warnings


def write_rag_dataset(examples, path):
    artifacts.write_lines(path, (
        artifacts.to_json({
            "id": ex.query_report_id,
            "image": ex.image_ref,
            "prompt": ex.prompt_text,
            "target": ex.target_text,
            "retrieved_id": ex.retrieved_doc_id,
            "mode": ex.mode,
        })
        for ex in examples
    ))


def read_rag_dataset(path):
    """Read a file written by write_rag_dataset.

    Raises MalformedArtifact, naming the line, unless every line is UTF-8
    JSON: an object whose id, image, prompt and target are strings, whose
    retrieved_id is a string or null and whose mode is one of MODES.
    """
    examples = []
    for line_no, line in artifacts.read_lines(path):
        try:
            obj = json.loads(line)
            example = RagExample(
                query_report_id=obj["id"],
                image_ref=obj["image"],
                retrieved_doc_id=obj["retrieved_id"],
                prompt_text=obj["prompt"],
                target_text=obj["target"],
                mode=obj["mode"],
            )
            texts = (example.query_report_id, example.image_ref, example.prompt_text,
                     example.target_text)
            if (
                not all(isinstance(t, str) for t in texts)
                or not isinstance(example.retrieved_doc_id, (str, type(None)))
                or example.mode not in MODES
            ):
                raise ValueError
        except (ValueError, TypeError, KeyError):
            raise MalformedArtifact(
                path,
                f"line {line_no}: expected a JSON object with text id, image, prompt and "
                "target, a text or null retrieved_id and a known mode",
            ) from None
        examples.append(example)
    return examples
