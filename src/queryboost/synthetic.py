"""Synthetic retrieval benchmark with a controlled query-document vocabulary gap.

Each topic has planted relevant documents written in topic-specific keywords,
a distractor that shares the query's surface form but not its meaning, and
cached pseudo-references that bridge the gap by mentioning the topic keywords.
Plain lexical retrieval fails on the alias-only queries; expansion closes the
gap, which is the effect the end-to-end tests measure.
"""

import json
import random
from dataclasses import dataclass
from pathlib import Path

from queryboost.corpus import Document
from queryboost.evaluation import Qrels
from queryboost.generation import ReferenceCache, ReferenceSet

SYNTHETIC_MODEL_ID = "synthetic-refs"

_FILLER = ["the", "of", "and", "about", "info", "report", "note", "overview",
           "summary", "details", "page", "entry", "record", "item", "general",
           "common", "standard", "basic", "various", "misc"]


@dataclass
class SyntheticDataset:
    documents: list[Document]
    queries: list[tuple[str, str]]
    qrels: Qrels
    reference_sets: list[ReferenceSet]
    model_id: str = SYNTHETIC_MODEL_ID


def make_synthetic_dataset(num_topics: int = 20, num_docs: int = 500,
                           refs_per_query: int = 3, seed: int = 7) -> SyntheticDataset:
    rng = random.Random(seed)
    noise_vocab = [f"noise{j}" for j in range(80)]

    documents: list[Document] = []
    queries: list[tuple[str, str]] = []
    qrels: Qrels = {}
    reference_sets: list[ReferenceSet] = []

    for i in range(num_topics):
        alias = f"alias{i}"
        keywords = [f"kw{i}x{j}" for j in range(6)]
        query_id = f"q{i}"
        query = f"about {alias}"
        queries.append((query_id, query))
        qrels[query_id] = {}

        # Two relevant docs per topic: keyword-heavy, never mention the alias.
        for j in range(2):
            doc_id = f"rel{i}x{j}"
            words = keywords + rng.sample(keywords, 2) + rng.sample(_FILLER, 1)
            rng.shuffle(words)
            documents.append(Document(doc_id=doc_id, title="", text=" ".join(words)))
            qrels[query_id][doc_id] = 3

        # One distractor sharing the query's alias but none of its substance.
        d_id = f"dis{i}"
        words = [alias] + [rng.choice(_FILLER) for _ in range(8)]
        rng.shuffle(words)
        documents.append(Document(doc_id=d_id, title="", text=" ".join(words)))
        qrels[query_id][d_id] = 0

        # References paraphrase the relevant docs (keywords, no alias).
        refs = []
        for j in range(refs_per_query):
            words = rng.sample(keywords, 5)
            rng.shuffle(words)
            refs.append(" ".join(words))
        reference_sets.append(ReferenceSet(
            query_id=query_id, query=query, references=tuple(refs),
            model_id=SYNTHETIC_MODEL_ID, created_at="1970-01-01T00:00:00+00:00"))

    for j in range(num_docs - len(documents)):
        length = rng.randint(8, 14)
        words = [rng.choice(_FILLER if rng.random() < 0.1 else noise_vocab)
                 for _ in range(length)]
        documents.append(Document(doc_id=f"bg{j}", title="", text=" ".join(words)))

    return SyntheticDataset(documents=documents, queries=queries, qrels=qrels,
                            reference_sets=reference_sets)


def write_dataset(ds: SyntheticDataset, out_dir) -> dict[str, Path]:
    """Write corpus.jsonl, queries.tsv, qrels.txt, and cache.jsonl to a directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "corpus": out / "corpus.jsonl",
        "queries": out / "queries.tsv",
        "qrels": out / "qrels.txt",
        "cache": out / "cache.jsonl",
    }
    with open(paths["corpus"], "w", encoding="utf-8") as fh:
        for doc in ds.documents:
            fh.write(json.dumps({"_id": doc.doc_id, "title": doc.title,
                                 "text": doc.text}, ensure_ascii=False) + "\n")
    with open(paths["queries"], "w", encoding="utf-8") as fh:
        for query_id, query in ds.queries:
            fh.write(f"{query_id}\t{query}\n")
    with open(paths["qrels"], "w", encoding="utf-8") as fh:
        for query_id, grades in ds.qrels.items():
            for doc_id, grade in grades.items():
                fh.write(f"{query_id} 0 {doc_id} {grade}\n")
    if paths["cache"].exists():
        paths["cache"].unlink()
    cache = ReferenceCache(paths["cache"])
    for rs in ds.reference_sets:
        cache.put(rs)
    return paths
