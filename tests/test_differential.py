"""Differential test: ``run_pipeline`` against the benchmark's independent oracle.

``perfbench/oracle.py`` recomputes the bm25, pre and post rankings from their
definitions without importing queryboost, under ``perfbench/hashvec.py``'s hashing
vectors, which follow ``HashingEmbedder``'s definition. Both modules are imported
as they are. Hypothesis draws small corpora, queries, cached references and
settings, and every ranking must be the oracle's: the same order, scores within
its tolerance. It covers what the oracle implements: adaptive reweighting, the
``contex_pool`` strategy and the ``title_plus_text`` field policy.
"""

import json
import random
import sys
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, reject, settings, strategies as st

from queryboost import corpus
from queryboost.calibration import CalibrationConfig
from queryboost.corpus import build_index, load_corpus_jsonl, load_index, save_index
from queryboost.embedding import HashingEmbedder
from queryboost.generation import ReferenceCache, ReferenceSet
from queryboost.pipeline import PipelineConfig, run_pipeline
from queryboost.sparse import BM25Params, ReweightConfig

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from hashvec import HashVectors  # noqa: E402
from oracle import Oracle  # noqa: E402

# words whose tokens take the tokenizer's non-ASCII path
NON_ASCII = ("café", "naïve", "Straße", "日本語", "привет", "ΟΔΟΣ", "ǅemal")


@st.composite
def cases(draw):
    # the texts come from a drawn seed, far cheaper to draw than word by word
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    words = [f"w{i}" for i in range(draw(st.integers(5, 200)))] + list(NON_ASCII)

    def text(max_words):
        return " ".join(rng.choices(words, k=rng.randint(1, max_words)))

    # ids in no particular file order, whose string order is not their numbers' (d10 < d2)
    ids = rng.sample(range(n := draw(st.integers(3, 61))), n)
    docs = [{"_id": f"d{i}", "title": text(4) if rng.random() < 0.3 else None,
             "text": text(30)} for i in ids[:-1]]
    docs.append({**rng.choice(docs), "_id": f"d{ids[-1]}"})  # an exact duplicate
    queries = [(f"q{i}", text(4)) for i in range(draw(st.integers(1, 6)))]
    references = {query_id: [text(20) for _ in range(draw(st.integers(1, 5)))]
                  for query_id, _ in queries}
    cfg = PipelineConfig(
        bm25=BM25Params(k1=draw(st.sampled_from([0, 0.9, 1.2, 3])),
                        b=draw(st.sampled_from([0, 0.4, 0.75, 1]))),
        reweight=ReweightConfig.adaptive(beta=draw(st.floats(0.05, 3))),
        retrieve_k=draw(st.integers(1, 40)),
        calibration=CalibrationConfig(alpha=draw(st.floats(0, 2)),
                                      k_reciprocal=draw(st.integers(1, 10)),
                                      num_negatives=draw(st.integers(0, 6))))
    return {"docs": docs, "queries": queries, "references": references, "cfg": cfg,
            "dimension": draw(st.integers(8, 64)), "seed": draw(st.integers(0, 2**64 - 1)),
            "n_refs": draw(st.sampled_from([None, 0, 1, 2])), "round_trip": draw(st.booleans()),
            # a small block spreads a build over several blocks; None keeps the default
            "block_tokens": draw(st.sampled_from([None, 1, 16, 64]))}


@settings(max_examples=200, deadline=None)
@given(case=cases())
def test_run_pipeline_ranks_as_the_oracle(case):
    cfg = case["cfg"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        path.write_text("".join(json.dumps(doc, ensure_ascii=False) + "\n"
                                for doc in case["docs"]), encoding="utf-8")
        store = {d.doc_id: d for d in load_corpus_jsonl(path)}
        block = case["block_tokens"] or corpus._BLOCK_TOKENS
        with mock.patch.object(corpus, "_BLOCK_TOKENS", block):
            index = build_index(store.values())
        if case["round_trip"]:
            save_index(index, Path(tmp) / "index.npz")
            index = load_index(Path(tmp) / "index.npz")
        cache = ReferenceCache(Path(tmp) / "cache.jsonl")
        for query_id, query in case["queries"]:
            cache.put(ReferenceSet(query_id, query, tuple(case["references"][query_id]), "m"))
        try:
            rankings = run_pipeline(case["queries"], index, store,
                                    HashingEmbedder(case["dimension"], case["seed"]), cache,
                                    "m", cfg, n_refs=case["n_refs"])
        except ValueError as exc:
            if "cached references, have" not in str(exc):
                raise
            reject()  # n_refs above some query's cached count: not a case
        oracle = Oracle(path, {}, k1=cfg.bm25.k1, b=cfg.bm25.b, beta=cfg.reweight.beta,
                        retrieve_k=cfg.retrieve_k, alpha=cfg.calibration.alpha,
                        k_reciprocal=cfg.calibration.k_reciprocal,
                        num_negatives=cfg.calibration.num_negatives,
                        vectors=HashVectors(case["dimension"], case["seed"]))
    for (query_id, query), r in zip(case["queries"], rankings, strict=True):
        refs = case["references"][query_id][:case["n_refs"]]
        got = [list(r.bm25.items), list(r.pre.items), list(r.post.items)]
        assert oracle.check(query, refs, got) == [], query_id

