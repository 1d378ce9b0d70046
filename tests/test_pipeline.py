from collections import Counter

import numpy as np
import pytest

from queryboost import corpus, pipeline
from queryboost.calibration import CalibrationConfig
from queryboost.corpus import FIELD_POLICIES, Document, build_index, load_index, save_index
from queryboost.embedding import HashingEmbedder
from queryboost.evaluation import evaluate_run, write_run
from queryboost.generation import ReferenceCache, ReferenceSet, StaleReferencesError
from queryboost.pipeline import (PipelineConfig, format_sweep_table, keyword_overlap,
                                 run_pipeline, run_query_pipeline, sweep,
                                 top_idf_tokens)
from queryboost.rerank import embed_query, rerank
from queryboost.sparse import ReweightConfig, bm25_search, build_sparse_query


def _setup_corpus():
    docs = [
        Document("rel", "", "neutron star collapse gravity"),
        Document("near", "", "star gravity telescope"),
        Document("off", "", "cooking recipes pasta star"),
    ]
    return docs, build_index(docs), {d.doc_id: d for d in docs}


class TestRunQueryPipeline:
    def test_reference_matching_relevant_doc_wins(self, embedder):
        docs, index, store = _setup_corpus()
        refs = ReferenceSet("q1", "dense remnant", ("neutron star collapse gravity",), "m")
        cfg = PipelineConfig(retrieve_k=3, eval_k=1)
        out = run_query_pipeline("q1", "dense remnant star", index, store,
                                 embedder, refs, cfg)
        assert out.post.items[0][0] == "rel"

    def test_retrieve_k_larger_than_corpus(self, embedder):
        docs, index, store = _setup_corpus()
        refs = ReferenceSet("q1", "star", ("star gravity",), "m")
        cfg = PipelineConfig(retrieve_k=100, eval_k=10)
        out = run_query_pipeline("q1", "star", index, store, embedder, refs, cfg)
        # every positive-score doc is a candidate
        assert len(out.bm25.items) == 3

    def test_rankings_are_permutations_of_candidates(self, embedder):
        docs, index, store = _setup_corpus()
        refs = ReferenceSet("q1", "star", ("star gravity telescope",), "m")
        cfg = PipelineConfig(retrieve_k=3, eval_k=1)
        out = run_query_pipeline("q1", "star", index, store, embedder, refs, cfg)
        ids = sorted(out.bm25.doc_ids())
        assert sorted(out.pre.doc_ids()) == ids
        assert sorted(out.post.doc_ids()) == ids

    def test_calibration_reduction_matches_pre(self, embedder):
        # Single ref, alpha=0, no negatives, and disjoint top-1s so the
        # reciprocal positive set is empty: the calibrated embedding equals
        # the contex-pool embedding and the final ranking equals the
        # pre-calibration one.
        docs = [
            Document("lex", "", "apple apple apple apple orchard"),
            Document("sem", "", "apple fruit crisp harvest"),
            Document("bg", "", "unrelated words entirely"),
        ]
        index = build_index(docs)
        store = {d.doc_id: d for d in docs}
        refs = ReferenceSet("q1", "apple", ("fruit crisp harvest",), "m")
        cfg = PipelineConfig(
            reweight=ReweightConfig.constant(t=20),
            calibration=CalibrationConfig(alpha=0.0, k_reciprocal=1,
                                          num_negatives=0),
            retrieve_k=3, eval_k=1)
        out = run_query_pipeline("q1", "apple", index, store, embedder, refs, cfg)
        assert out.bm25.items[0][0] != out.pre.items[0][0]  # construction holds
        assert out.post == out.pre

    def test_no_references_baseline(self, embedder):
        docs, index, store = _setup_corpus()
        cfg = PipelineConfig(retrieve_k=3, eval_k=1)
        out = run_query_pipeline("q1", "star gravity", index, store, embedder,
                                 None, cfg)
        assert out.post == out.pre

    def test_no_bm25_hits_gives_empty_rankings(self, embedder):
        docs, index, store = _setup_corpus()
        refs = ReferenceSet("q1", "zzz", ("yyy xxx",), "m")
        cfg = PipelineConfig(retrieve_k=3, eval_k=1)
        out = run_query_pipeline("q1", "zzz", index, store, embedder, refs, cfg)
        assert out.bm25.items == ()
        assert out.post.items == ()


class TestRunPipeline:
    def _cache(self, tmp_path, n=2):
        cache = ReferenceCache(tmp_path / "c.jsonl")
        cache.put(ReferenceSet("q1", "star", tuple(f"star gravity r{i}"
                                                   for i in range(n)), "m"))
        return cache

    def test_cache_miss_names_query(self, tmp_path, embedder):
        docs, index, store = _setup_corpus()
        cache = ReferenceCache(tmp_path / "c.jsonl")
        cfg = PipelineConfig(retrieve_k=3, eval_k=1)
        with pytest.raises(KeyError, match="q1"):
            run_pipeline([("q1", "star")], index, store, embedder, cache, "m", cfg)

    def test_n_refs_restriction(self, tmp_path, embedder):
        docs, index, store = _setup_corpus()
        cache = self._cache(tmp_path, n=2)
        cfg = PipelineConfig(retrieve_k=3, eval_k=1)
        run_pipeline([("q1", "star")], index, store, embedder, cache, "m", cfg,
                     n_refs=1)
        with pytest.raises(ValueError, match="3"):
            run_pipeline([("q1", "star")], index, store, embedder, cache, "m",
                         cfg, n_refs=3)

    def test_n_refs_zero_is_baseline(self, tmp_path, embedder):
        docs, index, store = _setup_corpus()
        cache = ReferenceCache(tmp_path / "c.jsonl")  # empty cache is fine
        cfg = PipelineConfig(retrieve_k=3, eval_k=1)
        out = run_pipeline([("q1", "star")], index, store, embedder, cache, "m",
                           cfg, n_refs=0)
        assert out[0].post == out[0].pre

    def test_references_of_another_query_rejected(self, tmp_path, embedder):
        # references cached for "apple fruit" would rank the apple document first
        docs = [Document("d1", "", "apple fruit orchard"),
                Document("d2", "", "rocket launch orbit")]
        index, store = build_index(docs), {d.doc_id: d for d in docs}
        cache = ReferenceCache(tmp_path / "c.jsonl")
        cache.put(ReferenceSet("q1", "apple fruit", ("apple orchard fruit",), "m"))
        cfg = PipelineConfig(retrieve_k=2, eval_k=1)
        with pytest.raises(StaleReferencesError,
                           match="query 'q1' were generated for 'apple fruit' .*, "
                                 "not for 'rocket launch'"):
            run_pipeline([("q1", "rocket launch")], index, store, embedder, cache, "m",
                         cfg)
        assert run_pipeline([("q1", "apple fruit")], index, store, embedder, cache, "m",
                            cfg)[0].bm25.items[0][0] == "d1"


class TestKeywordOverlap:
    def _index(self):
        docs = [Document("d1", "", "rare1 rare2 common"),
                Document("d2", "", "rare3 common"),
                Document("d3", "", "common common"),
                Document("d4", "", "common other4"),
                Document("d5", "", "common other5")]
        return docs, build_index(docs)

    def test_identical_texts_full_overlap(self):
        docs, index = self._index()
        refs = ReferenceSet("q1", "q", ("rare1 rare2 common",), "m")
        rep = keyword_overlap("q", refs, [docs[0]], index, m=3)
        assert rep.gt_pse_overlap == 3

    def test_disjoint_texts_zero_overlap(self):
        docs, index = self._index()
        refs = ReferenceSet("q1", "q", ("rare3",), "m")
        rep = keyword_overlap("q", refs, [Document("g", "", "rare1 rare2")],
                              index, m=2)
        assert rep.gt_pse_overlap == 0

    def test_top_idf_order_matches_hand_ranking(self):
        docs, index = self._index()
        # df: rare1=1 rare2=1 rare3=1 other4=1 other5=1 common=5
        top = top_idf_tokens("rare1 common rare2", index, 2)
        assert top == ["rare1", "rare2"]  # idf tie broken by token

    def test_empty_gt_rejected(self):
        docs, index = self._index()
        refs = ReferenceSet("q1", "q", ("x",), "m")
        with pytest.raises(ValueError):
            keyword_overlap("q", refs, [], index)


class TestSweep:
    def _dataset(self, tmp_path):
        docs, index, store = _setup_corpus()
        cache = ReferenceCache(tmp_path / "c.jsonl")
        cache.put(ReferenceSet("q1", "star", ("neutron star collapse",
                                              "star gravity telescope"), "m"))
        qrels = {"q1": {"rel": 3}}
        return index, store, cache, qrels

    def test_single_value(self, tmp_path, embedder):
        index, store, cache, qrels = self._dataset(tmp_path)
        cfg = PipelineConfig(retrieve_k=3, eval_k=3)
        results = sweep("beta", [4.0], cfg, index, store, embedder, cache, "m",
                        [("q1", "star")], qrels)
        assert len(results) == 1

    def test_beta_sweep_distinct_fingerprints(self, tmp_path, embedder):
        index, store, cache, qrels = self._dataset(tmp_path)
        cfg = PipelineConfig(retrieve_k=3, eval_k=3)
        results = sweep("beta", [2.0, 4.0, 6.0], cfg, index, store, embedder,
                        cache, "m", [("q1", "star")], qrels)
        fps = [r.fingerprint for _, r in results]
        assert len(set(fps)) == 3

    def test_n_refs_zero_means_plain_baseline(self, tmp_path, embedder):
        index, store, cache, qrels = self._dataset(tmp_path)
        cfg = PipelineConfig(retrieve_k=3, eval_k=3)
        results = sweep("n_refs", [0, 1, 2], cfg, index, store, embedder,
                        cache, "m", [("q1", "star")], qrels)
        assert len(results) == 3

    def test_insufficient_refs_error(self, tmp_path, embedder):
        index, store, cache, qrels = self._dataset(tmp_path)
        cfg = PipelineConfig(retrieve_k=3, eval_k=3)
        with pytest.raises(ValueError, match="5"):
            sweep("n_refs", [0, 5], cfg, index, store, embedder, cache, "m",
                  [("q1", "star")], qrels)

    def test_alpha_and_strategy_axes(self, tmp_path, embedder):
        index, store, cache, qrels = self._dataset(tmp_path)
        cfg = PipelineConfig(retrieve_k=3, eval_k=3)
        for axis, values in (("alpha", [0.0, 0.2]), ("strategy", ["mean_pool"]),
                             ("t", [0, 5])):
            results = sweep(axis, values, cfg, index, store, embedder, cache,
                            "m", [("q1", "star")], qrels)
            assert len(results) == len(values)

    def test_unknown_axis(self, tmp_path, embedder):
        index, store, cache, qrels = self._dataset(tmp_path)
        with pytest.raises(ValueError):
            sweep("bogus", [1], PipelineConfig(retrieve_k=3, eval_k=3), index,
                  store, embedder, cache, "m", [("q1", "star")], qrels)

    def test_table_formatting(self, tmp_path, embedder):
        index, store, cache, qrels = self._dataset(tmp_path)
        cfg = PipelineConfig(retrieve_k=3, eval_k=3)
        results = sweep("beta", [4.0], cfg, index, store, embedder, cache, "m",
                        [("q1", "star")], qrels)
        table = format_sweep_table("beta", results)
        assert "beta" in table and "4.0" in table


class TestPipelineConfig:
    def test_retrieve_k_at_least_eval_k(self):
        with pytest.raises(ValueError):
            PipelineConfig(retrieve_k=5, eval_k=10)


def test_synthetic_dataset_end_to_end_smoke(synthetic_dataset, embedder):
    ds = synthetic_dataset
    index = build_index(ds.documents)
    store = {d.doc_id: d for d in ds.documents}
    refs = {rs.query_id: rs for rs in ds.reference_sets}
    cfg = PipelineConfig()
    outs = [run_query_pipeline(qid, q, index, store, embedder, refs[qid], cfg)
            for qid, q in ds.queries[:5]]
    report = evaluate_run([o.post for o in outs], ds.qrels, 10)
    assert report.mean > 0.9


def _synthetic_run(ds):
    index = build_index(ds.documents)
    store = {d.doc_id: d for d in ds.documents}
    refs = {rs.query_id: rs for rs in ds.reference_sets}
    return index, store, refs


class _Cache:
    """Reference-cache stand-in over the synthetic reference sets."""

    def __init__(self, refs):
        self.refs = refs

    def get(self, query_id, model_id):
        return self.refs.get(query_id)


def test_no_references_is_plain_bm25_and_raw_query_rerank(synthetic_dataset, embedder):
    # the baseline written out stage by stage: plain query, then its candidates
    # reranked by the embedding of the query alone
    ds = synthetic_dataset
    index, store, _ = _synthetic_run(ds)
    cfg = PipelineConfig()
    for query_id, query in ds.queries:
        plain = bm25_search(index, cfg.bm25,
                            build_sparse_query(query, [], ReweightConfig.constant(t=1)),
                            cfg.retrieve_k)
        raw = rerank(embedder, embed_query(embedder, query, None, cfg.strategy),
                     [store[d] for d, _ in plain], index.field_policy)
        out = run_query_pipeline(query_id, query, index, store, embedder, None, cfg)
        assert out.bm25.items == tuple(plain)
        assert out.pre.items == tuple(raw)


class TestEmbeddingMemoInPipeline:
    def test_each_text_reaches_provider_once_per_run(self, synthetic_dataset, counting):
        ds = synthetic_dataset
        index, store, refs = _synthetic_run(ds)
        run_pipeline(ds.queries, index, store, counting, _Cache(refs), "m", PipelineConfig())
        sent = Counter(t for call in counting.calls for t in call)
        assert sent and max(sent.values()) == 1

    def test_query_dedupes_within_itself(self, synthetic_dataset, counting):
        ds = synthetic_dataset
        index, store, refs = _synthetic_run(ds)
        qid, query = ds.queries[0]
        run_query_pipeline(qid, query, index, store, counting, refs[qid], PipelineConfig())
        sent = Counter(t for call in counting.calls for t in call)
        assert max(sent.values()) == 1
        # calibration negatives are BM25-tail docs, already embedded by rerank
        assert len(counting.calls) <= 3  # query embedding, candidates, new positives

    def test_each_rerank_makes_at_most_one_provider_call(self, synthetic_dataset,
                                                         counting, monkeypatch):
        ds = synthetic_dataset
        index, store, refs = _synthetic_run(ds)
        per_stage = []

        def counted(stage):
            def wrapper(*args, **kwargs):
                before = len(counting.calls)
                result = stage(*args, **kwargs)
                per_stage.append(len(counting.calls) - before)
                return result
            return wrapper

        monkeypatch.setattr(pipeline, "rerank", counted(pipeline.rerank))
        monkeypatch.setattr(pipeline, "final_rank", counted(pipeline.final_rank))
        run_pipeline(ds.queries, index, store, counting, _Cache(refs), "m", PipelineConfig())
        assert len(per_stage) == 2 * len(ds.queries)
        assert max(per_stage) == 1

    def test_run_pipeline_equals_per_query_runs(self, synthetic_dataset, embedder):
        ds = synthetic_dataset
        index, store, refs = _synthetic_run(ds)
        cfg = PipelineConfig()
        batch = run_pipeline(ds.queries, index, store, embedder, _Cache(refs), "m", cfg)
        alone = [run_query_pipeline(qid, q, index, store, embedder, refs[qid], cfg)
                 for qid, q in ds.queries]
        assert batch == alone

    def test_no_memo_outlives_a_call(self, synthetic_dataset, counting):
        ds = synthetic_dataset
        index, store, refs = _synthetic_run(ds)
        queries = ds.queries[:3]
        run_pipeline(queries, index, store, counting, _Cache(refs), "m", PipelineConfig())
        first = Counter(t for call in counting.calls for t in call)
        counting.calls.clear()
        run_pipeline(queries, index, store, counting, _Cache(refs), "m", PipelineConfig())
        assert Counter(t for call in counting.calls for t in call) == first


class _TextPathProvider:
    """Exposes only the provider protocol of the wrapped provider: the text path."""

    def __init__(self, inner):
        self.embed = inner.embed
        self.embed_batch = inner.embed_batch


class _CountingHashingEmbedder(HashingEmbedder):
    """A HashingEmbedder recording the texts of every embed_batch call."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.texts: list[str] = []

    def embed_batch(self, texts):
        self.texts.extend(texts)
        return super().embed_batch(texts)


def _multi_block_run(field_policy):
    """A corpus of several build blocks, with titles, and two referenced queries."""
    docs = [Document(f"d{i:03d}", "Tïtle" if i % 4 == 0 else "",
                     f"w{i % 7} x{i % 11} é{i % 5} w{i % 7} y{i % 3} " + "z " * (i % 4))
            for i in range(3 * corpus._BLOCK_DOCS + 5)]
    refs = {"q1": ReferenceSet("q1", "w3 x5", ("w3 é2 y1", "x5 x5 z", "Tïtle w3"), "m"),
            "q2": ReferenceSet("q2", "é4 y2", ("é4 x1", "y2 w6 w6"), "m")}
    queries = [("q1", "w3 x5"), ("q2", "é4 y2")]
    return (queries, build_index(docs, field_policy=field_policy),
            {d.doc_id: d for d in docs}, refs)


class TestDocumentVectorsFromTheIndex:
    """A bare HashingEmbedder counts document vectors from the index's postings;
    any other provider embeds the documents' texts. The rankings are equal."""

    @pytest.fixture(params=["synthetic", *FIELD_POLICIES])
    def run(self, request, synthetic_dataset):
        if request.param == "synthetic":
            ds = synthetic_dataset
            index, store, refs = _synthetic_run(ds)
            return ds.queries, index, store, refs
        return _multi_block_run(request.param)

    def test_both_paths_rank_alike(self, run):
        queries, index, store, refs = run
        cfg = PipelineConfig(retrieve_k=20)
        rankings = {}
        for name, provider in (("index", HashingEmbedder(64, seed=9)),
                               ("text", _TextPathProvider(HashingEmbedder(64, seed=9)))):
            rankings[name, "batch"] = run_pipeline(queries, index, store, provider,
                                                   _Cache(refs), "m", cfg)
            rankings[name, "alone"] = [
                run_query_pipeline(qid, q, index, store, provider, refs[qid], cfg)
                for qid, q in queries]
        assert rankings["index", "batch"][0].post.items
        assert len(set(map(tuple, rankings.values()))) == 1

    def test_no_document_text_reaches_embed_batch(self, run):
        queries, index, store, refs = run
        provider = _CountingHashingEmbedder(64, seed=9)
        rankings = run_pipeline(queries, index, store, provider, _Cache(refs), "m",
                                PipelineConfig(retrieve_k=20))
        doc_texts = {d.indexed_text(index.field_policy) for d in store.values()}
        assert provider.texts and not doc_texts.intersection(provider.texts)
        assert rankings == run_pipeline(queries, index, store, HashingEmbedder(64, seed=9),
                                        _Cache(refs), "m", PipelineConfig(retrieve_k=20))

    def test_on_the_text_path_every_document_text_is_embedded(self, run):
        queries, index, store, refs = run
        cfg = PipelineConfig(retrieve_k=20)
        provider = _CountingHashingEmbedder(64, seed=9)
        rankings = run_pipeline(queries, index, store, _TextPathProvider(provider),
                                _Cache(refs), "m", cfg)
        candidates = {store[d].indexed_text(index.field_policy)
                      for r in rankings for d in r.bm25.doc_ids()}
        assert candidates and candidates <= set(provider.texts)
        assert provider._tables.get(index) is None
        assert rankings == run_pipeline(queries, index, store, HashingEmbedder(64, seed=9),
                                        _Cache(refs), "m", cfg)

    def test_bucket_table_built_once_per_index(self, run):
        queries, index, store, refs = run
        provider = HashingEmbedder(64, seed=9)
        run_pipeline(queries, index, store, provider, _Cache(refs), "m", PipelineConfig())
        table = provider._tables[index]
        for _ in range(2):
            run_pipeline(queries, index, store, provider, _Cache(refs), "m", PipelineConfig())
            for qid, q in queries:
                run_query_pipeline(qid, q, index, store, provider, refs[qid], PipelineConfig())
        assert provider._tables[index] is table and len(provider._tables) == 1


class TestFieldPolicy:
    def _titled(self):
        docs = [Document("rel", "zebra", "neutron star collapse gravity"),
                Document("near", "", "star gravity telescope"),
                Document("off", "", "cooking recipes pasta star")]
        return docs, build_index(docs, field_policy="text_only")

    def test_text_only_index_embeds_no_titles(self, embedder, counting):
        docs, index = self._titled()
        store = {d.doc_id: d for d in docs}
        refs = ReferenceSet("q1", "star", ("neutron star gravity",), "m")
        cfg = PipelineConfig(retrieve_k=3, eval_k=1,
                             calibration=CalibrationConfig(k_reciprocal=3,
                                                           num_negatives=3))
        out = run_query_pipeline("q1", "star", index, store, counting, refs, cfg)
        sent = [t for call in counting.calls for t in call]
        assert "neutron star collapse gravity" in sent
        assert not any("zebra" in t for t in sent)
        # the rankings are those of an untitled corpus
        plain = [Document(d.doc_id, "", d.text) for d in docs]
        expected = run_query_pipeline("q1", "star", build_index(plain),
                                      {d.doc_id: d for d in plain}, embedder, refs, cfg)
        assert out == expected

    def test_keyword_overlap_follows_field_policy(self):
        docs, index = self._titled()
        refs = ReferenceSet("q1", "q", ("neutron",), "m")
        rep = keyword_overlap("q", refs, [docs[0]], index, m=10)
        assert "zebra" not in rep.gt_top


def _save_with_wide_columns(index, path):
    """Save ``index`` with every count and position column wider than it needs:
    int32 ``doc_ordinals`` and ``tf_values``, int64 ``dfs``, ``tf_positions``,
    ``doc_lengths`` and string lengths."""
    save_index(index, path)
    with np.load(path) as npz:
        arrays = {k: npz[k] for k in npz.files}
    for key, dtype in [("doc_ordinals", np.int32), ("tf_values", np.int32),
                       ("dfs", np.int64), ("tf_positions", np.int64),
                       ("doc_lengths", np.int64), ("doc_id_lengths", np.int64),
                       ("term_lengths", np.int64)]:
        arrays[key] = arrays[key].astype(dtype)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def test_int32_index_loads_and_gives_identical_run_files(synthetic_dataset, tmp_path):
    ds = synthetic_dataset
    index, store, refs = _synthetic_run(ds)
    save_index(index, tmp_path / "narrow.npz")
    _save_with_wide_columns(index, tmp_path / "int32.npz")
    run_files = {}
    for name in ("narrow", "int32"):
        loaded = load_index(tmp_path / f"{name}.npz")
        assert loaded.doc_ordinals.dtype == (np.int32 if name == "int32" else np.uint16)
        assert loaded.tfs.dtype == np.uint8 and loaded.doc_lengths.dtype == np.int32
        rankings = run_pipeline(ds.queries, loaded, store, HashingEmbedder(64, seed=1),
                                _Cache(refs), "m", PipelineConfig())
        for stage in ("bm25", "pre", "post"):
            path = tmp_path / f"{name}.{stage}.run"
            write_run(path, [getattr(r, stage) for r in rankings], tag=stage)
            run_files[name, stage] = path.read_bytes()
    assert run_files["narrow", "bm25"]
    for stage in ("bm25", "pre", "post"):
        assert run_files["int32", stage] == run_files["narrow", stage], stage
