"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a pass/fail line on the
real terminal (bypassing capture) so the gate's verdict is visible in any
pytest invocation.
"""

import math
import random
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from queryboost.calibration import (CalibrationConfig, FeedbackSets, RocchioWeights,
                                    calibrate, rocchio_classic)
from queryboost.corpus import Document, build_index
from queryboost.evaluation import (Ranking, evaluate_run, ndcg_at_k, read_qrels,
                                   read_run, write_run)
from queryboost.generation import ReferenceCache, ReferenceSet
from queryboost.pipeline import PipelineConfig, keyword_overlap, run_query_pipeline
from queryboost.rerank import embed_query, rerank
from queryboost.sparse import (BM25Params, ReweightConfig, SparseQuery, bm25_search,
                               build_sparse_query, compute_lambda)
from queryboost.tokenizer import tokenize


@contextmanager
def criterion(number, capsys, note="pass"):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number}: fail")
        raise
    with capsys.disabled():
        print(f"criterion {number}: {note}")


def oracle_bm25(docs, params, query_tokens):
    """Exhaustive direct evaluation of the scoring formula from raw documents."""
    lengths = {d.doc_id: len(tokenize(d.indexed_text("title_plus_text"))) for d in docs}
    n = len(docs)
    avgdl = sum(lengths.values()) / n if n else 0.0
    df = {}
    for d in docs:
        for term in set(tokenize(d.indexed_text("title_plus_text"))):
            df[term] = df.get(term, 0) + 1
    scored = []
    for d in docs:
        toks = tokenize(d.indexed_text("title_plus_text"))
        score = 0.0
        for q in query_tokens:  # one summand per occurrence
            tf = toks.count(q)
            if tf == 0:
                continue
            idf = math.log(1 + (n - df.get(q, 0) + 0.5) / (df.get(q, 0) + 0.5))
            norm = tf + params.k1 * (1 - params.b + params.b * lengths[d.doc_id] / avgdl)
            score += idf * tf * (params.k1 + 1) / norm
        if score > 0:
            scored.append((d.doc_id, score))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored


def test_criterion_1_bm25_oracle_equivalence(capsys):
    with criterion(1, capsys):
        rng = random.Random(41)
        vocab = [f"w{i}" for i in range(30)]
        params = BM25Params()
        start = time.monotonic()
        for case in range(200):
            docs = [Document(f"d{i}", "", " ".join(rng.choices(vocab,
                                                               k=rng.randint(1, 8))))
                    for i in range(rng.randint(1, 50))]
            index = build_index(docs)
            q_tokens = tuple(rng.choices(vocab, k=rng.randint(1, 6)))
            query = SparseQuery(tokens=Counter(q_tokens), query_repeats=1, num_references=0)
            got = bm25_search(index, params, query, top_k=len(docs))
            want = oracle_bm25(docs, params, q_tokens)
            assert [d for d, _ in got] == [d for d, _ in want]
            for (_, a), (_, b) in zip(got, want):
                assert abs(a - b) <= 1e-9
        assert time.monotonic() - start < 5.0


def test_criterion_2_adaptive_reweight_table(capsys):
    with criterion(2, capsys):
        def words(n):
            return " ".join(f"t{i}" for i in range(n))

        cases = []  # (total ref tokens split across refs, query tokens, beta, expected)
        for total, qlen, beta in [(8, 2, 4.0), (16, 2, 4.0), (24, 2, 4.0),
                                  (9, 2, 4.0), (7, 2, 4.0), (100, 30, 4.0),
                                  (12, 3, 4.0), (40, 2, 4.0), (60, 3, 4.0),
                                  (5, 5, 1.0), (25, 5, 1.0), (30, 2, 2.0),
                                  (31, 2, 2.0), (1, 1, 4.0), (400, 10, 4.0),
                                  (18, 6, 3.0), (17, 6, 3.0), (90, 9, 2.0),
                                  (3, 4, 0.5), (64, 8, 8.0)]:
            cases.append((total, qlen, beta,
                          max(1, math.floor(total / (qlen * beta)))))
        assert len(cases) == 20
        assert (100, 30, 4.0, 1) in cases  # the clamp case
        for total, qlen, beta, expected in cases:
            refs = [words(total - total // 2), words(total // 2)]
            lam = compute_lambda(refs, words(qlen), beta)
            assert lam == expected
            assert isinstance(lam, int)


def test_criterion_3_integration_strategy_algebra(capsys, embedder):
    with criterion(3, capsys):
        refs3 = ReferenceSet("q", "the query", ("ref one", "ref two", "ref three"), "m")
        perm = ReferenceSet("q", "the query", ("ref three", "ref one", "ref two"), "m")
        for strategy in ("mean_pool", "contex_pool"):
            a = embed_query(embedder, "the query", refs3, strategy)
            b = embed_query(embedder, "the query", perm, strategy)
            np.testing.assert_allclose(a, b, atol=1e-9)

        ref1 = ReferenceSet("q", "the query", ("sole reference",), "m")
        np.testing.assert_array_equal(
            embed_query(embedder, "the query", ref1, "contex_pool"),
            embedder.embed("the query sole reference"))

        same = ReferenceSet("q", "same text", ("same text", "same text"), "m")
        np.testing.assert_allclose(embed_query(embedder, "same text", same, "mean_pool"),
                                   embedder.embed("same text"), atol=1e-12)


def test_criterion_4_calibration_reductions(capsys, embedder):
    with criterion(4, capsys):
        # alpha = 0 scales the positive mean by |positives| / W.
        fb = FeedbackSets(positives=("p one", "p two", "p three"),
                          negatives=("n one", "n two"))
        out = calibrate(embedder, "q", fb, CalibrationConfig(alpha=0.0))
        pos_mean = np.mean([embedder.embed(f"q {p}") for p in fb.positives], axis=0)
        np.testing.assert_allclose(out, (len(fb.positives) / fb.w) * pos_mean,
                                   atol=1e-9)

        e = embedder.embed("any query")
        np.testing.assert_array_equal(
            rocchio_classic(e, [], [], RocchioWeights(1, 0, 0)), e)

        # Full-pipeline reduction: with alpha=0, an empty reciprocal set, no
        # negatives, and a single reference under contex_pool, the calibrated
        # embedding equals the pre-calibration one, so I_post == I_pre.
        docs = [Document("lex", "", "apple apple apple apple orchard"),
                Document("sem", "", "apple fruit crisp harvest"),
                Document("bg", "", "unrelated words entirely")]
        index = build_index(docs)
        store = {d.doc_id: d for d in docs}
        refs = ReferenceSet("q1", "apple", ("fruit crisp harvest",), "m")
        cfg = PipelineConfig(
            reweight=ReweightConfig.constant(t=20),
            calibration=CalibrationConfig(alpha=0.0, k_reciprocal=1,
                                          num_negatives=0),
            retrieve_k=3)
        out = run_query_pipeline("q1", "apple", index, store, embedder, refs, cfg)
        assert out.bm25.items[0][0] != out.pre.items[0][0]  # tops disjoint
        assert out.post == out.pre


def test_criterion_5_ndcg_correctness(capsys):
    with criterion(5, capsys):
        qrels = {"q": {"d1": 3, "d2": 2, "d3": 1}}
        perfect = Ranking("q", (("d1", 3.0), ("d2", 2.0), ("d3", 1.0)))
        assert ndcg_at_k(perfect, qrels, 10) == 1.0

        rank2 = Ranking("q", (("dx", 2.0), ("dgood", 1.0)))
        assert ndcg_at_k(rank2, {"q": {"dgood": 1}}, 10) == pytest.approx(
            0.6309, abs=1e-4)

        rng = random.Random(17)
        for _ in range(100):
            doc_ids = [f"d{i}" for i in range(8)]
            judged = {rng.choice(doc_ids): rng.randint(1, 3)}
            rng.shuffle(doc_ids)
            scores = sorted((rng.uniform(0, 10) for _ in doc_ids), reverse=True)
            r1 = Ranking("q", tuple(zip(doc_ids, scores)))
            r2 = Ranking("q", tuple(zip(doc_ids, [5 * s + 2 for s in scores])))
            assert ndcg_at_k(r1, {"q": judged}, 5) == ndcg_at_k(r2, {"q": judged}, 5)


def _synthetic_runs(ds, embedder):
    index = build_index(ds.documents)
    store = {d.doc_id: d for d in ds.documents}
    refs = {rs.query_id: rs for rs in ds.reference_sets}
    cfg = PipelineConfig()
    params, reweight = cfg.bm25, cfg.reweight

    plain_bm25, expanded_bm25, baseline_rerank, pre, post = [], [], [], [], []
    for query_id, query in ds.queries:
        plain_items = bm25_search(index, params,
                                  build_sparse_query(query, [],
                                                     ReweightConfig.constant(t=1)),
                                  cfg.retrieve_k)
        plain_bm25.append(Ranking(query_id, tuple(plain_items)))
        raw_emb = embed_query(embedder, query, None, cfg.strategy)
        candidates = {d: store[d].indexed_text(index.field_policy) for d, _ in plain_items}
        baseline_rerank.append(Ranking(query_id,
                                       tuple(rerank(embedder, raw_emb, candidates))))
        out = run_query_pipeline(query_id, query, index, store, embedder,
                                 refs[query_id], cfg)
        expanded_bm25.append(out.bm25)
        pre.append(out.pre)
        post.append(out.post)
    return {name: evaluate_run(run, ds.qrels, 10).mean
            for name, run in [("plain_bm25", plain_bm25), ("expanded_bm25", expanded_bm25),
                              ("baseline_rerank", baseline_rerank),
                              ("pre", pre), ("post", post)]}


def test_criterion_6_end_to_end_improvement(capsys, synthetic_dataset, embedder):
    with criterion(6, capsys):
        start = time.monotonic()
        means = _synthetic_runs(synthetic_dataset, embedder)
        assert means["expanded_bm25"] > means["plain_bm25"] + 0.05
        assert means["post"] >= means["pre"] >= means["baseline_rerank"]
        assert time.monotonic() - start < 60.0


def test_criterion_7_keyword_overlap_mechanism(capsys, synthetic_dataset):
    with criterion(7, capsys):
        ds = synthetic_dataset
        index = build_index(ds.documents)
        store = {d.doc_id: d for d in ds.documents}
        refs = {rs.query_id: rs for rs in ds.reference_sets}
        gt_pse, gt_query = [], []
        for query_id, query in ds.queries:
            gt_docs = [store[d] for d, g in ds.qrels[query_id].items() if g > 0]
            rep = keyword_overlap(query, refs[query_id], gt_docs, index, m=10)
            gt_pse.append(rep.gt_pse_overlap)
            gt_query.append(rep.gt_query_overlap)
        assert sum(gt_pse) / len(gt_pse) > sum(gt_query) / len(gt_query)


def test_criterion_8_scifact_optional(capsys):
    with capsys.disabled():
        print("criterion 8: skip (requires external corpus, generation, and "
              "embedding services; not part of the offline gate)")
    pytest.skip("requires external services")


def test_criterion_9_file_format_round_trips(capsys, tmp_path):
    with criterion(9, capsys):
        rng = random.Random(23)
        ids = lambda prefix: f"{prefix}{rng.randint(0, 99999)}"
        words = ["alpha", "beta", "gamma", "delta", "état", "żółw", "query"]

        for case in range(400):  # qrels
            qrels = {}
            for _ in range(rng.randint(1, 5)):
                qid = ids("q")
                qrels.setdefault(qid, {})
                for _ in range(rng.randint(1, 6)):
                    qrels[qid][ids("d")] = rng.randint(0, 3)
            path = tmp_path / "f.qrels"
            with open(path, "w", encoding="utf-8") as fh:
                for qid, grades in qrels.items():
                    for did, grade in grades.items():
                        fh.write(f"{qid} 0 {did} {grade}\n")
            assert read_qrels(path) == qrels

        for case in range(400):  # runs, byte order preserved
            run = []
            for _ in range(rng.randint(1, 4)):
                n = rng.randint(1, 10)
                scores = sorted((round(rng.uniform(-5, 20), 6) for _ in range(n)),
                                reverse=True)
                items = tuple((f"d{i:04d}", s) for i, s in enumerate(scores))
                run.append(Ranking(ids("q"), items))
            path = tmp_path / "f.run"
            write_run(path, run)
            first = path.read_bytes()
            got = read_run(path)
            assert [(r.query_id, r.doc_ids()) for r in got] == \
                [(r.query_id, r.doc_ids()) for r in run]
            write_run(path, got)
            assert path.read_bytes() == first

        for case in range(200):  # reference cache
            path = tmp_path / f"c{case}.jsonl"
            cache = ReferenceCache(path)
            expected = {}
            for _ in range(rng.randint(1, 5)):
                rs = ReferenceSet(ids("q"), " ".join(rng.choices(words, k=3)),
                                  tuple(" ".join(rng.choices(words, k=5))
                                        for _ in range(rng.randint(1, 4))),
                                  ids("m"))
                cache.put(rs)
                expected[(rs.query_id, rs.model_id)] = rs
            reloaded = ReferenceCache(path)
            for (qid, mid), rs in expected.items():
                assert reloaded.get(qid, mid) == rs
