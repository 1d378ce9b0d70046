import math
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from queryboost.corpus import Document, build_index
from queryboost.sparse import (BM25Params, ReweightConfig, SparseQuery, bm25_search,
                               build_sparse_query, compute_lambda, idf)
from queryboost.tokenizer import tokenize


def oracle_bm25(docs, params, query_tokens):
    """Direct evaluation of the scoring formula from raw documents.

    Independent of the inverted index: recomputes df, avgdl, and tf from the
    token streams.
    """
    token_lists = {d.doc_id: tokenize(f"{d.title} {d.text}") for d in docs}
    n = len(docs)
    avgdl = sum(len(t) for t in token_lists.values()) / n if n else 0.0
    df = Counter()
    for toks in token_lists.values():
        df.update(set(toks))

    scores = {}
    for doc_id, toks in token_lists.items():
        tf = Counter(toks)
        s = 0.0
        for q in query_tokens:  # one summand per query token occurrence
            t = tf[q]
            if t == 0:
                continue
            w = math.log(1 + (n - df[q] + 0.5) / (df[q] + 0.5))
            denom = t + params.k1 * (1 - params.b + params.b * len(toks) / avgdl)
            s += w * t * (params.k1 + 1) / denom
        scores[doc_id] = s
    return scores


class TestIdf:
    def test_df1_of_2(self):
        idx = build_index([Document("a", "", "x"), Document("b", "", "y")])
        assert idf(idx, "x") == pytest.approx(math.log(2), abs=1e-12)

    def test_df1_of_1(self):
        idx = build_index([Document("a", "", "x")])
        assert idf(idx, "x") == pytest.approx(math.log(4 / 3), abs=1e-12)

    def test_unseen_term(self):
        idx = build_index([Document(f"d{i}", "", "x") for i in range(10)])
        assert idf(idx, "zzz") == pytest.approx(math.log(22), abs=1e-12)

    def test_nonnegative_for_all_df(self):
        docs = [Document(f"d{i}", "", "common") for i in range(10)]
        idx = build_index(docs)
        assert idf(idx, "common") >= 0.0


def search_scores(index, params, tokens, top_k=1000):
    sq = SparseQuery(tokens=tuple(tokens), query_repeats=1, num_references=0)
    return dict(bm25_search(index, params, sq, top_k))


class TestBm25Score:
    """The scores bm25_search returns, against the direct formula in oracle_bm25."""

    def test_no_overlap_is_zero(self, small_docs, small_index):
        assert search_scores(small_index, BM25Params(), ["zebra"]) == {}
        assert set(oracle_bm25(small_docs, BM25Params(), ["zebra"]).values()) == {0.0}

    def test_matches_direct_oracle(self, small_docs, small_index):
        params = BM25Params(k1=0.9, b=0.4)
        expected = oracle_bm25(small_docs, params, ["cat"])
        got = search_scores(small_index, params, ["cat"])
        for doc_id in ("d1", "d2", "d3"):
            assert got.get(doc_id, 0.0) == pytest.approx(expected[doc_id], abs=1e-9)

    def test_duplicate_query_token_doubles_score(self, small_docs, small_index):
        params = BM25Params()
        single = search_scores(small_index, params, ["cat"])["d1"]
        double = search_scores(small_index, params, ["cat", "cat"])["d1"]
        assert double == pytest.approx(2 * single, abs=1e-12)
        assert double == pytest.approx(
            oracle_bm25(small_docs, params, ["cat", "cat"])["d1"], abs=1e-9)

    def test_unknown_doc_id(self, small_docs, small_index):
        assert "nope" not in small_index.doc_ids
        got = search_scores(small_index, BM25Params(), ["cat", "sat", "dog"])
        expected = oracle_bm25(small_docs, BM25Params(), ["cat", "sat", "dog"])
        assert set(got) == {d for d, s in expected.items() if s > 0}

    def test_b_zero_ignores_doc_length(self):
        docs = [Document("short", "", "cat"),
                Document("long", "", "cat " + "pad " * 30)]
        idx = build_index(docs)
        params = BM25Params(k1=0.9, b=0.0)
        got = search_scores(idx, params, ["cat"])
        assert got["short"] == pytest.approx(got["long"], abs=1e-12)
        assert got["short"] == pytest.approx(oracle_bm25(docs, params, ["cat"])["short"],
                                             abs=1e-9)


def exhaustive_bm25(docs, params, query_tokens, top_k):
    """Score every document, in bm25_search's float order, and rank.

    Per document, the summands follow the distinct query terms in order of
    first appearance, each computed as ((q * idf) * tf) * (k1 + 1) / (tf + k1 *
    norm); that is the order the vectorized search must reproduce bit for bit.
    """
    token_lists = {d.doc_id: tokenize(d.indexed_text()) for d in docs}
    n = len(docs)
    avgdl = sum(map(len, token_lists.values())) / n if n else 0.0
    df = Counter(t for toks in token_lists.values() for t in set(toks))
    ranked = []
    for doc_id, toks in token_lists.items():
        tf = Counter(toks)
        norm = 1.0 - params.b + (params.b * len(toks) / avgdl if avgdl > 0 else 0.0)
        score = 0.0
        for term, q_count in Counter(query_tokens).items():
            if tf[term]:
                w = math.log(1.0 + (n - df[term] + 0.5) / (df[term] + 0.5))
                score += q_count * w * tf[term] * (params.k1 + 1.0) / (
                    tf[term] + params.k1 * norm)
        if score > 0.0:
            ranked.append((doc_id, score))
    ranked.sort(key=lambda ds: (-ds[1], ds[0]))
    return ranked[:top_k]


words = st.sampled_from(["x", "y", "z", "w", "v", "u"])


@given(doc_ids=st.lists(st.text(alphabet="abc", min_size=1, max_size=3), unique=True,
                        max_size=12),
       texts=st.lists(st.lists(words, max_size=8).map(" ".join), min_size=12, max_size=12),
       query=st.lists(st.sampled_from(["x", "y", "z", "w", "v", "u", "unindexed"]),
                      min_size=1, max_size=12),
       k1=st.floats(min_value=0.0, max_value=3.0),
       b=st.floats(min_value=0.0, max_value=1.0),
       extra_k=st.integers(min_value=-12, max_value=3))
def test_bm25_search_equals_exhaustive_scorer(doc_ids, texts, query, k1, b, extra_k):
    # Few words and short texts: tied scores are common, some documents are
    # empty (all of them, sometimes: avgdl == 0), and the index may be empty.
    docs = [Document(doc_id, "", text) for doc_id, text in zip(doc_ids, texts)]
    params = BM25Params(k1=k1, b=b)
    top_k = max(1, len(docs) + extra_k)
    sq = SparseQuery(tokens=tuple(query), query_repeats=1, num_references=0)
    assert bm25_search(build_index(docs), params, sq, top_k) == exhaustive_bm25(
        docs, params, query, top_k)


def random_corpus(rng, max_docs=50, max_len=8, vocab="abcdefgh"):
    n = rng.randint(1, max_docs)
    return [Document(f"d{i:03d}", "",
                     " ".join(rng.choice(vocab) for _ in range(rng.randint(0, max_len))))
            for i in range(n)]


class TestBm25Search:
    def test_single_doc(self):
        idx = build_index([Document("d1", "", "cat sat")])
        sq = SparseQuery(tokens=("cat",), query_repeats=1, num_references=0)
        assert len(bm25_search(idx, BM25Params(), sq, 10)) == 1

    def test_tie_broken_by_doc_id(self):
        docs = [Document("b", "", "cat sat"), Document("a", "", "cat sat")]
        idx = build_index(docs)
        sq = SparseQuery(tokens=("cat",), query_repeats=1, num_references=0)
        assert [d for d, _ in bm25_search(idx, BM25Params(), sq, 10)] == ["a", "b"]

    def test_top_k_bounds(self, small_index):
        sq = SparseQuery(tokens=("sat",), query_repeats=1, num_references=0)
        assert len(bm25_search(small_index, BM25Params(), sq, 1)) == 1
        with pytest.raises(ValueError):
            bm25_search(small_index, BM25Params(), sq, 0)

    def test_empty_index_returns_empty(self):
        idx = build_index([])
        sq = SparseQuery(tokens=("cat",), query_repeats=1, num_references=0)
        assert bm25_search(idx, BM25Params(), sq, 5) == []

    def test_matches_exhaustive_oracle_random(self):
        rng = random.Random(11)
        params = BM25Params()
        for _ in range(30):
            docs = random_corpus(rng)
            idx = build_index(docs)
            q_tokens = tuple(rng.choice("abcdefghz") for _ in range(rng.randint(1, 5)))
            sq = SparseQuery(tokens=q_tokens, query_repeats=1, num_references=0)
            top_k = rng.randint(1, len(docs) + 2)
            got = bm25_search(idx, params, sq, top_k)

            expected = oracle_bm25(docs, params, list(q_tokens))
            exp_order = sorted(((d, s) for d, s in expected.items() if s > 0),
                               key=lambda ds: (-ds[1], ds[0]))[:top_k]
            assert [d for d, _ in got] == [d for d, _ in exp_order]
            for (_, s_got), (_, s_exp) in zip(got, exp_order):
                assert s_got == pytest.approx(s_exp, abs=1e-9)

    def test_idf_scaling_leaves_order_unchanged(self, small_docs):
        # Scaling every idf by c > 0 scales every score by c; argsort is
        # unchanged, so compare against scores scaled post hoc.
        idx = build_index(small_docs)
        sq = SparseQuery(tokens=("cat", "sat"), query_repeats=1, num_references=0)
        base = bm25_search(idx, BM25Params(), sq, 10)
        scaled = sorted(((d, 3.7 * s) for d, s in base), key=lambda ds: (-ds[1], ds[0]))
        assert [d for d, _ in scaled] == [d for d, _ in base]


class TestComputeLambda:
    def test_basic(self):
        refs = [" ".join(["w"] * 400)]
        q = " ".join(["q"] * 20)
        assert compute_lambda(refs, q, beta=4) == 5

    def test_five_refs(self):
        refs = [" ".join(["w"] * 100)] * 5
        q = " ".join(["q"] * 25)
        assert compute_lambda(refs, q, beta=4) == 5

    def test_clamped_to_min(self):
        refs = [" ".join(["w"] * 100)]
        q = " ".join(["q"] * 30)
        assert compute_lambda(refs, q, beta=4) == 1

    def test_zero_token_query_rejected(self):
        with pytest.raises(ValueError):
            compute_lambda(["some ref"], "!!!", beta=4)

    def test_bad_beta(self):
        with pytest.raises(ValueError):
            compute_lambda(["r"], "q", beta=0)

    @given(st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=8),
           st.integers(min_value=1, max_value=40),
           st.floats(min_value=0.5, max_value=10))
    def test_monotone_in_reference_length(self, ref_lens, q_len, beta):
        q = " ".join(["q"] * q_len)
        refs = [" ".join(["w"] * n) for n in ref_lens]
        lam = compute_lambda(refs, q, beta)
        assert lam == max(1, math.floor(sum(ref_lens) / (q_len * beta)))
        # adding a reference never decreases the repetition count
        assert compute_lambda(refs + ["w w w"], q, beta) >= lam


class TestBuildSparseQuery:
    def test_adaptive_single_repeat(self):
        sq = build_sparse_query("a b", ["c d e f g h i j"],
                                ReweightConfig.adaptive(beta=4))
        assert sq.query_repeats == 1
        assert Counter(sq.tokens) == Counter("abcdefghij")

    def test_constant_repetition(self):
        sq = build_sparse_query("a", ["x y"], ReweightConfig.constant(t=5))
        assert sq.query_repeats == 5
        assert Counter(sq.tokens)["a"] == 5
        assert Counter(sq.tokens)["x"] == 1

    def test_constant_zero_keeps_only_references(self):
        sq = build_sparse_query("a", ["x y"], ReweightConfig.constant(t=0))
        assert Counter(sq.tokens) == Counter({"x": 1, "y": 1})

    def test_adaptive_requires_references(self):
        with pytest.raises(ValueError):
            build_sparse_query("a", [], ReweightConfig.adaptive(beta=4))

    def test_multiset_identity(self):
        refs = ["cat dog", "dog bird"]
        sq = build_sparse_query("cat", refs, ReweightConfig.constant(t=2))
        expected = Counter({"cat": 3, "dog": 2, "bird": 1})
        assert Counter(sq.tokens) == expected
        assert sq.num_references == 2


class TestConfigs:
    def test_bm25_param_validation(self):
        with pytest.raises(ValueError):
            BM25Params(k1=-1)
        with pytest.raises(ValueError):
            BM25Params(b=1.5)

    def test_reweight_exactly_one_strategy(self):
        with pytest.raises(ValueError):
            ReweightConfig(beta=4.0, t=5)
        with pytest.raises(ValueError):
            ReweightConfig(beta=None, t=None)
