import random

import numpy as np
import pytest

from queryboost.embedding import EmbeddingMemo, RemoteEmbedder, cosine_sim
from queryboost.generation import ReferenceSet
from queryboost.rerank import STRATEGIES, embed_query, rerank


def make_refs(*texts):
    return ReferenceSet("q1", "q", tuple(texts), "m")


class TestConcat:
    def test_equals_joined_embed(self, embedder):
        refs = make_refs("r1 words")
        got = embed_query(embedder, "q text", refs, "concat")
        np.testing.assert_array_equal(got, embedder.embed("q text r1 words"))

    def test_truncation_keeps_query(self, http_stub):
        http_stub.script = [(200, lambda body: {"embeddings": [[1.0] * 8] * len(body["input"])})]
        emb = RemoteEmbedder(http_stub.url, dimension=8)
        emb.max_input_tokens = 3
        embed_query(emb, "query words", make_refs("verylong reference body here"), "concat")
        assert http_stub.requests == [{"input": ["query words verylong"]}]

    def test_order_sensitive(self, counting):
        # the two concatenations hold the same tokens, so the hashing embedder
        # cannot tell them apart; the texts it is given differ
        embed_query(counting, "q", make_refs("aa bb", "cc"), "concat")
        embed_query(counting, "q", make_refs("cc", "aa bb"), "concat")
        assert counting.calls == [["q aa bb cc"], ["q cc aa bb"]]


class TestMeanPool:
    def test_identical_vectors(self, embedder):
        refs = make_refs("same text", "same text")
        got = embed_query(embedder, "same text", refs, "mean_pool")
        np.testing.assert_allclose(got, embedder.embed("same text"))

    def test_two_orthonormal(self, embedder):
        refs = make_refs("dog")
        got = embed_query(embedder, "cat", refs, "mean_pool")
        expected = (embedder.embed("cat") + embedder.embed("dog")) / 2
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_permutation_invariant(self, embedder):
        a = embed_query(embedder, "q", make_refs("r one", "r two", "r three"), "mean_pool")
        b = embed_query(embedder, "q", make_refs("r three", "r one", "r two"), "mean_pool")
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_norm_bounded_by_one(self, embedder):
        got = embed_query(embedder, "cat", make_refs("dog", "bird"), "mean_pool")
        assert np.linalg.norm(got) <= 1.0 + 1e-12


class TestContexPool:
    def test_single_ref_equals_concat(self, embedder):
        refs = make_refs("only ref")
        got = embed_query(embedder, "the query", refs, "contex_pool")
        np.testing.assert_array_equal(got, embedder.embed("the query only ref"))
        np.testing.assert_array_equal(got, embed_query(embedder, "the query", refs, "concat"))

    def test_permutation_invariant(self, embedder):
        a = embed_query(embedder, "q", make_refs("r one", "r two"), "contex_pool")
        b = embed_query(embedder, "q", make_refs("r two", "r one"), "contex_pool")
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_two_refs_hand_mean(self, embedder):
        refs = make_refs("alpha", "beta")
        got = embed_query(embedder, "q", refs, "contex_pool")
        expected = (embedder.embed("q alpha") + embedder.embed("q beta")) / 2
        np.testing.assert_allclose(got, expected, atol=1e-12)


class TestEmbedQuery:
    def test_no_refs_falls_back_to_raw_query(self, embedder):
        for strategy in STRATEGIES:
            got = embed_query(embedder, "raw query", None, strategy)
            np.testing.assert_array_equal(got, embedder.embed("raw query"))

    def test_unknown_strategy(self, embedder):
        with pytest.raises(ValueError, match="unknown integration strategy: 'bogus'"):
            embed_query(embedder, "q", make_refs("r"), "bogus")

    @pytest.mark.parametrize("strategy, refs, texts", [
        ("concat", ("r1", "r2"), ["q r1 r2"]),
        ("mean_pool", ("r1", "r2"), ["q", "r1", "r2"]),
        ("contex_pool", ("r1", "r2"), ["q r1", "q r2"]),
        ("contex_pool", None, ["q"]),
    ])
    def test_one_provider_call_of_the_strategy_texts(self, embedder, counting,
                                                     strategy, refs, texts):
        got = embed_query(counting, "q", refs and make_refs(*refs), strategy)
        assert counting.calls == [texts]
        assert got.tobytes() == np.mean(embedder.embed_batch(texts), axis=0).tobytes()


class TestRerank:
    def test_single_candidate(self, embedder):
        q = embedder.embed("some text")
        out = rerank(embedder, q, {"d1": "some text"})
        assert len(out) == 1
        assert out[0][1] == pytest.approx(
            cosine_sim(q, embedder.embed("some text")))

    def test_identical_text_ranks_first(self, embedder):
        texts = {"d1": "zebra quagga okapi", "d2": "query text exact",
                 "d3": "other unrelated words"}
        out = rerank(embedder, embedder.embed("query text exact"), texts)
        assert out[0][0] == "d2"

    def test_matches_brute_force(self, embedder):
        rng = random.Random(5)
        vocab = ["cat", "dog", "fish", "bird", "tree", "rock"]
        texts = {f"d{i}": " ".join(rng.choices(vocab, k=4)) for i in range(20)}
        q_emb = embedder.embed("cat tree")
        out = rerank(embedder, q_emb, texts)

        expected = sorted(
            ((doc_id, cosine_sim(q_emb, embedder.embed(text))) for doc_id, text in texts.items()),
            key=lambda ds: (-ds[1], ds[0]))
        assert [d for d, _ in out] == [d for d, _ in expected]

    def test_is_permutation(self, embedder):
        texts = {f"d{i}": f"word{i} cat" for i in range(10)}
        out = rerank(embedder, embedder.embed("cat"), texts)
        assert sorted(d for d, _ in out) == sorted(texts)

    def test_empty_candidates_rejected(self, embedder):
        with pytest.raises(ValueError, match="candidates must be non-empty"):
            rerank(embedder, embedder.embed("q"), {})

    def test_provider_failure_names_doc(self, embedder):
        with pytest.raises(RuntimeError, match="dbad"):
            rerank(embedder, embedder.embed("q"), {"dbad": "..."})  # tokenizes to nothing

    def test_one_provider_call_for_all_candidates(self, embedder, counting):
        texts = {f"d{i}": f"word{i} cat" for i in range(7)}
        rerank(counting, embedder.embed("cat"), texts)
        assert counting.calls == [list(texts.values())]

    def test_memo_reused_across_reranks(self, embedder, counting):
        memo = EmbeddingMemo(counting)
        texts = {"d1": "cat", "d2": "dog", "d2dup": "dog"}
        first = rerank(memo, embedder.embed("cat"), texts)
        assert counting.calls == [["cat", "dog"]]  # duplicate text sent once
        second = rerank(memo, embedder.embed("cat"), texts)
        assert counting.calls == [["cat", "dog"]]  # second pass is served by the memo
        assert second == first == rerank(embedder, embedder.embed("cat"), texts)

    def test_batch_failure_names_docs_and_stores_nothing(self, embedder, counting):
        memo = EmbeddingMemo(counting)
        texts = {"d1": "cat", "d2": "dog"}
        counting.fail = True
        with pytest.raises(RuntimeError, match="'d1', 'd2'.*service unavailable"):
            rerank(memo, embedder.embed("cat"), texts)
        counting.fail = False
        rerank(memo, embedder.embed("cat"), texts)
        assert counting.calls == [["cat", "dog"], ["cat", "dog"]]

    def test_ties_broken_by_doc_id(self, embedder):
        texts = {"d3": "cat dog", "d1": "cat dog", "d2": "dog cat"}
        out = rerank(embedder, embedder.embed("cat"), texts)
        assert [d for d, _ in out] == ["d1", "d2", "d3"]
