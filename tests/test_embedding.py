import hashlib
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from queryboost import service
from queryboost.corpus import FIELD_POLICIES, Document, build_index, load_index, save_index
from queryboost.embedding import (EmbeddingMemo, HashingEmbedder, RemoteEmbedder,
                                  cosine_scores, cosine_sim, truncate_text)
from queryboost.service import ServiceError
from queryboost.tokenizer import _TOKEN_RE, tokenize
from test_corpus import coded, corpora


def _definition_vectors(texts, dimension, seed):
    """The hashing embedding text by text and token by token.

    Keyed blake2b bucket per regex token, integer counts, L2 norm.
    """
    vectors = []
    for text in texts:
        counts = np.zeros(dimension)
        for token in _TOKEN_RE.findall(text.lower()):
            digest = hashlib.blake2b(token.encode("utf-8"), key=seed.to_bytes(8, "little"),
                                     digest_size=8).digest()
            counts[int.from_bytes(digest, "little") % dimension] += 1.0
        vectors.append(counts / np.linalg.norm(counts))
    return vectors


# Words that each hold at least one token; joined by separators that the
# tokenizer splits on, so a text's words and tokens differ.
_WORDS = st.sampled_from(["cat", "Dog", "a1", "zebra", "x_y", "été", "b-2", "Naïve",
                          "42", "the"])
_TEXTS = st.lists(st.tuples(_WORDS, st.sampled_from([" ", ", ", "\t", " -- "]))
                  .map("".join), min_size=1, max_size=10).map("".join)


class TestCosine:
    def test_identical(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_sim(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_sim(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_hand_value(self):
        got = cosine_sim(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert got == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            cosine_sim(np.zeros(3), np.ones(3))

    def test_tiny_vectors(self):
        # the squares of these components underflow to zero
        assert cosine_sim(np.array([0.0, 3.4e-162]), np.array([8.6e-163, 0.0])) == 0.0
        assert cosine_sim(np.array([1e-170, 1e-170]), np.array([3.0, 3.0])) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            cosine_sim(np.zeros(2), np.array([1e-170, 0.0]))

    def test_huge_vectors(self):
        # the squares of these components overflow to inf
        u = np.array([1.0, 2.0, 3.0])
        assert cosine_sim(u, u * 1e200) == pytest.approx(1.0)
        assert cosine_sim(-u * 1e200, u * 1e300) == pytest.approx(-1.0)
        assert cosine_scores(u, [u * 1e200, -u]) == pytest.approx([1.0, -1.0])
        assert cosine_scores(u * 1e200, [u]) == pytest.approx([1.0])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_component_rejected(self, bad):
        for u, v in ((np.array([1.0, bad]), np.ones(2)), (np.ones(2), np.array([bad, 1.0]))):
            with pytest.raises(ValueError, match="non-finite component"):
                cosine_sim(u, v)
            with pytest.raises(ValueError, match="non-finite component"):
                cosine_scores(u, [v])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine_sim(np.ones(3), np.ones(4))

    @given(st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=8),
           st.floats(min_value=0.1, max_value=50),
           st.floats(min_value=0.1, max_value=50))
    def test_symmetric_and_scale_invariant(self, values, a, b):
        u = np.array(values)
        v = u[::-1].copy()
        if np.linalg.norm(u) == 0 or np.linalg.norm(v) == 0:
            return
        assert cosine_sim(u, v) == pytest.approx(cosine_sim(v, u), abs=1e-12)
        assert cosine_sim(a * u, b * v) == pytest.approx(cosine_sim(u, v), abs=1e-9)


def _outcome(score):
    """float.hex of every score, or the error raised instead."""
    try:
        return [s.hex() for s in score()]
    except ValueError as exc:
        return repr(exc)


# Components of mixed magnitude and either sign, zeros and subnormals included.
_COMPONENTS = st.builds(lambda m, e: m * 10.0 ** e, st.floats(-1.0, 1.0), st.integers(-40, 40))


@st.composite
def _query_and_rows(draw):
    d = draw(st.integers(1, 8))
    vec = st.lists(_COMPONENTS, min_size=d, max_size=d).map(np.array)
    u = draw(vec) * draw(st.sampled_from([1.0, 1e-170, 1e170]))
    rows = []
    for kind in draw(st.lists(st.sampled_from(["any", "near_u", "tiny", "huge", "list"]),
                              max_size=8)):
        if kind == "near_u":  # cosines at the clip edges, +1 and -1
            scale = draw(st.sampled_from([1.0, -1.0, 3.0, -0.7, 1e-3]))
            v = u * scale + draw(vec) * draw(st.sampled_from([0.0, 1e-17, 1e-12]))
        elif kind == "tiny":  # squares underflow: cosine_sim's rescaling branch
            v = draw(vec) * 1e-170
        elif kind == "huge":  # squares overflow: the same branch
            v = draw(vec) * 1e170
        else:
            v = draw(vec)
        rows.append(v.tolist() if kind == "list" else v)
    return u, rows


class TestCosineScores:
    @settings(max_examples=300, deadline=None)
    @given(_query_and_rows())
    @example((np.ones(3), []))
    def test_equals_cosine_sim_bit_for_bit(self, query_and_rows):
        u, rows = query_and_rows
        assert (_outcome(lambda: cosine_scores(u, rows))
                == _outcome(lambda: [cosine_sim(u, v) for v in rows]))

    @pytest.mark.parametrize("bad", [np.zeros(2), np.ones(3), np.zeros(3)])
    def test_errors_as_cosine_sim(self, bad):
        u = np.array([1.0, 2.0])
        with pytest.raises(ValueError) as want:
            cosine_sim(u, bad)
        with pytest.raises(ValueError) as got:
            cosine_scores(u, [np.ones(2), bad])
        assert str(got.value) == str(want.value)


class TestTruncation:
    def test_truncates_tail(self):
        assert truncate_text("a b c d", 2) == "a b"

    def test_under_limit_unchanged(self):
        assert truncate_text("a b", 5) == "a b"


class TestHashingEmbedder:
    def test_repeated_token_same_direction(self, embedder):
        assert cosine_sim(embedder.embed("a a"), embedder.embed("a")) == pytest.approx(1.0)

    def test_disjoint_texts_orthogonal(self, embedder):
        # chosen tokens land in distinct buckets for this seed
        u = embedder.embed("cat")
        v = embedder.embed("dog")
        if np.argmax(u) != np.argmax(v):
            assert cosine_sim(u, v) == 0.0

    def test_deterministic(self):
        a = HashingEmbedder(32, seed=5).embed("some text here")
        b = HashingEmbedder(32, seed=5).embed("some text here")
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_vector(self):
        a = HashingEmbedder(32, seed=1).embed("some text here")
        b = HashingEmbedder(32, seed=2).embed("some text here")
        assert not np.array_equal(a, b)

    def test_unit_norm(self, embedder):
        assert np.linalg.norm(embedder.embed("x y z")) == pytest.approx(1.0, abs=1e-9)

    def test_empty_text_rejected(self, embedder):
        with pytest.raises(ValueError):
            embedder.embed("...")

    def test_min_dimension(self):
        with pytest.raises(ValueError):
            HashingEmbedder(dimension=4)

    def test_memoised_buckets_give_fresh_vectors(self):
        text = "the cat and the dog and the cat again"
        warm = HashingEmbedder(64, seed=7)
        warm.embed("cat dog unrelated words")  # fills the bucket memo first
        memoised = warm.embed(text)
        fresh = HashingEmbedder(64, seed=7).embed(text)
        # the definition: keyed blake2b bucket per token, integer counts, L2 norm
        counts = np.zeros(64)
        for token in tokenize(text):
            digest = hashlib.blake2b(token.encode("utf-8"), key=(7).to_bytes(8, "little"),
                                     digest_size=8).digest()
            counts[int.from_bytes(digest, "little") % 64] += 1.0
        np.testing.assert_array_equal(memoised, fresh)
        np.testing.assert_array_equal(memoised, counts / np.linalg.norm(counts))

    @settings(max_examples=200, deadline=None)
    @given(batches=st.lists(st.lists(_TEXTS, max_size=6), min_size=1, max_size=3),
           dimension=st.sampled_from([8, 13, 64, 256]),
           seed=st.integers(0, 2**64 - 1))
    def test_embed_batch_equals_definition(self, batches, dimension, seed):
        emb = HashingEmbedder(dimension, seed=seed)
        # later batches mix tokens memoised by earlier ones with new ones
        for texts in batches:
            texts = texts + texts[:2]  # repeated texts
            got = emb.embed_batch(texts)
            want = _definition_vectors(texts, dimension, seed)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == np.float64 and g.shape == (dimension,)
                assert g.tobytes() == w.tobytes()

    def test_empty_batch(self, embedder):
        assert embedder.embed_batch([]) == []

    def test_text_without_tokens_fails_the_batch(self, embedder):
        with pytest.raises(ValueError, match="no tokens"):
            embedder.embed_batch(["cat", "_ ...", "dog"])

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70, True, 1.0, "3", None])
    def test_seed_outside_uint64_rejected(self, seed):
        with pytest.raises(ValueError, match=rf"seed must be an integer in \[0, 2\*\*64\), "
                                             rf"got {seed!r}"):
            HashingEmbedder(64, seed=seed)

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    def test_seed_edges_follow_the_definition(self, seed):
        texts = ["the cat and the dog", "été 42"]
        got = HashingEmbedder(16, seed=seed).embed_batch(texts)
        want = _definition_vectors(texts, 16, seed)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def _index_of(docs, field_policy, saved):
    """``build_index(docs)``, or with ``saved`` the same index after save and load."""
    index = build_index(docs, field_policy=field_policy)
    if not saved:
        return index
    with tempfile.TemporaryDirectory() as tmp:
        save_index(index, Path(tmp) / "index")
        return load_index(Path(tmp) / "index")


class TestEmbedDocuments:
    """Vectors counted from an index's postings equal those of the indexed text."""

    @settings(max_examples=150, deadline=None)
    @given(docs=corpora(), field_policy=st.sampled_from(FIELD_POLICIES),
           picks=st.lists(st.integers(0, 10**6), max_size=12), saved=st.booleans(),
           dimension=st.sampled_from([8, 13, 256, 257]), seed=st.integers(0, 2**64 - 1))
    @example(docs=[Document("d1", "", "a " * 300 + "b"), Document("d2", "Tï", "b a")],
             field_policy="title_plus_text", picks=[1, 0, 1, 1], saved=True,
             dimension=256, seed=0)
    @example(docs=[Document(f"d{i:03d}", "", f"w{i % 7} é{i % 3} w{i % 7}") for i in range(150)],
             field_policy="text_only", picks=[149, 3, 64, 3, 0, 128], saved=False,
             dimension=64, seed=5)
    def test_equals_embed_batch_of_the_indexed_text(self, docs, field_policy, picks, saved,
                                                    dimension, seed):
        index = _index_of(docs, field_policy, saved)
        by_id = {d.doc_id: d for d in docs}
        ordinals = [p % index.num_docs for p in picks] if index.num_docs else []
        texts = [by_id[index.doc_ids[o]].indexed_text(field_policy) for o in ordinals]
        embedder = HashingEmbedder(dimension, seed=seed)
        try:
            want = HashingEmbedder(dimension, seed=seed).embed_batch(texts)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                embedder.embed_documents(index, ordinals)
            return
        got = embedder.embed_documents(index, ordinals)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == np.float64 and g.shape == (dimension,)
            assert g.tobytes() == w.tobytes()

    def test_tf_above_255(self, embedder):
        docs = [Document("d1", "", "a " * 300 + "b"), Document("d2", "", "b")]
        index = build_index(docs)
        assert index.tfs.dtype == embedder._table(index)[0].dtype == np.uint16
        got = embedder.embed_documents(index, [0, 1, 0])
        want = embedder.embed_batch(["a " * 300 + "b", "b", "a " * 300 + "b"])
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_document_without_tokens_is_the_embed_batch_error(self, embedder):
        index = build_index([Document("d1", "", "cat"), Document("d2", "", "... !!!")])
        with pytest.raises(ValueError, match="^cannot embed text with no tokens$"):
            embedder.embed_batch(["cat", "... !!!"])
        with pytest.raises(ValueError, match="^cannot embed text with no tokens$"):
            embedder.embed_documents(index, [0, 1])
        assert embedder.embed_documents(index, []) == []

    @pytest.mark.parametrize("dimension", [256, 257])
    def test_document_of_more_than_255_tokens(self, dimension):
        # 300 distinct terms: every tf is 1 (uint8), the document's length needs uint16
        long_text = " ".join(f"w{i}" for i in range(300))
        index = build_index([Document("d1", "", long_text), Document("d2", "", "w7 w7 x")])
        embedder = HashingEmbedder(dimension, seed=11)
        counts, norms = embedder._table(index)
        assert index.tfs.dtype == np.uint8 and counts.dtype == np.uint16
        # a term falls in the last bucket: at 257 dimensions bucket 256, beyond uint8
        assert max(map(embedder._buckets.__getitem__, index.terms)) == dimension - 1
        got = embedder.embed_documents(index, [1, 0])
        want = _definition_vectors(["w7 w7 x", long_text], dimension, 11)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_table_holds_each_documents_bucket_counts(self, small_docs, small_index):
        for dimension in (8, 257):
            embedder = HashingEmbedder(dimension, seed=4)
            counts, norms = embedder._table(small_index)
            assert counts.dtype == np.uint8 and counts.shape == (3, dimension)
            assert not counts.flags.writeable and not norms.flags.writeable
            for doc, row, norm in zip(small_docs, counts, norms):
                want = np.zeros(dimension, dtype=np.int64)
                for token in tokenize(doc.text):
                    want[embedder._buckets[token]] += 1
                assert row.tolist() == want.tolist()
                assert norm == np.linalg.norm(want.astype(np.float64))

    def test_table_of_a_loaded_index_with_wide_columns(self, tmp_path, small_index, embedder):
        save_index(small_index, tmp_path / "index")
        with np.load(tmp_path / "index") as npz:
            arrays = {k: npz[k] for k in npz.files}
        arrays.update(coded("doc_ordinals", small_index.doc_ordinals.astype(np.uint32),
                             small_index.offsets))
        with open(tmp_path / "wide", "wb") as fh:
            np.savez(fh, **arrays)
        loaded = load_index(tmp_path / "wide")
        assert loaded.doc_ordinals.dtype == np.uint32
        for got, want in zip(embedder._table(loaded), embedder._table(small_index)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_table_built_once_per_index(self, small_index, embedder):
        table = embedder._table(small_index)
        embedder.embed_documents(small_index, [0, 1, 2])
        embedder.embed_documents(small_index, [2])
        assert embedder._table(small_index) is table
        assert len(embedder._tables) == 1

    def test_two_live_indexes_keep_separate_tables(self, small_docs, small_index, embedder):
        other = build_index(small_docs[:1], field_policy="text_only")
        first = embedder.embed_documents(small_index, [0, 1, 2])
        embedder.embed_documents(other, [0])
        assert len(embedder._tables) == 2
        assert embedder._table(other)[0].shape == (1, 64)
        assert embedder._table(small_index)[0].shape == (3, 64)
        again = embedder.embed_documents(small_index, [0, 1, 2])
        assert [g.tobytes() for g in again] == [f.tobytes() for f in first]

    def test_index_and_its_table_freed_without_a_collection(self, small_docs, embedder,
                                                           gc_disabled):
        index = build_index(small_docs)
        embedder.embed_documents(index, [0])
        refs = weakref.ref(index), weakref.ref(embedder._table(index)[0])
        del index
        assert [r() for r in refs] == [None, None]
        assert len(embedder._tables) == 0

    def test_bucket_table_leaves_the_token_memo_alone(self, small_index, embedder):
        embedder.embed_documents(small_index, [0, 1, 2])
        assert embedder._buckets == {}


class TestEmbeddingMemo:
    def test_batch_with_tokenless_text_stores_nothing(self, counting):
        memo = EmbeddingMemo(counting)
        with pytest.raises(ValueError, match="no tokens"):
            memo.embed_batch(["cat", "...", "dog"])
        memo.embed_batch(["cat", "dog"])
        assert counting.calls == [["cat", "...", "dog"], ["cat", "dog"]]

    def test_sends_each_distinct_text_once(self, counting):
        memo = EmbeddingMemo(counting)
        got = memo.embed_batch(["a b", "c", "a b"])
        assert counting.calls == [["a b", "c"]]
        assert memo.embed_batch(["c", "d", "a b", "d"])[0] is got[1]
        assert counting.calls == [["a b", "c"], ["d"]]
        np.testing.assert_array_equal(memo.embed_batch(["d"])[0], counting.inner.embed("d"))
        assert len(counting.calls) == 2

    def test_order_and_values_preserved(self, counting):
        memo = EmbeddingMemo(counting)
        texts = ["x y", "z", "x y", "w"]
        memo.embed_batch(["w"])
        for got, text in zip(memo.embed_batch(texts), texts, strict=True):
            np.testing.assert_array_equal(got, counting.inner.embed(text))

    def test_all_seen_makes_no_call(self, counting):
        memo = EmbeddingMemo(counting)
        memo.embed_batch(["a", "b"])
        memo.embed_batch(["b", "a"])
        memo.embed_batch([])
        assert counting.calls == [["a", "b"]]

    def test_add_documents_fills_from_the_index_for_a_bare_hashing_embedder(
            self, small_docs, small_index, embedder):
        memo = EmbeddingMemo(embedder)
        memo.add_documents(small_index, {"d3": small_docs[2].text, "d1": small_docs[0].text})
        memo.add_documents(small_index, {"d3": small_docs[2].text})  # already stored
        texts = [small_docs[0].text, small_docs[2].text]
        assert sorted(memo._vectors) == sorted(texts)
        for got, want in zip(memo.embed_batch(texts), embedder.embed_batch(texts)):
            assert got.tobytes() == want.tobytes()

    def test_add_documents_does_nothing_on_the_text_path(self, small_docs, small_index,
                                                          counting, http_stub):
        for provider in (counting, RemoteEmbedder(http_stub.url, dimension=64)):
            memo = EmbeddingMemo(provider)
            memo.add_documents(small_index, {d.doc_id: d.text for d in small_docs})
            assert memo._vectors == {}
        assert counting.calls == [] and http_stub.call_count == 0

    def test_short_answer_rejected_and_nothing_stored(self, counting):
        short = counting.inner.embed_batch
        counting.inner.embed_batch = lambda texts: short(texts)[:1]
        memo = EmbeddingMemo(counting)
        with pytest.raises(ValueError, match="1 vectors for 2 texts"):
            memo.embed_batch(["a", "b"])
        counting.inner.embed_batch = short
        memo.embed_batch(["a", "b"])
        assert counting.calls == [["a", "b"], ["a", "b"]]


class _FakeSession:
    """Stands in for requests.Session; echoes per-token count vectors."""

    def __init__(self, dimension):
        self.dimension = dimension
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append(json)
        embeddings = [[float(len(text))] + [0.0] * (self.dimension - 1)
                      for text in json["input"]]
        return _FakeResponse({"embeddings": embeddings})


class _FakeResponse:
    status_code = 200

    def __init__(self, payload):
        self._payload = payload

    def json(self):
        return self._payload


class TestRemoteEmbedder:
    def test_batching_preserves_order(self):
        session = _FakeSession(8)
        emb = RemoteEmbedder("http://x/embed", dimension=8, session=session)
        emb.batch_size = 2
        texts = ["a", "bb", "ccc", "dddd", "eeeee"]
        vecs = emb.embed_batch(texts)
        assert [v[0] for v in vecs] == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert len(session.calls) == 3

    def test_truncation_applied(self, http_stub):
        http_stub.script = [(200, lambda body: {"embeddings": [[1.0] * 8] * len(body["input"])})]
        emb = RemoteEmbedder(http_stub.url, dimension=8)
        emb.max_input_tokens = 2
        emb.embed_batch(["a b c d", "e f"])
        assert http_stub.requests == [{"input": ["a b", "e f"]}]

    def test_dimension_check(self):
        session = _FakeSession(4)
        emb = RemoteEmbedder("http://x/embed", dimension=8, session=session)
        with pytest.raises(ValueError, match="dimension"):
            emb.embed("hello")

    @pytest.mark.parametrize("dimension", [0, -8])
    def test_dimension_below_1(self, dimension):
        with pytest.raises(ValueError, match=f"^dimension must be >= 1, got {dimension}$"):
            RemoteEmbedder("http://x/embed", dimension=dimension)

    def test_defaults_of_every_caller(self):
        emb = RemoteEmbedder("http://x/embed", dimension=8)
        assert (emb.max_input_tokens, emb.batch_size) == (512, 32)

    @pytest.mark.parametrize("bad, problem", [
        (float("nan"), "vector 1 holds a NaN or infinite component"),
        (float("inf"), "vector 1 holds a NaN or infinite component"),
        (float("-inf"), "vector 1 holds a NaN or infinite component"),
        (0.0, "vector 1 is all zeros"),
    ], ids=["nan", "infinity", "minus-infinity", "zeros"])
    def test_vector_without_a_direction_rejected(self, http_stub, bad, problem):
        # json.dumps writes NaN and Infinity, and the client's json parser reads them
        http_stub.script = [(200, {"embeddings": [[1.0] * 8, [bad] + [0.0] * 7, [1.0] * 8]})]
        with pytest.raises(ServiceError) as got:
            RemoteEmbedder(http_stub.url, dimension=8).embed_batch(["a", "b", "c"])
        assert str(got.value) == f"embedding service {http_stub.url}: {problem}"


@pytest.mark.parametrize("reply, problem", [
    (b"<html>busy</html>", "response body is not JSON: "),
    ({"embeddings": {"0": [1.0] * 8}}, "'embeddings' is not a list"),
    ({"embeddings": [[1.0] * 8, "eight"]}, "vector 1 is not a list of numbers: "),
    ({"embeddings": [[1.0] * 8, [1.0, [2.0]] + [1.0] * 6]}, "vector 1 is not a list of numbers: "),
], ids=["not-json", "embeddings-not-a-list", "vector-a-string", "vector-nested"])
def test_remote_body_without_usable_vectors_rejected(http_stub, reply, problem):
    http_stub.script = [(200, reply)]
    with pytest.raises(ServiceError) as got:
        RemoteEmbedder(http_stub.url, dimension=8).embed_batch(["a", "b"])
    assert str(got.value).startswith(f"embedding service {http_stub.url}: {problem}")
    assert http_stub.call_count == 1


class TestRemoteEmbedderRetries:
    """Transport errors, 5xx and 429 are retried; any other 4xx fails at once."""

    @pytest.fixture(autouse=True)
    def no_backoff(self, monkeypatch):
        monkeypatch.setattr(service, "BACKOFF_S", 0.0)

    @staticmethod
    def _vectors(body):
        return {"embeddings": [[1.0] + [0.0] * 7 for _ in body["input"]]}

    def _embed(self, http_stub):
        return RemoteEmbedder(http_stub.url, dimension=8).embed_batch(["a", "b"])

    @pytest.mark.parametrize("status", [503, 429])
    def test_retried_then_success(self, http_stub, status):
        http_stub.script = [(status, {"error": "busy"}), (200, self._vectors)]
        assert [v[0] for v in self._embed(http_stub)] == [1.0, 1.0]
        assert http_stub.call_count == 2

    def test_400_is_not_retried(self, http_stub):
        http_stub.script = [(400, {"error": "bad input"}), (200, self._vectors)]
        with pytest.raises(ServiceError,
                           match=rf"{http_stub.url}: rejected with HTTP 400: .*bad input"):
            self._embed(http_stub)
        assert http_stub.call_count == 1

    def test_gives_up_naming_the_last_error(self, http_stub):
        http_stub.script = [(500, {"error": "boom"}), (429, {"error": "slow down"})]
        with pytest.raises(ServiceError,
                           match=rf"{http_stub.url}: failed after 4 attempts: HTTP 429"):
            self._embed(http_stub)
        assert http_stub.call_count == service.ATTEMPTS == 4

    def test_truncated_body_retried_then_named(self, http_stub):
        # the header promises more bytes than are sent before the connection closes
        truncated = (200, self._vectors, {"Content-Length": "10000"})
        http_stub.script = [truncated, (200, self._vectors)]
        assert len(self._embed(http_stub)) == 2
        assert http_stub.call_count == 2

        http_stub.call_count = 0
        http_stub.script = [truncated]
        with pytest.raises(ServiceError,
                           match=rf"{http_stub.url}: failed after 4 attempts: .*IncompleteRead"):
            self._embed(http_stub)
        assert http_stub.call_count == 4
