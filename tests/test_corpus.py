import hashlib
import json
import tempfile
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from queryboost import corpus
from queryboost.corpus import (FIELD_POLICIES, DataFormatError, Document, IndexFormatError,
                               IndexMismatchError, build_index, check_corpus,
                               load_corpus_jsonl, load_index, save_index, text_digests)
from queryboost.tokenizer import tokenize

doc_texts = st.lists(
    st.text(alphabet="ab c", min_size=0, max_size=12), min_size=0, max_size=20)


def test_build_small():
    idx = build_index([Document("d1", "", "cat sat"), Document("d2", "", "dog")])
    assert idx.stats.avgdl == 1.5
    assert idx.df["cat"] == 1
    assert idx.stats.doc_length == {"d1": 2, "d2": 1}


def test_build_empty():
    idx = build_index([])
    assert idx.num_docs == 0
    assert idx.postings == {}


def test_hand_counts():
    docs = [Document("d1", "", "a a"), Document("d2", "", "a b"),
            Document("d3", "", "b")]
    idx = build_index(docs)
    assert idx.df["a"] == 2
    assert dict(idx.postings["a"])["d1"] == 2
    assert idx.avgdl == pytest.approx(5 / 3)


def test_duplicate_doc_id_rejected():
    docs = [Document("d1", "", "x"), Document("d1", "", "y")]
    with pytest.raises(ValueError, match="d1"):
        build_index(docs)


def test_title_plus_text_policy():
    doc = Document("d1", "Title Words", "body")
    assert build_index([doc]).stats.doc_length["d1"] == 3
    assert build_index([doc], field_policy="text_only").stats.doc_length["d1"] == 1


def test_unknown_policy():
    with pytest.raises(ValueError):
        build_index([], field_policy="bogus")


@given(doc_texts)
def test_determinism_and_token_conservation(texts):
    docs = [Document(f"d{i}", "", t) for i, t in enumerate(texts)]
    idx1 = build_index(docs)
    idx2 = build_index(docs)
    assert idx1.postings == idx2.postings
    assert idx1.df == idx2.df
    assert idx1.stats == idx2.stats

    total_tf = sum(tf for plist in idx1.postings.values() for _, tf in plist)
    assert total_tf == sum(idx1.stats.doc_length.values())
    for term, df in idx1.df.items():
        assert df <= idx1.num_docs
        assert df == len({d for d, _ in idx1.postings[term]})


def narrowest(values):
    """``values`` as the first of uint8, uint16 and uint32 that holds the largest of them."""
    largest = max(values, default=0)
    dtype = next(d for d in (np.uint8, np.uint16, np.uint32) if largest <= np.iinfo(d).max)
    return np.array(values, dtype=dtype)


def reference_build(docs, field_policy):
    """The index build_index must equal, from one Counter per document.

    Term ids by first appearance in ordinal order; postings sorted by (term, ordinal).
    Ordinals and tfs at the narrowest unsigned dtype that holds their largest value.
    """
    by_id = {d.doc_id: d for d in docs}
    doc_ids = tuple(sorted(by_id))
    texts = [by_id[d].indexed_text(field_policy) for d in doc_ids]
    term_ids, lengths, postings = {}, [], []
    for ordinal, text in enumerate(texts):
        tokens = tokenize(text)
        lengths.append(len(tokens))
        for term, tf in Counter(tokens).items():
            postings.append((term_ids.setdefault(term, len(term_ids)), ordinal, tf))
    postings.sort()
    df = np.bincount([t for t, _, _ in postings], minlength=len(term_ids))
    return {
        "doc_ids": doc_ids,
        "terms": tuple(term_ids),
        "doc_lengths": np.array(lengths, dtype=np.int32),
        "doc_digests": np.array([int.from_bytes(hashlib.blake2b(t.encode("utf-8"),
                                                                digest_size=8).digest(),
                                                "little") for t in texts], dtype="<u8"),
        "offsets": np.concatenate([[0], np.cumsum(df)]).astype(np.int64),
        "doc_ordinals": narrowest([o for _, o, _ in postings]),
        "tfs": narrowest([tf for _, _, tf in postings]),
    }


def assert_index_equals(index, expected):
    for name, want in expected.items():
        got = getattr(index, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, name
            assert got.shape == want.shape, name
            assert np.array_equal(got, want), name
        else:
            assert got == want, name


# ASCII and non-ASCII letters, digits, '_' and punctuation (token separators).
index_text = st.text(alphabet="ab AB9_-.é ßÜ٣", max_size=15)


@st.composite
def corpora(draw):
    """Documents in a drawn order; some corpora span several build blocks.

    A large corpus reuses a few drawn texts, so that it stays cheap to draw.
    """
    texts = draw(st.lists(index_text, min_size=1, max_size=8))
    titles = draw(st.lists(st.sampled_from(["", "", "Title", "Ünï b"]), min_size=1,
                           max_size=3))
    n = draw(st.integers(0, 2 * corpus._BLOCK_DOCS + 3))
    docs = [Document(f"d{i:03d}", titles[i % len(titles)], texts[i * 5 % len(texts)])
            for i in range(n)]
    return draw(st.permutations(docs))


@settings(max_examples=150, deadline=None)
@given(corpora(), st.sampled_from(FIELD_POLICIES))
def test_build_equals_reference_builder(docs, field_policy):
    index = build_index(docs, field_policy=field_policy)
    assert_index_equals(index, reference_build(docs, field_policy))
    assert index.term_ids == {t: i for i, t in enumerate(index.terms)}


def test_reference_examples_cover_the_edges():
    docs = [Document("b", "", "!!! ???"), Document("a", "Ünïcode Straße", ""),
            Document("c", "", "the the The"), Document("e", "", "")]
    for field_policy in FIELD_POLICIES:
        assert_index_equals(build_index(docs, field_policy=field_policy),
                            reference_build(docs, field_policy))
    assert_index_equals(build_index([]), reference_build([], "title_plus_text"))


def test_multi_block_index_survives_save_and_load(tmp_path):
    docs = [Document(f"d{i:03d}", "Tïtle" if i % 3 else "",
                     f"w{i % 7} x{i % 11} é{i % 5} w{i % 7}")
            for i in range(3 * corpus._BLOCK_DOCS + 1)]
    expected = reference_build(docs, "title_plus_text")
    save_index(build_index(docs), tmp_path / "index")
    assert_index_equals(load_index(tmp_path / "index"), expected)


@pytest.mark.parametrize("doc, length, tfs_sum", [(0, 1, 2), (5, 6, 7)])
def test_doc_length_checked_against_postings_and_tfs_above_1(tmp_path, doc, length,
                                                             tfs_sum):
    # d0 is "w0 w0", one posting with tf 2; d5 has seven postings with tf 1
    docs = [Document(f"d{i}", "", " ".join(f"w{j}" for j in range(i, 2 * i + 1)) + " w0")
            for i in range(6)]
    save_index(build_index(docs), tmp_path / "index")
    with np.load(tmp_path / "index") as npz:
        arrays = {k: npz[k] for k in npz.files}
    assert load_index(tmp_path / "index").doc_lengths.tolist() == [i + 2 for i in range(6)]
    arrays["doc_lengths"][doc] = length
    with open(tmp_path / "edited", "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(IndexFormatError, match=f"holds {length} for document 'd{doc}', "
                                               f"whose tfs sum to {tfs_sum}"):
        load_index(tmp_path / "edited")


@pytest.mark.parametrize("max_tf, dtype", [(1, np.uint8), (255, np.uint8),
                                           (256, np.uint16), (65536, np.uint32)])
def test_tfs_dtype_edges(max_tf, dtype):
    index = build_index([Document("d1", "", "a " * max_tf + "b"), Document("d2", "", "b")])
    assert index.tfs.dtype == dtype
    assert index.tfs.max() == max_tf


@pytest.mark.parametrize("num_docs, dtype", [(256, np.uint8), (257, np.uint16)])
def test_ordinals_dtype_edges(num_docs, dtype):
    index = build_index([Document(f"d{i:03d}", "", "w") for i in range(num_docs)])
    assert index.doc_ordinals.dtype == dtype
    assert index.doc_ordinals.tolist() == list(range(num_docs))


def test_ordinals_narrowed_from_the_largest_posting_ordinal():
    # documents past ordinal 255 have no tokens, so no posting holds their ordinals
    docs = [Document(f"d{i:03d}", "", f"w{i % 3} x" if i < 256 else "!!!")
            for i in range(300)]
    index = build_index(docs)
    assert index.num_docs == 300
    assert index.doc_ordinals.dtype == np.uint8
    assert_index_equals(index, reference_build(docs, "title_plus_text"))


def test_dropped_index_freed_without_a_collection(tmp_path, small_docs, gc_disabled):
    built = build_index(small_docs)
    save_index(built, tmp_path / "index")
    loaded = load_index(tmp_path / "index")
    assert loaded.postings == built.postings and loaded.df == built.df
    refs = weakref.ref(built), weakref.ref(loaded)
    del built, loaded
    assert [r() for r in refs] == [None, None]


@pytest.mark.parametrize("long_bytes, dtype", [(255, np.uint8), (256, np.uint16)])
def test_string_length_dtype_edges(tmp_path, long_bytes, dtype):
    long_term = "é" * (long_bytes // 2) + "x" * (long_bytes % 2)  # 2 UTF-8 bytes per é
    long_id = "ü" * (long_bytes // 2) + "y" * (long_bytes % 2)
    index = build_index([Document(long_id, "", long_term), Document("d1", "", "w")])
    save_index(index, tmp_path / "index")
    with np.load(tmp_path / "index") as npz:
        assert npz["term_lengths"].dtype == npz["doc_id_lengths"].dtype == dtype
        assert npz["term_lengths"].max() == npz["doc_id_lengths"].max() == long_bytes
    loaded = load_index(tmp_path / "index")
    assert loaded.terms == index.terms and loaded.doc_ids == index.doc_ids


def test_term_ids_is_a_plain_dict(small_index):
    assert type(small_index.term_ids) is dict
    assert small_index.term_ids.get("unseen") is None
    with pytest.raises(KeyError):
        small_index.term_ids["unseen"]
    assert "unseen" not in small_index.term_ids
    assert len(small_index.term_ids) == len(small_index.terms)


@given(doc_texts)
def test_avgdl_exact(texts):
    docs = [Document(f"d{i}", "", t) for i, t in enumerate(texts)]
    idx = build_index(docs)
    if idx.num_docs:
        assert idx.avgdl == sum(idx.stats.doc_length.values()) / idx.num_docs


class TestJsonlLoading:
    def test_full_line(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"_id":"d1","title":"T","text":"body"}\n')
        assert load_corpus_jsonl(p) == [Document("d1", "T", "body")]

    def test_missing_title_defaults_empty(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"_id":"d2","text":"x"}\n')
        assert load_corpus_jsonl(p) == [Document("d2", "", "x")]

    def test_malformed_line_reports_lineno(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"_id":"d1","text":"x"}\nnot json\n')
        with pytest.raises(ValueError, match=":2"):
            load_corpus_jsonl(p)

    def test_missing_required_key(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"_id":"d1"}\n')
        with pytest.raises(ValueError, match="missing required key"):
            load_corpus_jsonl(p)

    def test_not_an_object(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"_id":"d1","text":"x"}\n["d2", "y"]\n')
        with pytest.raises(DataFormatError, match=r"c\.jsonl:2: expected a JSON object"):
            load_corpus_jsonl(p)

    def test_duplicate_id_names_both_lines(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"_id":"d1","text":"x"}\n\n{"_id":"d2","text":"y"}\n'
                     '{"_id":"d1","text":"z"}\n')
        with pytest.raises(DataFormatError,
                           match=r"c\.jsonl:4: duplicate _id 'd1' \(first on line 1\)"):
            load_corpus_jsonl(p)

    def test_order_preserved(self, tmp_path):
        p = tmp_path / "c.jsonl"
        lines = [json.dumps({"_id": f"d{i}", "text": f"t{i}"}) for i in range(10)]
        p.write_text("\n".join(lines) + "\n")
        assert [d.doc_id for d in load_corpus_jsonl(p)] == [f"d{i}" for i in range(10)]


def test_index_round_trip(tmp_path, small_index):
    path = tmp_path / "index.json"
    save_index(small_index, path)
    assert [p.name for p in tmp_path.iterdir()] == ["index.json"]  # no ".npz" appended
    loaded = load_index(path)
    assert loaded.postings == small_index.postings
    assert loaded.df == small_index.df
    assert loaded.stats == small_index.stats
    assert loaded.field_policy == small_index.field_policy
    np.testing.assert_array_equal(loaded.doc_digests, small_index.doc_digests)


@given(st.dictionaries(st.text(min_size=1, max_size=6),
                       st.text(alphabet="ab cé", max_size=12), max_size=10))
def test_round_trip_any_doc_ids(texts_by_id):
    idx = build_index([Document(d, "", t) for d, t in texts_by_id.items()])
    with tempfile.TemporaryDirectory() as tmp:
        save_index(idx, Path(tmp) / "index")
        loaded = load_index(Path(tmp) / "index")
    assert loaded.postings == idx.postings
    assert dict(loaded.postings) == dict(idx.postings)
    assert loaded.stats == idx.stats
    assert loaded.doc_ids == tuple(sorted(texts_by_id))
    np.testing.assert_array_equal(loaded.doc_digests, idx.doc_digests)


@settings(max_examples=100, deadline=None)
@given(corpora(), st.sampled_from(FIELD_POLICIES))
@example([], "title_plus_text")
@example([Document("d1", "", "a b c"), Document("d2", "", "b c d")], "text_only")
@example([Document("d1", "", "a " * 300 + "b"), Document("d2", "", "a a b")], "text_only")
@example([Document(f"d{i:03d}", "", f"w x{i % 2} x{i % 2}") for i in range(300)],
         "text_only")
def test_load_gives_back_every_saved_array_and_dtype(docs, field_policy):
    """Covered by the examples: no documents, every tf 1, a tf above 255, a df above 255."""
    index = build_index(docs, field_policy=field_policy)
    with tempfile.TemporaryDirectory() as tmp:
        save_index(index, Path(tmp) / "index")
        loaded = load_index(Path(tmp) / "index")
    assert_index_equals(loaded, {name: getattr(index, name) for name in (
        "doc_ids", "terms", "field_policy", "doc_lengths", "doc_digests", "offsets",
        "doc_ordinals", "tfs")})


def test_saved_columns_hold_counts_and_only_the_tfs_above_1(tmp_path, small_index):
    save_index(small_index, tmp_path / "index")
    with np.load(tmp_path / "index") as npz:
        arrays = {k: npz[k] for k in npz.files}
    assert "offsets" not in arrays and "tfs" not in arrays
    # terms cat, sat, mat, dog, log; d3's "cat cat cat" is posting 1, cat's second
    assert arrays["dfs"].tolist() == np.diff(small_index.offsets).tolist() == [2, 2, 1, 1, 1]
    assert arrays["tf_positions"].tolist() == [1]
    assert arrays["tf_values"].tolist() == [3]
    for name in ("dfs", "doc_lengths", "tf_positions", "tf_values"):
        assert arrays[name].dtype == np.uint8, name


def test_failed_save_leaves_previous_index(tmp_path, small_index, monkeypatch):
    path = tmp_path / "index.idx"
    save_index(small_index, path)
    before = path.read_bytes()

    def fail_midway(fh, **arrays):
        fh.write(b"PK\x03\x04partial")
        raise OSError("No space left on device")

    monkeypatch.setattr(np, "savez", fail_midway)
    with pytest.raises(OSError, match="No space left"):
        save_index(build_index([Document("other", "", "dog")]), path)
    assert [p.name for p in tmp_path.iterdir()] == ["index.idx"]
    assert path.read_bytes() == before
    assert load_index(path).postings == small_index.postings


def test_views_compare_without_numpy_truth_values(small_docs, small_index):
    other = build_index(small_docs[:2])
    assert (small_index.postings == other.postings) is False
    assert (small_index.df == other.df) is False
    assert (small_index.stats == other.stats) is False
    assert small_index.postings["cat"] == [("d1", 1), ("d3", 3)]
    assert dict(small_index.df) == {"cat": 2, "sat": 2, "mat": 1, "dog": 1, "log": 1}


class TestCheckCorpus:
    def test_digest_is_of_the_indexed_text(self):
        doc = Document("d1", "Title", "body")
        assert build_index([doc]).doc_digests.tolist() == text_digests(["Title body"]).tolist()
        assert (build_index([doc], field_policy="text_only").doc_digests.tolist()
                == text_digests(["body"]).tolist())

    def test_changed_text_names_count_and_first_doc(self, small_docs, small_index):
        store = {d.doc_id: d for d in small_docs}
        store["d3"] = Document("d3", "", "cat cat dog")
        store["d2"] = Document("d2", "", "dog sat  log")  # same tokens, other text
        with pytest.raises(IndexMismatchError,
                           match=r"differ in the text of 2 documents \(first: 'd2'\)"):
            check_corpus(small_index, store)

    def test_title_counts_only_under_title_plus_text(self, small_docs):
        store = {d.doc_id: d for d in small_docs}
        store["d1"] = Document("d1", "new title", "cat sat mat")
        check_corpus(build_index(small_docs, field_policy="text_only"), store)
        with pytest.raises(IndexMismatchError, match="first: 'd1'"):
            check_corpus(build_index(small_docs), store)